import numpy as np
import pytest

from digcrowd import (
    BoundingBox,
    ConfigError,
    DepthMap,
    GridShape,
    HeadPoint,
    Polyline,
    PolylineDomainError,
    PolySegment,
    SceneConfig,
    SceneRecord,
    mask_from_polyline,
    polyline_eval,
)


class TestPolylineEval:
    def test_constant_segment(self):
        p = Polyline.constant(100.0, x_end=50.0)
        assert polyline_eval(p, 20.0) == 100.0

    def test_boundary_belongs_to_second_segment(self):
        p = Polyline(
            (
                PolySegment(0.0, 10.0, 1.0, 0.0),
                PolySegment(10.0, 20.0, -1.0, 20.0),
            )
        )
        assert polyline_eval(p, 10.0) == 10.0

    def test_hand_arithmetic(self):
        p = Polyline((PolySegment(0.0, 5.0, 2.0, 3.0),))
        assert polyline_eval(p, 4.0) == 11.0

    def test_last_interval_closed(self):
        p = Polyline((PolySegment(0.0, 5.0, 2.0, 3.0),))
        assert polyline_eval(p, 5.0) == 13.0

    @pytest.mark.parametrize("x", [-0.5, 20.01])
    def test_outside_domain(self, x):
        p = Polyline((PolySegment(0.0, 20.0, 0.0, 1.0),))
        with pytest.raises(PolylineDomainError):
            polyline_eval(p, x)

    def test_eval_array_matches_scalar(self):
        p = Polyline.from_points([0.0, 30.0, 100.0], [5.0, 20.0, 10.0])
        xs = np.linspace(0.0, 100.0, 37)
        got = p.eval_array(xs)
        assert got == pytest.approx([p.eval(float(x)) for x in xs], abs=1e-12)


class TestPolylineValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Polyline(())

    def test_gap_rejected(self):
        with pytest.raises(ConfigError, match="contiguous"):
            Polyline((PolySegment(0, 10, 0, 1), PolySegment(11, 20, 0, 1)))

    def test_discontinuity_rejected(self):
        with pytest.raises(ConfigError, match="discontinuous"):
            Polyline((PolySegment(0, 10, 0, 1), PolySegment(10, 20, 0, 5)))

    def test_continuity_at_every_knot(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.uniform(0, 200, n + 1))
            xs[0], xs[-1] = 0.0, 200.0
            if np.any(np.diff(xs) <= 0):
                continue
            ys = rng.uniform(0, 100, n + 1)
            p = Polyline.from_points(xs, ys)
            for seg_a, seg_b in zip(p.segments, p.segments[1:]):
                left = seg_a.k * seg_a.x_end + seg_a.b
                right = seg_b.k * seg_b.x_start + seg_b.b
                assert abs(left - right) < 1e-9


class TestMaskFromPolyline:
    def test_line_at_zero_all_near(self):
        m = mask_from_polyline(Polyline.constant(0.0, x_end=6.0), GridShape(6, 5))
        assert m.far_count == 0

    def test_line_at_height_all_far(self):
        m = mask_from_polyline(Polyline.constant(5.0, x_end=6.0), GridShape(6, 5))
        assert m.far_count == 30

    def test_line_at_two_on_4x4(self):
        m = mask_from_polyline(Polyline.constant(2.0, x_end=4.0), GridShape(4, 4))
        assert m.far[:2].all() and not m.far[2:].any()
        assert m.far_count == 8

    def test_partition_of_pixels(self):
        shape = GridShape(31, 17)
        p = Polyline.from_points([0.0, 15.0, 31.0], [3.2, 9.7, 1.1])
        m = mask_from_polyline(p, shape)
        assert m.near_count + m.far_count == shape.pixel_count

    def test_monotone_boundary_heights_match_rounded_line(self):
        # brute-force per-column scan against the rasterized far heights
        rng = np.random.default_rng(11)
        shape = GridShape(40, 30)
        for _ in range(25):
            ys = np.sort(rng.uniform(0.0, 30.0, 4))
            if rng.random() < 0.5:
                ys = ys[::-1]
            p = Polyline.from_points([0.0, 12.0, 25.0, 40.0], ys)
            m = mask_from_polyline(p, shape)
            line = p.eval_array(np.arange(40) + 0.5)
            for x in range(shape.width):
                col = m.far[:, x]
                scanned = 0
                while scanned < shape.height and col[scanned]:
                    scanned += 1
                assert not col[scanned:].any()
                expected = int(np.clip(np.ceil(line[x] - 0.5), 0, shape.height))
                assert scanned == expected

    def test_domain_shortfall_names_interval(self):
        p = Polyline((PolySegment(0.0, 10.0, 0.0, 3.0),))
        with pytest.raises(ConfigError, match=r"uncovered .*10"):
            mask_from_polyline(p, GridShape(20, 5))


class TestTypes:
    def test_grid_shape_positive(self):
        with pytest.raises(ConfigError):
            GridShape(0, 5)

    def test_depth_map_range(self):
        with pytest.raises(ConfigError):
            DepthMap(GridShape(2, 2), np.array([[0.0, 0.5], [1.0, 1.5]]))

    def test_depth_map_shape_mismatch(self):
        with pytest.raises(ConfigError):
            DepthMap(GridShape(3, 2), np.zeros((3, 3)))

    def test_depth_values_frozen(self):
        d = DepthMap(GridShape(2, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0

    def test_bounding_box_validation(self):
        with pytest.raises(ConfigError):
            BoundingBox(5, 0, 5, 10, 0.5)
        with pytest.raises(ConfigError):
            BoundingBox(0, 0, 5, 10, 1.5)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigError):
                BoundingBox(0, 0, bad, 10, 0.5)
            with pytest.raises(ConfigError):
                BoundingBox(bad, 0, 5, 10, 0.5)

    def test_scene_config_validation(self):
        with pytest.raises(ConfigError):
            SceneConfig("s", beta=0.0)
        with pytest.raises(ConfigError):
            SceneConfig("s", knn_k=0)
        with pytest.raises(ConfigError):
            SceneConfig("s", kernel_truncation_radius=0.5)
        with pytest.raises(ConfigError):
            SceneConfig("s", depth_threshold=1.2)

    def test_scene_record_ground_truth_consistency(self):
        depth = DepthMap(GridShape(4, 4), np.zeros((4, 4)))
        cfg = SceneConfig("s")
        heads = (HeadPoint(1, 1), HeadPoint(2, 2))
        SceneRecord(cfg, depth, heads, 2.0)
        with pytest.raises(ConfigError):
            SceneRecord(cfg, depth, heads, 3.0)
