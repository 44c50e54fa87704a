import numpy as np
import pytest

from digcrowd import (
    ConfigError,
    DensityField,
    DepthMap,
    DetectionSet,
    DetectorGridSpec,
    GridPrediction,
    GridShape,
    Polyline,
    PolylineDomainError,
    RegionMask,
    SceneConfig,
    SceneRecord,
    mask_from_polyline,
)
from digcrowd.partition import ClusterState


class TestPolylineEval:
    def test_constant_segment(self):
        p = Polyline.constant(100.0, x_end=50.0)
        assert p.eval(20.0) == 100.0

    def test_boundary_belongs_to_second_segment(self):
        p = Polyline([[0.0, 10.0, 1.0, 0.0], [10.0, 20.0, -1.0, 20.0]])
        assert p.eval(10.0) == 10.0

    def test_hand_arithmetic(self):
        p = Polyline([[0.0, 5.0, 2.0, 3.0]])
        assert p.eval(4.0) == 11.0

    def test_last_interval_closed(self):
        p = Polyline([[0.0, 5.0, 2.0, 3.0]])
        assert p.eval(5.0) == 13.0

    @pytest.mark.parametrize("x", [-0.5, 20.01])
    def test_outside_domain(self, x):
        p = Polyline([[0.0, 20.0, 0.0, 1.0]])
        with pytest.raises(PolylineDomainError):
            p.eval(x)

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
            Polyline([[0, 10, 0, 1], [11, 20, 0, 1]])

    def test_discontinuity_rejected(self):
        with pytest.raises(ConfigError, match="discontinuous"):
            Polyline([[0, 10, 0, 1], [10, 20, 0, 5]])

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
            for (_, a_end, a_k, a_b), (b_start, _, b_k, b_b) in zip(p.segments, p.segments[1:]):
                assert abs((a_k * a_end + a_b) - (b_k * b_start + b_b)) < 1e-9

    def test_segments_are_one_read_only_array(self):
        p = Polyline([[0, 10, 0, 1], [10, 20, 0.5, -4]])
        assert p.segments.dtype == np.float64 and p.segments.shape == (2, 4)
        with pytest.raises(ValueError):
            p.segments[0, 3] = 2.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match=r"\(M, 4\)"):
            Polyline([[0.0, 10.0, 0.0]])

    def test_first_bad_row_named_before_any_pair(self):
        rows = [[0, 10, 0, 1], [11, 20, 0, 1], [20, 20, 0, 1], [20, 19, 0, 1]]
        with pytest.raises(ConfigError, match=r"x_end > x_start, got \[20.0, 20.0\]"):
            Polyline(rows)

    @pytest.mark.parametrize(
        "row",
        [[10, 20, np.nan, 1], [10, 20, 0, np.inf], [10, np.inf, 0, 1], [-np.inf, 20, 0, 1]],
        ids=["nan-k", "inf-b", "inf-x-end", "neg-inf-x-start"],
    )
    def test_non_finite_row_rejected_first(self, row):
        # finiteness is checked before the x-order rule that row 1 breaks
        rows = [[0, 10, 0, 1], [10, 5, 0, 1], row]
        with pytest.raises(ConfigError, match="segment 2 is not finite"):
            Polyline(rows)
        with pytest.raises(ConfigError, match="segment 0 is not finite"):
            Polyline([row])

    def test_first_bad_pair_named(self):
        rows = [[0, 10, 0, 1], [10, 20, 0, 1], [21, 30, 0, 1], [30, 40, 0, 9]]
        with pytest.raises(ConfigError, match=r"\[10.0, 20.0\] then \[21.0, 30.0\]"):
            Polyline(rows)
        rows = [[0, 10, 0, 1], [10, 20, 0, 3], [21, 30, 0, 3]]
        with pytest.raises(ConfigError, match="discontinuous at x=10.0: 1.0 vs 3.0"):
            Polyline(rows)

    def test_value_equality(self):
        p = Polyline.from_points([0.0, 10.0], [1.0, 1.0])
        assert p == Polyline.constant(1.0, x_end=10.0)
        assert p != Polyline.constant(2.0, x_end=10.0)
        assert SceneConfig("s", polyline=p) == SceneConfig("s", polyline=Polyline(p.segments))
        with pytest.raises(TypeError):
            hash(p)


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

    @pytest.mark.parametrize(
        "far_rows",
        [np.zeros(5, dtype=int), np.zeros((4, 6), dtype=int), np.array([0, 1, -1, 2, 3, 4]),
         np.array([0, 1, 5, 2, 3, 4]), np.zeros(6)],
        ids=["short", "raster", "negative", "above-height", "float"],
    )
    def test_region_mask_rejects_bad_far_rows(self, far_rows):
        with pytest.raises(ConfigError, match="far rows must"):
            RegionMask(GridShape(6, 4), far_rows)

    def test_domain_shortfall_names_interval(self):
        p = Polyline([[0.0, 10.0, 0.0, 3.0]])
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
            DetectionSet(((5, 0, 5, 10, 0.5),))
        with pytest.raises(ConfigError):
            DetectionSet(((0, 0, 5, 10, 1.5),))
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigError):
                DetectionSet(((0, 0, bad, 10, 0.5),))
            with pytest.raises(ConfigError):
                DetectionSet(((bad, 0, 5, 10, 0.5),))

    def test_scene_config_validation(self):
        with pytest.raises(ConfigError):
            SceneConfig("s", depth_threshold=1.2)

    def test_scene_record_ground_truth_consistency(self):
        depth = DepthMap(GridShape(4, 4), np.zeros((4, 4)))
        cfg = SceneConfig("s")
        heads = np.array([[1, 1], [2, 2]])
        SceneRecord(cfg, depth, heads, 2.0)
        with pytest.raises(ConfigError):
            SceneRecord(cfg, depth, heads, 3.0)

    @pytest.mark.parametrize("heads, count, message", [
        ([[1.0, np.nan]], 1.0, "head coordinates must be finite"),
        ([[np.inf, 2.0]], 1.0, "head coordinates must be finite"),
        ([[1.0, 2.0]], np.nan, "count nan must be finite and >= 0"),
        ([], np.nan, "count nan must be finite and >= 0"),
    ])
    def test_scene_record_keeps_the_annotation_rule(self, heads, count, message):
        depth = DepthMap(GridShape(4, 4), np.zeros((4, 4)))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SceneRecord(SceneConfig("s"), depth, heads, count)


_SHAPE = GridShape(5, 4)
# The caller's (4, 5) array: valid box rows, every value in [0, 1].
_GIVEN = np.tile([0.0, 0.0, 1.0, 1.0, 0.25], (4, 1))
# type -> (build the object around the caller's array as passed by ``hand``,
# read the array back)
_HOLDERS = {
    "DepthMap": (lambda a, hand: DepthMap(_SHAPE, hand(a)), lambda obj: obj.values),
    "DensityField": (lambda a, hand: DensityField(_SHAPE, hand(a)), lambda obj: obj.values),
    "SceneRecord.heads": (
        lambda a, hand: SceneRecord(
            SceneConfig("s"), DepthMap(_SHAPE, np.zeros((4, 5))), hand(a.reshape(10, 2)), 10.0
        ),
        lambda obj: obj.heads,
    ),
    "ClusterState": (
        lambda a, hand: ClusterState(
            assignments=np.zeros((4, 5), dtype=np.int32),
            feature=hand(a.ravel()),
            px=np.zeros(20),
            py=np.zeros(20),
            mean_depths=np.zeros(20),
            grid_step=1.0,
        ),
        lambda obj: obj.feature,
    ),
    "DetectionSet": (lambda a, hand: DetectionSet(hand(a)), lambda obj: obj.rows),
    "GridPrediction": (
        lambda a, hand: GridPrediction(
            DetectorGridSpec(1, 2, 10), _SHAPE, hand(a.reshape(1, 1, 20))
        ),
        lambda obj: obj.values,
    ),
}


class TestCallerArrays:
    """The read-only types never freeze the caller's own writeable array."""

    @pytest.mark.parametrize("name", sorted(_HOLDERS))
    @pytest.mark.parametrize("hand", [lambda a: a, memoryview], ids=["array", "memoryview"])
    def test_caller_array_stays_writeable_and_detached(self, name, hand):
        build, read = _HOLDERS[name]
        given = _GIVEN.copy()
        obj = build(given, hand)
        assert given.flags.writeable
        given[...] = 0.75  # a later write reaches the caller's array only
        held = read(obj)
        assert not held.flags.writeable
        assert np.array_equal(held.ravel(), _GIVEN.ravel())

    def test_read_only_array_is_taken_without_copy(self):
        given = _GIVEN.copy()
        given.flags.writeable = False
        assert DepthMap(_SHAPE, given).values is given
        assert DensityField(_SHAPE, given).values is given
        assert DetectionSet(given).rows is given
        values = given.reshape(1, 1, 20)
        assert GridPrediction(DetectorGridSpec(1, 2, 10), _SHAPE, values).values is values
