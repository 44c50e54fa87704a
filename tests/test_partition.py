import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from partition_reference import (
    _current_distance_reference,
    assign_windows_reference,
    classify_clusters_reference,
    cluster_depth_reference,
    extract_polyline_reference,
    refine_boundary_reference,
)

from digcrowd import (
    ConfigError,
    DensityField,
    DepthMap,
    DigCrowdError,
    GridShape,
    PartitionError,
    Polyline,
    SceneConfig,
    SynthSpec,
    classify_clusters,
    cluster_depth,
    extract_polyline,
    far_count_from_external,
    generate_scene,
    generate_step_depth,
    mask_from_polyline,
    partition,
)
from digcrowd import io as dio
from digcrowd.partition import (
    ENERGY_RTOL,
    ClusterState,
    _assign_windows,
    _decimate,
    _refine_boundary,
    _seed_grid,
    decimation_factor,
)


def _flat_depth(w, h, value=0.5):
    return DepthMap(GridShape(w, h), np.full((h, w), value))


_MANUAL = Polyline.from_points([0.0, 8.0], [3.0, 3.0])


def _state_from_blocks(depth_values):
    """Hand-built cluster state: one cluster per distinct depth value."""
    vals = np.asarray(depth_values, dtype=np.float64)
    uniq = np.unique(vals)
    assign = np.searchsorted(uniq, vals).astype(np.int32)
    ys, xs = np.mgrid[0 : vals.shape[0], 0 : vals.shape[1]]
    feat, px, py = [], [], []
    for k in range(uniq.size):
        sel = assign == k
        feat.append(vals[sel].mean())
        px.append(xs[sel].mean())
        py.append(ys[sel].mean())
    return (
        ClusterState(
            assignments=assign,
            feature=np.array(feat),
            px=np.array(px),
            py=np.array(py),
            mean_depths=np.array(feat),
            grid_step=float(np.sqrt(vals.size / uniq.size)),
        ),
        DepthMap(GridShape(vals.shape[1], vals.shape[0]), vals),
    )


class TestClusterDepth:
    def test_constant_depth_tiles_by_position(self):
        state = cluster_depth(_flat_depth(8, 8), target_cluster_count=4)
        assert state.cluster_count == 4
        counts = np.bincount(state.assignments.ravel(), minlength=4)
        assert counts.sum() == 64
        assert (counts > 0).all()
        # position-only tiling: each cluster is one contiguous block
        for k in range(4):
            ys, xs = np.where(state.assignments == k)
            block = state.assignments[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
            assert (block == k).all()

    def test_step_depth_two_clusters_match_halves(self):
        vals = np.zeros((8, 8))
        vals[:4, :] = 1.0
        depth = DepthMap(GridShape(8, 8), vals)
        state = cluster_depth(depth, target_cluster_count=2, compactness=0.001)
        assert state.cluster_count == 2
        top = state.assignments[:4, :]
        bottom = state.assignments[4:, :]
        assert (top == top[0, 0]).all()
        assert (bottom == bottom[0, 0]).all()
        assert top[0, 0] != bottom[0, 0]

    def test_zero_iterations_is_nearest_initial_center(self):
        depth = _flat_depth(12, 10)
        state = cluster_depth(depth, target_cluster_count=6, max_iters=0)
        # constant feature: distance reduces to scaled spatial distance,
        # so the assignment must be the spatial Voronoi of the seeds
        ys, xs = np.mgrid[0:10, 0:12].astype(float)
        best = np.full((10, 12), np.inf)
        want = np.full((10, 12), -1, dtype=np.int32)
        for k in range(state.cluster_count):
            d2 = (xs - state.px[k]) ** 2 + (ys - state.py[k]) ** 2
            better = d2 < best
            best[better] = d2[better]
            want[better] = k
        assert np.array_equal(state.assignments, want)

    def test_energy_non_increasing(self):
        rng = np.random.default_rng(0)
        depth = DepthMap(GridShape(40, 30), rng.random((30, 40)))
        state = cluster_depth(depth, target_cluster_count=24, max_iters=8)
        e = np.array(state.energy_history)
        assert len(e) >= 2
        assert np.all(e[1:] <= e[:-1] * (1 + 1e-12) + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        vals = rng.random((25, 35))
        a = cluster_depth(DepthMap(GridShape(35, 25), vals), 16)
        b = cluster_depth(DepthMap(GridShape(35, 25), vals), 16)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.feature, b.feature)

    def test_full_coverage(self):
        rng = np.random.default_rng(4)
        depth = DepthMap(GridShape(33, 21), rng.random((21, 33)))
        state = cluster_depth(depth, target_cluster_count=12)
        assert state.assignments.min() >= 0
        assert state.assignments.max() < state.cluster_count

    def test_single_pixel_rejected(self):
        with pytest.raises(ConfigError):
            cluster_depth(_flat_depth(1, 1), 2)

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError):
            cluster_depth(_flat_depth(4, 4), 1)


# 28 seeds on 400 pixels, nudged off their grid points (7, 21, 35, 50, ...)
_THIN_SEEDS = [8, 21, 35, 49, 64, 78, 91, 108, 121, 135, 149, 163, 178, 191,
               206, 222, 235, 249, 265, 278, 291, 306, 322, 335, 349, 363, 379, 392]


@pytest.mark.parametrize(
    "height, width, target, px, py",
    [
        (1, 400, 2, [99, 300], [0, 0]),  # at most `target` columns, nudged off 100 and 300
        (400, 1, 28, [0] * 28, _THIN_SEEDS),
        (1, 2, 2, [0, 0], [0, 0]),  # equal gradients: both seeds take the first pixel
        (3, 1, 2, [0, 0], [0, 1]),  # the pixel off the image never wins
    ],
    ids=["1x400", "400x1", "1x2", "3x1"],
)
def test_seed_grid_on_thin_grids(height, width, target, px, py):
    """The gradient is 0 along an axis of length 1, which the oracle cannot compute."""
    depth = (np.arange(height * width) * 0.37 % 1.0).reshape(height, width)
    feat, cpx, cpy = _seed_grid(depth, target)
    assert cpx.tolist() == px and cpy.tolist() == py
    assert np.array_equal(feat, depth[py, px])


@pytest.mark.parametrize("width, height", [(4, 1), (1, 4), (400, 1)])
def test_thin_grids_get_at_most_the_target_clusters(width, height):
    depth = DepthMap(GridShape(width, height),
                     (np.arange(width * height) * 0.37 % 1.0).reshape(height, width))
    assert len(cluster_depth(depth, target_cluster_count=2).feature) <= 2


def _gains(state):
    e = np.array(state.energy_history)
    return (e[:-1] - e[1:]) / e[:-1]


class TestEnergyStop:
    """Clustering stops once an iteration lowers the energy by <= ENERGY_RTOL."""

    def test_bench_ramp_stops_after_one_iteration(self):
        depth = generate_scene(SynthSpec(seed=1)).depth  # 1080x720 ramp
        state = cluster_depth(depth, max_iters=10)
        assert len(state.energy_history) == 2
        assert 0.0 <= _gains(state)[0] <= ENERGY_RTOL
        assert state.stop_reason == "energy"

    def test_large_gains_keep_iterating(self):
        depth = generate_step_depth(GridShape(160, 120), boundary_row=60, seed=3)
        state = cluster_depth(depth, target_cluster_count=64, max_iters=10)
        gains = _gains(state)
        assert len(state.energy_history) > 2
        assert np.all(gains[:-1] > ENERGY_RTOL)
        assert gains[-1] <= ENERGY_RTOL

    def test_zero_iterations_unchanged(self):
        depth = generate_scene(SynthSpec(seed=1, shape=GridShape(270, 180), horizon_y=150.0)).depth
        capped = cluster_depth(depth, max_iters=0)
        full = cluster_depth(depth, max_iters=10)
        assert capped.energy_history == full.energy_history[:1]
        assert capped.stop_reason == "cap"
        _assert_same_state(capped, cluster_depth_reference(depth, max_iters=0))


    def test_settled_centres_stop_on_residual(self):
        assert cluster_depth(_flat_depth(8, 8), target_cluster_count=4).stop_reason == "residual"
        manual = partition(_flat_depth(8, 8), SceneConfig("m", polyline=_MANUAL))
        assert manual.stop_reason is None and manual.cluster_count is None


def test_line_follows_iso_depth_contour(tmp_path):
    """The automatic line stays on the column-wise contour at threshold_used.

    Depth is read back through DIGD, as ``evaluate`` reads it. Measured with
    the full-resolution refinement on the 120x80 clustering grid (f = 9):
    per-scene mean distance 0.41-0.57 px (average 0.50), worst column
    2.0 px, 7-13 segments per line. Without the refinement the superpixel
    boundary (at f = 4) averaged 7.8 px and reached 19.9 px.
    """
    means, worst = [], []
    for seed in range(1000, 1008):
        path = tmp_path / f"{seed}.digd"
        dio.write_depth_digd(path, generate_scene(SynthSpec(seed=seed)).depth)
        depth = dio.read_depth(path)
        part = partition(depth, SceneConfig(f"gate-{seed}"))
        contour = (depth.values >= part.threshold_used).sum(axis=0)
        line = part.polyline.eval_array(np.arange(depth.shape.width) + 0.5)
        gap = np.abs(line - contour)
        means.append(gap.mean())
        worst.append(gap.max())
    assert np.mean(means) <= 1.0, means
    assert max(worst) <= 2.0, worst


class TestCoarseGrid:
    def test_decimation_factor(self):
        assert decimation_factor(GridShape(1080, 720), 256) == 9
        assert decimation_factor(GridShape(160, 120), 64) == 2

    def test_factor_never_exceeds_the_shorter_side(self):
        assert decimation_factor(GridShape(6000, 3), 2) == 3
        assert decimation_factor(GridShape(6000, 1), 2) == 1
        assert decimation_factor(GridShape(8, 8), 100) == 1  # invalid count: cluster_depth says so

    def test_clusters_on_the_coarse_grid(self):
        depth = generate_scene(SynthSpec(seed=1)).depth  # 1080x720
        res = partition(depth, SceneConfig("coarse"))
        assert res.cluster_assignments.shape == (80, 120)
        assert res.cluster_count == res.cluster_mean_depths.size == res.cluster_assignments.max() + 1
        assert res.mask.far.shape == (720, 1080)

    def test_thin_grid_decimates_to_one_row(self):
        values = np.repeat(np.linspace(1.0, 0.0, 6000)[None, :], 3, axis=0)
        depth = DepthMap(GridShape(6000, 3), values)
        res = partition(depth, SceneConfig("thin"), target_cluster_count=2)
        assert res.cluster_assignments.shape == (1, 2000)
        assert np.array_equal(res.mask.far, mask_from_polyline(res.polyline, depth.shape).far)



def _ramp(width, height, seed, spread, float32):
    """Depth falling down every column, around a random-walk contour row."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.uniform(-1.5, 1.5, width))
    contour = np.clip(height * rng.uniform(0.2, 0.8) + walk - walk.mean(), 1, height - 1)
    rows = np.arange(height, dtype=np.float64)[:, None]
    values = 1.0 / (1.0 + np.exp((rows - contour[None, :]) / spread))
    if float32:
        values = values.astype(np.float32)
    return DepthMap(GridShape(width, height), values)


@st.composite
def _monotone_ramps(draw):
    """Ramps one to two times as wide as tall.

    32 or more clusters then give at least four rows of superpixels, as a
    1080x720 frame with 256 does (thirteen).
    """
    height = draw(st.integers(40, 150))
    width = draw(st.integers(height, 2 * height))
    seed = draw(st.integers(0, 2**32 - 1))
    spread = draw(st.sampled_from([0.5, 4.0, 20.0]))  # rows per unit of squashed depth
    return _ramp(width, height, seed, spread, draw(st.booleans()))


@given(_monotone_ramps(), st.integers(32, 96))
# At most three superpixel rows, where the band is the whole column; with a
# band of +-S rows these lines ended 5.0 and 4.0 px from the contour.
@example(_ramp(177, 27, 26, 0.5, True), 11)
@example(_ramp(35, 13, 1714, 20.0, False), 19)
@settings(max_examples=60, deadline=None)
def test_refined_line_within_2px_of_column_contour(depth, target):
    try:
        res = partition(depth, SceneConfig("ramp"), target_cluster_count=target)
    except PartitionError:
        return  # the clusters may all fall on one side of the split
    contour = (depth.values.astype(np.float64) >= res.threshold_used).sum(axis=0)
    line = res.polyline.eval_array(np.arange(depth.shape.width) + 0.5)
    assert np.abs(line - contour).max() <= 2.0 + 1e-9
    assert np.array_equal(res.mask.far, mask_from_polyline(res.polyline, depth.shape).far)


class TestClassifyClusters:
    def test_explicit_threshold(self):
        state, depth = _state_from_blocks(
            np.repeat([[0.1], [0.9]], 8, axis=1).repeat(4, axis=0)
        )
        labels = classify_clusters(state, threshold=0.5)
        assert labels.far.tolist() == [False, True]

    def test_boundary_inclusive_on_far(self):
        # dyadic depth so the cluster mean equals the threshold exactly
        state, depth = _state_from_blocks(np.full((4, 4), 0.625))
        labels = classify_clusters(state, threshold=0.625)
        assert labels.far.tolist() == [True]

    def test_auto_matches_midpoint_scan_example(self):
        blocks = np.block(
            [
                [np.full((4, 4), 0.2), np.full((4, 4), 0.21)],
                [np.full((4, 4), 0.8), np.full((4, 4), 0.82)],
            ]
        )
        state, depth = _state_from_blocks(blocks)
        labels = classify_clusters(state, threshold=None)
        assert 0.21 < labels.threshold < 0.8
        assert labels.far.tolist() == [False, False, True, True]

    def test_auto_equals_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            means = rng.random(n)
            if np.unique(means).size < 2:
                continue
            rows = np.repeat(means[None, :], 3, axis=0)
            state, depth = _state_from_blocks(rows)
            got = classify_clusters(state, threshold=None)
            # independent oracle: plain scan over midpoints of sorted means
            allm = [
                depth.values[state.assignments == k].mean()
                for k in range(state.cluster_count)
            ]
            m = np.sort(np.unique(allm))
            best_var, best_t = -1.0, None
            for t in (m[:-1] + m[1:]) / 2:
                lo = [v for v in allm if v < t]
                hi = [v for v in allm if v >= t]
                w0 = len(lo) / len(allm)
                var = w0 * (1 - w0) * (np.mean(lo) - np.mean(hi)) ** 2
                if var > best_var:
                    best_var, best_t = var, t
            assert got.threshold == pytest.approx(best_t, abs=1e-12)

    def test_no_contrast_errors(self):
        fake = ClusterState(
            assignments=np.tile(np.array([[0, 1]], dtype=np.int32), (4, 4)),
            feature=np.array([0.4, 0.4]),
            px=np.array([2.0, 5.0]),
            py=np.array([1.5, 1.5]),
            mean_depths=np.array([0.4, 0.4]),
            grid_step=4.0,
        )
        with pytest.raises(PartitionError, match="contrast"):
            classify_clusters(fake, threshold=None)


class TestExtractPolyline:
    def test_flat_band(self):
        vals = np.zeros((30, 100))
        vals[:10, :] = 1.0
        state, _ = _state_from_blocks(vals)
        poly, warnings = extract_polyline(np.array([False, True]), state, simplify_tol=2.0)
        assert not warnings
        assert len(poly.segments) == 1
        assert poly.segments[0, 2] == 0.0
        assert poly.eval(50.0) == pytest.approx(10.0)

    def test_staircase_single_sloped_segment(self):
        vals = np.zeros((40, 20))
        for x in range(20):
            vals[: 10 + x, x] = 1.0
        state, _ = _state_from_blocks(vals)
        poly, _ = extract_polyline(np.array([False, True]), state, simplify_tol=1.0)
        assert len(poly.segments) == 1
        # fitted line must track every column boundary within tolerance
        line = poly.eval_array(np.arange(20) + 0.5)
        boundary = 10 + np.arange(20)
        assert np.abs(line - boundary).max() <= 1.0

    def test_no_far_clusters_errors(self):
        state, _ = _state_from_blocks(np.repeat([[0.1], [0.9]], 4, axis=1).repeat(2, axis=0))
        with pytest.raises(PartitionError):
            extract_polyline(np.array([False, False]), state)

    def test_mask_roundtrip_within_tolerance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            h, w = 36, 60
            boundary = np.clip(
                12 + np.cumsum(rng.integers(-1, 2, w)).astype(float), 4, 30
            )
            vals = np.zeros((h, w))
            for x in range(w):
                vals[: int(boundary[x]), x] = 1.0
            state, depth = _state_from_blocks(vals)
            tol = 2.0
            poly, _ = extract_polyline(np.array([False, True]), state, tol)
            mask = mask_from_polyline(poly, depth.shape)
            got = mask.far.sum(axis=0)
            assert np.abs(got - boundary).max() <= tol + 1.0


class TestPartition:
    def test_manual_polyline_override(self):
        from digcrowd import Polyline

        poly = Polyline.from_points([0.0, 64.0], [10.0, 20.0])
        cfg = SceneConfig("manual", polyline=poly)
        res = partition(_flat_depth(64, 48), cfg)
        assert res.polyline is poly
        assert res.threshold_used is None
        assert res.cluster_assignments is None

    def test_manual_far_count_builds_no_raster(self):
        depth = _flat_depth(64, 48)
        res = partition(depth, SceneConfig("manual", polyline=Polyline.constant(20.0, x_end=64.0)))
        field = DensityField(depth.shape, np.ones((48, 64)))
        assert far_count_from_external(field, res.mask) == 64 * 20
        assert "far" not in res.mask.__dict__

    def test_step_depth_auto_within_2px(self):
        depth = generate_step_depth(GridShape(160, 120), boundary_row=48, seed=1)
        res = partition(depth, SceneConfig("step"), target_cluster_count=64)
        line = res.polyline.eval_array(np.arange(160) + 0.5)
        assert np.abs(line - 48).max() <= 2.0

    def test_constant_depth_auto_errors_with_scene_id(self):
        with pytest.raises(PartitionError, match="flat-scene"):
            partition(_flat_depth(32, 32), SceneConfig("flat-scene"))

    def test_mask_matches_polyline(self):
        depth = generate_step_depth(GridShape(80, 60), boundary_row=20, seed=2)
        res = partition(depth, SceneConfig("roundtrip"), target_cluster_count=48)
        again = mask_from_polyline(res.polyline, depth.shape)
        assert np.array_equal(res.mask.far, again.far)

    @pytest.mark.parametrize("width, height", [(400, 1), (1, 400), (2, 1), (1, 2)])
    def test_single_row_or_column_partitions(self, width, height):
        values = np.linspace(0.0, 1.0, width * height)
        if height > 1:
            values = values[::-1]  # far on top, so the band is clean
        depth = DepthMap(GridShape(width, height), values.reshape(height, width))
        res = partition(depth, SceneConfig("line"), target_cluster_count=2)
        assert res.threshold_used is not None
        assert np.array_equal(res.mask.far, mask_from_polyline(res.polyline, depth.shape).far)


# -- bit-for-bit agreement with the reference implementations ---------------

_COMPACTNESS = st.sampled_from([0.001, 0.1, 1.0, 10.0])


@st.composite
def _depth_grids(draw):
    """Random, constant, few-level, step and holed-band grids, at least 2x2."""
    width = draw(st.integers(2, 40))
    height = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["random", "constant", "levels", "step", "holes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        vals = rng.random((height, width))
    elif kind == "constant":
        vals = np.full((height, width), draw(st.sampled_from([0.0, 0.5, 1.0])))
    elif kind == "levels":  # few distinct values, so distances tie
        vals = rng.integers(0, 3, (height, width)) / 2.0
    elif kind == "step":
        boundary = int(rng.integers(1, height))
        return generate_step_depth(GridShape(width, height), boundary, seed=int(rng.integers(99)))
    else:  # far band over near ground, with near blocks inside and on its edges
        vals = np.full((height, width), 0.1)
        vals[: int(rng.integers(1, height + 1))] = 0.9
        for _ in range(int(rng.integers(1, 4))):
            r, c = int(rng.integers(0, height)), int(rng.integers(0, width))
            vals[r : r + int(rng.integers(1, 6)), c : c + int(rng.integers(1, 6))] = 0.1
    return DepthMap(GridShape(width, height), vals)


@st.composite
def _far_masks(draw):
    """Per-pixel far masks: a band with holes, some touching the image edge."""
    width = draw(st.integers(1, 24))
    height = draw(st.integers(1, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.random((height, width)) < draw(st.sampled_from([0.5, 0.7, 0.9]))
    far = np.zeros((height, width), dtype=bool)
    far[: int(rng.integers(0, height + 1))] = True
    for _ in range(int(rng.integers(0, 5))):
        r, c = int(rng.integers(0, height)), int(rng.integers(0, width))
        far[r : r + int(rng.integers(1, 4)), c : c + int(rng.integers(1, 4))] ^= True
    return far


@st.composite
def _cluster_means(draw):
    """Cluster mean depths: random, few-level, clustered and mirrored sets."""
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "levels", "clumps", "mirrored"]))
    if kind == "random":
        means = rng.random(size)
    elif kind == "levels":  # repeated values, so midpoints tie
        means = rng.integers(0, draw(st.integers(2, 6)), size) / 8.0
    elif kind == "clumps":  # tight groups, as superpixels on a ramp give
        centres = rng.random(draw(st.integers(1, 4)))
        means = np.clip(rng.choice(centres, size) + rng.normal(0.0, 1e-3, size), 0.0, 1.0)
    else:  # shuffled, symmetric about 0.5: mirrored splits tie up to rounding
        half = rng.integers(0, 100, (size + 1) // 2) / 100.0
        means = rng.permutation(np.concatenate([half, 1.0 - half]))
    return np.ascontiguousarray(means, dtype=np.float64)


@st.composite
def _refine_cases(draw):
    """A float32 or float64 frame, a clustering grid and a coarse boundary on it.

    Frames go down to one row or one column. The step ranges from under a
    pixel to many frames, so the band runs from +-1 row to wider than the
    frame; the threshold is often one of the frame's own depths.
    """
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = rng.random((height, width)).astype(dtype)
    if draw(st.booleans()):  # depth falling down every column
        values = -np.sort(-values, axis=0)
    coarse_h = draw(st.integers(1, height))
    coarse_w = draw(st.integers(1, width))
    coarse = rng.integers(0, coarse_h + 1, coarse_w).astype(np.float64)
    step = draw(st.floats(0.1, 60.0))
    if draw(st.booleans()):
        threshold = float(values.flat[draw(st.integers(0, values.size - 1))])
    else:
        threshold = draw(st.floats(0.0, 1.0))
    depth = DepthMap(GridShape(width, height), values)
    return coarse, (coarse_h, coarse_w), step, depth, threshold


_SKINNY = DepthMap(GridShape(2, 30), np.random.default_rng(7).random((30, 2)))


def _outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except DigCrowdError as exc:
        return type(exc), str(exc)


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_same_state(got, want):
    assert got.assignments.dtype == want.assignments.dtype == np.int32
    assert np.array_equal(got.assignments, want.assignments)
    for name in ("feature", "px", "py", "mean_depths"):
        assert _hex(getattr(got, name)) == _hex(getattr(want, name)), name
    assert _hex(got.energy_history) == _hex(want.energy_history)


def _assert_same_polyline(got, want):
    assert got.segments.shape == want.segments.shape
    assert _hex(got.segments.ravel()) == _hex(want.segments.ravel())


class TestReferenceOracle:
    """cluster_depth / classify_clusters / extract_polyline against the versions they replaced."""

    @given(_depth_grids(), _COMPACTNESS, st.integers(2, 40), st.sampled_from([0, 1, 3, 10]))
    @example(_SKINNY, 0.001, 2, 10)  # rows 0, 14, 15 and 29 lie outside both windows
    @example(_SKINNY, 10.0, 2, 0)
    @settings(max_examples=200, deadline=None)
    def test_cluster_depth_matches_reference(self, depth, compactness, target, max_iters):
        target = min(target, depth.values.size)
        got = cluster_depth(depth, target, compactness, max_iters)
        want = cluster_depth_reference(depth, target, compactness, max_iters)
        _assert_same_state(got, want)

    @given(_cluster_means())
    @example(np.array([0.0, 0.5, 1.0]))  # two midpoints tie exactly
    @example(np.array([0.25, np.nextafter(0.25, 1.0)]))  # the midpoint rounds onto a mean
    @settings(max_examples=300, deadline=None)
    def test_otsu_threshold_matches_midpoint_scan(self, means):
        state = ClusterState(
            assignments=np.arange(means.size, dtype=np.int32)[None, :],
            feature=means,
            px=np.zeros(means.size),
            py=np.zeros(means.size),
            mean_depths=means,
            grid_step=1.0,
        )
        got = _outcome(classify_clusters, state)
        want = _outcome(classify_clusters_reference, state)
        if isinstance(want[0], type):  # both raised
            assert got == want
        else:
            assert float(got.threshold).hex() == float(want.threshold).hex()
            assert np.array_equal(got.far, want.far)

    def test_otsu_threshold_on_bench_scenes_matches_midpoint_scan(self):
        for seed in (1, 2, 3):
            depth = generate_scene(SynthSpec(seed=seed)).depth
            state = cluster_depth(DepthMap(GridShape(270, 180), depth.values[2::4, 2::4]))
            got = classify_clusters(state).threshold
            assert float(got).hex() == float(classify_clusters_reference(state).threshold).hex()

    @given(_far_masks())
    @example(  # a hole that touches the edge-connected background only diagonally
        np.array(
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0]], dtype=bool
        )
    )
    @example(  # two far components of size 2: the first in raster order wins
        np.array([[0, 0, 0, 1, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]], dtype=bool)
    )
    @example(  # a winding far path whose runs join over three union rounds
        np.array(
            [
                [1, 1, 1, 0, 1],
                [0, 0, 1, 0, 1],
                [1, 0, 1, 0, 1],
                [1, 0, 1, 0, 1],
                [1, 1, 1, 1, 1],
            ],
            dtype=bool,
        )
    )
    @example(np.array([[1, 0, 1, 1, 0, 1]], dtype=bool))  # one row
    @example(np.array([[1], [1], [0], [1], [0]], dtype=bool))  # one column
    @example(np.array([[False]]))  # the far cluster owns no pixel: raises
    @settings(max_examples=300, deadline=None)
    def test_extract_polyline_fills_holes_like_reference(self, far_px):
        height, width = far_px.shape
        state = ClusterState(
            assignments=far_px.astype(np.int32),
            feature=np.array([0.1, 0.9]),
            px=np.array([0.0, 0.0]),
            py=np.array([0.0, 0.0]),
            mean_depths=np.array([0.1, 0.9]),
            grid_step=1.0,
        )
        labels = np.array([False, True])
        got = _outcome(extract_polyline, labels, state)
        want = _outcome(extract_polyline_reference, labels, state, GridShape(width, height))
        if isinstance(want[0], type):  # both raised
            assert got == want
        else:
            _assert_same_polyline(got[0], want[0])
            assert got[1] == want[1]

    @given(_refine_cases())
    @example((np.array([1.0, 0.0]), (1, 2), 3.0,  # one row, band wider than the frame
              DepthMap(GridShape(5, 1), np.linspace(0, 1, 5, dtype=np.float32)[None, :]), 0.5))
    @example((np.array([2.0]), (3, 1), 1.0,  # one column
              DepthMap(GridShape(1, 9), np.linspace(1, 0, 9)[:, None]), 0.625))
    @example((np.array([0.0, 10.0, 5.0]), (10, 3), 1.0,  # bands off the top and bottom edges
              DepthMap(GridShape(30, 40), np.repeat(np.linspace(1, 0, 40)[:, None], 30, axis=1)),
              0.5))
    @settings(max_examples=300, deadline=None)
    def test_refine_boundary_matches_reference(self, case):
        got = _refine_boundary(*case)
        want = refine_boundary_reference(*case)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)

    def test_step_depths_of_criterion_8_match_reference(self):
        """Criterion 8's 160x120 steps cluster on an 80x60 grid (f = 2).

        There the clustering, the threshold and the unrefined line match the
        references bit for bit, and the refined split puts every column's
        far rows on the step.
        """
        rng = np.random.default_rng(88)
        for seed in range(50):
            boundary = int(rng.integers(30, 91))
            depth = generate_step_depth(GridShape(160, 120), boundary_row=boundary, seed=seed)
            factor = decimation_factor(depth.shape, 64)
            assert factor == 2
            coarse = _decimate(depth, factor)
            state = cluster_depth(coarse, 64)
            _assert_same_state(state, cluster_depth_reference(coarse, 64))
            labels = classify_clusters(state)
            want = classify_clusters_reference(state)
            assert np.array_equal(labels.far, want.far)
            assert labels.threshold.hex() == want.threshold.hex()
            got_line = extract_polyline(labels.far, state)
            want_line = extract_polyline_reference(want.far, state, coarse.shape)
            _assert_same_polyline(got_line[0], want_line[0])
            assert got_line[1] == want_line[1]

            res = partition(depth, SceneConfig(f"step-{seed}"), target_cluster_count=64)
            assert np.array_equal(res.cluster_assignments, state.assignments)
            assert res.threshold_used == labels.threshold
            assert np.all(res.mask.far_rows == boundary), seed


# -- the chunked window pass on bench grids ---------------------------------

# Bench scenes are clustered at f = 9 (120x80); f = 4 (270x180) gives the
# same 260 centres windows about twice as wide.
_BENCH_GRIDS = {9: (80, 120), 4: (180, 270)}


def _bench_grid_pass(seed, factor):
    """A bench scene's grid decimated by ``factor``, with ``cluster_depth``'s seeds."""
    values = generate_scene(SynthSpec(seed=seed)).depth.values
    start = factor // 2
    grid = np.ascontiguousarray(values[start::factor, start::factor], dtype=np.float64)
    feat, cpx, cpy = _seed_grid(grid, 256)
    step = float(np.sqrt(grid.size / 256))
    return grid, feat, cpx, cpy, (0.1 / step) ** 2, step


def _empty_start(shape):
    return np.full(shape, np.inf), np.full(shape, -1, dtype=np.intp)


class TestChunkedWindowPass:
    """``partition._assign_windows`` against ``assign_windows_reference``, bit for bit."""

    @staticmethod
    def _both(grid, feat, cpx, cpy, ratio2, step, start):
        got = start[0].copy(), start[1].copy()
        want = start[0].copy(), start[1].copy()
        _assign_windows(grid, feat, cpx, cpy, ratio2, step, *got)
        assign_windows_reference(grid, feat, cpx, cpy, ratio2, step, *want)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_grid_matches_reference(self, seed):
        for factor, shape in _BENCH_GRIDS.items():
            grid, feat, cpx, cpy, ratio2, step = _bench_grid_pass(seed, factor)
            assert grid.shape == shape and feat.size == 260
            first = self._both(grid, feat, cpx, cpy, ratio2, step, _empty_start(shape))
            labels = first[1].ravel()
            assert labels.min() >= 0  # every pixel lies in some window

            # The iteration's start state: centres moved to their pixels' means,
            # every pixel holding its own centre's D^2, as cluster_depth sets it.
            rows, cols = (a.ravel() for a in np.indices(shape, dtype=np.float64))
            counts = np.maximum(np.bincount(labels, minlength=feat.size), 1)
            feat = np.bincount(labels, weights=grid.ravel(), minlength=feat.size) / counts
            cpx = np.bincount(labels, weights=cols, minlength=feat.size) / counts
            cpy = np.bincount(labels, weights=rows, minlength=feat.size) / counts
            d2 = _current_distance_reference(
                grid.ravel(), labels, feat, cpx, cpy, ratio2, cols, rows
            ).reshape(shape)
            second = self._both(grid, feat, cpx, cpy, ratio2, step, (d2, first[1]))
            assert not np.array_equal(second[1], first[1])

    def test_one_pass_scratch_stays_under_2_mb(self):
        passes = [_bench_grid_pass(1, factor) for factor in _BENCH_GRIDS]
        # The widest window decimation_factor lets through: f = 1 with a step
        # just under 2 * COARSE_STEP, side 26.
        depth = generate_step_depth(GridShape(160, 120), boundary_row=60)
        assert decimation_factor(depth.shape, 136) == 1
        grid = depth.values
        feat, cpx, cpy = _seed_grid(grid, 136)
        step = float(np.sqrt(grid.size / 136))
        assert int(2.0 * step) + 3 == 26 and feat.size == 130
        passes.append((grid, feat, cpx, cpy, (0.1 / step) ** 2, step))
        for grid, feat, cpx, cpy, ratio2, step in passes:
            best_d2, best_id = _empty_start(grid.shape)
            tracemalloc.start()
            try:
                _assign_windows(grid, feat, cpx, cpy, ratio2, step, best_d2, best_id)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2_000_000, grid.shape
