import dataclasses
import math

import numpy as np
import pytest
from density_reference import sigmas_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digcrowd import (
    ConfigError,
    DensityField,
    DigCrowdError,
    GridShape,
    Polyline,
    SynthSpec,
    adaptive_sigma,
    far_count_from_external,
    generate_scene,
    integrate,
    knn_mean_distance,
    mask_from_polyline,
    oracle_predictions,
    partition,
    rasterize_density,
)
from digcrowd.density import BETA, DEFAULT_TRUNCATION_RADIUS, KNN_K
from digcrowd.density import _deposit_gaussians as deposit_gaussians
from digcrowd.io import read_density_field, write_density_field


def _uniform_sigmas(n, sigma=2.0):
    return np.full(n, sigma)


def _full_mask(shape, far=True):
    line = float(shape.height) if far else 0.0
    return mask_from_polyline(Polyline.constant(line, x_end=float(shape.width)), shape)


class TestKnnMeanDistance:
    def test_worked_triangle(self):
        heads = np.array([[0, 0], [3, 0], [0, 4]])
        means = knn_mean_distance(heads, k=2)
        assert means[0] == pytest.approx(3.5, abs=1e-12)

    def test_k_clamped_to_available_neighbors(self):
        heads = np.array([[0, 0], [10, 0]])
        means = knn_mean_distance(heads, k=3)
        assert all(m == pytest.approx(10.0) for m in means)

    def test_single_head_undefined(self):
        means = knn_mean_distance(np.array([[5, 5]]), k=3)
        assert means.shape == (1,)
        assert math.isnan(means[0])

    def test_empty_errors(self):
        with pytest.raises(ConfigError):
            knn_mean_distance(np.empty((0, 2)), k=2)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(1, 6))
            pts = rng.uniform(0, 300, (n, 2))
            got = knn_mean_distance(pts, k)
            m = min(k, n - 1)
            # independent oracle: full pairwise distance matrix
            diff = pts[:, None, :] - pts[None, :, :]
            dmat = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dmat, np.inf)
            dmat.sort(axis=1)
            want = dmat[:, :m].mean(axis=1)
            assert np.abs(got - want).max() < 1e-9


class TestAdaptiveSigma:
    def test_worked_value(self):
        means = knn_mean_distance(np.array([[0, 0], [3, 0], [0, 4]]), 2)
        assert adaptive_sigma(means, 0.3)[0] == pytest.approx(1.05, abs=1e-12)

    def test_floor_for_lone_head(self):
        means = knn_mean_distance(np.array([[1, 1]]), 3)
        assert adaptive_sigma(means, 0.3, sigma_floor=1.0)[0] == 1.0

    def test_large_spacing(self):
        means = knn_mean_distance(np.array([[0, 0], [100, 0]]), 1)
        assert adaptive_sigma(means, 0.3)[0] == pytest.approx(30.0)

    def test_floor_clamps_small_products(self):
        means = knn_mean_distance(np.array([[0, 0], [0.5, 0]]), 1)
        assert adaptive_sigma(means, 0.3, sigma_floor=1.0)[0] == 1.0


class TestRasterizeDensity:
    def test_mass_equals_head_count_exactly(self):
        rng = np.random.default_rng(41)
        shape = GridShape(200, 150)
        for n in (1, 7, 80):
            pts = np.column_stack(
                [rng.uniform(0, shape.width, n), rng.uniform(0, shape.height, n)]
            )
            field = rasterize_density(pts, _uniform_sigmas(n), shape)
            assert field.total_mass == float(n)

    def test_corner_head_unit_mass(self):
        shape = GridShape(64, 64)
        field = rasterize_density(np.array([[0.0, 0.0]]), _uniform_sigmas(1, sigma=4.0), shape)
        assert field.total_mass == 1.0

    def test_rotational_symmetry_about_center_head(self):
        shape = GridShape(64, 64)
        field = rasterize_density(np.array([[32.0, 32.0]]), _uniform_sigmas(1, sigma=3.0), shape)
        vals = field.values
        for rotated in (np.rot90(vals), np.rot90(vals, 2), np.rot90(vals, 3)):
            assert np.abs(vals - rotated).max() < 1e-9

    def test_peak_strictly_decreases_with_sigma(self):
        shape = GridShape(96, 96)
        peaks = []
        for sigma in (1.0, 2.0, 4.0, 8.0):
            f = rasterize_density(
                np.array([[48.0, 48.0]]), _uniform_sigmas(1, sigma=sigma), shape
            )
            peaks.append(f.values.max())
            assert f.total_mass == 1.0
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_translation_invariance(self):
        shape = GridShape(120, 100)
        base = np.array([[30.25, 40.5], [35.75, 44.25], [33.5, 52.125]])
        sigmas = _uniform_sigmas(3, sigma=2.0)
        f0 = rasterize_density(base, sigmas, shape)
        f1 = rasterize_density(base + np.array([17.0, 9.0]), sigmas, shape)
        shifted = np.roll(np.roll(f0.values, 9, axis=0), 17, axis=1)
        assert np.abs(shifted - f1.values).max() < 1e-9

    def test_support_mask_confines_mass(self):
        shape = GridShape(60, 60)
        far_mask = mask_from_polyline(Polyline.constant(30.0, x_end=60.0), shape)
        # head 2 px above the line with a kernel that would spill across it
        field = rasterize_density(
            np.array([[30.0, 28.0]]),
            _uniform_sigmas(1, sigma=4.0),
            shape,
            support_mask=far_mask.far,
        )
        assert field.total_mass == 1.0
        assert integrate(field, far_mask) == 1.0

    def test_head_outside_grid_rejected(self):
        with pytest.raises(ConfigError):
            rasterize_density(np.array([[70.0, 5.0]]), _uniform_sigmas(1), GridShape(64, 64))

    @pytest.mark.parametrize(
        "sigma, trunc", [(0.0, 3.0), (-1.0, 3.0), (np.nan, 3.0), (np.inf, 3.0), (2.0, 0.5)]
    )
    def test_bad_kernel_parameters_rejected(self, sigma, trunc):
        heads = np.array([[4.0, 4.0], [5.0, 5.0]])
        with pytest.raises(ConfigError):
            rasterize_density(heads, np.array([2.0, sigma]), GridShape(8, 8),
                              truncation_radius=trunc)

    def test_params_length_mismatch(self):
        with pytest.raises(ConfigError):
            rasterize_density(np.array([[1, 1]]), _uniform_sigmas(2), GridShape(8, 8))


class TestIntegrate:
    def test_all_is_total_mass(self):
        rng = np.random.default_rng(3)
        shape = GridShape(50, 40)
        pts = np.column_stack([rng.uniform(0, 50, 9), rng.uniform(0, 40, 9)])
        field = rasterize_density(pts, _uniform_sigmas(9), shape)
        assert integrate(field, _full_mask(shape)) == field.total_mass

    def test_unit_kernel_inside_far_region(self):
        shape = GridShape(60, 60)
        mask = mask_from_polyline(Polyline.constant(40.0, x_end=60.0), shape)
        field = rasterize_density(
            np.array([[30.0, 15.0]]), _uniform_sigmas(1, sigma=2.0), shape
        )
        assert integrate(field, mask) == pytest.approx(1.0, abs=1e-6)

    def test_empty_far_region_zero(self):
        shape = GridShape(20, 20)
        field = rasterize_density(np.array([[10, 10]]), _uniform_sigmas(1), shape)
        assert integrate(field, _full_mask(shape, far=False)) == 0.0

    def test_shape_mismatch_errors(self):
        field = DensityField.zeros(GridShape(10, 10))
        with pytest.raises(DigCrowdError):
            integrate(field, _full_mask(GridShape(12, 10)))


class TestFarCountFromExternal:
    def test_oracle_field_roundtrip(self, tmp_path):
        rng = np.random.default_rng(71)
        shape = GridShape(120, 90)
        mask = mask_from_polyline(Polyline.constant(45.0, x_end=120.0), shape)
        far_pts = np.column_stack([rng.uniform(0, 120, 30), rng.uniform(0, 43, 30)])
        field = rasterize_density(
            far_pts, _uniform_sigmas(30, sigma=1.5), shape, support_mask=mask.far
        )
        path = tmp_path / "far.digf"
        write_density_field(path, field)
        far = far_count_from_external(read_density_field(path), mask)
        assert far == pytest.approx(30.0, abs=1e-3)

    def test_zero_field(self, tmp_path):
        shape = GridShape(16, 16)
        path = tmp_path / "zero.digf"
        write_density_field(path, DensityField.zeros(shape))
        assert far_count_from_external(read_density_field(path), _full_mask(shape)) == 0.0

    def test_near_only_mass_excluded(self, tmp_path):
        shape = GridShape(40, 40)
        mask = mask_from_polyline(Polyline.constant(20.0, x_end=40.0), shape)
        field = rasterize_density(
            np.array([[20.0, 35.0]]), _uniform_sigmas(1, sigma=1.0), shape
        )
        path = tmp_path / "near.digf"
        write_density_field(path, field)
        assert far_count_from_external(read_density_field(path), mask) == 0.0

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.digf"
        write_density_field(path, DensityField.zeros(GridShape(8, 8)))
        with pytest.raises(DigCrowdError):
            far_count_from_external(read_density_field(path), _full_mask(GridShape(9, 8)))


@st.composite
def _head_sets(draw):
    """1-40 heads on a 0.1 px lattice, with some rows repeated exactly."""
    n = draw(st.integers(1, 40))
    coord = st.floats(0.0, 300.0).map(lambda v: round(v, 1))
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.concatenate([pts, pts[repeats]])


# 560 heads on a lattice of 2 x 3 px cells plus 40 repeated ones: more heads
# than one KNN_BLOCK, with tied and zero neighbour distances.
_LATTICE = np.stack(np.meshgrid(np.arange(28.0) * 2, np.arange(20.0) * 3), axis=-1).reshape(-1, 2)
_MANY_HEADS = np.concatenate([_LATTICE, _LATTICE[::14]])


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64).tolist()


class TestHeadPathReference:
    @given(
        _head_sets(),
        st.integers(1, 16),
        st.floats(0.05, 1.0),
        st.sampled_from([0.5, 1.0, 4.0]),
    )
    @example(np.array([[5.0, 5.0]]), 3, 0.3, 1.0)  # lone head: the floor
    @example(np.array([[0.0, 0.0], [3.0, 4.0]]), 16, 0.3, 1.0)  # n = 2, k clamped
    @example(np.zeros((6, 2)), 4, 0.3, 1.0)  # all duplicates: zero means
    @example(np.arange(80.0).reshape(40, 2) % 7.0, 16, 0.7, 0.5)  # k = 16 > block of 8
    @example(_MANY_HEADS, 3, 1.0, 0.5)  # three blocks of the neighbour search
    @settings(max_examples=200, deadline=None)
    def test_sigmas_match_per_head_reference(self, heads, k, beta, floor):
        got = adaptive_sigma(knn_mean_distance(heads, k), beta, floor)
        assert _bits(got) == _bits(sigmas_reference(heads, k, beta, floor))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_oracle_density_matches_per_head_path(self, seed):
        """Far heads split one by one, per-head sigmas, one deposit per head."""
        rec = generate_scene(SynthSpec(clustering_intensity=1.0, seed=seed))
        sloped = Polyline.from_points([0.0, 500.0, 1080.0], [240.0, 330.0, 290.0])
        part = partition(rec.depth, dataclasses.replace(rec.config, polyline=sloped))
        got = oracle_predictions(rec, part).density.values
        poly = part.polyline
        far = np.array([(x, y) for x, y in rec.heads.tolist() if y < poly.eval(x)])
        sigmas = sigmas_reference(far, KNN_K, BETA)
        want = np.zeros(rec.depth.shape.array_shape)
        valid = part.mask.far.astype(np.uint8)
        for (x, y), sigma in zip(far.tolist(), sigmas.tolist()):
            deposit_gaussians(want, np.array([x]), np.array([y]), np.array([sigma]),
                              DEFAULT_TRUNCATION_RADIUS, valid)
        assert len(far) > 10
        assert _bits(got) == _bits(want)


@st.composite
def _float32_fields(draw):
    """Non-negative float32 fields: zeros, subnormals and a wide exponent range.

    Up to 24,000 pixels, so a region can exceed the 8192-element buffer in which
    numpy casts for `sum(dtype=...)`, which sums in another order.
    """
    width, height = draw(st.integers(1, 200)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo_exp = draw(st.sampled_from([-149, -130, -40, 0]))
    hi_exp = draw(st.integers(lo_exp, 126))
    mantissa = rng.uniform(1.0, 2.0, (height, width))
    values = np.ldexp(mantissa, rng.integers(lo_exp, hi_exp + 1, (height, width)))
    values[rng.random((height, width)) < draw(st.floats(0.0, 0.9))] = 0.0
    values = values.astype(np.float32)
    values.flags.writeable = False
    return DensityField(GridShape(width, height), values)


@st.composite
def _split_lines(draw, shape):
    """A random polyline across the full width, dipping above and below the frame."""
    inner = sorted(draw(st.sets(st.integers(1, max(shape.width - 1, 1)), max_size=4)))
    xs = [0.0, *(float(x) for x in inner if x < shape.width), float(shape.width)]
    half_rows = st.integers(-2, shape.height + 2).map(lambda v: v + 0.5)
    ys = draw(st.lists(st.floats(-2.0, shape.height + 2.0) | half_rows, min_size=len(xs),
                       max_size=len(xs)))
    return Polyline.from_points(xs, ys)


class TestFloat32Field:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_integrals_equal_float64_widening_bit_for_bit(self, data):
        field = data.draw(_float32_fields())
        line = data.draw(_split_lines(field.shape))
        mask = mask_from_polyline(line, field.shape)
        height, width = field.shape.array_shape
        far = np.arange(height)[:, None] + 0.5 < line.eval_array(np.arange(width) + 0.5)
        assert np.array_equal(mask.far_rows, far.sum(axis=0))
        assert _bits([integrate(field, mask)]) == _bits(
            [field.values[far].astype(np.float64).sum()])
        wide = DensityField(field.shape, field.values.astype(np.float64))
        assert field.values.dtype == np.float32 and wide.values.dtype == np.float64
        assert _bits([integrate(field, mask)]) == _bits([integrate(wide, mask)])
        assert _bits([field.total_mass]) == _bits([wide.total_mass])

    def test_read_density_field_is_a_read_only_float32_view(self, tmp_path):
        rng = np.random.default_rng(11)
        values = (rng.random((24, 30)) * 0.01).astype(np.float32)
        path = tmp_path / "f.digf"
        write_density_field(path, DensityField(GridShape(30, 24), values))
        back = read_density_field(path)
        assert back.values.dtype == np.float32
        assert not back.values.flags.writeable
        assert np.array_equal(back.values, values)
        with pytest.raises(ValueError):
            back.values[0, 0] = 1.0
