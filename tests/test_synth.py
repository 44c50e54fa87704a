import numpy as np
import pytest
from scipy import stats as sstats
from synth_reference import heads_reference

from digcrowd import (
    ConfigError,
    GridShape,
    NoiseSpec,
    SynthError,
    SynthSpec,
    apply_spatial_constraint,
    generate_scene,
    generate_step_depth,
    integrate,
    oracle_predictions,
    partition,
    rasterize_density,
    run_record,
)

SMALL = SynthSpec(shape=GridShape(360, 240), n_people=50, horizon_y=200.0, seed=7)


class TestGenerateScene:
    def test_deterministic_for_seed(self):
        a = generate_scene(SMALL)
        b = generate_scene(SMALL)
        assert np.array_equal(a.depth.values, b.depth.values)
        assert np.array_equal(a.heads, b.heads)
        assert a.config == b.config

    def test_depth_monotone_in_y(self):
        rec = generate_scene(SMALL)
        diffs = np.diff(rec.depth.values, axis=0)
        assert diffs.max() <= 1e-12

    def test_ground_truth_is_n_people(self):
        rec = generate_scene(SMALL)
        assert rec.ground_truth_count == 50
        assert rec.heads.shape == (50, 2) and not rec.heads.flags.writeable

    def test_heads_inside_grid_and_off_the_line(self):
        rec = generate_scene(SMALL)
        line = 100.0  # horizon 200 -> split at 100
        for x, y in rec.heads:
            assert 0 <= x < 360 and 0 <= y < 240
            assert abs(y - line) >= SMALL.exclusion_margin

    def test_zero_people_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_people=0)

    @pytest.mark.parametrize("seed", ["x", 1.5, -1, None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            SynthSpec(seed=seed)

    def test_capacity_error(self):
        with pytest.raises(SynthError):
            generate_scene(
                SynthSpec(
                    shape=GridShape(40, 40),
                    n_people=900,
                    horizon_y=30.0,
                    near_head_size=12.0,
                    far_head_size=6.0,
                    seed=1,
                )
            )

    def test_uniform_when_clustering_zero(self):
        # chi-square occupancy test on a 4x4 grid, heads pooled over 50 seeds
        counts = np.zeros((4, 4))
        spec0 = SynthSpec(
            shape=GridShape(320, 240),
            n_people=40,
            horizon_y=200.0,
            clustering_intensity=0.0,
            exclusion_margin=0.0,
            near_head_size=10.0,
            far_head_size=4.0,
        )
        import dataclasses

        for seed in range(50):
            rec = generate_scene(dataclasses.replace(spec0, seed=seed))
            for x, y in rec.heads:
                counts[min(int(y / 60), 3), min(int(x / 80), 3)] += 1
        total = counts.sum()
        chi2 = ((counts - total / 16) ** 2 / (total / 16)).sum()
        assert chi2 < sstats.chi2.ppf(0.99, 15)

    def test_clustering_shifts_mass_to_far_band(self):
        import dataclasses

        base = SynthSpec(shape=GridShape(320, 240), n_people=80, horizon_y=200.0)
        far_frac = []
        for intensity in (0.0, 4.0):
            spec = dataclasses.replace(base, clustering_intensity=intensity, seed=3)
            rec = generate_scene(spec)
            far = sum(1 for _, y in rec.heads if y < 100.0)
            far_frac.append(far / len(rec.heads))
        assert far_frac[1] > far_frac[0]


_PLACEMENT_SPECS = {
    "uniform": SynthSpec(shape=GridShape(1080, 720), n_people=600, horizon_y=600.0, seed=1001),
    "clustered": SynthSpec(shape=GridShape(320, 240), n_people=150, horizon_y=200.0,
                           near_head_size=24.0, far_head_size=6.0,
                           clustering_intensity=1.5, seed=4),
    "clustered-no-margin": SynthSpec(shape=GridShape(400, 300), n_people=200, horizon_y=260.0,
                                     clustering_intensity=3.0, exclusion_margin=0.0, seed=5),
    "near-just-above-far": SynthSpec(shape=GridShape(400, 300), n_people=300, horizon_y=260.0,
                                     near_head_size=10.01, far_head_size=10.0, seed=6),
    "frame-64x48": SynthSpec(shape=GridShape(64, 48), n_people=20, horizon_y=40.0,
                             near_head_size=8.0, far_head_size=3.0, seed=7),
    "frame-64x48-clustered": SynthSpec(shape=GridShape(64, 48), n_people=12, horizon_y=48.0,
                                       near_head_size=5.0, far_head_size=2.0,
                                       clustering_intensity=0.5, exclusion_margin=0.0, seed=8),
    "2000-heads": SynthSpec(shape=GridShape(1080, 720), n_people=2000, horizon_y=600.0, seed=40),
}


class TestPlacementMatchesReference:
    """The cell-bucketed spacing check places the O(n) loop's heads, bit for bit."""

    @pytest.mark.parametrize("spec", _PLACEMENT_SPECS.values(), ids=_PLACEMENT_SPECS.keys())
    def test_same_heads(self, spec):
        heads = generate_scene(spec).heads
        assert heads.tobytes() == heads_reference(spec).tobytes()

    def test_same_capacity_error(self):
        spec = SynthSpec(shape=GridShape(40, 40), n_people=150, horizon_y=30.0,
                         near_head_size=12.0, far_head_size=6.0, seed=1)
        with pytest.raises(SynthError) as want:
            heads_reference(spec)
        with pytest.raises(SynthError) as got:
            generate_scene(spec)
        assert str(got.value) == str(want.value)
        assert "could only place" in str(got.value)


class TestStepDepth:
    def test_boundary_levels(self):
        d = generate_step_depth(GridShape(50, 40), boundary_row=16, ripple=0.0)
        assert (d.values[:16] == 0.85).all()
        assert (d.values[16:] == 0.15).all()

    def test_bad_row_rejected(self):
        with pytest.raises(ConfigError):
            generate_step_depth(GridShape(10, 10), boundary_row=10)


class TestOraclePredictions:
    def test_zero_noise_is_exact(self):
        rec = generate_scene(SMALL)
        part = partition(rec.depth, rec.config)
        preds = oracle_predictions(rec, part, NoiseSpec(), seed=0, spec=SMALL)
        assert preds.near_head_count + preds.far_head_count == 50
        assert len(preds.detections) == preds.near_head_count
        assert integrate(preds.density, part.mask) == float(
            preds.far_head_count
        )
        # no oracle box may sit in the deleted region
        rep = apply_spatial_constraint(preds.detections, part.polyline)
        assert not rep.deleted

    def test_p_miss_one_drops_everything(self):
        rec = generate_scene(SMALL)
        part = partition(rec.depth, rec.config)
        preds = oracle_predictions(
            rec, part, NoiseSpec(p_miss=1.0), seed=0, spec=SMALL
        )
        assert len(preds.detections) == 0

    def test_deterministic_noise_stream(self):
        rec = generate_scene(SMALL)
        part = partition(rec.depth, rec.config)
        noise = NoiseSpec(p_miss=0.3, fp_rate=2.0, box_jitter=1.0, density_noise_sigma=1e-4)
        a = oracle_predictions(rec, part, noise, seed=5, spec=SMALL)
        b = oracle_predictions(rec, part, noise, seed=5, spec=SMALL)
        assert np.array_equal(a.detections.rows, b.detections.rows)
        assert np.array_equal(a.density.values, b.density.values)

    def test_miss_rate_binomial_mean(self):
        import dataclasses

        # ~100 near heads per scene, p_miss 0.2: mean detected near 80 +- 3 sigma
        spec = SynthSpec(
            shape=GridShape(480, 320),
            n_people=170,
            horizon_y=260.0,
            seed=0,
            near_head_size=14.0,
            far_head_size=5.0,
        )
        detected = []
        near_totals = []
        for seed in range(60):
            rec = generate_scene(dataclasses.replace(spec, seed=seed))
            part = partition(rec.depth, rec.config)
            preds = oracle_predictions(
                rec, part, NoiseSpec(p_miss=0.2), seed=seed, spec=spec
            )
            detected.append(len(preds.detections))
            near_totals.append(preds.near_head_count)
        mean_near = np.mean(near_totals)
        expect = 0.8 * mean_near
        spread = 3.0 * np.sqrt(mean_near * 0.2 * 0.8)
        assert abs(np.mean(detected) - expect) <= spread

    def test_noise_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(p_miss=1.5)
        with pytest.raises(ConfigError):
            NoiseSpec(fp_rate=-1.0)
        NoiseSpec(fp_rate=9.2e18)  # numpy's Poisson sampler takes means up to ~9.22e18
        with pytest.raises(ConfigError, match="numpy's largest Poisson mean"):
            NoiseSpec(fp_rate=9.3e18)

    def test_support_mask_without_a_pixel_is_a_config_error(self):
        empty = np.zeros((5, 6), dtype=bool)
        with pytest.raises(ConfigError, match="^density support mask has no valid pixels$"):
            rasterize_density([[2.0, 2.0]], [1.0], GridShape(6, 5), support_mask=empty)

    @pytest.mark.parametrize("name", ["p_miss", "fp_rate", "box_jitter", "density_noise_sigma"])
    def test_noise_levels_refuse_bools(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got True$"):
            NoiseSpec(**{name: True})


class TestRunRecord:
    def test_zero_noise_exact_total(self):
        rec = generate_scene(SMALL)
        est = run_record(rec, NoiseSpec(), seed=0, spec=SMALL)
        assert est.total == est.ground_truth

    def test_false_positives_inflate_near(self):
        rec = generate_scene(SMALL)
        est0 = run_record(rec, NoiseSpec(), seed=2, spec=SMALL)
        est1 = run_record(rec, NoiseSpec(fp_rate=8.0), seed=2, spec=SMALL)
        assert est1.near_count > est0.near_count
