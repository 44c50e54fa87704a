"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, printing a pass line on success (run with ``pytest -s`` to see
them)."""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from digcrowd import (
    DetectionSet,
    DetectorGridSpec,
    GridPrediction,
    GridShape,
    NoiseSpec,
    SceneConfig,
    SynthSpec,
    adaptive_sigma,
    apply_spatial_constraint,
    decode,
    evaluate_pairs,
    generate_scene,
    generate_step_depth,
    integrate,
    knn_mean_distance,
    mae,
    mask_from_polyline,
    mse,
    nms,
    oracle_predictions,
    partition,
    rasterize_density,
    run_record,
)
from digcrowd.density import BETA, KNN_K
from digcrowd.io import read_prediction_tensor, write_prediction_tensor
from digcrowd.scene import Polyline


def _ok(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_mass_conservation():
    rng = np.random.default_rng(20260810)
    shape = GridShape(1080, 720)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 501))
        spec = SynthSpec(
            shape=shape,
            n_people=n,
            horizon_y=600.0,
            clustering_intensity=float(rng.uniform(0.0, 1.5)),
            seed=int(rng.integers(0, 2**32)),
        )
        rec = generate_scene(spec)
        sigmas = adaptive_sigma(knn_mean_distance(rec.heads, KNN_K), BETA)
        field = rasterize_density(rec.heads, sigmas, shape)
        full = mask_from_polyline(
            Polyline.constant(float(shape.height), x_end=float(shape.width)), shape)
        assert abs(integrate(field, full) - n) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"mass-conservation suite took {elapsed:.1f}s"
    _ok(1, f"mass conservation, 200 scenes in {elapsed:.1f}s")


def test_criterion_2_geometry_adaptive_sigma():
    # worked example: heads (0,0),(3,0),(0,4), k=2, beta=0.3 -> sigma 1.05
    means = knn_mean_distance(np.array([[0, 0], [3, 0], [0, 4]]), k=2)
    assert abs(means[0] - 3.5) <= 1e-9
    assert abs(adaptive_sigma(means, 0.3)[0] - 1.05) <= 1e-9

    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 501))
        k = int(rng.integers(1, 8))
        beta = float(rng.uniform(0.1, 0.6))
        pts = rng.uniform(0, 1000, (n, 2))
        got_mean = knn_mean_distance(pts, k)
        # independent oracle: full all-pairs distance matrix
        diff = pts[:, None, :] - pts[None, :, :]
        dmat = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dmat, np.inf)
        dmat.sort(axis=1)
        m = min(k, n - 1)
        want_mean = dmat[:, :m].mean(axis=1)
        assert np.abs(got_mean - want_mean).max() <= 1e-9
        sig_floor = 1.0
        want_sigma = np.maximum(beta * want_mean, sig_floor)
        got_sigma = adaptive_sigma(got_mean, beta, sig_floor)
        assert np.abs(got_sigma - want_sigma).max() <= 1e-9
    _ok(2, "geometry-adaptive sigma vs brute-force oracle")


def test_criterion_3_spatial_constraint_oracle():
    rng = np.random.default_rng(77)
    shape = GridShape(200, 150)
    agreements = 0
    for _ in range(1000):
        xs = np.linspace(0.0, shape.width, 6)
        while True:
            ys = np.sort(rng.uniform(15.0, 135.0, 6))
            if rng.random() < 0.5:
                ys = ys[::-1]
            if np.all(np.abs(np.diff(ys) / np.diff(xs)) <= 1.0):
                break
        poly = Polyline.from_points(xs, ys)
        xc = float(rng.uniform(3.0, shape.width - 3.0))
        yc = float(rng.uniform(3.0, shape.height - 3.0))
        size = float(rng.uniform(2.0, 12.0))
        box = (xc - size / 2, yc - size / 2, xc + size / 2, yc + size / 2, 0.8)
        dets = DetectionSet((box,))
        report = apply_spatial_constraint(dets, poly)
        # idempotence on every instance
        again = apply_spatial_constraint(report.kept, poly)
        assert np.array_equal(again.kept.rows, report.kept.rows) and not len(again.deleted)
        assert len(report.kept) + len(report.deleted) == 1
        ix = int(np.clip(math.floor(xc), 0, shape.width - 1))
        iy = int(np.clip(math.floor(yc), 0, shape.height - 1))
        if abs(yc - poly.eval(xc)) < 0.5 or abs(yc - poly.eval(ix + 0.5)) < 0.5:
            continue  # rasterization-ambiguous band around the line
        mask = mask_from_polyline(poly, shape)
        deleted = len(report.deleted) == 1
        assert deleted == bool(mask.far[iy, ix])
        agreements += 1
    assert agreements >= 800  # the band excludes only a small fraction
    _ok(3, f"spatial constraint vs mask oracle on {agreements} unambiguous instances")


def test_criterion_4_decode_golden_fixture(tmp_path):
    spec = DetectorGridSpec(s=7, b=2, c=1)
    shape = GridShape(700, 700)
    vals = np.zeros((7, 7, spec.cell_values))

    def put(row, col, slot, x, y, w, h, c, cp):
        vals[row, col, slot * 5 : slot * 5 + 5] = (x, y, w, h, c)
        vals[row, col, 10] = cp

    put(0, 0, 0, 0.5, 0.5, 0.1, 0.2, 0.8, 0.75)      # score 0.6, clamped top
    put(3, 3, 0, 0.5, 0.5, 1 / 7, 1 / 7, 1.0, 1.0)   # score 1.0
    put(6, 6, 0, 0.875, 0.875, 0.0625, 0.0625, 0.5, 0.5)  # score 0.25
    put(2, 5, 0, 0.25, 0.75, 0.25, 0.125, 0.25, 0.75)     # score 0.1875
    put(5, 1, 0, 0.5, 0.25, 0.0625, 0.25, 0.75, 0.625)    # score 0.46875
    vals[3, 3, 5:10] = (0.5, 0.5, 0.25, 0.25, 0.05)       # score 0.05 < threshold

    path = tmp_path / "golden.digy"
    write_prediction_tensor(path, GridPrediction(spec, shape, vals))
    dets = decode(read_prediction_tensor(path), score_threshold=0.1)
    assert len(dets) == 5
    got = {round(b[4], 6): tuple(b[:4]) for b in dets.rows.tolist()}
    expected = {
        0.6: (15.0, 0.0, 85.0, 120.0),
        1.0: (300.0, 300.0, 400.0, 400.0),
        0.25: (665.625, 665.625, 700.0, 700.0),
        0.1875: (437.5, 231.25, 612.5, 318.75),
        0.46875: (128.125, 437.5, 171.875, 612.5),
    }
    assert set(got) == set(expected)
    for score, coords in expected.items():
        assert got[score] == pytest.approx(coords, abs=1e-3)
    scores = sorted(dets.rows[:, 4].tolist())
    for got_s, want_s in zip(scores, sorted(expected)):
        assert abs(got_s - want_s) <= 1e-6

    # hand-derived NMS survivor sets on overlapping triples
    a = (0, 0, 10, 10, 0.9)
    b = (4, 0, 14, 10, 0.8)   # iou(a,b) = 60/140 < 0.5
    c = (0, 0, 10, 10, 0.7)   # iou(a,c) = 1.0
    assert np.array_equal(nms(DetectionSet((c, b, a)), 0.5).rows, (a, b))

    b2 = (2, 0, 12, 10, 0.8)  # iou(a,b2) = 80/120 >= 0.5 -> out
    c2 = (6, 0, 16, 10, 0.7)  # iou(c2,a) = 40/160 < 0.5 -> kept
    assert np.array_equal(nms(DetectionSet((a, b2, c2)), 0.5).rows, (a, c2))

    d1 = (0, 0, 5, 5, 0.3)
    d2 = (10, 0, 15, 5, 0.9)
    d3 = (0, 10, 5, 15, 0.6)
    assert len(nms(DetectionSet((d1, d2, d3)), 0.5)) == 3
    _ok(4, "decode golden fixture and NMS survivor sets")


def test_criterion_5_end_to_end_oracle_exact():
    base = SynthSpec(
        shape=GridShape(480, 320),
        horizon_y=260.0,
        exclusion_margin=2.0,
        near_head_size=24.0,
        far_head_size=7.0,
    )
    rng = np.random.default_rng(5)
    pairs = []
    for seed in range(100):
        spec = dataclasses.replace(
            base,
            seed=seed,
            n_people=int(rng.integers(5, 160)),
            clustering_intensity=float(rng.choice([0.0, 0.5, 2.0])),
        )
        rec = generate_scene(spec)
        est = run_record(rec, NoiseSpec(), seed=seed, spec=spec)
        assert est.total == est.ground_truth, f"seed {seed}"
        pairs.append((est.ground_truth, est.total))
    record = evaluate_pairs(pairs)
    assert record.mae == 0.0
    assert record.mse == 0.0
    _ok(5, "end-to-end oracle, 100 scenes, MAE = MSE = 0 exactly")


def test_criterion_6_noise_response():
    spec0 = SynthSpec(
        shape=GridShape(720, 480),
        n_people=170,
        horizon_y=400.0,
        near_head_size=16.0,
        far_head_size=6.0,
    )
    p_miss = 0.1
    errors = []
    near_counts = []
    for seed in range(200):
        spec = dataclasses.replace(spec0, seed=seed)
        rec = generate_scene(spec)
        part = partition(rec.depth, rec.config)
        preds = oracle_predictions(rec, part, NoiseSpec(p_miss=p_miss), seed=seed, spec=spec)
        report = apply_spatial_constraint(preds.detections, part.polyline)
        far = integrate(preds.density, part.mask)
        total = len(report.kept) + far
        errors.append(abs(rec.ground_truth_count - total))
        near_counts.append(preds.near_head_count)
    measured_mae = float(np.mean(errors))
    expected_mae = p_miss * float(np.mean(near_counts))
    stderr = math.sqrt(sum(n * p_miss * (1 - p_miss) for n in near_counts)) / len(errors)
    assert abs(measured_mae - expected_mae) <= 3.0 * stderr, (
        f"MAE {measured_mae:.3f} vs binomial expectation {expected_mae:.3f} "
        f"(3 SE = {3 * stderr:.3f})"
    )
    assert 80.0 <= float(np.mean(near_counts)) <= 120.0  # ~100 near heads per scene
    _ok(
        6,
        f"noise response: MAE {measured_mae:.2f} within 3 SE of {expected_mae:.2f}",
    )


def test_criterion_7_metric_fixtures():
    pairs = [(10.0, 12.0), (20.0, 17.0)]
    assert abs(mae(pairs) - 2.5) <= 1e-12
    assert abs(mse(pairs) - math.sqrt(6.5)) <= 1e-12
    _ok(7, "metric fixtures MAE 2.5, MSE sqrt(6.5)")


def test_criterion_8_partition_fidelity():
    rng = np.random.default_rng(88)
    hits = 0
    for seed in range(50):
        boundary = int(rng.integers(30, 91))
        depth = generate_step_depth(GridShape(160, 120), boundary_row=boundary, seed=seed)
        result = partition(depth, SceneConfig(f"step-{seed}"), target_cluster_count=64)
        energies = np.array(result.energy_history)
        assert energies.size >= 2
        assert np.all(
            energies[1:] <= energies[:-1] * (1 + 1e-9) + 1e-9
        ), f"energy rose on seed {seed}"
        line = result.polyline.eval_array(np.arange(160) + 0.5)
        if np.abs(line - boundary).max() <= 2.0:
            hits += 1
    assert hits >= 48  # >= 95% of 50 seeds
    _ok(8, f"partition fidelity: {hits}/50 seeds within 2 px, energy monotone")


def test_criterion_9_non_reproduction_statement():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().lower()
    assert "not reproduced" in text
    assert "trained" in text and "dataset" in text
    _ok(9, "benchmark non-reproduction statement present in README")
