"""The benchmark's span table keeps resolving against the package.

``perfbench/spans.py`` wraps functions by module attribute and reads
counters off their results (``len(dets)``, ``len(report.deleted)``). A
renamed function or a changed result type would silently zero a per-layer
metric; these tests load the table by path, without changing it, and run
it over a small bench.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from digcrowd import (
    DetectorGridSpec,
    GridPrediction,
    GridShape,
    load_manifest,
    partition,
    run_dataset,
)
from digcrowd import io as dio
from digcrowd.pipeline import Manifest, PipelineParams, bench_generate

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = _spans_module()
    assert spans.TRACED
    for module_name, attr, _, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_detector_counters_recorded_on_a_tensor_scene(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "dataset_id": "traced",
        "defaults": {"shape": [320, 240], "n_people": 30, "horizon_y": 200.0},
        "count": 2,
        "seed_start": 7,
    }))
    manifest_path, errors = bench_generate(spec_path, tmp_path / "bench")
    assert not errors
    manifest = load_manifest(manifest_path)
    grid = DetectorGridSpec(s=4, b=2, c=1)
    values = np.zeros((4, 4, grid.cell_values))
    values[3, 1, :5] = (0.5, 0.5, 0.05, 0.05, 1.0)  # low in the frame: kept
    values[3, 1, 5:10] = (0.5, 0.5, 0.05, 0.05, 0.9)  # its duplicate: suppressed
    values[0, 2, :5] = (0.5, 0.25, 0.05, 0.05, 0.8)  # high in the frame: deleted
    values[..., -1] = 1.0
    tensor = tmp_path / "scene.digy"
    dio.write_prediction_tensor(tensor, GridPrediction(grid, GridShape(320, 240), values))
    entries = list(manifest.entries)
    entries[0] = dataclasses.replace(entries[0], detections=None, tensor=tensor)

    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_dataset(Manifest(manifest.dataset_id, tuple(entries)), PipelineParams())
    finally:
        tracer.uninstall()

    assert [o.status for o in report.outcomes] == ["ok", "ok"]
    tensor_scene = entries[0].scene_id
    counts = spans.by_trace(tracer.spans)[tensor_scene]["counts"]
    assert counts["detect.decode.candidates"] == 3
    assert counts["detect.nms.candidates"] == 3
    assert counts["detect.nms.kept"] == 2
    assert counts["spatial.apply_spatial_constraint.deleted"] == 1
    assert report.outcomes[0].near_count == 1
    names = {s.name for s in tracer.spans if s.trace_id == tensor_scene}
    assert {"detect.decode", "detect.nms", "spatial.apply_spatial_constraint"} <= names
    other = spans.by_trace(tracer.spans)[entries[1].scene_id]["counts"]
    assert other["spatial.apply_spatial_constraint.deleted"] == report.outcomes[1].deleted_count


def test_partition_spans_recorded_on_an_automatic_scene(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "dataset_id": "traced-auto",
        "defaults": {"shape": [320, 240], "n_people": 30, "horizon_y": 200.0},
        "count": 1,
        "seed_start": 11,
    }))
    manifest_path, errors = bench_generate(spec_path, tmp_path / "bench")
    assert not errors
    entry = load_manifest(manifest_path).entries[0]
    cfg = dataclasses.replace(dio.read_scene_config(entry.config), polyline=None)
    dio.write_scene_config(entry.config, cfg)

    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_dataset(load_manifest(manifest_path), PipelineParams())
    finally:
        tracer.uninstall()

    outcome = report.outcomes[0]
    assert outcome.ok and outcome.partition_iterations is not None
    names = {s.name for s in tracer.spans if s.trace_id == entry.scene_id}
    assert {
        "partition.cluster_depth",
        "partition.classify_clusters",
        "partition.extract_polyline",
        "scene.mask_from_polyline",
    } <= names
    counts = spans.by_trace(tracer.spans)[entry.scene_id]["counts"]
    assert counts["partition.cluster_depth.iters"] == outcome.partition_iterations
    clusters = partition(dio.read_depth(entry.depth), cfg).cluster_mean_depths.size
    assert counts["partition.cluster_depth.clusters"] == clusters
