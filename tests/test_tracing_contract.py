"""The benchmark's span table and its other uses of the package keep resolving.

``perfbench/spans.py`` wraps functions by module attribute and reads
counters off their results (``len(dets)``, ``len(report.deleted)``). A
renamed function or a changed result type would silently zero a per-layer
metric; these tests load the table by path, without changing it, and run
it over a small bench. ``perfbench/inputs.py`` and ``perfbench/worker.py``
are loaded the same way: the inputs they generate, the ``run_scene`` timer
they swap in and the ``report.json`` keys they check must keep working.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
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
from digcrowd import pipeline
from digcrowd.pipeline import Manifest, PipelineParams, bench_generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _spans_module():
    return _perfbench_module("spans")


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


def test_worker_and_inputs_run_against_the_package(tmp_path):
    """What ``inputs.generate`` writes, timed the way ``worker.py`` times it, passes its check.

    ``generate`` calls ``bench_generate``, ``read_scene_config`` and
    ``write_scene_config`` (auto) and ``write_prediction_tensor`` with a
    ``DetectorGridSpec``, ``GridPrediction`` and ``GridShape`` (tensor).
    ``check_report`` reads the report's ``n_scenes``, ``mae`` and ``mse`` and
    each scene's counts (manual) or ``threshold_used`` and ``polyline`` (auto).
    """
    inputs = _perfbench_module("inputs")
    worker = _perfbench_module("worker")
    assert isinstance(PipelineParams().workers, int)  # traced runs divide by it
    for workload in (inputs.Workload("manual", n_people=40, scenes=2, tensor=True),
                     inputs.Workload("auto", n_people=40, scenes=1, auto=True)):
        root = tmp_path / workload.name
        manifest_path, _, expected = inputs.generate(workload, 1, root)
        scene_ms = []
        original = pipeline.run_scene
        pipeline.run_scene = worker.scene_timer(original, scene_ms)
        try:
            pipeline.run_dataset(load_manifest(manifest_path), PipelineParams(), root / "out")
        finally:
            pipeline.run_scene = original
        assert len(scene_ms) == workload.scenes
        report = json.loads((root / "out" / "report.json").read_text())
        want = inputs.expected_errors(expected)
        assert worker.check_report(report, expected, inputs.FAR_TOL, inputs.WIDTH, want) == (0, [])
