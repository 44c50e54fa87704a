"""Spans around the calls into each digcrowd layer, recorded from outside.

``Tracer.install`` replaces module-namespace names that the program looks
up at call time (``digcrowd.pipeline.decode``, ``digcrowd.io.read_depth``,
...) with wrappers that record one span per call: name, start, end, parent
span and trace id (the scene id). Spans stay in memory until ``write``.
``uninstall`` puts the original functions back. Nothing under ``src/`` is
modified.

Self time of a span is its duration minus the durations of its children.
Children of a span run on the same thread, one after another, so their
intervals never overlap and the subtraction is exact.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "trace_id", "parent", "start", "end", "counts")

    def __init__(self, name, trace_id, parent):
        self.name = name
        self.trace_id = trace_id
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts = None


def _trace_id(args, kwargs):
    """Scene id of a root call, taken from whatever scene object it receives."""
    if "scene_id" in kwargs:
        return str(kwargs["scene_id"])
    for arg in args:
        for probe in (arg, getattr(arg, "config", None)):
            scene_id = getattr(probe, "scene_id", None)
            if isinstance(scene_id, str):
                return scene_id
    return "-"


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cluster_counts(args, kwargs, state):
    step = state.grid_step
    return {
        "iters": len(state.energy_history) - 1,
        "clusters": state.cluster_count,
        # computed from window geometry, not measured
        "pixel_evals_per_iter": state.cluster_count * (2.0 * step) ** 2,
    }


def _decode_counts(args, kwargs, dets):
    return {"candidates": len(dets)}


def _nms_counts(args, kwargs, kept):
    return {"candidates": len(args[0]), "kept": len(kept)}


def _spatial_counts(args, kwargs, report):
    return {"deleted": len(report.deleted)}


# (module, attribute, span name, counter). The span name is the layer the
# function belongs to; ``mask_from_polyline`` lives in ``scene`` but is
# looked up through ``digcrowd.partition``.
TRACED = (
    ("digcrowd.pipeline", "load_manifest", "pipeline.load_manifest", None),
    ("digcrowd.pipeline", "run_scene", "pipeline.run_scene", None),
    ("digcrowd.pipeline", "write_report", "pipeline.write_report", None),
    ("digcrowd.pipeline", "partition", "partition.partition", None),
    ("digcrowd.pipeline", "decode", "detect.decode", _decode_counts),
    ("digcrowd.pipeline", "nms", "detect.nms", _nms_counts),
    ("digcrowd.pipeline", "apply_spatial_constraint", "spatial.apply_spatial_constraint",
     _spatial_counts),
    ("digcrowd.pipeline", "far_count_from_external", "density.far_count_from_external",
     None),
    ("digcrowd.pipeline", "fuse", "metrics.fuse", None),
    ("digcrowd.pipeline", "evaluate_pairs", "metrics.evaluate_pairs", None),
    ("digcrowd.pipeline", "generate_scene", "synth.generate_scene", None),
    ("digcrowd.pipeline", "oracle_predictions", "synth.oracle_predictions", None),
    ("digcrowd.io", "read_depth", "io.read_depth", _file_bytes),
    ("digcrowd.io", "read_density_field", "io.read_density", _file_bytes),
    ("digcrowd.io", "read_detections_text", "io.read_detections", _file_bytes),
    ("digcrowd.io", "read_prediction_tensor", "io.read_tensor", _file_bytes),
    ("digcrowd.io", "read_scene_config", "io.read_config", _file_bytes),
    ("digcrowd.io", "read_annotations", "io.read_annotations", _file_bytes),
    ("digcrowd.partition", "cluster_depth", "partition.cluster_depth", _cluster_counts),
    ("digcrowd.partition", "classify_clusters", "partition.classify_clusters", None),
    ("digcrowd.partition", "extract_polyline", "partition.extract_polyline", None),
    ("digcrowd.partition", "mask_from_polyline", "scene.mask_from_polyline", None),
    ("digcrowd.density", "integrate", "density.integrate", None),
)


class Tracer:
    """Collects spans from wrapped functions; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counter=None):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span = Span(name, parent.trace_id if parent else _trace_id(args, kwargs), parent)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)  # list.append is atomic under the GIL
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, table=TRACED):
        for module_name, attr, name, counter in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Spans as JSON lines: id, parent id, trace id, name, start, end, counts."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": None if span.parent is None else ids.get(id(span.parent)),
                    "trace": span.trace_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "counts": span.counts,
                }) + "\n")


def by_trace(spans) -> dict[str, dict]:
    """Per trace id: self and wall seconds per span name, counts per name.key."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
    out: dict[str, dict] = defaultdict(
        lambda: {"self": defaultdict(float), "wall": defaultdict(float),
                 "counts": defaultdict(float)})
    for span in spans:
        row = out[span.trace_id]
        wall = span.end - span.start
        row["wall"][span.name] += wall
        row["self"][span.name] += wall - child_time[id(span)]
        for key, value in (span.counts or {}).items():
            row["counts"][f"{span.name}.{key}"] += value
    return out


# Per-layer metric -> span name; the value is the per-scene median self time.
SELF_MS = {
    "io.read_depth.ms": "io.read_depth",
    "io.read_density.ms": "io.read_density",
    "io.read_detections.ms": "io.read_detections",
    "io.read_tensor.ms": "io.read_tensor",
    "io.read_config.ms": "io.read_config",
    "io.read_annotations.ms": "io.read_annotations",
    "partition.partition.self_ms": "partition.partition",
    "partition.cluster_depth.ms": "partition.cluster_depth",
    "partition.classify_clusters.ms": "partition.classify_clusters",
    "partition.extract_polyline.ms": "partition.extract_polyline",
    "scene.mask_from_polyline.ms": "scene.mask_from_polyline",
    "detect.decode.ms": "detect.decode",
    "detect.nms.ms": "detect.nms",
    "spatial.apply_spatial_constraint.ms": "spatial.apply_spatial_constraint",
    "density.far_count_from_external.ms": "density.far_count_from_external",
    "density.integrate.ms": "density.integrate",
    "metrics.fuse.ms": "metrics.fuse",
    "pipeline.run_scene.self_ms": "pipeline.run_scene",
}
# Per-layer metric -> span counter; the value is the per-scene median.
COUNTS = {
    "io.read_depth.bytes": "io.read_depth.bytes",
    "io.read_density.bytes": "io.read_density.bytes",
    "partition.cluster_depth.iters": "partition.cluster_depth.iters",
    "partition.cluster_depth.clusters": "partition.cluster_depth.clusters",
    "detect.decode.candidates": "detect.decode.candidates",
    "detect.nms.kept": "detect.nms.kept",
    "spatial.deleted": "spatial.apply_spatial_constraint.deleted",
    "computed.partition.cluster_depth.pixel_evals_per_iter":
        "partition.cluster_depth.pixel_evals_per_iter",
}
# Spans outside any scene (trace id "-"): the value is the median per pass.
PER_PASS_MS = {
    "pipeline.load_manifest.ms": "pipeline.load_manifest",
    "pipeline.write_report.ms": "pipeline.write_report",
    "metrics.evaluate_pairs.ms": "metrics.evaluate_pairs",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(scene_rows: list[dict], pass_rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced passes; absent layers read 0.

    ``scene_rows`` holds one ``by_trace`` row per scene and traced pass,
    ``pass_rows`` the row of spans outside scenes for each traced pass.
    """
    out = {}
    for metric, name in SELF_MS.items():
        out[metric] = _median(r["self"].get(name, 0.0) * 1000.0 for r in scene_rows)
    for metric, key in COUNTS.items():
        out[metric] = _median(r["counts"].get(key, 0.0) for r in scene_rows)
    for metric, name in PER_PASS_MS.items():
        out[metric] = _median(r["wall"].get(name, 0.0) * 1000.0 for r in pass_rows)
    out["pipeline.run_scene.ms"] = _median(
        r["wall"]["pipeline.run_scene"] * 1000.0 for r in scene_rows)

    def nms(row, key):
        return row["counts"].get(f"detect.nms.{key}", 0.0)

    out["detect.nms.kept_ratio"] = _median(
        nms(r, "kept") / nms(r, "candidates") if nms(r, "candidates") else 0.0
        for r in scene_rows)
    out["computed.detect.nms.pair_tests_bound"] = _median(
        nms(r, "candidates") * nms(r, "kept") for r in scene_rows)
    out["computed.io.bytes_per_scene"] = _median(
        sum(v for k, v in r["counts"].items() if k.startswith("io.") and k.endswith(".bytes"))
        for r in scene_rows)
    return out
