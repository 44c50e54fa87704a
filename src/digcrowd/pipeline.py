"""Dataset manifests, per-scene runs, batch evaluation, benchmark generation.

A manifest lists scenes with paths to their depth, config, annotation, and
prediction files. ``run_dataset`` executes every scene (optionally with a
thread pool), aggregates MAE/MSE over the scenes that succeeded, and writes
a CSV row per scene plus a JSON report covering every manifest entry.

Every scene takes one path: ``count_scene`` loads an entry's inputs and
runs the stages (spatial filter, far integral, fuse) that ``run_record``
also runs on in-memory oracle predictions. ``run_scene`` and the CLI
``count`` differ only in whether ground truth is required.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import logging
import math
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as dio
from .density import far_count_from_external
from .detect import (
    DEFAULT_NMS_IOU,
    DEFAULT_SCORE_THRESHOLD,
    DetectionSet,
    check_nms_iou,
    check_score_threshold,
    decode,
    nms,
)
from .errors import ConfigError, DigCrowdError, FormatError
from .metrics import EvaluationRecord, SceneEstimate, evaluate_pairs, fuse
from .partition import PartitionResult, partition
from .scene import GridShape, Polyline, SceneRecord, check_scene_id
from .spatial import apply_spatial_constraint
from .synth import NoiseSpec, SynthSpec, generate_scene, oracle_predictions

__all__ = [
    "TOOL_VERSION",
    "ManifestEntry",
    "Manifest",
    "PipelineParams",
    "SceneOutcome",
    "RunReport",
    "load_manifest",
    "count_scene",
    "run_scene",
    "run_record",
    "run_dataset",
    "bench_generate",
]

log = logging.getLogger("digcrowd.pipeline")

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class ManifestEntry:
    scene_id: str
    depth: Path
    config: Path
    annotations: Path | None = None
    detections: Path | None = None
    tensor: Path | None = None
    density: Path | None = None


@dataclass(frozen=True)
class Manifest:
    dataset_id: str
    entries: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class PipelineParams:
    """Run-wide knobs for the detector stages and the batch runner."""

    score_threshold: float = DEFAULT_SCORE_THRESHOLD
    nms_iou: float = DEFAULT_NMS_IOU
    workers: int = 1
    render_debug: bool = False

    def __post_init__(self):
        check_score_threshold(self.score_threshold)
        check_nms_iou(self.nms_iou)
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SceneOutcome:
    scene_id: str
    status: str  # "ok" | "failed"
    estimate: SceneEstimate | None = None
    error: str | None = None
    near_count: int | None = None
    deleted_count: int | None = None
    threshold_used: float | None = None
    polyline: Polyline | None = None
    warnings: tuple[str, ...] = ()
    partition_iterations: int | None = None  # all four None for a manual split
    partition_energy: float | None = None
    partition_clusters: int | None = None
    partition_stop: str | None = None  # "residual", "energy" or "cap"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RunReport:
    dataset_id: str
    tool_version: str
    params: PipelineParams
    outcomes: tuple[SceneOutcome, ...]
    evaluation: EvaluationRecord | None

    @property
    def n_succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def n_failed(self) -> int:
        return len(self.outcomes) - self.n_succeeded


def _resolve(base: Path, value) -> Path | None:
    if value in (None, ""):
        return None
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_manifest(path) -> Manifest:
    """Parse and validate a manifest; a missing scene file fails only its scene."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise TypeError("manifest must be a JSON object")
        scenes = payload["scenes"]
        if not isinstance(scenes, list):
            raise TypeError(f"'scenes' must be a list, got {scenes!r}")
        dataset_id = payload.get("dataset_id", path.stem)
        if not isinstance(dataset_id, str):
            raise TypeError(f"dataset_id must be a string, got {dataset_id!r}")
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad manifest: {exc}") from exc
    base = path.parent
    entries = []
    seen: set[str] = set()
    for raw in scenes:
        try:
            scene_id = raw["scene_id"]
            if not isinstance(scene_id, str):
                raise TypeError(f"scene_id must be a string, got {scene_id!r}")
            check_scene_id(scene_id)
            for key in ("depth", "config"):
                if raw[key] in (None, ""):
                    raise TypeError(f"{key} path must be a non-empty string, got {raw[key]!r}")
            preds = raw.get("predictions") or {}
            entry = ManifestEntry(
                scene_id=scene_id,
                depth=_resolve(base, raw["depth"]),
                config=_resolve(base, raw["config"]),
                annotations=_resolve(base, raw.get("annotations")),
                detections=_resolve(base, preds.get("detections")),
                tensor=_resolve(base, preds.get("tensor")),
                density=_resolve(base, preds.get("density")),
            )
        except (ConfigError, KeyError, TypeError, AttributeError) as exc:
            raise FormatError(f"{path}: bad scene entry: {exc}") from exc
        if scene_id in seen:
            raise FormatError(f"{path}: duplicate scene_id {scene_id!r}")
        seen.add(scene_id)
        entries.append(entry)
    if not entries:
        raise FormatError(f"{path}: manifest lists no scenes")
    return Manifest(dataset_id=dataset_id, entries=tuple(entries))


def _write_debug_rasters(out_dir, scene_id: str, part: PartitionResult, density):
    debug = Path(out_dir) / "debug"
    debug.mkdir(parents=True, exist_ok=True)
    dio.write_pgm8(debug / f"{scene_id}_mask.pgm", np.where(part.mask.far, 255, 0))
    if part.cluster_assignments is not None:
        dio.write_pgm8(
            debug / f"{scene_id}_clusters.pgm",
            (part.cluster_assignments % 256).astype(np.uint8),
        )
    dio.write_pgm8(debug / f"{scene_id}_density.pgm", dio.heatmap_u8(density.values))


def _near_input(entry: ManifestEntry, params: PipelineParams, shape: GridShape) -> DetectionSet:
    """The entry's detection list, else its tensor decoded and NMS'd."""
    if entry.detections is not None:
        return dio.read_detections_text(entry.detections)
    if entry.tensor is None:
        raise ConfigError("near predictions absent (no detections or tensor file)")
    pred = dio.read_prediction_tensor(entry.tensor)
    if pred.shape != shape:
        raise FormatError(
            f"{entry.tensor}: tensor grid {pred.shape} does not match scene grid {shape}"
        )
    return nms(decode(pred, params.score_threshold), params.nms_iou)


def count_scene(
    entry: ManifestEntry,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> SceneOutcome:
    """partition -> near detections -> spatial filter -> far integral -> fuse.

    Ground truth is read when the entry has annotations and is NaN
    otherwise. Any failure produces a failed outcome carrying whatever
    partial results were already computed. The stages return their
    warnings; each is logged here once, under the manifest scene id.
    """
    part = report = estimate = error = None
    warnings: list[str] = []
    try:
        cfg = dio.read_scene_config(entry.config)
        # No reference to the depth map outlives the partition: malloc then
        # reuses its pages for the density read instead of faulting in new ones.
        part = partition(dio.read_depth(entry.depth), cfg)
        warnings.extend(part.warnings)
        dets = _near_input(entry, params, part.mask.shape)
        warnings.extend(dets.warnings)
        # The filter runs before the far input is read, so a scene whose far
        # input fails still reports its near and deleted counts.
        report = apply_spatial_constraint(dets, part.polyline)
        warnings.extend(report.warnings)
        if entry.density is None:
            raise ConfigError("far predictions absent (no density file)")
        field = dio.read_density_field(entry.density)
        warnings.extend(field.warnings)
        ground_truth = math.nan
        if entry.annotations is not None:
            _, ground_truth = dio.read_annotations(entry.annotations)
        far = far_count_from_external(field, part.mask)
        estimate = fuse(report.kept, far, cfg.scene_id, ground_truth)
        if params.render_debug and out_dir is not None:
            _write_debug_rasters(out_dir, entry.scene_id, part, field)
    except (DigCrowdError, OSError) as exc:
        estimate, error = None, str(exc)
    for msg in warnings:
        log.warning("scene %s: %s", entry.scene_id, msg)
    return SceneOutcome(
        scene_id=entry.scene_id,
        status="ok" if error is None else "failed",
        estimate=estimate,
        error=error,
        near_count=None if report is None else len(report.kept),
        deleted_count=None if report is None else len(report.deleted),
        threshold_used=None if part is None else part.threshold_used,
        polyline=None if part is None else part.polyline,
        warnings=tuple(warnings),
        partition_iterations=None if part is None else part.iterations,
        partition_energy=part.energy_history[-1] if part and part.energy_history else None,
        partition_clusters=None if part is None else part.cluster_count,
        partition_stop=None if part is None else part.stop_reason,
    )


def run_scene(
    entry: ManifestEntry,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> SceneOutcome:
    """``count_scene`` with ground truth required; failures never raise.

    A failed scene is logged and reported; the batch keeps going.
    """
    outcome = count_scene(entry, params, out_dir)
    if outcome.ok and entry.annotations is None:
        outcome = dataclasses.replace(
            outcome,
            status="failed",
            estimate=None,
            error="ground truth absent (no annotations file)",
        )
    if not outcome.ok:
        log.warning("scene %s failed: %s", entry.scene_id, outcome.error)
    return outcome


def run_record(
    rec: SceneRecord,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    spec: SynthSpec | None = None,
) -> SceneEstimate:
    """In-memory pipeline over a synthetic record with oracle predictions."""
    part = partition(rec.depth, rec.config)
    preds = oracle_predictions(rec, part, noise, seed=seed, spec=spec)
    report = apply_spatial_constraint(preds.detections, part.polyline)
    far = far_count_from_external(preds.density, part.mask)
    return fuse(report.kept, far, rec.config.scene_id, rec.ground_truth_count)


def _pin_heap() -> None:
    """Pin glibc's mmap and trim thresholds for a loop over scenes.

    A 1080x720 scene allocates and frees several arrays of a few MB. By
    default glibc serves such sizes with mmap until one is freed, then
    raises its mmap threshold to that size and trims the heap whenever more
    than twice that sits unused at its top, so a small change in a scene's
    allocations can make every scene hand about 10 MB back to the kernel
    and fault it in again. Serving blocks below 16 MB from the heap and
    trimming only past 32 MB of free top keeps those pages mapped from one
    scene to the next. The setting is process-wide and outlives the call.
    Other C libraries are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def run_dataset(
    manifest: Manifest,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> RunReport:
    """Run every manifest scene and aggregate MAE/MSE over the successes.

    Failed scenes are excluded from the metrics and reported separately.
    Outcomes are reduced in manifest order regardless of worker count.
    """
    _pin_heap()
    if params.workers > 1:
        with ThreadPoolExecutor(max_workers=params.workers) as pool:
            outcomes = list(
                pool.map(lambda e: run_scene(e, params, out_dir), manifest.entries)
            )
    else:
        outcomes = [run_scene(e, params, out_dir) for e in manifest.entries]

    pairs = [
        (o.estimate.ground_truth, o.estimate.total)
        for o in outcomes
        if o.ok and o.estimate is not None
    ]
    evaluation = evaluate_pairs(pairs) if pairs else None
    report = RunReport(
        dataset_id=manifest.dataset_id,
        tool_version=TOOL_VERSION,
        params=params,
        outcomes=tuple(outcomes),
        evaluation=evaluation,
    )
    if out_dir is not None:
        write_report(report, Path(out_dir))
    return report


def write_report(report: RunReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scene_id", "near_count", "far_count", "total", "ground_truth", "abs_error"]
        )
        for o in report.outcomes:
            if o.ok and o.estimate is not None:
                e = o.estimate
                writer.writerow(
                    [o.scene_id, e.near_count, e.far_count, e.total, e.ground_truth, e.abs_error]
                )
    payload = {
        "dataset_id": report.dataset_id,
        "tool_version": report.tool_version,
        "config": {
            "score_threshold": report.params.score_threshold,
            "nms_iou": report.params.nms_iou,
            "workers": report.params.workers,
        },
        "n_scenes": len(report.outcomes),
        "n_succeeded": report.n_succeeded,
        "n_failed": report.n_failed,
        "mae": None if report.evaluation is None else report.evaluation.mae,
        "mse": None if report.evaluation is None else report.evaluation.mse,
        "mse_definition": "sqrt(mean((observed - predicted)^2))",
        "scenes": [
            {
                "scene_id": o.scene_id,
                "status": o.status,
                "error": o.error,
                "near_count": o.near_count,
                "deleted_count": o.deleted_count,
                "far_count": None if o.estimate is None else o.estimate.far_count,
                "total": None if o.estimate is None else o.estimate.total,
                "ground_truth": None if o.estimate is None else o.estimate.ground_truth,
                "abs_error": None if o.estimate is None else o.estimate.abs_error,
                "threshold_used": o.threshold_used,
                "polyline": None if o.polyline is None else o.polyline.segments.tolist(),
                "warnings": list(o.warnings),
                "partition_iterations": o.partition_iterations,
                "partition_energy": o.partition_energy,
                "partition_clusters": o.partition_clusters,
                "partition_stop": o.partition_stop,
            }
            for o in report.outcomes
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=1))


# -- benchmark generation ----------------------------------------------------

def _spec_from_dict(defaults: dict, overrides: dict) -> SynthSpec:
    """One scene's ``SynthSpec``; a field of the wrong type is a ``ConfigError``."""
    merged = dict(defaults)
    merged.update(overrides)
    shape = merged.pop("shape", None)
    keys = ("n_people", "horizon_y", "near_head_size", "far_head_size",
            "clustering_intensity", "seed", "exclusion_margin")
    kwargs = {key: merged[key] for key in keys if key in merged}
    try:
        if shape is not None:
            width, height = shape
            if (int(width), int(height)) != (width, height):
                raise ValueError(f"shape values must be integers, got {shape!r}")
            kwargs["shape"] = GridShape(int(width), int(height))
        return SynthSpec(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scene spec: {exc}") from exc


def _spec_int(value, what: str) -> int:
    """A JSON integer; a bool, a float or anything else is a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def bench_generate(spec_path, out_dir, seed_offset: int = 0) -> tuple[Path, list[str]]:
    """Materialize a self-contained synthetic benchmark directory.

    The spec file is JSON: ``dataset_id``, optional ``defaults`` (synthetic
    scene fields), optional ``noise``, and either an explicit ``scenes``
    list of per-scene overrides or ``count`` + ``seed_start``. Returns the
    manifest path plus per-scene generation errors (failed scenes are left
    out of the manifest).
    """
    _pin_heap()
    spec_path = Path(spec_path)
    out_dir = Path(out_dir)
    try:
        payload = json.loads(spec_path.read_text())
        if not isinstance(payload, dict):
            raise TypeError("benchmark spec must be a JSON object")
        defaults = dict(payload.get("defaults", {}))
        noise = NoiseSpec(**payload.get("noise", {}))
        if "scenes" in payload:
            scene_specs = [dict(overrides) for overrides in payload["scenes"]]
        else:
            count = _spec_int(payload.get("count", 10), "count")
            start = _spec_int(payload.get("seed_start", 0), "seed_start")
            scene_specs = [{"seed": start + i} for i in range(count)]
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise FormatError(f"{spec_path}: bad benchmark spec: {exc}") from exc

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    entries = []
    errors: list[str] = []
    for i, overrides in enumerate(scene_specs):
        scene_id = overrides.pop("scene_id", f"scene-{i:04d}")
        try:
            if not isinstance(scene_id, str):
                raise ConfigError(f"scene_id must be a string, got {scene_id!r}")
            check_scene_id(scene_id)
            spec = _spec_from_dict(defaults, overrides)
            if seed_offset:
                spec = dataclasses.replace(spec, seed=spec.seed + seed_offset)
            rec = generate_scene(spec, scene_id=scene_id)
            part = partition(rec.depth, rec.config)
            preds = oracle_predictions(rec, part, noise, seed=spec.seed, spec=spec)
        except DigCrowdError as exc:
            errors.append(f"{scene_id}: {exc}")
            continue
        scene_dir = out_dir / scene_id
        scene_dir.mkdir(parents=True, exist_ok=True)
        dio.write_depth_digd(scene_dir / "depth.digd", rec.depth)
        dio.write_scene_config(scene_dir / "config.json", rec.config)
        dio.write_annotations(scene_dir / "annotations.json", rec.heads, rec.ground_truth_count)
        dio.write_detections_text(scene_dir / "detections.txt", preds.detections)
        dio.write_density_field(scene_dir / "density.digf", preds.density)
        entries.append(
            {
                "scene_id": scene_id,
                "depth": f"{scene_id}/depth.digd",
                "config": f"{scene_id}/config.json",
                "annotations": f"{scene_id}/annotations.json",
                "predictions": {
                    "detections": f"{scene_id}/detections.txt",
                    "density": f"{scene_id}/density.digf",
                },
            }
        )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "dataset_id": str(payload.get("dataset_id", spec_path.stem)),
                "tool_version": TOOL_VERSION,
                "scenes": entries,
            },
            indent=1,
        )
    )
    return manifest_path, errors
