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
from .errors import ConfigError, DigCrowdError, FormatError, naming_file
from .metrics import EvaluationRecord, SceneEstimate, evaluate_pairs, fuse
from .partition import PartitionResult, partition
from .scene import GridShape, Polyline, SceneRecord, check_integer, check_scene_id
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
    "partition_fields",
    "scene_row",
    "write_split_rasters",
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
        # stored as a float and an int: numpy scalars do not dump to JSON
        object.__setattr__(self, "score_threshold", check_score_threshold(self.score_threshold))
        object.__setattr__(self, "nms_iou", check_nms_iou(self.nms_iou))
        object.__setattr__(self, "workers", check_integer(self.workers, "workers", 1))


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
    far_pixels: int | None = None
    near_pixels: int | None = None

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
    # decode errors are ValueErrors
    with naming_file(path, (KeyError, TypeError, ValueError), "bad manifest: "):
        payload = dio.check_json(json.loads(path.read_text()), dict, "manifest")
        scenes = dio.check_json(payload["scenes"], list, "scenes")
        dataset_id = dio.check_json(payload.get("dataset_id", path.stem), str, "dataset_id")
    base = path.parent
    entries = []
    seen: set[str] = set()
    for raw in scenes:
        with naming_file(path, (ConfigError, KeyError, TypeError, AttributeError),
                         "bad scene entry: "):
            scene_id = check_scene_id(raw["scene_id"])
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
        if scene_id in seen:
            raise FormatError(f"{path}: duplicate scene_id {scene_id!r}")
        seen.add(scene_id)
        entries.append(entry)
    if not entries:
        raise FormatError(f"{path}: manifest lists no scenes")
    return Manifest(dataset_id=dataset_id, entries=tuple(entries))


def write_split_rasters(out_dir, scene_id: str, part: PartitionResult) -> None:
    """``<scene_id>_mask.pgm`` (far 255, near 0) and, for an automatic split,
    ``<scene_id>_clusters.pgm`` (cluster id mod 256) in ``out_dir``, made if absent.

    ``evaluate --render-debug`` writes them into ``debug/``, CLI ``partition``
    into its ``--out-dir``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dio.write_pgm8(out_dir / f"{scene_id}_mask.pgm", np.where(part.mask.far, 255, 0))
    if part.cluster_assignments is not None:
        dio.write_pgm8(out_dir / f"{scene_id}_clusters.pgm", part.cluster_assignments % 256)


def _write_debug_rasters(out_dir, scene_id: str, part: PartitionResult, density):
    debug = Path(out_dir) / "debug"
    write_split_rasters(debug, scene_id, part)
    dio.write_pgm8(debug / f"{scene_id}_density.pgm", dio.heatmap_u8(density.values))


def _check_grid(path, what: str, shape: GridShape, scene: GridShape) -> None:
    """``FormatError`` naming ``path`` when the ``what`` grid it holds is not the scene's."""
    if shape != scene:
        raise FormatError(f"{path}: {what} grid {shape} does not match scene grid {scene}")


def _near_input(entry: ManifestEntry, params: PipelineParams, shape: GridShape) -> DetectionSet:
    """The entry's detection list, else its tensor decoded and NMS'd."""
    if entry.detections is not None:
        return dio.read_detections_text(entry.detections)
    if entry.tensor is None:
        raise ConfigError("near predictions absent (no detections or tensor file)")
    pred = dio.read_prediction_tensor(entry.tensor)
    _check_grid(entry.tensor, "tensor", pred.shape, shape)
    return nms(decode(pred, params.score_threshold), params.nms_iou)


def count_scene(
    entry: ManifestEntry,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> SceneOutcome:
    """partition -> near detections -> spatial filter -> far integral -> fuse.

    Ground truth is read when the entry has annotations and is NaN
    otherwise. Any failure produces a failed outcome carrying whatever
    partial results were already computed. The debug rasters are written
    after a successful count; failing to write them is a warning. The stages
    return their warnings; each is logged here once, under the manifest
    scene id.
    """
    part = report = estimate = error = None
    warnings: list[str] = []
    try:
        cfg = dio.read_scene_config(entry.config)
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
        _check_grid(entry.density, "density file", field.shape, part.mask.shape)
        far = far_count_from_external(field, part.mask)
        estimate = fuse(report.kept, far, cfg.scene_id, ground_truth)
    except (DigCrowdError, OSError) as exc:
        estimate, error = None, str(exc)
    if estimate is not None and params.render_debug and out_dir is not None:
        try:  # an output error costs the rasters, never the finished count
            _write_debug_rasters(out_dir, entry.scene_id, part, field)
        except OSError as exc:
            warnings.append(f"debug rasters not written: {exc}")
    for msg in warnings:
        log.warning("scene %s: %s", entry.scene_id, msg)
    return SceneOutcome(
        scene_id=entry.scene_id,
        status="ok" if error is None else "failed",
        estimate=estimate,
        error=error,
        near_count=None if report is None else len(report.kept),
        deleted_count=None if report is None else len(report.deleted),
        warnings=tuple(warnings),
        **partition_fields(part),
    )


def partition_fields(part: PartitionResult | None) -> dict:
    """``SceneOutcome``'s partition fields from ``part``; none of them without one."""
    if part is None:
        return {}
    return dict(
        threshold_used=part.threshold_used,
        polyline=part.polyline,
        partition_iterations=part.iterations,
        partition_energy=part.energy_history[-1] if part.energy_history else None,
        partition_clusters=part.cluster_count,
        partition_stop=part.stop_reason,
        far_pixels=part.mask.far_count,
        near_pixels=part.mask.near_count,
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
            outcomes = list(pool.map(lambda e: run_scene(e, params, out_dir), manifest.entries))
    else:
        outcomes = [run_scene(e, params, out_dir) for e in manifest.entries]

    pairs = [(o.estimate.ground_truth, o.estimate.total) for o in outcomes if o.ok]
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


def _finite(x: float) -> float | None:
    """``x``, or None for NaN and infinity, which strict JSON cannot hold."""
    return x if math.isfinite(x) else None


def scene_row(o: SceneOutcome, counts: bool = True) -> dict:
    """One scene's JSON row; every per-scene key is named here and nowhere else.

    ``write_report`` writes the full row and CLI ``count`` prints it. With
    ``counts=False`` the row holds the scene id and the partition keys only,
    which CLI ``partition`` prints. Ground truth is NaN when a scene has no
    annotations, and so is its error; both become None.
    """
    row = {"scene_id": o.scene_id}
    if counts:
        est = o.estimate
        row.update({
            "status": o.status,
            "error": o.error,
            "near_count": o.near_count,
            "deleted_count": o.deleted_count,
            "far_count": None if est is None else est.far_count,
            "total": None if est is None else est.total,
            "ground_truth": None if est is None else _finite(est.ground_truth),
            "abs_error": None if est is None else _finite(est.abs_error),
        })
    row.update({
        "threshold_used": o.threshold_used,
        "polyline": None if o.polyline is None else o.polyline.segments.tolist(),
        "warnings": list(o.warnings),
        "partition_iterations": o.partition_iterations,
        "partition_energy": o.partition_energy,
        "partition_clusters": o.partition_clusters,
        "partition_stop": o.partition_stop,
        "far_pixels": o.far_pixels,
        "near_pixels": o.near_pixels,
    })
    return row


def write_report(report: RunReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenes = [scene_row(o) for o in report.outcomes]
    # report.csv holds six of the row's keys, for the scenes that succeeded
    columns = ("scene_id", "near_count", "far_count", "total", "ground_truth", "abs_error")
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[k] for k in columns]
                         for o, row in zip(report.outcomes, scenes) if o.ok)
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
        "scenes": scenes,
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=1))


# -- benchmark generation ----------------------------------------------------

def _spec_from_dict(defaults: dict, overrides: dict) -> SynthSpec:
    """One scene's ``SynthSpec``; an unknown key or a wrong type is a ``ConfigError``."""
    merged = {**defaults, **overrides}
    try:
        if "shape" in merged:
            width, height = merged["shape"]
            merged["shape"] = GridShape(width, height)
        return SynthSpec(**merged)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scene spec: {exc}") from exc


def bench_generate(spec_path, out_dir) -> tuple[Path, list[str]]:
    """Materialize a self-contained synthetic benchmark directory.

    The spec file is a JSON object: ``dataset_id``, optional ``defaults``
    (an object of synthetic scene fields), optional ``noise`` (an object),
    and either an explicit ``scenes`` list of per-scene override objects or
    ``count`` + ``seed_start``. Returns the manifest path plus per-scene
    generation errors (failed scenes are left out of the manifest).
    """
    _pin_heap()
    spec_path = Path(spec_path)
    out_dir = Path(out_dir)
    # a JSONDecodeError is a ValueError; an int too large for a float an OverflowError
    with naming_file(spec_path, (ConfigError, TypeError, ValueError, OverflowError),
                     "bad benchmark spec: "):
        payload = dio.check_json(json.loads(spec_path.read_text()), dict, "benchmark spec")
        defaults = dio.check_json(payload.get("defaults", {}), dict, "defaults")
        noise = NoiseSpec(**dio.check_json(payload.get("noise", {}), dict, "noise"))
        if "scenes" in payload:
            scenes = dio.check_json(payload["scenes"], list, "scenes")
            scene_specs = [dio.check_json(o, dict, f"scenes[{i}]") for i, o in enumerate(scenes)]
        else:
            count = check_integer(payload.get("count", 10), "count")
            start = check_integer(payload.get("seed_start", 0), "seed_start")
            scene_specs = [{"seed": start + i} for i in range(count)]
        dataset_id = dio.check_json(payload.get("dataset_id", spec_path.stem), str, "dataset_id")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    entries = []
    errors: list[str] = []
    written: set[str] = set()
    for i, overrides in enumerate(scene_specs):
        scene_id = overrides.pop("scene_id", f"scene-{i:04d}")
        try:
            check_scene_id(scene_id)
            # a second scene of one id would overwrite the first one's files
            if scene_id in written:
                raise ConfigError(f"duplicate scene_id {scene_id!r}")
            spec = _spec_from_dict(defaults, overrides)
            rec = generate_scene(spec, scene_id=scene_id)
            part = partition(rec.depth, rec.config)
            preds = oracle_predictions(rec, part, noise, seed=spec.seed, spec=spec)
        except DigCrowdError as exc:
            errors.append(f"{scene_id}: {exc}")
            continue
        written.add(scene_id)
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
    manifest = {"dataset_id": dataset_id, "tool_version": TOOL_VERSION, "scenes": entries}
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path, errors
