"""Dataset manifests, per-scene runs, batch evaluation, benchmark generation.

A manifest lists scenes with paths to their depth, config, annotation, and
prediction files. ``run_dataset`` executes every scene (optionally with a
thread pool), aggregates MAE/MSE over the scenes that succeeded, and writes
a CSV row per scene plus a JSON report covering every manifest entry.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as dio
from .density import Region, far_count_from_external, integrate
from .detect import (
    DEFAULT_NMS_IOU,
    DEFAULT_SCORE_THRESHOLD,
    check_nms_iou,
    check_score_threshold,
    decode,
    nms,
)
from .errors import ConfigError, DigCrowdError, FormatError
from .metrics import EvaluationRecord, SceneEstimate, evaluate_pairs, fuse
from .partition import PartitionResult, partition
from .scene import GridShape, SceneConfig, SceneRecord
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
    """Run-wide knobs; flags override scene-config values where both exist."""

    score_threshold: float = DEFAULT_SCORE_THRESHOLD
    nms_iou: float = DEFAULT_NMS_IOU
    beta: float | None = None
    knn_k: int | None = None
    workers: int = 1
    deterministic: bool = False
    render_debug: bool = False

    def __post_init__(self):
        check_score_threshold(self.score_threshold)
        check_nms_iou(self.nms_iou)

    def apply_overrides(self, cfg: SceneConfig) -> SceneConfig:
        updates = {}
        if self.beta is not None:
            updates["beta"] = self.beta
        if self.knn_k is not None:
            updates["knn_k"] = self.knn_k
        return dataclasses.replace(cfg, **updates) if updates else cfg


@dataclass(frozen=True)
class SceneOutcome:
    scene_id: str
    status: str  # "ok" | "failed"
    estimate: SceneEstimate | None = None
    error: str | None = None
    near_count: int | None = None
    deleted_count: int | None = None
    threshold_used: float | None = None
    polyline: tuple[tuple[float, float, float, float], ...] | None = None
    warnings: tuple[str, ...] = ()

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
    """Parse and validate a manifest; every referenced file must exist."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        scenes = payload["scenes"]
    except (KeyError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad manifest: {exc}") from exc
    base = path.parent
    entries = []
    seen: set[str] = set()
    missing: list[str] = []
    for raw in scenes:
        try:
            scene_id = str(raw["scene_id"])
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
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: bad scene entry: {exc}") from exc
        if scene_id in seen:
            raise FormatError(f"{path}: duplicate scene_id {scene_id!r}")
        seen.add(scene_id)
        for p in (entry.depth, entry.config, entry.annotations, entry.detections,
                  entry.tensor, entry.density):
            if p is not None and not p.exists():
                missing.append(f"{scene_id}: {p}")
        entries.append(entry)
    if missing:
        raise FormatError(f"{path}: missing referenced files: {missing}")
    if not entries:
        raise FormatError(f"{path}: manifest lists no scenes")
    return Manifest(dataset_id=str(payload.get("dataset_id", path.stem)), entries=tuple(entries))


def _write_debug_rasters(out_dir: Path, scene_id: str, part: PartitionResult, density=None):
    debug = out_dir / "debug"
    debug.mkdir(parents=True, exist_ok=True)
    dio.write_pgm8(debug / f"{scene_id}_mask.pgm", np.where(part.mask.far, 255, 0))
    if part.cluster_assignments is not None:
        dio.write_pgm8(
            debug / f"{scene_id}_clusters.pgm",
            (part.cluster_assignments % 256).astype(np.uint8),
        )
    if density is not None:
        dio.write_pgm8(debug / f"{scene_id}_density.pgm", dio.heatmap_u8(density.values))


def run_scene(
    entry: ManifestEntry,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> SceneOutcome:
    """partition -> detections -> spatial filter -> far integral -> fuse.

    Any stage failure produces a failed outcome carrying whatever partial
    results were already computed; the batch keeps going.
    """
    near_count = None
    deleted_count = None
    threshold_used = None
    poly_echo = None
    warnings: list[str] = []
    try:
        cfg = params.apply_overrides(dio.read_scene_config(entry.config))
        depth = dio.read_depth(entry.depth)
        part = partition(depth, cfg)
        threshold_used = part.threshold_used
        poly_echo = tuple(
            (s.x_start, s.x_end, s.k, s.b) for s in part.polyline.segments
        )
        warnings.extend(part.warnings)

        if entry.detections is not None:
            dets = dio.read_detections_text(entry.detections)
        elif entry.tensor is not None:
            dets = nms(
                decode(dio.read_prediction_tensor(entry.tensor), params.score_threshold),
                params.nms_iou,
            )
        else:
            raise ConfigError("near predictions absent (no detections or tensor file)")
        warnings.extend(dets.warnings)

        report = apply_spatial_constraint(dets, part.polyline, cfg.scene_id)
        warnings.extend(report.warnings)
        near_count = len(report.kept)
        deleted_count = len(report.deleted)

        density = None
        if entry.density is None:
            raise ConfigError("far predictions absent (no density file)")
        far = far_count_from_external(entry.density, part.mask)
        if params.render_debug and out_dir is not None:
            density = dio.read_density_field(entry.density)
            _write_debug_rasters(out_dir, cfg.scene_id, part, density)

        if entry.annotations is None:
            raise ConfigError("ground truth absent (no annotations file)")
        _, gt = dio.read_annotations(entry.annotations)

        estimate = fuse(report.kept, far, cfg.scene_id, gt)
        return SceneOutcome(
            scene_id=entry.scene_id,
            status="ok",
            estimate=estimate,
            near_count=near_count,
            deleted_count=deleted_count,
            threshold_used=threshold_used,
            polyline=poly_echo,
            warnings=tuple(warnings),
        )
    except (DigCrowdError, OSError) as exc:
        log.warning("scene %s failed: %s", entry.scene_id, exc)
        return SceneOutcome(
            scene_id=entry.scene_id,
            status="failed",
            error=str(exc),
            near_count=near_count,
            deleted_count=deleted_count,
            threshold_used=threshold_used,
            polyline=poly_echo,
            warnings=tuple(warnings),
        )


def run_record(
    rec: SceneRecord,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    spec: SynthSpec | None = None,
) -> SceneEstimate:
    """In-memory pipeline over a synthetic record with oracle predictions."""
    part = partition(rec.depth, rec.config)
    preds = oracle_predictions(rec, part, noise, seed=seed, spec=spec)
    report = apply_spatial_constraint(preds.detections, part.polyline, rec.config.scene_id)
    far = integrate(preds.density, part.mask, Region.FAR)
    return fuse(report.kept, far, rec.config.scene_id, rec.ground_truth_count)


def run_dataset(
    manifest: Manifest,
    params: PipelineParams = PipelineParams(),
    out_dir: Path | None = None,
) -> RunReport:
    """Run every manifest scene and aggregate MAE/MSE over the successes.

    Failed scenes are excluded from the metrics and reported separately.
    Outcomes are reduced in manifest order regardless of worker count.
    """
    workers = 1 if params.deterministic else max(1, params.workers)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
                    [e.scene_id, e.near_count, e.far_count, e.total, e.ground_truth, e.abs_error]
                )
    payload = {
        "dataset_id": report.dataset_id,
        "tool_version": report.tool_version,
        "config": {
            "score_threshold": report.params.score_threshold,
            "nms_iou": report.params.nms_iou,
            "beta": report.params.beta,
            "knn_k": report.params.knn_k,
            "workers": report.params.workers,
            "deterministic": report.params.deterministic,
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
                "polyline": None
                if o.polyline is None
                else [list(seg) for seg in o.polyline],
                "warnings": list(o.warnings),
            }
            for o in report.outcomes
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=1))


# -- benchmark generation ----------------------------------------------------

def _spec_from_dict(defaults: dict, overrides: dict) -> SynthSpec:
    merged = dict(defaults)
    merged.update(overrides)
    shape = merged.pop("shape", None)
    kwargs = {}
    if shape is not None:
        kwargs["shape"] = GridShape(int(shape[0]), int(shape[1]))
    for key in (
        "n_people",
        "horizon_y",
        "near_head_size",
        "far_head_size",
        "clustering_intensity",
        "seed",
        "exclusion_margin",
    ):
        if key in merged:
            kwargs[key] = merged[key]
    return SynthSpec(**kwargs)


def bench_generate(
    spec_path,
    out_dir,
    seed_offset: int = 0,
    deterministic: bool = False,
) -> tuple[Path, list[str]]:
    """Materialize a self-contained synthetic benchmark directory.

    The spec file is JSON: ``dataset_id``, optional ``defaults`` (synthetic
    scene fields), optional ``noise``, and either an explicit ``scenes``
    list of per-scene overrides or ``count`` + ``seed_start``. Returns the
    manifest path plus per-scene generation errors (failed scenes are left
    out of the manifest).
    """
    spec_path = Path(spec_path)
    out_dir = Path(out_dir)
    try:
        payload = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{spec_path}: bad benchmark spec: {exc}") from exc
    defaults = payload.get("defaults", {})
    noise = NoiseSpec(**payload.get("noise", {}))
    if "scenes" in payload:
        scene_specs = payload["scenes"]
    else:
        count = int(payload.get("count", 10))
        start = int(payload.get("seed_start", 0))
        scene_specs = [{"seed": start + i} for i in range(count)]

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    entries = []
    errors: list[str] = []
    for i, overrides in enumerate(scene_specs):
        overrides = dict(overrides)
        scene_id = str(overrides.pop("scene_id", f"scene-{i:04d}"))
        try:
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
                "deterministic": deterministic,
                "scenes": entries,
            },
            indent=1,
        )
    )
    for msg in errors:
        log.warning("bench-gen: %s", msg)
    return manifest_path, errors
