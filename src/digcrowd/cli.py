"""Command-line entry point.

Subcommands: ``partition`` (split one scene), ``count`` (run one scene),
``evaluate`` (run a manifest and write reports), ``bench-gen`` (generate a
synthetic benchmark), ``render`` (grayscale heat map of a field/depth
file). Set ``DIGCROWD_LOG`` to a level name to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import io as dio
from .detect import DEFAULT_NMS_IOU, DEFAULT_SCORE_THRESHOLD
from .errors import DigCrowdError
from .partition import partition
from .pipeline import (
    TOOL_VERSION,
    ManifestEntry,
    PipelineParams,
    SceneOutcome,
    bench_generate,
    count_scene,
    load_manifest,
    partition_fields,
    run_dataset,
    scene_row,
    write_split_rasters,
)

log = logging.getLogger("digcrowd")


def _setup_logging():
    level = os.environ.get("DIGCROWD_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _add_common_detector_flags(p: argparse.ArgumentParser):
    p.add_argument("--score-threshold", type=float, default=DEFAULT_SCORE_THRESHOLD)
    p.add_argument("--nms-iou", type=float, default=DEFAULT_NMS_IOU)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digcrowd",
        description="Depth-guided crowd counting over manifests of scene files.",
    )
    parser.add_argument("--version", action="version", version=f"digcrowd {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="compute the near/far split of one scene")
    p.add_argument("--depth", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("count", help="run the full pipeline on one scene")
    p.add_argument("--depth", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--detections", default=None, help="text detection list")
    p.add_argument("--tensor", default=None, help="prediction tensor file")
    p.add_argument("--density", default=None, help="density field file")
    p.add_argument("--annotations", default=None)
    _add_common_detector_flags(p)

    p = sub.add_parser("evaluate", help="run a manifest and write CSV/JSON reports")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--render-debug", action="store_true")
    _add_common_detector_flags(p)

    p = sub.add_parser("bench-gen", help="generate a synthetic benchmark directory")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("render", help="render a depth/density file as 8-bit PGM")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    return parser


def _cmd_partition(args) -> int:
    cfg = dio.read_scene_config(args.config)
    result = partition(dio.read_depth(args.depth), cfg)
    outcome = SceneOutcome(cfg.scene_id, "ok", warnings=result.warnings,
                           **partition_fields(result))
    row = scene_row(outcome, counts=False)
    write_split_rasters(args.out_dir, cfg.scene_id, result)
    (Path(args.out_dir) / f"{cfg.scene_id}_partition.json").write_text(json.dumps(row, indent=1))
    print(json.dumps(row))
    return 0


def _cmd_count(args) -> int:
    params = PipelineParams(score_threshold=args.score_threshold, nms_iou=args.nms_iou)
    optional = {
        name: Path(getattr(args, name)) if getattr(args, name) else None
        for name in ("annotations", "detections", "tensor", "density")
    }
    cfg = dio.read_scene_config(args.config)
    entry = ManifestEntry(
        scene_id=cfg.scene_id, depth=Path(args.depth), config=Path(args.config), **optional
    )
    outcome = count_scene(entry, params)
    if not outcome.ok:
        raise DigCrowdError(outcome.error)
    print(json.dumps(scene_row(outcome)))
    return 0


def _cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    params = PipelineParams(score_threshold=args.score_threshold, nms_iou=args.nms_iou,
                            workers=args.workers, render_debug=args.render_debug)
    out_dir = Path(args.out_dir)
    run_dataset(manifest, params, out_dir)
    payload = json.loads((out_dir / "report.json").read_text())
    summary = ("dataset_id", "n_scenes", "n_succeeded", "n_failed", "mae", "mse")
    print(json.dumps({key: payload[key] for key in summary}))
    return 0 if payload["n_failed"] == 0 else 1


def _cmd_bench_gen(args) -> int:
    manifest_path, errors = bench_generate(args.spec, args.out_dir)
    print(json.dumps({"manifest": str(manifest_path), "errors": errors}))
    return 0 if not errors else 1


def _cmd_render(args) -> int:
    path = Path(args.input)
    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == dio.DIGF_MAGIC:
        field = dio.read_density_field(path)
        for msg in field.warnings:
            log.warning("%s", msg)
        values = field.values
    else:
        values = dio.read_depth(path).values
    dio.write_pgm8(args.output, dio.heatmap_u8(values))
    return 0


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    handlers = {
        "partition": _cmd_partition,
        "count": _cmd_count,
        "evaluate": _cmd_evaluate,
        "bench-gen": _cmd_bench_gen,
        "render": _cmd_render,
    }
    try:
        return handlers[args.command](args)
    except (DigCrowdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
