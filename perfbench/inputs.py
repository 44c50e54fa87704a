"""Seeded benchmark inputs and the output values they imply.

Every workload starts from ``pipeline.bench_generate`` (the ``bench-gen``
command). Benchmark-side shaping then uses only public ``io`` functions:
``near_tensor`` re-encodes the oracle boxes as a DIGY grid tensor with
jittered duplicates, and ``auto_depth`` rewrites every scene config to the
automatic partition. The expected values returned with the inputs are
derived from the generated files with this module's own parsing and
geometry, never from the code under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 1080, 720
HORIZON_Y = 600.0
# Detection noise only: misses give every scene a count error, while the
# density field stays exact so the far integral is checkable to float32.
NOISE = {"p_miss": 0.2}
FAR_TOL = 1e-4  # float32 DIGF payload, a few hundred unit-mass heads
GEN_CHUNK = 1  # scenes per bench_generate call; the rate is a median over calls

# Grid tensor geometry for near_tensor: S x S cells, B boxes, C classes.
GRID_S, GRID_B, GRID_C = 32, 4, 1
DUP_SHIFT = 0.1  # duplicate centre shift, as a fraction of the box size
MIN_DUP_IOU = 0.55  # above the default 0.5 NMS IoU, so each duplicate is suppressed
MAX_SOURCE_IOU = 0.45  # below it, so distinct heads all survive
RECOVER_TOL_PX = 1e-3  # float32 offsets within a 1080-px frame


@dataclass(frozen=True)
class Workload:
    name: str
    n_people: int
    scenes: int
    tensor: bool = False
    auto: bool = False


# Scene counts make one pass a few seconds (auto_depth: one pass per run)
# and keep the dataset MAE within a few percent across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("manual_text", n_people=117, scenes=48),
        Workload("near_tensor", n_people=600, scenes=32, tensor=True),
        Workload("auto_depth", n_people=117, scenes=24, auto=True),
    )
}


class InputError(RuntimeError):
    """Generated inputs do not have the properties the checks rely on."""


def _bench_generate(workload: Workload, seed: int, spec_path: Path, out: Path):
    """``bench_generate`` once per GEN_CHUNK scenes into ``out``.

    Returns the scenes per second of each call, the last manifest path and
    the merged manifest.
    """
    from digcrowd import pipeline

    rates, entries = [], []
    for first in range(0, workload.scenes, GEN_CHUNK):
        ids = range(first, min(first + GEN_CHUNK, workload.scenes))
        spec_path.write_text(json.dumps({
            "dataset_id": f"{workload.name}-seed{seed}",
            "defaults": {"shape": [WIDTH, HEIGHT], "n_people": workload.n_people,
                         "horizon_y": HORIZON_Y},
            "noise": NOISE,
            "scenes": [{"scene_id": f"scene-{i:04d}", "seed": seed * 1000 + i} for i in ids],
        }))
        t0 = time.perf_counter()
        manifest_path, errors = pipeline.bench_generate(spec_path, out)
        rates.append(len(ids) / (time.perf_counter() - t0))
        if errors:
            raise InputError(f"bench_generate failed scenes: {errors}")
        manifest = json.loads(manifest_path.read_text())
        entries.extend(manifest["scenes"])
    manifest["scenes"] = entries
    return rates, manifest_path, manifest


def generate(workload: Workload, seed: int, root: Path) -> tuple[Path, list[float], dict]:
    """Write the workload's inputs under ``root / "data"``.

    Returns the manifest path, the scenes per second of each
    ``bench_generate`` call and the expected per-scene values.
    """
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    gen_rates, manifest_path, manifest = _bench_generate(
        workload, seed, root / "spec.json", data)

    rng = np.random.default_rng([seed, 7])
    expected = {}
    for scene in manifest["scenes"]:
        scene_dir = data / scene["scene_id"]
        split_y = _constant_split(json.loads((scene_dir / "config.json").read_text()))
        heads, gt = _annotations(scene_dir / "annotations.json")
        boxes = _read_boxes(scene_dir / "detections.txt")
        tensor_counts = {}
        if workload.tensor:
            boxes, tensor_counts = write_tensor(boxes, scene_dir / "tensor.digy", rng)
            (scene_dir / "detections.txt").unlink()
            scene["predictions"] = {"tensor": f"{scene['scene_id']}/tensor.digy",
                                    "density": scene["predictions"]["density"]}
        if workload.auto:
            _make_auto(scene_dir / "config.json")
        centres_y = (boxes[:, 1] + boxes[:, 3]) / 2.0
        expected[scene["scene_id"]] = {
            "ground_truth": gt,
            "boxes": int(len(boxes)),
            # manual split y = b is constant; centres on the line stay near
            "near": None if workload.auto else int((centres_y >= split_y).sum()),
            "far": None if workload.auto else int((heads[:, 1] < split_y).sum()),
            **tensor_counts,
        }
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path, gen_rates, expected


def regenerate(workload: Workload, seed: int, root: Path) -> tuple[list[float], list[str]]:
    """Run ``bench_generate`` again into ``root / "regen"`` and compare.

    Every file it writes that shaping leaves alone must be byte-identical
    to the first generation. Returns the scenes per second of each call and
    the files that differ; the second copy is deleted.
    """
    regen = root / "regen"
    try:
        rates, _, manifest = _bench_generate(workload, seed, root / "spec.json", regen)
        differ = [
            f"{scene['scene_id']}/{name}"
            for scene in manifest["scenes"]
            for name in ("depth.digd", "density.digf", "annotations.json")
            if (regen / scene["scene_id"] / name).read_bytes()
            != (root / "data" / scene["scene_id"] / name).read_bytes()
        ]
    finally:
        shutil.rmtree(regen, ignore_errors=True)
    return rates, differ


def expected_errors(expected: dict) -> tuple[float, float] | None:
    """Dataset MAE and root-MSE implied by exact near and far counts."""
    errs = []
    for e in expected.values():
        if e["near"] is None:
            return None
        errs.append(e["ground_truth"] - (e["near"] + e["far"]))
    return (sum(abs(x) for x in errs) / len(errs),
            math.sqrt(sum(x * x for x in errs) / len(errs)))


def inputs_sha256(data: Path) -> str:
    """Hash of every generated file, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in data.rglob("*") if p.is_file()):
        h.update(path.relative_to(data).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _constant_split(config: dict) -> float:
    segments = config["polyline"]
    if len(segments) != 1 or segments[0]["k"] != 0.0:
        raise InputError("bench_generate wrote a non-constant manual polyline")
    return float(segments[0]["b"])


def _annotations(path: Path) -> tuple[np.ndarray, float]:
    payload = json.loads(path.read_text())
    heads = np.array([(h["x"], h["y"]) for h in payload["heads"]], dtype=np.float64)
    return heads.reshape(-1, 2), float(payload["count"])


def _read_boxes(path: Path) -> np.ndarray:
    rows = [[float(v) for v in line.split()[:4]]
            for line in path.read_text().splitlines() if line.strip()]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _make_auto(config_path: Path) -> None:
    from digcrowd import io as dio

    cfg = dio.read_scene_config(config_path)
    dio.write_scene_config(config_path,
                           dataclasses.replace(cfg, polyline=None, depth_threshold=None))


# -- grid tensor ---------------------------------------------------------------

def _cell(cx: float, cy: float) -> tuple[int, int]:
    return (min(int(cy * GRID_S / HEIGHT), GRID_S - 1),
            min(int(cx * GRID_S / WIDTH), GRID_S - 1))


def _decode_slot(values: np.ndarray, row: int, col: int, slot: int) -> np.ndarray:
    """Box a grid decoder reads from one slot, clamped to the frame."""
    x, y, w, h, _ = values[row, col, slot * 5: slot * 5 + 5].astype(np.float64)
    cx = (col + x) * WIDTH / GRID_S
    cy = (row + y) * HEIGHT / GRID_S
    hw, hh = w * WIDTH / 2.0, h * HEIGHT / 2.0
    return np.array([max(0.0, cx - hw), max(0.0, cy - hh),
                     min(WIDTH, cx + hw), min(HEIGHT, cy + hh)])


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each box in ``a`` (n, 4) against each in ``b`` (m, 4)."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def write_tensor(
    boxes: np.ndarray, path: Path, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Encode ``boxes`` plus jittered duplicates as a DIGY tensor at ``path``.

    Each box goes into the cell holding its centre. Dropped are boxes whose
    cell's B slots are full, boxes overlapping an earlier box by more than
    MAX_SOURCE_IOU, and duplicates without a free slot. Sources carry
    confidence 1.0 and duplicates less, so greedy NMS visits every source
    first. Returns the source boxes a decoder recovers, which are exactly
    the boxes NMS must keep, and the candidate and drop counts.
    """
    from digcrowd import io as dio
    from digcrowd.detect import DetectorGridSpec, GridPrediction
    from digcrowd.scene import GridShape

    values = np.zeros((GRID_S, GRID_S, GRID_B * 5 + GRID_C), dtype=np.float32)
    values[:, :, GRID_B * 5:] = 1.0
    used = np.zeros((GRID_S, GRID_S), dtype=np.int64)

    def put(box, conf):
        cx, cy = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
        row, col = _cell(cx, cy)
        slot = used[row, col]
        if slot == GRID_B:
            return None
        used[row, col] += 1
        values[row, col, slot * 5: slot * 5 + 5] = (
            cx * GRID_S / WIDTH - col, cy * GRID_S / HEIGHT - row,
            (box[2] - box[0]) / WIDTH, (box[3] - box[1]) / HEIGHT, conf)
        return row, col, slot

    # Boxes clamped at the frame edge can overlap a neighbour more than the
    # spacing rule allows; such a pair has no margin against the NMS IoU.
    too_close = _iou(boxes, boxes) > MAX_SOURCE_IOU
    np.fill_diagonal(too_close, False)
    sources = []
    for i, box in enumerate(boxes):
        if too_close[i, [j for j, _ in sources]].any():
            continue
        where = put(box, 1.0)
        if where is not None:
            sources.append((i, where))
    duplicates = []
    dropped_duplicates = 0
    for i, where in sources:
        box = boxes[i]
        size = np.array([box[2] - box[0], box[3] - box[1]])
        for _ in range(int(rng.integers(1, 3))):
            shift = rng.uniform(-DUP_SHIFT, DUP_SHIFT, 2) * size
            dup = np.clip(box + np.tile(shift, 2), 0.0, [WIDTH, HEIGHT, WIDTH, HEIGHT])
            if _iou(dup[None], box[None])[0, 0] < MIN_DUP_IOU:
                continue  # clamping at the frame edge shrank the overlap
            # confidence stays above the 0.2 decode threshold, below the sources'
            where_dup = put(dup, float(rng.uniform(0.5, 0.95)))
            if where_dup is not None:
                duplicates.append((i, where_dup))
            else:
                dropped_duplicates += 1

    # What a decoder reads back must match what was planted.
    decoded = {i: _decode_slot(values, *where) for i, where in sources}
    kept = np.array([decoded[i] for i, _ in sources]).reshape(-1, 4)
    planted = boxes[[i for i, _ in sources]].reshape(-1, 4)
    if kept.size and np.abs(kept - planted).max() > RECOVER_TOL_PX:
        raise InputError(f"{path}: decoded boxes differ from planted ones")
    pair_iou = _iou(kept, kept)
    np.fill_diagonal(pair_iou, 0.0)
    if pair_iou.size and pair_iou.max() > MAX_SOURCE_IOU:
        raise InputError(f"{path}: distinct heads overlap with IoU {pair_iou.max():.3f}")
    for i, where in duplicates:
        dup_iou = _iou(_decode_slot(values, *where)[None], decoded[i][None])[0, 0]
        if dup_iou < MIN_DUP_IOU:
            raise InputError(f"{path}: duplicate of box {i} has IoU {dup_iou:.3f}")

    spec = DetectorGridSpec(GRID_S, GRID_B, GRID_C)
    dio.write_prediction_tensor(path, GridPrediction(spec, GridShape(WIDTH, HEIGHT), values))
    return kept, {
        "candidates": len(sources) + len(duplicates),
        "dropped_sources": len(boxes) - len(sources),
        "dropped_duplicates": dropped_duplicates,
    }
