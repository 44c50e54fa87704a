"""What ``run_dataset`` writes for a small mixed set, pinned by sha256.

The set is generated by ``bench_generate`` and then shaped with the public
``io`` writers: text detections on the manual split, one scene whose near
boxes are a DIGY tensor with shifted duplicates, two automatic splits (one
of them a clustered 320x240 scene) and three scenes that fail on a missing
density file, a NaN in the depth payload and an unparsable detection line.
A failed scene's error names its file by absolute path, so the temporary
directory is replaced by ``<tmp>`` before hashing.

A change that moves a report byte re-pins these hashes and names the field
that moved.
"""

import dataclasses
import hashlib
import json
import struct

import numpy as np

from digcrowd import io as dio
from digcrowd.detect import DetectorGridSpec, GridPrediction
from digcrowd.pipeline import PipelineParams, bench_generate, load_manifest, run_dataset
from digcrowd.scene import GridShape

SPEC = {
    "dataset_id": "report-pins",
    "defaults": {"shape": [160, 120], "n_people": 40, "horizon_y": 100.0,
                 "near_head_size": 14.0, "far_head_size": 4.0},
    # Noise this small puts bits below a far sum's last place, so the order
    # in which ``integrate`` adds the far pixels shows in the count.
    "noise": {"p_miss": 0.25, "fp_rate": 3.0, "box_jitter": 1.0, "density_noise_sigma": 1e-7},
    "scenes": [
        {"scene_id": "manual-a", "seed": 1},
        {"scene_id": "manual-b", "seed": 2},
        {"scene_id": "tensor", "seed": 4},
        {"scene_id": "auto", "seed": 5},
        {"scene_id": "auto-clustered", "seed": 3, "shape": [320, 240], "horizon_y": 200.0,
         "n_people": 150, "near_head_size": 24.0, "far_head_size": 6.0,
         "clustering_intensity": 1.5},
        {"scene_id": "no-density", "seed": 6},
        {"scene_id": "nan-depth", "seed": 7},
        {"scene_id": "bad-line", "seed": 8},
    ],
}

# Duplicate shifts along x, as a fraction of the box width: IoU 2/3, 0.47, 1/3
# with the source, so the NMS threshold decides which of them survive.
DUP_SHIFTS = (0.2, 0.36, 0.5)

SHA256 = {
    "report.csv": "47b0162b64af3cfcd66b9ed8b4ca5ebfd45a738f0cf0b95045df9e7498967e05",
    "report.json": "f791e9a0826e39e2c97de0f64d255573a0101e1df42624c3e22a35dbf40a6d99",
}


def _write_tensor(detections_path, tensor_path, shape: GridShape) -> None:
    """The text boxes, each with one shifted duplicate, as an S=8 B=3 DIGY tensor."""
    grid = DetectorGridSpec(s=8, b=3, c=1)
    values = np.zeros((grid.s, grid.s, grid.cell_values), dtype=np.float32)
    values[..., -1] = 1.0
    used = np.zeros((grid.s, grid.s), dtype=np.int64)
    cell_w, cell_h = shape.width / grid.s, shape.height / grid.s
    rows = dio.read_detections_text(detections_path).rows
    for i, (x0, y0, x1, y1, score) in enumerate(rows.tolist()):
        w, h = x1 - x0, y1 - y0
        shift = DUP_SHIFTS[i % len(DUP_SHIFTS)] * w
        for dx, conf in ((0.0, score), (shift, 0.9 * score)):
            cx, cy = (x0 + x1) / 2.0 + dx, (y0 + y1) / 2.0
            col = min(int(cx / cell_w), grid.s - 1)
            row = min(int(cy / cell_h), grid.s - 1)
            if used[row, col] == grid.b:
                continue
            slot = used[row, col]
            used[row, col] += 1
            values[row, col, 5 * slot: 5 * slot + 5] = (
                cx / cell_w - col, cy / cell_h - row, w / shape.width, h / shape.height, conf)
    dio.write_prediction_tensor(tensor_path, GridPrediction(grid, shape, values))


def _make_auto(config_path) -> None:
    cfg = dio.read_scene_config(config_path)
    dio.write_scene_config(config_path,
                           dataclasses.replace(cfg, polyline=None, depth_threshold=None))


def _shape_set(out) -> None:
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    scenes = {s["scene_id"]: s for s in manifest["scenes"]}

    _write_tensor(out / "tensor/detections.txt", out / "tensor/tensor.digy", GridShape(160, 120))
    scenes["tensor"]["predictions"] = {"tensor": "tensor/tensor.digy",
                                       "density": "tensor/density.digf"}
    for scene_id in ("auto", "auto-clustered"):
        _make_auto(out / scene_id / "config.json")
    (out / "no-density/density.digf").unlink()
    depth = out / "nan-depth/depth.digd"
    raw = bytearray(depth.read_bytes())
    raw[16 + 4 * 500: 20 + 4 * 500] = struct.pack("<f", float("nan"))
    depth.write_bytes(bytes(raw))
    with (out / "bad-line/detections.txt").open("a") as fh:
        fh.write("10 20 x 30 0.5\n")
    manifest_path.write_text(json.dumps(manifest, indent=1))


def test_report_bytes_are_pinned(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "set"
    manifest_path, errors = bench_generate(spec_path, out)
    assert errors == []
    _shape_set(out)

    report = run_dataset(load_manifest(manifest_path), out_dir=tmp_path / "report")

    assert [o.status for o in report.outcomes] == ["ok"] * 5 + ["failed"] * 3
    prefix = str(tmp_path).encode()
    got = {name: hashlib.sha256(
               (tmp_path / "report" / name).read_bytes().replace(prefix, b"<tmp>")).hexdigest()
           for name in SHA256}
    assert got == SHA256

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    # NaN and Infinity are not JSON, and strict readers refuse them
    json.loads((tmp_path / "report" / "report.json").read_text(), parse_constant=refuse)


def test_two_workers_write_the_same_report(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "set"
    manifest_path, errors = bench_generate(spec_path, out)
    assert errors == []
    _shape_set(out)
    manifest = load_manifest(manifest_path)

    run_dataset(manifest, out_dir=tmp_path / "one")
    run_dataset(manifest, PipelineParams(workers=2), out_dir=tmp_path / "two")

    prefix = str(tmp_path).encode()
    csv = (tmp_path / "two" / "report.csv").read_bytes().replace(prefix, b"<tmp>")
    assert hashlib.sha256(csv).hexdigest() == SHA256["report.csv"]
    one, two = ((tmp_path / name / "report.json").read_text() for name in ("one", "two"))
    # config.workers is the one field that tells the two runs apart
    assert two.count('"workers": 2') == 1 and '"workers": 1' in one
    assert two.replace('"workers": 2', '"workers": 1') == one
