"""Every file ``bench_generate`` writes for a small spec, pinned by sha256.

The hashes were taken before the generator's speed-ups (cell-bucketed head
spacing, in-place Gaussian deposition, copy-free raster writers, directly
formatted annotations). Any later speed-up must keep them: a change that
alters the generated files is a change of the benchmark's inputs, not an
optimisation.
"""

import hashlib
import json

from digcrowd.pipeline import bench_generate

# two 160x120 scenes and one clustered 320x240 scene, every noise knob on
SPEC = {
    "dataset_id": "guard",
    "defaults": {"shape": [160, 120], "n_people": 40, "horizon_y": 100.0,
                 "near_head_size": 14.0, "far_head_size": 4.0},
    "noise": {"p_miss": 0.25, "fp_rate": 3.0, "box_jitter": 1.0, "density_noise_sigma": 1e-4},
    "scenes": [
        {"scene_id": "small-a", "seed": 1},
        {"scene_id": "small-b", "seed": 2},
        {"scene_id": "clustered", "seed": 3, "shape": [320, 240], "horizon_y": 200.0,
         "n_people": 150, "near_head_size": 24.0, "far_head_size": 6.0,
         "clustering_intensity": 1.5},
    ],
}

SHA256 = {
    "clustered/annotations.json": "94bb04c485ac81c7a0e733f4bbe69010083cbfc3a1cbd4fa8caccc1f20a570ea",
    "clustered/config.json": "61c638b2545a6addcde415c73515443c4c10d5a4b8b9ce208e8af459a8d6030f",
    "clustered/density.digf": "3a3d6d2538478fc1a62b9c2aeb0013cb724d710cbdcce759d6d8491f20e1e63e",
    "clustered/depth.digd": "93e581e96cad3e0d9e9b6131345d922530db9c95985215be2f38529a2b80bd8e",
    "clustered/detections.txt": "49e9ed8a5195f969c8c662ec46775f2db2a3f7fcf98c5e0ba28f95c7d0d2c820",
    "manifest.json": "1aaf56c4300af8efdd22869a7b7ba0e58f80496d166aff32937f3829744a93a0",
    "small-a/annotations.json": "96489edc66e5ef6a9badf4bb617c29fd9d0b66ef807ade97a9d8e0c38edfaee7",
    "small-a/config.json": "cbd72892b1462698af717f520b19ae3bb4f62f64b5096c5bb98a38c75db90239",
    "small-a/density.digf": "4c51b1b3264f7cc4d513aead8aa623e7c5615bbbe365bbfe3a83d4119fc52883",
    "small-a/depth.digd": "532244883dc94890e69125575240391ebeb1919b5703bcc5ddfbda033f8703c2",
    "small-a/detections.txt": "188f5ece310ff4b24d3d3be4a301d1e5c49e347ab03fd3b8c4477284f76d1d1d",
    "small-b/annotations.json": "dfb4782c7c1a462b0e211ff94dac6d6e8f6346a9ce3574ebf5263562bc8f9251",
    "small-b/config.json": "7d9f605ab05973d1833fd0f8788ef99aa653260809597f66b0a0ff5153454b16",
    "small-b/density.digf": "94f28b5a6681895723ac744678cdbe1c7be4440eaa0333c189b3f356165359f0",
    "small-b/depth.digd": "0a40b7134343bf8060c19b29fde229e6ab632b9af48ca888689725c084b8992c",
    "small-b/detections.txt": "27bc80c1111e53047dc30ae370fa19f70be2e1ce00c257593318796b7ac53e09",
}


def test_generated_files_keep_their_bytes(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out = tmp_path / "out"
    _, errors = bench_generate(spec_path, out)
    assert errors == []
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file()}
    assert got == SHA256
