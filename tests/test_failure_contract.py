"""The per-scene failure contract, fuzzed.

One file of a small generated set is damaged at a time: truncated, one
byte flipped, or one JSON value replaced by a bool, a string, a NaN literal
or an int too large for a float. ``run_scene`` must return, never raise;
the damaged scene either still counts or fails with an error that starts
with the damaged file's path (or is a partition error); the other scene is
untouched; and the dataset MAE/MSE stay finite, or null when every scene
failed. A damaged bench-gen spec is refused naming the spec, or its bad
scenes are listed, and nothing else escapes.
"""

import dataclasses
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digcrowd import FormatError
from digcrowd import io as dio
from digcrowd.pipeline import bench_generate, load_manifest, run_dataset, run_scene

SPEC = {
    "dataset_id": "contract",
    "defaults": {"shape": [160, 120], "n_people": 20, "horizon_y": 100.0,
                 "near_head_size": 14.0, "far_head_size": 4.0},
    "noise": {"p_miss": 0.1, "fp_rate": 1.0, "box_jitter": 0.5, "density_noise_sigma": 1e-6},
    "scenes": [{"scene_id": "manual", "seed": 1}, {"scene_id": "auto", "seed": 2}],
}
SCENE_FILES = [(scene, name) for scene in ("manual", "auto")
               for name in ("depth.digd", "config.json", "annotations.json",
                            "detections.txt", "density.digf")]
JUNK = [True, "x", math.nan, 10**400]
HEADER = 32  # bytes at the start of a file where one flip does the most
# a PartitionError names the scene, not a file
PARTITION_ERROR = re.compile(r"^scene '.*': ")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    manifest_path, errors = bench_generate(spec_path, root / "set")
    assert errors == []
    config = root / "set" / "auto" / "config.json"
    cfg = dio.read_scene_config(config)
    dio.write_scene_config(config, dataclasses.replace(cfg, polyline=None, depth_threshold=None))
    assert all(o.ok for o in run_dataset(load_manifest(manifest_path)).outcomes)
    return root


def _paths(node, path=()):
    """Every key/index path into a JSON value, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _damage(draw, raw: bytes, is_json: bool) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip"] + (["value"] if is_json else [])))
    at = draw(st.one_of(st.integers(0, min(HEADER, len(raw)) - 1), st.integers(0, len(raw) - 1)))
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    payload = json.loads(raw)
    *parents, last = draw(st.sampled_from(list(_paths(payload))))
    node = payload
    for key in parents:
        node = node[key]
    node[last] = draw(st.sampled_from(JUNK))
    return json.dumps(payload).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_damaged_scene_file_fails_only_its_scene(pristine, data):
    scene, name = data.draw(st.sampled_from(SCENE_FILES))
    raw = (pristine / "set" / scene / name).read_bytes()
    damaged = _damage(data.draw, raw, name.endswith(".json"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "set"
        shutil.copytree(pristine / "set", root)
        victim = root / scene / name
        victim.write_bytes(damaged)
        manifest = load_manifest(root / "manifest.json")

        outcomes = {entry.scene_id: run_scene(entry) for entry in manifest.entries}
        assert all(o.ok for scene_id, o in outcomes.items() if scene_id != scene)
        error = outcomes[scene].error
        assert error is None or error.startswith(f"{victim}:") or "absent" in error \
            or PARTITION_ERROR.match(error), error

        report = run_dataset(manifest)
        if report.evaluation is None:
            assert report.n_succeeded == 0
        else:
            assert math.isfinite(report.evaluation.mae) and math.isfinite(report.evaluation.mse)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_damaged_bench_gen_spec_is_refused_or_its_scenes_listed(pristine, data):
    damaged = _damage(data.draw, (pristine / "spec.json").read_bytes(), True)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_bytes(damaged)
        try:
            manifest_path, errors = bench_generate(spec_path, Path(tmp) / "out")
        except FormatError as exc:
            assert str(exc).startswith(f"{spec_path}: ")
            return
        assert all(isinstance(e, str) and ": " in e for e in errors)
        if json.loads(manifest_path.read_text())["scenes"]:
            load_manifest(manifest_path)
