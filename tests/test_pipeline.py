import dataclasses
import json
import logging
import math
import os
import platform
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import digcrowd
from digcrowd import (
    ConfigError,
    DepthMap,
    DetectorGridSpec,
    FormatError,
    GridPrediction,
    GridShape,
    Polyline,
    load_manifest,
    partition,
    run_dataset,
    run_scene,
)
from digcrowd import io as dio
from digcrowd.cli import main as cli_main
from digcrowd.pipeline import Manifest, PipelineParams, bench_generate


# a small scene that generates quickly, for specs that must fail on one field
SMALL_DEFAULTS = {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0}

# each breaks the plain-file-name rule for scene ids in its own way
BAD_SCENE_IDS = ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\x00b"]


def _write_spec(path, count=4, n_people=40, noise=None, shape=(320, 240), seed_start=100):
    payload = {
        "dataset_id": "testset",
        "defaults": {
            "shape": list(shape),
            "n_people": n_people,
            "horizon_y": shape[1] * 5 / 6,
        },
        "noise": noise or {},
        "count": count,
        "seed_start": seed_start,
    }
    path.write_text(json.dumps(payload))
    return path


def _strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which strict JSON has no words for."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def _put_negative_density(path):
    """Overwrite the first value of a DIGF file with -0.25."""
    data = bytearray(path.read_bytes())
    data[20:24] = struct.pack("<f", -0.25)
    path.write_bytes(bytes(data))


@pytest.fixture()
def bench_dir(tmp_path):
    spec = _write_spec(tmp_path / "spec.json")
    out = tmp_path / "bench"
    manifest_path, errors = bench_generate(spec, out)
    assert not errors
    return out, manifest_path


class TestBenchGenerate:
    def test_manifest_lists_every_scene(self, bench_dir):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        assert len(manifest.entries) == 4
        for entry in manifest.entries:
            assert entry.depth.exists()
            assert entry.config.exists()
            assert entry.annotations.exists()
            assert entry.detections.exists()
            assert entry.density.exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", count=2)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        bench_generate(spec, out_a)
        bench_generate(spec, out_b)
        files_a = sorted(p for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p for p in out_b.rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_generation_error_surfaced_per_scene(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "dataset_id": "bad",
                    "defaults": {"shape": [320, 240], "horizon_y": 200.0},
                    "scenes": [
                        {"scene_id": "ok", "seed": 1, "n_people": 10},
                        {"scene_id": "broken", "seed": 2, "n_people": 0},
                    ],
                }
            )
        )
        manifest_path, errors = bench_generate(spec_path, tmp_path / "out")
        assert len(errors) == 1 and "broken" in errors[0]
        manifest = load_manifest(manifest_path)
        assert [e.scene_id for e in manifest.entries] == ["ok"]

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ({"scenes": [{"seed": 1, "n_people": "x"}]},
             "n_people must be an integer >= 1, got 'x'"),
            ({"defaults": {"shape": "ab"}, "count": 1}, "grid width must be an integer, got 'a'"),
            ({"defaults": {"shape": []}, "count": 1}, "not enough values to unpack"),
            ({"scenes": [{"seed": "x"}]}, "seed must be an integer >= 0, got 'x'"),
            ({"scenes": [{"seed": 1.5}]}, "seed must be an integer >= 0, got 1.5"),
            ({"scenes": [{"seed": 1, "n_people": 2.5}]},
             "n_people must be an integer >= 1, got 2.5"),
            ({"scenes": [{"seed": 1, "n_people": True}]},
             "n_people must be an integer >= 1, got True"),
            ({"defaults": {"shape": [160.9, 120], "n_people": 10, "horizon_y": 100.0},
              "count": 1}, "grid width must be an integer, got 160.9"),
            ({"defaults": {"shape": [float("inf"), 120]}, "count": 1},
             "grid width must be an integer, got inf"),
            ({"defaults": {**SMALL_DEFAULTS, "n_peeple": 50}, "count": 1},
             "unexpected keyword argument 'n_peeple'"),
            ({"defaults": SMALL_DEFAULTS, "scenes": [{"seed": True}]},
             "seed must be an integer >= 0, got True"),
            ({"defaults": {**SMALL_DEFAULTS, "horizon_y": True}, "count": 1},
             "horizon_y must be a number, got True"),
            ({"defaults": {**SMALL_DEFAULTS, "near_head_size": True}, "count": 1},
             "near_head_size must be a number, got True"),
            ({"defaults": {**SMALL_DEFAULTS, "far_head_size": True}, "count": 1},
             "far_head_size must be a number, got True"),
            ({"defaults": {**SMALL_DEFAULTS, "clustering_intensity": True}, "count": 1},
             "clustering_intensity must be a number, got True"),
            ({"defaults": {**SMALL_DEFAULTS, "exclusion_margin": False}, "count": 1},
             "exclusion_margin must be a number, got False"),
            ({"defaults": {**SMALL_DEFAULTS, "shape": [160, True]}, "count": 1},
             "grid height must be an integer, got True"),
            # json writes and reads these as the literals NaN and Infinity
            ({"defaults": {**SMALL_DEFAULTS, "clustering_intensity": math.nan}, "count": 1},
             "clustering_intensity nan must be finite and >= 0"),
            ({"defaults": {**SMALL_DEFAULTS, "exclusion_margin": math.nan}, "count": 1},
             "exclusion_margin nan must be finite and >= 0"),
            ({"defaults": {**SMALL_DEFAULTS, "exclusion_margin": math.inf}, "count": 1},
             "exclusion_margin inf must be finite and >= 0"),
            ({"defaults": {**SMALL_DEFAULTS, "near_head_size": math.inf}, "count": 1},
             "near_head_size inf must be finite and >= 0"),
            ({"defaults": {**SMALL_DEFAULTS, "shape": [10**400, 120]}, "count": 1},
             "grid shape sides must be below 2**32, got 1000"),
        ],
        ids=["override-type", "default-value", "shape-empty", "seed-str", "seed-float",
             "n_people-float", "n_people-bool", "shape-float", "shape-inf", "unknown-key",
             "seed-bool", "horizon_y-bool", "near_head_size-bool", "far_head_size-bool",
             "clustering_intensity-bool", "exclusion_margin-bool", "shape-bool",
             "clustering_intensity-nan", "exclusion_margin-nan", "exclusion_margin-inf",
             "near_head_size-inf", "shape-too-large"],
    )
    def test_wrong_field_type_is_a_scene_error(self, tmp_path, capsys, payload, reason):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        manifest_path, errors = bench_generate(spec_path, tmp_path / "out")
        assert len(errors) == 1
        assert errors[0].startswith("scene-0000: ") and reason in errors[0]
        assert json.loads(manifest_path.read_text())["scenes"] == []
        capsys.readouterr()
        argv = ["bench-gen", "--spec", str(spec_path), "--out-dir", str(tmp_path / "cli")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors"] == errors
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("scene_id", BAD_SCENE_IDS)
    def test_scene_id_must_be_a_file_name(self, tmp_path, scene_id):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "defaults": {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0},
            "scenes": [{"scene_id": scene_id, "seed": 1}, {"scene_id": "kept", "seed": 2}],
        }))
        out = tmp_path / "a" / "b" / "out"
        manifest_path, errors = bench_generate(spec_path, out)
        assert len(errors) == 1
        assert errors[0] == f"{scene_id}: scene_id must be a plain file name, got {scene_id!r}"
        assert [e.scene_id for e in load_manifest(manifest_path).entries] == ["kept"]
        written = {p for p in tmp_path.rglob("*") if p.is_file()} - {spec_path}
        assert {p.parent for p in written} == {out, out / "kept"}

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"count": 2.9, "seed_start": 1.7}, "count must be an integer, got 2.9"),
            ({"count": 2, "seed_start": 1.7}, "seed_start must be an integer, got 1.7"),
            ({"count": 2.0}, "count must be an integer, got 2.0"),
            ({"count": True}, "count must be an integer, got True"),
            ({"count": 1, "seed_start": False}, "seed_start must be an integer, got False"),
            ({"count": "2"}, "count must be an integer, got '2'"),
        ],
        ids=["both-float", "seed_start-float", "count-integral-float", "count-bool",
             "seed_start-bool", "count-str"],
    )
    def test_count_and_seed_start_must_be_integers(self, tmp_path, fields, reason):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "defaults": {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0}, **fields,
        }))
        with pytest.raises(FormatError, match=rf"bad benchmark spec: {re.escape(reason)}$"):
            bench_generate(spec_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "noise, reason",
        [
            ({"fp_rate": math.inf}, "fp_rate inf must be finite and >= 0"),
            ({"fp_rate": math.nan}, "fp_rate nan must be finite and >= 0"),
            ({"box_jitter": math.nan}, "box_jitter nan must be finite and >= 0"),
            ({"density_noise_sigma": math.nan}, "density_noise_sigma nan must be finite and >= 0"),
            ({"p_miss": 2}, "p_miss 2 outside [0, 1]"),
            ({"p_miss": True}, "p_miss must be a number, got True"),
            ({"fp_rate": False}, "fp_rate must be a number, got False"),
            ({"box_jitter": True}, "box_jitter must be a number, got True"),
            ({"density_noise_sigma": True}, "density_noise_sigma must be a number, got True"),
            ({"box_jitter": 10**400}, "int too large to convert to float"),
        ],
        ids=["fp_rate-inf", "fp_rate-nan", "box_jitter-nan", "density_noise_sigma-nan",
             "p_miss-2", "p_miss-bool", "fp_rate-bool", "box_jitter-bool",
             "density_noise_sigma-bool", "box_jitter-huge-int"],
    )
    def test_bad_noise_is_a_spec_error(self, tmp_path, capsys, noise, reason):
        spec_path = _write_spec(tmp_path / "spec.json", count=1, noise=noise)
        message = f"{spec_path}: bad benchmark spec: {reason}"
        with pytest.raises(FormatError, match=rf"^{re.escape(message)}$"):
            bench_generate(spec_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        argv = ["bench-gen", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"defaults": [["n_people", 5], ["horizon_y", 100.0]], "count": 1},
             "defaults must be a JSON object, got [['n_people', 5], ['horizon_y', 100.0]]"),
            ({"defaults": None, "count": 1}, "defaults must be a JSON object, got None"),
            ({"noise": [], "count": 1}, "noise must be a JSON object, got []"),
            ({"scenes": {"a": 1}}, "scenes must be a list, got {'a': 1}"),
            ({"scenes": [{"seed": 2}, [["seed", 3]]]},
             "scenes[1] must be a JSON object, got [['seed', 3]]"),
        ],
        ids=["defaults-pairs", "defaults-null", "noise-list", "scenes-object", "scene-pairs"],
    )
    def test_spec_containers_must_be_objects_and_lists(self, tmp_path, fields, reason):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "defaults": {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0}, **fields,
        }))
        message = f"{spec_path}: bad benchmark spec: {reason}"
        with pytest.raises(FormatError, match=rf"^{re.escape(message)}$"):
            bench_generate(spec_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_fp_rate_above_the_pixel_count_fails_its_scene(self, tmp_path):
        # Boxes are drawn one at a time, about 27 us each: 1e8 would take 45 minutes.
        spec_path = _write_spec(tmp_path / "spec.json", count=1, shape=(160, 120),
                                noise={"fp_rate": 1e8})
        start = time.perf_counter()
        manifest_path, errors = bench_generate(spec_path, tmp_path / "out")
        assert time.perf_counter() - start < 10.0
        assert errors == ["scene-0000: fp_rate 100000000.0 above the frame's 19200 pixels"]
        assert json.loads(manifest_path.read_text())["scenes"] == []

        at_bound = _write_spec(tmp_path / "bound.json", count=1, shape=(160, 120),
                               noise={"fp_rate": 19200})
        manifest_path, errors = bench_generate(at_bound, tmp_path / "bound")
        assert errors == [] and len(load_manifest(manifest_path).entries) == 1

    def test_crowd_that_cannot_fit_fails_at_once(self, tmp_path):
        # Heads of size >= 10 keep centres 4.5 apart, so at most 226 fit in
        # 64x48. The placement loop alone would make 6e8 attempts here.
        spec_path = _write_spec(tmp_path / "spec.json", count=1, n_people=10**6, shape=(64, 48))
        start = time.perf_counter()
        manifest_path, errors = bench_generate(spec_path, tmp_path / "out")
        assert time.perf_counter() - start < 1.0
        assert errors == ["scene-0000: n_people 1000000 cannot fit: a 64x48 frame holds at "
                          "most 226 heads at far_head_size 10.0"]
        assert json.loads(manifest_path.read_text())["scenes"] == []

    @pytest.mark.parametrize("dataset_id", [7, None, True, ["a"]],
                             ids=["int", "null", "bool", "list"])
    def test_dataset_id_must_be_a_string(self, tmp_path, dataset_id):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "dataset_id": dataset_id, "count": 1,
            "defaults": {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0},
        }))
        reason = f"dataset_id must be a string, got {dataset_id!r}"
        with pytest.raises(FormatError, match=rf"bad benchmark spec: {re.escape(reason)}$"):
            bench_generate(spec_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scene_id", [7, 1.5, True, None, ["a"]],
                             ids=["int", "float", "bool", "null", "list"])
    def test_scene_id_must_be_a_string(self, tmp_path, scene_id):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "defaults": {"shape": [160, 120], "n_people": 10, "horizon_y": 100.0},
            "scenes": [{"scene_id": scene_id, "seed": 1}, {"scene_id": "kept", "seed": 2}],
        }))
        out = tmp_path / "out"
        manifest_path, errors = bench_generate(spec_path, out)
        assert errors == [f"{scene_id}: scene_id must be a string, got {scene_id!r}"]
        assert [e.scene_id for e in load_manifest(manifest_path).entries] == ["kept"]
        written = {p for p in tmp_path.rglob("*") if p.is_file()} - {spec_path}
        assert {p.parent for p in written} == {out, out / "kept"}

    def test_duplicate_scene_id_fails_the_later_scene(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "defaults": SMALL_DEFAULTS,
            "scenes": [{"scene_id": "a", "seed": 1}, {"scene_id": "a", "seed": 2}, {"seed": 3},
                       {"scene_id": "scene-0002", "seed": 4}],
        }))
        out = tmp_path / "out"
        manifest_path, errors = bench_generate(spec_path, out)
        assert errors == ["a: duplicate scene_id 'a'",
                          "scene-0002: duplicate scene_id 'scene-0002'"]
        assert [e.scene_id for e in load_manifest(manifest_path).entries] == ["a", "scene-0002"]
        # the first scene of each id keeps its files
        alone = tmp_path / "alone.json"
        alone.write_text(json.dumps({
            "defaults": SMALL_DEFAULTS,
            "scenes": [{"scene_id": "a", "seed": 1}, {"scene_id": "scene-0002", "seed": 3}],
        }))
        bench_generate(alone, tmp_path / "alone")
        for scene_id in ("a", "scene-0002"):
            for name in ("depth.digd", "config.json", "annotations.json", "density.digf"):
                got = (out / scene_id / name).read_bytes()
                assert got == (tmp_path / "alone" / scene_id / name).read_bytes(), name


def _bench_spec_1080(path, seeds):
    """Perfbench-sized scenes: 1080x720, 117 people, 20% missed detections."""
    path.write_text(json.dumps({
        "defaults": {"shape": [1080, 720], "n_people": 117, "horizon_y": 600.0},
        "noise": {"p_miss": 0.2},
        "scenes": [{"scene_id": f"scene-{seed}", "seed": seed} for seed in seeds],
    }))
    return path


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap is pinned on glibc only")
class TestPinnedHeap:
    """Warm scenes reuse the heap: a trimmed heap costs 1,500-2,600 faults a scene."""

    @staticmethod
    def _minor_faults():
        resource = pytest.importorskip("resource")
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def test_run_dataset_scenes_do_not_refault(self, tmp_path, monkeypatch):
        manifest_path, errors = bench_generate(
            _bench_spec_1080(tmp_path / "spec.json", [1, 2, 3, 4]), tmp_path / "bench")
        assert not errors
        manifest = load_manifest(manifest_path)
        for entry in manifest.entries[2:]:  # two manual splits, two automatic
            cfg = dio.read_scene_config(entry.config)
            dio.write_scene_config(entry.config, dataclasses.replace(
                cfg, polyline=None, depth_threshold=None))

        def faults_per_scene():
            run_dataset(manifest)  # warm
            before = self._minor_faults()
            for _ in range(2):
                assert run_dataset(manifest).n_succeeded == 4
            return (self._minor_faults() - before) / (2 * len(manifest.entries))

        assert faults_per_scene() < 400
        count_scene = digcrowd.pipeline.count_scene

        def holding_4mb(*args, **kwargs):
            held = np.ones(1 << 20, dtype=np.float32)  # noqa: F841 -- alive across the scene
            return count_scene(*args, **kwargs)

        monkeypatch.setattr(digcrowd.pipeline, "count_scene", holding_4mb)
        assert faults_per_scene() < 400

    def test_bench_generate_scenes_do_not_refault(self, tmp_path):
        spec = _bench_spec_1080(tmp_path / "spec.json", [1, 2])
        bench_generate(spec, tmp_path / "warm")
        before = self._minor_faults()
        _, errors = bench_generate(spec, tmp_path / "out")
        assert not errors
        assert (self._minor_faults() - before) / 2 < 200


class TestRunDataset:
    def test_zero_noise_near_exact_through_files(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        report = run_dataset(load_manifest(manifest_path), PipelineParams(), tmp_path / "r")
        assert report.n_succeeded == 4
        # the only residue is float32 quantization in the density file
        assert report.evaluation.mae < 1e-4
        assert report.evaluation.mse < 1e-4

    def test_configs_with_kernel_keys_give_identical_reports(self, bench_dir, tmp_path):
        # configs written before the kernel parameters became constants
        # still carry knn_k, beta and truncation_radius; readers ignore them
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        cfg = json.loads(manifest.entries[1].config.read_text())
        cfg["polyline"] = None  # one automatic split
        manifest.entries[1].config.write_text(json.dumps(cfg))
        run_dataset(manifest, PipelineParams(), tmp_path / "new")
        for entry in manifest.entries:
            cfg = json.loads(entry.config.read_text())
            assert set(cfg) == {"scene_id", "polyline", "depth_threshold"}
            cfg.update(knn_k=3, beta=0.3, truncation_radius=3.0)
            entry.config.write_text(json.dumps(cfg, indent=1))
        run_dataset(manifest, PipelineParams(), tmp_path / "old")
        for name in ("report.csv", "report.json"):
            new = (tmp_path / "new" / name).read_bytes()
            assert (tmp_path / "old" / name).read_bytes() == new, name

    def test_report_covers_every_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        run_dataset(manifest, PipelineParams(), tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["n_scenes"] == len(manifest.entries)
        assert {s["scene_id"] for s in payload["scenes"]} == {
            e.scene_id for e in manifest.entries
        }
        csv_lines = (tmp_path / "r" / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "scene_id,near_count,far_count,total,ground_truth,abs_error"
        assert len(csv_lines) == 1 + payload["n_succeeded"]

    def test_missing_density_fails_scene_but_keeps_near(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        missing = manifest.entries[0].density
        missing.unlink()
        outcome = run_scene(load_manifest(manifest_path).entries[0], PipelineParams())
        assert outcome.status == "failed"
        assert str(missing) in outcome.error
        assert outcome.near_count is not None and outcome.near_count > 0
        # entry without any density path exercises the per-scene failure path
        entry = dataclasses.replace(manifest.entries[0], density=None)
        outcome = run_scene(entry, PipelineParams())
        assert outcome.status == "failed"
        assert "far predictions absent" in outcome.error
        assert outcome.near_count is not None and outcome.near_count > 0

    def test_missing_file_fails_only_its_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        missing = load_manifest(manifest_path).entries[2].depth
        missing.unlink()
        report = run_dataset(load_manifest(manifest_path), PipelineParams(), tmp_path / "r")
        assert [o.status for o in report.outcomes] == ["ok", "ok", "failed", "ok"]
        assert str(missing) in report.outcomes[2].error
        assert report.evaluation is not None and report.evaluation.mae < 1e-4
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert (payload["n_succeeded"], payload["n_failed"]) == (3, 1)

    def test_non_finite_detection_fails_only_its_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        bad = manifest.entries[1].detections
        lines = bad.read_text().splitlines()
        bad.write_text("\n".join(lines + ["10 650 inf 700 0.9"]) + "\n")

        outcome = run_scene(manifest.entries[1], PipelineParams())
        assert outcome.status == "failed"
        assert f"{bad}:{len(lines) + 1}: non-finite box" in outcome.error

        report = run_dataset(manifest, PipelineParams(), tmp_path / "r")
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        assert report.n_succeeded == 3

    @pytest.mark.parametrize(
        "victim, content",
        [
            ("depth", b"P5\n24x 160\n65535\n" + bytes(2 * 24 * 160)),
            ("config", b'[{"scene_id": "scene-0001"}]'),
            ("annotations", b'{"heads": [], "count": "nan"}'),
            ("annotations", b'{"heads": [], "count": -5}'),
            ("annotations", b'{"heads": [], "count": 1' + b"0" * 400 + b"}"),
            ("config", lambda cfg: cfg["polyline"][0].update(k=float("nan"))),
            ("config", lambda cfg: cfg.update(depth_threshold=1.5)),
            ("density", struct.pack("<4sIIQ", b"DIGF", 320, 240, 0)
             + np.full(320 * 240, np.nan, dtype="<f4").tobytes()),
            ("density", struct.pack("<4sIIQ", b"DIGF", 320, 240, 0)
             + np.full(320 * 240, np.inf, dtype="<f4").tobytes()),
            ("depth", struct.pack("<4sIII", b"DIGD", 320, 240, 0)
             + np.full(320 * 240, np.nan, dtype="<f4").tobytes()),
            ("annotations", b'{"heads": [{"x": NaN, "y": 3.0}], "count": 1}'),
            ("depth", struct.pack("<4sIII", b"DIGD", 0, 240, 0)),
            ("density", struct.pack("<4sIIQ", b"DIGF", 320, 0, 0)),
            ("detections", b"10 10 20 20 0.9\n# caf\xe9\n"),
        ],
        ids=["pgm-header", "config-list", "nan-count", "negative-count", "overflowing-count",
             "nan-polyline-k",
             "threshold-out-of-range", "density-nan", "density-inf", "depth-nan",
             "nan-head", "digd-zero-width", "digf-zero-height", "detections-utf8"],
    )
    def test_input_defect_fails_only_its_scene(self, bench_dir, tmp_path, victim, content):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        path = getattr(manifest.entries[1], victim)
        if callable(content):  # an edit of the scene's config
            cfg = json.loads(path.read_text())
            content(cfg)
            content = json.dumps(cfg).encode()
        path.write_bytes(content)

        report = run_dataset(manifest, PipelineParams(), tmp_path / "r")
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        assert str(path) in report.outcomes[1].error
        assert math.isfinite(report.evaluation.mae)
        assert math.isfinite(report.evaluation.mse)

    def test_config_with_wrong_json_types_fails_only_its_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        path = manifest.entries[1].config
        path.write_text(
            '{"scene_id": 7, "polyline": [{"x_start": false, "x_end": 10, "k": true, '
            '"b": "3"}], "depth_threshold": true}'
        )
        outcome = run_scene(manifest.entries[1], PipelineParams())
        assert outcome.status == "failed"
        assert path.name == "config.json" and str(path) in outcome.error

        report = run_dataset(manifest, PipelineParams(), tmp_path / "r")
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        assert report.evaluation is not None and math.isfinite(report.evaluation.mae)

    def test_annotations_with_wrong_json_types_fail_only_their_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        path = manifest.entries[1].annotations
        payload = json.loads(path.read_text())
        payload["heads"][0] = {"x": "3", "y": True}
        path.write_text(json.dumps(payload))
        outcome = run_scene(manifest.entries[1], PipelineParams())
        assert outcome.status == "failed"
        assert path.name == "annotations.json" and str(path) in outcome.error
        assert "head x must be a number, got '3'" in outcome.error

        report = run_dataset(manifest, PipelineParams(), tmp_path / "r")
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        assert report.evaluation is not None and math.isfinite(report.evaluation.mae)

    def test_tensor_grid_must_match_scene(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        spec = DetectorGridSpec(s=4, b=1, c=1)
        values = np.zeros((4, 4, spec.cell_values))
        values[3, 1] = (0.5, 0.5, 0.05, 0.05, 1.0, 1.0)  # one box low in the frame
        entries = list(manifest.entries)
        for i, scale in ((1, 1), (2, 10)):
            path = tmp_path / f"scene{i}.digy"
            shape = GridShape(320 * scale, 240 * scale)
            dio.write_prediction_tensor(path, GridPrediction(spec, shape, values))
            entries[i] = dataclasses.replace(entries[i], detections=None, tensor=path)

        report = run_dataset(Manifest(manifest.dataset_id, tuple(entries)), PipelineParams())
        assert [o.status for o in report.outcomes] == ["ok", "ok", "failed", "ok"]
        assert report.outcomes[1].near_count == 1
        error = report.outcomes[2].error
        assert str(tmp_path / "scene2.digy") in error
        assert "GridShape(width=3200, height=2400)" in error
        assert "GridShape(width=320, height=240)" in error

    @pytest.mark.parametrize("s, width", [(0, 320), (4, 0)], ids=["s0", "width0"])
    def test_tensor_header_of_zero_fails_only_its_scene(self, bench_dir, tmp_path, s, width):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        path = tmp_path / "zero.digy"
        path.write_bytes(struct.pack("<4sIIIII", b"DIGY", s, 1, 1, width, 240))
        entries = list(manifest.entries)
        entries[1] = dataclasses.replace(entries[1], detections=None, tensor=path)

        report = run_dataset(Manifest(manifest.dataset_id, tuple(entries)), PipelineParams())
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        assert report.outcomes[1].error.startswith(f"{path}: ")

    @pytest.mark.parametrize("width, height", [(400, 1), (1, 400)])
    def test_single_row_or_column_depth_fails_only_its_scene(self, tmp_path, width, height):
        spec = _write_spec(tmp_path / "spec.json", count=3)
        manifest_path, _ = bench_generate(spec, tmp_path / "bench")
        manifest = load_manifest(manifest_path)
        for entry in manifest.entries:  # automatic partition everywhere
            cfg = json.loads(entry.config.read_text())
            cfg["polyline"] = None
            cfg["depth_threshold"] = "auto"
            entry.config.write_text(json.dumps(cfg))
        values = np.linspace(1.0, 0.0, width * height).reshape(height, width)
        victim = manifest.entries[1].depth
        dio.write_depth_digd(victim, DepthMap(GridShape(width, height), values))

        report = run_dataset(manifest, PipelineParams())
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        # the line grid partitions; its predictions are for another grid
        assert report.outcomes[1].threshold_used is not None
        error = report.outcomes[1].error
        assert error.startswith(f"{manifest.entries[1].density}: density file grid ")
        assert "does not match" in error

    def test_annotation_error_comes_before_density_grid_error(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        entry = load_manifest(manifest_path).entries[1]
        dio.write_density_field(entry.density, digcrowd.DensityField.zeros(GridShape(8, 8)))
        outcome = run_scene(entry)
        assert outcome.error == (f"{entry.density}: density file grid "
                                 f"{GridShape(8, 8)} does not match scene grid "
                                 f"{GridShape(320, 240)}")
        entry.annotations.write_text('{"heads": []}')
        assert run_scene(entry).error.startswith(f"{entry.annotations}: bad annotation file")

    def test_render_debug_writes_the_clusters_of_an_automatic_split(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        entry = load_manifest(manifest_path).entries[0]
        cfg = json.loads(entry.config.read_text())
        cfg["polyline"] = None
        entry.config.write_text(json.dumps(cfg))
        report = run_dataset(Manifest("one", (entry,)), PipelineParams(render_debug=True),
                             tmp_path / "r")
        assert report.n_succeeded == 1
        part = partition(dio.read_depth(entry.depth), dio.read_scene_config(entry.config))
        labels = part.cluster_assignments
        raster = (tmp_path / "r" / "debug" / f"{entry.scene_id}_clusters.pgm").read_bytes()
        height, width = labels.shape
        header = f"P5\n{width} {height}\n255\n".encode()
        assert raster == header + (labels % 256).astype(np.uint8).tobytes()

    def test_render_debug_accepts_str_out_dir(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        report = run_dataset(manifest, PipelineParams(render_debug=True), str(tmp_path / "r"))
        assert report.n_succeeded == len(manifest.entries)
        for entry in manifest.entries:
            for kind in ("mask", "density"):
                assert (tmp_path / "r" / "debug" / f"{entry.scene_id}_{kind}.pgm").exists()

    def test_debug_raster_error_keeps_the_count(self, bench_dir, tmp_path, caplog):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        report_dir = tmp_path / "r"
        report_dir.mkdir()
        (report_dir / "debug").write_text("a file where the raster directory goes")
        with caplog.at_level(logging.WARNING, logger="digcrowd"):
            report = run_dataset(manifest, PipelineParams(render_debug=True), report_dir)
        assert report.n_succeeded == len(manifest.entries) and report.evaluation is not None
        assert report.evaluation == run_dataset(manifest).evaluation
        logged = [r.getMessage() for r in caplog.records]
        for outcome in report.outcomes:
            [warning] = [w for w in outcome.warnings if w.startswith("debug rasters not written: ")]
            assert "File exists" in warning
            assert logged.count(f"scene {outcome.scene_id}: {warning}") == 1
        payload = json.loads((report_dir / "report.json").read_text())
        assert payload["n_succeeded"] == len(manifest.entries) and payload["mae"] is not None

    def test_outputs_named_by_manifest_id(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        for entry in manifest.entries[:2]:  # two configs with one id
            cfg = json.loads(entry.config.read_text())
            cfg["scene_id"] = "same"
            entry.config.write_text(json.dumps(cfg))
        report = run_dataset(manifest, PipelineParams(render_debug=True), tmp_path / "r")
        ids = [e.scene_id for e in manifest.entries]
        assert report.n_succeeded == 4
        assert [o.estimate.scene_id for o in report.outcomes[:2]] == ["same", "same"]
        csv_lines = (tmp_path / "r" / "report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in csv_lines[1:]] == ids
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert [scene["scene_id"] for scene in payload["scenes"]] == ids
        debug = sorted(p.name for p in (tmp_path / "r" / "debug").iterdir())
        assert debug == sorted(f"{i}_{kind}.pgm" for i in ids for kind in ("mask", "density"))

    @pytest.mark.parametrize("scene_id", BAD_SCENE_IDS)
    def test_config_scene_id_must_be_a_file_name(self, bench_dir, tmp_path, scene_id):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        path = manifest.entries[1].config
        cfg = json.loads(path.read_text())
        cfg["scene_id"] = scene_id
        path.write_text(json.dumps(cfg))
        report_dir = tmp_path / "x" / "y" / "r"
        report = run_dataset(manifest, PipelineParams(render_debug=True), report_dir)
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
        error = report.outcomes[1].error
        assert path.name == "config.json" and error.startswith(f"{path}: bad scene config: ")
        assert error.endswith(f"scene_id must be a plain file name, got {scene_id!r}")
        rasters = list(tmp_path.rglob("*.pgm"))
        assert len(rasters) == 6 and {p.parent for p in rasters} == {report_dir / "debug"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"score_threshold": float("nan")},
            {"score_threshold": -3.0},
            {"score_threshold": 1.5},
            {"nms_iou": float("nan")},
            {"nms_iou": 0.0},
            {"nms_iou": -0.1},
            {"nms_iou": 1.5},
        ],
    )
    def test_params_reject_bad_thresholds(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineParams(**kwargs)

    @pytest.mark.parametrize("workers", [0, -2, True, False, 2.5, 2.0, "2", None])
    def test_params_reject_workers_that_are_not_integers_of_at_least_one(self, workers):
        with pytest.raises(ConfigError, match="workers must be an integer >= 1, got "):
            PipelineParams(workers=workers)

    def test_params_take_numpy_integer_workers_as_int(self):
        workers = PipelineParams(workers=np.int64(2)).workers
        assert workers == 2 and type(workers) is int

    @pytest.mark.parametrize("field, what", [("score_threshold", "score threshold"),
                                             ("nms_iou", "NMS IoU threshold")])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_params_reject_thresholds_that_are_not_numbers(self, field, what, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(f'{what} must be a number, got {value!r}')}$"):
            PipelineParams(**{field: value})

    def test_numpy_thresholds_are_stored_as_floats_and_reported(self, bench_dir, tmp_path):
        _, manifest_path = bench_dir
        params = PipelineParams(score_threshold=np.float32(0.25), nms_iou=np.float64(0.5))
        assert type(params.score_threshold) is float and type(params.nms_iou) is float
        assert params.score_threshold == float(np.float32(0.25))
        run_dataset(load_manifest(manifest_path), params, tmp_path / "out")
        config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert config == {"score_threshold": 0.25, "nms_iou": 0.5, "workers": 1}

    def test_workers_match_serial(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        serial = run_dataset(manifest, PipelineParams(workers=1))
        parallel = run_dataset(manifest, PipelineParams(workers=4))
        assert [o.scene_id for o in serial.outcomes] == [o.scene_id for o in parallel.outcomes]
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.estimate.total == b.estimate.total

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dataset_id": "x", "scenes": []}')
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_duplicate_scene_ids_rejected(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        payload["scenes"].append(payload["scenes"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize("scene_id", [7, 7.0, True, None, ["s"]])
    def test_non_string_scene_id_rejected(self, bench_dir, tmp_path, scene_id):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        payload["scenes"][1]["scene_id"] = scene_id
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: bad scene entry: scene_id must be a string, got {scene_id!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize("scene_id", BAD_SCENE_IDS)
    def test_scene_id_must_be_a_file_name(self, bench_dir, tmp_path, scene_id):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        payload["scenes"][1]["scene_id"] = scene_id
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        message = (f"{path}: bad scene entry: "
                   f"scene_id must be a plain file name, got {scene_id!r}")
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["depth", "config"])
    @pytest.mark.parametrize("value", [None, ""])
    def test_empty_required_path_rejected(self, bench_dir, tmp_path, key, value):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        payload["scenes"][1][key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad scene entry: {key}")):
            load_manifest(path)

    @pytest.mark.parametrize("dataset_id", [7, 2.5, False, None, {"id": "x"}])
    def test_non_string_dataset_id_rejected(self, bench_dir, tmp_path, dataset_id):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        payload["dataset_id"] = dataset_id
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: bad manifest: dataset_id must be a string, got {dataset_id!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    def test_missing_dataset_id_is_the_file_stem(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        del payload["dataset_id"]
        path = tmp_path / "night-run.json"
        path.write_text(json.dumps(payload))
        assert load_manifest(path).dataset_id == "night-run"


@pytest.mark.parametrize(
    "read, prefix",
    [
        (dio.read_annotations, "bad annotation file: annotation file"),
        (dio.read_scene_config, "bad scene config: scene config"),
        (load_manifest, "bad manifest: manifest"),
        (lambda path: bench_generate(path, path.parent / "out"),
         "bad benchmark spec: benchmark spec"),
    ],
    ids=["annotations", "scene-config", "manifest", "benchmark-spec"],
)
def test_json_payload_must_be_an_object(tmp_path, read, prefix):
    path = tmp_path / "payload.json"
    path.write_text("[1, 2]")
    message = f"{path}: {prefix} must be a JSON object, got [1, 2]"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read(path)


def test_manifest_scenes_must_be_a_list(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"scenes": {"a": 1}}))
    message = f"{path}: bad manifest: scenes must be a list, got {{'a': 1}}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


class TestCli:
    def test_version_is_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"digcrowd {digcrowd.__version__}\n"

    def test_bench_gen_and_evaluate_exit_codes(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", count=3)
        out = tmp_path / "bench"
        assert cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)]) == 0
        rc = cli_main(
            [
                "evaluate",
                "--manifest",
                str(out / "manifest.json"),
                "--out-dir",
                str(tmp_path / "r"),
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        assert (tmp_path / "r" / "report.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_evaluate_rejects_workers_below_one(self, bench_dir, tmp_path, capsys, workers):
        _, manifest_path = bench_dir
        argv = ["evaluate", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "r"),
                "--workers", workers]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: workers must be an integer >= 1, got {workers}\n"
        assert not (tmp_path / "r").exists()

    def test_evaluate_nonzero_exit_on_failed_scene(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", count=2)
        out = tmp_path / "bench"
        cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)])
        # corrupt one density file header
        victim = next(out.rglob("density.digf"))
        victim.write_bytes(b"DIGX" + victim.read_bytes()[4:])
        rc = cli_main(
            [
                "evaluate",
                "--manifest",
                str(out / "manifest.json"),
                "--out-dir",
                str(tmp_path / "r"),
            ]
        )
        assert rc == 1
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["n_failed"] == 1

    def test_evaluate_fails_scenes_without_ground_truth_or_near_input(self, bench_dir, tmp_path,
                                                                      capsys):
        _, manifest_path = bench_dir
        payload = json.loads(manifest_path.read_text())
        del payload["scenes"][1]["annotations"]
        del payload["scenes"][2]["predictions"]["detections"]
        manifest_path.write_text(json.dumps(payload))
        argv = ["evaluate", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "r")]
        assert cli_main(argv) == 1
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert [s["status"] for s in report["scenes"]] == ["ok", "failed", "failed", "ok"]
        assert report["scenes"][1]["error"] == "ground truth absent (no annotations file)"
        assert (report["scenes"][2]["error"]
                == "near predictions absent (no detections or tensor file)")
        assert (report["n_succeeded"], report["n_failed"]) == (2, 2)
        assert report["mae"] < 1e-4

    def test_count_single_scene(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json", count=1)
        out = tmp_path / "bench"
        cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)])
        scene = out / "scene-0000"
        rc = cli_main(
            [
                "count",
                "--depth",
                str(scene / "depth.digd"),
                "--config",
                str(scene / "config.json"),
                "--detections",
                str(scene / "detections.txt"),
                "--density",
                str(scene / "density.digf"),
                "--annotations",
                str(scene / "annotations.json"),
            ]
        )
        assert rc == 0
        payload = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["total"] == pytest.approx(payload["ground_truth"], abs=1e-4)
        run_dataset(load_manifest(out / "manifest.json"), out_dir=tmp_path / "r")
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload == report["scenes"][0]

    def _count_args(self, tmp_path, omit):
        spec = _write_spec(tmp_path / "spec.json", count=1)
        out = tmp_path / "bench"
        cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)])
        scene = out / "scene-0000"
        files = {
            "--depth": "depth.digd",
            "--config": "config.json",
            "--detections": "detections.txt",
            "--density": "density.digf",
            "--annotations": "annotations.json",
        }
        args = ["count"]
        for flag, name in files.items():
            if flag != omit:
                args += [flag, str(scene / name)]
        return args

    def test_count_without_density_fails(self, tmp_path, capsys):
        args = self._count_args(tmp_path, omit="--density")
        capsys.readouterr()
        rc = cli_main(args)
        assert rc == 2
        captured = capsys.readouterr()
        assert "far predictions absent" in captured.err
        assert captured.out == ""

    def test_count_without_near_input_fails(self, tmp_path, capsys):
        args = self._count_args(tmp_path, omit="--detections")
        capsys.readouterr()
        assert cli_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: near predictions absent (no detections or tensor file)\n"

    def test_count_without_annotations_has_null_ground_truth(self, tmp_path, capsys):
        rc = cli_main(self._count_args(tmp_path, omit="--annotations"))
        assert rc == 0
        payload = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["ground_truth"] is None and payload["abs_error"] is None
        assert payload["scene_id"] == "scene-0000" and payload["status"] == "ok"
        assert payload["far_count"] > 0.0

    def test_render_debug_reads_each_density_once(self, tmp_path, monkeypatch):
        spec = _write_spec(tmp_path / "spec.json", count=2)
        out = tmp_path / "bench"
        cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)])
        reads = []
        original = dio.read_density_field

        def counting(path):
            reads.append(Path(path))
            return original(path)

        monkeypatch.setattr(dio, "read_density_field", counting)
        rc = cli_main(
            [
                "evaluate",
                "--manifest",
                str(out / "manifest.json"),
                "--out-dir",
                str(tmp_path / "r"),
                "--render-debug",
            ]
        )
        assert rc == 0
        assert sorted(reads) == sorted(out.rglob("density.digf"))
        assert len(list((tmp_path / "r" / "debug").glob("*_density.pgm"))) == 2

    def test_partition_subcommand(self, tmp_path, capsys):
        from digcrowd import GridShape, SceneConfig, generate_step_depth, partition
        from digcrowd.io import write_depth_digd, write_scene_config

        depth = generate_step_depth(GridShape(120, 90), boundary_row=36, seed=4)
        write_depth_digd(tmp_path / "d.digd", depth)
        write_scene_config(tmp_path / "cfg.json", SceneConfig("auto-scene"))
        rc = cli_main(
            [
                "partition",
                "--depth",
                str(tmp_path / "d.digd"),
                "--config",
                str(tmp_path / "cfg.json"),
                "--out-dir",
                str(tmp_path / "p"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "p" / "auto-scene_partition.json").exists()
        assert (tmp_path / "p" / "auto-scene_mask.pgm").exists()
        assert (tmp_path / "p" / "auto-scene_clusters.pgm").exists()
        printed = json.loads(capsys.readouterr().out)
        want = partition(dio.read_depth(tmp_path / "d.digd"), SceneConfig("auto-scene"))
        assert printed["partition_iterations"] == len(want.energy_history) - 1 > 0
        assert printed["partition_clusters"] == want.cluster_mean_depths.size
        assert printed["partition_stop"] == want.stop_reason
        assert Polyline(printed["polyline"]) == want.polyline
        assert printed["threshold_used"] == want.threshold_used
        assert (printed["far_pixels"], printed["near_pixels"]) == (
            want.mask.far_count, want.mask.near_count)
        written = (tmp_path / "p" / "auto-scene_partition.json").read_text()
        assert json.loads(written) == printed

    def test_partition_subcommand_prints_the_split_evaluate_uses(self, bench_dir, tmp_path, capsys):
        out, manifest_path = bench_dir
        auto, manual = load_manifest(manifest_path).entries[:2]
        cfg = json.loads(auto.config.read_text())
        cfg["polyline"] = None
        auto.config.write_text(json.dumps(cfg))
        run_dataset(Manifest("two", (auto, manual)), PipelineParams(), tmp_path / "r")
        scenes = json.loads((tmp_path / "r" / "report.json").read_text())["scenes"]
        assert scenes[0]["partition_iterations"] > 0 and scenes[1]["partition_iterations"] is None
        for entry, scene in zip((auto, manual), scenes):
            argv = ["partition", "--depth", str(entry.depth), "--config", str(entry.config)]
            assert cli_main(argv + ["--out-dir", str(tmp_path / "p")]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert scene["status"] == "ok"
            assert list(printed) == ["scene_id", "threshold_used", "polyline", "warnings",
                                     "partition_iterations", "partition_energy",
                                     "partition_clusters", "partition_stop", "far_pixels",
                                     "near_pixels"]
            assert printed == {key: scene[key] for key in printed}

    def test_partition_subcommand_on_a_manual_split(self, bench_dir, tmp_path, capsys):
        out, _ = bench_dir
        scene = out / "scene-0000"
        argv = ["partition", "--depth", str(scene / "depth.digd"), "--config",
                str(scene / "config.json"), "--out-dir", str(tmp_path / "p")]
        assert cli_main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        for key in ("threshold_used", "partition_iterations", "partition_energy",
                    "partition_clusters", "partition_stop"):
            assert printed[key] is None, key
        manual = dio.read_scene_config(scene / "config.json").polyline
        assert Polyline(printed["polyline"]) == manual

    def test_partition_subcommand_has_no_clustering_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["partition", "--help"])
        usage = capsys.readouterr().out
        for flag in ("--clusters", "--compactness", "--max-iters", "--simplify-tol",
                     "--render-debug"):
            assert flag not in usage

    def test_partition_subcommand_refuses_render_debug(self, tmp_path, capsys):
        argv = ["partition", "--depth", "d", "--config", "c", "--out-dir", str(tmp_path),
                "--render-debug"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --render-debug" in capsys.readouterr().err

    def test_partition_writes_the_split_rasters_evaluate_renders(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        entry = load_manifest(manifest_path).entries[0]
        cfg = json.loads(entry.config.read_text())
        cfg["polyline"] = None
        entry.config.write_text(json.dumps(cfg))
        report = run_dataset(Manifest("one", (entry,)), PipelineParams(render_debug=True),
                             tmp_path / "r")
        assert report.n_succeeded == 1
        argv = ["partition", "--depth", str(entry.depth), "--config", str(entry.config),
                "--out-dir", str(tmp_path / "p")]
        assert cli_main(argv) == 0
        for suffix in ("_mask.pgm", "_clusters.pgm"):
            name = f"{entry.scene_id}{suffix}"
            rendered = (tmp_path / "r" / "debug" / name).read_bytes()
            assert (tmp_path / "p" / name).read_bytes() == rendered

    def test_render_subcommand(self, tmp_path, bench_dir):
        out, _ = bench_dir
        field = next(out.rglob("density.digf"))
        rc = cli_main(
            ["render", "--input", str(field), "--output", str(tmp_path / "h.pgm")]
        )
        assert rc == 0
        assert (tmp_path / "h.pgm").read_bytes().startswith(b"P5")

    @pytest.mark.parametrize("writer", [dio.write_depth_digd, dio.write_depth_pgm16])
    def test_render_depth_file(self, tmp_path, writer):
        values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        writer(tmp_path / "depth", DepthMap(GridShape(4, 3), values))
        argv = ["render", "--input", str(tmp_path / "depth"), "--output", str(tmp_path / "h.pgm")]
        assert cli_main(argv) == 0
        want = np.round(values * 255.0).astype(np.uint8)
        assert (tmp_path / "h.pgm").read_bytes() == b"P5\n4 3\n255\n" + want.tobytes()

    def test_render_logs_density_clamp_once(self, tmp_path, bench_dir, caplog):
        out, _ = bench_dir
        field = next(out.rglob("density.digf"))
        _put_negative_density(field)
        argv = ["render", "--input", str(field), "--output", str(tmp_path / "h.pgm")]
        with caplog.at_level(logging.WARNING, logger="digcrowd"):
            assert cli_main(argv) == 0
        logged = [r.getMessage() for r in caplog.records]
        assert logged == [f"{field}: clamped 1 negative density values to 0"]

    @pytest.mark.parametrize("command", ["partition", "render", "evaluate"])
    def test_missing_input_file_is_one_error_line(self, bench_dir, tmp_path, capsys, command):
        out, _ = bench_dir
        missing = tmp_path / "missing.bin"
        argv = {
            "partition": ["partition", "--depth", str(missing), "--config",
                          str(out / "scene-0000" / "config.json"), "--out-dir", str(tmp_path / "p")],
            "render": ["render", "--input", str(missing), "--output", str(tmp_path / "h.pgm")],
            "evaluate": ["evaluate", "--manifest", str(missing), "--out-dir", str(tmp_path / "r")],
        }[command]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(missing) in captured.err and "Traceback" not in captured.err

    def test_manifest_not_utf8_is_one_error_line(self, bench_dir, tmp_path, capsys):
        _, manifest_path = bench_dir
        manifest_path.write_bytes(manifest_path.read_bytes().replace(b"scene-0001", b"sc\xe8ne"))
        argv = ["evaluate", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "r")]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {manifest_path}: bad manifest: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("manifest", [{"scene_id": "a"}]),
            ("manifest", {"scenes": [
                {"scene_id": "a", "depth": "d", "config": "c", "predictions": "x"}]}),
            ("manifest", {"scenes": None}),
            ("spec", [{"count": 1}]),
            ("spec", {"noise": {"p_mis": 0.1}}),
            ("spec", {"count": "x"}),
        ],
        ids=["manifest-list", "manifest-predictions-str", "manifest-scenes-null",
             "spec-list", "spec-noise-key", "spec-count-str"],
    )
    def test_malformed_json_is_a_format_error(self, tmp_path, capsys, kind, payload):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(payload))
        if kind == "manifest":
            def call():
                return load_manifest(path)
            argv = ["evaluate", "--manifest", str(path), "--out-dir", str(tmp_path / "r")]
        else:
            def call():
                return bench_generate(path, tmp_path / "out")
            argv = ["bench-gen", "--spec", str(path), "--out-dir", str(tmp_path / "out")]
        with pytest.raises(FormatError, match=re.escape(str(path))):
            call()
        capsys.readouterr()
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: bad ")

    def test_evaluate_runs_in_a_fresh_interpreter(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", count=1, n_people=25)
        out = tmp_path / "bench"
        cli_main(["bench-gen", "--spec", str(spec), "--out-dir", str(out)])
        # the child imports digcrowd from wherever this process found it
        src = str(Path(digcrowd.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "digcrowd.cli",
                "evaluate",
                "--manifest",
                str(out / "manifest.json"),
                "--out-dir",
                str(tmp_path / "r"),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert summary["mae"] < 1e-4


class TestWarnings:
    """Stages return their warnings; the pipeline logs each once, naming the scene."""

    @staticmethod
    def _noisy_entry(entry, tmp_path):
        """``entry`` as scene "cam-b", with clamped tensor values and a negative density."""
        spec = DetectorGridSpec(s=4, b=1, c=1)
        values = np.zeros((4, 4, spec.cell_values))
        values[3, 1] = (0.5, 0.5, 0.05, 0.05, 1.5, 1.0)  # confidence above 1
        values[0, 0, 0] = -0.5
        tensor = tmp_path / "cam-b.digy"
        dio.write_prediction_tensor(tensor, GridPrediction(spec, GridShape(320, 240), values))
        _put_negative_density(entry.density)
        return dataclasses.replace(entry, scene_id="cam-b", detections=None, tensor=tensor)

    def test_each_warning_logged_once_and_reported(self, tmp_path, caplog):
        spec = _write_spec(tmp_path / "spec.json", count=2)
        manifest = load_manifest(bench_generate(spec, tmp_path / "bench")[0])
        noisy = self._noisy_entry(manifest.entries[1], tmp_path)
        manifest = Manifest(manifest.dataset_id, (manifest.entries[0], noisy))
        with caplog.at_level(logging.WARNING, logger="digcrowd"):
            report = run_dataset(manifest, PipelineParams(), tmp_path / "r")
        assert report.n_succeeded == 2
        scenes = json.loads((tmp_path / "r" / "report.json").read_text())["scenes"]
        assert scenes[0]["warnings"] == []
        assert scenes[1]["warnings"] == [
            "2 tensor values clamped to [0, 1]",
            f"{noisy.density}: clamped 1 negative density values to 0",
        ]
        logged = [r.getMessage() for r in caplog.records]
        assert logged == [f"scene cam-b: {msg}" for msg in scenes[1]["warnings"]]

    def test_warnings_of_a_failed_scene_are_logged(self, bench_dir, tmp_path, caplog):
        _, manifest_path = bench_dir
        entry = self._noisy_entry(load_manifest(manifest_path).entries[1], tmp_path)
        with caplog.at_level(logging.WARNING, logger="digcrowd"):
            outcome = run_scene(dataclasses.replace(entry, density=None), PipelineParams())
        assert outcome.status == "failed"
        assert outcome.warnings == ("2 tensor values clamped to [0, 1]",)
        assert [r.getMessage() for r in caplog.records] == [
            "scene cam-b: 2 tensor values clamped to [0, 1]",
            "scene cam-b failed: far predictions absent (no density file)",
        ]

    def test_only_cli_and_pipeline_log(self):
        src = Path(digcrowd.__file__).parent
        logging_modules = {
            p.name for p in src.glob("*.py") if re.search(r"import logging|getLogger", p.read_text())
        }
        assert logging_modules == {"cli.py", "pipeline.py"}


class TestDiagnostics:
    def test_manual_polyline_echoed_in_report(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        outcome = run_scene(manifest.entries[0], PipelineParams())
        assert outcome.ok
        # synthetic configs carry a manual flat split line; it must be echoed
        assert outcome.polyline is not None
        assert outcome.polyline.segments.shape == (1, 4)
        assert outcome.polyline.segments[0, 2] == 0.0  # flat: k == 0
        run_dataset(manifest, PipelineParams(), tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["scenes"][0]["polyline"] is not None

    def test_partition_diagnostics_in_report(self, bench_dir, tmp_path):
        from digcrowd import SceneConfig, partition

        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        auto = manifest.entries[1]
        cfg = json.loads(auto.config.read_text())
        cfg["polyline"] = None
        auto.config.write_text(json.dumps(cfg))
        run_dataset(manifest, PipelineParams(), tmp_path / "r")
        scenes = json.loads((tmp_path / "r" / "report.json").read_text())["scenes"]
        want = partition(dio.read_depth(auto.depth), SceneConfig(auto.scene_id))
        assert scenes[1]["partition_iterations"] == len(want.energy_history) - 1
        assert scenes[1]["partition_energy"] == want.energy_history[-1]
        assert scenes[1]["partition_clusters"] == want.cluster_mean_depths.size > 1
        assert scenes[1]["partition_stop"] == want.stop_reason
        assert scenes[1]["partition_stop"] in ("residual", "energy", "cap")
        for manual in (scenes[0], scenes[2], scenes[3]):
            for key in ("iterations", "energy", "clusters", "stop"):
                assert manual[f"partition_{key}"] is None
        header = (tmp_path / "r" / "report.csv").read_text().splitlines()[0]
        assert header == "scene_id,near_count,far_count,total,ground_truth,abs_error"
