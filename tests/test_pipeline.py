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
    load_manifest,
    run_dataset,
    run_scene,
)
from digcrowd import io as dio
from digcrowd.cli import main as cli_main
from digcrowd.pipeline import Manifest, PipelineParams, bench_generate


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
            ({"scenes": [{"seed": 1, "n_people": "x"}]}, "'<' not supported"),
            ({"defaults": {"shape": "ab"}, "count": 1}, "invalid literal for int()"),
            ({"defaults": {"shape": []}, "count": 1}, "not enough values to unpack"),
            ({"scenes": [{"seed": "x"}]}, "seed must be an integer >= 0, got 'x'"),
            ({"scenes": [{"seed": 1.5}]}, "seed must be an integer >= 0, got 1.5"),
            ({"scenes": [{"seed": 1, "n_people": 2.5}]},
             "n_people must be an integer >= 1, got 2.5"),
            ({"scenes": [{"seed": 1, "n_people": True}]},
             "n_people must be an integer >= 1, got True"),
            ({"defaults": {"shape": [160.9, 120], "n_people": 10, "horizon_y": 100.0},
              "count": 1}, "shape values must be integers, got [160.9, 120]"),
            ({"defaults": {"shape": [float("inf"), 120]}, "count": 1},
             "cannot convert float infinity to integer"),
        ],
        ids=["override-type", "default-value", "shape-empty", "seed-str", "seed-float",
             "n_people-float", "n_people-bool", "shape-float", "shape-inf"],
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
        ],
        ids=["pgm-header", "config-list", "nan-count", "negative-count", "overflowing-count",
             "nan-polyline-k",
             "threshold-out-of-range", "density-nan", "density-inf", "depth-nan",
             "nan-head", "digd-zero-width", "digf-zero-height"],
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
        assert "does not match" in report.outcomes[1].error

    def test_render_debug_accepts_str_out_dir(self, bench_dir, tmp_path):
        out, manifest_path = bench_dir
        manifest = load_manifest(manifest_path)
        report = run_dataset(manifest, PipelineParams(render_debug=True), str(tmp_path / "r"))
        assert report.n_succeeded == len(manifest.entries)
        for entry in manifest.entries:
            for kind in ("mask", "density"):
                assert (tmp_path / "r" / "debug" / f"{entry.scene_id}_{kind}.pgm").exists()

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


class TestCli:
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
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
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
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["total"] == pytest.approx(payload["ground_truth"], abs=1e-4)

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

    def test_count_without_annotations_has_null_ground_truth(self, tmp_path, capsys):
        rc = cli_main(self._count_args(tmp_path, omit="--annotations"))
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["ground_truth"] is None
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
                "--render-debug",
            ]
        )
        assert rc == 0
        assert (tmp_path / "p" / "auto-scene_partition.json").exists()
        assert (tmp_path / "p" / "auto-scene_mask.pgm").exists()
        assert (tmp_path / "p" / "auto-scene_clusters.pgm").exists()
        printed = json.loads(capsys.readouterr().out)
        want = partition(dio.read_depth(tmp_path / "d.digd"), SceneConfig("auto-scene"))
        assert printed["iterations"] == len(want.energy_history) - 1 > 0
        assert printed["partition_clusters"] == want.cluster_mean_depths.size
        assert printed["partition_stop"] == want.stop_reason
        assert dio.polyline_from_json(printed["polyline"]) == want.polyline
        assert printed["threshold_used"] == want.threshold_used

    def test_partition_subcommand_prints_the_split_evaluate_uses(self, bench_dir, tmp_path, capsys):
        out, manifest_path = bench_dir
        entry = load_manifest(manifest_path).entries[0]
        cfg = json.loads(entry.config.read_text())
        cfg["polyline"] = None
        entry.config.write_text(json.dumps(cfg))
        run_dataset(Manifest("one", (entry,)), PipelineParams(), tmp_path / "r")
        scene = json.loads((tmp_path / "r" / "report.json").read_text())["scenes"][0]
        argv = ["partition", "--depth", str(entry.depth), "--config", str(entry.config)]
        assert cli_main(argv + ["--out-dir", str(tmp_path / "p")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert scene["status"] == "ok" and scene["partition_iterations"] > 0
        assert dio.polyline_from_json(printed["polyline"]).segments.tolist() == scene["polyline"]
        assert printed["threshold_used"] == scene["threshold_used"]
        assert printed["iterations"] == scene["partition_iterations"]

    def test_partition_subcommand_has_no_clustering_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["partition", "--help"])
        usage = capsys.readouterr().out
        for flag in ("--clusters", "--compactness", "--max-iters", "--simplify-tol"):
            assert flag not in usage

    def test_render_subcommand(self, tmp_path, bench_dir):
        out, _ = bench_dir
        field = next(out.rglob("density.digf"))
        rc = cli_main(
            ["render", "--input", str(field), "--output", str(tmp_path / "h.pgm")]
        )
        assert rc == 0
        assert (tmp_path / "h.pgm").read_bytes().startswith(b"P5")

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

    def test_numpy_fallback_subprocess(self, tmp_path):
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
