import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(path, rate, p50=5.0, rss=100.0, correct=True):
    metrics = {"scenes_per_s": rate, "scene_ms_p50": p50, "peak_rss_mb": rss, "mae": 1.0}
    path.write_text("workload ...\nscenes_per_s 1.0 1/s\n" + json.dumps({
        "correct": correct, "attempted": 48, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    }) + "\n")
    return str(path)


def test_appends_one_record_per_side(tmp_path):
    parent = [_run(tmp_path / f"p{i}", r, p50=7.0) for i, r in enumerate([100, 110, 120, 90])]
    change = [_run(tmp_path / f"c{i}", r, rss=99.0) for i, r in enumerate([150, 105, 160, 90])]
    out = tmp_path / "BENCH_evaluate.json"
    out.write_text(json.dumps([{"earlier": True}]))
    argv = ["--workload", "manual_text", "--seed", "1", "--parent-commit", "aaa",
            "--change-commit", "bbb", "--out", str(out), "--parent", *parent, "--change", *change]
    assert bench_record.main(argv) == 0
    earlier, p, c = json.loads(out.read_text())
    assert earlier == {"earlier": True}
    assert (p["commit"], p["side"], p["workload"], p["seed"], p["runs"]) == (
        "aaa", "parent", "manual_text", 1, 4)
    assert p["scenes_per_s"] == {"median": 105.0, "q1": 97.5, "q3": 112.5}
    assert (p["scene_ms_p50"], p["peak_rss_mb"], p["pairs_won"]) == (7.0, 100.0, 1)
    assert c["scenes_per_s"]["median"] == 127.5
    assert (c["commit"], c["scene_ms_p50"], c["peak_rss_mb"], c["pairs_won"]) == (
        "bbb", 5.0, 99.0, 2)  # the tied fourth pair counts for neither side


@pytest.mark.parametrize("bad", ["incorrect", "unpaired"])
def test_refuses_incorrect_or_unpaired_runs(tmp_path, capsys, bad):
    parent = [_run(tmp_path / "p0", 100.0, correct=bad != "incorrect")]
    change = [_run(tmp_path / f"c{i}", 120.0) for i in range(1 if bad == "incorrect" else 2)]
    out = tmp_path / "BENCH_evaluate.json"
    argv = ["--workload", "w", "--seed", "1", "--parent-commit", "a", "--change-commit", "b",
            "--out", str(out), "--parent", *parent, "--change", *change]
    assert bench_record.main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("bench_record.py: ")
