import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(path, rate, p50=5.0, setup=0.5, rss=100.0, mae=1.0, mse=2.0, correct=True,
         tail=6.0, gen=20.0, ok=1.0):
    metrics = {"scenes_per_s": rate, "scene_ms_p50": p50, "scene_ms_tail": tail,
               "setup_s": setup, "gen_scenes_per_s": gen, "peak_rss_mb": rss,
               "mae": mae, "mse": mse, "ok_frac": ok}
    path.write_text("workload ...\nscenes_per_s 1.0 1/s\n" + json.dumps({
        "correct": correct, "attempted": 48, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    }) + "\n")
    return str(path)


def test_appends_one_record_per_side(tmp_path):
    parent = [_run(tmp_path / f"p{i}", r, p50=7.0, mae=m, tail=t, ok=ok)
              for i, (r, m, t, ok) in enumerate(zip([100, 110, 120, 90], [3.0, 1.0, 4.0, 2.0],
                                                    [8.0, 9.0, 7.0, 10.0], [1.0, 1.0, 0.5, 1.0]))]
    change = [_run(tmp_path / f"c{i}", r, setup=s, rss=99.0, mse=1.5, gen=g)
              for i, (r, s, g) in enumerate(zip([150, 105, 160, 90], [0.2, 0.3, 0.1, 0.9],
                                                [18.0, 22.0, 30.0, 10.0]))]
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
    assert (p["scene_ms_p50"], p["setup_s"], p["peak_rss_mb"], p["pairs_won"]) == (
        7.0, 0.5, 100.0, 1)
    assert (p["mae"], p["mse"]) == (2.5, 2.0)  # the median of four runs
    assert (p["scene_ms_tail"], p["gen_scenes_per_s"], p["ok_frac"]) == (8.5, 20.0, 1.0)
    assert p["gen_pairs_won"] == 2  # 20 > 18 and 20 > 10; 20 < 22 and 20 < 30
    assert c["scenes_per_s"]["median"] == 127.5
    assert (c["commit"], c["scene_ms_p50"], c["peak_rss_mb"], c["pairs_won"]) == (
        "bbb", 5.0, 99.0, 2)  # the tied fourth pair counts for neither side
    assert c["setup_s"] == 0.25  # the median of four runs
    assert (c["mae"], c["mse"]) == (1.0, 1.5)
    assert (c["scene_ms_tail"], c["gen_scenes_per_s"], c["ok_frac"]) == (6.0, 20.0, 1.0)
    assert c["gen_pairs_won"] == 2


def test_gen_pairs_won_counts_ties_for_neither_side(tmp_path):
    parent = [_run(tmp_path / f"p{i}", 100.0, gen=g) for i, g in enumerate([14.0, 15.0, 16.0])]
    change = [_run(tmp_path / f"c{i}", 100.0, gen=g) for i, g in enumerate([21.0, 15.0, 13.0])]
    out = tmp_path / "BENCH_evaluate.json"
    argv = ["--workload", "near_tensor", "--seed", "1", "--parent-commit", "a",
            "--change-commit", "b", "--out", str(out), "--parent", *parent, "--change", *change]
    assert bench_record.main(argv) == 0
    p, c = json.loads(out.read_text())
    assert (p["pairs_won"], c["pairs_won"]) == (0, 0)  # every scenes_per_s pair tied
    assert (p["gen_pairs_won"], c["gen_pairs_won"]) == (1, 1)


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
