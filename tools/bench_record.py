#!/usr/bin/env python3
"""Append a parent/change perfbench comparison to ``BENCH_evaluate.json``.

    python3 tools/bench_record.py --workload manual_text --seed 1 \\
        --parent-commit eb41b44 --change-commit 1a2b3c4 \\
        --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Each file is the saved output of one untraced ``perfbench/run.py`` run; its
last line is the JSON result line. The i-th parent and the i-th change run
form a pair, run back to back with alternating order. One record per side
is appended: commit, workload, seed, ``scenes_per_s`` as median [q1, q3],
the medians of the other eight end-to-end metrics (``scene_ms_p50``,
``scene_ms_tail``, ``setup_s``, ``gen_scenes_per_s``, ``peak_rss_mb``,
``mae``, ``mse`` and ``ok_frac``), and the pairs in which that side had the
higher ``scenes_per_s`` (``pairs_won``) and the higher ``gen_scenes_per_s``
(``gen_pairs_won``).
A run that was not ``correct`` is refused, so a broken run never enters the
trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_evaluate.json"
# recorded as the median of the runs
MEDIANS = ("scene_ms_p50", "scene_ms_tail", "setup_s", "gen_scenes_per_s", "peak_rss_mb",
           "mae", "mse", "ok_frac")


def result_line(path: Path) -> dict:
    """The metrics of one run, from the JSON object on its last non-empty line."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"{path}: run is not correct ({result.get('failed')} failed)")
    try:
        return {name: result["metrics"][name]["value"]
                for name in ("scenes_per_s", *MEDIANS)}
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} in the result line (a traced run?)") from exc


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; a single run is its own median and quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _pairs_won(parent: list[dict], change: list[dict], name: str) -> dict[str, int]:
    """Per side, the pairs in which it had the higher ``name``; a tie counts for neither."""
    pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
    return {"parent": sum(p > c for p, c in pairs), "change": sum(c > p for p, c in pairs)}


def records(workload: str, seed: int, parent: tuple[str, list[dict]],
            change: tuple[str, list[dict]]) -> list[dict]:
    """The parent and the change record; each side is (commit, runs in pair order)."""
    if len(parent[1]) != len(change[1]):
        raise ValueError(f"{len(parent[1])} parent runs but {len(change[1])} change runs")
    won = {name: _pairs_won(parent[1], change[1], name)
           for name in ("scenes_per_s", "gen_scenes_per_s")}
    return [
        {
            "commit": commit,
            "side": side,
            "workload": workload,
            "seed": seed,
            "runs": len(runs),
            "scenes_per_s": quartiles([r["scenes_per_s"] for r in runs]),
            **{name: statistics.median(r[name] for r in runs) for name in MEDIANS},
            "pairs_won": won["scenes_per_s"][side],
            "gen_pairs_won": won["gen_scenes_per_s"][side],
        }
        for side, (commit, runs) in (("parent", parent), ("change", change))
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    try:
        new = records(args.workload, args.seed,
                      (args.parent_commit, [result_line(p) for p in args.parent]),
                      (args.change_commit, [result_line(p) for p in args.change]))
        trajectory = json.loads(args.out.read_text()) if args.out.exists() else []
        if not isinstance(trajectory, list):
            raise ValueError(f"{args.out}: expected a JSON list")
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"bench_record.py: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(trajectory + new, indent=1) + "\n")
    for rec in new:
        rate = rec["scenes_per_s"]
        print(f"{rec['side']} {rec['commit']}: {rate['median']:.2f} "
              f"[{rate['q1']:.2f}, {rate['q3']:.2f}] scenes/s, setup {rec['setup_s']:.3f} s, "
              f"MAE {rec['mae']:.4g}, MSE {rec['mse']:.4g}, "
              f"{rec['pairs_won']} of {rec['runs']} pairs won, "
              f"gen {rec['gen_scenes_per_s']:.2f} scenes/s, {rec['gen_pairs_won']} won")
    return 0


if __name__ == "__main__":
    sys.exit(main())
