#!/usr/bin/env python3
"""Append a parent/change perfbench comparison to ``BENCH_evaluate.json``.

    python3 tools/bench_record.py --workload manual_text --seed 1 \\
        --parent-commit eb41b44 --change-commit 1a2b3c4 \\
        --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Each file is the saved output of one untraced ``perfbench/run.py`` run; its
last line is the JSON result line. The i-th parent and the i-th change run
form a pair, run back to back with alternating order. One record per side
is appended: commit, workload, seed, ``scenes_per_s`` as median [q1, q3],
the medians of ``scene_ms_p50`` and ``peak_rss_mb``, and the pairs in
which that side had the higher ``scenes_per_s``. A run that was not
``correct`` is refused, so a broken run never enters the trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_evaluate.json"


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
                for name in ("scenes_per_s", "scene_ms_p50", "peak_rss_mb")}
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc} in the result line (a traced run?)") from exc


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; a single run is its own median and quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def records(workload: str, seed: int, parent: tuple[str, list[dict]],
            change: tuple[str, list[dict]]) -> list[dict]:
    """The parent and the change record; each side is (commit, runs in pair order)."""
    if len(parent[1]) != len(change[1]):
        raise ValueError(f"{len(parent[1])} parent runs but {len(change[1])} change runs")
    pairs = [(p["scenes_per_s"], c["scenes_per_s"]) for p, c in zip(parent[1], change[1])]
    won = {"parent": sum(p > c for p, c in pairs), "change": sum(c > p for p, c in pairs)}
    return [
        {
            "commit": commit,
            "side": side,
            "workload": workload,
            "seed": seed,
            "runs": len(runs),
            "scenes_per_s": quartiles([r["scenes_per_s"] for r in runs]),
            "scene_ms_p50": statistics.median(r["scene_ms_p50"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pairs_won": won[side],
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
              f"[{rate['q1']:.2f}, {rate['q3']:.2f}] scenes/s, "
              f"{rec['pairs_won']} of {rec['runs']} pairs won")
    return 0


if __name__ == "__main__":
    sys.exit(main())
