#!/usr/bin/env python3
"""The two memory peaks behind perfbench's ``peak_rss_mb``, measured apart.

    python3 tools/peaks.py --workload near_tensor --seed 1 --seconds 5

``perfbench/run.py`` generates a workload's inputs in its own process and
then starts ``worker.py``, whose ``ru_maxrss`` it reports as
``peak_rss_mb``. On Linux a child's ``ru_maxrss`` carries over the
high-water mark of the process that started it, across ``exec`` too, so
that figure can be the generation's peak rather than the evaluator's.
This tool runs each step in its own fresh interpreter:

1. a child loads ``perfbench/inputs.py`` by path, generates the inputs
   with ``inputs.generate`` and prints its own ``ru_maxrss``;
2. a second child runs ``perfbench/worker.py`` on those inputs for
   ``--seconds`` with trace 0 and prints its ``peak_rss_mb``.

The tool itself imports neither numpy nor digcrowd, so neither child
starts from its high-water mark. It prints both peaks in MB, then one JSON
line with ``gen_peak_rss_mb``, ``worker_peak_rss_mb`` and the worker's
``failed`` scene runs. Working files go to ``.bench_work/`` in the checkout
this file belongs to and are deleted at the end, inputs included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CHILD_TIMEOUT_S = 300
# argv: inputs.py path, workload (a WORKLOADS name or Workload fields), seed, work dir
GENERATE = """\
import importlib.util, json, resource, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("inputs", sys.argv[1])
inputs = importlib.util.module_from_spec(spec)
sys.modules["inputs"] = inputs  # dataclasses look their module up there
spec.loader.exec_module(inputs)
workload = json.loads(sys.argv[2])
workload = (inputs.WORKLOADS[workload] if isinstance(workload, str)
            else inputs.Workload(**workload))
work = Path(sys.argv[4])
manifest, _, expected = inputs.generate(workload, int(sys.argv[3]), work)
(work / "expected.json").write_text(json.dumps(expected))
print(json.dumps({"manifest": str(manifest),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def _child(cmd: list[str]) -> dict:
    """The JSON object on the last line a child prints; ``RuntimeError`` if it fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """Both peaks for ``workload``: a ``WORKLOADS`` name or a dict of ``Workload`` fields.

    ``work`` is created and deleted again.
    """
    work.mkdir(parents=True)
    try:
        gen = _child([sys.executable, "-c", GENERATE, str(PERFBENCH / "inputs.py"),
                      json.dumps(workload), str(seed), str(work)])
        worker = _child([sys.executable, str(PERFBENCH / "worker.py"), gen["manifest"],
                         str(work / "report"), str(seconds), "0",
                         str(work / "expected.json"), str(work / "spans.jsonl")])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"gen_peak_rss_mb": gen["peak_rss_mb"],
            "worker_peak_rss_mb": worker["peak_rss_mb"],
            "failed": worker["failed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args(argv)
    work = ROOT / ".bench_work" / f"peaks-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"peaks.py: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: generation peak "
          f"{result['gen_peak_rss_mb']:.1f} MB, worker peak {result['worker_peak_rss_mb']:.1f} MB"
          f" ({result['failed']} failed scene runs)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
