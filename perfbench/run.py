#!/usr/bin/env python3
"""digcrowd benchmark: the ``evaluate`` path on three seeded workloads.

    python3 perfbench/run.py --workload manual_text --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One run:

1. generates the workload's inputs from ``--seed`` with
   ``pipeline.bench_generate`` (timed: ``gen_scenes_per_s``) plus
   benchmark-side shaping (``inputs.py``), and derives the expected outputs
   from the generated files;
2. with ``--trace 0``, times ``import digcrowd`` + ``load_manifest`` in
   fresh interpreters (``setup_s``, median of several);
3. starts ``worker.py`` in a fresh interpreter, which runs passes of
   ``load_manifest`` -> ``run_dataset(out_dir=...)`` for ``--seconds`` and
   checks every pass's ``report.json``;
4. generates the inputs a second time (timed too) and checks that the
   files match the first generation byte for byte;
5. prints every metric with its unit, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones
   with ``--trace 1``.

It exits 1 when an output check fails and 2 when run outside a checkout.
Working files go to ``.bench_work/`` in the checkout; the generated inputs
are deleted at the end of the run, spans and reports are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # fresh interpreters timed for setup_s, besides the worker
WORKER_TIMEOUT_S = 150
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from digcrowd import pipeline\n"
    "pipeline.load_manifest(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)
# Where each workload should spend its time; checked against the trace.
EXPECTATIONS = {
    "manual_text": (
        "io readers are the largest layer",
        lambda layers, modules: max(modules, key=modules.get) == "io"),
    "near_tensor": (
        "detect.decode + detect.nms take most of the scene time",
        lambda layers, modules: layers["detect.decode.ms"] + layers["detect.nms.ms"]
        > layers["pipeline.run_scene.ms"] / 2),
    "auto_depth": (
        "partition.cluster_depth takes most of the scene time",
        lambda layers, modules: layers["partition.cluster_depth.ms"]
        > layers["pipeline.run_scene.ms"] / 2),
}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    Below 21 samples no percentile above the median qualifies; the median
    is returned then.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_child(cmd: list[str], root: Path, env: dict) -> str:
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def print_layers(workload: str, layers: dict[str, float]) -> None:
    from spans import SELF_MS

    scene_ms = layers["pipeline.run_scene.ms"]
    print(f"per-scene self time, median over traced scenes (scene {scene_ms:.3f} ms):")
    modules: dict[str, float] = {}
    for value, name in sorted(((layers[k], k) for k in SELF_MS), reverse=True):
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + value
        print(f"  {name:<44} {value:10.4f} ms {100.0 * value / scene_ms:6.1f}%")
    print("per-module self time per scene: " + ", ".join(
        f"{m} {v:.3f} ms" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])))
    text, holds = EXPECTATIONS[workload]
    checks = [(text, holds(layers, modules)),
              ("pipeline.run_scene.self_ms under 10% of scene time",
               layers["pipeline.run_scene.self_ms"] < 0.1 * scene_ms)]
    for text, ok in checks:
        print(f"expectation: {text}: {'holds' if ok else 'DOES NOT HOLD'}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS, generate, inputs_sha256, regenerate

    recorded = json.loads((HERE / "inputs.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=recorded["default_seed"])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "digcrowd" / "__init__.py").is_file():
        print(f"run.py: {src}/digcrowd not found; run from the root of a digcrowd checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from spans import Tracer, by_trace

    bench = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))

    tracer = Tracer()
    try:
        if args.trace:
            tracer.install()
        try:
            manifest, gen_rates, expected = generate(workload, args.seed, work)
        finally:
            tracer.uninstall()
        sha = inputs_sha256(manifest.parent)
        (work / "expected.json").write_text(json.dumps(expected))

        probes = []
        if not args.trace:
            probes = [float(run_child([sys.executable, "-c", PROBE, str(manifest)], root, env))
                      for _ in range(SETUP_PROBES)]
        line = run_child(
            [sys.executable, str(HERE / "worker.py"), str(manifest), str(work / "report"),
             str(args.seconds), str(args.trace),
             str(work / "expected.json"), str(work / "spans.jsonl")], root, env)
        # A second generation after the evaluation: its rate samples another
        # moment of a shared machine, and its files must match the first.
        regen_rates, differ = regenerate(workload, args.seed, work)
    finally:
        shutil.rmtree(work / "data", ignore_errors=True)  # ~6 MB per scene
    (work / "worker.json").write_text(line)
    out = json.loads(line)
    problems = out["problems"] + [f"{path}: regenerated file differs" for path in differ]
    failed = out["failed"] + len({path.split("/")[0] for path in differ})

    n_scenes = len(expected)
    print(f"workload {workload.name}: {n_scenes} scenes of 1080x720, 1 worker, seed {args.seed}, "
          f"{len(out['passes'])} passes, {out['attempted']} scene runs")
    known = recorded["sha256"].get(workload.name, {}).get(str(args.seed))
    match = "no recorded hash" if known is None else (
        "matches recorded" if known == sha else "DIFFERS from recorded")
    print(f"inputs sha256 {sha} ({match}; default seed {recorded['default_seed']}, "
          f"held-out seed {recorded['held_out_seed']}); second generation "
          f"{'byte-identical' if not differ else f'differs in {len(differ)} files'}")
    if workload.tensor:
        dropped = sum(e["dropped_sources"] for e in expected.values())
        print(f"tensor: {sum(e['candidates'] for e in expected.values())} candidates, "
              f"{sum(e['boxes'] for e in expected.values())} planted boxes kept, "
              f"{dropped} dropped at encoding")

    if args.trace:
        gen_rows = [r for r in by_trace(tracer.spans).values()
                    if "synth.generate_scene" in r["self"]]
        values = dict(out["layers"])
        for name in ("synth.generate_scene", "synth.oracle_predictions"):
            values[f"{name}.ms"] = statistics.median(r["self"][name] * 1000.0 for r in gen_rows)
        tracer.write(work / "gen_spans.jsonl")
        print_layers(workload.name, values)
        metrics = bench["per_layer"]
    else:
        # Tail per pass, median over passes: a run-wide p99 would mostly
        # measure interference from other tenants of a shared machine.
        tails = [tail(p["scene_ms"]) for p in out["passes"]]
        values = {
            "scenes_per_s": (sum(p["scenes"] for p in out["passes"])
                             / sum(p["wall"] for p in out["passes"])),
            "scene_ms_p50": statistics.median(t for p in out["passes"] for t in p["scene_ms"]),
            "scene_ms_tail": statistics.median(t for _, t in tails),
            "setup_s": statistics.median([out["setup_s"], *probes]),
            "gen_scenes_per_s": statistics.median(gen_rates + regen_rates),
            "peak_rss_mb": out["peak_rss_mb"],
            "mae": out["mae"],
            "mse": out["mse"],
            "ok_frac": 1.0 - failed / out["attempted"],
        }
        print(f"scene_ms_tail is p{tails[0][0]:.1f} of each {n_scenes}-scene pass,"
              f" median over {len(tails)} passes")
        metrics = bench["end_to_end"]
    for m in metrics:
        print(f"{m['name']:<48} {values[m['name']]:14.6f} {m['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
