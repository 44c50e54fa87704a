"""One workload in a fresh interpreter: the ``evaluate`` path, timed and checked.

    python3 perfbench/worker.py MANIFEST OUT_DIR SECONDS TRACE EXPECTED SPANS

``run.py`` starts it from a checkout root with ``src`` on ``PYTHONPATH``.
The first thing timed is ``import digcrowd`` plus ``load_manifest``
(set-up). Then passes of ``load_manifest`` -> ``run_dataset(out_dir=...)``,
with the default single worker, repeat until the next pass would end past SECONDS. Every pass's
``report.json`` is checked against EXPECTED. With TRACE 0 the only wrapper
is a timer around ``pipeline.run_scene``. With TRACE 1 passes alternate
untraced and traced; the traced ones record spans for every layer, which
are written to SPANS. Prints one JSON object as its last line.
"""

import sys
import time


def check_report(
    report: dict, expected: dict, far_tol: float, width: int, want
) -> tuple[int, list[str]]:
    """Failed scene count and problems found in one pass's report.json.

    A dataset-level problem fails every scene of the pass.
    """
    problems = []
    if report["n_scenes"] != len(expected):
        problems.append(f"report lists {report['n_scenes']} scenes, expected {len(expected)}")
    if report["mae"] is None:
        problems.append("no scene succeeded, so the report has no mae/mse")
    elif not report["mae"] <= report["mse"]:
        problems.append(f"dataset mae {report['mae']} > mse {report['mse']}")
    elif want is not None and (abs(report["mae"] - want[0]) > far_tol
                               or abs(report["mse"] - want[1]) > far_tol):
        problems.append(f"dataset mae/mse {report['mae']}/{report['mse']} != {want}")
    dataset_failed = bool(problems)
    failed = 0
    for scene in report["scenes"]:
        exp = expected.get(scene["scene_id"])
        bad = []
        if exp is None:
            bad.append("not in the manifest")
        elif scene["status"] != "ok":
            bad.append(f"status {scene['status']}: {scene['error']}")
        elif scene["near_count"] + scene["deleted_count"] != exp["boxes"]:
            bad.append(f"near {scene['near_count']} + deleted {scene['deleted_count']}"
                       f" != {exp['boxes']} boxes after NMS")
        elif exp["near"] is not None:
            if scene["near_count"] != exp["near"]:
                bad.append(f"near {scene['near_count']} != {exp['near']} planted near boxes")
            if abs(scene["far_count"] - exp["far"]) > far_tol:
                bad.append(f"far {scene['far_count']} != {exp['far']} planted far heads")
        else:
            poly = scene["polyline"] or []
            if scene["threshold_used"] is None:
                bad.append("automatic partition left threshold_used unset")
            if not poly or poly[0][0] != 0.0 or poly[-1][1] != width:
                bad.append(f"polyline does not cover [0, {width}]")
        if bad:
            failed += 1
            problems.append(f"{scene['scene_id']}: {'; '.join(bad)}")
    return (report["n_scenes"] if dataset_failed else failed), problems


def scene_timer(run_scene, sink):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_scene(*args, **kwargs)
        finally:
            sink.append((time.perf_counter() - t0) * 1000.0)  # atomic under the GIL
    return timed


def main():
    t0 = time.perf_counter()
    from digcrowd import pipeline  # imports the whole package

    manifest = pipeline.load_manifest(sys.argv[1])
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import statistics
    from pathlib import Path

    from inputs import FAR_TOL, WIDTH, expected_errors
    from spans import Tracer, by_trace, layer_metrics

    manifest_path, out_dir = sys.argv[1], Path(sys.argv[2])
    seconds, trace = float(sys.argv[3]), sys.argv[4] == "1"
    expected = json.loads(Path(sys.argv[5]).read_text())
    want = expected_errors(expected)
    params = pipeline.PipelineParams()

    tracer = Tracer()
    scene_ms: list[float] = []
    passes, scene_rows, pass_rows, problems = [], [], [], []
    attempted = failed = 0
    first_errors = None  # (mae, mse) of the first pass
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        first_scene = len(scene_ms)
        mark = len(tracer.spans)
        original = pipeline.run_scene
        if traced:
            tracer.install()
        else:
            pipeline.run_scene = scene_timer(original, scene_ms)
        try:
            if passes:
                manifest = pipeline.load_manifest(manifest_path)
            t_pass = time.perf_counter()
            pipeline.run_dataset(manifest, params, out_dir)
            wall = time.perf_counter() - t_pass
        finally:
            if traced:
                tracer.uninstall()
            else:
                pipeline.run_scene = original
        passes.append({"wall": wall, "scenes": len(manifest.entries), "traced": traced,
                       "scene_ms": scene_ms[first_scene:]})
        if traced:
            rows = by_trace(tracer.spans[mark:])
            scenes = [r for r in rows.values() if "pipeline.run_scene" in r["wall"]]
            scene_rows.extend(scenes)
            pass_rows.append(rows["-"])
            passes[-1]["busy_frac"] = (
                sum(r["wall"]["pipeline.run_scene"] for r in scenes) / (params.workers * wall))

        report = json.loads((out_dir / "report.json").read_text())
        bad, found = check_report(report, expected, FAR_TOL, WIDTH, want)
        if first_errors is None:
            first_errors = (report["mae"], report["mse"])
        elif first_errors != (report["mae"], report["mse"]):
            bad = report["n_scenes"]
            found.append(f"mae/mse {report['mae']}/{report['mse']} differ from the first"
                         f" pass's {first_errors[0]}/{first_errors[1]}")
        attempted += report["n_scenes"]
        failed += bad
        problems.extend(found)

        elapsed = time.perf_counter() - start
        if (not trace or len(passes) >= 2) and elapsed + wall > seconds:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "mae": first_errors[0],
        "mse": first_errors[1],
    }
    if trace:
        tracer.write(sys.argv[6])
        layers = result["layers"] = layer_metrics(scene_rows, pass_rows)
        # Per-scene medians, so a slow first (untraced) pass does not skew it.
        layers["trace.overhead_frac"] = (
            layers["pipeline.run_scene.ms"] / statistics.median(scene_ms) - 1.0)
        layers["pipeline.workers_busy_frac"] = statistics.median(
            p["busy_frac"] for p in passes if p["traced"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
