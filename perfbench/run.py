"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload build|read|churn --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work with every layer boundary wrapped in spans and prints the
per-layer metrics (it first runs the untraced workload in a child
process to measure the tracing overhead). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it, prefixed ``REPORT``, holds everything
else: environment, every metric with its sample count, the output
checks, and the counts that must repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = ("setup_s", "latency_ms", "ops_s", "quality", "evals_per_op", "peak_rss_mb")
SETUP_REPEATS = 3
RECONCILE_TOL = 0.02    # self times may exceed the wall by 2% (timer jitter)
COVERAGE_TOL = 0.10     # at most 10% of the traced wall outside every layer
BUILD_STAGE_TOL = 0.03  # cluster + local KNN + merge within 3% of build wall


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "read", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the self-tests")
    return parser.parse_args(argv)


def untraced_wall(args) -> float | None:
    """Measured-phase wall of the same run with tracing off (child process)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return None
    for line in done.stdout.splitlines():
        if line.startswith("REPORT "):
            return json.loads(line[len("REPORT "):])["wall_s"]
    return None


def run(args) -> dict:
    from perfbench import harness, layers, tracing
    from perfbench.workloads import SIZES, WAL_POLICY, WORKLOADS

    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    report = harness.Report()
    baseline = untraced_wall(args) if args.trace else None

    episodes = workload.episodes(args.seconds, size)
    # At least SETUP_REPEATS timed set-ups per run; extra ones are discarded.
    repeats = 1 if args.trace else -(-SETUP_REPEATS // episodes)
    tracer = tracing.Tracer() if args.trace else None
    acc, setup_times = workload.start(), []
    for episode in range(episodes):
        state = None
        for _ in range(repeats):
            if state is not None:
                workload.teardown(state)
                state = None
                gc.collect()
            t0 = perf_counter()
            state = workload.setup(args.seed, episode, args.seconds, size)
            setup_times.append(perf_counter() - t0)
        if tracer is not None:
            layers.install(tracer, state.counted)
        try:
            workload.measure(state, acc, report, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.teardown(state)
    outcome = workload.finish(acc, report)
    report.add("setup_s", statistics.median(setup_times), "s", len(setup_times),
               "median of the run's set-ups")
    report.add("peak_rss_mb", harness.peak_rss_mb(), "MB", 1)
    wall = outcome["wall_s"]

    per_layer = None
    if tracer is not None:
        summary = tracing.summarize(tracer.spans)
        layer_self = tracing.layer_self_times(summary, layers.LAYERS)
        unattributed, ok = tracing.reconcile(wall, layer_self, RECONCILE_TOL)
        report.check("reconcile", ok,
                     f"layer self {sum(layer_self.values()):.4f}s + unattributed "
                     f"{unattributed:.4f}s = wall {wall:.4f}s; self <= wall "
                     f"+ {RECONCILE_TOL:.0%}")
        report.check("coverage", unattributed <= COVERAGE_TOL * wall,
                     f"unattributed {unattributed / wall:.2%} of wall "
                     f"<= {COVERAGE_TOL:.0%}")
        if args.workload == "build":
            stages = sum(
                summary.get(n, {}).get("inclusive_s", 0.0)
                for n in ("core.cluster", "core.local_knn", "core.merge")
            )
            report.check("build_stages", abs(stages - wall) <= BUILD_STAGE_TOL * wall,
                         f"cluster+local_knn+merge {stages:.4f}s vs build wall "
                         f"{wall:.4f}s (within {BUILD_STAGE_TOL:.0%})")
        report.check("untraced_baseline", baseline is not None,
                     "child run with tracing off reported its wall")
        overhead = 100.0 * (wall - baseline) / baseline if baseline else 0.0
        per_layer = layers.layer_metrics(
            summary, tracer.counts, outcome["counters"], layer_self,
            wall, unattributed, overhead,
        )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz")

    env = harness.environment(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, size=args.size,
        wal_flush=WAL_POLICY if args.workload == "churn" else "no WAL",
    )
    if per_layer is None:
        units = {s.name: s.unit for s in report.stats}
        metrics = {
            name: {"value": report.value(name), "unit": units[name]} for name in END_TO_END
        }
    else:
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(env))
    print("\n".join(report.lines()))
    if per_layer is not None:
        for name, value in per_layer.items():
            print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print("REPORT " + json.dumps({
        "environment": env,
        "wall_s": wall,
        "counts": outcome["counts"],
        **report.as_dict(),
        "per_layer": per_layer,
    }))
    complete = all(m["value"] is not None for m in metrics.values())
    return {
        "correct": report.failed == 0 and complete,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
