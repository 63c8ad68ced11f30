"""CI perf gate — diff benchmark JSON against committed floors.

``bench_serving.py`` records machine-readable headline numbers in
``BENCH_serving.json`` (see ``repro.bench.emit_json``). This script
compares them against the floors committed in
``benchmarks/perf_floors.json`` and fails the build on a regression,
so a PR that quietly halves smoke throughput or drops recall below its
gate turns red instead of merging invisibly.

Floor semantics, per ``{run: {metric: floor}}`` entry:

* boolean floors must match exactly — ``true`` means "must be true";
* metrics whose name contains ``recall`` are hard floors — the
  measured value must be ``>= floor``;
* metrics whose name contains ``resplits`` or ``rebuilds`` are hard
  **ceilings** — the measured value must be ``<= floor`` (the scenario
  suite's bounded-resplit / no-rebuild contract, enforced on every CI
  run);
* metrics whose name contains ``overhead`` are hard ceilings too —
  the telemetry layer's ≤-5% instrumentation-cost contract gets no
  slack (the benchmark already takes min-of-reps, so noise cancels);
* latency metrics (name contains ``latency`` or ends in ``_ms``) are
  **ceilings with the throughput tolerance** — the measured value
  must be ``<= floor / 0.7``, the same 30% slack in the opposite
  direction (CI runners are slow; the gate catches a latency
  explosion, not jitter);
* every other metric is a **throughput** floor with 30% tolerance —
  the measured value must be ``>= 0.7 * floor``. Floors are set well
  below typical dev-machine numbers because CI runners are slow and
  noisy; the tolerance catches collapses, not jitter.

Runs or metrics missing from the JSON fail loudly: a silently skipped
benchmark is itself a regression. Run::

    python benchmarks/perf_gate.py \
        --json BENCH_serving.json --floors benchmarks/perf_floors.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TOLERANCE = 0.7  # throughput may sag 30% below its floor before failing


def is_hard_floor(metric: str) -> bool:
    """Hard floors (recall) get no slack; throughput does."""
    return "recall" in metric


def is_ceiling(metric: str) -> bool:
    """Counters that must stay at-or-below their committed value."""
    return any(
        needle in metric
        for needle in ("resplits", "rebuilds", "overhead")
    )


def is_latency_ceiling(metric: str) -> bool:
    """Time-denominated metrics: ceilings, with the throughput tolerance.

    Besides ``latency``/``_ms`` names this covers ``_s``/``seconds``
    duration metrics (``restart_s``, the recovery-time gate) — but a
    ``_s`` suffix on a *rate* (``ops_s``, per-second throughput) keeps
    floor semantics.
    """
    if "latency" in metric or metric.endswith("_ms") or "seconds" in metric:
        return True
    return metric.endswith("_s") and "ops" not in metric and "qps" not in metric


def check(runs: dict, floors: dict) -> list[str]:
    """All floor violations, as printable messages (empty = gate passes)."""
    failures: list[str] = []
    for run, metrics in floors.items():
        recorded = runs.get(run)
        if recorded is None:
            failures.append(f"{run}: missing from benchmark JSON (did it run?)")
            continue
        for metric, floor in metrics.items():
            value = recorded.get(metric)
            if value is None:
                failures.append(f"{run}.{metric}: not recorded")
            elif isinstance(floor, bool):
                if bool(value) is not floor:
                    failures.append(f"{run}.{metric}: {value} != required {floor}")
            elif is_ceiling(metric):
                if value > floor:
                    failures.append(
                        f"{run}.{metric}: {value} above hard ceiling {floor}"
                    )
            elif is_latency_ceiling(metric):
                if value > floor / TOLERANCE:
                    failures.append(
                        f"{run}.{metric}: {value} above ceiling {floor} "
                        f"with {1 / TOLERANCE - 1:.0%} tolerance "
                        "(latency explosion)"
                    )
            elif is_hard_floor(metric):
                if value < floor:
                    failures.append(
                        f"{run}.{metric}: {value} below hard floor {floor}"
                    )
            elif value < TOLERANCE * floor:
                failures.append(
                    f"{run}.{metric}: {value} below {TOLERANCE:.0%} of "
                    f"floor {floor} (>30% throughput regression)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="BENCH_serving.json",
                        help="benchmark JSON produced by the smoke runs")
    parser.add_argument("--floors", default="benchmarks/perf_floors.json",
                        help="committed floor values")
    args = parser.parse_args(argv)

    floors = json.loads(Path(args.floors).read_text(encoding="utf-8"))
    json_path = Path(args.json)
    if not json_path.exists():
        print(f"perf gate: {json_path} not found — benchmarks did not run")
        return 1
    runs = json.loads(json_path.read_text(encoding="utf-8")).get("runs", {})

    failures = check(runs, floors)
    n_checked = sum(len(m) for m in floors.values())
    if failures:
        print(f"perf gate: {len(failures)}/{n_checked} checks FAILED")
        for line in failures:
            print(f"  FAIL {line}")
        return 1
    print(f"perf gate: {n_checked} checks passed")
    for run, metrics in floors.items():
        for metric, floor in metrics.items():
            print(f"  ok {run}.{metric} = {runs[run][metric]} (floor {floor})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
