"""Benchmark harness: workloads, runner, table reporting."""

from .report import emit, format_table, results_dir
from .scenarios import (
    SCENARIOS,
    DriftTracker,
    IndexWorld,
    Op,
    Scenario,
    SimWorld,
    make_scenario,
    play,
)
from .runner import (
    ALGORITHMS,
    Run,
    evaluate_run,
    exact_graph,
    load_workload_dataset,
    run_algorithm,
)
from .workloads import (
    Workload,
    bench_scale,
    paper_workload,
    scale_split_threshold,
    scaled_c2_params,
)

__all__ = [
    "ALGORITHMS",
    "DriftTracker",
    "IndexWorld",
    "Op",
    "Run",
    "SCENARIOS",
    "Scenario",
    "SimWorld",
    "Workload",
    "bench_scale",
    "emit",
    "make_scenario",
    "play",
    "evaluate_run",
    "exact_graph",
    "format_table",
    "load_workload_dataset",
    "paper_workload",
    "results_dir",
    "run_algorithm",
    "scale_split_threshold",
    "scaled_c2_params",
]
