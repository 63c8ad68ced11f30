"""Ablation — largest-first scheduling vs FIFO (see docs/paper.md).

The paper's Step 2 drains a size-ordered priority queue so big clusters
cannot straggle at the end of the parallel phase. The effect on wall
time is hardware- and GIL-dependent, so alongside measured times we
report the deterministic makespan model: finishing times of a greedy
list schedule under work ∝ size² on 8 workers.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.bench import bench_scale, emit
from repro.core import cluster_and_conquer
from repro.similarity import make_engine

from conftest import get_dataset, get_workload


def _list_schedule_makespan(sizes: np.ndarray, n_workers: int) -> float:
    """Greedy list-scheduling makespan with work = size^2."""
    workers = [0.0] * n_workers
    heapq.heapify(workers)
    for s in sizes:
        t = heapq.heappop(workers)
        heapq.heappush(workers, t + float(s) ** 2)
    return max(workers)


def test_ablation_scheduling_order(benchmark):
    dataset = get_dataset("ml10M")
    workload = get_workload("ml10M")
    params = workload.c2_params.with_(n_workers=8)

    largest_result = benchmark.pedantic(
        lambda: cluster_and_conquer(make_engine(dataset), params),
        rounds=1,
        iterations=1,
    )
    fifo_result = cluster_and_conquer(
        make_engine(dataset), params.with_(schedule="fifo")
    )

    sizes = largest_result.extra["cluster_sizes"]
    rng = np.random.default_rng(0)
    fifo_order = rng.permutation(sizes)  # arrival order is arbitrary
    largest_order = np.sort(sizes)[::-1]

    rows = [
        {
            "Schedule": "largest-first (paper)",
            "Time (s)": f"{largest_result.seconds:.2f}",
            "Model makespan (8w)": f"{_list_schedule_makespan(largest_order, 8):.0f}",
        },
        {
            "Schedule": "FIFO",
            "Time (s)": f"{fifo_result.seconds:.2f}",
            "Model makespan (8w)": f"{_list_schedule_makespan(fifo_order, 8):.0f}",
        },
    ]
    emit(
        "ablation_scheduler",
        f"Ablation: cluster scheduling order — ml10M at scale={bench_scale()}",
        rows,
    )

    # The graphs must be identical (order cannot change the result) ...
    assert np.array_equal(
        largest_result.graph.heaps.ids, fifo_result.graph.heaps.ids
    )
    # ... and the model makespan of largest-first is never worse.
    assert _list_schedule_makespan(largest_order, 8) <= _list_schedule_makespan(
        fifo_order, 8
    )
