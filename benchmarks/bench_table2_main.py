"""Table II — computation time and KNN quality, all datasets.

The paper's headline table: C² vs Hyrec, NN-Descent and LSH on six
datasets (k = 30, GoldFinger 1024 bits everywhere). We report wall
time, similarity-computation counts (the hardware-independent cost the
paper's analysis is based on) and quality vs the exact graph, next to
the paper's published times/qualities.

Expected shape (asserted): on every dataset C² needs fewer similarity
computations and less wall time than Hyrec and NN-Descent, and its
quality stays within 0.12 of the best baseline. C²'s position against
LSH is reported, not asserted: here LSH often needs fewer similarity
computations (see docs/paper.md).
"""

from __future__ import annotations

import pytest

from repro.bench import bench_scale, emit, evaluate_run, run_algorithm
from repro.data import dataset_names

from conftest import get_dataset, get_workload

# (time s, quality) from the paper's Table II.
PAPER_TABLE2 = {
    "ml1M": {"Hyrec": (4.43, 0.92), "NNDescent": (10.98, 0.93), "LSH": (2.96, 0.92), "C2": (2.64, 0.91)},
    "ml10M": {"Hyrec": (109.98, 0.90), "NNDescent": (147.03, 0.93), "LSH": (255.33, 0.94), "C2": (27.79, 0.89)},
    "ml20M": {"Hyrec": (289.23, 0.88), "NNDescent": (383.21, 0.92), "LSH": (1060.76, 0.93), "C2": (106.25, 0.89)},
    "AM": {"Hyrec": (62.41, 0.93), "NNDescent": (91.24, 0.95), "LSH": (140.53, 0.96), "C2": (14.11, 0.95)},
    "DBLP": {"Hyrec": (26.84, 0.81), "NNDescent": (24.43, 0.82), "LSH": (37.80, 0.86), "C2": (6.54, 0.84)},
    "GW": {"Hyrec": (21.88, 0.78), "NNDescent": (26.05, 0.79), "LSH": (26.91, 0.82), "C2": (8.38, 0.82)},
}

ALGOS = ["Hyrec", "NNDescent", "LSH", "C2"]


@pytest.mark.parametrize("dataset_name", dataset_names())
def test_table2_dataset(benchmark, dataset_name):
    dataset = get_dataset(dataset_name)
    workload = get_workload(dataset_name)

    runs = {}
    for algo in ALGOS:
        if algo == "C2":
            # C2 is the benchmarked (timed) subject of this experiment.
            result = benchmark.pedantic(
                run_algorithm, args=(algo, dataset, workload), rounds=1, iterations=1
            )
        else:
            result = run_algorithm(algo, dataset, workload)
        runs[algo] = evaluate_run(algo, dataset, workload, result)

    rows = []
    for algo in ALGOS:
        run = runs[algo]
        paper_time, paper_quality = PAPER_TABLE2[dataset_name][algo]
        rows.append(
            {
                "Algo": algo,
                "Time (s)": f"{run.seconds:.2f}",
                "Similarities": run.comparisons,
                "Quality": f"{run.quality:.2f}",
                "paper Time": paper_time,
                "paper Quality": paper_quality,
            }
        )

    baselines = [runs[a] for a in ALGOS if a != "C2"]
    best_baseline = min(baselines, key=lambda r: r.seconds)
    speedup = best_baseline.seconds / runs["C2"].seconds
    comp_ratio = min(r.comparisons for r in baselines) / runs["C2"].comparisons
    emit(
        f"table2_{dataset_name}",
        f"Table II analog — {dataset_name} at scale={bench_scale()}\n"
        f"speed-up vs best baseline: x{speedup:.2f} (paper: x1.12-x4.42)\n"
        f"similarity-count ratio vs best baseline: x{comp_ratio:.2f}",
        rows,
    )

    # Shape: C2 beats both greedy baselines outright — on similarity
    # count (the paper's headline mechanism: no random-start
    # exploration) and on wall time ...
    assert runs["C2"].comparisons < runs["Hyrec"].comparisons
    assert runs["C2"].comparisons < runs["NNDescent"].comparisons
    assert runs["C2"].seconds < runs["Hyrec"].seconds
    assert runs["C2"].seconds < runs["NNDescent"].seconds
    # ... and quality is within a small margin of the best baseline.
    # (LSH's relative position is reported, not asserted: our vectorised
    # LSH is stronger relative to C2 than the paper's Java LSH on the
    # smallest sparse stand-ins — see docs/paper.md.)
    best_quality = max(r.quality for r in baselines)
    assert runs["C2"].quality > best_quality - 0.12
