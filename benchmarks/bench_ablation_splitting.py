"""Ablation — recursive splitting on/off (see docs/paper.md).

Not a paper table, but the design choice Figures 3/7/8 motivate: with
splitting disabled, the popularity skew of MovieLens-like datasets
leaves one giant cluster whose local brute force / Hyrec dominates the
runtime and the parallel makespan.
"""

from __future__ import annotations

from repro.bench import bench_scale, emit, evaluate_run
from repro.core import cluster_and_conquer, makespan_lower_bound
from repro.similarity import make_engine

from conftest import get_dataset, get_workload


def test_ablation_recursive_splitting(benchmark):
    dataset = get_dataset("ml10M")
    workload = get_workload("ml10M")
    params = workload.c2_params

    with_split_result = benchmark.pedantic(
        lambda: cluster_and_conquer(make_engine(dataset), params),
        rounds=1,
        iterations=1,
    )
    with_split = evaluate_run("C2 (split)", dataset, workload, with_split_result)
    without_result = cluster_and_conquer(
        make_engine(dataset), params.with_(split_threshold=None)
    )
    without = evaluate_run("C2 (no split)", dataset, workload, without_result)

    rows = []
    for run in (with_split, without):
        sizes = run.result.extra["cluster_sizes"]
        rows.append(
            {
                "Variant": run.algorithm,
                "Time (s)": f"{run.seconds:.2f}",
                "Similarities": run.comparisons,
                "Quality": f"{run.quality:.3f}",
                "Clusters": run.result.extra["n_clusters"],
                "Max cluster": run.result.extra["max_cluster_size"],
                "Makespan LB (8 cores)": f"{makespan_lower_bound(sizes.tolist(), 8):.0f}",
            }
        )

    emit(
        "ablation_splitting",
        f"Ablation: recursive splitting — ml10M at scale={bench_scale()}",
        rows,
    )

    # Splitting must cap the biggest cluster and cut the parallel makespan.
    assert (
        with_split.result.extra["max_cluster_size"]
        < without.result.extra["max_cluster_size"]
    )
    ms_with = makespan_lower_bound(
        with_split.result.extra["cluster_sizes"].tolist(), 8
    )
    ms_without = makespan_lower_bound(without.result.extra["cluster_sizes"].tolist(), 8)
    assert ms_with < ms_without
