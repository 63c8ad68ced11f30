"""Table IV — impact of FastRandomHash: C²/FRH vs C²/MinHash.

The paper's key ablation: replacing FastRandomHash with classic MinHash
inside the same pipeline (t permutations, one bucket per minimum item,
no recursive splitting) slows C² down by 4.6x-6.9x while quality stays
comparable — i.e. the clustering scheme, not the pipeline, is the win.
Run on ml10M (dense) and AM (sparse) like the paper.
"""

from __future__ import annotations

import pytest

from repro.bench import bench_scale, emit, evaluate_run, run_algorithm

from conftest import get_dataset, get_workload

# (time s, quality) from the paper's Table IV.
PAPER_TABLE4 = {
    "ml10M": {"MinHash": (126.74, 0.93), "FRH": (27.79, 0.89)},
    "AM": {"MinHash": (97.31, 0.95), "FRH": (14.11, 0.95)},
}


@pytest.mark.parametrize("dataset_name", ["ml10M", "AM"])
def test_table4_fastrandomhash(benchmark, dataset_name):
    dataset = get_dataset(dataset_name)
    workload = get_workload(dataset_name)

    frh_result = benchmark.pedantic(
        run_algorithm, args=("C2", dataset, workload), rounds=1, iterations=1
    )
    frh = evaluate_run("C2 (FRH)", dataset, workload, frh_result)
    minhash = evaluate_run(
        "C2 (MinHash)",
        dataset,
        workload,
        run_algorithm("C2-MinHash", dataset, workload),
    )

    rows = []
    for run, key in ((minhash, "MinHash"), (frh, "FRH")):
        paper_time, paper_quality = PAPER_TABLE4[dataset_name][key]
        rows.append(
            {
                "Mechanism": run.algorithm,
                "Time (s)": f"{run.seconds:.2f}",
                "Similarities": run.comparisons,
                "Quality": f"{run.quality:.2f}",
                "paper Time": paper_time,
                "paper Quality": paper_quality,
            }
        )

    emit(
        f"table4_{dataset_name}",
        f"Table IV analog — {dataset_name} at scale={bench_scale()}\n"
        f"FRH vs MinHash similarity ratio: "
        f"x{minhash.comparisons / max(1, frh.comparisons):.2f} (paper speed-up ~x4.6-6.9)",
        rows,
    )

    # Shape: on the dense, popularity-skewed dataset FRH needs far
    # fewer similarity computations (the paper's decisive result). On
    # the synthetic AM stand-in the popularity tail is flatter than the
    # real dataset's, so MinHash buckets stay small and the gap narrows
    # (see docs/paper.md); there we assert comparability, not victory.
    if dataset_name == "ml10M":
        assert frh.comparisons < minhash.comparisons
    else:
        assert frh.comparisons < 2 * minhash.comparisons
    assert frh.quality > minhash.quality - 0.1
