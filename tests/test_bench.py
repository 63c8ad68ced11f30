"""Unit tests for the benchmark harness (repro.bench)."""

from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    ALGORITHMS,
    Workload,
    evaluate_run,
    exact_graph,
    format_table,
    paper_workload,
    run_algorithm,
    scaled_c2_params,
)
from repro.data import SyntheticSpec, generate


@pytest.fixture(scope="module")
def bench_dataset():
    spec = SyntheticSpec(
        name="bench-mini",
        n_users=150,
        n_items=300,
        mean_profile_size=25.0,
        n_communities=6,
        community_pool_size=60,
        min_profile_size=10,
    )
    return generate(spec, seed=5)


@pytest.fixture(scope="module")
def workload():
    return Workload(dataset="ml1M", scale=0.02, k=5)


class TestWorkloads:
    def test_paper_workload_defaults(self):
        wl = paper_workload("ml10M", scale=0.05)
        assert wl.dataset == "ml10M"
        assert wl.k == 30
        assert wl.lsh_hashes == 10

    def test_scaled_params_shrink_with_scale(self):
        full = scaled_c2_params("ml10M", 1.0)
        small = scaled_c2_params("ml10M", 0.05)
        assert full.n_buckets == 4096
        assert full.split_threshold == 2000
        assert small.n_buckets == full.n_buckets  # b is scale-free
        assert small.split_threshold < full.split_threshold

    def test_scaled_params_keep_scale_free_knobs(self):
        p = scaled_c2_params("DBLP", 0.05)
        assert p.n_hashes == 15  # paper's DBLP setting survives scaling
        assert p.rho == 5

    def test_c2_params_property(self, workload):
        params = workload.c2_params
        assert params.n_buckets >= 64


class TestRunner:
    def test_all_algorithms_run(self, bench_dataset, workload):
        for name in ALGORITHMS:
            result = run_algorithm(name, bench_dataset, workload)
            assert result.graph.n_users == bench_dataset.n_users, name
            assert result.comparisons > 0, name

    def test_unknown_algorithm(self, bench_dataset, workload):
        with pytest.raises(KeyError, match="unknown algorithm"):
            run_algorithm("FLANN", bench_dataset, workload)

    def test_exact_graph_memoised(self, bench_dataset):
        a, avg_a = exact_graph(bench_dataset, k=5)
        b, avg_b = exact_graph(bench_dataset, k=5)
        assert a is b
        assert avg_a == avg_b
        assert 0 < avg_a <= 1

    def test_evaluate_run(self, bench_dataset, workload):
        result = run_algorithm("BruteForce", bench_dataset, workload)
        run = evaluate_run("BruteForce", bench_dataset, workload, result)
        assert run.quality > 0.9  # GoldFinger brute force ~ exact
        assert run.as_row()["Algo"] == "BruteForce"


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            {"Algo": "C2", "Time": "1.0"},
            {"Algo": "LongerName", "Time": "22.5"},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("Algo")
        assert len(set(len(line) for line in lines if line)) <= 2

    def test_format_table_missing_cells(self):
        text = format_table([{"A": 1}, {"A": 2, "B": 3}])
        assert "B" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_title(self):
        text = format_table([{"A": 1}], title="Table II")
        assert text.startswith("Table II")

    def test_results_dir_is_the_repo_root_not_the_cwd(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        root = next(p for p in Path(report.__file__).resolve().parents if (p / "setup.py").exists())
        want = root / "benchmark_results"
        assert report.results_dir() == want
        monkeypatch.chdir(tmp_path)
        assert report.results_dir() == want
        assert not (tmp_path / "benchmark_results").exists()
