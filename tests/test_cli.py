"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.data import save_dataset


class TestDatasetsCommand:
    def test_prints_table(self, capsys):
        assert main(["datasets", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        for name in ("ml1M", "ml10M", "AM", "DBLP", "GW"):
            assert name in out


class TestBuildCommand:
    def test_c2_with_quality(self, capsys):
        code = main(
            ["build", "--dataset", "ml1M", "--scale", "0.02", "--k", "5", "--algo", "C2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Quality" in out
        assert "C2" in out

    def test_no_quality_flag(self, capsys):
        code = main(
            [
                "build",
                "--dataset",
                "ml1M",
                "--scale",
                "0.02",
                "--k",
                "5",
                "--algo",
                "LSH",
                "--no-quality",
            ]
        )
        assert code == 0
        assert "Quality" not in capsys.readouterr().out

    def test_from_file(self, tmp_path, tiny_dataset, capsys):
        path = tmp_path / "tiny.txt"
        save_dataset(tiny_dataset, path)
        code = main(
            ["build", "--file", str(path), "--k", "2", "--algo", "BruteForce"]
        )
        assert code == 0
        assert "BruteForce" in capsys.readouterr().out

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            main(["build", "--algo", "FAISS"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["build", "--dataset", "netflix"])


class TestRecallCommand:
    def test_runs(self, capsys):
        code = main(
            [
                "recall",
                "--dataset",
                "ml1M",
                "--scale",
                "0.02",
                "--k",
                "5",
                "--folds",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Brute force" in out
        assert "Delta" in out


class TestMetricsDumpCommand:
    def test_table_reports_every_layer(self, capsys):
        code = main(["metrics-dump", "--users", "80", "--ops", "30"])
        assert code == 0
        out = capsys.readouterr().out
        # One metric per instrumented layer proves the whole stack
        # published into the shared registry.
        for needle in (
            "index_mutation_seconds",  # online index
            "serve_query_seconds",     # searcher
            "cache_hits_total",        # query engine
            "wal_appends_total",       # WAL
            'journal_lag{consumer="wal"}',  # WAL cursor via the journal
            "journal_mutations_total",  # journal exporter
        ):
            assert needle in out, needle

    def test_prometheus_format(self, capsys):
        code = main(
            ["metrics-dump", "--users", "80", "--ops", "20",
             "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_query_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_json_format(self, capsys):
        import json

        code = main(
            ["metrics-dump", "--users", "80", "--ops", "20",
             "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["histograms"]["serve_query_seconds"]["count"] > 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
