"""Self-tests of the benchmark on tiny inputs.

Run from the repository root with ``python3 perfbench/selftest.py``
(or ``python3 -m pytest perfbench/selftest.py``). Covers the tail-sample
rule for percentiles, span self-time arithmetic, the reconciliation
tolerance, count determinism, and a toy-size pass of every workload,
traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import harness, layers, tracing  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def toy(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """``(result line, REPORT payload)`` of one toy-size run."""
    done = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "toy")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line[7:]) for line in lines if line.startswith("REPORT "))
    return json.loads(lines[-1]), report


class TailRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(harness.samples_beyond(1000, 99), 10)
        self.assertEqual(harness.samples_beyond(999, 99), 9)
        self.assertEqual(harness.samples_beyond(20, 50), 10)

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(harness.percentile(list(range(999)), 99))
        self.assertAlmostEqual(harness.percentile(list(range(1000)), 99), 989.01)
        self.assertIsNone(harness.percentile(list(range(19)), 50))
        self.assertEqual(harness.percentile(list(range(21)), 50), 10.0)
        self.assertIsNone(harness.percentile([], 50))

    def test_report_marks_missing_tail(self):
        report = harness.Report()
        report.latency("q", [0.001] * 200)
        self.assertEqual(report.value("q_p50_ms"), 1.0)
        self.assertIsNone(report.value("q_p99_ms"))
        self.assertIn("has 2", report.stats[-1].note)


class SelfTimes(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            ["core.root", 0.0, 10.0, -1, 0],
            ["core.a", 1.0, 4.0, 0, 0],
            ["core.b", 3.0, 6.0, 0, 0],    # overlaps a: covered once
            ["core.c", 2.0, 3.0, 1, 0],    # grandchild: only a loses it
            ["core.d", 9.0, 12.0, 0, 0],   # runs past its parent: clipped
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])
        summary = tracing.summarize(spans)
        self.assertEqual(summary["core.a"]["inclusive_s"], 3.0)
        self.assertEqual(summary["core.a"]["calls"], 1)

    def test_tracer_records_parents_and_restores(self):
        class Toy:
            def outer(self):
                return self.inner() + self.inner()

            def inner(self):
                return 1

        original = Toy.__dict__["inner"]
        tracer = tracing.Tracer()
        tracer.wrap(Toy, "outer", "serve.outer")
        tracer.wrap(Toy, "inner", "graph.inner",
                    count=lambda counts, args, result, _: counts.__setitem__(
                        "n", counts["n"] + result))
        self.assertEqual(Toy().outer(), 2)
        tracer.uninstall()
        self.assertIs(Toy.__dict__["inner"], original)
        self.assertEqual([s[0] for s in tracer.spans],
                         ["serve.outer", "graph.inner", "graph.inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(tracer.counts["n"], 2)
        root = tracer.spans[0]
        total = sum(tracing.self_times(tracer.spans))
        self.assertAlmostEqual(total, root[2] - root[1], places=9)

    def test_paused_and_opaque_record_nothing(self):
        class Toy:
            def outer(self):
                return self.inner()

            def inner(self):
                return 1

        tracer = tracing.Tracer()
        tracer.wrap(Toy, "outer", "core.outer", opaque=True)
        tracer.wrap(Toy, "inner", "core.inner")
        Toy().outer()
        tracer.paused = True
        Toy().inner()
        tracer.uninstall()
        self.assertEqual([s[0] for s in tracer.spans], ["core.outer"])


class Reconcile(unittest.TestCase):
    def test_tolerance(self):
        unattributed, ok = tracing.reconcile(10.0, {"a": 5.0, "b": 5.1}, 0.02)
        self.assertAlmostEqual(unattributed, -0.1)
        self.assertTrue(ok)
        self.assertFalse(tracing.reconcile(10.0, {"a": 5.0, "b": 5.3}, 0.02)[1])
        self.assertTrue(tracing.reconcile(10.0, {"a": 4.0}, 0.02)[1])

    def test_every_span_has_a_layer(self):
        summary = {"serve.x": {"self_s": 1.0}, "graph.y": {"self_s": 2.0}}
        self.assertEqual(tracing.layer_self_times(summary, ("serve", "graph")),
                         {"serve": 1.0, "graph": 2.0})
        with self.assertRaises(ValueError):
            tracing.layer_self_times({"misc.z": {"self_s": 1.0}}, ("serve",))


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, *_ in layers.PER_LAYER],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], ["build", "read", "churn"])


class ToyWorkloads(unittest.TestCase):
    def test_each_workload_passes_traced_and_untraced(self):
        per_layer = [name for name, *_ in layers.PER_LAYER]
        for workload in ("build", "read", "churn"):
            with self.subTest(workload=workload):
                result, report = toy(workload, 3, trace=1)
                self.assertTrue(result["correct"], report["checks"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), per_layer)
                checks = {c["name"] for c in report["checks"]}
                self.assertLessEqual({"reconcile", "coverage", "untraced_baseline"}, checks)

    def test_counts_repeat_for_a_seed_and_differ_across_seeds(self):
        for workload in ("build", "read", "churn"):
            with self.subTest(workload=workload):
                first, report1 = toy(workload, 5, trace=0)
                _, report2 = toy(workload, 5, trace=0)
                _, report3 = toy(workload, 6, trace=0)
                self.assertEqual(list(first["metrics"]), list(END_TO_END))
                self.assertEqual(report1["counts"], report2["counts"])
                self.assertNotEqual(report1["counts"], report3["counts"])

    def test_refuses_to_run_without_the_library(self):
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out_dir))
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = run_bench("--workload", "read", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
