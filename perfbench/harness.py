"""Measurement helpers shared by the workloads.

* :func:`percentile` quotes a percentile only when at least
  :data:`TAIL_SAMPLES` samples lie beyond it — a p99 over 200 samples
  is just the second-slowest sample, and is reported as missing.
* :class:`Report` collects every metric with its unit and sample count,
  plus the output checks that feed ``failed``.
* :func:`environment` records what the numbers were measured on.
"""

from __future__ import annotations

import math
import os
import platform
import resource
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TAIL_SAMPLES",
    "Report",
    "Stat",
    "environment",
    "peak_rss_mb",
    "percentile",
    "samples_beyond",
]

TAIL_SAMPLES = 10


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0)


def percentile(samples, p: float) -> float | None:
    """The ``p``-th percentile, or ``None`` with too few samples beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < TAIL_SAMPLES:
        return None
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


@dataclass
class Stat:
    """One reported number: ``value`` in ``unit`` over ``n`` samples."""

    name: str
    value: float | None
    unit: str
    n: int = 1
    note: str = ""

    def line(self) -> str:
        shown = "n/a" if self.value is None else f"{self.value:.6g}"
        note = f"  ({self.note})" if self.note else ""
        return f"  {self.name:<28} {shown:>12} {self.unit:<6} n={self.n}{note}"


@dataclass
class Report:
    """Everything one run measured, plus the checks on its outputs."""

    stats: list[Stat] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0

    def add(self, name: str, value, unit: str, n: int = 1, note: str = "") -> None:
        self.stats.append(Stat(name, None if value is None else float(value), unit, n, note))

    def latency(self, prefix: str, seconds, percentiles=(50.0, 99.0)) -> None:
        """Percentiles of per-op latencies in ms, each under the tail rule."""
        ms = np.asarray(seconds, dtype=np.float64) * 1e3
        for p in percentiles:
            value = percentile(ms, p)
            note = "" if value is not None else (
                f"needs {TAIL_SAMPLES} samples beyond p{p:g}, "
                f"has {samples_beyond(ms.size, p)}"
            )
            self.add(f"{prefix}_p{p:g}_ms", value, "ms", ms.size, note)

    def check(self, name: str, ok: bool, detail: str) -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def value(self, name: str) -> float | None:
        for stat in self.stats:
            if stat.name == name:
                return stat.value
        raise KeyError(name)

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not ok for _, ok, _ in self.checks)

    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)

    def lines(self) -> list[str]:
        out = [stat.line() for stat in self.stats]
        out.append(
            f"  {'failed_frac':<28} {self.failed_frac():>12.6g} {'ratio':<6} "
            f"n={self.attempted}  ({self.failed_ops} failed ops of {self.ops}, "
            f"{self.failed - self.failed_ops} failed checks of {len(self.checks)})"
        )
        for name, ok, detail in self.checks:
            out.append(f"  check {name:<22} {'ok' if ok else 'FAILED'}  {detail}")
        return out

    def as_dict(self) -> dict:
        return {
            "metrics": {
                s.name: {"value": s.value, "unit": s.unit, "n": s.n} for s in self.stats
            },
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "ops": self.ops,
            "failed_ops": self.failed_ops,
            "failed_frac": self.failed_frac(),
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(**extra) -> dict:
    """Core count, CPU model and interpreter/library versions, plus ``extra``."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }
