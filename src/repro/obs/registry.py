"""Low-overhead metrics registry: counters, gauges, bucketed histograms.

The serving stack (index mutations, graph walks, caches, the WAL)
needs one place to answer "what is p99 walk latency or cache hit
rate *right now*" without a metrics dependency the container does not
ship. This module is that place:

* :class:`Counter` / :class:`Gauge` — a locked float each;
* :class:`Histogram` — fixed log-spaced buckets, so p50/p90/p99/p999
  come from cumulative bucket counts with linear interpolation inside
  the landing bucket — **no samples are stored**, memory is O(buckets)
  no matter how many observations arrive;
* :class:`MetricsRegistry` — named, labelled, get-or-create access to
  all three, with :meth:`~MetricsRegistry.snapshot` (plain dict),
  :meth:`~MetricsRegistry.to_prometheus` (text exposition) and
  :meth:`~MetricsRegistry.to_json` exports.

Thread-safety is per-metric (one small lock each), so two threads
observing different histograms never contend. A registry created with
``enabled=False`` hands out shared null metrics whose methods are
no-ops — the instrumented hot paths keep their handles and pay one
attribute call, which is what keeps the measured overhead of the whole
telemetry layer under its 5% ceiling (``benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
]

# Log-spaced (factor 2) latency bounds in seconds: 10µs .. ~10.5s.
# Factor-2 buckets bound the interpolation error of any quantile to
# the bucket's width; every serving-path latency this repo measures
# (walks in the ms range, fsyncs in the 100µs range) lands mid-range.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-5 * (2.0**i) for i in range(21))

# Power-of-two count bounds for discrete size/hop/evaluation histograms.
COUNT_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(15))

_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))


def _label_suffix(labels: tuple) -> str:
    """Render a sorted label tuple as ``{a="x",b="y"}`` (or ``""``)."""
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class Counter:
    """A monotonically increasing named value."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        """Create the counter at zero (use the registry, not this)."""
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """A named value that can go up and down (lag, sizes, rates)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        """Create the gauge at zero (use the registry, not this)."""
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with sample-free quantile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets
    (ascending); one implicit overflow bucket catches everything
    larger. Each observation is a bisect + two adds under the metric's
    lock — O(log buckets), no sample storage — and quantiles are read
    back by walking the cumulative counts and interpolating linearly
    inside the landing bucket (the Prometheus ``histogram_quantile``
    rule), clamped to the observed min/max so estimates never leave
    the data's range.
    """

    kind = "histogram"

    def __init__(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS, labels: tuple = ()
    ) -> None:
        """Create an empty histogram over ``bounds`` upper edges."""
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def reset(self) -> None:
        """Forget every observation (for refreshed distributions)."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    @property
    def count(self) -> int:
        """Total observations recorded."""
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``), 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            counts = list(self._counts)
            lo, hi = self._min, self._max
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0.0
        for idx, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if idx >= len(self.bounds):
                    return hi  # overflow bucket: best estimate is the max
                upper = self.bounds[idx]
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                estimate = lower + (upper - lower) * (rank - cumulative) / n
                return min(max(estimate, lo), hi)
            cumulative += n
        return hi  # pragma: no cover - rank <= total always lands above

    def snapshot(self) -> dict:
        """Count, sum, min/max and the standard quantile estimates."""
        with self._lock:
            counts = list(self._counts)
            total = sum(counts)
            out = {
                "count": total,
                "sum": self._sum,
                "min": self._min if total else 0.0,
                "max": self._max if total else 0.0,
            }
        for q, key in _QUANTILES:
            out[key] = self.percentile(q) if total else 0.0
        return out

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bound, n in zip(self.bounds, counts):
            cumulative += n
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return out


class _NullMetric:
    """Shared no-op stand-in handed out by a disabled registry."""

    name = "disabled"
    labels: tuple = ()
    bounds = LATENCY_BUCKETS
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    def reset(self) -> None:
        """No-op."""

    def percentile(self, q: float) -> float:
        """Always 0.0."""
        return 0.0

    def snapshot(self) -> dict:
        """Always empty-shaped."""
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}

    def bucket_counts(self) -> list:
        """Always empty."""
        return []


_NULL = _NullMetric()


class MetricsRegistry:
    """Named, labelled get-or-create access to the metric types.

    Args:
        enabled: ``False`` turns the whole registry into null metrics —
            handles stay valid, every mutation is a no-op, exports are
            empty. The overhead benchmark serves one tape against an
            enabled and one against a disabled registry to measure the
            telemetry layer's true cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        """Create an empty registry."""
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], object] = {}

    # ------------------------------------------------------------------
    # Get-or-create handles
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs):
        if not self.enabled:
            return _NULL
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge registered under ``name`` + ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS, **labels
    ) -> Histogram:
        """The histogram registered under ``name`` + ``labels``."""
        return self._get(Histogram, name, labels, bounds=bounds)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _sorted_metrics(self) -> list:
        with self._lock:
            return [m for _, m in sorted(self._metrics.items(), key=lambda kv: kv[0])]

    def snapshot(self) -> dict:
        """Everything, as a plain dict: counters, gauges, histograms."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._sorted_metrics():
            full = metric.name + _label_suffix(metric.labels)
            if metric.kind == "counter":
                out["counters"][full] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][full] = metric.value
            else:
                out["histograms"][full] = metric.snapshot()
        return out

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (``# TYPE`` lines + samples)."""
        lines: list[str] = []
        typed: set[str] = set()
        for metric in self._sorted_metrics():
            if metric.name not in typed:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                typed.add(metric.name)
            if metric.kind in ("counter", "gauge"):
                lines.append(
                    f"{metric.name}{_label_suffix(metric.labels)} {metric.value:g}"
                )
                continue
            for bound, cumulative in metric.bucket_counts():
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                labels = metric.labels + (("le", le),)
                lines.append(f"{metric.name}_bucket{_label_suffix(labels)} {cumulative}")
            suffix = _label_suffix(metric.labels)
            lines.append(f"{metric.name}_sum{suffix} {metric.sum:g}")
            lines.append(f"{metric.name}_count{suffix} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every registered metric (tests and fresh benchmark arms)."""
        with self._lock:
            self._metrics.clear()
