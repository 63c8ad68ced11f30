"""Unified telemetry for the serving stack: metrics, traces, journal view.

Three pieces, one import:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — counters,
  gauges and fixed-bucket latency histograms (p50/p90/p99/p999 without
  storing samples), with snapshot / Prometheus-text / JSON export;
* :class:`Tracer` (:mod:`repro.obs.trace`) — per-query nested trace
  spans with a recent-trace ring buffer and a slow-query log;
* :class:`JournalMetrics` (:mod:`repro.obs.journal`) — a derived
  metrics collection consuming the mutation journal (mutation rates,
  re-split counts, cluster-size distributions, consumer lag).

Every instrumented component (``GraphSearcher``, the query engine,
the WAL, ``OnlineIndex``) takes optional ``registry=``
/ ``tracer=`` arguments and defaults to the **process-wide** instances
returned by :func:`metrics` and :func:`tracer` — so a default stack
shares one registry and one ``repro metrics-dump`` sees every layer.
:func:`set_metrics` / :func:`set_tracer` swap the defaults (the
overhead benchmark swaps in disabled instances to measure the
telemetry layer's cost; tests swap in fresh ones for isolation).

The full metric catalog, trace span schema and exposition formats are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

from .journal import JournalMetrics
from .registry import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
)
from .trace import Span, Tracer, format_span

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JournalMetrics",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "format_span",
    "metrics",
    "set_metrics",
    "set_tracer",
    "tracer",
]

_DEFAULT_REGISTRY = MetricsRegistry()
_DEFAULT_TRACER = Tracer()


def metrics() -> MetricsRegistry:
    """The process-wide default registry components bind to."""
    return _DEFAULT_REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    Components capture their metric handles at construction, so swap
    **before** building the stack you want observed (or isolated).
    """
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


def tracer() -> Tracer:
    """The process-wide default tracer components bind to."""
    return _DEFAULT_TRACER


def set_tracer(instance: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one."""
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = instance
    return previous
