"""Per-query trace spans: nested timings, recent-trace ring, slow log.

A metric histogram says *that* p99 crept up; a trace says *where one
slow query spent it*. :class:`Tracer` hands the serving code a
``span()`` context manager; spans opened while another span is active
on the same thread nest under it, so one query produces a small tree::

    query 4.1ms {k=10}
      search 3.9ms
        route 0.2ms
        seed 0.8ms {n_seeds=41}
        walk 2.4ms {hops=7, evaluations=213}
        rerank 0.5ms
      cache_store 0.1ms

Completed **root** spans land in a bounded ring buffer (most recent
first) and, when their duration crosses ``slow_ms``, in a separate
slow-query log — the dashboard's "show me one bad query" answer.

The span stack is ``threading.local``, so caller threads trace
concurrently without locks on the hot path; only the two bounded
deques are locked. A disabled tracer yields one shared no-op span —
the same near-zero-cost contract as the disabled
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

__all__ = ["Span", "Tracer", "format_span"]


class Span:
    """One timed operation inside a trace tree.

    Attributes:
        name: operation label (``"walk"``, ``"cache_store"``, …).
        tags: free-form annotations set at open time or via :meth:`note`.
        children: spans opened (and closed) while this one was active.
        duration: seconds, set when the span closes (None while open).
    """

    __slots__ = ("name", "_tags", "_children", "start", "duration", "_tracer")

    def __init__(
        self, name: str, tags: dict | None = None, _tracer: "Tracer | None" = None
    ) -> None:
        """Open a span now (use :meth:`Tracer.span`, not this)."""
        self.name = name
        # Tag/children dicts are allocated lazily: most spans on the
        # serving hot path carry neither, and the two allocations were
        # a measurable slice of the per-span cost.
        self._tags = tags
        self._children: list[Span] | None = None
        self.start = 0.0  # armed by __enter__
        self.duration: float | None = None
        self._tracer = _tracer

    @property
    def tags(self) -> dict:
        """Free-form annotations (open-time kwargs + :meth:`note`)."""
        if self._tags is None:
            self._tags = {}
        return self._tags

    @property
    def children(self) -> "list[Span]":
        """Spans opened (and closed) while this one was active."""
        if self._children is None:
            self._children = []
        return self._children

    def __enter__(self) -> "Span":
        """Spans are their own context managers (no generator overhead)."""
        if self._tracer is not None:
            self._tracer._stack().append(self)
        self.start = perf_counter()  # armed last: exclude setup cost
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close: record duration, pop the stack, attach to the tree."""
        self.duration = perf_counter() - self.start
        if self._tracer is not None:
            self._tracer._close(self)
        return False

    def note(self, **tags) -> None:
        """Attach tags discovered mid-span (hop counts, sizes, …)."""
        if self._tags is None:
            self._tags = tags
        else:
            self._tags.update(tags)

    def to_dict(self) -> dict:
        """The span tree as plain data (JSON-friendly)."""
        return {
            "name": self.name,
            "duration_ms": None if self.duration is None else self.duration * 1e3,
            "tags": dict(self._tags or {}),
            "children": [child.to_dict() for child in self._children or []],
        }


class _NullSpan:
    """Shared stand-in yielded by a disabled tracer."""

    name = "disabled"
    tags: dict = {}
    children: list = []
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        """Return the shared singleton — nothing is allocated."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op; exceptions propagate."""
        return False

    def note(self, **tags) -> None:
        """No-op."""

    def to_dict(self) -> dict:
        """Empty-shaped tree."""
        return {"name": self.name, "duration_ms": 0.0, "tags": {}, "children": []}


_NULL_SPAN = _NullSpan()


def format_span(span: Span, indent: int = 0) -> str:
    """Render a span tree as the indented text the dashboards print."""
    ms = 0.0 if span.duration is None else span.duration * 1e3
    tags = (
        " {" + ", ".join(f"{k}={v}" for k, v in span.tags.items()) + "}"
        if span.tags
        else ""
    )
    lines = ["  " * indent + f"{span.name} {ms:.2f}ms{tags}"]
    for child in span.children:
        lines.append(format_span(child, indent + 1))
    return "\n".join(lines)


class Tracer:
    """Produces nested :class:`Span` trees and keeps the recent ones.

    Args:
        capacity: root spans retained in the recent-trace ring buffer.
        slow_ms: root spans at least this many milliseconds long are
            also retained in the slow-query log (its own ring of
            ``capacity`` entries).
        enabled: ``False`` yields a shared no-op span from
            :meth:`span` — tracing evaporates at one attribute check.
    """

    def __init__(
        self, capacity: int = 128, slow_ms: float = 50.0, enabled: bool = True
    ) -> None:
        """Create a tracer with empty ring buffers."""
        self.enabled = bool(enabled)
        self.slow_ms = float(slow_ms)
        self._recent: deque[Span] = deque(maxlen=int(capacity))
        self._slow: deque[Span] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str, **tags):
        """Open a span; nests under the thread's current span, if any.

        Returns a context manager (the :class:`Span` itself — a plain
        ``__enter__``/``__exit__`` object, cheaper than a generator).
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, tags or None, _tracer=self)

    def _close(self, span: Span) -> None:
        """Pop a finished span and attach it to its parent (or record)."""
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._record(span)

    def _record(self, root: Span) -> None:
        with self._lock:
            self._recent.append(root)
            if root.duration is not None and root.duration * 1e3 >= self.slow_ms:
                self._slow.append(root)

    def recent(self, n: int | None = None) -> list[Span]:
        """The most recent completed root spans, newest first."""
        with self._lock:
            out = list(self._recent)
        out.reverse()
        return out if n is None else out[: int(n)]

    def slow(self, n: int | None = None) -> list[Span]:
        """Recent root spans that crossed ``slow_ms``, newest first."""
        with self._lock:
            out = list(self._slow)
        out.reverse()
        return out if n is None else out[: int(n)]

    def clear(self) -> None:
        """Drop both ring buffers (fresh benchmark arms, tests)."""
        with self._lock:
            self._recent.clear()
            self._slow.clear()
