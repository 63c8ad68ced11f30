"""Spans recorded around library calls, from the benchmark's own code.

The library is not edited: :meth:`Tracer.wrap` replaces a function at
the name its callers look it up by (a module attribute such as
``repro.core.cluster_and_conquer.merge_partials`` or a class attribute
such as ``repro.serve.searcher.GraphSearcher.top_k``) with a wrapper
that records one span per call, and :meth:`Tracer.uninstall` puts the
originals back. Spans live in memory as ``[name, start, end, parent,
op]`` lists and are written out by :meth:`Tracer.dump` when the run
ends.

Only calls made on the thread that created the tracer are recorded:
worker threads of the batch build overlap in time, and their spans
would make self times add up to more than the wall clock.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "layer_self_times", "reconcile", "self_times", "summarize"]

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0  # id of the workload operation in flight
        self.paused = False  # oracles run with the clock stopped
        self._stack: list[int] = []
        self._opaque = 0  # > 0 while inside a span whose callees are hidden
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def wrap(self, owner, attr: str, name, *, count=None, before=None,
             opaque: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        Args:
            owner: the module or class whose attribute callers look up.
            attr: attribute name; on a class it must be defined there
                (not inherited), so uninstalling restores it exactly.
            name: span name, or a callable ``name(args) -> str``.
            count: ``count(counts, args, result, token)`` run after the
                call to add to :attr:`counts`.
            before: ``before(args) -> token`` run before the call; its
                result reaches ``count`` (e.g. a counter reading).
            opaque: calls made inside this span record no spans of
                their own (their time stays in this span's self time).
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._traced(raw.__func__, name, count, before, opaque))
        else:
            patched = self._traced(raw, name, count, before, opaque)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _traced(self, fn, name, count, before, opaque):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused or tracer._opaque or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name(args) if callable(name) else name, 0.0, 0.0, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._opaque += opaque
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._opaque -= opaque
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, result, token)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span (times relative to the first) as gzipped JSON."""
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT], s[OP]]
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _covered(parent_start: float, parent_end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to the parent's span."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, parent_start), min(end, parent_end)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``inclusive_s`` and ``self_s``."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[NAME], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["inclusive_s"] += span[END] - span[START]
        row["self_s"] += own
    return out


def layer_self_times(summary: dict, layers) -> dict[str, float]:
    """Self time per layer; a span belongs to the layer its name starts with."""
    out = {layer: 0.0 for layer in layers}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        if layer not in out:
            raise ValueError(f"span {name!r} belongs to no known layer")
        out[layer] += row["self_s"]
    return out


def reconcile(wall_s: float, layer_self: dict[str, float], tolerance: float):
    """``(unattributed_s, ok)`` for one traced run.

    ``unattributed_s`` is the wall time no layer's self time covers
    (benchmark loop, wrapper cost). Self times partition the traced
    spans, so their sum can only exceed the wall by timer jitter; ``ok``
    is false when it exceeds it by more than ``tolerance`` of the wall,
    which means spans were double-counted.
    """
    unattributed = wall_s - sum(layer_self.values())
    return unattributed, unattributed >= -tolerance * wall_s
