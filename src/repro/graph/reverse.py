"""Incrementally maintained reverse adjacency of a KNN graph.

A :class:`~repro.graph.heap.NeighborHeaps` table stores *out*-edges:
``v in ids[u]`` means ``u`` keeps ``v`` as a neighbour. Two hot paths
need the opposite direction — "who keeps ``v``?":

* the serving walk expands in-edges too (a directed top-k graph is a
  poor navigation structure one-way; see ``repro.serve.searcher``);
* ``OnlineIndex.remove_user`` and ``_update`` must purge every edge
  pointing at the mutated user.

Both used to answer it with an O(n·k) sweep (a full group-by rebuild
on the read side, a full column scan on the write side) — fine for
read-heavy loads, ruinous under write storms where every mutation
invalidates the rebuild. :class:`ReverseAdjacency` keeps the in-edge
sets live instead: built once in O(n·k), then patched from the
per-edge ``(u, v, added)`` deltas the heap journal records, O(1) per
changed edge. The from-scratch build is retained both as the cold
start and as the oracle the property tests compare the maintained
state against.
"""

from __future__ import annotations

import numpy as np

from .heap import EMPTY, NeighborHeaps

__all__ = ["ReverseAdjacency"]


class ReverseAdjacency:
    """In-edge sets of a neighbour-heap table: ``holders(v) = {u : v ∈ ids[u]}``."""

    def __init__(self, n: int) -> None:
        self._in: list[set[int]] = [set() for _ in range(int(n))]
        # Per-node sorted holders() arrays, materialised on demand and
        # dropped when the node's in-edge set changes. The serving walk
        # asks for the same hot nodes' holders on every query; without
        # the cache each call pays a set→array convert + sort.
        self._holders_cache: dict[int, np.ndarray] = {}

    @classmethod
    def from_heaps(cls, heaps: NeighborHeaps) -> "ReverseAdjacency":
        """Cold build from the current edge set — one O(n·k) group-by."""
        out = cls(heaps.n)
        valid = heaps.ids.ravel() != EMPTY
        dst = heaps.ids.ravel()[valid].astype(np.int64)
        src = np.repeat(np.arange(heaps.n, dtype=np.int64), heaps.k)[valid]
        order = np.argsort(dst, kind="stable")
        dst, src = dst[order], src[order]
        bounds = np.searchsorted(dst, np.arange(heaps.n + 1, dtype=np.int64))
        rows = out._in
        for v in range(heaps.n):
            lo, hi = bounds[v], bounds[v + 1]
            if hi > lo:
                rows[v] = set(int(u) for u in src[lo:hi])
        return out

    @property
    def n(self) -> int:
        """Number of users covered."""
        return len(self._in)

    def grow(self, n: int) -> None:
        """Extend to ``n`` users; newcomers start with no in-edges."""
        while len(self._in) < n:
            self._in.append(set())

    def holders(self, v: int) -> np.ndarray:
        """Users currently keeping ``v`` as a neighbour (sorted).

        Cached per node until the next patch touching ``v``; treat the
        returned array as read-only.
        """
        cached = self._holders_cache.get(v)
        if cached is not None:
            return cached
        s = self._in[v]
        if not s:
            out = np.empty(0, dtype=np.int64)
        else:
            out = np.fromiter(s, dtype=np.int64, count=len(s))
            out.sort()
        self._holders_cache[v] = out
        return out

    def degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        return len(self._in[v])

    def apply(self, deltas: list[tuple[int, int, bool]]) -> None:
        """Patch in a drained heap journal, in recording order.

        ``(u, v, True)`` means the edge ``u -> v`` appeared, ``False``
        that it was dropped; order matters because one mutation may
        drop and re-add the same edge.
        """
        rows = self._in
        cache = self._holders_cache
        for u, v, added in deltas:
            if added:
                rows[v].add(u)
            else:
                rows[v].discard(u)
            cache.pop(v, None)

    def apply_batch(self, deltas) -> None:
        """Batched :meth:`apply` — one set edit per distinct edge.

        Set membership makes the per-``(u, v)`` history collapsible:
        only the *last* recorded flag decides whether ``u`` ends up in
        ``holders(v)`` (add/discard are idempotent), so a drop-and-
        re-add tape touches each set once instead of twice. Used by
        the journal-fed delta pipeline (every mutation and WAL recovery
        flow through it); :meth:`apply` is retained
        as the order-faithful per-edge oracle the property tests
        compare against.
        """
        last: dict[tuple[int, int], bool] = {}
        for u, v, added in deltas:
            last[(int(u), int(v))] = added
        rows = self._in
        cache = self._holders_cache
        for (u, v), added in last.items():
            if added:
                rows[v].add(u)
            else:
                rows[v].discard(u)
            cache.pop(v, None)

    def to_sets(self) -> list[set[int]]:
        """Copy of the in-edge sets (oracle comparisons in tests)."""
        return [set(s) for s in self._in]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReverseAdjacency):
            return NotImplemented
        return self._in == other._in
