"""The KNN graph object returned by every algorithm in this library."""

from __future__ import annotations

import numpy as np

from ..similarity.engine import SimilarityEngine
from .heap import EMPTY, NeighborHeaps

__all__ = ["KNNGraph", "group_by_value", "random_graph"]

# Cell budget (rows × widest row) of one padded offer table built by
# :meth:`KNNGraph.add_grouped`.
_OFFER_CELLS = 1 << 18


def group_by_value(users: np.ndarray, values: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group ``users`` by their ``values``; returns (value, users) pairs.

    Groups come back in ascending value order; within a group the
    original order of ``users`` is preserved (stable sort). Shared by
    the batch cluster splitter, the online re-split
    (:meth:`repro.online.OnlineIndex._resplit`, which relies on the
    order guarantee to keep primary and replayed member lists
    identical), NN-Descent's reverse lists and the C² merge.
    """
    order = np.argsort(values, kind="stable")
    users, values = users[order], values[order]
    boundaries = np.flatnonzero(np.diff(values)) + 1
    groups = np.split(users, boundaries)
    keys = values[np.concatenate([[0], boundaries])] if users.size else []
    return [(int(k), g) for k, g in zip(keys, groups)]


class KNNGraph:
    """An (approximate) K-nearest-neighbour graph over ``n`` users.

    Thin wrapper around :class:`NeighborHeaps` adding graph-level
    queries. Construction algorithms mutate the underlying heaps; a
    finished graph is usually treated as read-only.
    """

    def __init__(self, n_users: int, k: int) -> None:
        self.heaps = NeighborHeaps(n_users, k)

    # -- structure -------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users (nodes)."""
        return self.heaps.n

    @property
    def k(self) -> int:
        """Neighbourhood capacity."""
        return self.heaps.k

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of ``u`` (unordered)."""
        return self.heaps.neighbors(u)

    def neighborhood(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of ``u``'s neighbours, best first."""
        return self.heaps.items(u)

    def add_batch(self, u: int, cands: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Offer many candidate neighbours to ``u``; returns the inserted ids."""
        row = self.heaps.offer(np.array([u]), np.asarray(cands)[None], np.asarray(scores)[None])[0]
        return row[row != EMPTY]

    def add_grouped(
        self, targets: np.ndarray, sources: np.ndarray, scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offer edge ``targets[i] -> sources[i]`` with ``scores[i]`` for every ``i``.

        The flat offers are laid out as one ``EMPTY``-padded row per
        distinct target and handed to :meth:`NeighborHeaps.offer`, in
        chunks of at most ``_OFFER_CELLS`` cells (rows × widest row) so
        one hub target cannot inflate the padding of every light one.
        Returns the distinct targets (ascending) and their ``(r, k)``
        table of inserted ids.
        """
        targets = np.asarray(targets)
        order = np.argsort(targets, kind="stable")
        sources, scores = np.asarray(sources)[order], np.asarray(scores)[order]
        rows, counts = np.unique(targets, return_counts=True)
        row_of = np.repeat(np.arange(rows.size), counts)
        col = np.arange(targets.size) - np.repeat(np.cumsum(counts) - counts, counts)
        inserted = np.empty((rows.size, self.k), dtype=np.int64)
        lo = 0
        while lo < rows.size:
            # rows × running max width is nondecreasing, so the longest
            # prefix within the budget is one binary search away.
            head = np.maximum.accumulate(counts[lo : lo + _OFFER_CELLS])
            fits = np.searchsorted(head * np.arange(1, head.size + 1), _OFFER_CELLS, side="right")
            hi = lo + max(1, int(fits))
            a, b = np.searchsorted(row_of, [lo, hi])
            ids = np.full((hi - lo, int(head[hi - lo - 1])), EMPTY)
            vals = np.full(ids.shape, -np.inf)
            cell = (row_of[a:b] - lo, col[a:b])
            ids[cell], vals[cell] = sources[a:b], scores[a:b]
            inserted[lo:hi] = self.heaps.offer(rows[lo:hi], ids, vals)
            lo = hi
        return rows, inserted

    # -- incremental maintenance (online-update subsystem) ---------------

    def grow(self, n_users: int) -> None:
        """Extend the graph to ``n_users`` nodes (new nodes edgeless)."""
        self.heaps.grow(n_users)

    def clear_user(self, u: int) -> None:
        """Drop all outgoing edges of ``u``."""
        self.heaps.clear_row(u)

    def remove_user(self, u: int, holders: np.ndarray | None = None) -> np.ndarray:
        """Detach ``u`` entirely: drop its row and every reverse edge.

        Returns the users that lost ``u`` as a neighbour (their lists
        are left one short — the online index refills them lazily the
        next time they are touched by an update). When ``holders`` —
        the rows known to keep ``u``, from a maintained
        :class:`~repro.graph.reverse.ReverseAdjacency` — is given, only
        those rows are scanned (O(holders·k)) instead of the whole
        table (O(n·k)).
        """
        self.heaps.clear_row(u)
        if holders is None:
            return self.heaps.purge_id(u)
        return self.heaps.purge_id_rows(u, holders)

    def rescore_user(self, u: int, cands: np.ndarray, scores: np.ndarray) -> None:
        """Replace ``u``'s neighbourhood with the top-k of ``cands``."""
        self.heaps.clear_row(u)
        self.add_batch(u, cands, scores)

    def offer_reverse(self, source: int, cands: np.ndarray, scores: np.ndarray) -> int:
        """Offer edge ``v -> source`` with ``scores[i]`` to each distinct ``v = cands[i]``.

        One :meth:`NeighborHeaps.offer` call with a single offer per
        row, under the same bounded-heap rule as every batch builder.
        Reuses already-computed similarity values (Jaccard is
        symmetric), the same no-recompute discipline as the C² merge
        step; returns the number of lists that gained the edge.
        """
        inserted = self.heaps.offer(cands, np.full((len(cands), 1), source), np.asarray(scores)[:, None])
        return int(np.count_nonzero(inserted != EMPTY))

    def edge_count(self) -> int:
        """Number of directed edges currently stored."""
        return int((self.heaps.ids != EMPTY).sum())

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the raw ``(ids, scores)`` arrays, shape ``(n, k)``."""
        return self.heaps.ids.copy(), self.heaps.scores.copy()

    def to_dict(self) -> dict[int, list[tuple[int, float]]]:
        """Plain-Python view ``{u: [(v, score), ...best first]}``."""
        out = {}
        for u in range(self.n_users):
            ids, scores = self.neighborhood(u)
            out[u] = [(int(v), float(s)) for v, s in zip(ids, scores)]
        return out

    def copy(self) -> "KNNGraph":
        """Deep copy of the graph."""
        g = KNNGraph(self.n_users, self.k)
        g.heaps.ids[:] = self.heaps.ids
        g.heaps.scores[:] = self.heaps.scores
        return g


def random_graph(
    engine: SimilarityEngine, k: int, seed: int = 0, users: np.ndarray | None = None
) -> KNNGraph:
    """The random ``k``-degree starting graph of greedy algorithms.

    Each user gets ``k`` distinct random neighbours with their true
    (engine-scored, counted) similarities — the paper's "initial random
    k-degree graph" whose poor graph locality C² is designed to fix.
    ``users`` (default: all of them) is the node set: node ``i`` of the
    returned graph is user ``users[i]``, which is how a cluster-local
    solver starts from the same initialisation.
    """
    rng = np.random.default_rng(seed)
    if users is None:
        users = np.arange(engine.n_users)
    n = users.size
    graph = KNNGraph(n, k)
    cands = np.empty((n, max(0, min(k, n - 1))), dtype=np.int64)
    scores = np.empty(cands.shape)
    for u in range(n):
        cands[u] = rng.choice(n - 1, size=cands.shape[1], replace=False)
        cands[u][cands[u] >= u] += 1  # skip u itself
        scores[u] = engine.one_to_many(int(users[u]), users[cands[u]])
    graph.heaps.offer(np.arange(n), cands, scores)
    return graph
