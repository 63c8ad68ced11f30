"""Step 2 of Cluster-and-Conquer: the per-cluster KNN solver (Alg. 2).

The hybrid rule follows the paper's cost model: brute force computes
``|C|(|C|-1)/2`` similarities while Hyrec is bounded by
``ρ k² |C| / 2``, so brute force wins when ``|C| < ρ k²`` (with
``ρ = 5`` iterations, the paper's setting). The split threshold
``N = 2000`` is deliberately below ``ρ k² = 4500`` "to privilege Brute
Force which tends to deliver better sub-KNNs than Hyrec".
"""

from __future__ import annotations

import numpy as np

from ..graph.heap import EMPTY
from ..graph.knn_graph import KNNGraph, random_graph
from ..similarity.engine import SimilarityEngine

__all__ = ["PartialKNN", "solve_cluster", "brute_force_local", "hyrec_graph", "hyrec_local"]

_ROW_BLOCK = 512
# Hyrec's reverse (symmetric) updates are buffered and applied in
# groups of this many users.
_FLUSH_EVERY = 256


class PartialKNN:
    """Partial KNN graph of one cluster, in global user ids.

    ``ids[p]`` / ``scores[p]`` describe the neighbourhood found for
    ``users[p]`` within the cluster (``EMPTY`` marks unused slots).
    """

    def __init__(self, users: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> None:
        self.users = users
        self.ids = ids
        self.scores = scores

    def neighborhood(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Valid ``(ids, scores)`` of the ``pos``-th cluster member."""
        mask = self.ids[pos] != EMPTY
        return self.ids[pos][mask], self.scores[pos][mask]


def brute_force_local(engine: SimilarityEngine, users: np.ndarray, k: int) -> PartialKNN:
    """Exact local KNN: all ``|C|(|C|-1)/2`` pairs within the cluster.

    Row-blocked so memory stays ``O(block * |C|)`` even for the large
    unsplit buckets the LSH baseline produces. The engine is charged
    the analytic pair count once.
    """
    users = np.asarray(users, dtype=np.int64)
    c = users.size
    ids = np.full((c, k), EMPTY, dtype=np.int32)
    scores = np.full((c, k), -np.inf, dtype=np.float64)
    if c < 2:
        return PartialKNN(users, ids, scores)

    engine.charge(c * (c - 1) // 2)
    take = min(k, c - 1)
    for start in range(0, c, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, c)
        block = engine.block(users[start:stop], users, counted=False)
        # Exclude self-similarity before the top-k selection.
        rows = np.arange(start, stop)
        block[rows - start, rows] = -np.inf
        top = np.argpartition(-block, take - 1, axis=1)[:, :take]
        rows_local = np.arange(stop - start)[:, None]
        ids[start:stop, :take] = users[top].astype(np.int32)
        scores[start:stop, :take] = block[rows_local, top]
    return PartialKNN(users, ids, scores)


def hyrec_graph(
    engine: SimilarityEngine,
    users: np.ndarray,
    k: int,
    delta: float = 0.001,
    max_iterations: int = 30,
    seed: int = 0,
) -> tuple[KNNGraph, list[int]]:
    """Hyrec (greedy neighbours-of-neighbours) over ``users``.

    Node ``i`` of the returned graph is user ``users[i]``; similarities
    are evaluated on the global engine. Starts from :func:`random_graph`
    and stops after a pass with fewer than ``δ k |users|`` heap updates
    or after ``max_iterations`` passes. Returns the graph and the
    number of updates of each pass. Both the Hyrec baseline (over all
    users) and :func:`hyrec_local` run this.
    """
    graph = random_graph(engine, k, seed, users)
    updates_log: list[int] = []
    for _ in range(max_iterations):
        updates_log.append(_hyrec_pass(engine, graph, users))
        if updates_log[-1] < delta * k * users.size:
            break
    return graph, updates_log


def _hyrec_pass(engine: SimilarityEngine, graph: KNNGraph, users: np.ndarray) -> int:
    """One Hyrec pass over every node; returns the number of updates.

    Each computed similarity updates both endpoints: the forward offer
    at once, the reverse offers buffered and handed to
    :meth:`KNNGraph.add_grouped` every ``_FLUSH_EVERY`` users, which
    bounds the buffer while keeping the updates vectorised.
    """
    last = graph.n_users - 1
    updates = 0
    reverse: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for u in range(graph.n_users):
        nbrs = graph.neighbors(u)
        non = graph.heaps.ids[nbrs]
        cands = np.unique(non[non != EMPTY]).astype(np.int64)
        cands = cands[(cands != u) & ~np.isin(cands, nbrs)]
        if cands.size:
            scores = engine.one_to_many(int(users[u]), users[cands])
            updates += graph.add_batch(u, cands, scores).size
            reverse.append((cands, np.full(cands.size, u, dtype=np.int64), scores))
        if reverse and (len(reverse) >= _FLUSH_EVERY or u == last):
            _, inserted = graph.add_grouped(*map(np.concatenate, zip(*reverse)))
            updates += int(np.count_nonzero(inserted != EMPTY))
            reverse.clear()
    return updates


def hyrec_local(
    engine: SimilarityEngine,
    users: np.ndarray,
    k: int,
    delta: float = 0.001,
    max_iterations: int = 30,
    seed: int = 0,
) -> PartialKNN:
    """Hyrec restricted to a cluster, as a :class:`PartialKNN`.

    Used when a cluster is too large for brute force; see
    :func:`hyrec_graph`.
    """
    users = np.asarray(users, dtype=np.int64)
    graph, _ = hyrec_graph(engine, users, k, delta, max_iterations, seed)
    ids, scores = graph.to_arrays()
    global_ids = np.where(ids != EMPTY, users[np.clip(ids, 0, None)], EMPTY).astype(np.int32)
    return PartialKNN(users, global_ids, scores)


def solve_cluster(
    engine: SimilarityEngine,
    users: np.ndarray,
    k: int,
    rho: int = 5,
    delta: float = 0.001,
    max_iterations: int = 30,
    seed: int = 0,
) -> PartialKNN:
    """Alg. 2: brute force if ``|C| < ρ k²``, Hyrec otherwise."""
    users = np.asarray(users, dtype=np.int64)
    if users.size < rho * k * k:
        return brute_force_local(engine, users, k)
    return hyrec_local(
        engine, users, k, delta=delta, max_iterations=max_iterations, seed=seed
    )
