"""Step 2 of Cluster-and-Conquer: the per-cluster KNN solver (Alg. 2).

The hybrid rule follows the paper's cost model: brute force computes
``|C|(|C|-1)/2`` similarities while Hyrec is bounded by
``ρ k² |C| / 2``, so brute force wins when ``|C| < ρ k²`` (with
``ρ = 5`` iterations, the paper's setting). The split threshold
``N = 2000`` is deliberately below ``ρ k² = 4500`` "to privilege Brute
Force which tends to deliver better sub-KNNs than Hyrec".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.heap import EMPTY
from ..graph.knn_graph import KNNGraph, random_graph
from ..similarity.engine import SimilarityEngine
from .clustering import Cluster

__all__ = [
    "PartialKNN",
    "solve_cluster",
    "brute_force_local",
    "brute_force_batch",
    "ClusterBatch",
    "batch_clusters",
    "hyrec_graph",
    "hyrec_local",
]

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

    Clusters of up to ``_ROW_BLOCK`` users are one
    :func:`brute_force_batch`. Larger ones are row-blocked so memory
    stays ``O(block * |C|)`` even for the large unsplit buckets the LSH
    baseline produces. The engine is charged the analytic pair count
    once.
    """
    users = np.asarray(users, dtype=np.int64)
    c = users.size
    if c <= _ROW_BLOCK:
        return brute_force_batch(engine, users[None, :], k)[0]
    ids = np.full((c, k), EMPTY, dtype=np.int32)
    scores = np.full((c, k), -np.inf, dtype=np.float64)
    engine.charge(c * (c - 1) // 2)
    take = min(k, c - 1)
    for start in range(0, c, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, c)
        block = engine.block(users[start:stop], users, counted=False)
        # Exclude self-similarity before the top-k selection.
        rows = np.arange(start, stop)
        block[rows - start, rows] = -np.inf
        top = np.argpartition(-block, take - 1, axis=1)[:, :take]
        ids[start:stop, :take] = users[top].astype(np.int32)
        scores[start:stop, :take] = np.take_along_axis(block, top, axis=1)
    return PartialKNN(users, ids, scores)


def brute_force_batch(engine: SimilarityEngine, groups: np.ndarray, k: int) -> list[PartialKNN]:
    """:func:`brute_force_local` of ``G`` equal-size clusters at once.

    ``groups`` has shape ``(G, c)``, one cluster per row. The clusters
    are scored by one :meth:`SimilarityEngine.matrices` call and their
    top-``k`` rows selected by one ``argpartition``, so a batch costs a
    handful of numpy calls however many clusters it holds. Each
    cluster's rows are the same arrays a lone solve would select from,
    so the result is identical to solving the clusters one by one.
    """
    groups = np.asarray(groups, dtype=np.int64)
    g, c = groups.shape
    ids = np.full((g, c, k), EMPTY, dtype=np.int32)
    scores = np.full((g, c, k), -np.inf, dtype=np.float64)
    if c >= 2:
        block = engine.matrices(groups)
        diag = np.arange(c)
        block[:, diag, diag] = -np.inf
        take = min(k, c - 1)
        top = np.argpartition(-block, take - 1, axis=-1)[..., :take]
        ids[..., :take] = np.take_along_axis(groups[:, None, :], top, axis=-1)
        scores[..., :take] = np.take_along_axis(block, top, axis=-1)
    return [PartialKNN(users, ids[pos], scores[pos]) for pos, users in enumerate(groups)]


@dataclass(frozen=True)
class ClusterBatch:
    """One work item of step 2: clusters of equal size solved together.

    ``positions`` index the members in the clustering's cluster list.
    ``size`` is each member's size, so the largest-first schedule
    orders batches as it ordered their clusters.
    """

    positions: tuple[int, ...]
    clusters: tuple[Cluster, ...]

    @property
    def size(self) -> int:
        """Number of users in each member cluster."""
        return self.clusters[0].size


def batch_clusters(clusters: Sequence[Cluster], k: int, rho: int = 5) -> list[ClusterBatch]:
    """Group clusters into step-2 work items, ordered by first member.

    Brute-forced clusters (``|C| < ρ k²``) of up to ``_ROW_BLOCK``
    users that share a size are stacked for :func:`brute_force_batch`,
    at most ``_ROW_BLOCK`` users per batch (the rows one block of the
    row-blocked path holds). Every other cluster is a batch of one. A
    C² build has thousands of tiny clusters: solved one by one, their
    per-call overhead holds the GIL and keeps the thread pool from
    running in parallel.
    """
    stacked: dict[int, list[int]] = {}
    groups: list[list[int]] = []
    for pos, cluster in enumerate(clusters):
        if cluster.size <= _ROW_BLOCK and cluster.size < rho * k * k:
            stacked.setdefault(cluster.size, []).append(pos)
        else:
            groups.append([pos])
    for size, positions in stacked.items():
        step = max(1, _ROW_BLOCK // max(1, size))
        groups.extend(positions[i : i + step] for i in range(0, len(positions), step))
    groups.sort(key=lambda group: group[0])
    return [
        ClusterBatch(tuple(group), tuple(clusters[pos] for pos in group)) for group in groups
    ]


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
