"""NN-Descent (Dong, Moses & Li, WWW 2011) — greedy KNN baseline.

Full algorithm with the classic optimisations:

* **reverse neighbourhoods** — each user's candidate pool joins her
  forward neighbours with users pointing *at* her;
* **new/old flags** — only pairs involving at least one neighbour
  inserted since the previous iteration are compared, so converged
  regions stop costing similarity evaluations;
* **sampling** — candidate lists are sampled at rate ``sample_rate``
  (Dong's ρ), bounding per-user work to ``O((ρk)²)``;
* **δ-termination** — stop when an iteration performs fewer than
  ``δ k n`` heap updates.

Unlike Hyrec, NN-Descent compares the members of a user's candidate
pool *among themselves* (a local join), updating both endpoints.
"""

from __future__ import annotations

import numpy as np

from ..graph.heap import EMPTY
from ..graph.knn_graph import KNNGraph, group_by_value, random_graph
from ..similarity.engine import SimilarityEngine
from ..result import BuildResult, track_build

__all__ = ["nndescent_knn"]

_FLUSH_EVERY = 128


def nndescent_knn(
    engine: SimilarityEngine,
    k: int = 30,
    delta: float = 0.001,
    max_iterations: int = 30,
    sample_rate: float = 1.0,
    seed: int = 0,
) -> BuildResult:
    """Build an approximate KNN graph with NN-Descent."""
    if not 0 < sample_rate <= 1:
        raise ValueError("sample_rate must be in (0, 1]")
    n = engine.n_users
    rng = np.random.default_rng(seed)
    updates_log: list[int] = []

    with track_build(engine) as info:
        graph = random_graph(engine, k, seed)
        # Every initial neighbour is "new" — it has never joined.
        new_flags: list[set[int]] = [set(map(int, graph.neighbors(u))) for u in range(n)]

        iterations = 0
        for _ in range(max_iterations):
            iterations += 1
            updates, new_flags = _iterate(
                engine, graph, new_flags, k, sample_rate, rng
            )
            updates_log.append(updates)
            if updates < delta * k * n:
                break

    return BuildResult(
        graph=graph,
        seconds=info["seconds"],
        comparisons=info["comparisons"],
        iterations=iterations,
        extra={"updates_per_iteration": updates_log},
    )


def _reverse_lists(graph: KNNGraph) -> list[np.ndarray]:
    """Reverse adjacency: ``rev[v]`` = users that list ``v``."""
    n = graph.n_users
    flat = graph.heaps.ids.ravel().astype(np.int64)
    owners = np.repeat(np.arange(n, dtype=np.int64), graph.k)
    valid = flat != EMPTY
    rev: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for v, holders in group_by_value(owners[valid], flat[valid]):
        rev[v] = holders
    return rev


def _sample(rng: np.random.Generator, pool: np.ndarray, limit: int) -> np.ndarray:
    """At most ``limit`` elements of ``pool``, sampled without replacement."""
    if pool.size <= limit:
        return pool
    return rng.choice(pool, size=limit, replace=False)


def _join_lists(
    u: int,
    graph: KNNGraph,
    rev: list[np.ndarray],
    new_flags: list[set[int]],
    limit: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``u``'s sampled new and old candidate lists (new is empty: no join)."""
    fwd = graph.neighbors(u).astype(np.int64)
    if fwd.size == 0:
        return fwd, fwd
    flags_u = new_flags[u]
    fwd_new = np.array([v for v in fwd if int(v) in flags_u], dtype=np.int64)
    fwd_old = np.setdiff1d(fwd, fwd_new, assume_unique=False)

    rev_u = rev[u]
    rev_new_mask = np.array([int(v) for v in rev_u if u in new_flags[int(v)]], dtype=np.int64)
    rev_old_pool = np.setdiff1d(rev_u, rev_new_mask, assume_unique=False)

    l_new = np.unique(
        np.concatenate([_sample(rng, fwd_new, limit), _sample(rng, rev_new_mask, limit)])
    )
    l_new = l_new[l_new != u]
    if l_new.size == 0:
        return l_new, l_new
    l_old = np.unique(
        np.concatenate([_sample(rng, fwd_old, limit), _sample(rng, rev_old_pool, limit)])
    )
    l_old = np.setdiff1d(l_old, l_new, assume_unique=False)
    return l_new, l_old[l_old != u]


def _iterate(
    engine: SimilarityEngine,
    graph: KNNGraph,
    new_flags: list[set[int]],
    k: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> tuple[int, list[set[int]]]:
    """One NN-Descent local-join pass; returns (updates, next new flags).

    Each joined pair updates both endpoints: the forward offers of a
    join at once (one row per new candidate), the reverse offers
    buffered and handed to :meth:`KNNGraph.add_grouped` once
    ``_FLUSH_EVERY`` joined rows have accumulated.
    """
    n = graph.n_users
    limit = max(1, int(round(sample_rate * k)))
    rev = _reverse_lists(graph)

    # Flags for neighbours inserted during *this* iteration.
    next_flags: list[set[int]] = [set() for _ in range(n)]
    updates = 0
    reverse: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    joined = 0

    def record(rows: np.ndarray, inserted: np.ndarray) -> int:
        hit = inserted != EMPTY
        for x, v in zip(rows[np.nonzero(hit)[0]].tolist(), inserted[hit].tolist()):
            next_flags[x].add(v)
        return int(hit.sum())

    for u in range(n):
        l_new, l_old = _join_lists(u, graph, rev, new_flags, limit, rng)
        if l_new.size:
            pool = np.concatenate([l_new, l_old])
            # Local join: new x (new ∪ old). Compute the block once and
            # charge the number of *distinct* pairs actually joined.
            scores = engine.block(l_new, pool, counted=False)
            engine.charge(l_new.size * l_old.size + l_new.size * (l_new.size - 1) // 2)

            # Row x of the block goes to x (the heap drops the x -> x
            # pair); every other cell is also offered the other way.
            offered = np.broadcast_to(pool, scores.shape)
            updates += record(l_new, graph.heaps.offer(l_new, offered, scores))
            others = offered != l_new[:, None]
            sources = np.broadcast_to(l_new[:, None], scores.shape)
            reverse.append((offered[others], sources[others], scores[others]))
            joined += l_new.size

        if reverse and (joined >= _FLUSH_EVERY or u == n - 1):
            updates += record(*graph.add_grouped(*map(np.concatenate, zip(*reverse))))
            reverse.clear()
            joined = 0

    return updates, next_flags
