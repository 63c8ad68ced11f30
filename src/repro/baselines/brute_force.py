"""Brute-force exact KNN graph (the paper's reference baseline).

Computes every pairwise similarity — ``n(n-1)/2`` evaluations — and
keeps the top ``k`` per user. Exact with respect to the engine's
similarity (run it on an :class:`ExactEngine` for the true KNN graph
used as the quality denominator, or on GoldFinger to reproduce the
paper's BruteForce competitor, which also uses fingerprints).
"""

from __future__ import annotations

import numpy as np

from ..graph.knn_graph import KNNGraph
from ..similarity.engine import SimilarityEngine
from ..result import BuildResult, track_build

__all__ = ["brute_force_knn"]

_ROW_BLOCK = 512


def brute_force_knn(engine: SimilarityEngine, k: int = 30) -> BuildResult:
    """Exact KNN graph under ``engine``'s similarity.

    Works in row blocks of the full pairwise matrix so memory stays
    ``O(block * n)``. Symmetry is exploited internally (each pair is
    materialised in both directions by the block product), but the
    engine is charged the analytic ``n(n-1)/2`` the paper attributes
    to brute force.
    """
    n = engine.n_users
    graph = KNNGraph(n, k)
    all_users = np.arange(n, dtype=np.int64)

    with track_build(engine) as info:
        engine.charge(n * (n - 1) // 2)
        for start in range(0, n, _ROW_BLOCK):
            rows = all_users[start : start + _ROW_BLOCK]
            scores = engine.block(rows, all_users, counted=False)
            take = min(k + 1, n)  # +1 because u itself is in the row
            top = np.argpartition(-scores, take - 1, axis=1)[:, :take]
            graph.heaps.offer(rows, top, np.take_along_axis(scores, top, axis=1))

    return BuildResult(
        graph=graph,
        seconds=info["seconds"],
        comparisons=info["comparisons"],
        iterations=0,
    )
