"""Hyrec (Boutet et al., Middleware 2014) — greedy KNN baseline.

Starts from a random k-degree graph and iteratively compares each user
``u`` against her *neighbours' neighbours* (unlike NN-Descent, which
compares neighbours among themselves). Each computed similarity updates
both endpoints' heaps. Terminates when the number of heap updates in an
iteration falls below ``δ k n`` or after ``max_iterations``. The passes
are :func:`repro.core.local_knn.hyrec_graph` over all users, the same
code C² runs on clusters too large for brute force.
"""

from __future__ import annotations

import numpy as np

from ..core.local_knn import hyrec_graph
from ..similarity.engine import SimilarityEngine
from ..result import BuildResult, track_build

__all__ = ["hyrec_knn"]


def hyrec_knn(
    engine: SimilarityEngine,
    k: int = 30,
    delta: float = 0.001,
    max_iterations: int = 30,
    seed: int = 0,
) -> BuildResult:
    """Build an approximate KNN graph with Hyrec."""
    with track_build(engine) as info:
        graph, updates_log = hyrec_graph(
            engine, np.arange(engine.n_users), k, delta, max_iterations, seed
        )

    return BuildResult(
        graph=graph,
        seconds=info["seconds"],
        comparisons=info["comparisons"],
        iterations=len(updates_log),
        extra={"updates_per_iteration": updates_log},
    )
