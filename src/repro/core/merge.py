"""Step 3 of Cluster-and-Conquer: merging partial KNN graphs (Alg. 3).

Each user appears in ``t`` clusters (one per hashing configuration) and
is connected to up to ``t * k`` candidate neighbours; the merge keeps
the best ``k`` per user in a bounded heap. Similarity values computed
by the local solvers travel with the edges, so no similarity is ever
recomputed during the merge — the paper's "careful to reuse similarity
values" optimisation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..graph.heap import EMPTY
from ..graph.knn_graph import KNNGraph, group_by_value
from .local_knn import PartialKNN

__all__ = ["merge_partials"]


def merge_partials(partials: Iterable[PartialKNN], n_users: int, k: int) -> KNNGraph:
    """Merge per-cluster partial KNN graphs into the global graph.

    The partial rows are grouped by user and each user's ``t * k``
    candidates go to the heap in one offer. Only row indices are
    grouped, never the edges themselves, so the merge allocates
    O(rows) scratch on top of the partials it reads.
    """
    graph = KNNGraph(n_users, k)
    partials = list(partials)
    if not partials:
        return graph
    owners = np.concatenate([p.users for p in partials])
    which = np.repeat(np.arange(len(partials)), [p.users.size for p in partials])
    pos = np.concatenate([np.arange(p.users.size) for p in partials])
    for user, rows in group_by_value(np.arange(owners.size), owners):
        found = [(partials[i], j) for i, j in zip(which[rows].tolist(), pos[rows].tolist())]
        ids = np.concatenate([p.ids[j] for p, j in found])
        scores = np.concatenate([p.scores[j] for p, j in found])
        valid = ids != EMPTY
        graph.add_batch(user, ids[valid], scores[valid])
    return graph
