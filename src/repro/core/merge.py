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
from ..graph.knn_graph import KNNGraph
from .local_knn import PartialKNN

__all__ = ["merge_partials"]

# Users per merge offer: bounds the padded (users × t·k) offer table.
_BLOCK_USERS = 512


def merge_partials(partials: Iterable[PartialKNN], n_users: int, k: int) -> KNNGraph:
    """Merge per-cluster partial KNN graphs into the global graph.

    Users are merged in blocks of ``_BLOCK_USERS``: a block's partial
    rows are gathered into one padded table, each user's ``t`` rows
    side by side, by one fancy-index into the concatenated partial
    ``ids``/``scores``, and offered to the heaps in one call. Only row
    indices are sorted, never the edges themselves.
    """
    graph = KNNGraph(n_users, k)
    partials = list(partials)
    if not partials:
        return graph
    owners = np.concatenate([p.users for p in partials])
    all_ids = np.concatenate([p.ids for p in partials])
    all_scores = np.concatenate([p.scores for p in partials])
    order = np.argsort(owners, kind="stable")  # rows of all_ids, owner-sorted
    owners = owners[order]
    rank = np.arange(owners.size) - np.searchsorted(owners, owners)  # among the owner's rows
    # Block bounds over the owner-sorted rows; empty blocks collapse.
    bounds = np.unique(np.searchsorted(owners, np.arange(0, n_users + _BLOCK_USERS, _BLOCK_USERS)))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        users, slot = np.unique(owners[lo:hi], return_inverse=True)
        rows = order[lo:hi]
        ids = np.full((users.size, (int(rank[lo:hi].max()) + 1) * k), EMPTY)
        scores = np.full(ids.shape, -np.inf)
        cells = (slot[:, None], rank[lo:hi, None] * k + np.arange(k))
        ids[cells] = all_ids[rows]
        scores[cells] = all_scores[rows]
        graph.heaps.offer(users, ids, scores)
    return graph
