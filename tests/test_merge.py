"""Unit tests for repro.core.merge (Alg. 3)."""

import numpy as np
import pytest

from repro.core import merge, merge_partials
from repro.core.local_knn import PartialKNN
from repro.graph import KNNGraph
from repro.graph.heap import EMPTY


def _per_row_merge(partials, n_users, k):
    """The reference merge: one one-row offer per (partial, user)."""
    graph = KNNGraph(n_users, k)
    for partial in partials:
        for pos, user in enumerate(partial.users):
            ids, scores = partial.neighborhood(pos)
            if ids.size:
                graph.add_batch(int(user), ids, scores)
    return graph


def _row_maps(graph):
    """Per-row {neighbour: score}, independent of slot order."""
    return [dict(zip(*map(np.ndarray.tolist, graph.neighborhood(u))))
            for u in range(graph.n_users)]


def _partial(users, edges, k):
    """Build a PartialKNN from {user: [(nbr, score), ...]}."""
    users = np.asarray(users, dtype=np.int64)
    ids = np.full((users.size, k), EMPTY, dtype=np.int32)
    scores = np.full((users.size, k), -np.inf, dtype=np.float64)
    for pos, u in enumerate(users):
        for slot, (v, s) in enumerate(edges.get(int(u), [])):
            ids[pos, slot] = v
            scores[pos, slot] = s
    return PartialKNN(users, ids, scores)


class TestMergePartials:
    def test_single_partial_roundtrip(self):
        p = _partial([0, 1], {0: [(1, 0.5)], 1: [(0, 0.5)]}, k=2)
        graph = merge_partials([p], n_users=3, k=2)
        assert graph.to_dict()[0] == [(1, 0.5)]
        assert graph.to_dict()[2] == []

    def test_keeps_best_k_across_partials(self):
        p1 = _partial([0], {0: [(1, 0.2), (2, 0.4)]}, k=2)
        p2 = _partial([0], {0: [(3, 0.9), (4, 0.1)]}, k=2)
        graph = merge_partials([p1, p2], n_users=5, k=2)
        assert {v for v, _ in graph.to_dict()[0]} == {3, 2}

    def test_duplicate_edges_not_doubled(self):
        p1 = _partial([0], {0: [(1, 0.5)]}, k=3)
        p2 = _partial([0], {0: [(1, 0.5), (2, 0.3)]}, k=3)
        graph = merge_partials([p1, p2], n_users=3, k=3)
        assert graph.to_dict()[0] == [(1, 0.5), (2, 0.3)]

    def test_merge_equals_offline_topk(self, rng):
        """Merging many partials == offline top-k over the union of all
        candidate edges (the paper's t*k -> k reduction)."""
        n, k, t = 30, 4, 5
        partials = []
        edges_by_user: dict[int, dict[int, float]] = {u: {} for u in range(n)}
        for _ in range(t):
            edges = {}
            for u in range(n):
                cands = rng.choice(n - 1, size=k, replace=False)
                cands[cands >= u] += 1
                pairs = []
                for v in cands:
                    s = round(float(rng.random()), 3)
                    # similarities are deterministic per pair: keep one value
                    s = edges_by_user[u].setdefault(int(v), s)
                    pairs.append((int(v), s))
                edges[u] = pairs
            partials.append(_partial(np.arange(n), edges, k))

        graph = merge_partials(partials, n_users=n, k=k)
        for u in range(n):
            union = edges_by_user[u]
            ids = np.array(sorted(union))
            scores = np.array([union[int(v)] for v in ids])
            order = np.lexsort((ids, -scores))[:k]
            expected = {int(ids[j]) for j in order}
            got = set(graph.neighbors(u).tolist())
            assert got == expected, f"user {u}"

    def test_empty_partials(self):
        graph = merge_partials([], n_users=4, k=2)
        assert graph.edge_count() == 0

    def test_matches_per_row_reference(self, rng, monkeypatch):
        """One grouped offer per user == the per-(partial, user) loop,
        with one pair offered at different scores, EMPTY slots anywhere
        in a row, and users in no partial."""
        n, k, t = 40, 5, 30
        partials = []
        for _ in range(t):
            # Users n-5 .. n-1 are never a cluster member.
            users = rng.choice(n - 5, size=int(rng.integers(10, n - 5)), replace=False)
            ids = np.full((users.size, k), EMPTY, dtype=np.int32)
            scores = np.full((users.size, k), -np.inf, dtype=np.float64)
            for pos, u in enumerate(users):
                m = int(rng.integers(0, k + 1))
                cands = rng.choice(n - 1, size=m, replace=False)
                cands[cands >= u] += 1
                slots = rng.permutation(k)[:m]
                ids[pos, slots] = cands
                # Coarse scores: ties, and the same pair at other scores.
                scores[pos, slots] = rng.integers(0, 8, size=m) / 8
            partials.append(PartialKNN(users.astype(np.int64), ids, scores))

        want = _per_row_merge(partials, n_users=n, k=k)
        # One block, and blocks cutting the users mid-range.
        for block in (merge._BLOCK_USERS, 7):
            monkeypatch.setattr(merge, "_BLOCK_USERS", block)
            got = merge_partials(partials, n_users=n, k=k)
            assert _row_maps(got) == _row_maps(want)
            assert got.edge_count() == want.edge_count()
            assert all(not row for row in _row_maps(got)[n - 5:])
