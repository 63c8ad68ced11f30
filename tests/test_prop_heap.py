"""Property-based tests for the bounded neighbour heaps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import KNNGraph, NeighborHeaps

edge = st.tuples(st.integers(1, 30), st.floats(0.0, 1.0, allow_nan=False))


class TestHeapInvariants:
    @given(edges=st.lists(edge, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_scalar_pushes_keep_topk(self, edges, k):
        """After arbitrary pushes, the heap holds the top-k by score of
        the best score seen per distinct id."""
        h = NeighborHeaps(1, k)
        best: dict[int, float] = {}
        for v, s in edges:
            h.push(0, v, s)
            best[v] = max(best.get(v, -1.0), s)
        ids, scores = h.items(0)
        assert ids.size == min(k, len(best))
        if best:
            kth = sorted(best.values(), reverse=True)[: k][-1] if best else 0.0
            # every kept score is >= the k-th best overall
            assert all(s >= kth - 1e-12 for s in scores)

    @given(edges=st.lists(edge, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_no_duplicates_ever(self, edges, k):
        h = NeighborHeaps(1, k)
        for v, s in edges:
            h.push(0, v, s)
        ids = h.neighbors(0)
        assert np.unique(ids).size == ids.size

    @given(edges=st.lists(edge, min_size=1, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_offline_topk(self, edges, k):
        """push_batch == offline top-k under the (-score, id) order,
        with per-id max-score dedupe."""
        h = NeighborHeaps(1, k)
        cands = np.array([v for v, _ in edges], dtype=np.int64)
        scores = np.array([s for _, s in edges], dtype=np.float64)
        h.push_batch(0, cands, scores)

        best: dict[int, float] = {}
        for v, s in edges:
            best[v] = max(best.get(v, -1.0), s)
        ids = np.array(sorted(best))
        sc = np.array([best[int(i)] for i in ids])
        expected = set(ids[np.lexsort((ids, -sc))[:k]].tolist())
        assert set(h.neighbors(0).tolist()) == expected

    @given(
        edges=st.lists(st.tuples(st.integers(0, 2), edge), min_size=1, max_size=40),
        k=st.integers(1, 6),
        split=st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_split_invariance(self, edges, k, split):
        """Offering candidates in one batch or two must give the same
        final neighbourhood (merge associativity); the grouped offer
        equals one push_batch per target row."""
        targets = np.array([u for u, _ in edges], dtype=np.int64)
        cands = np.array([v for _, (v, _) in edges], dtype=np.int64)
        scores = np.array([s for _, (_, s) in edges], dtype=np.float64)
        split = min(split, len(edges))

        one = NeighborHeaps(3, k)
        two = NeighborHeaps(3, k)
        inserted_one = {}
        for u in range(3):
            mine = targets == u
            if mine.any():
                inserted_one[u] = one.push_batch(u, cands[mine], scores[mine])
            head, tail = mine[:split], mine[split:]
            two.push_batch(u, cands[:split][head], scores[:split][head])
            two.push_batch(u, cands[split:][tail], scores[split:][tail])

        grouped = KNNGraph(3, k)
        inserted = dict(grouped.add_grouped(targets, cands, scores))

        assert one.edge_sets() == two.edge_sets()
        assert np.array_equal(grouped.heaps.ids, one.ids)
        assert np.array_equal(grouped.heaps.scores, one.scores)
        assert inserted.keys() == inserted_one.keys()
        for u, ids in inserted_one.items():
            assert np.array_equal(inserted[u], ids)

    @given(edges=st.lists(edge, min_size=1, max_size=40), k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_reoffer(self, edges, k):
        h = NeighborHeaps(1, k)
        cands = np.array([v for v, _ in edges], dtype=np.int64)
        scores = np.array([s for _, s in edges], dtype=np.float64)
        h.push_batch(0, cands, scores)
        before = h.neighbors(0).copy()
        inserted = h.push_batch(0, cands, scores)
        assert inserted.size == 0
        assert set(h.neighbors(0).tolist()) == set(before.tolist())
