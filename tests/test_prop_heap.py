"""Property-based tests for the bounded neighbour heaps."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import EMPTY, KNNGraph, NeighborHeaps, knn_graph

edge = st.tuples(st.integers(1, 30), st.floats(0.0, 1.0, allow_nan=False))
# Coarse scores: most offers tie with another one.
tied_edge = st.tuples(st.integers(1, 12), st.sampled_from([0.0, 0.25, 0.5]))


def _offline_topk(edges, k):
    """{id: best score} of the top-k by (-score, id) after per-id max dedupe."""
    best: dict[int, float] = {}
    for v, s in edges:
        best[v] = max(best.get(v, -1.0), s)
    ranked = sorted(best.items(), key=lambda e: (-e[1], e[0]))[:k]
    return dict(ranked)


def _row_map(graph, u):
    return dict(zip(*map(np.ndarray.tolist, graph.neighborhood(u))))


class TestHeapInvariants:
    @given(edges=st.lists(tied_edge, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_scalar_pushes_keep_topk(self, edges, k):
        """Offering candidates one at a time — as one-row offers and as
        the online reverse offer — equals one batched offer and the
        offline top-k, ties included."""
        single = KNNGraph(1, k)
        reverse = KNNGraph(31, k)
        for v, s in edges:
            single.add_batch(0, [v], [s])
            reverse.offer_reverse(v, np.array([0]), np.array([s]))
        batched = KNNGraph(1, k)
        batched.add_batch(0, [v for v, _ in edges], [s for _, s in edges])
        expected = _offline_topk(edges, k)
        assert _row_map(single, 0) == _row_map(reverse, 0) == expected
        assert _row_map(batched, 0) == expected

    @given(edges=st.lists(edge, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_no_duplicates_ever(self, edges, k):
        g = KNNGraph(1, k)
        for v, s in edges:
            g.add_batch(0, [v], [s])
        ids = g.neighbors(0)
        assert np.unique(ids).size == ids.size

    @given(edges=st.lists(edge, min_size=1, max_size=60), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_offline_topk(self, edges, k):
        """A one-row offer == offline top-k under the (-score, id) order,
        with per-id max-score dedupe."""
        g = KNNGraph(1, k)
        g.add_batch(0, [v for v, _ in edges], [s for _, s in edges])
        assert _row_map(g, 0) == _offline_topk(edges, k)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 2), tied_edge | edge), min_size=1, max_size=40
        ),
        k=st.integers(1, 6),
        split=st.integers(0, 40),
    )
    @example(  # one hub target and many light ones, over several chunks
        edges=[(0, (v, v / 32)) for v in range(1, 31)]
        + [(t, (1 + t % 5, 0.5)) for t in range(2, 30)],
        k=4,
        split=20,
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_split_invariance(self, edges, k, split):
        """Offering candidates in one batch or two gives the same final
        neighbourhood (merge associativity). A multi-row offer equals
        per-row one-row offers in ids, scores, slot layout, inserted
        ids and journal, including when the grouped offer is cut into
        several padded chunks."""
        targets = np.array([u for u, _ in edges], dtype=np.int64)
        cands = np.array([v for _, (v, _) in edges], dtype=np.int64)
        scores = np.array([s for _, (_, s) in edges], dtype=np.float64)
        split = min(split, len(edges))
        n = int(max(targets.max(), cands.max())) + 1
        graphs = {name: KNNGraph(n, k) for name in ("one", "two", "grouped", "grouped_two")}
        for g in graphs.values():
            g.heaps.attach_journal()

        def per_row(g, mask):
            out = {}
            for u in np.unique(targets[mask]).tolist():
                mine = mask & (targets == u)
                out[u] = g.add_batch(u, cands[mine], scores[mine])
            return out, g.heaps.drain_journal()

        cells = 16
        shapes = []

        def grouped(g, mask):
            offer = g.heaps.offer

            def spy(rows, ids, vals):
                shapes.append(ids.shape)
                return offer(rows, ids, vals)

            with mock.patch.object(knn_graph, "_OFFER_CELLS", cells), \
                    mock.patch.object(g.heaps, "offer", spy):
                rows, inserted = g.add_grouped(targets[mask], cands[mask], scores[mask])
            out = {u: row[row != EMPTY] for u, row in zip(rows.tolist(), inserted)}
            return out, g.heaps.drain_journal()

        every = np.ones(targets.size, dtype=bool)
        head = np.arange(targets.size) < split
        runs = [
            (per_row(graphs["one"], every), grouped(graphs["grouped"], every)),
            (per_row(graphs["two"], head), grouped(graphs["grouped_two"], head)),
            (per_row(graphs["two"], ~head), grouped(graphs["grouped_two"], ~head)),
        ]
        for (want_inserted, want_journal), (got_inserted, got_journal) in runs:
            assert got_inserted.keys() == want_inserted.keys()
            for u, ids in want_inserted.items():
                assert np.array_equal(got_inserted[u], ids)
            assert got_journal == want_journal
        for a, b in (("one", "grouped"), ("two", "grouped_two")):
            assert np.array_equal(graphs[a].heaps.ids, graphs[b].heaps.ids)
            assert np.array_equal(graphs[a].heaps.scores, graphs[b].heaps.scores)
        assert graphs["one"].heaps.edge_sets() == graphs["two"].heaps.edge_sets()
        # Padding stays within the cell budget unless one row alone exceeds it.
        assert all(r * m <= cells or r == 1 for r, m in shapes)

    @given(edges=st.lists(edge, min_size=1, max_size=40), k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_reoffer(self, edges, k):
        h = NeighborHeaps(1, k)
        cands = np.array([[v for v, _ in edges]], dtype=np.int64)
        scores = np.array([[s for _, s in edges]], dtype=np.float64)
        h.offer(np.array([0]), cands, scores)
        before = h.neighbors(0).copy()
        inserted = h.offer(np.array([0]), cands, scores)
        assert (inserted == EMPTY).all()
        assert set(h.neighbors(0).tolist()) == set(before.tolist())
