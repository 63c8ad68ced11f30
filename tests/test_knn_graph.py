"""Unit tests for repro.graph.knn_graph and repro.graph.metrics."""

import numpy as np
import pytest

from repro.baselines import brute_force_knn
from repro.graph import KNNGraph, average_similarity, edge_recall, quality, random_graph
from repro.similarity import ExactEngine


class TestKNNGraph:
    def test_add_and_neighborhood(self):
        g = KNNGraph(3, 2)
        g.add_batch(0, [1], [0.9])
        g.add_batch(0, [2], [0.4])
        ids, scores = g.neighborhood(0)
        assert list(ids) == [1, 2]
        assert list(scores) == pytest.approx([0.9, 0.4])

    def test_edge_count(self):
        g = KNNGraph(3, 2)
        g.add_batch(0, [1], [0.9])
        g.add_batch(2, [1], [0.2])
        assert g.edge_count() == 2

    def test_to_dict(self):
        g = KNNGraph(2, 2)
        g.add_batch(0, [1], [0.5])
        d = g.to_dict()
        assert d[0] == [(1, 0.5)]
        assert d[1] == []

    def test_copy_is_deep(self):
        g = KNNGraph(2, 2)
        g.add_batch(0, [1], [0.5])
        g2 = g.copy()
        g2.add_batch(0, [1], [0.9])  # raises a copied score; then a new edge:
        g2.add_batch(1, [0], [0.3])
        assert g.neighbors(1).size == 0

    def test_to_arrays_copies(self):
        g = KNNGraph(2, 2)
        ids, _ = g.to_arrays()
        ids[0, 0] = 99
        assert g.neighbors(0).size == 0


class TestRandomGraph:
    def test_degree_and_no_self_loops(self, small_dataset):
        engine = ExactEngine(small_dataset)
        g = random_graph(engine, k=5, seed=1)
        for u in range(g.n_users):
            nbrs = g.neighbors(u)
            assert nbrs.size == 5
            assert u not in nbrs
            assert np.unique(nbrs).size == 5

    def test_scores_are_true_similarities(self, tiny_dataset):
        engine = ExactEngine(tiny_dataset)
        g = random_graph(engine, k=2, seed=0)
        for u in range(g.n_users):
            ids, scores = g.neighborhood(u)
            for v, s in zip(ids, scores):
                assert s == pytest.approx(engine._pair(u, int(v)))

    def test_counts_similarities(self, small_dataset):
        engine = ExactEngine(small_dataset)
        random_graph(engine, k=5, seed=1)
        assert engine.comparisons == small_dataset.n_users * 5

    def test_k_larger_than_population(self):
        from repro.data import Dataset

        ds = Dataset.from_profiles([[0], [1], [2]], n_items=3)
        engine = ExactEngine(ds)
        g = random_graph(engine, k=10, seed=0)
        assert g.neighbors(0).size == 2


class TestMetrics:
    @pytest.fixture(scope="class")
    def exact(self, small_dataset):
        return brute_force_knn(ExactEngine(small_dataset), k=5).graph

    def test_exact_graph_quality_is_one(self, small_dataset, exact):
        assert quality(exact, exact, small_dataset) == pytest.approx(1.0)

    def test_exact_graph_recall_is_one(self, exact):
        assert edge_recall(exact, exact) == pytest.approx(1.0)

    def test_average_similarity_range(self, small_dataset, exact):
        avg = average_similarity(exact, small_dataset)
        assert 0.0 < avg <= 1.0

    def test_random_graph_quality_below_exact(self, small_dataset, exact):
        engine = ExactEngine(small_dataset)
        rand = random_graph(engine, k=5, seed=3)
        q = quality(rand, exact, small_dataset)
        assert q < 0.9

    def test_quality_of_empty_graph_is_zero(self, small_dataset, exact):
        empty = KNNGraph(small_dataset.n_users, 5)
        assert quality(empty, exact, small_dataset) == 0.0

    def test_edge_recall_partial(self, exact, small_dataset):
        partial = KNNGraph(small_dataset.n_users, 5)
        # copy only 2 neighbours per user
        for u in range(exact.n_users):
            ids, scores = exact.neighborhood(u)
            partial.add_batch(u, ids[:2], scores[:2])
        r = edge_recall(partial, exact)
        assert 0.3 < r < 0.5

    def test_edge_recall_user_mismatch(self, exact):
        with pytest.raises(ValueError):
            edge_recall(KNNGraph(3, 5), exact)

    def test_average_similarity_counts_missing_slots_as_zero(self, small_dataset):
        g = KNNGraph(small_dataset.n_users, 10)
        g.add_batch(0, [1], [1.0])  # single edge, rest empty
        avg = average_similarity(g, small_dataset)
        from repro.similarity import jaccard_pair

        true = jaccard_pair(small_dataset.profile(0), small_dataset.profile(1))
        assert avg == pytest.approx(true / (10 * small_dataset.n_users))


class TestReverseAdjacency:
    """In-edge sets: cold build, per-edge patching, targeted detach."""

    def _graph(self, n=10, k=3, seed=2):
        from repro.graph import KNNGraph

        g = KNNGraph(n, k)
        rng = np.random.default_rng(seed)
        for u in range(n):
            cands = rng.choice(n - 1, size=k, replace=False)
            cands[cands >= u] += 1
            g.add_batch(u, cands, rng.random(k))
        return g

    def test_from_heaps_matches_bruteforce(self):
        from repro.graph import ReverseAdjacency

        g = self._graph()
        rev = ReverseAdjacency.from_heaps(g.heaps)
        for v in range(g.n_users):
            expected = {
                u for u in range(g.n_users) if (g.heaps.ids[u] == v).any()
            }
            assert set(rev.holders(v)) == expected
            assert rev.degree(v) == len(expected)

    def test_apply_tracks_journal(self):
        from repro.graph import ReverseAdjacency

        g = self._graph()
        rev = ReverseAdjacency.from_heaps(g.heaps)
        g.heaps.attach_journal()
        rng = np.random.default_rng(7)
        for _ in range(60):
            u, v = rng.choice(g.n_users, size=2, replace=False)
            g.add_batch(int(u), [int(v)], [float(rng.random())])
            rev.apply(g.heaps.drain_journal())
            assert rev.to_sets() == ReverseAdjacency.from_heaps(g.heaps).to_sets()

    def test_grow_extends_with_empty_sets(self):
        from repro.graph import ReverseAdjacency

        rev = ReverseAdjacency(3)
        rev.grow(6)
        assert rev.n == 6
        assert rev.holders(5).size == 0

    def test_remove_user_with_holders_matches_scan(self):
        from repro.graph import ReverseAdjacency

        a, b = self._graph(seed=5), self._graph(seed=5)
        rev = ReverseAdjacency.from_heaps(b.heaps)
        losers_scan = a.remove_user(4)
        losers_targeted = b.remove_user(4, holders=rev.holders(4))
        assert np.array_equal(losers_scan, losers_targeted)
        assert np.array_equal(a.heaps.ids, b.heaps.ids)
