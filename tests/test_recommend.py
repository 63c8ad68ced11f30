"""Unit/integration tests for repro.recommend."""

import numpy as np
import pytest

from repro.baselines import brute_force_knn
from repro.data import Dataset
from repro.graph import KNNGraph
from repro.recommend import evaluate_recall, recall_at, recommend_all, recommend_items
from repro.similarity import ExactEngine


@pytest.fixture()
def handmade():
    """u0 and u1 nearly identical; item 4 known to u1 only."""
    ds = Dataset.from_profiles(
        [
            [0, 1, 2, 3],
            [0, 1, 2, 4],
            [5, 6, 7],
            [5, 6, 8],
        ],
        n_items=9,
    )
    graph = KNNGraph(4, 2)
    graph.add_batch(0, [1], [0.6])
    graph.add_batch(1, [0], [0.6])
    graph.add_batch(2, [3], [0.5])
    graph.add_batch(3, [2], [0.5])
    return ds, graph


class TestRecommendItems:
    def test_recommends_neighbor_exclusive_item(self, handmade):
        ds, graph = handmade
        recs = recommend_items(ds, graph, user=0, n_recommendations=5)
        assert 4 in recs

    def test_excludes_own_items(self, handmade):
        ds, graph = handmade
        recs = recommend_items(ds, graph, user=0, n_recommendations=5)
        assert not set(recs) & ds.profile_set(0)

    def test_scores_order(self):
        """Items backed by more/better neighbours rank first."""
        ds = Dataset.from_profiles(
            [[0], [1, 2], [1, 3]],
            n_items=4,
        )
        graph = KNNGraph(3, 2)
        graph.add_batch(0, [1], [0.9])
        graph.add_batch(0, [2], [0.4])
        recs = recommend_items(ds, graph, user=0, n_recommendations=3)
        # item 1 scored 0.9+0.4, item 2 scored 0.9, item 3 scored 0.4
        assert list(recs) == [1, 2, 3]

    def test_no_neighbors_no_recs(self, handmade):
        ds, _ = handmade
        empty = KNNGraph(4, 2)
        assert recommend_items(ds, empty, 0).size == 0

    def test_limit_respected(self, handmade):
        ds, graph = handmade
        recs = recommend_items(ds, graph, user=0, n_recommendations=1)
        assert recs.size <= 1

    def test_recommend_all_shape(self, handmade):
        ds, graph = handmade
        recs = recommend_all(ds, graph, n_recommendations=3)
        assert len(recs) == 4


class TestRecallAt:
    def test_perfect_recall(self, handmade):
        ds, graph = handmade
        # hide item 4 from user 0's test set; the recommender finds it.
        test_indptr = np.array([0, 1, 1, 1, 1])
        test_indices = np.array([4], dtype=np.int32)
        r = recall_at(ds, graph, test_indptr, test_indices, n_recommendations=5)
        assert r == 1.0

    def test_zero_recall(self, handmade):
        ds, graph = handmade
        test_indptr = np.array([0, 1, 1, 1, 1])
        test_indices = np.array([8], dtype=np.int32)  # nobody recommends 8 to u0
        r = recall_at(ds, graph, test_indptr, test_indices, n_recommendations=5)
        assert r == 0.0

    def test_skips_users_without_test_items(self, handmade):
        ds, graph = handmade
        test_indptr = np.zeros(5, dtype=np.int64)
        test_indices = np.empty(0, dtype=np.int32)
        assert recall_at(ds, graph, test_indptr, test_indices) == 0.0


class TestEvaluateRecall:
    def test_end_to_end_beats_random(self, small_dataset):
        """KNN-based CF must beat chance by a wide margin on data with
        planted communities (the Table III sanity bar)."""

        def builder(train):
            return brute_force_knn(ExactEngine(train), k=10).graph

        result = evaluate_recall(small_dataset, builder, n_folds=3, seed=0)
        assert result.n_folds == 3
        assert len(result.fold_recalls) == 3
        # random recall ~ n_recs / n_items = 30/500 = 0.06
        assert result.mean_recall > 0.15

    def test_mean_consistent(self, small_dataset):
        def builder(train):
            return brute_force_knn(ExactEngine(train), k=5).graph

        result = evaluate_recall(small_dataset, builder, n_folds=2, seed=1)
        assert result.mean_recall == pytest.approx(
            float(np.mean(result.fold_recalls))
        )
