"""Unit tests for repro.core.local_knn (Alg. 2: hybrid local solver)."""

import numpy as np
import pytest

from repro.core import Cluster, brute_force_local, hyrec_local, solve_cluster
from repro.core.local_knn import _ROW_BLOCK, batch_clusters, brute_force_batch
from repro.graph.heap import EMPTY
from repro.similarity import ExactEngine, jaccard_matrix, make_engine


@pytest.fixture(scope="module")
def engine(small_dataset):
    return ExactEngine(small_dataset)


def _reference_local_knn(dataset, users, k):
    """Offline exact local KNN for verification."""
    sims = jaccard_matrix(dataset, users)
    np.fill_diagonal(sims, -np.inf)
    out = {}
    for pos, u in enumerate(users):
        order = np.lexsort((users, -sims[pos]))[: min(k, users.size - 1)]
        out[int(u)] = {int(users[j]) for j in order if sims[pos][j] > -np.inf}
    return out, sims


class TestBruteForceLocal:
    def test_matches_reference(self, small_dataset, engine):
        users = np.arange(0, 60)
        partial = brute_force_local(engine, users, k=5)
        ref, sims = _reference_local_knn(small_dataset, users, 5)
        for pos, u in enumerate(users):
            ids, scores = partial.neighborhood(pos)
            # scores must equal the true similarity of each edge
            for v, s in zip(ids, scores):
                assert s == pytest.approx(sims[pos][np.where(users == v)[0][0]])
            # neighbour set must be a valid top-k (allow similarity ties)
            got_min = scores.min() if scores.size else 0
            ref_scores = sorted(
                (sims[pos][j] for j in range(users.size) if j != pos), reverse=True
            )[:5]
            assert got_min == pytest.approx(min(ref_scores))

    def test_neighbors_within_cluster(self, engine):
        users = np.arange(10, 40)
        partial = brute_force_local(engine, users, k=4)
        for pos in range(users.size):
            ids, _ = partial.neighborhood(pos)
            assert np.all(np.isin(ids, users))

    def test_charges_pair_count(self, small_dataset):
        engine = ExactEngine(small_dataset)
        users = np.arange(25)
        brute_force_local(engine, users, k=3)
        assert engine.comparisons == 25 * 24 // 2

    def test_tiny_cluster(self, engine):
        partial = brute_force_local(engine, np.array([3]), k=5)
        ids, _ = partial.neighborhood(0)
        assert ids.size == 0

    def test_pair_cluster(self, engine):
        partial = brute_force_local(engine, np.array([3, 4]), k=5)
        ids, _ = partial.neighborhood(0)
        assert list(ids) == [4]

    def test_blockwise_consistency(self, engine):
        """Cluster larger than the row block must give identical output."""
        import repro.core.local_knn as mod

        users = np.arange(80)
        normal = brute_force_local(engine, users, k=4)
        old = mod._ROW_BLOCK
        try:
            mod._ROW_BLOCK = 16
            blocked = brute_force_local(engine, users, k=4)
        finally:
            mod._ROW_BLOCK = old
        assert np.array_equal(normal.ids, blocked.ids)


class TestHyrecLocal:
    def test_high_quality_vs_bruteforce(self, small_dataset, engine):
        users = np.arange(small_dataset.n_users)
        exact = brute_force_local(engine, users, k=10)
        greedy = hyrec_local(engine, users, k=10, seed=1)
        # compare average edge score
        exact_avg = exact.scores[exact.ids != EMPTY].mean()
        greedy_avg = greedy.scores[greedy.ids != EMPTY].mean()
        assert greedy_avg >= 0.9 * exact_avg

    def test_neighbors_within_cluster(self, engine):
        users = np.arange(50, 120)
        partial = hyrec_local(engine, users, k=5, seed=0)
        for pos in range(users.size):
            ids, _ = partial.neighborhood(pos)
            assert np.all(np.isin(ids, users))

    def test_global_ids_returned(self, engine):
        users = np.arange(200, 260)
        partial = hyrec_local(engine, users, k=5, seed=0)
        ids = partial.ids[partial.ids != EMPTY]
        assert ids.min() >= 200


class TestSolveCluster:
    def test_small_cluster_uses_bruteforce_cost(self, small_dataset):
        """|C| < rho*k^2 -> brute force: exactly C(|C|,2) comparisons."""
        engine = ExactEngine(small_dataset)
        users = np.arange(40)
        solve_cluster(engine, users, k=3, rho=5)  # 40 < 5*9=45
        assert engine.comparisons == 40 * 39 // 2

    def test_large_cluster_uses_hyrec(self, small_dataset):
        """|C| >= rho*k^2 -> Hyrec: far fewer than C(|C|,2) comparisons
        ... but with random init of k per user at least n*k."""
        engine = ExactEngine(small_dataset)
        users = np.arange(small_dataset.n_users)  # 300 >= 5*4=20
        solve_cluster(engine, users, k=2, rho=5)
        assert engine.comparisons < 300 * 299 // 2

    def test_switch_threshold_exact(self, small_dataset):
        """At |C| exactly rho*k^2, Hyrec is chosen (paper: strict <)."""
        engine = ExactEngine(small_dataset)
        k, rho = 3, 5
        users = np.arange(rho * k * k)  # 45 users
        solve_cluster(engine, users, k=k, rho=rho)
        # Hyrec cost differs from the brute-force pair count
        assert engine.comparisons != 45 * 44 // 2


class TestBruteForceBatch:
    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_stack_equals_lone_solves(self, small_dataset, backend):
        """Each stacked cluster selects from the same rows a lone solve
        does, so ids (ties included) and scores are identical."""
        engine = make_engine(small_dataset, backend=backend, n_bits=256)
        groups = np.random.default_rng(4).permutation(small_dataset.n_users)[:84].reshape(7, 12)
        batch = brute_force_batch(engine, groups, k=5)
        assert engine.comparisons == 7 * (12 * 11 // 2)
        for users, partial in zip(groups, batch):
            lone = brute_force_batch(engine, users[None, :], k=5)[0]
            assert np.array_equal(partial.users, users)
            assert np.array_equal(partial.ids, lone.ids)
            assert np.array_equal(partial.scores, lone.scores)

    def test_singletons_have_no_neighbours(self, engine):
        before = engine.comparisons
        batch = brute_force_batch(engine, np.array([[3], [4]]), k=2)
        assert engine.comparisons == before
        assert all((p.ids == EMPTY).all() for p in batch)


class TestBatchClusters:
    def _clusters(self, sizes):
        start, out = 0, []
        for size in sizes:
            out.append(Cluster(np.arange(start, start + size), config=0, eta=0))
            start += size
        return out

    def test_groups_equal_sizes_in_first_member_order(self):
        sizes = [5, 3, 5, 600, 3, 5, 1, 40]
        batches = batch_clusters(self._clusters(sizes), k=10, rho=5)
        assert [b.positions for b in batches] == [(0, 2, 5), (1, 4), (3,), (6,), (7,)]
        assert [b.size for b in batches] == [5, 3, 600, 1, 40]

    def test_batches_hold_at_most_a_row_block(self):
        clusters = self._clusters([100] * 12)
        batches = batch_clusters(clusters, k=10, rho=5)
        assert all(len(b.clusters) * 100 <= _ROW_BLOCK for b in batches)
        assert sorted(p for b in batches for p in b.positions) == list(range(12))

    def test_hyrec_clusters_stay_alone(self):
        """Clusters at or above rho*k^2 go to Hyrec one by one."""
        batches = batch_clusters(self._clusters([20, 20, 19, 19]), k=2, rho=5)
        assert [b.positions for b in batches] == [(0,), (1,), (2, 3)]
