"""End-to-end audit of the similarity-comparison accounting protocol.

The paper's hardware-independent cost metric is the number of
similarity evaluations, so the counting protocol *is* the measurement
instrument: solvers that exploit symmetry compute with
``block(..., counted=False)`` and charge an analytic pair count via
``charge()`` instead. These tests pin that protocol end to end for
every engine backend — both against the paper's closed-form cost
models and against an independent tally of the evaluations actually
performed by the backend kernels.
"""

import numpy as np
import pytest

from repro import C2Params, cluster_and_conquer
from repro.baselines import brute_force_knn
from repro.core import brute_force_local, hyrec_local, solve_cluster
from repro.online import MutableDataset, OnlineIndex
from repro.similarity import make_engine

BACKENDS = ["exact", "goldfinger", "bloom"]


def _engine(dataset, backend):
    return make_engine(dataset, backend=backend, n_bits=256)


class _Audit:
    """Independently tallies raw kernel evaluations on an engine.

    Wraps the uncounted backend hooks, so ``audit.pairs`` is the
    number of (u, v) similarity values the backend truly produced —
    the ground truth the ``comparisons`` counter is audited against.
    """

    def __init__(self, engine):
        from repro.similarity.engine import SimilarityEngine

        self.pairs = 0
        orig_otm = engine._one_to_many

        def one_to_many(user, others):
            self.pairs += int(np.asarray(others).size)
            return orig_otm(user, others)

        engine._one_to_many = one_to_many
        # Only audit _block where the backend truly overrides it — the
        # base implementation delegates to _one_to_many row by row and
        # would be double-counted.
        if type(engine)._block is not SimilarityEngine._block:
            orig_block = engine._block

            def block(us, vs):
                self.pairs += int(np.asarray(us).size * np.asarray(vs).size)
                return orig_block(us, vs)

            engine._block = block
        # Likewise the stacked kernel: the base one loops over _block.
        if type(engine)._matrices is not SimilarityEngine._matrices:
            orig_matrices = engine._matrices

            def matrices(groups):
                g, c = np.asarray(groups).shape
                self.pairs += g * c * c
                return orig_matrices(groups)

            engine._matrices = matrices


class TestAnalyticCostModels:
    """comparisons must equal the paper's closed-form counts exactly."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matrix_charges_distinct_pairs(self, small_dataset, backend):
        engine = _engine(small_dataset, backend)
        users = np.arange(40)
        engine.matrix(users)
        assert engine.comparisons == 40 * 39 // 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_brute_force_local_charges_pair_count(self, small_dataset, backend):
        engine = _engine(small_dataset, backend)
        users = np.arange(55)
        brute_force_local(engine, users, k=5)
        assert engine.comparisons == 55 * 54 // 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_brute_force_knn_charges_pair_count(self, small_dataset, backend):
        engine = _engine(small_dataset, backend)
        n = small_dataset.n_users
        brute_force_knn(engine, k=5)
        assert engine.comparisons == n * (n - 1) // 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uncounted_block_charges_nothing(self, small_dataset, backend):
        engine = _engine(small_dataset, backend)
        engine.block(np.arange(10), np.arange(20), counted=False)
        assert engine.comparisons == 0
        engine.charge(7)
        assert engine.comparisons == 7


class TestChargedMatchesPerformed:
    """Where no closed form exists (greedy solvers), the counter must
    equal an independent tally of evaluations the kernels performed."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hyrec_local_counts_every_evaluation(self, small_dataset, backend):
        engine = _engine(small_dataset, backend)
        audit = _Audit(engine)
        hyrec_local(engine, np.arange(small_dataset.n_users), k=5, seed=3)
        assert engine.comparisons == audit.pairs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solve_cluster_hybrid_accounting(self, small_dataset, backend):
        """Below the rho·k² switch the analytic charge applies even
        though the kernel materialises a full (blocked) c×c product."""
        engine = _engine(small_dataset, backend)
        audit = _Audit(engine)
        users = np.arange(30)
        solve_cluster(engine, users, k=3, rho=5)  # 30 < 45 -> brute force
        assert engine.comparisons == 30 * 29 // 2
        assert audit.pairs == 30 * 30  # one symmetric block, both directions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cluster_and_conquer_total_is_sum_of_cluster_models(
        self, small_dataset, backend
    ):
        """End to end: with every cluster below the Hyrec switch, the
        C² total must be exactly sum of |C|(|C|-1)/2 over clusters."""
        engine = _engine(small_dataset, backend)
        params = C2Params(k=10, n_buckets=32, n_hashes=4, split_threshold=100, seed=2)
        result = cluster_and_conquer(engine, params, keep_clustering=True)
        clusters = result.extra["clustering"].clusters
        assert all(c.size < params.rho * params.k**2 for c in clusters)
        expected = sum(c.size * (c.size - 1) // 2 for c in clusters)
        assert result.comparisons == expected

    def test_online_updates_are_fully_counted(self, small_dataset):
        """The online path must route every similarity through the
        counted API: the counter delta equals the kernel tally."""
        data = MutableDataset.from_dataset(small_dataset)
        engine = _engine(data, "goldfinger")
        params = C2Params(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
        index = OnlineIndex(engine, params=params)

        audit = _Audit(engine)
        base_charged = engine.comparisons
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = int(rng.choice(index.dataset.active_users()))
            index.add_items(u, [int(rng.integers(0, data.n_items))])
        assert engine.comparisons - base_charged == audit.pairs
        assert index.update_comparisons == audit.pairs
