"""Tests for the online-update subsystem (repro.online)."""

import numpy as np
import pytest

from repro import C2Params, cluster_and_conquer, make_engine
from repro.core import cluster_dataset, make_hash_family
from repro.data import SyntheticSpec, generate
from repro.graph.heap import EMPTY
from repro.online import ClusterRouter, MutableDataset, OnlineIndex
from repro.similarity import BloomEngine, ExactEngine, GoldFingerEngine


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


class TestMutableDataset:
    def test_from_dataset_roundtrip(self, small_dataset):
        data = MutableDataset.from_dataset(small_dataset)
        assert data.n_users == small_dataset.n_users
        assert data.n_items == small_dataset.n_items
        snap = data.snapshot()
        assert np.array_equal(snap.indptr, small_dataset.indptr)
        assert np.array_equal(snap.indices, small_dataset.indices)

    def test_add_user(self):
        data = MutableDataset(n_items=10)
        uid = data.add_user([3, 1, 3, 7])
        assert uid == 0
        assert list(data.profile(0)) == [1, 3, 7]
        assert data.n_users == 1

    def test_add_items_returns_only_new(self):
        data = MutableDataset(profiles=[[1, 2, 3]], n_items=10)
        added = data.add_items(0, [2, 3, 4, 5])
        assert list(added) == [4, 5]
        assert list(data.profile(0)) == [1, 2, 3, 4, 5]
        assert data.add_items(0, [1]).size == 0

    def test_item_universe_grows(self):
        data = MutableDataset(profiles=[[1]], n_items=2)
        data.add_items(0, [9])
        assert data.n_items == 10
        assert data.snapshot().n_items == 10

    def test_remove_user_tombstones(self):
        data = MutableDataset(profiles=[[1, 2], [3]], n_items=5)
        data.remove_user(0)
        assert not data.is_active(0)
        assert data.profile(0).size == 0
        assert data.n_users == 2  # id space unchanged
        assert list(data.active_users()) == [1]
        with pytest.raises(ValueError):
            data.add_items(0, [4])

    def test_snapshot_cache_invalidated(self):
        data = MutableDataset(profiles=[[1, 2]], n_items=5)
        s1 = data.snapshot()
        data.add_items(0, [3])
        s2 = data.snapshot()
        assert s1.n_ratings == 2 and s2.n_ratings == 3

    def test_profile_sizes_track_mutations(self):
        data = MutableDataset(profiles=[[1], [2, 3]], n_items=5)
        assert list(data.profile_sizes) == [1, 2]
        data.add_items(0, [4])
        assert list(data.profile_sizes) == [2, 2]


class TestEngineUpdateHooks:
    """update_profile must leave the engine exactly as a fresh build."""

    def _fresh_like(self, engine, snap):
        if isinstance(engine, GoldFingerEngine):
            return GoldFingerEngine(snap, n_bits=engine.n_bits, seed=engine.goldfinger.seed)
        if isinstance(engine, BloomEngine):
            return BloomEngine(snap, n_bits=engine.bloom.n_bits,
                               n_hashes=engine.bloom.n_hashes, seed=engine.bloom.seed)
        return ExactEngine(snap, metric=engine.metric)

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_add_items_matches_fresh_engine(self, backend):
        data = MutableDataset(profiles=[[0, 1, 2], [2, 3], [4, 5, 6]], n_items=8)
        engine = make_engine(data, backend=backend, n_bits=128)
        added = data.add_items(0, [7])
        engine.update_profile(0, added)
        fresh = self._fresh_like(engine, data.snapshot())
        others = np.array([1, 2])
        assert engine.one_to_many(0, others) == pytest.approx(
            fresh.one_to_many(0, others)
        )

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_new_user_matches_fresh_engine(self, backend):
        data = MutableDataset(profiles=[[0, 1, 2], [2, 3]], n_items=8)
        engine = make_engine(data, backend=backend, n_bits=128)
        uid = data.add_user([1, 2, 7])
        engine.update_profile(uid, None)
        fresh = self._fresh_like(engine, data.snapshot())
        others = np.array([0, 1])
        assert engine.one_to_many(uid, others) == pytest.approx(
            fresh.one_to_many(uid, others)
        )

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_removal_zeroes_similarity(self, backend):
        data = MutableDataset(profiles=[[0, 1, 2], [1, 2, 3]], n_items=8)
        engine = make_engine(data, backend=backend, n_bits=128)
        assert engine.pair(0, 1) > 0
        data.remove_user(1)
        engine.update_profile(1, None)
        assert engine.pair(0, 1) == 0.0

    def test_updates_are_not_counted(self):
        data = MutableDataset(profiles=[[0, 1], [2, 3]], n_items=8)
        engine = make_engine(data, backend="goldfinger", n_bits=128)
        engine.update_profile(0, data.add_items(0, [5]))
        assert engine.comparisons == 0


class TestClusterRouter:
    def test_routes_existing_users_to_their_cluster(self, small_dataset):
        """Replaying the split descent must land every user in exactly
        the cluster the batch run put them in."""
        hashes = make_hash_family(small_dataset.n_items, 32, 4, seed=3)
        clustering = cluster_dataset(small_dataset, hashes, split_threshold=25)
        router = ClusterRouter(hashes, clustering.split_paths)
        member_sets = []
        for cid, cluster in enumerate(clustering.clusters):
            router.register(cluster.config, cluster.lineage, cid)
            member_sets.append(set(int(u) for u in cluster.users))

        for config in range(clustering.n_configs):
            for u in range(small_dataset.n_users):
                _, cid = router.route(config, small_dataset.profile(u))
                assert cid >= 0 and u in member_sets[cid]

    def test_unknown_lineage_reports_miss(self):
        hashes = make_hash_family(10, 1024, 1, seed=0)
        router = ClusterRouter(hashes)
        lineage, cid = router.route(0, np.array([4]))
        assert cid == -1 and len(lineage) == 1 and lineage[0] >= 1

    def test_hash_tables_extend_for_new_items(self):
        hashes = make_hash_family(5, 16, 1, seed=0)
        router = ClusterRouter(hashes)
        router.ensure_items(50)
        lineage, _ = router.route(0, np.array([42]))
        assert 1 <= lineage[0] <= 16


@pytest.fixture(scope="module")
def online_index(small_dataset):
    index = OnlineIndex.build(small_dataset, params=_params())
    rng = np.random.default_rng(0)
    while index.n_updates < 30:  # no-op adds (item already rated) don't count
        u = int(rng.choice(index.dataset.active_users()))
        index.add_items(u, [int(rng.integers(0, small_dataset.n_items))])
    return index


class TestOnlineIndex:
    def test_requires_frh(self, small_dataset):
        with pytest.raises(ValueError):
            OnlineIndex.build(small_dataset, params=_params(hash_family="minhash"))

    def test_requires_mutable_dataset(self, small_dataset):
        engine = make_engine(small_dataset)
        with pytest.raises(TypeError):
            OnlineIndex(engine, params=_params())

    def test_graph_consistency_after_updates(self, online_index):
        ids = online_index.graph.heaps.ids
        n = online_index.n_users
        for u in range(n):
            row = ids[u][ids[u] != EMPTY]
            assert u not in row  # no self loops
            assert np.unique(row).size == row.size  # no duplicates
            assert row.size == 0 or (row >= 0).all() and (row < n).all()

    def test_scores_match_engine(self, online_index):
        """Every stored edge score equals the engine's current estimate."""
        heaps = online_index.graph.heaps
        rng = np.random.default_rng(1)
        for u in rng.choice(online_index.n_users, size=20, replace=False):
            row, scores = online_index.graph.neighborhood(int(u))
            if row.size == 0:
                continue
            fresh = online_index.engine.one_to_many(int(u), row)
            assert scores == pytest.approx(fresh)

    def test_add_user_connects_newcomer(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        # clone an existing user's profile: the twin must become a top neighbour
        twin_of = 7
        uid = index.add_user(small_dataset.profile(twin_of))
        assert uid == small_dataset.n_users
        ids, scores = index.neighborhood(uid)
        assert twin_of in ids
        assert scores[list(ids).index(twin_of)] == pytest.approx(1.0)
        # both directions exist
        assert uid in index.graph.neighbors(twin_of)

    def test_remove_user_detaches_node(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        before = index.engine.comparisons
        index.remove_user(3)
        assert index.engine.comparisons == before  # removal is free
        assert index.graph.neighbors(3).size == 0
        assert not (index.graph.heaps.ids == 3).any()
        # idempotent
        index.remove_user(3)
        # and the slot never resurfaces in later updates
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = int(rng.choice(index.dataset.active_users()))
            index.add_items(u, [int(rng.integers(0, small_dataset.n_items))])
        assert not (index.graph.heaps.ids == 3).any()

    def test_noop_update_costs_nothing(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        before = index.engine.comparisons
        added = index.add_items(5, small_dataset.profile(5))  # already present
        assert added.size == 0
        assert index.engine.comparisons == before

    def test_deterministic(self, small_dataset):
        def run():
            index = OnlineIndex.build(small_dataset, params=_params())
            rng = np.random.default_rng(9)
            for _ in range(20):
                u = int(rng.choice(index.dataset.active_users()))
                index.add_items(u, [int(rng.integers(0, small_dataset.n_items))])
            index.add_user([1, 2, 3])
            index.remove_user(0)
            return index

        a, b = run(), run()
        assert np.array_equal(a.graph.heaps.ids, b.graph.heaps.ids)
        assert a.update_comparisons == b.update_comparisons

    def test_rebuild_rebalances_in_place(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        rng = np.random.default_rng(2)
        for _ in range(15):
            index.add_user(rng.integers(0, small_dataset.n_items, size=20))
        index.remove_user(1)
        build = index.rebuild()
        assert index.build_result is build
        assert index.n_users == small_dataset.n_users + 15
        # tombstone stays detached through the rebuild
        assert index.graph.neighbors(1).size == 0
        assert not (index.graph.heaps.ids == 1).any()

    def test_stats_counters(self, online_index):
        stats = online_index.stats()
        assert stats["mutations_total"] == 30
        assert stats["update_comparisons"] > 0
        assert stats["clusters"] > 0


class TestUpdateBudget:
    """Acceptance criterion: 100 single-item updates on 5k users cost
    < 5% of a from-scratch rebuild's similarity evaluations."""

    def test_100_updates_under_5_percent_of_rebuild(self):
        spec = SyntheticSpec(
            name="s5k", n_users=5000, n_items=4000, mean_profile_size=40.0,
            n_communities=40, community_pool_size=200, min_profile_size=15,
        )
        dataset = generate(spec, seed=11)
        params = C2Params(k=10, n_buckets=1024, n_hashes=4,
                          split_threshold=300, seed=1)
        index = OnlineIndex.build(dataset, params=params)

        rng = np.random.default_rng(2)
        while index.n_updates < 100:  # retry no-op adds (item already rated)
            u = int(rng.integers(0, dataset.n_users))
            index.add_items(u, [int(rng.integers(0, dataset.n_items))])
        assert index.n_updates == 100

        rebuild = cluster_and_conquer(
            make_engine(index.dataset.snapshot()), params
        )
        assert index.update_comparisons < 0.05 * rebuild.comparisons


class TestGeometricGrowth:
    """m signups must trigger O(log m) table reallocations (not m)."""

    def test_signup_stream_reallocation_counts(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        n0 = index.n_users
        heaps = index.graph.heaps
        gf = index.engine.goldfinger
        assert heaps.reallocations == 0 and gf.reallocations == 0
        rng = np.random.default_rng(0)
        m = 300
        for _ in range(m):
            index.add_user(rng.integers(0, small_dataset.n_items, size=12))
        bound = int(np.ceil(np.log2((n0 + m) / n0))) + 1
        assert heaps.reallocations <= bound
        assert gf.reallocations <= bound
        assert index.n_users == n0 + m
        assert heaps.ids.shape == (n0 + m, index.k)

    def test_bloom_table_growth(self, tiny_dataset):
        from repro.similarity import BloomFilterTable

        table = BloomFilterTable(tiny_dataset, n_bits=128)
        n0 = tiny_dataset.n_users
        m = 200
        for pos in range(m):
            table.set_profile(n0 + pos, np.array([1, 2, 3]))
        assert table.filters.shape[0] == n0 + m
        assert table.reallocations <= int(np.ceil(np.log2((n0 + m) / n0))) + 1


class TestLazyRefill:
    """Rows degraded by remove_user recover on their next read."""

    def _degrade(self, small_dataset, n_removals=8):
        index = OnlineIndex.build(small_dataset, params=_params())
        rng = np.random.default_rng(5)
        for _ in range(n_removals):
            index.remove_user(int(rng.choice(index.dataset.active_users())))
        assert index.degraded  # removals must have left short rows
        return index

    def test_read_repairs_degraded_row(self, small_dataset):
        index = self._degrade(small_dataset)
        user = min(index.degraded)
        short = index.graph.neighbors(user).size  # raw read: still short
        assert short < index.k
        ids, scores = index.neighborhood(user)  # serviced read: refills
        assert ids.size == index.k > short
        assert user not in index.degraded
        assert index.refill_comparisons > 0
        # scores are honest: they match the engine's current estimates
        assert scores == pytest.approx(index.engine.one_to_many(user, ids))

    def test_refill_recovers_recall(self, small_dataset):
        from repro.serve import brute_force_top_k

        index = self._degrade(small_dataset)
        degraded = sorted(index.degraded)[:10]
        reference = {}
        for u in degraded:
            ref = brute_force_top_k(
                index.engine, index.dataset.profile(u), k=index.k,
            )
            reference[u] = ref.ids[ref.ids != u][: index.k]
        before = np.mean([
            np.isin(reference[u], index.graph.neighbors(u)).mean() for u in degraded
        ])
        for u in degraded:
            index.neighborhood(u)
        after = np.mean([
            np.isin(reference[u], index.graph.neighbors(u)).mean() for u in degraded
        ])
        assert after > before
        assert after >= 0.9

    def test_update_clears_degraded_flag(self, small_dataset):
        index = self._degrade(small_dataset)
        user = min(index.degraded)
        index.add_items(user, [0, 1, 2])  # full rescore repairs the row
        assert user not in index.degraded

    def test_rebuild_clears_degraded(self, small_dataset):
        index = self._degrade(small_dataset)
        index.rebuild()
        assert not index.degraded


class TestResplit:
    """Unit tests for online cluster re-split (the ISSUE-6 tentpole)."""

    def _swollen(self, small_dataset, auto_resplit, threshold=40):
        """An index plus a stream of correlated signups that swell
        whichever clusters the donor community routes to."""
        index = OnlineIndex.build(
            small_dataset,
            params=_params(split_threshold=threshold),
            auto_resplit=auto_resplit,
        )
        rng = np.random.default_rng(5)
        donor = index.dataset.profile(0)
        for _ in range(80):
            keep = donor[rng.random(donor.size) > 0.4]
            extra = rng.integers(0, index.dataset.n_items, size=6)
            index.add_user(np.union1d(keep, extra))
        return index

    def test_auto_resplit_holds_the_size_invariant(self, small_dataset):
        index = self._swollen(small_dataset, auto_resplit=True)
        stats = index.stats()
        assert stats["resplits_total"] > 0
        assert stats["rebuilds_total"] == 0
        for cid, members in enumerate(index._members):
            assert (
                len(members) <= index.params.split_threshold
                or cid in index._unsplittable
            )

    def test_disabled_resplit_lets_clusters_swell(self, small_dataset):
        index = self._swollen(small_dataset, auto_resplit=False)
        stats = index.stats()
        assert stats["resplits_total"] == 0
        assert stats["max_cluster_size"] > index.params.split_threshold

    def test_resplit_costs_zero_comparisons(self, small_dataset):
        index = self._swollen(small_dataset, auto_resplit=False)
        over = [
            cid for cid, m in enumerate(index._members)
            if len(m) > index.params.split_threshold
            and cid not in index._unsplittable
        ]
        assert over
        before = index.engine.comparisons
        for cid in over:
            index._resplit(cid)
        assert index.engine.comparisons == before
        assert index.stats()["resplits_total"] >= len(over)

    def test_resplit_keeps_members_and_assign_consistent(self, small_dataset):
        index = self._swollen(small_dataset, auto_resplit=True)
        for cid, members in enumerate(index._members):
            config, _ = index._cluster_key[cid]
            for u in members:
                assert index._assign[u][config] == cid
        for u in index.dataset.active_users():
            for config, cid in enumerate(index._assign[int(u)]):
                if cid >= 0:
                    assert int(u) in index._members[cid]

    def test_resplit_emits_one_global_event(self, small_dataset, tap):
        index = OnlineIndex.build(
            small_dataset, params=_params(split_threshold=40),
            auto_resplit=True,
        )
        events = []
        tap(index, lambda delta: events.append((delta.event, delta.user)))
        rng = np.random.default_rng(5)
        donor = index.dataset.profile(0)
        while index.stats()["resplits_total"] == 0:
            keep = donor[rng.random(donor.size) > 0.4]
            index.add_user(np.union1d(keep, rng.integers(0, 500, size=6)))
        resplits = [e for e in events if e[0] == "resplit"]
        assert resplits and all(user == -1 for _, user in resplits)

    def test_update_cap_subsamples_swollen_pools(self, small_dataset):
        """With a cap, updates against a swollen index cost less."""
        uncapped = self._swollen(small_dataset, auto_resplit=False)
        capped = self._swollen(small_dataset, auto_resplit=False)
        capped.update_cap = 40
        probe = np.arange(0, 30, dtype=np.int64)
        b0 = uncapped.engine.comparisons
        uncapped.add_user(probe)
        cost_uncapped = uncapped.engine.comparisons - b0
        b1 = capped.engine.comparisons
        capped.add_user(probe)
        cost_capped = capped.engine.comparisons - b1
        assert cost_capped < cost_uncapped
