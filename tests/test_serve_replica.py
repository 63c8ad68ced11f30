"""Tests for the replica serving tier (``QueryEngine(replicas=True)``).

The tier's contracts: replicas converge to the primary's exact serving
state by applying shipped journal deltas (never by re-cloning, outside
``rebuild``), any replica answers exactly what the primary would, the
profile-hash miss rule spreads a batch over every replica, and a
replicated engine's ``search_async`` coalesces concurrent awaiters
exactly like a single-shard one. Plus the PR-4 cache fix: a brand-new
very-similar signup evicts the cached answers it should appear in.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import C2Params
from repro.online import OnlineIndex, StaleReplicaError
from repro.serve import QueryEngine, ReplicaSet
from repro.graph.heap import edge_digest


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


def _batch(rng, n_items, size=16):
    return [rng.integers(0, n_items, size=int(rng.integers(3, 12))) for _ in range(size)]


def _churn(index, rng, n_ops=15):
    for _ in range(n_ops):
        active = index.dataset.active_users()
        op = rng.random()
        if op < 0.4 and active.size:
            index.add_items(
                int(rng.choice(active)),
                rng.integers(0, index.dataset.n_items, size=2),
            )
        elif op < 0.7:
            index.add_user(rng.integers(0, index.dataset.n_items, size=12))
        elif active.size > 100:
            index.remove_user(int(rng.choice(active)))


class TestReplicaSet:
    def test_validation(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        with pytest.raises(ValueError):
            ReplicaSet(index, 0)

    def test_thread_replicas_track_every_mutation(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        index.reverse_index()
        replicas = ReplicaSet(index, 2)
        try:
            _churn(index, np.random.default_rng(0), n_ops=20)
            assert replicas.converged()
            assert replicas.lag() == 0
            stats = replicas.stats()
            assert stats["resyncs_total"] == 0
            assert stats["deltas_shipped_total"] == index.version
            replica = replicas.replica(0)
            # Full serving-state parity, not just edges: routing tables
            # and memberships replayed in lockstep.
            assert replica.graph.heaps.edge_sets() == index.graph.heaps.edge_sets()
            assert replica.reverse_index().to_sets() == index.reverse_index().to_sets()
            assert replica._assign == index._assign
            assert replica._members == index._members
        finally:
            replicas.close()

    def test_rebuild_forces_counted_resync(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2)
        try:
            index.rebuild()
            assert replicas.stats()["resyncs_total"] == 2  # one per replica
            assert replicas.converged()
        finally:
            replicas.close()

    def test_close_detaches_shipping(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2)
        replicas.close()
        index.add_user([1, 2, 3])
        assert replicas.stats()["deltas_shipped_total"] == 0

    def test_stale_delta_stream_raises_and_heals(self, small_dataset, tap):
        index = OnlineIndex.build(small_dataset, params=_params())
        clone = index.clone()
        deltas = []
        feed = tap(index, deltas.append, scored=True)
        try:
            index.add_user([1, 2, 3])
            index.add_user([4, 5, 6])
            with pytest.raises(StaleReplicaError):
                clone.apply_delta(deltas[1])  # gap: delta 0 never applied
            assert clone.apply_delta(deltas[0])
            assert clone.apply_delta(deltas[1])
            assert not clone.apply_delta(deltas[1])  # idempotent skip
            assert edge_digest(clone.graph.heaps) == edge_digest(index.graph.heaps)
        finally:
            feed.close()


class TestReplicaRouting:
    def test_replicas_match_single_worker_answers(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=3, replicas=True, cache_size=0)
        oracle = QueryEngine(index, cache_size=0)
        rng = np.random.default_rng(5)
        batch = _batch(rng, small_dataset.n_items)
        try:
            _churn(index, rng, n_ops=8)
            for got, want in zip(engine.search_many(batch), oracle.search_many(batch)):
                assert np.array_equal(got.ids, want.ids)
                assert got.scores == pytest.approx(want.scores)
        finally:
            engine.close()
            oracle.close()

    def test_misses_spread_across_replicas(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=3, replicas=True, cache_size=0)
        try:
            rng = np.random.default_rng(6)
            before = [
                replica.engine.comparisons
                for replica in engine.replica_set._replicas
            ]
            engine.search_many(_batch(rng, small_dataset.n_items, size=24))
            # Thread replicas charge walks to their own engine copies —
            # a rule that funnelled everything to one replica would
            # leave the others' counters untouched.
            charged = [
                replica.engine.comparisons - b
                for replica, b in zip(engine.replica_set._replicas, before)
            ]
            assert all(c > 0 for c in charged), charged
        finally:
            engine.close()

    def test_hydrate_requires_replicas(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        with pytest.raises(ValueError):
            QueryEngine(index, shards=2, hydrate=index.clone)

    def test_stats_surface_replica_counters(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=2, replicas=True)
        try:
            index.add_user([1, 2, 3])
            stats = engine.stats()
            assert stats["shards"] == 2
            assert stats["deltas_shipped_total"] == 1
            assert stats["resyncs_total"] == 0
            assert stats["replica_lag"] == 0
        finally:
            engine.close()


class TestShardedSearchAsync:
    def test_concurrent_awaiters_share_one_walk(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=2, replicas=True)
        try:
            async def burst():
                return await asyncio.gather(
                    *(engine.search_async([7, 8, 9]) for _ in range(6))
                )

            results = asyncio.run(burst())
            assert all(r is results[0] for r in results[1:])
            stats = engine.stats()
            assert stats["cache_misses_total"] == 1
            assert stats["dedup_hits_total"] == 5
        finally:
            engine.close()

    def test_mixed_k_and_oracle_equality(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=2, replicas=True, cache_size=0)
        oracle = QueryEngine(index, cache_size=0)
        try:
            async def burst():
                return await asyncio.gather(
                    engine.search_async([7, 8, 9], k=3),
                    engine.search_async([7, 8, 9], k=5),
                )

            small, large = asyncio.run(burst())
            assert len(small) == 3 and len(large) == 5
            assert np.array_equal(small.ids, oracle.search([7, 8, 9], k=3).ids)
        finally:
            engine.close()
            oracle.close()

    def test_async_dedup_survives_concurrent_mutations(self, small_dataset):
        """Bursts of awaiters race a mutator thread; answers stay sound."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=2, replicas=True)
        stop = threading.Event()

        def mutate():
            rng = np.random.default_rng(9)
            while not stop.is_set():
                _churn(index, rng, n_ops=1)

        writer = threading.Thread(target=mutate)
        writer.start()
        try:
            async def storm():
                out = []
                for wave in range(10):
                    profile = [wave, wave + 1, wave + 2]
                    results = await asyncio.gather(
                        *(engine.search_async(profile) for _ in range(4))
                    )
                    assert all(r is results[0] for r in results[1:])
                    out.extend(results)
                return out

            for result in asyncio.run(storm()):
                assert np.unique(result.ids).size == result.ids.size
                assert np.all(result.ids < index.n_users)
        finally:
            stop.set()
            writer.join(timeout=30)
            engine.close()
        assert not writer.is_alive()
        assert engine.replica_set.stats()["resyncs_total"] == 0


class TestSignupInvalidation:
    """The ROADMAP cache blind spot: a twin signup must become visible."""

    def test_twin_signup_evicts_the_answer_it_belongs_in(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, k=5)
        try:
            profile = small_dataset.profile(3)
            before = engine.search(profile)
            assert 3 in before.ids  # sanity: the existing twin tops the list
            uid = index.add_user(profile)  # identical signup
            after = engine.search(profile)
            assert after is not before  # her contacts' entries were evicted
            assert uid in after.ids  # and she appears immediately
        finally:
            engine.close()

    def test_sharded_partial_cache_gets_the_same_seeding(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, shards=2, replicas=True, k=5)
        try:
            profile = small_dataset.profile(7)
            before = engine.search(profile)
            assert 7 in before.ids
            uid = index.add_user(profile)
            after = engine.search(profile)
            assert after is not before
            assert uid in after.ids
        finally:
            engine.close()

    def test_unrelated_entries_still_survive_a_signup(self, small_dataset, tap):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, k=5)
        try:
            bystander = engine.search([7, 8])
            # A signup disjoint from the bystander's community: none of
            # its contacts appear in the cached answer, so it survives.
            contacts = set()
            tap(
                index,
                lambda delta: contacts.update(
                    x for uv in delta.edges for x in uv[:2]
                ),
            )
            fresh = small_dataset.n_items - 1
            index.add_user([fresh])
            if contacts & set(int(v) for v in bystander.ids):
                pytest.skip("random signup landed inside the bystander's answer")
            assert engine.search([7, 8]) is bystander
        finally:
            engine.close()
