"""Tests for the sharded serving front end (repro.serve.sharded).

Two properties matter: sharding must never change answers (the same
deterministic searcher runs in every worker, so a sharded batch equals
a single-worker batch), and the engine must survive being hammered
from many threads while mutations stream in (walks run under the
index's read lock, mutations under its write lock).
"""

import threading

import numpy as np
import pytest

from repro import C2Params
from repro.obs import MetricsRegistry, Tracer
from repro.online import OnlineIndex
from repro.serve import QueryEngine, ShardedQueryEngine


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


@pytest.fixture(scope="module")
def sharded_index(small_dataset):
    return OnlineIndex.build(small_dataset, params=_params())


def _batch(rng, n_items, size=16):
    return [rng.integers(0, n_items, size=int(rng.integers(3, 12))) for _ in range(size)]


class TestShardedDeterminism:
    @pytest.mark.parametrize("replicas", [False, True])
    def test_matches_single_worker(self, small_dataset, sharded_index, replicas):
        rng = np.random.default_rng(0)
        batch = _batch(rng, small_dataset.n_items)
        registry, tracer = MetricsRegistry(), Tracer()
        sharded = ShardedQueryEngine(
            sharded_index, n_shards=3, cache_size=0, replicas=replicas,
            registry=registry, tracer=tracer,
        )
        single = QueryEngine(sharded_index, cache_size=0)
        try:
            a = sharded.search_many(batch)
            b = single.search_many(batch)
            for x, y in zip(a, b):
                assert np.array_equal(x.ids, y.ids)
                assert x.scores == pytest.approx(y.scores)
                assert x.evaluations == y.evaluations
            # Every walk, on a shard or on a replica, reports to the
            # engine's own registry and tracer.
            walks = sharded.stats()["cache_misses_total"]
            assert registry.counter("serve_queries_total").value == walks
            assert [s.name for s in tracer.recent()] == ["search"] * walks
        finally:
            sharded.close()
            single.close()

    def test_evaluations_are_per_walk(self, small_dataset, sharded_index):
        """Each result bills its own walk only: walks overlapping on one
        engine sum to the engine's charge and match serial walks."""
        rng = np.random.default_rng(2)
        batch = _batch(rng, small_dataset.n_items, size=200)
        sharded = ShardedQueryEngine(sharded_index, n_shards=2, cache_size=0)
        single = QueryEngine(sharded_index, cache_size=0)
        try:
            before = sharded_index.engine.comparisons
            a = sharded.search_many(batch)
            charged = sharded_index.engine.comparisons - before
            b = single.search_many(batch)
            walks = {id(r): r for r in a}.values()  # in-batch dedup shares results
            assert sum(r.evaluations for r in walks) == charged
            assert [r.evaluations for r in a] == [r.evaluations for r in b]
        finally:
            sharded.close()
            single.close()

    def test_shard_count_does_not_change_results(self, small_dataset, sharded_index):
        rng = np.random.default_rng(1)
        batch = _batch(rng, small_dataset.n_items)
        outs = []
        for n_shards in (1, 2, 4):
            engine = ShardedQueryEngine(sharded_index, n_shards=n_shards, cache_size=0)
            try:
                outs.append(engine.search_many(batch))
            finally:
                engine.close()
        for results in outs[1:]:
            for x, y in zip(outs[0], results):
                assert np.array_equal(x.ids, y.ids)


class TestShardedFrontEnd:
    def test_validation(self, sharded_index):
        with pytest.raises(ValueError):
            ShardedQueryEngine(sharded_index, n_shards=0)

    def test_cache_and_dedup(self, sharded_index):
        engine = ShardedQueryEngine(sharded_index, n_shards=2)
        try:
            a = engine.search_many([[1, 2], [2, 1], [5, 9]])
            assert a[0] is a[1]  # deduped within the batch
            b = engine.search([1, 2])
            assert b is a[0]  # served from the shared cache
            stats = engine.stats()
            assert stats["cache_hits_total"] == 1
            assert stats["dedup_hits_total"] == 1
            assert stats["cache_misses_total"] == 2
        finally:
            engine.close()

    def test_partial_invalidation_is_wired(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = ShardedQueryEngine(index, n_shards=2)
        try:
            a = engine.search([1, 2, 3])
            victim = int(a.ids[0])
            index.add_items(victim, [small_dataset.n_items - 1])
            assert engine.search([1, 2, 3]) is not a
            bystander_result = engine.search([7, 8])
            other = int(
                np.setdiff1d(index.dataset.active_users(), bystander_result.ids)[0]
            )
            index.add_items(other, [small_dataset.n_items - 2])
            assert engine.search([7, 8]) is bystander_result
        finally:
            engine.close()


class TestShardedConcurrency:
    def test_queries_race_mutations(self, small_dataset):
        """Hammer one engine from 4 threads while mutations stream in."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = ShardedQueryEngine(index, n_shards=2)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    results = engine.search_many(
                        _batch(rng, small_dataset.n_items, size=4)
                    )
                    for r in results:
                        assert np.unique(r.ids).size == r.ids.size
                        assert np.all(r.ids < index.n_users)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
        try:
            for t in threads:
                t.start()
            rng = np.random.default_rng(99)
            for _ in range(25):
                op = rng.random()
                active = index.dataset.active_users()
                if op < 0.5 and active.size:
                    index.add_items(
                        int(rng.choice(active)),
                        rng.integers(0, index.dataset.n_items, size=2),
                    )
                elif op < 0.8:
                    index.add_user(rng.integers(0, index.dataset.n_items, size=12))
                elif active.size > 200:
                    index.remove_user(int(rng.choice(active)))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            engine.close()
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        # After the storm the index is still coherent: an uncached walk
        # succeeds and returns a well-formed, active-only result set.
        oracle = QueryEngine(index, cache_size=0)
        try:
            fresh = oracle.search([1, 2, 3])
            active = index.dataset.active_mask()
            assert np.unique(fresh.ids).size == fresh.ids.size
            assert all(active[v] for v in fresh.ids)
        finally:
            oracle.close()
