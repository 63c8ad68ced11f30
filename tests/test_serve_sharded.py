"""Tests for the sharded serving front end (``QueryEngine(shards=...)``).

Two properties matter: sharding must never change answers (the same
deterministic searcher runs in every worker, so a sharded batch equals
a single-worker batch), and the engine must survive being hammered
from many threads while mutations stream in (walks run under the
index's read lock, mutations under its write lock).
"""

import sys
import threading

import numpy as np
import pytest

from repro import C2Params
from repro.obs import MetricsRegistry, Tracer
from repro.online import OnlineIndex
from repro.serve import QueryEngine


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
        sharded = QueryEngine(
            sharded_index, shards=3, cache_size=0, replicas=replicas,
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
            roots = tracer.recent()
            assert [s.name for s in roots] == ["query"] * walks
            for root in roots:
                assert [c.name for c in root.children] == ["search", "cache_store"]
        finally:
            sharded.close()
            single.close()

    def test_evaluations_are_per_walk(self, small_dataset, sharded_index):
        """Each result bills its own walk only: walks overlapping on one
        engine sum to the engine's charge and match serial walks."""
        rng = np.random.default_rng(2)
        batch = _batch(rng, small_dataset.n_items, size=200)
        sharded = QueryEngine(sharded_index, shards=2, cache_size=0)
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

    @pytest.mark.parametrize("replicas", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bit_identical_to_one_shard(
        self, small_dataset, sharded_index, shards, replicas
    ):
        """Any shard count, shared or replicated, answers exactly what
        ``shards=1`` does, and its walks sum to what the engines it
        walked were charged."""
        rng = np.random.default_rng(3)
        batch = _batch(rng, small_dataset.n_items, size=40)
        reference = QueryEngine(sharded_index, cache_size=0)
        engine = QueryEngine(
            sharded_index, shards=shards, replicas=replicas, cache_size=0
        )
        try:
            want = reference.search_many(batch)
            walked = (
                [engine.replica_set.replica(i) for i in range(shards)]
                if replicas
                else [sharded_index]
            )
            before = [index.engine.comparisons for index in walked]
            got = engine.search_many(batch)
            charged = sum(
                index.engine.comparisons - b for index, b in zip(walked, before)
            )
            for x, y in zip(got, want):
                assert np.array_equal(x.ids, y.ids)
                assert np.array_equal(x.scores, y.scores)
                assert x.evaluations == y.evaluations
            walks = {id(r): r for r in got}.values()  # in-batch dedup shares results
            assert sum(r.evaluations for r in walks) == charged
        finally:
            engine.close()
            reference.close()

    def test_shard_count_does_not_change_results(self, small_dataset, sharded_index):
        rng = np.random.default_rng(1)
        batch = _batch(rng, small_dataset.n_items)
        outs = []
        for shards in (1, 2, 4):
            engine = QueryEngine(sharded_index, shards=shards, cache_size=0)
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
            QueryEngine(sharded_index, shards=0)

    def test_cache_and_dedup(self, sharded_index):
        engine = QueryEngine(sharded_index, shards=2)
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
        engine = QueryEngine(index, shards=2)
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
        engine = QueryEngine(index, shards=2)
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

    def test_counters_survive_concurrent_batches(self, small_dataset, sharded_index):
        """More callers and shards than cores, rapid thread switches: no
        counter loses an update."""
        registry = MetricsRegistry()
        engine = QueryEngine(sharded_index, shards=4, cache_size=64, registry=registry)
        before = sharded_index.engine.comparisons
        served: list[list] = []
        errors: list[BaseException] = []

        def caller(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(5):
                    batch = _batch(rng, small_dataset.n_items, size=8)
                    batch += batch[:3]  # in-batch duplicates exercise dedup
                    served.append(engine.search_many(batch))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=caller, args=(s,)) for s in range(6)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        stats = engine.stats()
        assert stats["queries_total"] == 6 * 5 * 11
        assert stats["queries_total"] == (
            stats["cache_hits_total"] + stats["cache_misses_total"] + stats["dedup_hits_total"]
        )
        walks = stats["cache_misses_total"]
        assert registry.counter("serve_queries_total").value == walks
        assert sum(
            registry.counter("shard_misses_total", frontend="engine", shard=str(i)).value
            for i in range(4)
        ) == walks
        assert registry.counter("cache_hits_total", frontend="engine").value == (
            stats["cache_hits_total"]
        )
        # Hits re-serve a walk's result object; every walk is charged
        # to the shared engine exactly once.
        results = {id(r): r for batch in served for r in batch}.values()
        assert len(results) == walks
        assert sum(r.evaluations for r in results) == (
            sharded_index.engine.comparisons - before
        )
