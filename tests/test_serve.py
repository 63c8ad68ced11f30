"""Tests for the query-serving subsystem (repro.serve)."""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro import C2Params
from repro.cli import main
from repro.obs import MetricsRegistry, Tracer
from repro.online import MutableDataset, OnlineIndex
from repro.recommend import recommend_from_neighbors
from repro.serve import (
    GraphSearcher,
    QueryEngine,
    Recommender,
    SearchResult,
    brute_force_top_k,
)
from repro.similarity import make_engine


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


@pytest.fixture(scope="module")
def served_index(small_dataset):
    return OnlineIndex.build(small_dataset, params=_params())


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


class TestQueryProtocol:
    """prepare_query/query_many must agree with the in-index path."""

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_matches_one_to_many_for_indexed_profiles(self, small_dataset, backend):
        engine = make_engine(
            MutableDataset.from_dataset(small_dataset), backend=backend, n_bits=256
        )
        others = np.arange(1, 40)
        query = engine.prepare_query(small_dataset.profile(0))
        assert engine.query_many(query, others) == pytest.approx(
            engine.one_to_many(0, others)
        )

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_charges_per_candidate_and_prep_is_free(self, small_dataset, backend):
        engine = make_engine(
            MutableDataset.from_dataset(small_dataset), backend=backend, n_bits=256
        )
        before = engine.comparisons
        query = engine.prepare_query([1, 2, 3])
        assert engine.comparisons == before
        engine.query_many(query, np.arange(25))
        assert engine.comparisons == before + 25

    def test_exact_cosine_metric(self, small_dataset):
        engine = make_engine(
            MutableDataset.from_dataset(small_dataset), backend="exact", metric="cosine"
        )
        others = np.arange(1, 20)
        query = engine.prepare_query(small_dataset.profile(0))
        assert engine.query_many(query, others) == pytest.approx(
            engine.one_to_many(0, others)
        )

    @pytest.mark.parametrize("backend", ["exact", "goldfinger", "bloom"])
    def test_unseen_items_do_not_crash(self, small_dataset, backend):
        engine = make_engine(
            MutableDataset.from_dataset(small_dataset), backend=backend, n_bits=256
        )
        huge = small_dataset.n_items + 1000
        query = engine.prepare_query([huge, huge + 1])
        sims = engine.query_many(query, np.arange(10))
        assert sims.shape == (10,)

    def test_exact_unseen_items_count_toward_union(self, tiny_dataset):
        engine = make_engine(MutableDataset.from_dataset(tiny_dataset), backend="exact")
        # u0 = {0,1,2,3}; query = {0,1,2,3, 100} -> J = 4/5
        query = engine.prepare_query([0, 1, 2, 3, 100])
        assert engine.query_many(query, np.array([0]))[0] == pytest.approx(4 / 5)

    @pytest.mark.parametrize("backend", ["goldfinger", "bloom"])
    def test_queries_never_grow_shared_item_tables(self, small_dataset, backend):
        """A read with a huge item id must not allocate O(id) memory."""
        engine = make_engine(
            MutableDataset.from_dataset(small_dataset), backend=backend, n_bits=256
        )
        table = engine.goldfinger if backend == "goldfinger" else engine.bloom
        words = table._item_words if backend == "goldfinger" else table._item_words[0]
        size_before = words.size
        query = engine.prepare_query([1, 2, 50_000_000])
        engine.query_many(query, np.arange(5))
        words = table._item_words if backend == "goldfinger" else table._item_words[0]
        assert words.size == size_before

    def test_unseen_item_hash_matches_extended_table(self, tiny_dataset):
        """On-the-fly hashing must equal extend-then-fingerprint."""
        from repro.similarity import GoldFinger

        a = GoldFinger(tiny_dataset, n_bits=128, seed=7)
        on_the_fly = a.fingerprint_profile([1, 2, 500])
        a._ensure_items(501)
        extended = a.fingerprint_profile([1, 2, 500])
        assert np.array_equal(on_the_fly, extended)


class TestGraphSearcher:
    def test_twin_profile_is_top_result(self, small_dataset, served_index):
        searcher = GraphSearcher(served_index)
        twin_of = 11
        result = searcher.top_k(small_dataset.profile(twin_of), k=5)
        assert result.ids[0] == twin_of
        assert result.scores[0] == pytest.approx(1.0)

    def test_deterministic(self, served_index):
        searcher = GraphSearcher(served_index)
        a = searcher.top_k([1, 5, 9, 200], k=6)
        b = searcher.top_k([1, 5, 9, 200], k=6)
        assert np.array_equal(a.ids, b.ids)
        assert a.scores == pytest.approx(b.scores)
        assert a.evaluations == b.evaluations

    def test_counts_evaluations_through_engine(self, served_index):
        searcher = GraphSearcher(served_index)
        before = served_index.engine.comparisons
        result = searcher.top_k([3, 7, 42], k=5)
        assert served_index.engine.comparisons - before == result.evaluations
        assert result.evaluations > 0

    def test_budget_is_respected(self, served_index):
        searcher = GraphSearcher(served_index, budget=40)
        result = searcher.top_k([3, 7, 42], k=5)
        assert result.evaluations <= 40

    def test_exclude(self, small_dataset, served_index):
        searcher = GraphSearcher(served_index)
        profile = small_dataset.profile(11)
        result = searcher.top_k(profile, k=5, exclude=(11,))
        assert 11 not in result.ids

    def test_empty_profile(self, served_index):
        searcher = GraphSearcher(served_index)
        result = searcher.top_k([], k=5)
        assert len(result) == 5  # arbitrary users, all zero-similar
        assert result.scores == pytest.approx(np.zeros(5))

    def test_results_sorted_best_first(self, served_index):
        searcher = GraphSearcher(served_index)
        result = searcher.top_k([1, 5, 9, 200], k=8)
        assert np.all(np.diff(result.scores) <= 0)
        assert np.unique(result.ids).size == result.ids.size

    def test_never_returns_tombstones(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        searcher = GraphSearcher(index)
        victim = int(searcher.top_k(small_dataset.profile(4), k=1).ids[0])
        index.remove_user(victim)
        result = searcher.top_k(small_dataset.profile(4), k=10)
        assert victim not in result.ids

    def test_huge_item_id_query_is_safe(self, served_index):
        """Out-of-universe ids neither crash nor grow router tables."""
        searcher = GraphSearcher(served_index)
        hash_table = served_index._router._hashes[0]
        size_before = hash_table.table.size
        result = searcher.top_k([1, 2, 50_000_000], k=5)
        assert len(result) == 5
        assert hash_table.table.size == size_before

    def test_brute_force_reference(self, small_dataset, served_index):
        profile = small_dataset.profile(2)
        ref = brute_force_top_k(served_index.engine, profile, k=3)
        assert isinstance(ref, SearchResult)
        assert ref.evaluations == served_index.dataset.active_users().size
        assert ref.ids[0] == 2 and ref.scores[0] == pytest.approx(1.0)


class TestExactRerank:
    """rerank="exact" re-scores the final frontier from raw profiles."""

    def test_invalid_params_rejected(self, served_index):
        with pytest.raises(ValueError):
            GraphSearcher(served_index, rerank="approximate")

    def test_rerank_scores_are_exact_jaccard(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params(), backend="goldfinger")
        searcher = GraphSearcher(index, rerank="exact")
        profile = np.unique(small_dataset.profile(3)[:12])
        result = searcher.top_k(profile, k=5)
        for v, s in zip(result.ids, result.scores):
            other = small_dataset.profile(int(v))
            inter = np.intersect1d(profile, other).size
            union = profile.size + other.size - inter
            assert s == pytest.approx(inter / union)

    def test_rerank_evaluations_are_charged(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params(), backend="goldfinger")
        plain = GraphSearcher(index)
        rerank = GraphSearcher(index, rerank="exact")
        profile = small_dataset.profile(9)[:15]
        before = index.engine.comparisons
        result = rerank.top_k(profile, k=5)
        assert index.engine.comparisons - before == result.evaluations
        # the frontier re-scoring costs extra (counted) evaluations
        assert result.evaluations > plain.top_k(profile, k=5).evaluations

    def test_rerank_deterministic(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params(), backend="goldfinger")
        searcher = GraphSearcher(index, rerank="exact")
        a = searcher.top_k([1, 5, 9, 200], k=6)
        b = searcher.top_k([1, 5, 9, 200], k=6)
        assert np.array_equal(a.ids, b.ids)
        assert a.scores == pytest.approx(b.scores)


class TestOutOfSampleRecall:
    """Graph-walk answers must track brute force for unseen profiles."""

    def test_recall_at_10_vs_brute_force(self, medium_dataset):
        rng = np.random.default_rng(3)
        index = OnlineIndex.build(
            medium_dataset, params=_params(k=10, n_buckets=128, split_threshold=120)
        )
        searcher = GraphSearcher(index, ef=32)
        recalls, fractions = [], []
        for _ in range(40):
            base = medium_dataset.profile(int(rng.integers(0, medium_dataset.n_users)))
            profile = base[rng.random(base.size) > 0.3]
            result = searcher.top_k(profile, k=10)
            reference = brute_force_top_k(index.engine, profile, k=10)
            recalls.append(float(np.isin(reference.ids, result.ids).mean()))
            fractions.append(result.evaluations / reference.evaluations)
        assert np.mean(recalls) >= 0.85
        assert np.mean(fractions) < 0.6  # small n: walk overhead dominates


class TestQueryEngine:
    def test_cache_hit_returns_same_result(self, served_index):
        queries = QueryEngine(served_index)
        try:
            a = queries.search([1, 2, 3])
            b = queries.search([3, 2, 1, 1])  # canonicalised to the same key
            assert b is a
            assert queries.stats()["cache_hits_total"] == 1
        finally:
            queries.close()

    def test_mutation_invalidates_cache_full_mode(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index, invalidation="full")
        try:
            a = queries.search([1, 2, 3])
            index.add_items(0, [small_dataset.n_items - 1])
            b = queries.search([1, 2, 3])
            assert b is not a
            assert queries.stats()["evictions_total"] >= 1
        finally:
            queries.close()

    def test_partial_mode_evicts_entries_touching_mutated_user(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)  # partial is the default
        try:
            assert queries.invalidation == "partial"
            a = queries.search([1, 2, 3])
            victim = int(a.ids[0])
            index.add_items(victim, [small_dataset.n_items - 1])
            b = queries.search([1, 2, 3])
            assert b is not a  # result set contained the mutated user
            assert queries.stats()["evictions_total"] >= 1
        finally:
            queries.close()

    def test_partial_mode_keeps_untouched_entries(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)
        try:
            a = queries.search([1, 2, 3])
            bystander = int(
                np.setdiff1d(index.dataset.active_users(), a.ids)[0]
            )
            index.add_items(bystander, [small_dataset.n_items - 1])
            assert queries.search([1, 2, 3]) is a  # survived the write
            assert queries.stats()["cache_hits_total"] == 1
        finally:
            queries.close()

    def test_partial_mode_covers_batched_entries(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)
        try:
            (a,) = queries.search_many([[1, 2, 3]])
            victim = int(a.ids[0])
            index.add_items(victim, [small_dataset.n_items - 1])
            assert queries.search([1, 2, 3]) is not a
            (bystander,) = queries.search_many([[7, 8]])
            other = int(
                np.setdiff1d(index.dataset.active_users(), bystander.ids)[0]
            )
            index.add_items(other, [small_dataset.n_items - 2])
            assert queries.search([7, 8]) is bystander
        finally:
            queries.close()

    def test_partial_mode_never_serves_removed_user(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)
        try:
            a = queries.search([1, 2, 3])
            victim = int(a.ids[0])
            index.remove_user(victim)
            b = queries.search([1, 2, 3])
            assert b is not a
            assert victim not in b.ids
        finally:
            queries.close()

    def test_rebuild_clears_partial_cache(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)
        try:
            a = queries.search([1, 2, 3])
            index.rebuild()
            assert queries.search([1, 2, 3]) is not a
        finally:
            queries.close()

    def test_batch_dedup(self, served_index):
        queries = QueryEngine(served_index, cache_size=0)  # isolate dedup from cache
        try:
            results = queries.search_many([[1, 2], [5, 9], [2, 1], [1, 2]])
            assert results[0] is results[2] is results[3]
            assert results[1] is not results[0]
            stats = queries.stats()
            assert stats["cache_misses_total"] == 2
            assert stats["dedup_hits_total"] == 2
        finally:
            queries.close()

    def test_batch_results_fill_the_cache(self, served_index):
        queries = QueryEngine(served_index)
        try:
            a = queries.search_many([[1, 2], [2, 1], [5, 9]])
            assert a[0] is a[1]  # deduped within the batch
            assert queries.search([1, 2]) is a[0]  # served from the cache
            stats = queries.stats()
            assert stats["cache_hits_total"] == 1
            assert stats["dedup_hits_total"] == 1
            assert stats["cache_misses_total"] == 2
        finally:
            queries.close()

    def test_batch_is_bit_identical_to_single_searches(
        self, small_dataset, served_index
    ):
        """A batch answers exactly what one-at-a-time searches do, and
        its walks sum to what the similarity engine was charged."""
        rng = np.random.default_rng(3)
        batch = _batch(rng, small_dataset.n_items, size=40)
        queries = QueryEngine(served_index, cache_size=0)
        reference = QueryEngine(served_index, cache_size=0)
        try:
            before = served_index.engine.comparisons
            got = queries.search_many(batch)
            charged = served_index.engine.comparisons - before
            for x, profile in zip(got, batch):
                y = reference.search(profile)
                assert np.array_equal(x.ids, y.ids)
                assert np.array_equal(x.scores, y.scores)
                assert x.evaluations == y.evaluations
            walks = {id(r): r for r in got}.values()  # in-batch dedup shares results
            assert sum(r.evaluations for r in walks) == charged
        finally:
            queries.close()
            reference.close()

    def test_lru_eviction(self, served_index):
        queries = QueryEngine(served_index, cache_size=2)
        try:
            a = queries.search([1])
            queries.search([2])
            queries.search([3])  # evicts [1]
            assert queries.stats()["cache_entries"] == 2
            assert queries.search([1]) is not a
        finally:
            queries.close()

    def test_close_detaches_hook(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index, invalidation="full")
        queries.close()
        index.add_items(0, [small_dataset.n_items - 1])  # must not raise
        # full mode: version stamps still protect stale reads post-close
        a = queries.search([4, 5])
        index.add_items(1, [small_dataset.n_items - 1])
        assert queries.search([4, 5]) is not a

    def test_close_clears_partial_cache(self, small_dataset):
        # A closed partial-mode engine no longer sees mutations, so it
        # must not keep answers around that nothing will ever evict.
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index)
        a = queries.search([4, 5])
        queries.close()
        assert queries.stats()["cache_entries"] == 0
        assert queries.search([4, 5]) is not a

    def test_async_concurrent_queries_share_one_batch(self, served_index):
        queries = QueryEngine(served_index)
        try:
            async def burst():
                return await asyncio.gather(
                    *(queries.search_async([7, 8, 9]) for _ in range(6))
                )

            results = asyncio.run(burst())
            assert all(r is results[0] for r in results)
            stats = queries.stats()
            assert stats["cache_misses_total"] == 1
            assert stats["dedup_hits_total"] == 5
        finally:
            queries.close()

    def test_async_mixed_k(self, served_index):
        queries = QueryEngine(served_index)
        try:
            async def burst():
                return await asyncio.gather(
                    queries.search_async([7, 8, 9], k=3),
                    queries.search_async([7, 8, 9], k=5),
                )

            small, large = asyncio.run(burst())
            assert len(small) == 3 and len(large) == 5
        finally:
            queries.close()

    def test_concurrent_awaiters_share_one_walk(self, small_dataset):
        """Six awaiters of one profile cost the similarity engine one walk."""
        index = OnlineIndex.build(small_dataset, params=_params())
        registry = MetricsRegistry()
        queries = QueryEngine(index, registry=registry)
        try:
            async def burst():
                return await asyncio.gather(
                    *(queries.search_async([7, 8, 9]) for _ in range(6))
                )

            before = index.engine.comparisons
            results = asyncio.run(burst())
            assert all(r is results[0] for r in results[1:])
            assert index.engine.comparisons - before == results[0].evaluations
            assert registry.counter("serve_queries_total").value == 1
        finally:
            queries.close()

    def test_async_mixed_k_matches_sync_oracle(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        queries = QueryEngine(index, cache_size=0)
        oracle = QueryEngine(index, cache_size=0)
        try:
            async def burst():
                return await asyncio.gather(
                    queries.search_async([7, 8, 9], k=3),
                    queries.search_async([7, 8, 9], k=5),
                )

            small, large = asyncio.run(burst())
            for got, k in ((small, 3), (large, 5)):
                want = oracle.search([7, 8, 9], k=k)
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.scores, want.scores)
        finally:
            queries.close()
            oracle.close()


class TestEngineConcurrency:
    """One serial engine driven by several caller threads.

    Walks run under the index's read lock and mutations under its write
    lock; the cache and counters take their own locks.
    """

    @pytest.mark.parametrize("entry", ["search_many", "search_async"])
    def test_walks_report_to_engine_registry_and_tracer(
        self, small_dataset, served_index, entry
    ):
        rng = np.random.default_rng(0)
        batch = _batch(rng, small_dataset.n_items)
        registry, tracer = MetricsRegistry(), Tracer()
        engine = QueryEngine(
            served_index, cache_size=0, registry=registry, tracer=tracer
        )
        oracle = QueryEngine(served_index, cache_size=0)
        try:
            if entry == "search_many":
                got = engine.search_many(batch)
            else:
                async def burst():
                    return await asyncio.gather(
                        *(engine.search_async(p) for p in batch)
                    )

                got = asyncio.run(burst())
            for x, y in zip(got, oracle.search_many(batch)):
                assert np.array_equal(x.ids, y.ids)
                assert x.evaluations == y.evaluations
            walks = engine.stats()["cache_misses_total"]
            assert registry.counter("serve_queries_total").value == walks
            roots = tracer.recent()
            assert [s.name for s in roots] == ["query"] * walks
            for root in roots:
                assert [c.name for c in root.children] == ["search", "cache_store"]
        finally:
            engine.close()
            oracle.close()

    def test_evaluations_are_per_walk(self, small_dataset, served_index):
        """Each result bills its own walk only: walks overlapping on one
        engine from several caller threads sum to the engine's charge
        and match serial walks."""
        rng = np.random.default_rng(2)
        batches = [_batch(rng, small_dataset.n_items, size=50) for _ in range(4)]
        engine = QueryEngine(served_index, cache_size=0)
        serial = QueryEngine(served_index, cache_size=0)
        got: dict[int, list] = {}
        errors: list[BaseException] = []

        def caller(i: int) -> None:
            try:
                got[i] = engine.search_many(batches[i])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        try:
            before = served_index.engine.comparisons
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            charged = served_index.engine.comparisons - before
            assert not errors, errors
            assert not any(t.is_alive() for t in threads)
            walks = {id(r): r for i in got for r in got[i]}.values()
            assert sum(r.evaluations for r in walks) == charged
            for i, batch in enumerate(batches):
                want = serial.search_many(batch)
                assert [r.evaluations for r in got[i]] == [
                    r.evaluations for r in want
                ]
                for x, y in zip(got[i], want):
                    assert np.array_equal(x.ids, y.ids)
                    assert np.array_equal(x.scores, y.scores)
        finally:
            engine.close()
            serial.close()

    def test_queries_race_mutations(self, small_dataset):
        """Hammer one engine from 4 threads while mutations stream in."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index)
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

    def test_counters_survive_concurrent_batches(self, small_dataset, served_index):
        """More callers than cores, rapid thread switches: no counter
        loses an update."""
        registry = MetricsRegistry()
        engine = QueryEngine(served_index, cache_size=64, registry=registry)
        before = served_index.engine.comparisons
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
        assert registry.counter("cache_hits_total", frontend="engine").value == (
            stats["cache_hits_total"]
        )
        # Hits re-serve a walk's result object; every walk is charged
        # to the engine exactly once.
        results = {id(r): r for batch in served for r in batch}.values()
        assert len(results) == walks
        assert sum(r.evaluations for r in results) == (
            served_index.engine.comparisons - before
        )

    def test_async_dedup_survives_concurrent_mutations(self, small_dataset):
        """Bursts of awaiters race a mutator thread; answers stay sound."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index)
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


class TestSignupInvalidation:
    """A brand-new signup must become visible in cached answers."""

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

    def test_twin_signup_reaches_batched_answers(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, k=5)
        try:
            profile = small_dataset.profile(7)
            (before,) = engine.search_many([profile])
            assert 7 in before.ids
            uid = index.add_user(profile)
            after = engine.search_many([profile, profile])
            assert after[0] is after[1] is not before
            assert uid in after[0].ids
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


class TestRecommender:
    def test_recommends_unseen_items(self, small_dataset, served_index):
        queries = QueryEngine(served_index)
        try:
            recommender = Recommender(queries, n_neighbors=8)
            profile = small_dataset.profile(6)[:10]
            items = recommender.recommend(profile, n_recommendations=5)
            assert 0 < items.size <= 5
            assert not np.isin(items, profile).any()
        finally:
            queries.close()

    def test_matches_manual_scoring(self, small_dataset, served_index):
        queries = QueryEngine(served_index)
        try:
            recommender = Recommender(queries, n_neighbors=8)
            profile = np.unique(small_dataset.profile(6)[:10])
            items = recommender.recommend(profile)
            result = queries.search(profile, k=8)
            expected = recommend_from_neighbors(
                served_index.dataset, profile, result.ids, result.scores, 30
            )
            assert np.array_equal(items, expected)
        finally:
            queries.close()

    def test_zero_recommendations_returns_empty(self, small_dataset, served_index):
        queries = QueryEngine(served_index)
        try:
            recommender = Recommender(queries, n_neighbors=8)
            items = recommender.recommend(small_dataset.profile(6), n_recommendations=0)
            assert items.size == 0
        finally:
            queries.close()

    def test_async_path(self, small_dataset, served_index):
        queries = QueryEngine(served_index)
        try:
            recommender = Recommender(queries, n_neighbors=8)
            profile = small_dataset.profile(2)[:12]
            sync_items = recommender.recommend(profile)
            async_items = asyncio.run(recommender.recommend_async(profile))
            assert np.array_equal(sync_items, async_items)
        finally:
            queries.close()


class TestServeDemoCLI:
    def test_runs_and_reports(self, capsys):
        code = main(
            [
                "serve-demo",
                "--dataset",
                "ml1M",
                "--scale",
                "0.02",
                "--k",
                "8",
                "--queries",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QPS" in out and "Recall@10" in out
