"""Property tests for incremental serve-path maintenance (PR 3).

Randomized interleavings (fixed seeds, no hypothesis dependency) of
``OnlineIndex`` mutations with serving reads, checking the two relaxed
structures the write-storm work introduced against their strict
oracles:

* the **incrementally maintained reverse-adjacency index** (patched
  per edge from the mutation journal) must at every step be
  *identical* to a from-scratch rebuild — both at the structure level
  (:meth:`ReverseAdjacency.from_heaps` over the live heaps) and at the
  behaviour level (walks equal walks on a clone whose reverse index
  was rebuilt from its heaps);
* the **partially invalidated cache** may keep entries across
  unrelated mutations, but must never hold — and therefore never
  serve — a result set touching a mutated user.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but interleavings vary across jobs.
"""

import os

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.graph.reverse import ReverseAdjacency
from repro.online import OnlineIndex
from repro.serve import GraphSearcher, QueryEngine

K = 6
N_OPS = 50

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _index(seed, backend="goldfinger"):
    spec = SyntheticSpec(
        name="propinc", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params, backend=backend)


# The op mix this suite draws from (see conftest.py ``mutate``).
_OPS = dict(tail="refill")


def _random_profile(index, rng):
    if rng.random() < 0.5 and index.dataset.active_users().size:
        base = index.dataset.profile(int(rng.choice(index.dataset.active_users())))
        keep = rng.random(base.size) > 0.4
        return base[keep] if keep.any() else base
    return rng.integers(0, index.dataset.n_items, size=int(rng.integers(3, 20)))


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_reverse_matches_rebuild_oracle(seed, mutate, clone):
    index = _index(seed)
    incremental = GraphSearcher(index)
    index.reverse_index()  # prime: maintained through every mutation below
    rng = np.random.default_rng(seed + 200)
    for _ in range(N_OPS):
        if rng.random() < 0.6:
            mutate(index, rng, **_OPS)
        # Structure: the maintained in-edge sets equal a from-scratch
        # group-by over the live heap table.
        assert (
            index.reverse_index().to_sets()
            == ReverseAdjacency.from_heaps(index.graph.heaps).to_sets()
        )
        # Behaviour: a walk on a clone whose reverse index is rebuilt
        # from its heaps answers exactly what the maintained one does.
        rebuilt = clone(index)
        rebuilt._reverse = ReverseAdjacency.from_heaps(rebuilt.graph.heaps)
        profile = _random_profile(index, rng)
        a = incremental.top_k(profile, k=K)
        b = GraphSearcher(rebuilt).top_k(profile, k=K)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.scores, b.scores)
        assert a.evaluations == b.evaluations and a.hops == b.hops


@pytest.mark.parametrize("seed", SEEDS)
def test_targeted_purge_matches_full_scan(seed, mutate):
    """remove_user/update via the reverse index == the O(n·k) scans."""
    with_reverse = _index(seed)
    without_reverse = _index(seed)
    with_reverse.reverse_index()  # only this one takes the targeted path
    rng_a = np.random.default_rng(seed + 300)
    rng_b = np.random.default_rng(seed + 300)
    for _ in range(N_OPS):
        mutate(with_reverse, rng_a, **_OPS)
        mutate(without_reverse, rng_b, **_OPS)
        assert np.array_equal(
            with_reverse.graph.heaps.ids, without_reverse.graph.heaps.ids
        )
        assert np.array_equal(
            with_reverse.graph.heaps.scores, without_reverse.graph.heaps.scores
        )
        assert with_reverse.degraded == without_reverse.degraded


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_cache_never_holds_mutated_users(seed, mutate):
    index = _index(seed)
    queries = QueryEngine(index, k=K)  # partial invalidation default
    rng = np.random.default_rng(seed + 400)
    pool = [_random_profile(index, rng) for _ in range(8)]
    try:
        for _ in range(N_OPS):
            served = queries.search(pool[int(rng.integers(0, len(pool)))], k=K)
            active = index.dataset.active_mask()
            assert all(active[v] for v in served.ids)
            user = mutate(index, rng, **_OPS)
            if user >= 0:
                # The eviction invariant, checked directly: no entry
                # surviving the mutation contains the mutated user.
                for _, result in queries._cache._entries.values():
                    assert user not in result.ids
        stats = queries.stats()
        assert stats["cache_hits_total"] > 0  # the cache still earns its keep
        assert stats["evictions_total"] > 0  # and mutations really evict
    finally:
        queries.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_cache_postings_stay_consistent(seed, mutate):
    """Postings map == inverted index of the cached entries, always."""
    index = _index(seed)
    queries = QueryEngine(index, k=K, cache_size=12)  # force LRU churn
    rng = np.random.default_rng(seed + 500)
    try:
        for _ in range(N_OPS):
            if rng.random() < 0.4:
                mutate(index, rng, **_OPS)
            queries.search(_random_profile(index, rng), k=K)
            cache = queries._cache
            expected: dict[int, set] = {}
            for key, (_, result) in cache._entries.items():
                for v in result.ids:
                    expected.setdefault(int(v), set()).add(key)
            assert cache._postings == expected
    finally:
        queries.close()
