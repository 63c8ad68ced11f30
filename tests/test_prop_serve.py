"""Property tests for the serving layer under concurrent mutation.

Randomized interleavings (fixed seeds, no hypothesis dependency) of
``OnlineIndex`` mutations with cached queries. The invariant under
test is the cache-coherence contract: a :class:`QueryEngine` answer
must always equal what a fresh, uncached search against the *current*
index state returns — the cache may save work, it may never serve
neighbours from before a mutation.
"""

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.serve import GraphSearcher, QueryEngine

K = 6
N_OPS = 60


def _index(seed):
    spec = SyntheticSpec(
        name="prop", n_users=150, n_items=300, mean_profile_size=25.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params)


# The op mix this suite draws from (see conftest.py ``mutate``).
_OPS = dict(mix=(0.5, 0.25, 0.25), profile_size=15)


def _random_profile(index, rng):
    if rng.random() < 0.5 and index.dataset.active_users().size:
        base = index.dataset.profile(int(rng.choice(index.dataset.active_users())))
        keep = rng.random(base.size) > 0.4
        return base[keep] if keep.any() else base
    return rng.integers(0, index.dataset.n_items, size=int(rng.integers(3, 25)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cache_never_serves_stale_neighbors(seed, mutate):
    index = _index(seed)
    # Full invalidation is the mode with the strict contract this test
    # asserts (cached answer == fresh search, always); the relaxed
    # partial mode has its own suite in test_prop_serve_incremental.py.
    queries = QueryEngine(index, k=K, invalidation="full")
    oracle = GraphSearcher(index)  # same defaults as the engine's searcher
    rng = np.random.default_rng(seed + 100)
    hits_checked = 0
    try:
        for _ in range(N_OPS):
            if rng.random() < 0.5:
                mutate(index, rng, **_OPS)
            profile = _random_profile(index, rng)
            served = queries.search(profile, k=K)
            fresh = oracle.top_k(np.unique(np.asarray(profile, dtype=np.int64)), k=K)
            assert np.array_equal(served.ids, fresh.ids)
            assert served.scores == pytest.approx(fresh.scores)
            # re-ask: the second answer comes from cache and must still
            # match the current index state
            again = queries.search(profile, k=K)
            assert again is served
            hits_checked += 1
    finally:
        queries.close()
    stats = queries.stats()
    assert stats["cache_hits_total"] >= hits_checked  # the re-asks all hit
    assert stats["evictions_total"] > 0  # and mutations really dropped entries


@pytest.mark.parametrize("seed", [3, 4])
def test_served_results_only_contain_active_users(seed, mutate):
    index = _index(seed)
    queries = QueryEngine(index, k=K)
    rng = np.random.default_rng(seed)
    try:
        for _ in range(30):
            mutate(index, rng, **_OPS)
            result = queries.search(_random_profile(index, rng), k=K)
            active = index.dataset.active_mask()
            assert all(active[v] for v in result.ids)
            assert np.unique(result.ids).size == result.ids.size
    finally:
        queries.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_cache_sound_across_online_resplits(seed):
    """Partial invalidation survives re-splits without staleness.

    A re-split moves no edges and no profiles — it only re-routes a
    cluster lineage — so the partial mode evicts exactly the cached
    answers that routed through the split clusters (tracked via
    ``SearchResult.routed``) and keeps the rest warm. The tape here
    churns a low-threshold index hard enough that re-splits genuinely
    fire mid-stream, and every served answer — cached, kept across a
    re-split, or fresh — must still equal an uncached search against
    the current index state.
    """
    from repro.bench.scenarios import IndexWorld, make_scenario

    spec = SyntheticSpec(
        name="propresplit", n_users=150, n_items=300,
        mean_profile_size=25.0, n_communities=8, community_pool_size=60,
        min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=30, seed=1)
    index = OnlineIndex.build(dataset, params=params)
    queries = QueryEngine(index, k=K, invalidation="partial")
    oracle = GraphSearcher(index)
    rng = np.random.default_rng(seed + 300)
    world = IndexWorld(index)
    scenario = make_scenario("churn", 200, seed=seed, bundle_size=60)
    try:
        for op in scenario.ops(world):
            world.apply(op)
            profile = _random_profile(index, rng)
            served = queries.search(profile, k=K)
            fresh = oracle.top_k(
                np.unique(np.asarray(profile, dtype=np.int64)), k=K
            )
            assert np.array_equal(served.ids, fresh.ids)
            assert served.scores == pytest.approx(fresh.scores)
        stats = queries.stats()
    finally:
        queries.close()
    # The property is vacuous unless the tape actually re-split.
    assert index.stats()["resplits_total"] > 0
    # And the selective eviction must have done real work: at least one
    # re-split found a warm cache and kept entries outside the split
    # lineage alive (otherwise this is just the full clear in disguise).
    assert stats["resplit_evictions_total"] + stats["resplit_kept"] > 0
    assert stats["resplit_kept"] > 0
