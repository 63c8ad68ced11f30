"""Unit tests for the vectorized walk kernels (``walk_impl="numpy"``).

Complements the differential suite (``tests/test_prop_search_vec.py``)
with direct checks of the kernel machinery itself: the reusable
visited/excluded bitmap must come back all-clear after every query
(leaked bits would silently skip candidates in later queries), budget
truncation must be exact and deterministic, tie-breaking must be
(score desc, id asc) bit-for-bit, and — the regression pinned by the
sorted-``_adjacent`` fix — results must not depend on heap *slot
layout*, only on the edge sets, even under tight budgets where a
truncated candidate prefix would expose iteration order.
"""

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import C2Params
from repro.data import Dataset, SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.serve import GraphSearcher
from repro.serve.searcher import brute_force_top_k

K = 6


def _index(seed=0, n_users=120, backend="exact"):
    spec = SyntheticSpec(
        name="kernels", n_users=n_users, n_items=240, mean_profile_size=20.0,
        n_communities=6, community_pool_size=50, min_profile_size=6,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params, backend=backend)


# ----------------------------------------------------------------------
# Visited-bitmap reuse
# ----------------------------------------------------------------------


def test_bitmap_all_clear_after_each_query():
    """Every bit the walk sets must be cleared before the next query."""
    index = _index()
    searcher = GraphSearcher(index, ef=24, walk_impl="numpy")
    rng = np.random.default_rng(3)
    n = index.dataset.n_users
    for trial in range(8):
        profile = rng.integers(0, index.dataset.n_items, size=12)
        exclude = rng.choice(n, size=int(rng.integers(0, 8)), replace=False)
        budget = None if trial % 2 else int(rng.integers(5, 60))
        searcher.top_k(profile, k=K, exclude=exclude, budget=budget)
        buf = searcher._blocked_bitmap(n)
        assert not buf.any(), f"bitmap leaked bits after trial {trial}"


def test_bitmap_cleared_even_when_engine_raises():
    """A query that dies mid-walk must not poison the next one."""
    index = _index()
    searcher = GraphSearcher(index, ef=16, walk_impl="numpy")
    baseline = searcher.top_k([1, 2, 3], k=K)

    calls = {"n": 0}
    orig = index.engine.query_many

    def flaky(query, users):
        calls["n"] += 1
        if calls["n"] == 3:  # die on a mid-walk hop, after some bits are set
            raise RuntimeError("boom")
        return orig(query, users)

    index.engine.query_many = flaky
    try:
        with pytest.raises(RuntimeError, match="boom"):
            searcher.top_k([1, 2, 3], k=K)
    finally:
        index.engine.query_many = orig
    assert not searcher._blocked_bitmap(index.dataset.n_users).any()
    after = searcher.top_k([1, 2, 3], k=K)
    assert np.array_equal(baseline.ids, after.ids)
    assert np.array_equal(baseline.scores, after.scores)


def test_bitmap_buffer_reused_and_grown_geometrically():
    index = _index()
    searcher = GraphSearcher(index, walk_impl="numpy")
    buf = searcher._blocked_bitmap(50)
    assert buf.size >= 50 and not buf.any()
    assert searcher._blocked_bitmap(30) is buf  # wide enough: reused
    bigger = searcher._blocked_bitmap(buf.size + 1)
    assert bigger is not buf
    assert bigger.size >= 2 * buf.size  # geometric growth, no O(n) churn
    assert not bigger.any()


def test_bitmap_is_thread_local():
    """Concurrent walks on one shared searcher must not share scratch."""
    index = _index()
    searcher = GraphSearcher(index, ef=24, walk_impl="numpy")
    rng = np.random.default_rng(11)
    profiles = [rng.integers(0, index.dataset.n_items, size=10) for _ in range(16)]
    serial = [searcher.top_k(p, k=K) for p in profiles]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda p: searcher.top_k(p, k=K), profiles))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.scores, b.scores)
    import threading

    buffers = []
    lock = threading.Lock()

    def grab():
        buf = searcher._blocked_bitmap(10)  # held alive: ids stay unique
        with lock:
            buffers.append(buf)

    workers = [threading.Thread(target=grab) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len({id(buf) for buf in buffers}) == 4  # one buffer per thread


# ----------------------------------------------------------------------
# Budget truncation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
def test_budget_is_an_exact_hard_cap(walk_impl):
    index = _index()
    searcher = GraphSearcher(index, ef=32, walk_impl=walk_impl)
    rng = np.random.default_rng(17)
    for budget in (1, 3, 7, 20, 55):
        profile = rng.integers(0, index.dataset.n_items, size=10)
        result = searcher.top_k(profile, k=K, budget=budget)
        assert result.evaluations <= budget
        again = searcher.top_k(profile, k=K, budget=budget)
        assert np.array_equal(result.ids, again.ids)
        assert result.evaluations == again.evaluations


def test_budget_truncation_keeps_sorted_id_prefix():
    """The truncated hop keeps the lowest candidate ids — not whichever
    slots the heap row happened to store first."""
    index = _index()
    searcher = GraphSearcher(index, ef=8, walk_impl="numpy")
    oracle = GraphSearcher(index, ef=8, walk_impl="python")
    rng = np.random.default_rng(23)
    for _ in range(10):
        profile = rng.integers(0, index.dataset.n_items, size=8)
        # A budget barely above the seed count forces a truncated hop.
        seeds, _ = searcher._seeds(
            np.unique(profile), 8, index.dataset.active_mask(), set(), None
        )
        budget = int(seeds.size) + int(rng.integers(1, 4))
        a = searcher.top_k(profile, k=K, ef=8, budget=budget)
        b = oracle.top_k(profile, k=K, ef=8, budget=budget)
        assert np.array_equal(a.ids, b.ids)
        assert a.evaluations == b.evaluations <= budget


# ----------------------------------------------------------------------
# Slot-layout invariance (regression for the sorted-_adjacent fix)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
def test_results_invariant_under_heap_slot_permutation(walk_impl):
    """Two graphs with identical edge sets but different slot layouts
    must serve identical results, including under tight budgets."""
    index_a = _index(seed=5)
    index_b = _index(seed=5)
    heaps = index_b.graph.heaps
    rng = np.random.default_rng(99)
    for u in range(heaps.n):
        perm = rng.permutation(heaps.k)
        heaps.ids[u] = heaps.ids[u][perm]
        heaps.scores[u] = heaps.scores[u][perm]
    assert index_a.graph.heaps.edge_sets() == heaps.edge_sets()
    assert not np.array_equal(index_a.graph.heaps.ids, heaps.ids)

    sa = GraphSearcher(index_a, ef=12, walk_impl=walk_impl)
    sb = GraphSearcher(index_b, ef=12, walk_impl=walk_impl)
    for trial in range(12):
        profile = rng.integers(0, index_a.dataset.n_items, size=10)
        budget = (None, 25, 60)[trial % 3]
        a = sa.top_k(profile, k=K, budget=budget)
        b = sb.top_k(profile, k=K, budget=budget)
        assert np.array_equal(a.ids, b.ids), f"trial {trial} budget={budget}"
        assert np.array_equal(a.scores, b.scores)
        assert a.evaluations == b.evaluations
        assert a.hops == b.hops


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
@pytest.mark.parametrize("seed", [0, 5])
def test_hop_batches_invariant_under_slot_permutation(walk_impl, seed, planted_hub):
    """Whether a node joins a hop, waits for its own, or is cut by the
    budget depends on the edge sets only, never on the order the heap
    rows store their slots in."""
    a = planted_hub(seed)
    b = planted_hub(seed, permute_slots=True)
    assert a.heaps.edge_sets() == b.heaps.edge_sets()
    assert not np.array_equal(a.heaps.ids, b.heaps.ids)
    truncated = 0
    for room in range(2, 50):
        pool_a, hops_a, evals_a, batches_a = a.walk(walk_impl, room)
        pool_b, hops_b, evals_b, batches_b = b.walk(walk_impl, room)
        assert (pool_a, hops_a, evals_a) == (pool_b, hops_b, evals_b)
        assert [x.tolist() for x in batches_a] == [x.tolist() for x in batches_b]
        if len(batches_a) == 2 and batches_a[1].tolist() != a.hub:
            assert batches_a[1].tolist() == a.hub[: batches_a[1].size]
            truncated += 1
    assert truncated > 0


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
def test_tight_budget_expands_one_node_per_hop(
    walk_impl, walk_trace, hop_gather, monkeypatch
):
    """A hop takes another node only while its batch stays within half
    of the remaining budget. So when every hop's first node alone
    brings more than that, each hop expands exactly one node and the
    walk is the one-node-per-hop walk, batch for batch."""
    from repro.serve import searcher as searcher_module

    index = _index()
    oracle = GraphSearcher(index, ef=16, walk_impl="python")
    searcher = GraphSearcher(index, ef=16, walk_impl=walk_impl)
    rng = np.random.default_rng(31)
    tight_walks = multi_node_hops = 0
    for _ in range(10):
        profile = rng.integers(0, index.dataset.n_items, size=8)
        _, calls, _ = walk_trace(oracle, profile, k=K)
        n_seeds = calls[0][0].size
        for budget in range(n_seeds + 1, n_seeds + 40, 3):
            _, calls, reads = walk_trace(oracle, profile, k=K, budget=budget)
            tight = True
            for hop in range(1, len(calls)):
                room = budget - sum(ids.size for ids, _ in calls[:hop])
                taken = hop_gather(index, calls, reads, hop, room)
                batch = sorted(v for _, fresh in taken for v in fresh)
                assert calls[hop][0].tolist() == batch[:room]  # replay agrees
                if len(taken) > 1:
                    assert 2 * len(batch) <= room  # the rule itself
                    multi_node_hops += 1
                tight &= 2 * len(taken[0][1]) > room
            if not tight:
                continue
            tight_walks += len(calls) > 2
            wide, wide_calls, _ = walk_trace(searcher, profile, k=K, budget=budget)
            with monkeypatch.context() as m:
                m.setattr(searcher_module, "_HOP_WIDTH", 1)
                one, one_calls, _ = walk_trace(searcher, profile, k=K, budget=budget)
            assert np.array_equal(wide.ids, one.ids)
            assert np.array_equal(wide.scores, one.scores)
            assert (wide.evaluations, wide.hops) == (one.evaluations, one.hops)
            assert [ids.tolist() for ids, _ in wide_calls] == [
                ids.tolist() for ids, _ in one_calls
            ]
    assert tight_walks >= 5, "too few tight walks with several hops"
    assert multi_node_hops > 0, "the budgets never allowed a multi-node hop"


# ----------------------------------------------------------------------
# Tie-breaking
# ----------------------------------------------------------------------


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
def test_tie_breaking_on_fully_tied_scores(walk_impl):
    """All users share one profile: every score ties, so the result must
    be exactly the lowest ids — identical to the brute-force oracle."""
    n = 40
    dataset = Dataset.from_profiles([[0, 1, 2, 3, 4]] * n, n_items=16)
    params = C2Params(k=4, n_buckets=16, n_hashes=2, split_threshold=30, seed=1)
    index = OnlineIndex.build(dataset, params=params, backend="exact")
    searcher = GraphSearcher(index, ef=n, walk_impl=walk_impl)
    for profile in ([0, 1, 2], [0, 1, 2, 3, 4], [2, 4, 9]):
        walked = searcher.top_k(profile, k=10)
        brute = brute_force_top_k(index.engine, profile, k=10)
        assert np.array_equal(walked.ids, brute.ids)
        assert np.array_equal(walked.scores, brute.scores)
        assert np.array_equal(walked.ids, np.sort(walked.ids))  # id asc at ties


@pytest.mark.parametrize("walk_impl", ["numpy", "python"])
def test_walk_with_full_beam_matches_brute_force(walk_impl):
    """With ``ef >= n`` the walk sees everyone; its (score desc, id asc)
    pool order must match the brute-force lexsort bit-for-bit —
    including partial ties from a coarse similarity lattice."""
    rng = np.random.default_rng(7)
    # Tiny profiles from a tiny universe: few distinct Jaccard values,
    # so score ties are everywhere.
    profiles = [rng.choice(10, size=3, replace=False) for _ in range(50)]
    dataset = Dataset.from_profiles(profiles, n_items=10)
    params = C2Params(k=4, n_buckets=16, n_hashes=2, split_threshold=40, seed=1)
    index = OnlineIndex.build(dataset, params=params, backend="exact")
    searcher = GraphSearcher(index, ef=64, walk_impl=walk_impl)
    for _ in range(8):
        profile = rng.choice(10, size=int(rng.integers(2, 5)), replace=False)
        walked = searcher.top_k(profile, k=12, ef=64)
        brute = brute_force_top_k(index.engine, profile, k=12)
        assert np.array_equal(walked.ids, brute.ids)
        assert np.array_equal(walked.scores, brute.scores)


def test_seed_lexsort_matches_heap_semantics():
    """The lexsort seed initialisation equals push-all-then-pop-to-ef."""
    rng = np.random.default_rng(41)
    import heapq

    for _ in range(50):
        n = int(rng.integers(1, 30))
        ef = int(rng.integers(1, 12))
        seeds = rng.choice(1000, size=n, replace=False).astype(np.int64)
        sims = rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n)  # force ties
        heap_ref: list[tuple[float, int]] = []
        for v, s in zip(seeds, sims):
            heapq.heappush(heap_ref, (float(s), -int(v)))
            if len(heap_ref) > ef:
                heapq.heappop(heap_ref)
        order = np.lexsort((seeds, -sims))[:ef]
        lex = [(float(sims[i]), -int(seeds[i])) for i in order]
        assert sorted(lex) == sorted(heap_ref)


def test_empty_index_pickles_do_not_share_scratch():
    """Searchers are constructed per process; pickling the scratch
    holder would be a bug (thread.local is unpicklable) — assert the
    searcher is never accidentally made picklable with live scratch."""
    index = _index(n_users=30)
    searcher = GraphSearcher(index, walk_impl="numpy")
    searcher.top_k([1, 2], k=3)
    with pytest.raises(Exception):
        pickle.dumps(searcher)
