"""Property tests for the delta pipeline (``repro.deltas``, PR 9).

One randomized program, one invariant, for **every ported consumer**:
after folding a random mutation tape incrementally through the bus,
running the view's ``resync()`` recipe from scratch reproduces the
same derived state the incremental path maintained —

* **reverse adjacency**: the maintained in-edge sets equal a cold
  :meth:`~repro.graph.ReverseAdjacency.from_heaps` group-by;
* **result cache**: resync clears to exactly a fresh engine's state,
  and post-resync answers match a fresh engine's answers query for
  query;
* **durable WAL**: recovery from disk reaches state parity with the
  live index both before and after the view's resync (a checkpoint);
* **journal metrics**: the incrementally-maintained gauges equal a
  freshly resynced exporter's on the same index.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but the tapes vary across jobs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.graph import ReverseAdjacency, edge_digest
from repro.obs import JournalMetrics, MetricsRegistry
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import QueryEngine

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]

K = 6


def _index(seed, split_threshold=45):
    spec = SyntheticSpec(
        name="propdeltas", n_users=150, n_items=300, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(
        k=K, n_buckets=64, n_hashes=4, split_threshold=split_threshold, seed=1
    )
    return OnlineIndex.build(dataset, params=params)


def _churn(index, rng, n=60):
    """A random tape crossing every event type the journal emits."""
    for _ in range(n):
        op = rng.random()
        active = index.dataset.active_users()
        if op < 0.45 and active.size:
            index.add_items(
                int(rng.choice(active)),
                rng.integers(0, index.dataset.n_items, size=3),
            )
        elif op < 0.8:
            index.add_user(rng.integers(0, index.dataset.n_items, size=12))
        elif active.size > 60:
            index.remove_user(int(rng.choice(active)))


def _rev_state(rev):
    return [set(s) for s in rev._in]


def _state(index):
    return index.version, edge_digest(index.graph.heaps)


# ----------------------------------------------------------------------
# Reverse adjacency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reverse_view_resync_equals_incremental(seed):
    index = _index(seed)
    index.reverse_index()
    view = index.deltas.view("reverse_adjacency")
    _churn(index, np.random.default_rng(seed + 10))
    incremental = _rev_state(index._reverse)
    assert incremental == _rev_state(
        ReverseAdjacency.from_heaps(index.graph.heaps)
    )
    index.deltas.resync(view)
    assert _rev_state(index._reverse) == incremental
    assert view.lag == 0 and view.resyncs_total == 1


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


def _pool(rng, index, n=30):
    return [rng.integers(0, index.dataset.n_items, size=10) for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_cache_resync_equals_fresh_engine(seed):
    index = _index(seed)
    rng = np.random.default_rng(seed + 20)
    engine = QueryEngine(index, k=K, invalidation="partial")
    try:
        pool = _pool(rng, index)
        for _ in range(3):  # interleave queries and mutations
            for profile in pool:
                engine.search(profile)
            _churn(index, rng, n=10)
        assert engine.stats()["cache_entries"] > 0
        index.deltas.resync(engine._view)
        # Resynced-from-scratch state IS a fresh engine's state: empty
        # cache, and identical answers on the warmed pool.
        assert engine.stats()["cache_entries"] == 0
        fresh = QueryEngine(index, k=K, invalidation="partial")
        try:
            for profile in pool:
                a = engine.search(profile)
                b = fresh.search(profile)
                assert a.ids.tolist() == b.ids.tolist()
        finally:
            fresh.close()
    finally:
        engine.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_cache_resync_equals_fresh_engine(seed):
    """The same invariant when the cache is filled by whole batches."""
    index = _index(seed)
    rng = np.random.default_rng(seed + 30)
    engine = QueryEngine(index, k=K)
    try:
        pool = _pool(rng, index, n=20)
        for _ in range(2):
            engine.search_many(pool)
            _churn(index, rng, n=8)
        index.deltas.resync(engine._view)
        assert engine.stats()["cache_entries"] == 0
        fresh = QueryEngine(index, k=K)
        try:
            got = engine.search_many(pool)
            want = fresh.search_many(pool)
            for a, b in zip(got, want):
                assert a.ids.tolist() == b.ids.tolist()
        finally:
            fresh.close()
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Durable WAL
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_wal_view_resync_equals_incremental(seed, tmp_path):
    index = _index(seed)
    durable = DurableIndex(index, tmp_path)
    try:
        _churn(index, np.random.default_rng(seed + 50), n=40)
        want = _state(index)
        assert durable.lag() == 0
        recovered = DurableIndex.recover(tmp_path)
        assert _state(recovered.index) == want
        recovered.close()
        # The WAL view's resync recipe is a checkpoint: recovery after
        # it replays nothing and still reaches the same state.
        index.deltas.resync(durable._view)
        recovered = DurableIndex.recover(tmp_path)
        assert _state(recovered.index) == want
        assert recovered.recovery.replayed == 0
        recovered.close()
    finally:
        durable.close()


# ----------------------------------------------------------------------
# Journal metrics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_journal_metrics_resync_equals_incremental(seed):
    index = _index(seed)
    incremental = JournalMetrics(index, registry=MetricsRegistry())
    try:
        _churn(index, np.random.default_rng(seed + 60))
        incremental.collect()
        assert incremental.seq == index.version
        # A fresh exporter resynced from the live index reports the
        # same derived gauges the incremental one maintained.
        fresh_registry = MetricsRegistry()
        fresh = JournalMetrics(index, registry=fresh_registry)
        try:
            inc_reg = incremental.registry
            for gauge in ("journal_clusters", "journal_max_cluster_size"):
                assert (
                    fresh_registry.gauge(gauge).value
                    == inc_reg.gauge(gauge).value
                )
            assert fresh.seq == incremental.seq
        finally:
            fresh.close()
    finally:
        incremental.close()
