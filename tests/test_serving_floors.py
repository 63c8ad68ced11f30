"""Serving floors at smoke size: recall, restart parity, re-split ceilings.

The count and quality floors of the serving stack. Every test runs on
:func:`~repro.bench.workloads.serving_workload` (400 users, 40
held-out queries, seed 11) and walks with ``SERVING_WALK`` (k=10,
ef=32, a budget of 192 evaluations). The runs are seeded, so every
bound is exact: a reading moves only when the code does. The
wall-clock floors of the same runs live in
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.scenarios import (
    DriftTracker,
    IndexWorld,
    SimWorld,
    make_scenario,
    play,
)
from repro.bench.workloads import (
    SERVING_K as K,
    SERVING_SEED as SEED,
    SERVING_WALK as WALK,
    serving_index,
    serving_tape,
    serving_workload,
    warm_stream,
    write_tape,
)
from repro.graph.heap import edge_digest
from repro.graph.reverse import ReverseAdjacency
from repro.persist import DurableIndex
from repro.serve import GraphSearcher, QueryEngine, brute_force_top_k

# Per scenario: worst-window recall@10 floor and re-split ceiling.
SCENARIO_FLOORS = {
    "mixed": (0.9, 10),
    "zipf": (0.9, 10),
    "flashcrowd": (0.9, 15),
    "churn": (0.92, 30),
    "deletes": (0.9, 10),
}


@pytest.fixture(scope="module")
def workload():
    return serving_workload()


@pytest.fixture(scope="module")
def index(workload):
    """A read-only index over the workload (tests must not mutate it)."""
    return serving_index(workload[0])


def _recall(searcher, truth_engine, queries) -> float:
    """Mean recall@K of ``searcher`` against brute force on ``truth_engine``."""
    recalls = []
    for profile in queries:
        truth = brute_force_top_k(truth_engine, profile, k=K)
        found = searcher.top_k(profile, k=K)
        recalls.append(float(np.isin(truth.ids, found.ids).mean()))
    return float(np.mean(recalls))


def test_held_out_recall(workload, index):
    assert _recall(GraphSearcher(index, **WALK), index.engine, workload[1]) >= 0.9


def test_warm_stream_walks_each_distinct_query_once(workload, index):
    """160 draws from 10 queries, in batches of 32: 10 walks in all."""
    stream = warm_stream(workload[1])
    engine = QueryEngine(
        index, k=K, searcher=GraphSearcher(index, **WALK), cache_size=1024
    )
    for start in range(0, len(stream), 32):
        engine.search_many(stream[start : start + 32])
    stats = engine.stats()
    engine.close()
    distinct = len({p.tobytes() for p in stream})
    assert distinct == 10
    assert stats["cache_misses_total"] == distinct
    assert stats["cache_hits_total"] + stats["dedup_hits_total"] == 150


def test_restart_recovers_state_and_replays_only_the_tail(workload, tmp_path):
    dataset, queries = workload
    index = serving_index(dataset)
    index.reverse_index()
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    play(write_tape(120), IndexWorld(index))
    state = (index.version, edge_digest(index.graph.heaps))
    durable.close()

    recovered = DurableIndex.recover(tmp_path)
    rec = recovered.index
    assert (rec.version, edge_digest(rec.graph.heaps)) == state
    assert recovered.recovery.evaluations == 0
    assert _recall(GraphSearcher(rec, **WALK), rec.engine, queries[:20]) >= 0.9

    checkpointed = recovered.checkpoint()
    play(write_tape(15, seed=SEED + 1), IndexWorld(rec))
    tail = rec.version - checkpointed
    state = (rec.version, edge_digest(rec.graph.heaps))
    recovered.close()

    third = DurableIndex.recover(tmp_path)
    assert tail > 0
    assert (third.recovery.replayed, third.recovery.skipped) == (tail, 0)
    assert third.recovery.evaluations == 0
    assert (third.index.version, edge_digest(third.index.graph.heaps)) == state
    third.close()


def test_goldfinger_rerank_recall_after_writes(workload):
    """An exact frontier rerank keeps GoldFinger recall after a 90/10 tape."""
    dataset, queries = workload
    indexes = {}
    for backend in ("goldfinger", "exact"):
        indexes[backend] = serving_index(dataset, backend)
        play(serving_tape(120), IndexWorld(indexes[backend]))
    gf, exact = indexes["goldfinger"], indexes["exact"]
    assert gf.version == exact.version > 0
    searcher = GraphSearcher(gf, rerank="exact", **WALK)
    assert _recall(searcher, exact.engine, queries[:20]) >= 0.85


def test_write_tape_patches_the_reverse_index(workload, monkeypatch):
    """Walks between writes never rebuild in-edges: one O(n·k) build."""
    builds = []
    from_heaps = ReverseAdjacency.from_heaps

    def counted(heaps):
        builds.append(heaps)
        return from_heaps(heaps)

    monkeypatch.setattr(ReverseAdjacency, "from_heaps", staticmethod(counted))
    index = serving_index(workload[0])
    rev = index.reverse_index()
    engine = QueryEngine(
        index, k=K, invalidation="partial", searcher=GraphSearcher(index, **WALK)
    )
    play(serving_tape(120), IndexWorld(index, engine=engine))
    stats = engine.stats()
    engine.close()
    assert index.version > 0 and stats["cache_misses_total"] > 0
    assert len(builds) == 1
    assert index.deltas.view("reverse_adjacency").resyncs_total == 0
    assert index.reverse_index() is rev


@pytest.mark.parametrize("name", sorted(SCENARIO_FLOORS))
def test_scenario_drift_floors(workload, name):
    """Worst-window recall, bounded re-splits and no rebuild per scenario."""
    dataset, queries = workload
    floor, max_resplits = SCENARIO_FLOORS[name]
    scenario = make_scenario(name, 300, seed=SEED)
    initial = SimWorld(
        [dataset.profile(u) for u in range(dataset.n_users)], n_items=dataset.n_items
    )
    probes = scenario.probes(initial, 20) or queries[:20]
    index = serving_index(dataset, update_cap=96)
    index.reverse_index()
    engine = QueryEngine(
        index, k=K, invalidation="partial", searcher=GraphSearcher(index, **WALK)
    )
    tracker = DriftTracker(
        index, GraphSearcher(index, **WALK), probes, k=K, window=100
    )
    play(scenario, IndexWorld(index, engine=engine), tracker)
    engine.close()
    stats = index.stats()
    assert tracker.worst >= floor
    assert stats["resplits_total"] <= max_resplits
    assert stats["rebuilds_total"] == 0
