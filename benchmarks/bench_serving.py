"""Serving wall-clock floors: throughput, latency, restart and telemetry cost.

Not a figure from the paper, which stops at building graphs. This
module times the serving stack on the workload of
``tests/test_serving_floors.py``: the
:func:`~repro.bench.workloads.serving_workload` population (400
users, 40 held-out queries, seed 11), walked with ``SERVING_WALK``
(k=10, ef=32, a budget of 192 evaluations), under the same tapes.
That module asserts the count and quality floors (recall, state
parity, re-split and rebuild ceilings). This one asserts only
wall-clock floors, so it is not part of tier-1. CI runs it after the
tier-1 suite::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_serving.py

Floors sit far below dev-machine readings because CI runners are slow
and noisy. They catch collapses, not jitter. A rate floor is the old
committed floor × 0.7 and a duration ceiling is the old floor ÷ 0.7;
the telemetry overhead ceiling has no slack. ``docs/benchmarks.md``
lists every floor with the reading it was set against.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np
import pytest

from repro import obs
from repro.bench.scenarios import IndexWorld, make_scenario, play
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
from repro.graph import EMPTY, NeighborHeaps
from repro.persist import DurableIndex
from repro.serve import GraphSearcher, QueryEngine

# Scenario tape rates (ops/s, 300 ops, update_cap 96). The old floors
# timed the tape together with its drift probes; these time the tape
# alone, so each is the old floor × 0.7 raised by the measured ratio
# of probed to probe-free wall (1.2, 1.9, 1.25, 1.25 and 1.3).
SCENARIO_OPS_S = {
    "mixed": 210,
    "zipf": 665,
    "flashcrowd": 350,
    "churn": 306,
    "deletes": 255,
}

# Ops in the timed 90/10 tape: eight passes' worth of the old 120-op
# smoke tape, so the timed section is long enough to resolve a few
# percent.
TAPE_OPS = 960


@pytest.fixture(scope="module")
def workload():
    return serving_workload()


def _serving_world(dataset, **index_kwargs) -> IndexWorld:
    """A fresh index, in-edges primed, behind a partial-invalidation engine."""
    index = serving_index(dataset, **index_kwargs)
    index.reverse_index()  # maintained from the first write on
    engine = QueryEngine(
        index, k=K, invalidation="partial", searcher=GraphSearcher(index, **WALK)
    )
    return IndexWorld(index, engine=engine)


def _timed_tape(dataset, scenario, **index_kwargs) -> float:
    """Seconds to play ``scenario`` through a fresh :func:`_serving_world`."""
    world = _serving_world(dataset, **index_kwargs)
    t0 = time.perf_counter()
    play(scenario, world)
    wall = time.perf_counter() - t0
    world.engine.close()
    return wall


def test_query_latency_and_throughput(workload):
    dataset, queries = workload
    index = serving_index(dataset)
    searcher = GraphSearcher(index, **WALK)
    latencies = []
    for profile in queries:
        t0 = time.perf_counter()
        searcher.top_k(profile, k=K)
        latencies.append(time.perf_counter() - t0)
    assert max(latencies) * 1e3 <= 10.0  # ms, old p99 ceiling 7

    engine = QueryEngine(index, k=K, searcher=searcher, cache_size=0)
    t0 = time.perf_counter()
    engine.search_many(queries)
    cold_qps = len(queries) / (time.perf_counter() - t0)
    engine.close()
    assert cold_qps >= 315  # old floor 450

    stream = warm_stream(queries)
    engine = QueryEngine(index, k=K, searcher=searcher, cache_size=1024)
    t0 = time.perf_counter()
    for start in range(0, len(stream), 32):
        engine.search_many(stream[start : start + 32])
    warm_qps = len(stream) / (time.perf_counter() - t0)
    engine.close()
    assert warm_qps >= 1400  # old floor 2000


def test_mixed_tape_throughput(workload):
    """The 90/10 tape with incremental in-edges and partial invalidation."""
    wall = _timed_tape(workload[0], serving_tape(TAPE_OPS))
    assert TAPE_OPS / wall >= 840  # ops/s, old floor 1200


def test_metrics_overhead(workload):
    """The telemetry layer costs at most 5% of the 90/10 tape's wall.

    Two stacks replay the same tape side by side: one built on the
    live registry and tracer, one on no-op ones (each arm swaps the
    process-wide pair before it builds, since components capture
    metric handles at construction). The arms alternate op by op,
    the order flipping at every op, and each op keeps its fastest wall
    over the reps, so a burst of scheduler noise spoils one op of one
    rep, not a whole arm. The overhead keeps its sign.
    """
    dataset = workload[0]
    walls = {True: np.full(TAPE_OPS, np.inf), False: np.full(TAPE_OPS, np.inf)}
    for rep in range(10):
        arms = {}
        for enabled in (True, False):
            prev_reg = obs.set_metrics(obs.MetricsRegistry(enabled=enabled))
            prev_tr = obs.set_tracer(obs.Tracer(enabled=enabled))
            try:
                world = _serving_world(dataset)
            finally:
                obs.set_metrics(prev_reg)
                obs.set_tracer(prev_tr)
            arms[enabled] = (world, serving_tape(TAPE_OPS).ops(world))
        for i in range(TAPE_OPS):
            for enabled in (True, False) if (i + rep) % 2 == 0 else (False, True):
                world, ops = arms[enabled]
                op = next(ops)
                t0 = time.perf_counter()
                world.apply(op)
                wall = time.perf_counter() - t0
                walls[enabled][i] = min(walls[enabled][i], wall)
        for world, _ in arms.values():
            world.engine.close()
    overhead_pct = (walls[True].sum() / walls[False].sum() - 1.0) * 100.0
    assert overhead_pct <= 5.0


def test_restart_time(workload):
    """Recovery from snapshot + WAL against the cold rebuild it replaces."""
    dataset = workload[0]
    index = serving_index(dataset)
    index.reverse_index()
    with tempfile.TemporaryDirectory(prefix="repro-restart-") as wal_dir:
        durable = index.attach_persistence(wal_dir, checkpoint_bytes=0)
        play(write_tape(120), IndexWorld(index))
        durable.close()
        t0 = time.perf_counter()
        recovered = DurableIndex.recover(wal_dir)
        restart_s = time.perf_counter() - t0
        recovered.close()
    churned = index.dataset.snapshot()
    t0 = time.perf_counter()
    serving_index(churned).reverse_index()
    rebuild_s = time.perf_counter() - t0
    assert restart_s <= 0.357  # old ceiling 0.25
    assert rebuild_s / restart_s >= 1.4  # old speed-up floor 2


@pytest.mark.parametrize("name", sorted(SCENARIO_OPS_S))
def test_scenario_throughput(workload, name):
    wall = _timed_tape(
        workload[0], make_scenario(name, 300, seed=SEED), update_cap=96
    )
    assert 300 / wall >= SCENARIO_OPS_S[name]


def test_single_offer_branch_beats_padded_offer():
    """One offer per row costs at most 0.6x the same offers padded to two columns.

    181 rows of a full k=16 table, kept in ``(-score, id)`` order, are
    each offered one new id (the median ``offer_reverse`` shape of a
    churn write). The padded call takes the general path. The two run
    interleaved on fresh copies, each keeping its fastest wall, so the
    ratio does not depend on how fast the machine is.
    """
    rng = np.random.default_rng(SEED)
    n, k, r = 2000, 16, 181
    table = NeighborHeaps(n, k)
    for u in range(n):
        ids = rng.choice(n, k, replace=False)
        scores = rng.random(k)
        order = np.lexsort((ids, -scores))
        table.ids[u], table.scores[u] = ids[order], scores[order]
    rows = np.sort(rng.choice(n, r, replace=False))
    source = np.full((r, 1), n - 1)
    sims = rng.random((r, 1)) * 0.6
    padded = np.concatenate([source, np.full((r, 1), EMPTY)], axis=1)
    padded_sims = np.concatenate([sims, np.full((r, 1), -np.inf)], axis=1)
    best = {1: np.inf, 2: np.inf}
    for rep in range(200):
        for width in (1, 2) if rep % 2 == 0 else (2, 1):
            heaps = NeighborHeaps(n, k)
            heaps.ids[:], heaps.scores[:] = table.ids, table.scores
            heaps.attach_journal()
            ids, vals = (source, sims) if width == 1 else (padded, padded_sims)
            t0 = time.perf_counter()
            heaps.offer(rows, ids, vals)
            best[width] = min(best[width], time.perf_counter() - t0)
    assert best[1] <= 0.6 * best[2]
