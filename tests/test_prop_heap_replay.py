"""Differential property suite: batched delta replay == per-edge oracle.

``NeighborHeaps.apply_edge_deltas`` groups shipped ``(u, v, added,
score)`` deltas per user row and rebuilds each touched row once;
``ReverseAdjacency.apply_batch``/``apply_scored_batch`` collapse a
tape's per-``(u, v)`` history to its final flag. Both promise the
same final state as a strictly per-edge, in-order replay — this suite
pins that against per-edge oracles (the original loop for the heap
table, :meth:`ReverseAdjacency.apply` for the in-edge sets) on random
valid tapes including drop-and-re-add of the same edge, score-only
re-adds, and removals of absent edges, and then checks the production
consumers of the batched path end to end: ``DurableIndex.recover()``
(WAL replay) and ``ReplicaSet`` (delta shipping) reproduce the
primary's serving state exactly.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but tapes vary across jobs.
"""

import os
import pickle

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.graph.heap import EMPTY, NeighborHeaps
from repro.graph.reverse import ReverseAdjacency
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import GraphSearcher, ReplicaSet
from repro.graph.heap import edge_digest

K = 6
N_OPS = 40

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _per_edge_oracle(heaps: NeighborHeaps, edges) -> None:
    """The original strictly per-edge replay loop (the oracle)."""
    for u, v, added, score in edges:
        row = heaps.ids[u].tolist()
        if added:
            try:
                heaps.scores[u, row.index(v)] = score
                continue
            except ValueError:
                pass
            free = row.index(EMPTY)  # tape validity guaranteed by maker
            heaps.ids[u, free] = v
            heaps.scores[u, free] = score
            if heaps.journal is not None:
                heaps.journal.append((int(u), int(v), True))
        else:
            try:
                slot = row.index(v)
            except ValueError:
                continue
            heaps.ids[u, slot] = EMPTY
            heaps.scores[u, slot] = -np.inf
            if heaps.journal is not None:
                heaps.journal.append((int(u), int(v), False))


def _random_tape(rng, n, k, n_edges, model=None):
    """A random *valid* scored tape: adds only when a slot is free.

    ``model`` maps each row to its current neighbour set; the tape may
    add present edges (score-only re-add), remove absent ones (no-op)
    and flip the same edge repeatedly — all the shapes the journal can
    legally ship.
    """
    model = model if model is not None else [set() for _ in range(n)]
    tape = []
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        row = model[u]
        if rng.random() < 0.55:  # try an add
            v = int(rng.integers(0, n))
            if v == u:
                continue
            if v in row:  # score-only re-add
                tape.append((u, v, True, float(rng.random())))
            elif len(row) < k:
                row.add(v)
                tape.append((u, v, True, float(rng.random())))
            elif row:  # full row: journal an eviction first
                evicted = int(rng.choice(sorted(row)))
                row.discard(evicted)
                tape.append((u, evicted, False, 0.0))
                row.add(v)
                tape.append((u, v, True, float(rng.random())))
        else:
            if row and rng.random() < 0.7:
                v = int(rng.choice(sorted(row)))
                row.discard(v)
                tape.append((u, v, False, 0.0))
            else:  # removal of an absent edge: a legal no-op
                tape.append((u, int(rng.integers(0, n)), False, 0.0))
    return tape


def _heap_state(heaps: NeighborHeaps):
    return heaps.edge_sets(), [
        dict(zip(ids.tolist(), scores.tolist()))
        for ids, scores in (
            ((row[row != EMPTY]), s[row != EMPTY])
            for row, s in zip(heaps.ids, heaps.scores)
        )
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_heap_replay_equals_per_edge_oracle(seed):
    rng = np.random.default_rng(seed)
    for trial in range(8):
        n, k = int(rng.integers(8, 30)), int(rng.integers(2, 6))
        base = NeighborHeaps(n, k)
        model = [set() for _ in range(n)]
        _per_edge_oracle(base, _random_tape(rng, n, k, 3 * n, model))
        tape = _random_tape(rng, n, k, 4 * n, model)

        batched = pickle.loads(pickle.dumps(base))
        oracle = pickle.loads(pickle.dumps(base))
        batched.attach_journal()
        oracle.attach_journal()
        batched.apply_edge_deltas(tape)
        _per_edge_oracle(oracle, tape)

        assert _heap_state(batched) == _heap_state(oracle), f"trial {trial}"
        # Journals may interleave rows differently but must agree as
        # sets and preserve per-(u, v) recording order.
        jb, jo = batched.drain_journal(), oracle.drain_journal()
        assert sorted(jb) == sorted(jo)
        for u, v, _ in jo:
            sub_b = [e[2] for e in jb if e[0] == u and e[1] == v]
            sub_o = [e[2] for e in jo if e[0] == u and e[1] == v]
            assert sub_b == sub_o


@pytest.mark.parametrize("seed", SEEDS)
def test_same_edge_add_remove_readd_in_one_tape(seed):
    """The pathological shapes, concentrated: one row, one edge."""
    rng = np.random.default_rng(seed + 7)
    base = NeighborHeaps(4, 2)
    tapes = [
        [(0, 1, True, 0.5), (0, 1, False, 0.0), (0, 1, True, 0.8)],
        [(0, 1, True, 0.5), (0, 1, True, 0.9)],  # score-only re-add
        [(0, 1, False, 0.0)],  # removal of an absent edge
        [(0, 1, True, 0.4), (0, 2, True, 0.6), (0, 1, False, 0.0),
         (0, 3, True, 0.7), (0, 2, False, 0.0), (0, 2, True, 0.2)],
    ]
    for tape in tapes:
        batched = pickle.loads(pickle.dumps(base))
        oracle = pickle.loads(pickle.dumps(base))
        batched.apply_edge_deltas(tape)
        _per_edge_oracle(oracle, tape)
        assert _heap_state(batched) == _heap_state(oracle), tape
    # An overfull add must raise in both (stream-gap detection).
    tape = [(0, 1, True, 0.5), (0, 2, True, 0.6), (0, 3, True, 0.7)]
    for heaps in (pickle.loads(pickle.dumps(base)),):
        with pytest.raises(ValueError, match="no free slot"):
            heaps.apply_edge_deltas(tape)
    oracle = pickle.loads(pickle.dumps(base))
    with pytest.raises(ValueError):
        _per_edge_oracle(oracle, tape)
    del rng


@pytest.mark.parametrize("seed", SEEDS)
def test_reverse_batch_equals_per_edge_apply(seed):
    rng = np.random.default_rng(seed + 13)
    for _ in range(6):
        n = int(rng.integers(5, 25))
        tape3 = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)), bool(rng.random() < 0.6))
            for _ in range(6 * n)
        ]
        a, b = ReverseAdjacency(n), ReverseAdjacency(n)
        a.apply(tape3)
        b.apply_batch(tape3)
        assert a.to_sets() == b.to_sets()
        # holders() caching must not serve stale arrays across patches.
        for v in range(n):
            assert np.array_equal(a.holders(v), b.holders(v))
        tape4 = [(u, v, added, 0.5) for u, v, added in tape3[::-1]]
        a.apply_scored(tape4)
        b.apply_scored_batch(tape4)
        assert a.to_sets() == b.to_sets()
        for v in range(n):
            assert np.array_equal(a.holders(v), b.holders(v))


def _index(seed):
    spec = SyntheticSpec(
        name="propreplay", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params)


# The op mix this suite draws from (see conftest.py ``mutate``).
_OPS = dict(tail="read")


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_parity_through_batched_replay(seed, tmp_path, mutate):
    """WAL recovery (batched heap + reverse replay) == live state."""
    index = _index(seed)
    index.reverse_index()
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(N_OPS):
        mutate(index, rng, **_OPS)
    durable.close()
    recovered = DurableIndex.recover(tmp_path)
    try:
        assert recovered.recovery.evaluations == 0
        assert recovered.index.version == index.version
        assert edge_digest(recovered.index.graph.heaps) == edge_digest(
            index.graph.heaps
        )
        assert recovered.index.graph.heaps.edge_sets() == index.graph.heaps.edge_sets()
        assert (
            recovered.index.reverse_index().to_sets()
            == index.reverse_index().to_sets()
        )
        live = GraphSearcher(index, ef=16)
        back = GraphSearcher(recovered.index, ef=16)
        for _ in range(6):
            profile = rng.integers(0, index.dataset.n_items, size=10)
            a, b = live.top_k(profile, k=K), back.top_k(profile, k=K)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.scores, b.scores)
    finally:
        recovered.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_parity_through_batched_replay(seed, mutate):
    """Thread replicas fed shipped deltas converge via the batched path."""
    index = _index(seed)
    index.reverse_index()
    replicas = ReplicaSet(index, 2)
    try:
        rng = np.random.default_rng(seed + 2000)
        for _ in range(N_OPS):
            mutate(index, rng, **_OPS)
        assert replicas.converged()
        assert replicas.stats()["resyncs_total"] == 0
        for pos in range(2):
            replica = replicas.replica(pos)
            assert replica.graph.heaps.edge_sets() == index.graph.heaps.edge_sets()
            assert replica.reverse_index().to_sets() == index.reverse_index().to_sets()
    finally:
        replicas.close()
