"""Differential property suite: batched delta replay == per-edge oracle.

``NeighborHeaps.apply_edge_deltas`` groups shipped ``(u, v, added,
score)`` deltas per user row and rebuilds each touched row once;
``ReverseAdjacency.apply_batch`` collapses a
tape's per-``(u, v)`` history to its final flag. Both promise the
same final state as a strictly per-edge, in-order replay — this suite
pins that against per-edge oracles (the original loop for the heap
table, :meth:`ReverseAdjacency.apply` for the in-edge sets) on random
valid tapes including drop-and-re-add of the same edge, score-only
re-adds, and removals of absent edges, and then checks the production
consumer of the batched path end to end: ``DurableIndex.recover()``
(WAL replay) reproduces the primary's serving state exactly.

The replay oracles then pin :meth:`OnlineIndex.apply_delta` itself on
a pickled clone fed the primary's ``(delta, scores)`` stream (the
records the WAL stores): a clone fed every delta is identical to the
primary at every step, a lagging clone converges once drained,
replaying a delta twice is a no-op, deltas older than the clone's
snapshot are skipped, and a sequence gap raises
:class:`~repro.online.ReplayGapError`.

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
from repro.online import OnlineIndex, ReplayGapError
from repro.persist import DurableIndex
from repro.serve import GraphSearcher
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


def _unscored(edges):
    """Scored ``(u, v, added, score)`` deltas as the ``(u, v, added)``
    journal the reverse index patches from (it ignores scores)."""
    return [(u, v, added) for u, v, added, _score in edges]


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
        a.apply(_unscored(tape4))
        b.apply_batch(_unscored(tape4))
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
def test_replica_parity_through_batched_replay(seed, wal_tap, clone, mutate):
    """A clone fed the logged deltas converges via the batched path."""
    index = _index(seed)
    index.reverse_index()
    replica = clone(index)
    replica.reverse_index()
    feed = wal_tap(index, lambda record: _apply_fresh(replica, record))
    try:
        rng = np.random.default_rng(seed + 2000)
        for _ in range(N_OPS):
            mutate(index, rng, **_OPS)
        assert replica.version == index.version
        assert edge_digest(replica.graph.heaps) == edge_digest(index.graph.heaps)
        assert replica.graph.heaps.edge_sets() == index.graph.heaps.edge_sets()
        assert replica.reverse_index().to_sets() == index.reverse_index().to_sets()
    finally:
        feed.close()


# ----------------------------------------------------------------------
# apply_delta replay oracles: a clone fed the (delta, scores) stream
# ----------------------------------------------------------------------

# A GoldFinger index, and a tail that repairs degraded rows, so refill
# deltas are on the tape too.
_REPLICA_OPS = dict(tail="refill")


def _replica_index(seed):
    spec = SyntheticSpec(
        name="proprep", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params, backend="goldfinger")


def _apply_fresh(replica, record):
    """Replay one ``(delta, scores)`` record that must be new to ``replica``."""
    assert replica.apply_delta(*record)


def _random_profile(index, rng):
    if rng.random() < 0.5 and index.dataset.active_users().size:
        base = index.dataset.profile(int(rng.choice(index.dataset.active_users())))
        keep = rng.random(base.size) > 0.4
        return base[keep] if keep.any() else base
    return rng.integers(0, index.dataset.n_items, size=int(rng.integers(3, 20)))


def _assert_state_parity(replica, primary):
    """The full serving-state oracle a converged replica must satisfy."""
    assert replica.version == primary.version
    assert replica.graph.heaps.edge_sets() == primary.graph.heaps.edge_sets()
    assert edge_digest(replica.graph.heaps) == edge_digest(primary.graph.heaps)
    assert replica.reverse_index().to_sets() == primary.reverse_index().to_sets()
    assert replica._assign == primary._assign
    assert replica._members == primary._members
    assert replica.dataset.n_items == primary.dataset.n_items
    assert np.array_equal(
        replica.dataset.active_mask(), primary.dataset.active_mask()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_synchronous_replica_is_identical_at_every_step(seed, wal_tap, clone, mutate):
    primary = _replica_index(seed)
    primary.reverse_index()  # maintained on both sides from the start
    replica = clone(primary)
    replica.reverse_index()
    feed = wal_tap(primary, lambda record: _apply_fresh(replica, record))
    walk_primary = GraphSearcher(primary)
    walk_replica = GraphSearcher(replica)
    rng = np.random.default_rng(seed + 600)
    try:
        for _ in range(N_OPS):
            mutate(primary, rng, **_REPLICA_OPS)
            _assert_state_parity(replica, primary)
            # Behaviour oracle: the replica's walk answers exactly what
            # the primary's would, profile by profile.
            profile = _random_profile(primary, rng)
            a = walk_primary.top_k(profile, k=K)
            b = walk_replica.top_k(profile, k=K)
            assert np.array_equal(a.ids, b.ids)
            assert a.scores == pytest.approx(b.scores)
            assert a.evaluations == b.evaluations and a.hops == b.hops
    finally:
        feed.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_lagging_replica_converges_once_drained(seed, wal_tap, clone, mutate):
    """Buffer the logged deltas, drain them in random chunks."""
    primary = _replica_index(seed)
    primary.reverse_index()
    replica = clone(primary)
    replica.reverse_index()
    queue = []
    feed = wal_tap(primary, queue.append)
    rng = np.random.default_rng(seed + 700)
    try:
        for _ in range(N_OPS):
            mutate(primary, rng, **_REPLICA_OPS)
            if queue and rng.random() < 0.4:
                # Drain a random prefix — the replica lags behind by
                # whatever remains buffered.
                take = int(rng.integers(1, len(queue) + 1))
                batch, queue[:] = queue[:take], queue[take:]
                for record in batch:
                    assert replica.apply_delta(*record)
        for record in queue:
            assert replica.apply_delta(*record)
        _assert_state_parity(replica, primary)
        # Idempotence: a replayed tail (a retry after a worker hiccup)
        # changes nothing.
        replayed = []
        replay_feed = wal_tap(primary, replayed.append)
        mutate(primary, np.random.default_rng(seed + 701), **_REPLICA_OPS)
        for record in replayed:
            assert replica.apply_delta(*record)
            assert not replica.apply_delta(*record)
        _assert_state_parity(replica, primary)
        replay_feed.close()
    finally:
        feed.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_raced_deltas_are_skipped(seed, wal_tap, clone, mutate):
    """A delta older than the snapshot it joined must be a no-op."""
    primary = _replica_index(seed)
    records = []
    feed = wal_tap(primary, records.append)
    rng = np.random.default_rng(seed + 800)
    try:
        for _ in range(5):
            mutate(primary, rng, **_REPLICA_OPS)
        replica = clone(primary)  # snapshot already contains all 5
        for record in records:
            assert not replica.apply_delta(*record)
        _assert_state_parity(replica, primary)
    finally:
        feed.close()


def test_clone_tracks_every_mutation_one_delta_per_version(wal_tap, clone):
    """Each mutation publishes exactly one delta, and a clone fed their
    records lands on full serving-state parity with the primary."""
    primary = _replica_index(_SEED_BASE)
    primary.reverse_index()  # built before the clone is taken
    replica = clone(primary)
    start = primary.version
    applied = []

    def ship(record):
        _apply_fresh(replica, record)
        applied.append(record)

    feed = wal_tap(primary, ship)
    rng = np.random.default_rng(_SEED_BASE + 900)
    try:
        for _ in range(20):
            active = primary.dataset.active_users()
            op = rng.random()
            if op < 0.4:
                primary.add_items(
                    int(rng.choice(active)),
                    rng.integers(0, primary.dataset.n_items, size=2),
                )
            elif op < 0.7:
                primary.add_user(rng.integers(0, primary.dataset.n_items, size=12))
            else:
                primary.remove_user(int(rng.choice(active)))
        assert len(applied) == primary.version - start == 20
        _assert_state_parity(replica, primary)
    finally:
        feed.close()


def test_stale_delta_stream_raises_and_heals(wal_tap, clone):
    index = _replica_index(_SEED_BASE)
    replica = clone(index)
    records = []
    feed = wal_tap(index, records.append)
    try:
        index.add_user([1, 2, 3])
        index.add_user([4, 5, 6])
        with pytest.raises(ReplayGapError):
            replica.apply_delta(*records[1])  # gap: delta 0 never applied
        assert replica.apply_delta(*records[0])
        assert replica.apply_delta(*records[1])
        assert not replica.apply_delta(*records[1])  # idempotent skip
        assert edge_digest(replica.graph.heaps) == edge_digest(index.graph.heaps)
    finally:
        feed.close()
