"""Property tests for replica convergence (repro.serve.replica, PR 4).

Randomized interleavings (fixed seeds, no hypothesis dependency) of
primary mutations with delta shipping and replica reads, checking the
replication contract against strict oracles:

* a replica fed every delta is **identical to the primary** in the
  serving currency — per-row neighbour-id sets, reverse adjacency,
  routing tables, cluster membership — at every step, and its walks
  return exactly the primary's answers;
* a **lagging** replica (deltas buffered, applied later in random
  chunks) converges to the same state once drained, and re-applying
  already seen deltas is an idempotent no-op.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but interleavings vary across jobs.
"""

import os

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.graph.heap import edge_digest
from repro.serve import GraphSearcher, ReplicaSet

K = 6
N_OPS = 40

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _index(seed, backend="goldfinger"):
    spec = SyntheticSpec(
        name="proprep", n_users=140, n_items=280, mean_profile_size=22.0,
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
def test_synchronous_replica_is_identical_at_every_step(seed, mutate):
    primary = _index(seed)
    primary.reverse_index()  # maintained on both sides from the start
    replicas = ReplicaSet(primary, 2)
    walk_primary = GraphSearcher(primary)
    walk_replica = GraphSearcher(replicas.replica(0))
    rng = np.random.default_rng(seed + 600)
    try:
        for _ in range(N_OPS):
            mutate(primary, rng, **_OPS)
            _assert_state_parity(replicas.replica(0), primary)
            # Behaviour oracle: the replica's walk answers exactly what
            # the primary's would, profile by profile.
            profile = _random_profile(primary, rng)
            a = walk_primary.top_k(profile, k=K)
            b = walk_replica.top_k(profile, k=K)
            assert np.array_equal(a.ids, b.ids)
            assert a.scores == pytest.approx(b.scores)
            assert a.evaluations == b.evaluations and a.hops == b.hops
        assert replicas.stats()["resyncs_total"] == 0
        assert replicas.converged()
    finally:
        replicas.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_lagging_replica_converges_once_drained(seed, tap, mutate):
    """Buffer the shipped deltas, drain them in random chunks."""
    primary = _index(seed)
    primary.reverse_index()
    replica = primary.clone()
    replica.reverse_index()
    queue = []
    feed = tap(primary, queue.append, scored=True)
    rng = np.random.default_rng(seed + 700)
    try:
        for _ in range(N_OPS):
            mutate(primary, rng, **_OPS)
            if queue and rng.random() < 0.4:
                # Drain a random prefix — the replica lags behind by
                # whatever remains buffered.
                take = int(rng.integers(1, len(queue) + 1))
                batch, queue[:] = queue[:take], queue[take:]
                for delta in batch:
                    assert replica.apply_delta(delta)
        for delta in queue:
            assert replica.apply_delta(delta)
        _assert_state_parity(replica, primary)
        # Idempotence: a replayed tail (a retry after a worker hiccup)
        # changes nothing.
        replayed = []
        replay_feed = tap(primary, replayed.append, scored=True)
        mutate(primary, np.random.default_rng(seed + 701), **_OPS)
        for delta in replayed:
            assert replica.apply_delta(delta)
            assert not replica.apply_delta(delta)
        _assert_state_parity(replica, primary)
        replay_feed.close()
    finally:
        feed.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_raced_deltas_are_skipped(seed, tap, mutate):
    """A delta older than the snapshot it joined must be a no-op."""
    primary = _index(seed)
    deltas = []
    feed = tap(primary, deltas.append, scored=True)
    rng = np.random.default_rng(seed + 800)
    try:
        for _ in range(5):
            mutate(primary, rng, **_OPS)
        clone = primary.clone()  # snapshot already contains all 5
        for delta in deltas:
            assert not clone.apply_delta(delta)
        _assert_state_parity(clone, primary)
    finally:
        feed.close()

