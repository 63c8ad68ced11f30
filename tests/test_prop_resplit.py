"""Property tests for online cluster re-split (repro.online, PR 6).

Randomized churn tapes (fixed seeds, no hypothesis dependency) drive
an ``auto_resplit`` index with the viral-bundle scenario — the traffic
shape that actually swells clusters past ``split_threshold`` — and
check the re-split contract against strict oracles:

* every online re-split partitions the oversized cluster **exactly**
  as the batch splitter (:func:`repro.core.clustering.split_cluster`)
  would partition the same member set at that moment — same children,
  same residual, recursively (checked live, inside the journal
  callback, so the oracle sees the same profiles the split saw);
* after any tape the index satisfies the size invariant (every
  cluster at or under the threshold, or frozen unsplittable) and the
  members/assignment tables stay a bijection;
* a lagging replica fed the journal deltas converges to the primary's
  exact routing state and edge digest, and a :class:`DurableIndex`
  recovery reproduces both with zero similarity evaluations.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but tapes vary across jobs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import C2Params
from repro.bench.scenarios import DriftTracker, IndexWorld, make_scenario, play
from repro.core.clustering import Cluster, split_cluster
from repro.data import SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import GraphSearcher
from repro.graph.heap import edge_digest

K = 6
N_OPS = 260
THRESHOLD = 30

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _index(seed, auto_resplit=True):
    spec = SyntheticSpec(
        name="propsplit", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(
        k=K, n_buckets=64, n_hashes=4, split_threshold=THRESHOLD, seed=1
    )
    return OnlineIndex.build(dataset, params=params, auto_resplit=auto_resplit)


def _churn(index, seed, n_ops=N_OPS, tracker=None):
    """Drive the viral-bundle churn tape; returns the op count.

    ``IndexWorld`` without an engine skips query ops, so the tape is
    effectively its mutation stream — signup followers, bundle
    adoptions and removals, the mix that forces re-splits.
    """
    world = IndexWorld(index)
    scenario = make_scenario("churn", n_ops, seed=seed, bundle_size=60)
    return play(scenario, world, tracker)


@pytest.mark.parametrize("seed", SEEDS)
def test_resplit_partitions_match_batch_split_oracle(seed, tap):
    """Each online re-split equals a batch split of the same members.

    The oracle runs inside the journal callback — at that instant the
    dataset holds exactly the profiles the online split hashed, so
    :func:`split_cluster` on the reconstructed parent must produce the
    identical partition (children and residuals compared as sets of
    member frozensets; empty residuals dropped on both sides, since
    the batch splitter omits them).
    """
    index = _index(seed)
    checked = []

    def oracle(delta) -> None:
        if delta.event != "resplit":
            return
        payload = delta.resplit
        config = payload["config"]
        frozen = payload["unsplittable"]
        # The event's root: the frozen cluster with the shortest
        # lineage (its descendants were split in the same event).
        root = min(frozen, key=lambda c: len(index._cluster_key[c][1]))
        lineage = index._cluster_key[root][1]
        members = sorted(
            u for _, mem in payload["members"] for u in mem
        )
        parent = Cluster(
            users=np.array(members, dtype=np.int64),
            config=config,
            eta=int(lineage[-1]),
            path=tuple(lineage),
        )
        pieces, _ = split_cluster(
            index.dataset, index._router._frh[config], parent, THRESHOLD
        )
        want = {frozenset(int(u) for u in p.users) for p in pieces}
        got = {
            frozenset(mem) for _, mem in payload["members"] if mem
        }
        assert got == want
        checked.append(root)

    tap(index, oracle)
    _churn(index, seed)
    # The tape must actually have exercised the mechanism.
    assert checked and index.stats()["resplits_total"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_post_tape_size_invariant_and_assignment_bijection(seed):
    """After any tape: sizes bounded and membership tables consistent."""
    index = _index(seed)
    _churn(index, seed)
    assert index.stats()["resplits_total"] > 0
    for cid, members in enumerate(index._members):
        if len(members) > THRESHOLD:
            # Only frozen residuals may stay oversized.
            assert cid in index._unsplittable
        config, _ = index._cluster_key[cid]
        for u in members:
            assert index._assign[u][config] == cid
    # Every active user sits in exactly the clusters assigned to her.
    for u in index.dataset.active_users():
        for config, cid in enumerate(index._assign[int(u)]):
            if cid >= 0:
                assert int(u) in index._members[cid]


@pytest.mark.parametrize("seed", SEEDS)
def test_drift_curve_reads_index_stats(seed):
    """The drift curve's re-split columns are the index's own counters."""
    index = _index(seed)
    probes = [index.dataset.profile(u) for u in range(3)]
    tracker = DriftTracker(index, GraphSearcher(index), probes, k=5, window=N_OPS // 4)
    _churn(index, seed, tracker=tracker)
    stats = index.stats()
    assert stats["resplits_total"] > 0
    last = tracker.curve[-1]
    assert last["op"] == N_OPS
    assert (last["resplits"], last["oversized"], last["max_cluster"]) == (
        stats["resplits_total"], stats["oversized"], stats["max_cluster_size"]
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_lagging_replica_converges_through_resplits(seed, wal_tap, clone):
    """Buffered journal deltas replay re-splits to the identical state."""
    primary = _index(seed)
    primary.reverse_index()
    replica = clone(primary)
    replica.reverse_index()
    queue: list = []
    wal_tap(primary, queue.append)
    rng = np.random.default_rng(seed + 500)
    world = IndexWorld(primary)
    scenario = make_scenario("churn", N_OPS, seed=seed, bundle_size=60)
    for op in scenario.ops(world):
        world.apply(op)
        if queue and rng.random() < 0.3:
            take = int(rng.integers(1, len(queue) + 1))
            batch, queue[:] = queue[:take], queue[take:]
            for record in batch:
                assert replica.apply_delta(*record)
    for record in queue:
        assert replica.apply_delta(*record)
    assert primary.stats()["resplits_total"] > 0
    assert replica.version == primary.version
    assert replica._members == primary._members
    assert replica._assign == primary._assign
    assert replica._unsplittable == primary._unsplittable
    assert replica._router.split_paths == primary._router.split_paths
    assert edge_digest(replica.graph.heaps) == edge_digest(primary.graph.heaps)


@pytest.mark.parametrize("seed", SEEDS)
def test_durable_recovery_reproduces_resplit_state(seed, tmp_path):
    """WAL recovery replays re-splits: same routing, digest, 0 evals."""
    index = _index(seed)
    index.reverse_index()
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    _churn(index, seed)
    assert index.stats()["resplits_total"] > 0
    durable.close()
    recovered = DurableIndex.recover(tmp_path)
    try:
        assert recovered.recovery.evaluations == 0
        rec = recovered.index
        assert rec.version == index.version
        assert rec._members == index._members
        assert rec._assign == index._assign
        assert rec._unsplittable == index._unsplittable
        assert rec._router.split_paths == index._router.split_paths
        assert edge_digest(rec.graph.heaps) == edge_digest(index.graph.heaps)
    finally:
        recovered.close()
