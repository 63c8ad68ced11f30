"""Property tests for durable-serving recovery (repro.persist, PR 5).

Randomized mutation tapes (fixed seeds, no hypothesis dependency)
drive a persisted :class:`~repro.online.OnlineIndex` and check the
durability contract against the live index as oracle:

* after any tape — interleaving add_items / add_user / remove_user /
  refills and randomly-placed checkpoints — a recovery from disk is
  **state-parity identical** to the live index: version, per-row
  neighbour-id sets (edge digest), reverse adjacency, cluster routing,
  active users and profiles;
* recovery charges **zero similarity evaluations** no matter where the
  checkpoints fell;
* serving through the recovered index returns exactly the live
  index's answers;
* chopping any suffix off the WAL recovers a valid *earlier* version
  (the log is consistent at every prefix, not just at the end).

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but tapes vary across jobs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.persist import DurableIndex, WriteAheadLog
from repro.persist.wal import _HEADER, MAGIC
from repro.serve import GraphSearcher
from repro.graph.heap import edge_digest

K = 6
N_OPS = 40

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _index(seed):
    spec = SyntheticSpec(
        name="propdur", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(dataset, params=params)


# The op mix this suite draws from (see conftest.py ``mutate``).
_OPS = dict(tail="read")


def _assert_parity(live: OnlineIndex, recovered: OnlineIndex) -> None:
    assert recovered.version == live.version
    assert edge_digest(recovered.graph.heaps) == edge_digest(live.graph.heaps)
    assert np.array_equal(
        recovered.dataset.active_users(), live.dataset.active_users()
    )
    for user in live.dataset.active_users():
        assert np.array_equal(
            recovered.dataset.profile(int(user)), live.dataset.profile(int(user))
        )
        assert recovered._assign[int(user)] == live._assign[int(user)]
    assert recovered.graph.heaps.edge_sets() == live.graph.heaps.edge_sets()
    rev_live = live.reverse_index()
    rev_rec = recovered.reverse_index()
    for user in range(live.n_users):
        assert np.array_equal(
            np.sort(rev_rec.holders(user)), np.sort(rev_live.holders(user))
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_state_parity_after_random_tape(seed, tmp_path, mutate):
    index = _index(seed)
    index.reverse_index()
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    rng = np.random.default_rng(seed + 1000)
    for step in range(N_OPS):
        mutate(index, rng, **_OPS)
        if rng.random() < 0.1:
            durable.checkpoint()  # randomly-placed checkpoints
    durable.close()
    recovered = DurableIndex.recover(tmp_path)
    assert recovered.recovery.evaluations == 0
    _assert_parity(index, recovered.index)
    recovered.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_recovered_serving_equals_live_serving(seed, tmp_path, mutate):
    index = _index(seed)
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    rng = np.random.default_rng(seed + 2000)
    for _ in range(N_OPS):
        mutate(index, rng, **_OPS)
    durable.close()
    recovered = DurableIndex.recover(tmp_path)
    live = GraphSearcher(index, ef=16)
    back = GraphSearcher(recovered.index, ef=16)
    for _ in range(8):
        profile = rng.integers(0, index.dataset.n_items, size=14)
        a = live.top_k(profile, k=K)
        b = back.top_k(profile, k=K)
        assert np.array_equal(a.ids, b.ids)
        np.testing.assert_allclose(a.scores, b.scores)
    recovered.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_wal_prefix_recovers_a_valid_version(seed, tmp_path, mutate):
    """Chopping the log after any record yields that record's state.

    The crash model: a restart may find any prefix of the appended
    stream on disk. Each prefix must recover cleanly to exactly the
    version its last record produced — checked against digests
    collected from the live index as the tape ran.
    """
    index = _index(seed)
    durable = index.attach_persistence(
        tmp_path, checkpoint_bytes=0, segment_bytes=1 << 12
    )
    rng = np.random.default_rng(seed + 3000)
    digests = {index.version: edge_digest(index.graph.heaps)}
    for _ in range(N_OPS // 2):
        mutate(index, rng, **_OPS)
        digests[index.version] = edge_digest(index.graph.heaps)
    durable.close()

    # Walk the committed record boundaries of the final segment and
    # truncate to each in turn (deepest cut last).
    wal = WriteAheadLog(tmp_path)
    seg = wal.segments()[-1]
    wal.close()
    data = seg.read_bytes()
    boundaries = []
    offset = len(MAGIC)
    while offset < len(data):
        _crc, length, seq = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        boundaries.append((offset, seq))
    for end, seq in reversed(boundaries[:-1]):
        seg.write_bytes(data[:end])
        recovered = DurableIndex.recover(tmp_path)
        assert recovered.index.version == seq
        assert edge_digest(recovered.index.graph.heaps) == digests[seq]
        recovered.close()
