"""Property suite: the slack-CSR ``MutableDataset`` == a packed ``Dataset``.

:class:`~repro.online.MutableDataset` patches its item buffer and its
per-user start/length/active arrays in place on every write, re-appends
grown profiles at the buffer's tail and compacts the dead space away.
None of that may be observable: after random ``add_user`` /
``add_items`` / ``remove_user`` tapes — long enough to force both
compaction and several doublings of the per-user arrays — the live
store must equal, bit for bit, a :meth:`Dataset.from_profiles` of the
same profiles (tombstones as empty profiles) in every read the library
makes of it: ``profile``, ``profile_sizes``, ``active_mask``,
``snapshot()``, the ``H\\eta`` re-hash, and exact ``one_to_many``,
``query_many`` and ``block`` on an engine over each. The pickled form
round-trips with live items only.

The last test pins the point of the layout: once an index is built,
no write or read path asks the store for a packed ``snapshot()``.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but tapes vary across jobs.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import C2Params
from repro.bench.scenarios import IndexWorld, SustainedChurn, play
from repro.core.fastrandomhash import FastRandomHash
from repro.core.hashing import GenerativeHash
from repro.data import Dataset, SyntheticSpec, generate
from repro.online import MutableDataset, OnlineIndex
from repro.persist import DurableIndex
from repro.serve import QueryEngine
from repro.similarity import ExactEngine

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]

N_ITEMS = 60


def _random_tape(data: MutableDataset, model: list, rng, n_ops: int) -> int:
    """Apply ``n_ops`` random writes to ``data`` and to ``model``.

    ``model[u]`` is user ``u``'s item set, or ``None`` once removed.
    Item ids reach past the initial universe so it grows too. Returns
    the number of items the store had to (re-)append.
    """
    written = 0
    for _ in range(n_ops):
        live = [u for u, p in enumerate(model) if p is not None]
        op = rng.random()
        if op < 0.5 and live:
            user = int(rng.choice(live))
            items = rng.integers(0, N_ITEMS + 8, size=int(rng.integers(1, 6)))
            added = data.add_items(user, items)
            assert sorted(added.tolist()) == sorted(set(items.tolist()) - model[user])
            model[user] |= set(items.tolist())
            written += len(model[user]) if added.size else 0
        elif op < 0.8 or not live:
            items = rng.integers(0, N_ITEMS, size=int(rng.integers(0, 14)))
            assert data.add_user(items) == len(model)
            model.append(set(items.tolist()))
            written += len(model[-1])
        else:
            user = int(rng.choice(live))
            data.remove_user(user)
            model[user] = None
    return written


def _reference(data: MutableDataset, model: list) -> Dataset:
    return Dataset.from_profiles(
        [sorted(p) if p is not None else [] for p in model], n_items=data.n_items
    )


def _assert_same_store(data: MutableDataset, ref: Dataset, model: list, rng) -> None:
    n = ref.n_users
    assert data.n_users == n and data.n_items == ref.n_items
    assert data.n_ratings == ref.n_ratings
    for u in range(n):
        got, want = data.profile(u), ref.profile(u)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert data.profile_sizes.dtype == ref.profile_sizes.dtype
    assert np.array_equal(data.profile_sizes, ref.profile_sizes)
    assert np.array_equal(data.active_mask(), [p is not None for p in model])
    snap = data.snapshot()
    assert np.array_equal(snap.indptr, ref.indptr)
    assert snap.indices.dtype == ref.indices.dtype
    assert np.array_equal(snap.indices, ref.indices)

    users = rng.choice(n, size=min(n, 40), replace=False)
    frh = FastRandomHash(GenerativeHash(data.n_items, 16, seed=int(rng.integers(1 << 30))))
    for eta in (0, 3, 9):
        assert np.array_equal(
            frh.user_hashes_excluding(data, users, eta),
            frh.user_hashes_excluding(ref, users, eta),
        )

    live, fresh = ExactEngine(data), ExactEngine(ref)
    for u in rng.choice(n, size=min(n, 8), replace=False):
        assert np.array_equal(live.one_to_many(int(u), users), fresh.one_to_many(int(u), users))
    query = rng.integers(0, data.n_items + 4, size=12)
    assert np.array_equal(
        live.query_many(live.prepare_query(query), users),
        fresh.query_many(fresh.prepare_query(query), users),
    )
    us, vs = users[:10], rng.choice(n, size=min(n, 25), replace=False)
    assert np.array_equal(live.block(us, vs), fresh.block(us, vs))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_tapes_match_a_packed_dataset(seed):
    rng = np.random.default_rng(seed)
    model = [set(rng.integers(0, N_ITEMS, size=int(rng.integers(1, 10))).tolist())
             for _ in range(5)]
    data = MutableDataset(profiles=[sorted(p) for p in model], n_items=N_ITEMS)
    written = sum(len(p) for p in model)
    for _ in range(6):
        written += _random_tape(data, model, rng, 150)
        _assert_same_store(data, _reference(data, model), model, rng)
    # Rows grew by many doublings, and the re-appended profiles left far
    # more dead items behind than the buffer holds: compaction ran.
    assert data.n_users > 16 * 5
    assert data.buffer.size < written


@pytest.mark.parametrize("seed", SEEDS)
def test_thawed_dataset_and_pickle_round_trip(seed):
    rng = np.random.default_rng(seed + 50)
    spec = SyntheticSpec(name="propdata", n_users=60, n_items=N_ITEMS,
                         mean_profile_size=9.0, min_profile_size=2)
    base = generate(spec, seed=seed)
    data = MutableDataset.from_dataset(base)
    model = [set(base.profile(u).tolist()) for u in range(base.n_users)]
    _random_tape(data, model, rng, 200)

    state = data.__getstate__()
    assert state["items"].size == data.n_ratings  # live items only
    copy = pickle.loads(pickle.dumps(data))
    _assert_same_store(copy, _reference(data, model), model, rng)
    # The unpickled store is packed to the byte and must still accept writes.
    _random_tape(copy, model, rng, 100)
    _assert_same_store(copy, _reference(copy, model), model, rng)


def test_churn_tape_never_packs_a_snapshot(tmp_path, monkeypatch):
    """Writes, walks, re-splits, the WAL and refills read the store in place."""
    spec = SyntheticSpec(name="propsnap", n_users=200, n_items=240,
                         mean_profile_size=20.0, n_communities=6,
                         community_pool_size=50, min_profile_size=6)
    params = C2Params(k=6, n_buckets=64, n_hashes=4, split_threshold=30, seed=1)
    index = OnlineIndex.build(generate(spec, seed=_SEED_BASE), params=params,
                              backend="exact", update_cap=48)
    index.reverse_index()
    engine = QueryEngine(index, k=5)
    durable = DurableIndex(index, tmp_path, checkpoint_bytes=0,
                           background_checkpoints=False, fsync=False)

    calls = []
    packed = MutableDataset.snapshot

    def counting(self):
        calls.append(1)
        return packed(self)

    monkeypatch.setattr(MutableDataset, "snapshot", counting)
    play(SustainedChurn(n_ops=400, seed=_SEED_BASE), IndexWorld(index, engine))
    for user in sorted(index.degraded):
        index.neighborhood(user)  # lazy refills walk the graph too
    assert index.stats()["resplits_total"] > 0
    assert calls == []
    engine.close()
    durable.close()
