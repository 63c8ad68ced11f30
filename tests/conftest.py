"""Shared fixtures for the test suite."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro import C2Params
from repro.data import Dataset, SyntheticSpec, generate
from repro.deltas import DerivedView
from repro.graph.heap import EMPTY
from repro.graph.reverse import ReverseAdjacency
from repro.online import OnlineIndex
from repro.serve import GraphSearcher


def _mutate(index, rng, *, mix=(0.4, 0.25, 0.2), profile_size=12, tail=None) -> int:
    """Apply one random mutation to ``index``; returns the touched user.

    ``mix`` holds the probabilities of ``add_items`` (two random items
    for a random active user), ``add_user`` (``profile_size`` random
    items) and ``remove_user`` (only while more than 40 users are
    active). The rest of the draws go to ``tail``: ``"refill"``
    repairs a random degraded row, ``"read"`` reads a random active
    user's neighbourhood (which refills it if degraded) and ``None``
    does nothing. Returns ``-1`` when no user was touched.
    """
    p_items, p_user, p_remove = mix
    active = index.dataset.active_users()
    op = rng.random()
    if op < p_items and active.size:
        user = int(rng.choice(active))
        index.add_items(user, rng.integers(0, index.dataset.n_items, size=2))
        return user
    if op < p_items + p_user:
        return index.add_user(
            rng.integers(0, index.dataset.n_items, size=profile_size)
        )
    if op < p_items + p_user + p_remove and active.size > 40:
        user = int(rng.choice(active))
        index.remove_user(user)
        return user
    if tail == "refill" and index.degraded:
        user = int(rng.choice(list(index.degraded)))
        index.refill(user)
        return user
    if tail == "read" and active.size:
        user = int(rng.choice(active))
        index.neighborhood(user)
        return user
    return -1


@pytest.fixture()
def mutate():
    """``mutate(index, rng, *, mix, profile_size, tail)``, see :func:`_mutate`.

    The one random-mutation helper the property suites share; each
    suite binds its own op mix.
    """
    return _mutate


class _TapView(DerivedView):
    """Calls ``fn`` with every published delta."""

    name = "test_tap"

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def apply(self, delta) -> None:
        self.fn(delta)

    def resync(self) -> None:
        pass


@pytest.fixture()
def tap():
    """``tap(index, fn)`` registers a :class:`_TapView`.

    Returns the view; ``view.close()`` detaches it.
    """
    return lambda index, fn: index.deltas.register(_TapView(fn))


@pytest.fixture()
def wal_tap():
    """``wal_tap(index, fn)`` calls ``fn((delta, scores))`` per mutation.

    ``(delta, scores)`` is the record the WAL stores: the published
    delta and its edges' post-mutation scores, which is what
    ``OnlineIndex.apply_delta(*record)`` replays. Returns the view.
    """
    return lambda index, fn: index.deltas.register(
        _TapView(lambda d: fn((d, index.graph.heaps.edge_scores(d.edges))))
    )


def _clone(index):
    """A detached deep copy of ``index``: the pickled form a snapshot stores.

    Taken under the read lock so a concurrent mutation cannot tear it;
    the copy starts with a fresh bus holding only its reverse view.
    """
    with index.lock.read():
        return pickle.loads(pickle.dumps(index))


@pytest.fixture()
def clone():
    """``clone(index)``, see :func:`_clone`."""
    return _clone


def _walk_trace(searcher, profile, **kwargs):
    """Run ``searcher.top_k`` and record what its walk did.

    Returns ``(result, calls, reads)``. ``calls`` lists every
    ``query_many`` batch as ``(ids, scores)``; the first is the seed
    batch, ``calls[h]`` is hop ``h``. ``reads`` lists ``(h, node)`` for
    every frontier node whose neighbours the walk read before scoring
    hop ``h``: every node it popped, including one it then pushed back
    because it would overflow the hop.
    """
    engine = searcher.index.engine
    calls: list[tuple[np.ndarray, np.ndarray]] = []
    reads: list[tuple[int, int]] = []
    # Where each core reads one node's neighbours.
    reader = "_fresh_neighbors" if searcher.walk_impl == "numpy" else "_adjacent"
    query_many, read = engine.query_many, getattr(searcher, reader)

    def traced_query_many(query, users):
        scores = query_many(query, users)
        calls.append((np.array(users, dtype=np.int64), np.array(scores)))
        return scores

    def traced_read(graph, node, *rest):
        reads.append((len(calls), int(node)))
        return read(graph, node, *rest)

    engine.query_many = traced_query_many
    setattr(searcher, reader, traced_read)
    try:
        result = searcher.top_k(profile, **kwargs)
    finally:
        del engine.query_many
        delattr(searcher, reader)
    return result, calls, reads


@pytest.fixture()
def walk_trace():
    """``walk_trace(searcher, profile, **top_k_kwargs)``, see :func:`_walk_trace`."""
    return _walk_trace


def _hop_gather(index, calls, reads, hop, room=None):
    """Replay the hop rule for hop ``hop`` of a python-core trace.

    Returns ``[(node, fresh), ...]`` for the nodes the hop took, in
    pop order: ``fresh`` is the node's neighbours not seen before the
    hop and not gathered by an earlier node of it, in id order. A node
    whose fresh neighbours would push the batch past half of ``room``
    (the evaluations the budget still allowed; ``None`` = unbounded)
    is not taken and ends the hop. Assumes a walk without exclusions
    over the index as it is now.
    """
    seen = {int(v) for ids, _ in calls[:hop] for v in ids}
    active = index.dataset.active_mask()
    rev = index.reverse_index()
    taken, gathered = [], 0
    for h, node in reads:
        if h != hop:
            continue
        adjacent = set(index.graph.neighbors(node).tolist())
        adjacent |= set(rev.holders(node).tolist())
        fresh = [v for v in sorted(adjacent) if v not in seen and active[v]]
        if not fresh:
            continue
        if taken and room is not None and 2 * (gathered + len(fresh)) > room:
            break
        taken.append((node, fresh))
        gathered += len(fresh)
        seen.update(fresh)
    return taken


@pytest.fixture()
def hop_gather():
    """``hop_gather(index, calls, reads, hop, room=None)``, see :func:`_hop_gather`."""
    return _hop_gather


def _planted_hub(seed=0, permute_slots=False):
    """A 40-user index with a hand-planted graph whose second-best seed
    is a hub.

    Users are ranked by similarity to ``query`` (rank ``r`` scores
    ``(40 - r) / 41``); ``seed`` relabels ranks to user ids at random,
    ``permute_slots`` shuffles every heap row's slot layout. The walk
    seeds with ranks 0 and 1 at ``ef = 2``. Rank 0 holds edges to
    ranks 30 and 31; rank 1 is a hub holding ranks 20-23 and held by
    ranks 24-39, so it brings 18 more fresh neighbours. The first hop
    takes both nodes only when their 20 ids fit in half of the
    ``room`` evaluations left after the seeds; otherwise the hub waits
    for a second hop of its own, which a ``room`` under 20 truncates.

    Returns a namespace: ``heaps``; ``first`` and ``hub``, the two
    nodes' fresh ids in id order; and ``walk(walk_impl, room)``, which
    runs that walk core directly and returns ``(pool, hops,
    evaluations, batches)`` with ``batches`` the id arrays its hops
    scored (the seeds are scored beforehand, so ``batches[0]`` is the
    first hop).
    """
    n = 40
    rng = np.random.default_rng(seed)
    user = rng.permutation(n) if seed else np.arange(n)  # rank -> user id
    profiles = [None] * n
    for rank in range(n):
        profiles[user[rank]] = list(range(n - rank)) + [1000 + rank]
    dataset = Dataset.from_profiles(profiles, n_items=1000 + n)
    params = C2Params(k=4, n_buckets=16, n_hashes=2, split_threshold=60, seed=1)
    index = OnlineIndex.build(dataset, params=params, backend="exact")
    heaps = index.graph.heaps
    heaps.ids[:] = EMPTY
    heaps.scores[:] = -np.inf
    rows = {0: [30, 31], 1: [20, 21, 22, 23]}
    rows.update({rank: [1] for rank in range(24, n)})
    for rank, held in rows.items():
        ids = np.full(heaps.k, EMPTY, dtype=heaps.ids.dtype)
        ids[: len(held)] = user[held]
        scores = np.where(ids == EMPTY, -np.inf, 0.5)
        order = rng.permutation(heaps.k) if permute_slots else np.arange(heaps.k)
        heaps.ids[user[rank]] = ids[order]
        heaps.scores[user[rank]] = scores[order]
    query = index.engine.prepare_query(np.arange(n))
    seeds = np.sort(user[[0, 1]]).astype(np.int64)
    sims = index.engine.query_many(query, seeds)
    first = sorted(user[[30, 31]].tolist())
    hub = sorted(set(user[20:n].tolist()) - set(first))
    rev = ReverseAdjacency.from_heaps(heaps)
    searcher = GraphSearcher(index)
    engine = index.engine

    def walk(walk_impl, room):
        core = getattr(searcher, f"_walk_core_{walk_impl}")
        batches = []
        query_many = engine.query_many

        def traced(q, users):
            batches.append(np.array(users, dtype=np.int64))
            return query_many(q, users)

        engine.query_many = traced
        try:
            pool, hops, evals = core(
                engine, index.graph, query, index.dataset.active_mask(), set(),
                seeds, sims, 2, seeds.size + room, rev,
            )
        finally:
            del engine.query_many
        return pool, hops, evals, batches

    return SimpleNamespace(heaps=heaps, first=first, hub=hub, walk=walk)


@pytest.fixture()
def planted_hub():
    """``planted_hub(seed=0, permute_slots=False)``, see :func:`_planted_hub`."""
    return _planted_hub


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """A fixed 6-user dataset with hand-checkable similarities."""
    return Dataset.from_profiles(
        [
            [0, 1, 2, 3],        # u0
            [0, 1, 2, 4],        # u1: J(u0,u1)=3/5
            [0, 1, 2, 3],        # u2: identical to u0
            [5, 6, 7],           # u3: disjoint from u0
            [3, 5, 6, 7, 8],     # u4
            [0, 3],              # u5
        ],
        n_items=9,
        name="tiny",
    )


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A 300-user synthetic dataset with planted community structure."""
    spec = SyntheticSpec(
        name="small",
        n_users=300,
        n_items=500,
        mean_profile_size=35.0,
        n_communities=10,
        community_pool_size=80,
        min_profile_size=10,
    )
    return generate(spec, seed=123)


@pytest.fixture(scope="session")
def medium_dataset() -> Dataset:
    """A 800-user synthetic dataset (for integration tests)."""
    spec = SyntheticSpec(
        name="medium",
        n_users=800,
        n_items=1200,
        mean_profile_size=40.0,
        n_communities=16,
        community_pool_size=120,
        min_profile_size=15,
    )
    return generate(spec, seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(0)
