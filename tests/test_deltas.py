"""Unit tests for the declarative delta pipeline (``repro.deltas``, PR 9).

Covers the framework half and its contracts:

* :class:`DeltaBus` mechanics — monotonic seq stamping, priority-band
  delivery order, register/unregister error contracts, counted
  resyncs, lag reporting;
* :class:`DerivedView` base behaviour — cursor adoption on register,
  ``apply``/``resync`` must be implemented, idempotent close;
* clones and pickles start with a fresh bus that carries only the
  index's own reverse-adjacency view;
* consumer views (the engine's result cache, the WAL) attach and
  detach, and edges are scored only while a WAL is attached.

The resync-equals-incremental property per ported consumer lives in
``tests/test_prop_deltas.py`` (REPRO_PROP_SEED matrix).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import C2Params
from repro.deltas import Delta, DeltaBus, DerivedView
from repro.graph import NeighborHeaps, ReverseAdjacency
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import QueryEngine

K = 6


@pytest.fixture()
def index(small_dataset):
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    return OnlineIndex.build(small_dataset, params=params)


def _churn(index, rng, n=25):
    for _ in range(n):
        op = rng.random()
        active = index.dataset.active_users()
        if op < 0.5 and active.size:
            index.add_items(
                int(rng.choice(active)),
                rng.integers(0, index.dataset.n_items, size=2),
            )
        elif op < 0.8:
            index.add_user(rng.integers(0, index.dataset.n_items, size=10))
        elif active.size > 40:
            index.remove_user(int(rng.choice(active)))


class _Recorder(DerivedView):
    """A view that records every delivered delta (default priority)."""

    name = "recorder"

    def __init__(self, name=None, log=None):
        super().__init__(name=name)
        self.deltas = []
        self.resynced = 0
        self._log = log

    def apply(self, delta):
        self.deltas.append(delta)
        if self._log is not None:
            self._log.append(self.name)

    def resync(self):
        self.resynced += 1


# ----------------------------------------------------------------------
# Bus mechanics
# ----------------------------------------------------------------------


class TestDeltaBus:
    def test_register_adopts_cursor_and_returns_view(self, index):
        view = index.deltas.register(_Recorder())
        assert view is index.deltas.view("recorder")
        assert view.seq == index.version == index.deltas.seq
        assert view.lag == 0

    def test_double_register_raises(self, index):
        view = index.deltas.register(_Recorder())
        with pytest.raises(ValueError):
            index.deltas.register(view)

    def test_unregister_unknown_view_raises(self, index):
        with pytest.raises(ValueError):
            index.deltas.unregister(_Recorder())

    def test_publish_stamps_monotonic_gapless_seq(self, index, rng):
        view = index.deltas.register(_Recorder())
        before = index.version
        _churn(index, rng, n=30)
        seqs = [d.seq for d in view.deltas]
        assert seqs  # the tape mutated something
        assert seqs == list(range(before + 1, before + 1 + len(seqs)))
        assert view.seq == seqs[-1] == index.version
        assert view.applied_total == len(seqs)
        assert view.lag == 0
        view.close()

    def test_delivery_follows_priority_bands(self, index):
        order = []

        class _Early(_Recorder):
            name = "early"
            priority = 0

        class _Late(_Recorder):
            name = "late"
            priority = 90

        # Registered late-first: priority must win over registration order.
        index.deltas.register(_Late(log=order))
        index.deltas.register(_Recorder(name="mid", log=order))
        index.deltas.register(_Early(log=order))
        index.add_user(np.arange(8))
        assert order == ["early", "mid", "late"]
        names = [v.name for v in index.deltas.views()]
        # The built-in reverse view shares the early band.
        assert names.index("early") < names.index("mid") < names.index("late")

    def test_edges_are_scored_only_with_a_wal(self, index, rng, monkeypatch, tmp_path):
        """No WAL, no scoring: a cache and a recorder read plain deltas."""
        calls = []
        real = NeighborHeaps.edge_scores

        def counted(heaps, edges):
            calls.append(len(edges))
            return real(heaps, edges)

        monkeypatch.setattr(NeighborHeaps, "edge_scores", counted)
        engine = QueryEngine(index, k=K, invalidation="partial")
        view = index.deltas.register(_Recorder())
        _churn(index, rng, n=40)
        for user in sorted(index.degraded)[:3]:
            index.refill(user)
        assert "refill" in {d.event for d in view.deltas} and calls == []
        durable = DurableIndex(index, tmp_path, background_checkpoints=False)
        index.add_user(np.arange(6))
        assert calls == [len(view.deltas[-1].edges)]  # the WAL scores each delta
        durable.close()
        engine.close()

    def test_delta_describes_the_mutation(self, index):
        view = index.deltas.register(_Recorder())
        profile = np.arange(10)
        user = index.add_user(profile)
        delta = view.deltas[-1]
        assert delta.event == "add_user" and delta.user == user
        assert delta.n_users == index.graph.heaps.n
        assert delta.n_items == index.dataset.n_items
        assert delta.edges and all(len(e) == 3 for e in delta.edges)
        assert delta.resplit is None
        assert delta.assign == index._assign[user]

    def test_scored_export_matches_per_edge_lookup(self, index, rng):
        """The vectorised edge scoring equals a per-edge heap-row
        lookup on every delta of a tape."""

        def per_edge(heaps, journal):
            scores = []
            for u, v, added in journal:
                score = 0.0
                if added:
                    slot = np.flatnonzero(heaps.ids[u] == v)
                    if slot.size:
                        score = float(heaps.scores[u, int(slot[0])])
                scores.append(score)
            return scores

        checked = []

        class _Check(_Recorder):
            name = "check"

            def apply(self, delta):
                # Delivered right after the mutation: the heap is the
                # post-mutation state the WAL view scores.
                want = per_edge(index.graph.heaps, delta.edges)
                got = index.graph.heaps.edge_scores(delta.edges)
                assert got.tolist() == want
                checked.append(sum(1 for s in want if s != 0.0))

        view = index.deltas.register(_Check())
        _churn(index, rng, n=40)
        view.close()
        assert len(checked) > 10 and sum(checked) > 0  # scored adds were compared

    def test_bus_resync_counts_and_fast_forwards(self, index):
        view = index.deltas.register(_Recorder())
        view.seq = -1  # simulate a gap
        assert view.lag == index.version + 1
        index.deltas.resync(view)
        assert view.resynced == 1
        assert view.seq == index.deltas.seq and view.lag == 0
        assert view.resyncs_total == 1
        assert index.deltas.stats()["resyncs_total"] == 1

    def test_stats_and_lags_shape(self, index):
        view = index.deltas.register(_Recorder())
        stats = index.deltas.stats()
        assert stats["component"] == "delta_bus"
        assert stats["seq"] == index.version
        assert "recorder" in stats["views"]
        lags = index.deltas.lags()
        assert lags["recorder"] == 0 and "reverse_adjacency" in lags
        view.seq -= 3
        assert index.deltas.lags()["recorder"] == 3
        assert index.deltas.stats()["lag"] == 3


# ----------------------------------------------------------------------
# DerivedView base contract
# ----------------------------------------------------------------------


class TestDerivedView:
    def test_base_contract_must_be_implemented(self):
        view = DerivedView(name="bare")
        with pytest.raises(NotImplementedError):
            view.apply(None)
        with pytest.raises(NotImplementedError):
            view.resync()

    def test_close_is_idempotent(self, index):
        view = index.deltas.register(_Recorder())
        view.close()
        view.close()  # second close is a no-op, not a ValueError
        assert index.deltas.view("recorder") is None
        assert view.lag == 0  # detached views do not report phantom lag

    def test_unbound_view_defaults(self):
        view = _Recorder()
        assert view.seq == -1 and view.lag == 0
        view.close()  # never registered: still a no-op


# ----------------------------------------------------------------------
# Clones and pickles drop registered views
# ----------------------------------------------------------------------


class TestDeprecationShims:
    def test_clone_drops_legacy_views_but_keeps_bus(self, index, rng, clone):
        listener = index.deltas.register(_Recorder())
        copy = clone(index)
        assert [v.name for v in copy.deltas.views()] == ["reverse_adjacency"]
        copy.add_user(np.arange(8))
        assert listener.deltas == []  # views never leak across the clone
        # The recreated bus still stamps and delivers on the clone.
        view = copy.deltas.register(_Recorder())
        _churn(copy, rng, n=10)
        assert view.applied_total > 0 and view.seq == copy.version

    def test_pickle_roundtrip_recreates_bus(self, index):
        index.reverse_index()
        copy = pickle.loads(pickle.dumps(index))
        assert copy.deltas is not index.deltas
        assert copy.deltas.seq == index.version
        assert [v.name for v in copy.deltas.views()] == ["reverse_adjacency"]
        copy.add_user(np.arange(8))
        # The restored reverse view keeps maintaining in-edge state.
        want = ReverseAdjacency.from_heaps(copy.graph.heaps)
        assert [set(s) for s in copy._reverse._in] == [
            set(s) for s in want._in
        ]


# ----------------------------------------------------------------------
# Ported consumers register as named views
# ----------------------------------------------------------------------


class TestConsumerRegistration:
    def test_builtin_reverse_view_rides_the_bus(self, index, rng):
        index.reverse_index()
        view = index.deltas.view("reverse_adjacency")
        assert view is not None and view.priority == 0
        _churn(index, rng, n=30)
        assert view.lag == 0
        want = ReverseAdjacency.from_heaps(index.graph.heaps)
        assert [set(s) for s in index._reverse._in] == [
            set(s) for s in want._in
        ]

    def test_engine_and_wal_views_attach_and_detach(self, index, tmp_path):
        engine = QueryEngine(index, k=K, invalidation="partial")
        durable = DurableIndex(index, tmp_path, background_checkpoints=False)
        names = [v.name for v in index.deltas.views()]
        assert "result_cache" in names and "durable_wal" in names
        durable.close()
        engine.close()
        names = [v.name for v in index.deltas.views()]
        assert "result_cache" not in names and "durable_wal" not in names


# ----------------------------------------------------------------------
# Standalone bus (unit-level, no index)
# ----------------------------------------------------------------------


class _FakeSource:
    """A minimal publisher: anything with a ``version``."""

    def __init__(self):
        self.version = 0


def test_standalone_bus_delivers_hand_built_deltas():
    source = _FakeSource()
    bus = DeltaBus(source)
    view = bus.register(_Recorder())
    assert view.seq == 0
    for seq in (1, 2, 3):
        source.version = seq
        bus.publish(Delta(seq=seq, event="add_items", user=0, edges=[]))
    assert [d.seq for d in view.deltas] == [1, 2, 3]
    assert bus.published_total == 3
    assert bus.stats()["views"] == ["recorder"]
