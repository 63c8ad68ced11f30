"""Unit tests for repro.graph.heap (bounded neighbour lists)."""

import numpy as np
import pytest

from repro.graph import EMPTY, NeighborHeaps


def push(h, u, cands, scores):
    """One-row offer of ``cands`` to ``u``; returns the inserted ids."""
    cands = np.atleast_1d(np.asarray(cands, dtype=np.int64))
    scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    row = h.offer(np.array([u]), cands[None], scores[None])[0]
    return row[row != EMPTY]


class TestPush:
    def test_fills_empty_slots(self):
        h = NeighborHeaps(2, 3)
        assert push(h, 0, 1, 0.5).tolist() == [1]
        assert h.size(0) == 1
        assert h.contains(0, 1)

    def test_rejects_self_loop(self):
        h = NeighborHeaps(2, 3)
        assert push(h, 0, 0, 0.9).size == 0
        assert h.size(0) == 0

    def test_duplicate_never_doubles(self):
        h = NeighborHeaps(2, 3)
        push(h, 0, 1, 0.5)
        push(h, 0, 1, 0.9)
        assert h.size(0) == 1

    def test_duplicate_keeps_max_score(self):
        h = NeighborHeaps(2, 3)
        push(h, 0, 1, 0.5)
        assert push(h, 0, 1, 0.9).size == 0  # raises the stored score
        assert push(h, 0, 1, 0.7).size == 0  # lower re-offer is a no-op
        _, scores = h.items(0)
        assert scores[0] == pytest.approx(0.9)

    def test_evicts_minimum_when_full(self):
        h = NeighborHeaps(1, 2)
        push(h, 0, 1, 0.3)
        push(h, 0, 2, 0.5)
        assert push(h, 0, 3, 0.4).tolist() == [3]  # evicts 1 (score 0.3)
        assert not h.contains(0, 1)
        assert h.contains(0, 2)
        assert h.contains(0, 3)

    def test_rejects_worse_than_minimum_when_full(self):
        h = NeighborHeaps(1, 2)
        push(h, 0, 1, 0.3)
        push(h, 0, 2, 0.5)
        assert push(h, 0, 3, 0.2).size == 0

    def test_rejects_equal_to_minimum_when_full(self):
        """Ties rank by id: an equal score loses to a smaller incumbent
        id and evicts a larger one."""
        h = NeighborHeaps(1, 2)
        push(h, 0, 1, 0.3)
        push(h, 0, 2, 0.5)
        assert push(h, 0, 3, 0.3).size == 0
        h = NeighborHeaps(8, 2)
        push(h, 0, [3, 7], [0.5, 0.4])
        assert push(h, 0, 1, 0.4).tolist() == [1]
        assert set(h.neighbors(0).tolist()) == {1, 3}

    def test_min_score(self):
        h = NeighborHeaps(1, 2)
        assert h.min_score(0) == -np.inf
        push(h, 0, 1, 0.3)
        push(h, 0, 2, 0.5)
        assert h.min_score(0) == pytest.approx(0.3)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            NeighborHeaps(1, 0)


class TestItems:
    def test_sorted_best_first(self):
        h = NeighborHeaps(1, 4)
        push(h, 0, 1, 0.2)
        push(h, 0, 2, 0.9)
        push(h, 0, 3, 0.5)
        ids, scores = h.items(0)
        assert list(ids) == [2, 3, 1]
        assert list(scores) == pytest.approx([0.9, 0.5, 0.2])

    def test_neighbors_excludes_empty(self):
        h = NeighborHeaps(1, 4)
        push(h, 0, 5, 0.1)
        assert set(h.neighbors(0)) == {5}


class TestPushBatch:
    def test_basic_insert(self):
        h = NeighborHeaps(1, 3)
        inserted = push(h, 0, np.array([2, 1]), np.array([0.7, 0.5]))
        assert inserted.tolist() == [1, 2]
        assert h.size(0) == 2
        assert h.ids[0].tolist() == [1, 2, EMPTY]  # at most k ids: id order

    def test_keeps_top_k(self):
        h = NeighborHeaps(1, 2)
        push(h, 0, np.array([1, 2, 3, 4]), np.array([0.1, 0.9, 0.5, 0.3]))
        assert set(h.neighbors(0).tolist()) == {2, 3}
        push(h, 0, np.array([4]), np.array([0.95]))
        assert h.ids[0].tolist() == [4, 2]  # over capacity: (-score, id) order
        assert h.scores[0].tolist() == [0.95, 0.9]

    def test_merges_with_existing(self):
        h = NeighborHeaps(1, 2)
        push(h, 0, 1, 0.8)
        inserted = push(h, 0, np.array([2, 3]), np.array([0.9, 0.1]))
        assert set(inserted.tolist()) == {2}
        assert set(h.neighbors(0).tolist()) == {1, 2}

    def test_filters_self(self):
        h = NeighborHeaps(1, 3)
        inserted = push(h, 0, np.array([0, 1]), np.array([1.0, 0.5]))
        assert set(inserted.tolist()) == {1}
        assert not h.contains(0, 0)

    def test_duplicate_candidates_keep_max(self):
        h = NeighborHeaps(1, 3)
        push(h, 0, np.array([1, 1, 1]), np.array([0.2, 0.9, 0.4]))
        ids, scores = h.items(0)
        assert list(ids) == [1]
        assert scores[0] == pytest.approx(0.9)

    def test_empty_batch(self):
        h = NeighborHeaps(1, 3)
        assert push(h, 0, np.array([]), np.array([])).size == 0

    def test_reoffering_same_batch_is_stable(self):
        """Re-offering identical candidates must produce zero insertions
        even with score ties (no churn -> greedy delta-termination works)."""
        h = NeighborHeaps(1, 3)
        cands = np.array([1, 2, 3, 4, 5])
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        push(h, 0, cands, scores)
        again = push(h, 0, cands, scores)
        assert again.size == 0

    def test_matches_scalar_pushes(self, rng):
        """Batch insert must equal the offline top-k of everything seen."""
        h_batch = NeighborHeaps(1, 5)
        cands = rng.permutation(40)[:20] + 1
        scores = rng.random(20)
        push(h_batch, 0, cands, scores)
        # offline reference: top-5 by (-score, id)
        order = np.lexsort((cands, -scores))[:5]
        assert set(h_batch.neighbors(0).tolist()) == set(cands[order].tolist())

    def test_empty_marker_value(self):
        assert EMPTY == -1


class TestGeometricGrowth:
    """m one-row grows must cost O(log m) reallocations, not m."""

    def test_reallocation_count_is_logarithmic(self):
        h = NeighborHeaps(4, 3)
        m = 1000
        for n in range(5, 5 + m):
            h.grow(n)
        assert h.n == 4 + m
        # doubling from 4: 8, 16, ..., 1024 -> ceil(log2(1004/4)) = 8
        assert h.reallocations <= int(np.ceil(np.log2((4 + m) / 4))) + 1

    def test_grown_rows_behave_like_fresh_rows(self):
        h = NeighborHeaps(2, 3)
        push(h, 0, 1, 0.5)
        for n in range(3, 40):
            h.grow(n)
        assert h.ids.shape == (39, 3)
        assert h.size(0) == 1 and h.contains(0, 1)  # survives reallocation
        assert h.size(35) == 0
        assert push(h, 35, 2, 0.7).size
        ids, scores = h.items(35)
        assert list(ids) == [2] and scores[0] == pytest.approx(0.7)

    def test_views_stay_coherent_after_growth(self):
        """Writes through ids/scores land in the backing buffer."""
        h = NeighborHeaps(2, 2)
        h.grow(50)
        h.ids[49, 0] = 7
        h.scores[49, 0] = 0.25
        assert h.contains(49, 7)
        h.grow(60)  # re-slices (and possibly reallocates) the views
        assert h.contains(49, 7)
        assert h.min_score(49) == -np.inf

    def test_purge_covers_only_live_rows(self):
        h = NeighborHeaps(2, 2)
        h.grow(10)  # capacity may exceed 10; purge must not see spare rows
        push(h, 3, 9, 0.5)
        rows = h.purge_id(9)
        assert list(rows) == [3]
        assert h.size(3) == 0


class TestEdgeJournal:
    """The journal must record exactly the structural edge changes."""

    def _journaled(self, n=6, k=3):
        h = NeighborHeaps(n, k)
        h.attach_journal()
        return h

    def test_detached_by_default(self):
        h = NeighborHeaps(4, 2)
        push(h, 0, 1, 0.5)
        assert h.journal is None
        assert h.drain_journal() == []

    def test_push_records_add(self):
        h = self._journaled()
        push(h, 0, 1, 0.5)
        assert h.drain_journal() == [(0, 1, True)]
        assert h.drain_journal() == []  # drained

    def test_push_eviction_records_drop_then_add(self):
        h = self._journaled(k=1)
        push(h, 0, 1, 0.5)
        h.drain_journal()
        push(h, 0, 2, 0.9)  # evicts 1
        assert h.drain_journal() == [(0, 1, False), (0, 2, True)]

    def test_score_improvement_is_not_structural(self):
        h = self._journaled()
        push(h, 0, 1, 0.5)
        h.drain_journal()
        push(h, 0, 1, 0.8)  # same edge, better score
        assert h.drain_journal() == []

    def test_rejected_push_records_nothing(self):
        h = self._journaled(k=1)
        push(h, 0, 1, 0.9)
        h.drain_journal()
        assert push(h, 0, 2, 0.5).size == 0
        assert h.drain_journal() == []

    def test_push_batch_records_net_change(self):
        h = self._journaled(k=2)
        push(h, 0, np.array([2, 1]), np.array([0.6, 0.5]))
        assert h.drain_journal() == [(0, 1, True), (0, 2, True)]
        push(h, 0, np.array([3]), np.array([0.9]))  # evicts 1 (min)
        assert h.drain_journal() == [(0, 1, False), (0, 3, True)]

    def test_clear_and_purge_record_drops(self):
        h = self._journaled()
        push(h, 0, 1, 0.5)
        push(h, 2, 1, 0.4)
        push(h, 2, 3, 0.6)
        h.drain_journal()
        h.clear_row(2)
        assert sorted(h.drain_journal()) == [(2, 1, False), (2, 3, False)]
        h.purge_id(1)
        assert h.drain_journal() == [(0, 1, False)]

    def test_purge_id_rows_matches_full_purge(self):
        full = NeighborHeaps(8, 3)
        targeted = NeighborHeaps(8, 3)
        for h in (full, targeted):
            rng = np.random.default_rng(4)  # identical fills for both
            for u in range(8):
                for v in rng.choice(8, size=3, replace=False):
                    if v != u:
                        push(h, u, int(v), float(rng.random()))
        # identical fill order → identical tables
        holders = np.flatnonzero((targeted.ids == 5).any(axis=1))
        a = full.purge_id(5)
        b = targeted.purge_id_rows(5, holders)
        assert np.array_equal(a, b)
        assert np.array_equal(full.ids, targeted.ids)
        assert np.array_equal(full.scores, targeted.scores)

    def test_purge_id_rows_ignores_rows_without_the_id(self):
        h = self._journaled()
        push(h, 0, 1, 0.5)
        h.drain_journal()
        rows = h.purge_id_rows(1, np.array([0, 2, 4]))
        assert list(rows) == [0]
        assert h.drain_journal() == [(0, 1, False)]


class TestPickleRoundtrip:
    """Snapshot clones must keep the view/buffer invariant (PR 5 fix)."""

    def test_views_rebind_to_buffers_after_unpickle(self):
        import pickle

        h = NeighborHeaps(4, 3)
        push(h, 0, 1, 0.5)
        h.grow(6)  # doubles capacity: views now cover a prefix only
        h2 = pickle.loads(pickle.dumps(h))
        assert h2.ids.base is h2._ids_buf
        assert h2.scores.base is h2._scores_buf

    def test_within_capacity_grow_keeps_post_unpickle_edits(self):
        """The corruption the WAL property suite caught: a clone taken
        while spare capacity existed lost every post-clone edge change
        on its next within-capacity grow (the views were rebound to the
        stale pickled buffer)."""
        import pickle

        h = NeighborHeaps(4, 3)
        push(h, 0, 1, 0.5)
        h.grow(6)  # capacity now 8 > n
        h2 = pickle.loads(pickle.dumps(h))
        push(h2, 0, 2, 0.9)  # post-clone edit
        h2.grow(7)  # within whatever capacity the clone kept
        assert h2.contains(0, 2)
        assert h2.ids.base is h2._ids_buf
