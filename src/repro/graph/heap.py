"""Bounded neighbour lists — the per-user "heap of size k" of the paper.

Each user's neighbourhood is a fixed-capacity set of ``(neighbor,
score)`` pairs keeping the ``k`` best distinct neighbours seen so far.
Rows live in flat ``(n, k)`` numpy arrays (ids + scores). Every writer
goes through :meth:`NeighborHeaps.offer`, which updates many rows at
once instead of keeping a real heap per row, in one of three branches
that write the same slots: one offer per row (the online reverse
offer) decides a full row kept in ``(-score, id)`` order against its
last slot and shifts a winner in, with one small lexsort for the other
rows; one row (rescores, refills) dedupes and ranks its flat candidates
with one lexsort; a general table (the C² merge, the greedy baselines)
groups ids with one packed value sort per row and sorts only the ``k``
ids it keeps.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["NeighborHeaps", "edge_digest"]

EMPTY = -1
_VOID = np.iinfo(np.int64).max  # EMPTY's stand-in where ids are sorted: after every id


def edge_digest(heaps: NeighborHeaps) -> int:
    """Slot-order-independent fingerprint of a heap table's edge ids.

    Rows are sorted before hashing, so a primary and an index rebuilt
    from its delta stream (a recovered WAL, a clone fed every delta)
    that hold the same neighbour sets in different slot layouts (or
    with drifted scores) digest identically. This is the convergence
    oracle recovery and the replay property tests compare in.
    """
    return zlib.crc32(np.sort(heaps.ids[: heaps.n], axis=1).tobytes())


class NeighborHeaps:
    """``n`` bounded neighbour lists of capacity ``k``.

    Attributes:
        ids: ``(n, k)`` int32 array; ``EMPTY`` marks free slots.
        scores: ``(n, k)`` float64 array; ``-inf`` in free slots.
    """

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = int(n)
        self.k = int(k)
        # ``ids``/``scores`` are views into capacity buffers so that
        # per-signup growth is amortized O(1): the buffers double when
        # exhausted instead of reallocating on every new row.
        self._ids_buf = np.full((n, k), EMPTY, dtype=np.int32)
        self._scores_buf = np.full((n, k), -np.inf, dtype=np.float64)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]
        self.reallocations = 0
        # Optional edge journal: when attached, every structural change
        # to the edge set is recorded as ``(u, v, added)`` — the raw
        # material for incremental reverse-adjacency maintenance. Score
        # rescorings of an existing edge are not structural and are not
        # recorded. ``None`` (the default) costs one branch per
        # primitive, so batch construction pays nothing.
        self.journal: list[tuple[int, int, bool]] | None = None

    # ------------------------------------------------------------------
    # Pickling (snapshot clones and persisted snapshots)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # ``ids``/``scores`` are views into the capacity buffers, and
        # numpy pickles a view as an independent copy — a round-trip
        # would silently sever them from ``_ids_buf``/``_scores_buf``.
        # The next within-capacity grow() then re-points the views to the
        # stale buffer, reverting every edge change applied since the
        # unpickle (a corruption the WAL-recovery property tests
        # caught). Ship the occupied prefix once, rebuild on load.
        state = self.__dict__.copy()
        state["_ids_buf"] = self.ids.copy()
        state["_scores_buf"] = self.scores.copy()
        del state["ids"], state["scores"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]

    # ------------------------------------------------------------------

    def size(self, u: int) -> int:
        """Number of occupied slots in ``u``'s list."""
        return int((self.ids[u] != EMPTY).sum())

    def contains(self, u: int, v: int) -> bool:
        """Whether ``v`` is currently a neighbour of ``u``."""
        return bool((self.ids[u] == v).any())

    def neighbors(self, u: int) -> np.ndarray:
        """Occupied neighbour ids of ``u`` (unordered copy)."""
        row = self.ids[u]
        return row[row != EMPTY].copy()

    def items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of occupied slots in ``(-score, id)`` order, whatever the layout."""
        row = self.ids[u]
        mask = row != EMPTY
        ids, scores = row[mask], self.scores[u][mask]
        order = np.lexsort((ids, -scores))
        return ids[order], scores[order]

    def min_score(self, u: int) -> float:
        """Lowest score currently kept for ``u`` (-inf if not full)."""
        return float(self.scores[u].min())

    # ------------------------------------------------------------------
    # Incremental maintenance (online-update subsystem)
    # ------------------------------------------------------------------

    def attach_journal(self) -> None:
        """Start recording per-edge ``(u, v, added)`` deltas."""
        self.journal = []

    def drain_journal(self) -> list[tuple[int, int, bool]]:
        """Return and reset the recorded deltas (empty if detached)."""
        if self.journal is None:
            return []
        out, self.journal = self.journal, []
        return out

    def edge_scores(self, edges) -> np.ndarray:
        """The stored score of each added ``(u, v, added)`` edge still held.

        One row-wise ``(m, k)`` comparison over a drained journal: an
        added edge gets the score its row holds now, a removal or an
        edge dropped again later in the same journal gets 0.0 (the
        later drop erases it on replay). Zipped with the journal, this
        is the ``(u, v, added, score)`` input of
        :meth:`apply_edge_deltas`.
        """
        if not edges:
            return np.zeros(0)
        us, vs, added = np.array(edges, dtype=np.int64).T
        hit = self.ids[us] == vs[:, None]
        slot = hit.argmax(axis=1)  # first matching slot (0 when none)
        found = added.astype(bool) & hit[np.arange(us.size), slot]
        return np.where(found, self.scores[us, slot], 0.0)

    def grow(self, n: int) -> None:
        """Extend to ``n`` rows; new rows start empty.

        Amortized: the backing buffers double when exhausted, so ``m``
        one-row grows cost O(log m) reallocations (regression-tested;
        the per-signup reallocation was an O(m·n·k) aggregate sink).
        """
        if n <= self.n:
            return
        cap = self._ids_buf.shape[0]
        if n > cap:
            new_cap = max(int(n), 2 * cap, 8)
            ids_buf = np.full((new_cap, self.k), EMPTY, dtype=np.int32)
            ids_buf[: self.n] = self.ids
            scores_buf = np.full((new_cap, self.k), -np.inf, dtype=np.float64)
            scores_buf[: self.n] = self.scores
            self._ids_buf, self._scores_buf = ids_buf, scores_buf
            self.reallocations += 1
        self.n = int(n)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]

    def clear_row(self, u: int) -> None:
        """Empty ``u``'s neighbour list."""
        if self.journal is not None:
            row = self.ids[u]
            self.journal.extend((u, int(v), False) for v in row[row != EMPTY])
        self.ids[u].fill(EMPTY)
        self.scores[u].fill(-np.inf)

    def purge_id(self, v: int) -> np.ndarray:
        """Remove ``v`` from every neighbour list it appears in.

        Returns the affected rows. A vectorised column sweep — O(n·k)
        memory traffic but zero similarity evaluations, which is the
        currency that matters. When the holders of ``v`` are already
        known (a maintained reverse-adjacency index), prefer
        :meth:`purge_id_rows`, which costs O(holders · k) instead.
        """
        return self.purge_id_rows(v, np.flatnonzero((self.ids == v).any(axis=1)))

    def purge_id_rows(self, v: int, rows: np.ndarray) -> np.ndarray:
        """Remove ``v`` from the given ``rows`` only.

        The targeted variant of :meth:`purge_id` for callers that know
        which rows hold ``v`` (e.g. from a maintained reverse-adjacency
        index): O(len(rows)·k) instead of a full O(n·k) column sweep.
        Returns the rows that actually changed.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return rows
        mask = self.ids[rows] == v
        hit = mask.any(axis=1)
        rows = rows[hit]
        if rows.size:
            sub_ids = self.ids[rows]
            sub_scores = self.scores[rows]
            sub_ids[mask[hit]] = EMPTY
            sub_scores[mask[hit]] = -np.inf
            self.ids[rows] = sub_ids
            self.scores[rows] = sub_scores
            if self.journal is not None:
                self.journal.extend((int(u), v, False) for u in rows)
        return rows

    def apply_edge_deltas(self, edges) -> None:
        """Replay logged ``(u, v, added, score)`` deltas onto this table.

        The replay write path: a live index journals its structural edge
        changes, the WAL stores them with their post-mutation scores
        (:meth:`edge_scores`), and a replaying index (WAL recovery)
        applies them here without
        any capacity-eviction logic of its own — the journal already
        recorded every eviction as an explicit removal, so a free slot
        is guaranteed for every add. Raises ``ValueError`` when the
        guarantee is violated (a gap in the delta stream); callers
        treat that as "resync from a fresh snapshot".

        Replays are journaled like any other structural change, so the
        replaying index's own views (reverse adjacency, caches) keep
        composing.

        Hot path: WAL recovery replays every delta since the last
        checkpoint through here. Deltas are grouped per user row and
        each touched row is read out (``tolist``) and written back
        exactly once — the per-edge slot scans run as plain-python
        ``list.index`` over the k-element row copy (on rows this small
        that beats a numpy masked scan by an order of magnitude), but
        the numpy crossings are O(touched rows), not O(edges). Journal
        entries keep per-``(u, v)`` recording order; entries of
        different rows may interleave differently than a strictly
        per-edge replay, which no consumer observes (reverse adjacency
        is per-target sets, caches read ids only).

        On a delta-stream gap the error is raised with the failing
        row unwritten; previously grouped rows keep their applied
        state — callers treat the error as "resync from a fresh
        snapshot" either way.
        """
        by_row: dict[int, list] = {}
        for edge in edges:
            by_row.setdefault(int(edge[0]), []).append(edge)
        journal = self.journal
        for u, row_edges in by_row.items():
            row = self.ids[u].tolist()
            srow = self.scores[u].tolist()
            entries: list[tuple[int, int, bool]] = []
            for _, v, added, score in row_edges:
                v = int(v)
                if added:
                    try:  # re-add after a drop in the same stream
                        srow[row.index(v)] = score
                        continue
                    except ValueError:
                        pass
                    try:
                        free = row.index(EMPTY)
                    except ValueError:
                        raise ValueError(
                            f"no free slot for logged edge {u}->{v} "
                            "(delta stream out of order or incomplete)"
                        ) from None
                    row[free] = v
                    srow[free] = score
                    entries.append((u, v, True))
                else:
                    try:
                        slot = row.index(v)
                    except ValueError:
                        continue
                    row[slot] = EMPTY
                    srow[slot] = -np.inf
                    entries.append((u, v, False))
            self.ids[u] = row
            self.scores[u] = srow
            if journal is not None:
                journal.extend(entries)

    def edge_sets(self) -> list[set[int]]:
        """Per-row neighbour-id sets (slot-order independent).

        The convergence currency of delta replay: two tables whose
        ``edge_sets`` match serve identical graph walks regardless of
        slot layout or score drift (the searcher scores candidates
        against the query, never from the stored edge scores).
        """
        return [
            set(int(v) for v in row[row != EMPTY]) for row in self.ids
        ]

    # ------------------------------------------------------------------

    def offer(self, rows: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Offer neighbours to many rows at once — the bounded-heap rule.

        ``rows`` holds ``r`` distinct rows; row ``i`` of the ``(r, m)``
        tables ``ids``/``scores`` is offered to ``rows[i]``, ``EMPTY``
        ids padding it. Each row becomes the top-``k`` of (row ∪ offers)
        under the total order ``(-score, id)``, self-loops dropped and
        the highest score kept per id, so ties cannot churn neighbours
        in and out (which would stall the greedy builders'
        δ-termination). The order of the offers does not matter.

        Slot layout (NN-Descent samples rows in slot order): ascending
        ids when a row sees at most ``k`` distinct ids, ``(-score, id)``
        order otherwise; free slots trail. Returns the ``(r, k)`` table
        of each row's inserted ids, ascending, ``EMPTY``-padded. The
        journal gets each row's removals, then its adds (both by id),
        so an index replaying it always has a free slot for an add.

        Three shapes share the rule: one offer per row (the online
        reverse offer), one row (rescores, refills, Hyrec's forward
        offers) and the general table (merge, NN-Descent, grouped
        offers); each writes the same slots, scores and journal.
        """
        rows = np.asarray(rows, dtype=np.int64)
        offered = np.asarray(ids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if offered.shape[1] == 1:
            return self._offer_one_each(rows, offered[:, 0], scores[:, 0])
        if rows.size == 1:
            return self._offer_one_row(int(rows[0]), offered[0], scores[0])
        return self._offer_table(rows, offered, scores)

    def _offer_one_each(self, rows: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """:meth:`offer` of one id ``v[i]`` at ``s[i]`` to each ``rows[i]``.

        A full row already in ``(-score, id)`` order that is offered a
        new id is decided against its last slot: the offer wins only if
        it ranks ahead of that slot, and a winner is shifted into place,
        evicting the last slot. Every other row (a purge hole, id
        layout, a held or void offer) is re-laid out by one lexsort over
        its ``k`` slots and the offer. A row gains and loses at most one
        id, so its journal is at most one removal and one add.
        """
        k = self.k
        cur, cur_s = self.ids.take(rows, axis=0), self.scores.take(rows, axis=0)
        v = np.where(v == rows, EMPTY, v)
        # Rows off the fast path, found by flat scans (reductions along
        # short rows are slow): a void offer, a held offer or a hole, and
        # a slot not ranked strictly ahead of the next one in its row.
        slow = v == EMPTY
        flat, flat_s = cur.ravel(), cur_s.ravel()
        slow[((flat == v.repeat(k)) | (flat == EMPTY)).nonzero()[0] // k] = True
        behind = (
            (flat_s[:-1] < flat_s[1:]) | ((flat_s[:-1] == flat_s[1:]) & (flat[:-1] >= flat[1:]))
        ).nonzero()[0]
        slow[behind[behind % k != k - 1] // k] = True
        last, last_s = cur[:, -1], cur_s[:, -1]
        added = ~slow & ((s > last_s) | ((s == last_s) & (v < last)))
        dropped = np.where(added, last, EMPTY)

        w = added.nonzero()[0]
        if w.size:
            # The slots the offer outranks are a suffix of the row: shift
            # it right by one (the last slot falls off) and put the offer
            # at its head.
            wc, wcs, wv, ws = cur[w], cur_s[w], v[w, None], s[w, None]
            shift = (wcs < ws) | ((wcs == ws) & (wc > wv))
            head = shift.copy()
            head[:, 1:] ^= shift[:, :-1]
            at, src = np.arange(w.size)[:, None], np.arange(k) - shift
            self.ids[rows[w]] = np.where(head, wv, wc[at, src])
            self.scores[rows[w]] = np.where(head, ws, wcs[at, src])

        slow = slow.nonzero()[0]
        if slow.size:
            sv, ss, sc, scs = v[slow], s[slow], cur[slow], cur_s[slow]
            hit = (sc == sv[:, None]) & (sv != EMPTY)[:, None]
            scs = np.where(hit, np.maximum(scs, ss[:, None]), scs)
            new = (sv != EMPTY) & ~hit.any(axis=1)
            cand = np.concatenate([sc, np.where(new, sv, EMPTY)[:, None]], axis=1)
            cand_s = np.concatenate([scs, np.where(new, ss, -np.inf)[:, None]], axis=1)
            # A row over capacity is full and offered a new id: rank it by
            # (-score, id); the rest hold at most k ids: rank by id, EMPTY last.
            over = new & (sc.min(axis=1) != EMPTY)
            order = np.lexsort(
                (
                    np.where(cand == EMPTY, _VOID, cand),
                    np.where(over[:, None], -cand_s, 0.0),
                ),
                axis=1,
            )
            at = np.arange(slow.size)[:, None]
            self.ids[rows[slow]] = cand[at, order[:, :k]]
            self.scores[rows[slow]] = cand_s[at, order[:, :k]]
            out = order[:, k]  # the id left out: EMPTY unless over
            kept = new & (out != k)
            added[slow] = kept
            dropped[slow] = np.where(kept & over, cand[at[:, 0], out], EMPTY)

        gained = added.nonzero()[0]
        if self.journal is not None:
            for u, x, old in zip(
                rows[gained].tolist(), v[gained].tolist(), dropped[gained].tolist()
            ):
                if old != EMPTY:
                    self.journal.append((u, old, False))
                self.journal.append((u, x, True))
        inserted = np.full((rows.size, k), EMPTY, dtype=np.int64)
        inserted[gained, 0] = v[gained]
        return inserted

    def _offer_one_row(self, u: int, offered: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """:meth:`offer` of ``m`` ids to the single row ``u``.

        The row's ids and the offers are flattened and sorted once by
        ``(id, -score)``: the first of each id run is the distinct id
        with its best score, already in the id layout. Only a row over
        capacity sorts again, its distinct ids by score.
        """
        k = self.k
        row, row_s = self.ids[u], self.scores[u]
        held = row != EMPTY
        take = (offered != EMPTY) & (offered != u)
        cand = np.concatenate([row[held], offered[take]])
        inserted = np.full((1, k), EMPTY, dtype=np.int64)
        if cand.size == 0:
            return inserted
        cand_s = np.concatenate([row_s[held], scores[take]])
        order = np.lexsort((-cand_s, cand))
        cand = cand[order]
        first = np.empty(cand.size, dtype=bool)
        first[0] = True
        np.not_equal(cand[1:], cand[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        uniq, best = cand[starts], cand_s[order[starts]]
        was_held = np.logical_or.reduceat(order < np.count_nonzero(held), starts)
        kept = np.ones(uniq.size, dtype=bool)
        if uniq.size > k:
            top = np.argsort(-best, kind="stable")[:k]
            kept[:] = False
            kept[top] = True
            uniq_kept, best_kept = uniq[top], best[top]
        else:
            uniq_kept, best_kept = uniq, best
        n = uniq_kept.size
        self.ids[u, :n], self.ids[u, n:] = uniq_kept, EMPTY
        self.scores[u, :n], self.scores[u, n:] = best_kept, -np.inf
        added = uniq[kept & ~was_held]
        if self.journal is not None:
            removed = uniq[was_held & ~kept].tolist()
            self.journal.extend((u, x, False) for x in removed)
            self.journal.extend((u, x, True) for x in added.tolist())
        inserted[0, : added.size] = added
        return inserted

    def _offer_table(self, rows: np.ndarray, offered: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """:meth:`offer` of a general ``(r, m)`` table (merge, NN-Descent, grouped offers)."""
        k = self.k
        # The rows' current slots come first, then the offers.
        cand = np.concatenate(
            [self.ids[rows], np.where(offered == rows[:, None], EMPTY, offered)], axis=1
        )
        r, w = cand.shape
        at = np.arange(r)[:, None]  # row index for gathers along each row
        # Group equal ids with one value sort of (id, column) packed into
        # an int64 (ids are row indices, far below 2**(63 - bits)): a held
        # slot leads its group and EMPTY (as void) sorts last.
        bits = int(w - 1).bit_length()
        void = _VOID >> bits
        packed = np.where(cand == EMPTY, void, cand) << bits
        packed |= np.arange(w)
        packed.sort(axis=1)
        src = packed & ((1 << bits) - 1)
        cand = packed >> bits
        best = np.concatenate([self.scores[rows], scores], axis=1).ravel().take(src + at * w)
        first = np.ones((r, w), dtype=bool)
        first[:, 1:] = cand[:, 1:] != cand[:, :-1]
        # Per distinct id: its best score, moved to the group's head, and
        # whether the row held it.
        run = ~first
        run[:, :-1] |= ~first[:, 1:]
        run = run.ravel().nonzero()[0]  # cells of groups of two or more
        if run.size:
            heads = first.ravel()[run].nonzero()[0]
            best.ravel()[run[heads]] = np.maximum.reduceat(best.ravel()[run], heads)
        first &= cand != void
        held = first & (src < k)
        # Rank the distinct ids: rows over capacity by (-score, id), the
        # rest by id alone; NaN parks duplicates and padding last. Keep
        # the k smallest keys, ties at the k-th by id.
        over = first.sum(axis=1) > k
        key = np.where(first, np.where(over[:, None], -best, 0.0), np.nan)
        cut = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
        kept = first & ~(key > cut)  # a NaN k-th key (under k ids) keeps all
        size = np.count_nonzero(kept, axis=1)
        tied = (size > k).nonzero()[0]
        if tied.size:
            tie = key[tied] == cut[tied]
            less = np.count_nonzero(key[tied] < cut[tied], axis=1)
            kept[tied] &= ~(tie & (np.cumsum(tie, axis=1) > k - less[:, None]))
            size[tied] = k
        # The kept columns of each row, ascending, in an (r, k) table.
        kr, kc = kept.nonzero()
        keep = np.zeros((r, k), dtype=np.int64)
        keep[kr, np.arange(kr.size) - np.repeat(np.cumsum(size) - size, size)] = kc
        valid = np.arange(k) < size[:, None]
        top = keep[at, np.argsort(np.where(valid, key[at, keep], np.nan), axis=1, kind="stable")]
        self.ids[rows] = np.where(valid, cand[at, top], EMPTY)
        self.scores[rows] = np.where(valid, best[at, top], -np.inf)

        added = kept & ~held
        if self.journal is not None:
            # Row-major nonzero over (row, drop/add, id) is the journal order.
            jr, adds, jc = np.nonzero(np.stack([held & ~kept, added], axis=1))
            self.journal.extend(
                zip(rows[jr].tolist(), cand[jr, jc].tolist(), adds.astype(bool).tolist())
            )
        added = added[at, keep] & valid
        slot = np.argsort(~added, axis=1, kind="stable")
        return np.where(added[at, slot], cand[at, keep[at, slot]], EMPTY)
