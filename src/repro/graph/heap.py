"""Bounded neighbour lists — the per-user "heap of size k" of the paper.

Each user's neighbourhood is a fixed-capacity set of ``(neighbor,
score)`` pairs keeping the ``k`` best distinct neighbours seen so far.
Rows live in flat ``(n, k)`` numpy arrays (ids + scores). Every writer
goes through :meth:`NeighborHeaps.offer`, which updates many rows at
once with sorts along the short rows instead of keeping a real heap
per row — the shape the greedy baselines, the C² merge and the online
write path all need.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["NeighborHeaps", "edge_digest"]

EMPTY = -1


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
        """``(ids, scores)`` of occupied slots, sorted by score desc."""
        row = self.ids[u]
        mask = row != EMPTY
        ids, scores = row[mask], self.scores[u][mask]
        order = np.argsort(-scores, kind="stable")
        return ids[order].copy(), scores[order].copy()

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
        """Replay shipped ``(u, v, added, score)`` deltas onto this table.

        The replay write path: a primary journals its structural edge
        changes, exports them (with the post-mutation score looked up
        per added edge), and a replaying index (WAL recovery) applies
        them here without
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
                            f"no free slot for shipped edge {u}->{v} "
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
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = self.k
        offered = np.asarray(ids, dtype=np.int64)
        # The rows' current slots come first, then the offers.
        cand = np.concatenate(
            [self.ids[rows], np.where(offered == rows[:, None], EMPTY, offered)], axis=1
        )
        cand_scores = np.concatenate([self.scores[rows], np.asarray(scores, np.float64)], axis=1)
        at = np.arange(rows.size)[:, None]  # row index for gathers along each row
        # Group equal ids with one sort along each row, EMPTY last.
        order = np.argsort(np.where(cand == EMPTY, np.iinfo(np.int64).max, cand), axis=1)
        cand = cand[at, order]
        first = np.ones(cand.shape, dtype=bool)
        first[:, 1:] = cand[:, 1:] != cand[:, :-1]
        starts = np.flatnonzero(first)
        first &= cand != EMPTY
        # Per distinct id: its best score, and whether the row held it.
        best = np.full(cand.size, np.nan)
        best[starts] = np.maximum.reduceat(cand_scores[at, order].ravel(), starts)
        held = np.zeros(cand.size, dtype=bool)
        held[starts] = np.logical_or.reduceat((order < k).ravel(), starts)
        best, held = best.reshape(cand.shape), held.reshape(cand.shape)
        # Rank the distinct ids: rows over capacity by (-score, id), the
        # rest by id alone. The stable sort keeps id order among equal
        # keys; NaN parks duplicates and padding last.
        over = first.sum(axis=1) > k
        key = np.where(first, np.where(over[:, None], -best, 0.0), np.nan)
        top = np.argsort(key, axis=1, kind="stable")[:, :k]
        filled = first[at, top]
        kept = np.zeros(cand.shape, dtype=bool)
        kept[at, top] = filled
        self.ids[rows] = np.where(filled, cand[at, top], EMPTY)
        self.scores[rows] = np.where(filled, best[at, top], -np.inf)

        added = first & kept & ~held
        if self.journal is not None:
            # Row-major nonzero over (row, drop/add, id) is the journal order.
            r, adds, col = np.nonzero(np.stack([first & held & ~kept, added], axis=1))
            self.journal.extend(
                zip(rows[r].tolist(), cand[r, col].tolist(), adds.astype(bool).tolist())
            )
        slot = np.argsort(~added, axis=1, kind="stable")[:, :k]
        return np.where(added[at, slot], cand[at, slot], EMPTY)
