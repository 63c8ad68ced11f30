"""The shape branches of ``NeighborHeaps.offer`` equal its general path.

``offer`` decides a table with one offer per row and a table with one
row through their own branches. Padding the same offers with an
``EMPTY`` column and adding an empty-offer companion row changes
nothing under the bounded-heap rule but sends the call down the
general path, so each branch is compared with the general path
through the public API, bit for bit: ids in slot order, score bytes,
the journal and the returned insert table.

Tables are drawn small and dense so that purge holes, rows in id and in
``(-score, id)`` layout (and in neither), self-loops, ``EMPTY``
padding, already-held ids and tied scores all occur.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EMPTY, NeighborHeaps

# Coarse scores: most pairs tie with another one.
SCORES = st.sampled_from([0.125, 0.25, 0.5, 0.75])


@st.composite
def heap_tables(draw):
    """A journaled table of ``n`` rows (the last one the companion)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 8))
    universe = n + 6
    heaps = NeighborHeaps(n, k)
    for u in range(n):
        full = draw(st.booleans())
        held = draw(
            st.lists(
                st.integers(0, universe - 1),
                unique=True,
                min_size=k if full else 0,
                max_size=k,
            )
        )
        pairs = [(v, draw(SCORES)) for v in held]
        layout = draw(st.sampled_from(["rank", "id", "scattered"]))
        if layout == "rank":
            pairs.sort(key=lambda e: (-e[1], e[0]))
        elif layout == "id":
            pairs.sort()
        slots = range(k) if layout != "scattered" else draw(st.permutations(range(k)))
        for slot, (v, s) in zip(slots, pairs):
            heaps.ids[u, slot], heaps.scores[u, slot] = v, s
    for v in draw(st.lists(st.integers(0, universe - 1), max_size=2)):
        heaps.purge_id(v)  # holes where a departed user was
    heaps.attach_journal()
    return heaps, universe


def _copy(heaps: NeighborHeaps) -> NeighborHeaps:
    twin = NeighborHeaps(heaps.n, heaps.k)
    twin.ids[:], twin.scores[:] = heaps.ids, heaps.scores
    twin.attach_journal()
    return twin


def _general(heaps, rows, ids, scores) -> np.ndarray:
    """``offer`` down the general path: one EMPTY column, one companion row."""
    companion = heaps.n - 1
    r, m = ids.shape
    padded = np.full((r + 1, m + 1), EMPTY)
    padded_scores = np.full(padded.shape, -np.inf)
    padded[:r, :m], padded_scores[:r, :m] = ids, scores
    inserted = heaps.offer(np.append(rows, companion), padded, padded_scores)
    return inserted[:r]


def _assert_same(branch, general, companion) -> None:
    keep = np.arange(branch.n) != companion
    assert np.array_equal(branch.ids[keep], general.ids[keep])
    assert branch.scores[keep].tobytes() == general.scores[keep].tobytes()
    assert branch.journal == general.journal


@given(table=heap_tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_offer_per_row_equals_general_path(table, data):
    heaps, universe = table
    n = heaps.n
    rows = np.array(data.draw(st.permutations(range(n - 1))))
    rows = rows[: data.draw(st.integers(1, rows.size))]
    ids = np.array([[data.draw(st.integers(EMPTY, universe - 1))] for _ in rows])
    ids[data.draw(st.lists(st.integers(0, rows.size - 1), max_size=2))] = EMPTY
    self_loops = data.draw(st.lists(st.integers(0, rows.size - 1), max_size=2))
    ids[self_loops, 0] = rows[self_loops]
    scores = np.array([[data.draw(SCORES)] for _ in rows])
    general = _copy(heaps)
    expected = _general(general, rows, ids, scores)
    inserted = heaps.offer(rows, ids, scores)
    assert np.array_equal(inserted, expected)
    _assert_same(heaps, general, n - 1)


@given(table=heap_tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_row_equals_general_path(table, data):
    heaps, universe = table
    u = data.draw(st.integers(0, heaps.n - 2))
    offers = data.draw(
        st.lists(
            st.tuples(st.integers(EMPTY, universe - 1) | st.just(u), SCORES),
            min_size=2,
            max_size=12,
        )
    )
    ids = np.array([[v for v, _ in offers]])
    scores = np.array([[s for _, s in offers]])
    general = _copy(heaps)
    expected = _general(general, np.array([u]), ids, scores)
    inserted = heaps.offer(np.array([u]), ids, scores)
    assert np.array_equal(inserted, expected)
    _assert_same(heaps, general, heaps.n - 1)


@given(table=heap_tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_general_path_matches_offline_rule(table, data):
    """The general path against an offline model of the rule: the kept
    ids and scores, the slot layout, the insert table and the journal."""
    heaps, universe = table
    n, k = heaps.n, heaps.k
    m = data.draw(st.integers(2, 6))
    draw_ids = st.lists(st.integers(EMPTY, universe - 1), min_size=m, max_size=m)
    ids = np.array([data.draw(draw_ids) for _ in range(n)])
    scores = np.array([data.draw(st.lists(SCORES, min_size=m, max_size=m)) for _ in range(n)])
    before_ids, before_scores = heaps.ids.tolist(), heaps.scores.tolist()
    inserted = heaps.offer(np.arange(n), ids, scores)
    journal = []
    for u in range(n):
        # The rule drops offered self-loops; the table may hold any id.
        best = {v: s for v, s in zip(before_ids[u], before_scores[u]) if v != EMPTY}
        for v, s in zip(ids[u].tolist(), scores[u].tolist()):
            if v not in (EMPTY, u):
                best[v] = max(best.get(v, -np.inf), s)
        ranked = sorted(best.items(), key=lambda e: (-e[1], e[0]))
        layout = sorted(ranked) if len(ranked) <= k else ranked[:k]
        pad = k - len(layout)
        assert heaps.ids[u].tolist() == [v for v, _ in layout] + [EMPTY] * pad
        assert heaps.scores[u].tolist() == [s for _, s in layout] + [-np.inf] * pad
        held, kept = set(before_ids[u]) - {EMPTY}, {v for v, _ in layout}
        added = sorted(kept - held)
        assert inserted[u].tolist() == added + [EMPTY] * (k - len(added))
        journal += [(u, v, False) for v in sorted(held - kept)] + [(u, v, True) for v in added]
    assert heaps.journal == journal
