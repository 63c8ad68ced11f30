"""Slot-order pins for the bounded-heap writer.

``edge_digest`` sorts each row before hashing, so it cannot see a
change of slot layout or of stored scores. These tests hash the raw,
unsorted ``heaps.ids`` and ``heaps.scores`` bytes instead, plus the
length of the edge journal and the bytes of the write-ahead log, after
two seeded runs: a write-only tape on a small exact-backend
:class:`~repro.online.OnlineIndex` (every ``offer`` shape: the merge of
its build, one-row rescores and refills, single-offer reverse offers)
and a small C² build (merge, local Hyrec and brute-force offers).

The constants were recorded on the offer kernel that sorted every row
three times, before its single-offer and one-row branches and its
partition-based general path; a kernel change that moves one slot, one
score bit or one journal entry fails here. The WAL pin was re-recorded
when the record format moved to ``C2WAL002`` (``(delta, scores)``
records): decoded, its records carry the same edges, scores and
payloads as the format-001 log did.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import C2Params, cluster_and_conquer
from repro.bench.scenarios import IndexWorld, play
from repro.bench.workloads import serving_index, serving_workload, write_tape
from repro.deltas import DerivedView
from repro.graph import NeighborHeaps
from repro.similarity import ExactEngine


class _EdgeCounter(DerivedView):
    """Counts the journaled edge changes the index publishes."""

    def __init__(self) -> None:
        super().__init__()
        self.edges = 0

    def apply(self, delta) -> None:
        self.edges += len(delta.edges)


def _raw_digests(heaps) -> tuple[int, int]:
    return zlib.crc32(heaps.ids.tobytes()), zlib.crc32(heaps.scores.tobytes())


def test_churn_tape_slot_layout_journal_and_wal(tmp_path):
    index = serving_index(serving_workload()[0])
    index.reverse_index()
    counter = index.deltas.register(_EdgeCounter())
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    play(write_tape(120), IndexWorld(index))
    durable.close()
    wal = b"".join(p.read_bytes() for p in sorted(tmp_path.rglob("*.wal")))
    assert _raw_digests(index.graph.heaps) == (1633822739, 2197238935)
    assert counter.edges == 7208
    assert (len(wal), zlib.crc32(wal)) == (163884, 2305051837)


def test_c2_build_slot_layout():
    params = C2Params(k=10, n_buckets=32, n_hashes=6, split_threshold=60, seed=1)
    result = cluster_and_conquer(ExactEngine(serving_workload()[0]), params)
    assert _raw_digests(result.graph.heaps) == (734991033, 2194566165)
    assert result.comparisons == 33350


def test_items_break_score_ties_by_id_after_replay():
    """A WAL-replayed row lists tied neighbours like the live one."""
    primary = NeighborHeaps(10, 3)
    primary.attach_journal()
    primary.offer(np.array([0]), np.array([[9, 7]]), np.array([[0.5, 0.8]]))
    primary.offer(np.array([0]), np.array([[4]]), np.array([[0.5]]))
    replica = NeighborHeaps(10, 3)
    replica.apply_edge_deltas(
        (u, v, added, primary.scores[u][primary.ids[u] == v].max(initial=-np.inf))
        for u, v, added in primary.drain_journal()
    )
    assert primary.items(0)[0].tolist() == replica.items(0)[0].tolist() == [7, 4, 9]
