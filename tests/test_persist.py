"""Unit tests for repro.persist — WAL, snapshots, DurableIndex (PR 5).

The failure modes the ISSUE calls out get explicit coverage here:

* a **torn tail** (crash mid-append) is truncated away and recovery
  proceeds from the last committed record;
* a **checksum-corrupt** record raises :class:`WALCorruptError` naming
  the offending seq instead of serving a hole;
* restart **after a checkpoint** replays only the post-checkpoint
  tail (compaction removed the covered segments);
* recovery reaches exact state parity with the pre-restart index and
  charges **zero similarity evaluations**.

The randomized state-parity property lives in
``tests/test_prop_persist.py`` (REPRO_PROP_SEED matrix).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import C2Params
from repro.deltas import Delta
from repro.online import OnlineIndex
from repro.persist import (
    DurableIndex,
    SnapshotStore,
    WALCorruptError,
    WALError,
    WriteAheadLog,
)
from repro.persist.wal import _HEADER, MAGIC
from repro.serve import GraphSearcher
from repro.graph.heap import edge_digest

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
                int(rng.choice(active)), rng.integers(0, index.dataset.n_items, size=2)
            )
        elif op < 0.8:
            index.add_user(rng.integers(0, index.dataset.n_items, size=10))
        elif active.size > 40:
            index.remove_user(int(rng.choice(active)))


def _state(index):
    return index.version, edge_digest(index.graph.heaps)


# ----------------------------------------------------------------------
# WriteAheadLog
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        payloads = [bytes([i]) * (i + 1) for i in range(10)]
        for i, payload in enumerate(payloads):
            wal.append(i + 1, payload)
        assert list(wal.replay()) == [(i + 1, p) for i, p in enumerate(payloads)]
        assert list(wal.replay(after_seq=7)) == [(8, payloads[7]), (9, payloads[8]), (10, payloads[9])]
        wal.close()

    def test_seq_must_increase(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(5, b"x")
        with pytest.raises(ValueError, match="not after"):
            wal.append(5, b"y")
        with pytest.raises(ValueError, match="not after"):
            wal.append(4, b"y")
        wal.close()

    def test_reopen_resumes_in_fresh_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"a")
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.last_seq == 1
        wal2.append(2, b"b")
        assert len(wal2.segments()) == 2
        assert list(wal2.replay()) == [(1, b"a"), (2, b"b")]
        wal2.close()

    def test_torn_tail_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"alpha")
        wal.append(2, b"beta")
        wal.close()
        seg = wal.segments()[-1]
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # crash mid-append: torn final record
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.tail_torn
        assert wal2.last_seq == 1
        assert list(wal2.replay()) == [(1, b"alpha")]
        # and appending continues cleanly after the committed prefix
        wal2.append(2, b"beta2")
        assert list(wal2.replay()) == [(1, b"alpha"), (2, b"beta2")]
        wal2.close()

    def test_tail_torn_before_any_record_drops_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"alpha")
        wal.rotate()
        wal.append(2, b"beta")
        wal.close()
        seg = wal.segments()[-1]
        seg.write_bytes(seg.read_bytes()[: len(MAGIC) + 4])
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.last_seq == 1
        assert list(wal2.replay()) == [(1, b"alpha")]
        wal2.close()

    def test_corrupt_record_raises_with_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"alpha")
        wal.append(2, b"beta")
        wal.append(3, b"gamma")
        wal.close()
        seg = wal.segments()[-1]
        data = bytearray(seg.read_bytes())
        # Flip one payload byte of record 2 (seq=2). Record layout:
        # MAGIC, then per record HEADER + payload.
        offset = len(MAGIC) + _HEADER.size + 5  # past record 1
        data[offset + _HEADER.size] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError) as err:
            WriteAheadLog(tmp_path)
        assert err.value.seq == 2
        assert "seq 2" in str(err.value)

    def test_mid_stream_truncation_is_corruption(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"alpha")
        wal.rotate()
        wal.append(2, b"beta")
        wal.close()
        first = wal.segments()[0]
        first.write_bytes(first.read_bytes()[:-2])
        wal2 = WriteAheadLog(tmp_path)  # open scans only the final segment
        with pytest.raises(WALCorruptError, match="mid-stream"):
            list(wal2.replay())
        wal2.close()

    def test_rotate_and_compact(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in range(1, 6):
            wal.append(seq, b"x" * 10)
            wal.rotate()
        assert len(wal.segments()) == 5
        removed = wal.compact(3)
        assert removed == 3
        assert list(wal.replay()) == [(4, b"x" * 10), (5, b"x" * 10)]
        # replay with the seq guard skips what a snapshot would cover
        assert [s for s, _ in wal.replay(after_seq=4)] == [5]
        wal.close()

    def test_compact_never_splits_a_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"a")
        wal.append(2, b"b")
        wal.rotate()
        wal.append(3, b"c")
        # seq 1 is covered but lives in a segment that also holds 2:
        assert wal.compact(1) == 0
        assert wal.compact(2) == 1
        assert [s for s, _ in wal.replay()] == [3]
        wal.close()

    def test_size_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=64)
        for seq in range(1, 8):
            wal.append(seq, b"y" * 40)
        assert len(wal.segments()) > 1
        assert [s for s, _ in wal.replay()] == list(range(1, 8))
        wal.close()

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"a")
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append(2, b"b")


# ----------------------------------------------------------------------
# SnapshotStore
# ----------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_load_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load_latest() is None
        store.save(b"one", 3)
        store.save(b"two", 7)
        assert store.load_latest() == (b"two", 7)
        assert store.latest_seq() == 7

    def test_prunes_older_snapshots(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in (1, 2, 3):
            store.save(b"p%d" % seq, seq)
        snaps = list(tmp_path.glob("snapshot-*.pkl"))
        assert len(snaps) == 1
        assert store.load_latest() == (b"p3", 3)

    def test_keep_two(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for seq in (1, 2, 3):
            store.save(b"p", seq)
        assert len(list(tmp_path.glob("snapshot-*.pkl"))) == 2

    def test_no_tmp_residue(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(b"x", 1)
        assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# DurableIndex
# ----------------------------------------------------------------------


class TestDurableIndex:
    def test_fresh_attach_writes_baseline_snapshot(self, index, tmp_path):
        durable = DurableIndex(index, tmp_path, checkpoint_bytes=0)
        assert durable.store.latest_seq() == index.version
        durable.close()

    def test_recover_reaches_state_parity(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng)
        want = _state(index)
        durable.close()
        recovered = DurableIndex.recover(tmp_path)
        assert _state(recovered.index) == want
        assert recovered.recovery.evaluations == 0
        assert recovered.recovery.replayed > 0
        # profiles came back too, not just edges
        assert np.array_equal(
            recovered.index.dataset.active_users(), index.dataset.active_users()
        )
        recovered.close()

    def test_recovered_index_keeps_persisting(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng, n=10)
        durable.close()
        second = DurableIndex.recover(tmp_path)
        _churn(second.index, rng, n=10)
        want = _state(second.index)
        second.close()
        third = DurableIndex.recover(tmp_path)
        assert _state(third.index) == want
        third.close()

    def test_restart_after_compaction_replays_only_tail(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng, n=20)
        durable.checkpoint()
        assert durable.wal.size_bytes() == 0  # fully compacted
        index.add_user(rng.integers(0, index.dataset.n_items, size=10))
        index.add_user(rng.integers(0, index.dataset.n_items, size=10))
        want = _state(index)
        durable.close()
        recovered = DurableIndex.recover(tmp_path)
        assert recovered.recovery.replayed == 2
        assert recovered.recovery.skipped == 0
        assert _state(recovered.index) == want
        recovered.close()

    def test_torn_final_record_recovers_to_committed_prefix(
        self, index, tmp_path, rng
    ):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng, n=8)
        want_version = index.version
        durable.close()
        seg = sorted(tmp_path.glob("*.wal"))[-1]
        seg.write_bytes(seg.read_bytes()[:-4])  # crash mid-append
        recovered = DurableIndex.recover(tmp_path)
        assert recovered.recovery.tail_torn
        assert recovered.index.version == want_version - 1
        recovered.close()

    def test_rebuild_checkpoints_inline(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng, n=5)
        index.rebuild()
        assert durable.store.latest_seq() == index.version
        index.add_user(rng.integers(0, index.dataset.n_items, size=10))
        want = _state(index)
        durable.close()
        recovered = DurableIndex.recover(tmp_path)
        assert _state(recovered.index) == want
        recovered.close()

    def test_auto_checkpoint_by_size(self, index, tmp_path, rng):
        durable = DurableIndex(
            index, tmp_path, checkpoint_bytes=1, background_checkpoints=False
        )
        _churn(index, rng, n=5)
        assert durable.checkpoints >= 5  # every append tips the threshold
        durable.close()
        recovered = DurableIndex.recover(tmp_path)
        assert _state(recovered.index) == _state(index)
        recovered.close()

    def test_attach_version_mismatch_rejected(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng, n=5)
        durable.close()
        fresh = OnlineIndex.build(
            index.dataset.snapshot(), params=index.params
        )
        with pytest.raises(ValueError, match="recover"):
            DurableIndex(fresh, tmp_path)

    def test_recover_empty_dir_raises(self, tmp_path):
        with pytest.raises(WALError, match="no snapshot"):
            DurableIndex.recover(tmp_path)

    def test_recovered_serving_matches_live(self, index, tmp_path, rng):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        _churn(index, rng)
        durable.close()
        recovered = DurableIndex.recover(tmp_path)
        live = GraphSearcher(index, ef=16)
        back = GraphSearcher(recovered.index, ef=16)
        for _ in range(5):
            profile = rng.integers(0, index.dataset.n_items, size=12)
            a = live.top_k(profile, k=K)
            b = back.top_k(profile, k=K)
            assert np.array_equal(a.ids, b.ids)
        recovered.close()

    def test_wal_records_are_the_published_deltas(self, small_dataset, tmp_path, rng, wal_tap):
        """Each record is ``(delta, scores)``: the published Delta and the
        live heap's scores of its edges, on a tape with re-splits and
        refills."""
        params = C2Params(k=K, n_buckets=16, n_hashes=4, split_threshold=30, seed=1)
        index = OnlineIndex.build(small_dataset, params=params)
        published = []
        wal_tap(index, published.append)
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        for _ in range(3):
            _churn(index, rng, n=20)
            for user in sorted(index.degraded)[:5]:
                index.refill(user)
        durable.close()
        logged = [(seq, pickle.loads(raw)) for seq, raw in durable.wal.replay()]
        assert len(logged) == len(published)
        assert {"resplit", "refill", "remove_user"} <= {d.event for d, _ in published}
        for (seq, (delta, scores)), (live, live_scores) in zip(logged, published):
            assert type(delta) is Delta and delta.seq == seq
            for f in dataclasses.fields(Delta):
                got, want = getattr(delta, f.name), getattr(live, f.name)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want, f.name
            assert np.array_equal(scores, live_scores)

    def test_old_wal_format_names_its_version(self, tmp_path):
        """A segment of the previous record format is refused by version."""
        (tmp_path / f"{1:020d}.wal").write_bytes(b"C2WAL001" + bytes(16))
        with pytest.raises(WALError, match="format 001.*format 002"):
            WriteAheadLog(tmp_path)

    def test_context_manager_closes(self, index, tmp_path):
        with index.attach_persistence(tmp_path, checkpoint_bytes=0) as durable:
            index.add_user([1, 2, 3])
        assert durable._closed
        # detached: further mutations don't reach the closed log
        index.add_user([4, 5, 6])
        recovered = DurableIndex.recover(tmp_path)
        assert recovered.index.version == index.version - 1
        recovered.close()


class TestClosedLifecycle:
    def test_rotate_after_close_is_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, b"a")
        wal.close()
        wal.rotate()  # must not crash or silently reopen
        with pytest.raises(WALError, match="closed"):
            wal.append(2, b"b")

    def test_checkpoint_after_close_raises(self, index, tmp_path):
        durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
        durable.close()
        with pytest.raises(WALError, match="closed"):
            durable.checkpoint()

    def test_size_bytes_tracks_without_stat(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in range(1, 5):
            wal.append(seq, b"z" * 32)
            wal.rotate()
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("*.wal"))
        assert wal.size_bytes() == on_disk
        wal.compact(2)
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("*.wal"))
        assert wal.size_bytes() == on_disk
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.size_bytes() == on_disk
        reopened.close()
