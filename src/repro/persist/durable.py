"""DurableIndex — restart recovery for a live OnlineIndex.

Without persistence, a process restart throws the maintained C² graph
away and pays a full O(n·k̃) similarity rebuild before serving again.
But the mutation stream the index already publishes (its delta bus)
is a natural write-ahead log: each :class:`~repro.deltas.Delta`, with
the post-mutation scores of its journaled edges, replays on a snapshot
in O(|edges|) work and **zero similarity evaluations**
(:meth:`~repro.online.OnlineIndex.apply_delta`). A restart replays the
dead process's log onto its last snapshot.

:class:`DurableIndex` wires that together:

* **attach** — register a WAL view on the live index's delta bus; it
  scores each delta's edges (the only place a mutation pays for edge
  scores) and appends ``(delta, scores)`` (pickled, framed,
  checksummed) to a :class:`~repro.persist.WriteAheadLog`; write a
  baseline snapshot via :class:`~repro.persist.SnapshotStore` when the
  directory is fresh;
* **checkpoint** — rotate the log, snapshot the index atomically, and
  compact away the segments the snapshot covers; triggered explicitly,
  in the background once the log outgrows ``checkpoint_bytes``, or
  inline on a ``rebuild`` event (whose wholesale edge replacement no
  delta can express);
* **recover** — load the newest snapshot, replay the WAL tail through
  the seq-guarded ``apply_delta`` (records the snapshot already
  reflects skip; a torn final record ends the replay cleanly), and
  return a re-attached :class:`DurableIndex` whose
  :attr:`~DurableIndex.recovery` reports what happened.

Recovery cost is O(snapshot unpickle + |tail deltas|) — at 5k users
better than an order of magnitude under a cold rebuild, with exact
edge-set parity (``tests/test_serving_floors.py`` checks parity,
``benchmarks/bench_serving.py`` times the restart).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..deltas.view import DerivedView
from ..online.index import OnlineIndex
from .snapshot import SnapshotStore
from .wal import WALError, WriteAheadLog


class _WalView(DerivedView):
    """The WAL's bus registration: append every delta to disk.

    The record is ``(delta, scores)``: the published
    :class:`~repro.deltas.Delta` and the post-mutation score of each of
    its edges, which recovery replays through the seq-guarded
    ``apply_delta``. The resync recipe is a checkpoint: when deltas
    cannot express what happened (a ``rebuild``), the snapshot *is* the
    durable form.
    """

    name = "durable_wal"

    def __init__(self, durable: "DurableIndex") -> None:
        super().__init__()
        self._durable = durable

    def apply(self, delta) -> None:
        """Append one mutation to the log (runs inside the mutation).

        A ``rebuild`` replaces the edge set wholesale — no delta can
        express it — so it checkpoints inline instead: the snapshot
        **is** its durable form. Safe here because the index write
        lock is read-reentrant for the mutating thread.
        """
        durable = self._durable
        if durable._closed:
            return
        if delta.event == "rebuild":
            durable.checkpoint()
            return
        scores = durable.index.graph.heaps.edge_scores(delta.edges)
        durable.wal.append(delta.seq, pickle.dumps((delta, scores)))
        limit = durable.checkpoint_bytes
        if limit and durable.wal.size_bytes() >= limit:
            if durable.background_checkpoints:
                durable._checkpoint_async()
            else:
                durable.checkpoint()

    def resync(self) -> None:
        """Checkpoint: snapshot the live index, compact the log."""
        self._durable.checkpoint()

__all__ = ["DurableIndex", "RecoveryInfo"]


@dataclass(frozen=True)
class RecoveryInfo:
    """What one recovery did, for dashboards, benchmarks and tests.

    Attributes:
        snapshot_seq: version of the snapshot recovery started from.
        version: index version after the WAL tail was replayed.
        replayed: deltas actually applied from the log.
        skipped: records the snapshot already reflected (they raced the
            checkpoint and were skipped by the seq guard).
        tail_torn: whether a torn final record was truncated away.
        evaluations: similarity evaluations the replay charged — zero
            by the delta contract, asserted by the benchmark.
        seconds: wall-clock recovery time.
    """

    snapshot_seq: int
    version: int
    replayed: int
    skipped: int
    tail_torn: bool
    evaluations: int
    seconds: float


class DurableIndex:
    """Snapshot + delta-WAL persistence wrapped around a live index.

    Args:
        index: the live :class:`~repro.online.OnlineIndex` to persist.
            Its version must match the directory's recovered state — a
            fresh (empty) directory gets a baseline snapshot, a
            populated one must come from :meth:`recover`.
        path: directory holding the snapshot files and WAL segments.
        checkpoint_bytes: once the log outgrows this, a checkpoint is
            triggered (``0`` disables automatic checkpoints; call
            :meth:`checkpoint` yourself).
        background_checkpoints: run size-triggered checkpoints on a
            daemon thread so the mutation that tipped the threshold
            does not pay for the snapshot. ``False`` checkpoints
            inline — deterministic, which is what the tests want.
        segment_bytes: WAL segment rotation size.
        fsync: fsync every WAL append (see
            :class:`~repro.persist.WriteAheadLog`).
        registry: :class:`~repro.obs.MetricsRegistry` for the
            checkpoint timings and recovery gauges, shared with the
            wrapped WAL (default: the process-wide registry).

    Raises:
        ValueError: the directory holds state for a different index
            version than the one being attached.
    """

    def __init__(
        self,
        index: OnlineIndex,
        path,
        *,
        checkpoint_bytes: int = 8 << 20,
        background_checkpoints: bool = True,
        segment_bytes: int = 8 << 20,
        fsync: bool = False,
        registry=None,
        _wal: WriteAheadLog | None = None,
    ) -> None:
        self.index = index
        self.path = Path(path)
        self.checkpoint_bytes = int(checkpoint_bytes)
        self.background_checkpoints = bool(background_checkpoints)
        self.store = SnapshotStore(self.path)
        reg = registry if registry is not None else obs.metrics()
        self._c_checkpoints = reg.counter("durable_checkpoints_total")
        self._h_checkpoint = reg.histogram("durable_checkpoint_seconds")
        self._g_rec_seconds = reg.gauge("durable_recovery_seconds")
        self._g_rec_replayed = reg.gauge("durable_recovery_replayed")
        self._g_rec_rate = reg.gauge("durable_recovery_replay_rate")
        self.wal = _wal if _wal is not None else WriteAheadLog(
            self.path, segment_bytes=segment_bytes, fsync=fsync, registry=reg
        )
        self.checkpoints = 0
        self.recovery: RecoveryInfo | None = None
        self._cp_lock = threading.Lock()
        self._cp_thread: threading.Thread | None = None
        self._closed = False
        on_disk = self.wal.last_seq
        if on_disk is None:
            on_disk = self.store.latest_seq()
        if on_disk is None:
            # Fresh directory: the baseline snapshot is what the WAL
            # tail will replay onto after a restart.
            self._snapshot()
        elif on_disk != index.version:
            raise ValueError(
                f"directory {self.path} is at seq {on_disk} but the index "
                f"is at version {index.version}; use DurableIndex.recover()"
            )
        self._view = index.deltas.register(_WalView(self))

    # ------------------------------------------------------------------
    # The persistence hook
    # ------------------------------------------------------------------

    def lag(self) -> int:
        """Mutations published but not yet appended to the log.

        Zero in steady state — the WAL view appends synchronously
        inside each mutation. Non-zero means the durability pipeline
        fell behind the journal (e.g. the view was detached), which is
        exactly what ``metrics-dump``'s ``journal_lag{consumer="wal"}``
        gauge surfaces.
        """
        return self._view.lag

    def _checkpoint_async(self) -> None:
        with self._cp_lock:
            if self._cp_thread is not None and self._cp_thread.is_alive():
                return  # one in flight is enough
            self._cp_thread = threading.Thread(
                target=self._background_checkpoint,
                name="repro-checkpoint",
                daemon=True,
            )
            self._cp_thread.start()

    def _background_checkpoint(self) -> None:
        try:
            self.checkpoint()
        except WALError:
            pass  # closed under us — nothing left to persist

    def checkpoint(self) -> int:
        """Snapshot the index and compact the log it makes redundant.

        Snapshot first, rotate second, compact last. Compaction is
        per-segment all-or-nothing, so a segment holding any record
        newer than the snapshot survives whole; records the snapshot
        already covers replay as seq-guarded skips. The snapshot write
        is atomic, so a crash at any point leaves a recoverable
        directory. Lock order is index-then-WAL everywhere (the WAL
        lock is never held while acquiring the index lock), which is
        what lets a background checkpoint run concurrently with the
        mutation hook — including the ``rebuild`` case, where the
        mutating thread checkpoints inline while holding the write
        lock. Returns the checkpointed version.
        """
        if self._closed:
            raise WALError("DurableIndex is closed")
        t0 = time.perf_counter()
        seq = self._snapshot()
        self.wal.rotate()
        self.wal.compact(seq)
        self.checkpoints += 1
        self._c_checkpoints.inc()
        self._h_checkpoint.observe(time.perf_counter() - t0)
        return seq

    def _snapshot(self) -> int:
        # One read acquisition for both the payload and the version it
        # captured (nesting read() inside read() could deadlock behind
        # a waiting writer).
        with self.index.lock.read():
            seq = self.index.version
            payload = pickle.dumps(self.index)
        self.store.save(payload, seq)
        return seq

    # ------------------------------------------------------------------
    # Restart recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        path,
        *,
        checkpoint_bytes: int = 8 << 20,
        background_checkpoints: bool = True,
        segment_bytes: int = 8 << 20,
        fsync: bool = False,
        registry=None,
    ) -> "DurableIndex":
        """Rebuild the index a dead process was serving; re-attach to it.

        Loads the newest snapshot, replays the WAL tail through the
        seq-guarded ``apply_delta`` — O(|tail|) work, zero similarity
        evaluations — and returns a :class:`DurableIndex` already
        persisting the recovered index into the same directory.
        :attr:`recovery` carries the :class:`RecoveryInfo`.

        Raises:
            WALError: no snapshot exists in ``path``.
            WALCorruptError: a committed log record failed its
                checksum (named by seq).
            ReplayGapError: the log has a sequence gap the replay
                cannot bridge.
        """
        t0 = time.perf_counter()
        loaded = SnapshotStore(path).load_latest()
        if loaded is None:
            raise WALError(f"no snapshot in {Path(path)} — nothing to recover from")
        payload, snapshot_seq = loaded
        index: OnlineIndex = pickle.loads(payload)
        wal = WriteAheadLog(path, segment_bytes=segment_bytes, fsync=fsync)
        before = index.engine.comparisons
        replayed = skipped = 0
        for _seq, raw in wal.replay(after_seq=index.version):
            if index.apply_delta(*pickle.loads(raw)):
                replayed += 1
            else:
                skipped += 1
        info = RecoveryInfo(
            snapshot_seq=snapshot_seq,
            version=index.version,
            replayed=replayed,
            skipped=skipped,
            tail_torn=wal.tail_torn,
            evaluations=index.engine.comparisons - before,
            seconds=time.perf_counter() - t0,
        )
        durable = cls(
            index,
            path,
            checkpoint_bytes=checkpoint_bytes,
            background_checkpoints=background_checkpoints,
            segment_bytes=segment_bytes,
            fsync=fsync,
            registry=registry,
            _wal=wal,
        )
        durable.recovery = info
        durable._g_rec_seconds.set(info.seconds)
        durable._g_rec_replayed.set(info.replayed)
        durable._g_rec_rate.set(
            info.replayed / info.seconds if info.seconds > 0 else 0.0
        )
        return durable

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for dashboards, benchmarks and tests.

        Extends the wrapped WAL's canonical stats; the legacy
        ``checkpoints`` spelling was dropped after its one-release
        grace window.
        """
        out = self.wal.stats()
        out.update(
            component="durable_index",
            snapshot_seq=self.store.latest_seq(),
            checkpoints_total=self.checkpoints,
            version=self.index.version,
        )
        if self.recovery is not None:
            out["recovered"] = {
                "snapshot_seq": self.recovery.snapshot_seq,
                "replayed": self.recovery.replayed,
                "seconds": round(self.recovery.seconds, 4),
            }
        return out

    def close(self) -> None:
        """Detach from the index, wait out checkpoints, release the log."""
        if self._closed:
            return
        self._closed = True
        self._view.close()
        thread = self._cp_thread
        if thread is not None and thread.is_alive():
            thread.join()
        self.wal.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
