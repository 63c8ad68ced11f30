"""Write-ahead log for the delta stream — segmented, checksummed, replayable.

Every mutation already publishes a picklable
:class:`~repro.deltas.Delta`; this module gives that stream a disk
form. A :class:`WriteAheadLog` appends one record per delta to an
append-only **segment file**::

    segment file:  MAGIC  record  record  record ...
    record:        <crc32:u32> <length:u32> <seq:u64> <payload bytes>

The log itself treats payloads as opaque bytes; the durable index
writes ``pickle((delta, scores))``, the delta and the post-mutation
score of each of its edges. ``MAGIC`` is ``C2WAL`` plus a three-digit
format version, bumped whenever that payload changes: a segment of
another version raises :class:`WALError` naming both versions instead
of failing later, inside ``pickle``.

* **length-prefixed** — records are framed, so a reader never guesses
  where a pickle ends;
* **checksummed** — the CRC covers the seq stamp *and* the payload, so
  a flipped bit anywhere in a record is caught before it is unpickled
  (:class:`WALCorruptError` names the offending seq and offset);
* **seq-stamped** — the index's post-mutation version rides in the
  frame itself, so replay can skip records a snapshot already contains
  and detect gaps without deserialising anything.

Segments are named by the first seq they hold (``{seq:020d}.wal``), so
the directory listing is the log's order. The log **rotates** to a
fresh segment on demand (checkpoints rotate before snapshotting) or
when the active segment outgrows ``segment_bytes``; **compaction**
deletes whole closed segments whose records are all covered by a
snapshot — the recovery path then replays only the tail.

Failure tolerance is asymmetric by design:

* a **torn tail** — a crash mid-append leaves the final record of the
  final segment incomplete — is expected and harmless: opening the log
  truncates the torn bytes and replay stops cleanly before them;
* **corruption anywhere else** (bad CRC, bad magic, a truncated record
  *followed by more data*) is not recoverable by dropping bytes — it
  means committed records are unreadable — and raises
  :class:`WALCorruptError` instead of silently serving a hole.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from time import perf_counter

from .. import obs

__all__ = ["WALCorruptError", "WALError", "WriteAheadLog"]

MAGIC = b"C2WAL002"
_HEADER = struct.Struct("<IIQ")  # crc32, payload length, seq


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALCorruptError(WALError):
    """A committed WAL record failed validation (checksum, magic, framing).

    Attributes:
        path: the segment file holding the bad record.
        offset: byte offset of the record inside the segment.
        seq: the seq stamp read from the record's header (``None`` when
            the frame itself was unreadable). The stamp is inside the
            checksummed region, so on a CRC mismatch it names the
            record as written — or, if the corruption hit the header,
            the garbage that now sits where the seq was; either way it
            localises the damage.
    """

    def __init__(self, message: str, *, path: Path, offset: int, seq: int | None = None):
        detail = f"{message} [segment {path.name}, offset {offset}"
        if seq is not None:
            detail += f", seq {seq}"
        super().__init__(detail + "]")
        self.path = path
        self.offset = offset
        self.seq = seq


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(seq.to_bytes(8, "little")))


def _scan_segment(
    path: Path, *, tolerate_torn_tail: bool
) -> tuple[list[tuple[int, bytes]], int, bool]:
    """Validate one segment; returns ``(records, valid_end, torn)``.

    ``records`` is the list of ``(seq, payload)`` frames that verified,
    ``valid_end`` the byte offset the last of them ends at. A torn tail
    (incomplete final frame) sets ``torn`` when tolerated — only the
    log's final segment may legally be torn — and raises
    :class:`WALCorruptError` otherwise. A CRC or magic failure always
    raises: those bytes were fully written once and are now wrong.
    """
    data = path.read_bytes()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        if len(magic) < len(MAGIC) and tolerate_torn_tail:
            # A segment created but torn before its magic completed
            # holds no committed records at all.
            return [], 0, True
        if len(magic) == len(MAGIC) and magic[:5] == MAGIC[:5]:
            raise WALError(
                f"segment {path.name} is WAL format "
                f"{magic[5:].decode(errors='replace')}; this version reads "
                f"format {MAGIC[5:].decode()}"
            )
        raise WALCorruptError("bad segment magic", path=path, offset=0)
    records: list[tuple[int, bytes]] = []
    offset = len(MAGIC)
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            if tolerate_torn_tail:
                return records, offset, True
            raise WALCorruptError(
                "truncated record header mid-stream", path=path, offset=offset
            )
        crc, length, seq = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if len(data) - start < length:
            if tolerate_torn_tail:
                return records, offset, True
            raise WALCorruptError(
                "truncated record payload mid-stream",
                path=path,
                offset=offset,
                seq=seq,
            )
        payload = data[start : start + length]
        if _crc(seq, payload) != crc:
            raise WALCorruptError(
                "record checksum mismatch", path=path, offset=offset, seq=seq
            )
        records.append((seq, payload))
        offset = start + length
    return records, offset, False


class WriteAheadLog:
    """An append-only, segmented log of ``(seq, payload)`` records.

    Args:
        path: directory holding the ``*.wal`` segment files (created if
            missing; shared with the snapshot files of a
            :class:`~repro.persist.SnapshotStore`).
        segment_bytes: the active segment rotates once it grows past
            this size, bounding how much one compaction can reclaim at
            a time.
        fsync: ``True`` forces an ``os.fsync`` after every append —
            real crash durability at a heavy per-record cost. The
            default flushes to the OS (survives process death, not
            power loss), which is the right trade for benchmarks and
            tests.

    Opening an existing directory validates the final segment, drops a
    torn tail (the crash-mid-append case), and resumes appending in a
    fresh segment. Appends are thread-safe; ``seq`` must be strictly
    increasing (the index's version stream already is).

    ``registry`` selects the :class:`~repro.obs.MetricsRegistry` for
    the append/fsync latency histograms and the size gauges (default:
    the process-wide registry).
    """

    def __init__(
        self,
        path,
        *,
        segment_bytes: int = 8 << 20,
        fsync: bool = False,
        registry=None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        reg = registry if registry is not None else obs.metrics()
        self._c_appends = reg.counter("wal_appends_total")
        self._h_append = reg.histogram("wal_append_seconds")
        self._h_fsync = reg.histogram("wal_fsync_seconds")
        self._g_bytes = reg.gauge("wal_bytes")
        self._g_segments = reg.gauge("wal_segments")
        self._lock = threading.RLock()
        self._fh = None
        self._closed = False
        self._active: Path | None = None
        self._active_bytes = 0
        self.appended = 0
        self.tail_torn = False
        # (first_seq, path), log order. Closed segments' ranges are
        # contiguous, so segment i ends at segments[i+1].first - 1.
        self._segments: list[tuple[int, Path]] = sorted(
            (int(p.stem), p) for p in self.path.glob("*.wal")
        )
        self.last_seq: int | None = None
        # Maintained in memory so the per-mutation threshold check in
        # DurableIndex costs no stat() syscalls (see size_bytes()).
        self._live_bytes = sum(
            seg.stat().st_size for _, seg in self._segments if seg.exists()
        )
        self._recover_tail()

    def _recover_tail(self) -> None:
        """Validate the final segment; truncate a torn tail in place.

        A record-less final segment (torn before its first record
        committed) is unlinked.
        """
        drop_from = len(self._segments)
        while drop_from:
            first, seg = self._segments[drop_from - 1]
            records, end, torn = _scan_segment(seg, tolerate_torn_tail=True)
            if not records:
                # Torn before the first record committed: the file
                # carries nothing. Drop it.
                drop_from -= 1
                self.tail_torn = self.tail_torn or torn
                self._live_bytes -= seg.stat().st_size
                seg.unlink()
                continue
            if torn:
                self.tail_torn = True
                torn_bytes = seg.stat().st_size - end
                with seg.open("r+b") as fh:
                    fh.truncate(end)
                self._live_bytes = max(0, self._live_bytes - torn_bytes)
            self.last_seq = records[-1][0]
            break
        self._segments = self._segments[:drop_from]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, seq: int, payload: bytes) -> None:
        """Frame, checksum and append one record; flushed before return."""
        seq = int(seq)
        t0 = perf_counter()
        with self._lock:
            if self._closed:
                raise WALError("log is closed")
            if self.last_seq is not None and seq <= self.last_seq:
                raise ValueError(
                    f"seq {seq} not after last appended seq {self.last_seq}"
                )
            if self._fh is not None and self._active_bytes >= self.segment_bytes:
                self._close_active()
            if self._fh is None:
                self._open_segment(seq)
            record = _HEADER.pack(_crc(seq, payload), len(payload), seq) + payload
            self._fh.write(record)
            self._fh.flush()
            if self.fsync:
                t_sync = perf_counter()
                os.fsync(self._fh.fileno())
                self._h_fsync.observe(perf_counter() - t_sync)
            self._active_bytes += len(record)
            self._live_bytes += len(record)
            self.last_seq = seq
            self.appended += 1
            self._c_appends.inc()
            self._g_bytes.set(self._live_bytes)
            self._g_segments.set(len(self._segments))
        self._h_append.observe(perf_counter() - t0)

    def _open_segment(self, first_seq: int) -> None:
        seg = self.path / f"{first_seq:020d}.wal"
        if seg.exists():
            raise WALError(f"segment {seg.name} already exists (seq reuse)")
        self._fh = seg.open("wb")
        self._fh.write(MAGIC)
        self._fh.flush()
        self._active = seg
        self._active_bytes = len(MAGIC)
        self._live_bytes += len(MAGIC)
        self._segments.append((first_seq, seg))

    def _close_active(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fh = None
        self._active = None
        self._active_bytes = 0

    def rotate(self) -> None:
        """Close the active segment; the next append starts a fresh one.

        Checkpoints rotate around their snapshot so that compaction
        works on whole closed segments. A no-op on a closed log.
        """
        with self._lock:
            if not self._closed:
                self._close_active()

    def compact(self, upto_seq: int) -> int:
        """Delete closed segments fully covered by ``seq <= upto_seq``.

        Returns the number of segments removed. The active segment is
        never touched, and a segment survives if *any* of its records
        is newer than ``upto_seq`` — compaction is all-or-nothing per
        segment, which is what makes it a pair of ``unlink`` calls
        instead of a rewrite.
        """
        removed = 0
        with self._lock:
            kept: list[tuple[int, Path]] = []
            for i, (first, seg) in enumerate(self._segments):
                if i + 1 < len(self._segments):
                    last = self._segments[i + 1][0] - 1
                else:
                    last = self.last_seq
                if seg != self._active and last is not None and last <= int(upto_seq):
                    if seg.exists():
                        self._live_bytes = max(
                            0, self._live_bytes - seg.stat().st_size
                        )
                        seg.unlink()
                    removed += 1
                else:
                    kept.append((first, seg))
            self._segments = kept
        return removed

    def close(self) -> None:
        """Flush and release the active segment handle (idempotent)."""
        with self._lock:
            self._close_active()
            self._closed = True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def replay(self, after_seq: int = 0):
        """Yield ``(seq, payload)`` for every record with ``seq > after_seq``.

        Segments are re-read from disk in log order and every frame is
        checksum-verified; a torn tail on the final segment ends the
        replay cleanly (those bytes never committed), any other damage
        raises :class:`WALCorruptError`. Safe to call while another
        thread appends — records flushed before the call are seen.
        """
        with self._lock:
            segments = list(self._segments)
        after_seq = int(after_seq)
        for i, (_first, seg) in enumerate(segments):
            records, _end, torn = _scan_segment(
                seg, tolerate_torn_tail=(i == len(segments) - 1)
            )
            for seq, payload in records:
                if seq > after_seq:
                    yield seq, payload
            if torn:
                return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Total size of all live segments.

        Maintained in memory (appends add, compaction subtracts) so
        the per-mutation checkpoint-threshold check in
        :class:`~repro.persist.DurableIndex` costs no ``stat`` calls
        on the write path.
        """
        with self._lock:
            return self._live_bytes

    def segments(self) -> list[Path]:
        """Live segment paths, log order (oldest first)."""
        with self._lock:
            return [seg for _, seg in self._segments]

    def stats(self) -> dict:
        """Operational counters for dashboards and tests.

        Canonical keys per the shared vocabulary
        (``docs/observability.md``); the pre-unification spellings were
        dropped after their one-release grace window.
        """
        with self._lock:
            return {
                "component": "wal",
                "segments": len(self._segments),
                "bytes": self.size_bytes(),
                "last_seq": self.last_seq,
                "appends_total": self.appended,
                "tail_torn": self.tail_torn,
            }
