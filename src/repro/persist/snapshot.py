"""Atomic snapshot files — the checkpoint half of durable serving.

A snapshot is the pickled :class:`~repro.online.OnlineIndex` (its
``__getstate__`` drops the bus, locks and metric handles); this module
gives it a crash-safe disk life. Writes go to a temporary file first and are
published with ``os.replace`` — on any filesystem that's an atomic
rename, so a reader (or a recovery after a crash mid-checkpoint)
either sees the complete new snapshot or the complete previous one,
never a torn hybrid. Files are named by the index version they
captured (``snapshot-{seq:020d}.pkl``), which is all the metadata
recovery needs: load the latest, then replay the WAL records with
``seq`` greater than the filename says.

Older snapshots are pruned only *after* the new one is durably in
place, so there is no instant without a loadable checkpoint.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["SnapshotStore"]

_PREFIX = "snapshot-"
_SUFFIX = ".pkl"


class SnapshotStore:
    """Versioned, atomically-replaced snapshot files in one directory.

    Args:
        path: directory for the ``snapshot-*.pkl`` files (created if
            missing; shared with a :class:`~repro.persist.WriteAheadLog`'s
            segments).
        keep: how many most-recent snapshots survive a save. The
            default keeps exactly one — the WAL tail covers everything
            after it, so older checkpoints are dead weight.
    """

    def __init__(self, path, *, keep: int = 1) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    def _snapshots(self) -> list[tuple[int, Path]]:
        """``(seq, path)`` of every snapshot on disk, oldest first."""
        out = []
        for p in self.path.glob(f"{_PREFIX}*{_SUFFIX}"):
            stem = p.name[len(_PREFIX) : -len(_SUFFIX)]
            if stem.isdigit():
                out.append((int(stem), p))
        return sorted(out)

    def save(self, payload: bytes, seq: int) -> Path:
        """Publish ``payload`` as the snapshot at version ``seq``.

        Write-then-rename: the bytes land in a ``.tmp`` sibling, are
        flushed and fsynced, and only then atomically replace the final
        name. Surplus older snapshots are pruned afterwards.
        """
        seq = int(seq)
        final = self.path / f"{_PREFIX}{seq:020d}{_SUFFIX}"
        tmp = final.with_suffix(final.suffix + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        for _old_seq, p in self._snapshots()[: -self.keep]:
            if p != final:
                p.unlink(missing_ok=True)
        return final

    def latest_seq(self) -> int | None:
        """Version of the newest snapshot, ``None`` when there is none."""
        snaps = self._snapshots()
        return snaps[-1][0] if snaps else None

    def load_latest(self) -> tuple[bytes, int] | None:
        """``(payload, seq)`` of the newest snapshot, ``None`` if empty."""
        snaps = self._snapshots()
        if not snaps:
            return None
        seq, p = snaps[-1]
        return p.read_bytes(), seq
