"""Durable serving — snapshot + delta-WAL persistence, restart recovery.

The delta protocol already turns every mutation into a picklable,
replayable :class:`~repro.deltas.Delta` on ``index.deltas``
(:meth:`~repro.online.OnlineIndex.apply_delta` replays it); this
package points that stream at disk so a process restart recovers the
maintained graph instead of rebuilding it:

* :class:`WriteAheadLog` — length-prefixed, checksummed, seq-stamped
  records in rotating segment files; torn tails truncate cleanly,
  corruption raises with the offending seq;
* :class:`SnapshotStore` — atomic write-rename checkpoint files named
  by the index version they captured;
* :class:`DurableIndex` — attaches both to a live index through a
  delta view that logs each delta with its edge scores, checkpoints
  (and compacts the log) in the
  background once it outgrows a threshold, and recovers snapshot +
  WAL tail in O(|tail|) work with **zero similarity evaluations**.

Convenience entry point:
:meth:`OnlineIndex.attach_persistence(path) <repro.online.OnlineIndex.attach_persistence>`.
See ``docs/persistence.md`` for the full lifecycle.
"""

from .durable import DurableIndex, RecoveryInfo
from .snapshot import SnapshotStore
from .wal import WALCorruptError, WALError, WriteAheadLog

__all__ = [
    "DurableIndex",
    "RecoveryInfo",
    "SnapshotStore",
    "WALCorruptError",
    "WALError",
    "WriteAheadLog",
]
