"""A small readers-writer lock (no intra-package dependencies).

The serving subsystem lets several caller threads walk the graph while
an :class:`~repro.online.OnlineIndex` takes mutations from another
thread. Walks only read; mutations patch numpy rows in place, so a walk
observing a half-applied mutation could follow garbage edges. The
classic fix: any number of concurrent readers, writers exclusive.

Semantics chosen for this codebase:

* **write is reentrant** — ``refill`` runs under the write lock and
  issues a self-query whose walk takes the read lock;
* **a thread holding write may read** — same reason;
* **writers are preferred** — arriving readers queue behind a waiting
  writer, so a mutation storm cannot be starved by query traffic.

No read→write upgrade (a reader acquiring write would deadlock against
itself); none of the call paths here needs one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["RWLock"]


class RWLock:
    """Readers-writer lock with reentrant, read-permitting writers."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None  # ident of the thread holding write
        self._write_depth = 0
        self._waiting_writers = 0

    @contextmanager
    def read(self):
        """Shared acquisition; never blocks the thread holding write."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # The writer reading its own half-applied state is the
                # refill self-query; it sees a consistent snapshot
                # because it *is* the mutation.
                own_write = True
            else:
                own_write = False
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
                self._readers += 1
        try:
            yield self
        finally:
            if not own_write:
                with self._cond:
                    self._readers -= 1
                    if self._readers == 0:
                        self._cond.notify_all()

    @contextmanager
    def write(self):
        """Exclusive acquisition; reentrant for the owning thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
            else:
                self._waiting_writers += 1
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._waiting_writers -= 1
                self._writer = me
                self._write_depth = 1
        try:
            yield self
        finally:
            with self._cond:
                self._write_depth -= 1
                if self._write_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
