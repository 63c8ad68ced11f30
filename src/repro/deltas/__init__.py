"""Declarative delta pipeline: derived collections over the mutation journal.

The paper's C²-graph stays cheap to maintain online because every
mutation describes itself as a journaled delta. Several consumers
read that journal (reverse-adjacency maintenance, result-cache
invalidation in the query engine, the durable WAL, and the journal
metrics view), and each needs the same subscribe / replay /
seq-cursor / resync logic. This package puts them behind one
derived-collection abstraction, after the krt framework's
"collections derived from collections via transformation functions,
with the framework owning state and change propagation":

* :class:`Delta` — one journal event, self-describing and the only
  mutation record: seq, event kind, mutated user, per-edge structural
  changes, profile payload, the user's new cluster assignment, the
  clusters the mutation opened and the re-split routing payload —
  everything :meth:`~repro.online.OnlineIndex.apply_delta` needs to
  replay it, which is why the WAL stores it as is.
* :class:`DeltaBus` — owns the stream. The index publishes exactly one
  :class:`Delta` per mutation, seq-stamped monotonically; the bus
  delivers it to every registered view in priority order, keeps each
  view's cursor, reports per-view lag, and counts resyncs.
* :class:`DerivedView` — the contract every consumer half-implemented
  before: ``apply(delta)`` (the transformation function), a persisted
  ``seq`` cursor, and a ``resync()`` recipe (rebuild the derived state
  from the source of truth — the answer to any event deltas cannot
  express).

Registration is ``index.deltas.register(view)``; ``view.close()``
detaches it.

See ``docs/architecture.md`` ("The life of a delta") for the end-to-end
walkthrough and ``examples/derived_views.py`` for building a custom
view (a toy item→users secondary index).
"""

from __future__ import annotations

from .bus import Delta, DeltaBus
from .view import DerivedView

__all__ = [
    "Delta",
    "DeltaBus",
    "DerivedView",
]
