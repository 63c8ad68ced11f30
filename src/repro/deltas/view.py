"""DerivedView — the consumer contract of the declarative pipeline.

A derived view is a collection maintained *from* the mutation journal
rather than recomputed from the index: the reverse-adjacency in-edge
sets, a result cache's validity, the WAL's on-disk suffix, a metrics
rollup, a secondary index. Each of those has the same three-part
shape; :class:`DerivedView` names it once:

* ``apply(delta)`` — the transformation function: fold one journal
  event into the derived state. O(|delta|), runs inside the mutation.
* ``seq`` — the persisted cursor: the last journal seq reflected in
  the derived state. The bus advances it after every successful apply;
  ``lag`` is the distance to the stream's high-water mark.
* ``resync()`` — the recipe for rebuilding the derived state from the
  source of truth. This is the answer to everything deltas cannot
  express: a ``rebuild`` event, a detected divergence, a gap after
  detachment. :class:`~repro.obs.JournalMetrics` was the first
  consumer written explicitly in this shape and is the template.
"""

from __future__ import annotations

__all__ = ["DerivedView"]


class DerivedView:
    """Base class for one derived collection over the delta stream.

    Args:
        name: view name for lag reporting and dashboards (defaults to
            the class-level :attr:`name`, then the class name).

    ``priority`` is the class attribute subclasses tune: delivery
    order (lower runs earlier; default 10). Reserved bands: 0 for state
    other views may read back out of the index (reverse adjacency), 90
    for trailing views that read their siblings' post-apply state.
    """

    name: str = ""
    priority: int = 10

    def __init__(self, name: str | None = None) -> None:
        if name is not None:
            self.name = str(name)
        elif not self.name:
            self.name = type(self).__name__
        self.seq = -1
        self.applied_total = 0
        self.resyncs_total = 0
        self._bus = None

    # ------------------------------------------------------------------
    # The contract
    # ------------------------------------------------------------------

    def apply(self, delta) -> None:
        """Fold one journal event into the derived state (transform)."""
        raise NotImplementedError

    def resync(self) -> None:
        """Rebuild the derived state from the source of truth.

        Called (via :meth:`DeltaBus.resync`, which also fast-forwards
        the cursor and counts the repair) whenever the incremental path
        cannot express what happened — a ``rebuild``, a divergence, a
        missed gap. Subclasses with derived state must implement it;
        the default raises so a consumer cannot silently skip the
        recipe.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cursor plumbing (bus side)
    # ------------------------------------------------------------------

    @property
    def lag(self) -> int:
        """Journal events published but not yet reflected in this view."""
        if self._bus is None:
            return 0
        return max(0, self._bus.seq - self.seq)

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        if self._bus is not None:
            self._bus.unregister(self)

    def _bind(self, bus) -> None:
        """Bus-side registration hook: adopt the stream's cursor."""
        self._bus = bus
        if bus is not None:
            self.seq = bus.seq

    def _deliver(self, delta) -> None:
        """Apply one delta and advance the cursor (bus side)."""
        self.apply(delta)
        self.seq = delta.seq
        self.applied_total += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} seq={self.seq}>"

