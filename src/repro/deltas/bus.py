"""The delta bus: one seq-stamped mutation stream, many derived views.

:class:`DeltaBus` is the framework half of the declarative pipeline
(:class:`~repro.deltas.DerivedView` is the consumer half). The owning
:class:`~repro.online.OnlineIndex` publishes exactly one
:class:`Delta` per mutation — seq-stamped with the post-mutation
version, so the stream is gapless and strictly monotonic — and the bus
handles everything consumers used to hand-roll: ordered delivery,
per-view seq cursors, lag reporting, and counted resyncs.

Cost model: the bus itself is O(views) pointer work per mutation. The
one costly annotation, the post-mutation score of each journaled
edge, is not on the :class:`Delta`: the WAL view, its only consumer,
looks it up (:meth:`~repro.graph.NeighborHeaps.edge_scores`), so an
index with no WAL never pays for it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Delta", "DeltaBus"]


@dataclass(frozen=True)
class Delta:
    """One journal event, self-describing — the unit the bus delivers.

    Attributes:
        seq: index version after the mutation (strictly monotonic; a
            view's cursor advances to this after a successful apply).
        event: ``add_user`` / ``add_items`` / ``remove_user`` /
            ``refill`` / ``resplit`` / ``rebuild``.
        user: the mutated user id (-1 for ``resplit`` / ``rebuild``,
            which change many users at once).
        edges: per-edge structural changes as ``(u, v, added)`` triples
            in application order — empty for ``rebuild``, whose edge
            set is replaced wholesale (views answer with ``resync()``).
        items: profile payload — the full cleaned profile for
            ``add_user``, the genuinely added item ids for
            ``add_items``, ``None`` otherwise.
        n_users: user-slot count after the mutation (views growing
            per-user state read it instead of back-referencing the
            index).
        n_items: item-universe size after the mutation.
        resplit: payload of an online re-split (``None`` otherwise):
            ``{"config", "marks", "members", "unsplittable"}`` — the
            configuration that split, the lineages newly marked split,
            the final member lists of every touched cluster (in index
            order, so a replay lists members identically; route-keyed
            caches evict by them) and the clusters frozen unsplittable.
        assign: the user's post-mutation cluster id per configuration
            for ``add_user`` / ``add_items`` (``None`` for events that
            do not re-route the user).
        new_clusters: ``(config, lineage)`` keys of the clusters this
            mutation opened, in registration order — a replay opens
            the same cluster ids by appending them in order.
    """

    seq: int
    event: str
    user: int
    edges: list = field(default_factory=list)
    items: object | None = None
    n_users: int = 0
    n_items: int = 0
    resplit: dict | None = None
    assign: list | None = None
    new_clusters: list = field(default_factory=list)


class DeltaBus:
    """Owns one index's mutation stream and its registered views.

    Args:
        source: the publishing index — anything with a monotonically
            increasing ``version`` (the bus's :attr:`seq` mirrors it,
            so cursors and lags are always in journal currency).

    Views are delivered in ``(priority, registration order)``: the
    internal reverse-adjacency view runs at priority 0 (front ends may
    read in-edge state from their hooks), ordinary consumers at the
    default 10, and trailing views at 90 so they observe every
    sibling's post-apply state.
    """

    def __init__(self, source) -> None:
        self._source = source
        self._views: list = []
        self._lock = threading.Lock()
        self.published_total = 0
        self.resyncs_total = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """The stream's high-water mark (the source index's version)."""
        return int(self._source.version)

    def register(self, view):
        """Attach ``view`` to the stream; returns the view.

        The view's cursor is initialised to the current :attr:`seq` —
        a freshly registered view is by definition caught up with the
        state it derived from (register under the same lock discipline
        you read that state under; every in-repo consumer registers
        right after deriving from the live index). Returns the view so
        ``engine._view = index.deltas.register(_CacheView(...))`` reads
        naturally.
        """
        with self._lock:
            if view in self._views:
                raise ValueError(f"view {view.name!r} is already registered")
            view._bind(self)
            self._views.append(view)
            self._views.sort(key=lambda v: v.priority)  # stable: ties keep order
        return view

    def unregister(self, view) -> None:
        """Detach ``view`` from the stream.

        Raises:
            ValueError: the view is not registered.
        """
        with self._lock:
            self._views.remove(view)
            view._bind(None)

    def views(self) -> tuple:
        """The registered views, in delivery order."""
        with self._lock:
            return tuple(self._views)

    def view(self, name: str):
        """The first registered view named ``name`` (or ``None``)."""
        for v in self.views():
            if v.name == name:
                return v
        return None

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def publish(self, delta: Delta) -> None:
        """Deliver one mutation to every view, in delivery order.

        Called by the owning index inside the mutation (under its write
        lock), so views observe a consistent post-mutation index and
        run strictly in seq order. A view exception propagates into the
        mutation — a consumer that must never break the write path
        contains its own failures and resyncs internally.
        """
        self.published_total += 1
        for view in self.views():
            view._deliver(delta)

    def resync(self, view) -> None:
        """Run ``view``'s resync recipe and fast-forward its cursor.

        The bus-level entry point counts the repair (``resyncs_total``
        here and on the view) and stamps the cursor to the current
        :attr:`seq` — after a from-scratch rebuild the view reflects
        everything published so far, by construction.
        """
        view.resync()
        view.seq = self.seq
        view.resyncs_total += 1
        self.resyncs_total += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def lags(self) -> dict:
        """Per-view lag in journal events, keyed by view name."""
        seq = self.seq
        return {v.name: max(0, seq - v.seq) for v in self.views()}

    def stats(self) -> dict:
        """Operational counters for dashboards and tests."""
        views = self.views()
        return {
            "component": "delta_bus",
            "seq": self.seq,
            "views": [v.name for v in views],
            "published_total": self.published_total,
            "resyncs_total": self.resyncs_total,
            "lag": max(
                (max(0, self.seq - v.seq) for v in views), default=0
            ),
        }
