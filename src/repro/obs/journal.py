"""JournalMetrics — a derived metrics view over the mutation journal.

The ROADMAP's declarative-pipeline item (after the krt framework in
SNIPPETS.md) frames every journal consumer as *transform + seq cursor +
resync recipe*. This module was the first consumer written explicitly
in that shape, and with ``repro.deltas`` landed it is the template: a
:class:`~repro.deltas.DerivedView` whose derived collection is not
another index but a set of metrics computed from the stream itself.

* **transform** — :meth:`JournalMetrics.apply` folds one
  :class:`~repro.deltas.Delta` into the per-op mutation counter, the
  edge added/removed counters and the re-split counters, and stamps a
  sliding window for the mutation rate. O(|edges|) per event, no index
  reads on the hot path.
* **seq cursor** — the inherited ``seq`` tracks the last journal
  version folded in (the same currency the WAL replays by), exported
  as the ``journal_seq`` gauge; :meth:`collect` turns attached
  consumer cursors (durable logs, any view's ``lag``) into
  ``journal_lag`` gauges.
* **resync recipe** — :meth:`resync` recomputes every derived gauge
  (cluster-size distribution, cluster counts) from the live index
  state, exactly what a consumer does after an unshippable event; it
  runs automatically on ``rebuild``.

Per-cluster size distributions are refreshed by :meth:`collect` (called
by dashboards right before reading), not per mutation — scanning the
member lists on every event would tax the write path for a number only
read occasionally.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

from ..deltas.view import DerivedView
from .registry import COUNT_BUCKETS, MetricsRegistry

__all__ = ["JournalMetrics"]


class JournalMetrics(DerivedView):
    """Derives operational metrics from an index's mutation journal.

    Args:
        index: the :class:`~repro.online.OnlineIndex` whose journal to
            consume (registered on the index's delta bus at
            construction; :meth:`close` detaches).
        registry: the :class:`~repro.obs.MetricsRegistry` to publish
            into (default: the process-wide registry).
        window_s: sliding-window length for ``journal_mutation_rate``.
    """

    name = "journal_metrics"

    def __init__(
        self,
        index,
        registry: MetricsRegistry | None = None,
        window_s: float = 60.0,
    ) -> None:
        """Register on ``index``'s bus and seed the derived gauges."""
        from . import metrics  # deferred: repro.obs re-exports this class

        super().__init__()
        self.index = index
        self.registry = registry if registry is not None else metrics()
        self.window_s = float(window_s)
        self._lock = threading.Lock()
        self._stamps: deque[float] = deque()
        self._counts: dict[str, int] = {}
        reg = self.registry
        self._g_seq = reg.gauge("journal_seq")
        self._g_rate = reg.gauge("journal_mutation_rate")
        self._c_added = reg.counter("journal_edges_added_total")
        self._c_removed = reg.counter("journal_edges_removed_total")
        self._c_resplits = reg.counter("journal_resplits_total")
        self._c_moved = reg.counter("journal_resplit_moved_total")
        self._g_clusters = reg.gauge("journal_clusters")
        self._g_max_cluster = reg.gauge("journal_max_cluster_size")
        self._h_cluster = reg.histogram("journal_cluster_size", bounds=COUNT_BUCKETS)
        self._lag_sources: dict[str, object] = {}
        # Index totals already folded in (attach may follow prior churn).
        self._resplits_seen = 0
        self._moved_seen = 0
        index.deltas.register(self)
        self.resync()

    # ------------------------------------------------------------------
    # Transform: one journal event -> counter increments
    # ------------------------------------------------------------------

    def apply(self, delta) -> None:
        """Fold one :class:`~repro.deltas.Delta` into the metrics."""
        event = delta.event
        added = removed = 0
        for _u, _v, was_added, *_ in delta.edges:
            if was_added:
                added += 1
            else:
                removed += 1
        with self._lock:
            self._counts[event] = self._counts.get(event, 0) + 1
            self._stamps.append(perf_counter())
        self.registry.counter("journal_mutations_total", op=event).inc()
        if added:
            self._c_added.inc(added)
        if removed:
            self._c_removed.inc(removed)
        self._g_seq.set(int(delta.seq))
        if event == "resplit":
            # One journal event may split recursively; the index's own
            # counters say how many clusters it actually opened.
            stats = self.index.stats()
            new = stats["resplits_total"] - self._resplits_seen
            moved = stats["resplit_moved"] - self._moved_seen
            self._resplits_seen = stats["resplits_total"]
            self._moved_seen = stats["resplit_moved"]
            if new > 0:
                self._c_resplits.inc(new)
            if moved > 0:
                self._c_moved.inc(moved)
        elif event == "rebuild":
            self.resync()

    # ------------------------------------------------------------------
    # Cursors and lag
    # ------------------------------------------------------------------

    def attach_lag(self, name: str, fn) -> None:
        """Register a consumer lag source for :meth:`collect`.

        ``fn`` is a zero-arg callable returning mutations shipped but
        not yet applied by that consumer (e.g.
        :meth:`repro.persist.DurableIndex.lag`), published as the
        ``journal_lag{consumer=...}`` gauge.
        """
        self._lag_sources[str(name)] = fn

    def mutation_rate(self) -> float:
        """Journal events per second over the sliding window."""
        now = perf_counter()
        with self._lock:
            while self._stamps and now - self._stamps[0] > self.window_s:
                self._stamps.popleft()
            n = len(self._stamps)
        if n == 0:
            return 0.0
        return n / self.window_s

    def counts(self) -> dict[str, int]:
        """Per-op journal event counts since attach (ground truth for tests)."""
        with self._lock:
            return dict(self._counts)

    # ------------------------------------------------------------------
    # Resync recipe + collection
    # ------------------------------------------------------------------

    def resync(self) -> None:
        """Recompute every derived gauge from the live index state.

        The consumer's answer to an unshippable event (``rebuild``
        resets cluster ids wholesale): throw the derived state away and
        rebuild it from the source of truth, exactly like the WAL
        checkpointing a fresh snapshot.
        """
        stats = self.index.stats()
        with self._lock:
            self.seq = int(self.index.version)
            self._resplits_seen = stats["resplits_total"]
            self._moved_seen = stats["resplit_moved"]
        self._g_seq.set(self.seq)
        self._refresh_clusters(stats)

    def _refresh_clusters(self, stats: dict) -> None:
        """Re-derive the cluster-size distribution gauges/histogram."""
        self._g_clusters.set(stats["clusters"])
        self._g_max_cluster.set(stats["max_cluster_size"])
        sizes = [len(m) for m in self.index._members if m]
        self._h_cluster.reset()
        for size in sizes:
            self._h_cluster.observe(size)

    def collect(self) -> None:
        """Refresh the pull-style gauges (call right before reading).

        Updates the mutation-rate gauge, the per-cluster size
        distribution and one ``journal_lag{consumer=...}`` gauge per
        attached lag source.
        """
        self._g_rate.set(self.mutation_rate())
        self._refresh_clusters(self.index.stats())
        for name, fn in self._lag_sources.items():
            self.registry.gauge("journal_lag", consumer=name).set(float(fn()))
