"""Per-shard replica indexes fed by journal-delta shipping.

Thread shards that share the primary walk **one shared graph** under a
single readers-writer lock, so every mutation stalls all of them at
once. This module replaces that with replication:

* each replica is a full :meth:`~repro.online.OnlineIndex.clone` of
  the primary — its own profiles, fingerprints, routing tables, graph
  heaps and :class:`~repro.graph.reverse.ReverseAdjacency` — so a
  walk touches **no primary state and no primary lock**;
* mutations apply **once** on the primary; the per-edge journal deltas
  (annotated into :class:`~repro.online.ReplicaDelta` for the tier's
  ``needs_scored`` view) are applied to every replica synchronously
  inside the mutation via :meth:`~repro.online.OnlineIndex.apply_delta`
  — O(|edges|) work and zero similarity evaluations, and each replica
  takes only its own write lock, so queries on other replicas never
  stall. Replicas are always exactly at the primary's version.

A ``rebuild`` (or a detected sequence gap) cannot be expressed as
deltas; the replica resyncs from a fresh snapshot and the ``resyncs``
counter records it — the mixed-workload benchmark asserts this stays
at **zero** across a 90/10 write storm.

Convergence is checked in the slot-order-independent currency that
matters for serving: per-row neighbour-id sets
(:func:`~repro.graph.heap.edge_digest`). Replica edge *ids* are always
exact; stored edge scores may lag in-place rescorings, which the
searcher never reads (candidates are scored against the query).

A replica corrupted in place (a bad snapshot, an operator poking at
its state) holds the *right version* with the *wrong edges*, which no
seq guard can see. :meth:`ReplicaSet.audit` is the anti-entropy check
for that: an explicit call (from a cron, an idle loop, a test), never
a step of the write path.
"""

from __future__ import annotations

import threading
from time import perf_counter

from .. import obs
from ..deltas.view import DerivedView
from ..graph.heap import edge_digest
from ..online.index import OnlineIndex, ReplicaDelta
from .searcher import GraphSearcher, SearchResult

__all__ = ["ReplicaSet"]


class _ShipView(DerivedView):
    """The replica tier's bus registration: forward scored deltas.

    Declares ``needs_scored`` so the index keeps annotating journal
    edges into shippable :class:`~repro.online.ReplicaDelta`\\ s; the
    tier's own transport logic (synchronous apply, contained failure →
    counted resync) stays in :class:`ReplicaSet`. The resync recipe
    re-snapshots every replica from the primary.
    """

    name = "replica_ship"
    needs_scored = True

    def __init__(self, replicas: "ReplicaSet") -> None:
        super().__init__()
        self._replicas = replicas

    def apply(self, delta) -> None:
        """Ship one scored mutation to the tier."""
        if delta.replica is not None:
            self._replicas._on_delta(delta.replica)

    def resync(self) -> None:
        """Re-snapshot every replica from the primary."""
        for i in range(self._replicas.n_replicas):
            self._replicas.resync_replica(i)


class ReplicaSet:
    """N per-shard replica indexes converging by shipped deltas.

    Args:
        index: the primary (mutations apply here, once).
        n_replicas: replica count; a sharded
            :class:`~repro.serve.QueryEngine` sends each shard's
            misses to its own replica.
        searcher: the :class:`GraphSearcher` whose configuration,
            registry and tracer every replica walks with
            (:meth:`GraphSearcher.rebind` to the replica's index);
            default parameters otherwise.
        hydrate: optional zero-arg callable returning a detached
            :class:`OnlineIndex` to bootstrap each *initial* replica
            from — e.g. :meth:`repro.persist.DurableIndex.hydrate`,
            which rebuilds one from the latest on-disk snapshot + WAL
            tail instead of pickling the live primary under its read
            lock. A hydrated replica that trails the primary catches
            up through the usual seq-guarded delta path (a genuinely
            lost gap heals as a counted resync, exactly like a clone
            raced by a mutation). Resyncs always re-clone the primary:
            they must land on its *current* version.
        registry: :class:`~repro.obs.MetricsRegistry` for the
            ship/apply latency histograms, the shipped/resync counters
            and the lag gauge (default: the process-wide registry).
    """

    def __init__(
        self,
        index: OnlineIndex,
        n_replicas: int = 2,
        *,
        searcher: GraphSearcher | None = None,
        hydrate=None,
        registry=None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.index = index
        self.n_replicas = int(n_replicas)
        self.searcher = searcher or GraphSearcher(index, registry=registry)
        self.hydrate = hydrate
        self.deltas_shipped = 0
        self.resyncs = 0
        self.audits = 0
        self.divergences = 0
        self.repairs = 0
        reg = registry if registry is not None else obs.metrics()
        self._c_shipped = reg.counter("replica_deltas_shipped_total")
        self._c_resyncs = reg.counter("replica_resyncs_total")
        self._g_lag = reg.gauge("replica_lag")
        self._h_ship = reg.histogram("replica_ship_seconds")
        self._h_apply = reg.histogram("replica_apply_seconds")
        # Per-replica serving spend, fed from the SearchResults each
        # batch returns, so the tier's aggregate similarity bill is one
        # dict away — see stats()["serving"].
        self._serving_lock = threading.Lock()
        self._served = [
            {"queries": 0, "evaluations": 0, "hops": 0}
            for _ in range(self.n_replicas)
        ]
        self._replicas: list[OnlineIndex] = []
        self._searchers: list[GraphSearcher] = []
        for _ in range(self.n_replicas):
            replica = hydrate() if hydrate is not None else index.clone()
            self._replicas.append(replica)
            self._searchers.append(self.searcher.rebind(replica))
        # Register after cloning: a mutation racing the clone is either
        # already inside the snapshot (its delta is skipped by the seq
        # guard) or arrives as the next delta in sequence. A delta lost
        # in the unregistered gap surfaces as a sequence gap and heals
        # through a counted resync.
        self._view = index.deltas.register(_ShipView(self))

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _on_delta(self, delta: ReplicaDelta) -> None:
        """Primary mutation hook: converge every replica synchronously."""
        t_ship = perf_counter()
        self.deltas_shipped += 1
        self._c_shipped.inc()
        for i in range(self.n_replicas):
            t_apply = perf_counter()
            try:
                self._replicas[i].apply_delta(delta)
                self._h_apply.observe(perf_counter() - t_apply)
            except Exception:
                # A replica that cannot replay (sequence gap, rebuild,
                # or any mid-replay failure) must never break the
                # primary's mutation — contain it by resyncing from a
                # fresh snapshot. The snapshot clone is safe here: this
                # hook runs on the mutating thread, for which the write
                # lock is read-reentrant.
                self.resync_replica(i)
        self._h_ship.observe(perf_counter() - t_ship)
        self._g_lag.set(0)  # replicas converge synchronously

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def search(self, replica: int, profile, k: int) -> SearchResult:
        """Serve one profile on replica ``replica``.

        Walks the replica's own graph on the calling thread and charges
        the walk to the replica's serving counters.
        """
        result = self._searchers[replica].top_k(profile, k=k)
        with self._serving_lock:
            counters = self._served[replica]
            counters["queries"] += 1
            counters["evaluations"] += result.evaluations
            counters["hops"] += result.hops
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def replica(self, i: int) -> OnlineIndex:
        """Replica ``i`` (tests compare it to the primary)."""
        return self._replicas[i]

    def _primary_state(self) -> tuple[int, int]:
        with self.index.lock.read():
            return self.index.version, edge_digest(self.index.graph.heaps)

    def converged(self) -> bool:
        """Whether every replica's edge sets match the primary's, now.

        Digests are slot-order independent.
        """
        want = self._primary_state()
        return all(got == want for got in self.replica_states())

    def replica_states(self) -> list[tuple[int, int]]:
        """``(version, edge digest)`` per replica — the audit currency.

        Each replica is read under its own lock; :meth:`audit` compares
        these pairs against the primary oracle.
        """
        out = []
        for replica in self._replicas:
            with replica.lock.read():
                out.append((replica.version, edge_digest(replica.graph.heaps)))
        return out

    def resync_replica(self, i: int) -> None:
        """Replace replica ``i`` with a fresh clone of the primary.

        The contained-failure path a sequence gap or ``rebuild`` takes,
        and the repair :meth:`audit` makes. Counted in
        ``resyncs_total``.
        """
        self.resyncs += 1
        self._c_resyncs.inc()
        replica = self.index.clone()
        self._replicas[i] = replica
        self._searchers[i] = self.searcher.rebind(replica)

    def audit(self) -> int:
        """Anti-entropy: resync every replica that silently diverged.

        A replica reporting the primary's version with a different
        edge digest holds the same journal prefix with different
        edges, which incremental shipping can never repair: it is
        resynced and counted. A replica at another version is merely
        lagging and is left to the transport. Returns how many
        replicas were repaired.
        """
        want = self._primary_state()
        self.audits += 1
        repaired = 0
        for i, got in enumerate(self.replica_states()):
            if got[0] == want[0] and got[1] != want[1]:
                self.divergences += 1
                self.resync_replica(i)
                self.repairs += 1
                repaired += 1
        return repaired

    def lag(self) -> int:
        """Mutations shipped but not yet applied, worst replica."""
        return max(self.per_replica_lag(), default=0)

    def per_replica_lag(self) -> list[int]:
        """Version distance to the primary, one entry per replica.

        Normally 0 — replicas converge inside the mutation.
        """
        if not self._replicas:  # closed set: nothing left to lag
            return [0] * self.n_replicas
        return [self.index.version - r.version for r in self._replicas]

    def stats(self) -> dict:
        """Operational counters for dashboards, benchmarks and tests.

        ``"serving"`` aggregates what the tier *spent answering
        queries* — per-replica and total similarity evaluations, walk
        hops and query counts, accumulated from every batch's
        :class:`SearchResult`\\ s — so the replicated read path reports
        one dashboard number in the same counted-similarity currency
        as builds and updates (the ROADMAP follow-up: replica walks
        charge their clone's engine, not the primary's). Each
        per-replica entry also carries its own ``lag``. Keys follow
        the shared vocabulary (``docs/observability.md``); the legacy
        spellings were dropped after their one-release grace window.
        """
        lags = self.per_replica_lag()
        with self._serving_lock:
            per_replica = [
                dict(counters, lag=lags[i])
                for i, counters in enumerate(self._served)
            ]
        return {
            "component": "replica_set",
            "n_replicas": self.n_replicas,
            "deltas_shipped_total": self.deltas_shipped,
            "resyncs_total": self.resyncs,
            "audits_total": self.audits,
            "divergences_total": self.divergences,
            "repairs_total": self.repairs,
            "lag": max(lags, default=0),
            "version": self.index.version,
            "serving": {
                "queries": sum(c["queries"] for c in per_replica),
                "evaluations": sum(c["evaluations"] for c in per_replica),
                "hops": sum(c["hops"] for c in per_replica),
                "per_replica": per_replica,
            },
        }

    def close(self) -> None:
        """Detach from the primary and release replica resources."""
        self._view.close()
        self._replicas = []
        self._searchers = []
