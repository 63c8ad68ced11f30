"""OnlineIndex — incremental maintenance of a C² KNN graph.

A production KNN service cannot re-run the batch pipeline every time a
user rates an item or signs up. This module keeps a built
Cluster-and-Conquer graph fresh under a stream of profile updates:

* ``add_items(user, items)`` — OR the new items into the user's
  fingerprint (the GoldFinger representation is naturally updatable),
  re-route the user through the recorded FastRandomHash clustering,
  and re-score only her candidate edges;
* ``add_user(profile)`` — grow every layer by one slot and route the
  newcomer into the ``t`` clusters where her neighbours live;
* ``remove_user(user)`` — tombstone the profile and detach the node,
  at zero similarity cost.

Clusters swollen past ``split_threshold`` by churn are **re-split
online** (``auto_resplit``, on by default): the mutation that pushed a
cluster over the threshold re-partitions it with the same ``H\\eta``
re-hash the batch splitter uses, registers the children under their
lineage keys, and publishes the membership changes as a ``resplit``
event through the standard journal — so ReverseAdjacency, caches
and the WAL all stay consistent, and quality survives
sustained churn without ever paying a full :meth:`OnlineIndex.rebuild`.
A re-split moves no graph edges and costs **zero similarity
evaluations** (hashing only); its bookkeeping lands in ``n_resplits`` /
``resplit_moved``.

Per update, similarities are computed once against a candidate set
(current cluster members across the ``t`` configurations, previous
neighbours, and holders of reverse edges) with a single counted
``one_to_many`` call — O(dirty · k̃) evaluations versus the full
rebuild's O(n · k̃), where k̃ is the typical cluster size. Both edge
directions are patched from the same scores, the merge step's
"never recompute a similarity" discipline.

Clusters drift as users churn; :meth:`OnlineIndex.rebuild` re-runs the
batch pipeline in place (same engine, same counters) when quality or
balance matters more than latency.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from .. import obs
from .._sync import RWLock
from ..core.cluster_and_conquer import cluster_and_conquer
from ..core.config import C2Params
from ..core.fastrandomhash import UNDEFINED
from ..data.dataset import canonical_profile
from ..deltas.bus import Delta, DeltaBus
from ..deltas.view import DerivedView
from ..graph.heap import EMPTY
from ..graph.knn_graph import group_by_value
from ..graph.reverse import ReverseAdjacency
from ..result import BuildResult
from ..similarity.engine import SimilarityEngine, make_engine
from .dataset import MutableDataset
from .router import ClusterRouter

__all__ = ["OnlineIndex", "ReplayGapError"]


class ReplayGapError(RuntimeError):
    """The delta stream cannot be replayed onto this index.

    Raised by :meth:`OnlineIndex.apply_delta` on a sequence gap (a
    mutation is missing), on a ``rebuild`` record (which replaces the
    edge set wholesale, so no per-edge replay can express it) and on a
    signup that lands on a different user id than it did live. The
    replay must restart from a newer snapshot; on recovery, the log is
    unusable past that point.
    """


class _ReverseView(DerivedView):
    """Internal view maintaining the index's own :class:`ReverseAdjacency`.

    Registered on every index's bus at priority 0 so the in-edge sets
    are patched before any other view runs — front ends may read
    ``index.reverse_index()`` from their own ``apply`` hooks and must
    observe post-mutation state. While the reverse index has not been
    built (it is lazy) the view no-ops; after a ``rebuild`` discards it
    (:meth:`OnlineIndex._install` resets ``_reverse``) the next
    :meth:`OnlineIndex.reverse_index` call rebuilds from fresh edges.
    """

    name = "reverse_adjacency"
    priority = 0

    def __init__(self, index: "OnlineIndex") -> None:
        super().__init__()
        self._index = index

    def apply(self, delta: Delta) -> None:
        """Patch the in-edge sets from the journal (no-op while unbuilt).

        Batched: the journal's per-``(u, v)`` history collapses to its
        final flag, so delta replay and WAL recovery pay one set
        edit per distinct edge (``ReverseAdjacency.apply_batch``).
        """
        rev = self._index._reverse
        if rev is None:
            return
        rev.grow(delta.n_users)
        rev.apply_batch(delta.edges)

    def resync(self) -> None:
        """Rebuild the in-edge sets from the live heap table."""
        self._index._reverse = ReverseAdjacency.from_heaps(
            self._index.graph.heaps
        )


class OnlineIndex:
    """An incrementally maintainable Cluster-and-Conquer KNN graph.

    Args:
        engine: similarity engine over a :class:`MutableDataset` (the
            mutable store is what makes in-place updates possible).
        params: C² parameters; must use the ``"frh"`` hash family
            (MinHash permutations cannot extend to new items).
        build: a :class:`BuildResult` from
            ``cluster_and_conquer(engine, params, keep_clustering=True)``
            to adopt; built fresh when omitted. The graph is taken over
            and mutated in place.
        auto_resplit: re-split clusters online as soon as a mutation
            pushes them past ``params.split_threshold`` (default).
            ``False`` restores the pre-resplit behaviour — clusters
            swell until :meth:`rebuild` — which the scenario benchmark
            uses as its drift baseline.
        update_cap: bound on the per-configuration cluster candidate
            pool one mutation is scored against (``None`` = unbounded,
            the historical behaviour). A production write path cannot
            afford O(cluster size) similarity evaluations per mutation
            once clusters swell, so the serving benchmarks cap it;
            oversized pools are subsampled deterministically (evenly
            spaced members, mirroring :meth:`seed_candidates`).
            Previous neighbours and reverse-edge holders always stay
            in the pool, the cap only bounds the cluster sweep. With
            ``auto_resplit`` keeping clusters at or under the split
            threshold, a cap ≥ the threshold never truncates anything
            — which is exactly the re-split quality story: bounded
            write cost *without* sampling away the homogeneous
            candidates a newcomer's edges are built from.
    """

    def __init__(
        self,
        engine: SimilarityEngine,
        params: C2Params | None = None,
        build: BuildResult | None = None,
        auto_resplit: bool = True,
        update_cap: int | None = None,
    ) -> None:
        params = params or C2Params()
        if params.hash_family != "frh":
            raise ValueError("OnlineIndex requires hash_family='frh'")
        if not isinstance(engine.dataset, MutableDataset):
            raise TypeError(
                "engine must be built over a MutableDataset "
                "(use OnlineIndex.build(...) or MutableDataset.from_dataset)"
            )
        self.engine = engine
        self.params = params
        self._data: MutableDataset = engine.dataset
        if build is None or "clustering" not in build.extra:
            build = cluster_and_conquer(engine, params, keep_clustering=True)
        self.build_result = build
        self.auto_resplit = bool(auto_resplit)
        self.update_cap = None if update_cap is None else int(update_cap)
        self.n_updates = 0
        self.update_comparisons = 0
        self.refill_comparisons = 0
        self.n_resplits = 0
        self.resplit_moved = 0
        self.n_rebuilds = 0
        self.version = 0
        self.lock = RWLock()  # mutations write, serving walks read
        # The delta pipeline: one Delta published per mutation, every
        # consumer (reverse adjacency, caches, WAL, metrics)
        # a registered DerivedView.
        self.deltas = DeltaBus(self)
        self.deltas.register(_ReverseView(self))
        self._bind_metrics()
        self._refiller = None  # lazily-built GraphSearcher (serve subsystem)
        self._reverse: ReverseAdjacency | None = None  # lazy, then maintained
        self._reverse_build_lock = threading.Lock()
        self._install(build)

    @classmethod
    def build(
        cls,
        dataset,
        params: C2Params | None = None,
        backend: str = "goldfinger",
        n_bits: int = 1024,
        seed: int = 7,
        auto_resplit: bool = True,
        update_cap: int | None = None,
    ) -> "OnlineIndex":
        """Build an index from a dataset (frozen datasets are thawed)."""
        if not isinstance(dataset, MutableDataset):
            dataset = MutableDataset.from_dataset(dataset)
        engine = make_engine(dataset, backend=backend, n_bits=n_bits, seed=seed)
        return cls(
            engine, params=params, auto_resplit=auto_resplit,
            update_cap=update_cap,
        )

    # ------------------------------------------------------------------
    # State derived from a batch build
    # ------------------------------------------------------------------

    def _install(self, build: BuildResult) -> None:
        clustering = build.extra["clustering"]
        self.graph = build.graph
        self.n_configs = clustering.n_configs
        self._router = ClusterRouter(build.extra["hashes"], clustering.split_paths)
        self._degraded: set[int] = set()
        self._members: list[list[int]] = []
        self._cluster_key: list[tuple[int, tuple]] = []
        self._assign: list[list[int]] = [
            [-1] * self.n_configs for _ in range(self._data.n_users)
        ]
        # Residual clusters from the batch split must never be re-split
        # online with the same eta (a no-op by construction) — the same
        # rule freezes online residuals, see _resplit.
        self._unsplittable: set[int] = set()
        for cluster in clustering.clusters:
            cid = len(self._members)
            members = [int(u) for u in cluster.users if self._data.is_active(int(u))]
            self._members.append(members)
            self._cluster_key.append((cluster.config, cluster.lineage))
            self._router.register(cluster.config, cluster.lineage, cid)
            if not cluster.splittable:
                self._unsplittable.add(cid)
            for u in members:
                self._assign[u][cluster.config] = cid
        # Tombstoned users must not resurface through a batch rebuild
        # (empty profiles cluster together on the UNDEFINED hash).
        # One vectorized sweep detaches all of them at once.
        inactive = np.flatnonzero(~self._data.active_mask())
        if inactive.size:
            heaps = self.graph.heaps
            heaps.ids[inactive] = EMPTY
            heaps.scores[inactive] = -np.inf
            stale = np.isin(heaps.ids, inactive)
            heaps.ids[stale] = EMPTY
            heaps.scores[stale] = -np.inf
        # From here every structural edge change is journaled so the
        # reverse-adjacency index (and any subscriber) can be patched
        # per edge instead of rebuilt per mutation. A (re)build replaces
        # the heap table wholesale, so any maintained reverse state is
        # discarded and lazily rebuilt from the fresh edges.
        self.graph.heaps.attach_journal()
        self._reverse = None
        # Cluster-registration watermark for delta export: clusters
        # appended past this index since the last notify are exported
        # with the delta so a replay opens the same clusters in lockstep.
        self._n_notified_clusters = len(self._cluster_key)

    # ------------------------------------------------------------------
    # Pickling (persisted snapshots)
    # ------------------------------------------------------------------

    def _bind_metrics(self, registry=None) -> None:
        """Cache the per-op mutation latency histogram handles.

        Bound at construction and re-bound (to the process-wide
        registry) on unpickle — recovered indexes then record their
        ``apply_delta`` latencies into the registry of whatever process
        they serve in.
        """
        reg = registry if registry is not None else obs.metrics()
        self._mut_hist = {
            op: reg.histogram("index_mutation_seconds", op=op)
            for op in (
                "add_user", "add_items", "remove_user",
                "refill", "rebuild", "apply_delta",
            )
        }

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Registered views are bound to front-end objects of the live
        # process, the refiller holds a back-reference, locks and
        # metric handles (they hold locks too) are not picklable; a
        # snapshot starts detached with a fresh bus. The ``_reverse``
        # array state itself IS pickled — only its maintaining view is
        # recreated on load.
        state["deltas"] = None
        state["_refiller"] = None
        state["lock"] = None
        state["_reverse_build_lock"] = None
        state["_mut_hist"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = RWLock()
        self._reverse_build_lock = threading.Lock()
        self.deltas = DeltaBus(self)
        self.deltas.register(_ReverseView(self))
        self._bind_metrics()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Neighbourhood size of the maintained graph."""
        return self.graph.k

    @property
    def n_users(self) -> int:
        """User slots in the index (tombstones included)."""
        return self._data.n_users

    @property
    def dataset(self) -> MutableDataset:
        """The mutable profile store behind the index."""
        return self._data

    @property
    def comparisons(self) -> int:
        """Total similarity evaluations charged to the engine."""
        return self.engine.comparisons

    def neighborhood(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of ``user``'s current neighbours, best first.

        Reading a row that lost edges to :meth:`remove_user` triggers
        a lazy refill first (see :meth:`refill`), so callers always
        observe a repaired neighbourhood without removals paying an
        eager all-rows repair cost.
        """
        if user in self._degraded:
            self.refill(user)
        return self.graph.neighborhood(user)

    @property
    def degraded(self) -> frozenset:
        """Rows currently one-or-more edges short after removals."""
        return frozenset(self._degraded)

    # ------------------------------------------------------------------
    # The delta pipeline (consumers register DerivedViews on the bus)
    # ------------------------------------------------------------------

    def _notify(self, event: str, user: int, items=None, resplit=None) -> None:
        edges = self.graph.heaps.drain_journal()
        self.version += 1
        new_clusters = self._cluster_key[self._n_notified_clusters :]
        self._n_notified_clusters = len(self._cluster_key)
        assign = None
        if event in ("add_user", "add_items"):
            assign = list(self._assign[user])
        self.deltas.publish(
            Delta(
                seq=self.version,
                event=event,
                user=int(user),
                edges=edges,
                items=items,
                n_users=self._data.n_users,
                n_items=self._data.n_items,
                resplit=resplit,
                assign=assign,
                new_clusters=new_clusters,
            )
        )

    # ------------------------------------------------------------------
    # Delta replay (WAL recovery)
    # ------------------------------------------------------------------

    def apply_delta(self, delta: Delta, scores) -> bool:
        """Replay one logged mutation on this index.

        ``scores`` holds the post-mutation score of each of
        ``delta.edges`` (:meth:`~repro.graph.NeighborHeaps.edge_scores`,
        which the WAL stores beside the delta). Brings a snapshot of
        the index to its next serving state — profiles, fingerprints,
        routing tables, cluster membership, graph edges and (if built)
        reverse adjacency — in O(|edges|) work and zero similarity
        evaluations. Scores are exact for every edge structurally
        changed since the snapshot; scores of untouched edges may lag
        in-place rescorings, which serving never reads (walks score
        candidates against the query).

        Returns ``False`` when the delta is already reflected
        (``seq <= version`` — it raced the snapshot), ``True`` after a
        successful replay. Raises :class:`ReplayGapError` on a
        sequence gap, a ``rebuild`` event or a signup id mismatch.
        """
        t0 = perf_counter()
        try:
            return self._apply_delta(delta, scores)
        finally:
            self._mut_hist["apply_delta"].observe(perf_counter() - t0)

    def _apply_delta(self, delta: Delta, scores) -> bool:
        with self.lock.write():
            if delta.seq <= self.version:
                return False
            if delta.seq != self.version + 1:
                raise ReplayGapError(
                    f"delta seq {delta.seq} does not follow index "
                    f"version {self.version}"
                )
            if delta.event == "rebuild":
                raise ReplayGapError(
                    "rebuild replaces the edge set wholesale; resync"
                )
            event, user = delta.event, delta.user
            if event == "add_user":
                uid = self._data.add_user(delta.items)
                if uid != user:
                    raise ReplayGapError(
                        f"logged signup became user {uid}, expected {user}"
                    )
                self.engine.update_profile(uid, None)
                self._assign.append([-1] * self.n_configs)
            elif event == "add_items":
                added = self._data.add_items(user, delta.items)
                self.engine.update_profile(user, added)
            elif event == "remove_user":
                self._data.remove_user(user)
                self.engine.update_profile(user, None)
                for config, cid in enumerate(self._assign[user]):
                    if cid >= 0:
                        self._members[cid].remove(user)
                    self._assign[user][config] = -1
            self.graph.grow(self._data.n_users)
            for config, lineage in delta.new_clusters:
                cid = len(self._members)
                self._members.append([])
                self._cluster_key.append((config, lineage))
                self._router.register(config, lineage, cid)
            self._n_notified_clusters = len(self._cluster_key)
            if delta.resplit is not None:
                # Replay an online re-split: mark the lineages split so
                # routing descends identically, then adopt the logged
                # final member lists wholesale (live order — the
                # deterministic seed subsample reads positions).
                rs = delta.resplit
                config = int(rs["config"])
                for lineage in rs["marks"]:
                    self._router.mark_split(config, tuple(lineage))
                for cid, users in rs["members"]:
                    members = [int(u) for u in users]
                    for u in members:
                        self._assign[u][config] = int(cid)
                    self._members[int(cid)] = members
                self._unsplittable.update(int(c) for c in rs["unsplittable"])
            if delta.assign is not None:
                for config, cid in enumerate(delta.assign):
                    old = self._assign[user][config]
                    if old != cid:
                        if old >= 0:
                            self._members[old].remove(user)
                        if cid >= 0:
                            self._members[cid].append(user)
                        self._assign[user][config] = cid
            self.graph.heaps.apply_edge_deltas(
                (u, v, added, score)
                for (u, v, added), score in zip(delta.edges, scores.tolist())
            )
            # The replay's own journal carries the same per-(u, v)
            # order as delta.edges, which views are given instead.
            self.graph.heaps.drain_journal()
            if event == "remove_user":
                active = self._data.active_mask()
                self._degraded.update(
                    int(u)
                    for u, v, added in delta.edges
                    if not added and v == user and u != user and active[u]
                )
            self._degraded.discard(user)
            self.version = delta.seq
            # This index's own views (its reverse adjacency, a cache,
            # a WAL) observe the replayed mutation through its own bus.
            self.deltas.publish(delta)
            return True

    def attach_persistence(self, path, **kwargs):
        """Persist this index into ``path``; returns the attached wrapper.

        Convenience for :class:`repro.persist.DurableIndex`: a baseline
        snapshot is written (when the directory is fresh) and every
        subsequent mutation's :class:`~repro.deltas.Delta` is appended to
        the write-ahead log through a registered WAL view, so a
        restart recovers the exact serving state with
        ``DurableIndex.recover(path)`` instead of paying a rebuild.
        Keyword arguments are forwarded (``checkpoint_bytes``,
        ``fsync``, …).
        """
        from ..persist.durable import DurableIndex  # deferred: persist imports online

        return DurableIndex(self, path, **kwargs)

    # ------------------------------------------------------------------
    # Read-side support (query-serving subsystem)
    # ------------------------------------------------------------------

    def reverse_index(self) -> ReverseAdjacency:
        """The maintained in-edge index ``holders(v) = {u : v ∈ edges(u)}``.

        Built lazily — one O(n·k) group-by on first use — and patched
        per edge from every subsequent mutation's journal, so between
        mutations it is always exactly the reverse of the current edge
        set (the property suite compares it against a from-scratch
        rebuild). Once built it also takes over the write path: the
        O(n·k) purge scans in :meth:`remove_user` and the update
        re-score become O(holders·k) row edits.
        """
        if self._reverse is None:
            # Double-checked: N concurrent walks hitting a cold index must
            # pay the O(n·k) group-by once, not once each. Safe under
            # the read lock — builders see the same frozen edge set.
            with self._reverse_build_lock:
                if self._reverse is None:
                    self._reverse = ReverseAdjacency.from_heaps(self.graph.heaps)
        return self._reverse

    def seed_candidates(self, profile, per_config: int = 16, with_route: bool = False):
        """Entry points for a graph search on an arbitrary profile.

        Routes the profile through the recorded FastRandomHash
        clustering (one :class:`ClusterRouter` descent per
        configuration) and returns up to ``per_config`` members of each
        destination cluster — the users a batch run would have compared
        the profile against. Oversized clusters are subsampled
        deterministically (evenly spaced members) so repeated searches
        are reproducible. Routing is read-only: unknown lineages are
        reported as misses, never opened, and items outside the
        dataset's universe are ignored — they carry no routing signal,
        and extending the hash tables to an arbitrary query id would
        permanently allocate O(max item id) memory on a read.

        ``with_route=True`` returns ``(seeds, routed)`` where
        ``routed`` is the tuple of destination cluster ids (one per
        configuration that matched) — the provenance the result cache
        needs for re-split-aware eviction: a re-split changes only
        routing, so the cached answers it can invalidate are exactly
        those whose query routed into a touched cluster.
        """
        profile = canonical_profile(profile)
        profile = profile[profile < self._data.n_items]
        self._router.ensure_items(self._data.n_items)
        pools: list[np.ndarray] = []
        routed: list[int] = []
        paths = self._router.hash_paths(profile)
        for config in range(self.n_configs):
            _, cid = self._router.route(config, profile, path=paths[config])
            if cid < 0:
                continue
            routed.append(int(cid))
            members = self._members[cid]
            if len(members) > per_config:
                step = len(members) // per_config
                members = members[:: max(1, step)][:per_config]
            pools.append(np.asarray(members, dtype=np.int64))
        if not pools:
            seeds = np.empty(0, dtype=np.int64)
        else:
            seeds = np.unique(np.concatenate(pools))
            seeds = seeds[self._data.active_mask()[seeds]]
        if with_route:
            return seeds, tuple(routed)
        return seeds

    def refill(self, user: int) -> None:
        """Repair a neighbour list degraded by :meth:`remove_user`.

        Runs a :class:`~repro.serve.GraphSearcher` self-query seeded
        from the row's surviving edges and merges the results back in
        — the counted cost lands in ``refill_comparisons``. No-op for
        rows that are not flagged degraded.
        """
        t0 = perf_counter()
        try:
            self._refill(user)
        finally:
            self._mut_hist["refill"].observe(perf_counter() - t0)

    def _refill(self, user: int) -> None:
        with self.lock.write():
            self._degraded.discard(user)
            if not self._data.is_active(user):
                return
            from ..serve.searcher import GraphSearcher  # deferred: serve imports online

            if self._refiller is None:
                self._refiller = GraphSearcher(self)
            before = self.engine.comparisons
            result = self._refiller.top_k(
                self._data.profile(user),
                k=self.k,
                exclude=(user,),
                extra_seeds=self.graph.neighbors(user),
            )
            self.graph.add_batch(user, result.ids, result.scores)
            self.refill_comparisons += self.engine.comparisons - before
            self._notify("refill", user)

    def stats(self) -> dict:
        """Operational counters for dashboards and tests.

        Keys follow the canonical cross-component vocabulary of
        ``docs/observability.md`` (``mutations_total``, ``clusters``,
        ``version``, …). The pre-unification spellings (``n_updates``,
        ``n_clusters``, …) were dropped after their one-release grace
        window.
        """
        sizes = np.array([len(m) for m in self._members], dtype=np.int64)
        return {
            "component": "online_index",
            "n_users": self.n_users,
            "n_active": int(self._data.active_users().size),
            "mutations_total": self.n_updates,
            "update_comparisons": self.update_comparisons,
            "refill_comparisons": self.refill_comparisons,
            "build_comparisons": self.build_result.comparisons,
            "clusters": int((sizes > 0).sum()),
            "max_cluster_size": int(sizes.max()) if sizes.size else 0,
            "oversized": (
                0
                if self.params.split_threshold is None
                else int((sizes > self.params.split_threshold).sum())
            ),
            "resplits_total": self.n_resplits,
            "resplit_moved": self.resplit_moved,
            "rebuilds_total": self.n_rebuilds,
            "degraded": len(self._degraded),
            "reverse_built": self._reverse is not None,
            "version": self.version,
        }

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_user(self, items) -> int:
        """Insert a new user with the given profile; returns her id."""
        t0 = perf_counter()
        try:
            return self._add_user(items)
        finally:
            self._mut_hist["add_user"].observe(perf_counter() - t0)

    def _add_user(self, items) -> int:
        with self.lock.write():
            uid = self._data.add_user(items)
            self.engine.update_profile(uid, None)
            self.graph.grow(self._data.n_users)
            if self._reverse is not None:
                self._reverse.grow(self._data.n_users)
            self._assign.append([-1] * self.n_configs)
            self._update(uid)
            self._notify("add_user", uid, items=self._data.profile(uid).copy())
            self._maybe_resplit(uid)
            return uid

    def add_items(self, user: int, items) -> np.ndarray:
        """Add items to ``user``'s profile and refresh her edges.

        Returns the genuinely new item ids; a no-op update (all items
        already present) costs nothing.
        """
        t0 = perf_counter()
        try:
            return self._add_items(user, items)
        finally:
            self._mut_hist["add_items"].observe(perf_counter() - t0)

    def _add_items(self, user: int, items) -> np.ndarray:
        with self.lock.write():
            added = self._data.add_items(user, items)
            if added.size:
                self.engine.update_profile(user, added)
                self._update(user)
                self._notify("add_items", user, items=added)
                self._maybe_resplit(user)
            return added

    def remove_user(self, user: int) -> None:
        """Tombstone ``user`` and detach her node (zero comparisons).

        With the reverse index built, the detach purges only the rows
        actually holding ``user`` (read off the in-edge set) instead of
        column-scanning all n rows.
        """
        t0 = perf_counter()
        try:
            self._remove_user(user)
        finally:
            self._mut_hist["remove_user"].observe(perf_counter() - t0)

    def _remove_user(self, user: int) -> None:
        with self.lock.write():
            if not self._data.is_active(user):
                return
            self._data.remove_user(user)
            self.engine.update_profile(user, None)
            for config, cid in enumerate(self._assign[user]):
                if cid >= 0:
                    self._members[cid].remove(user)
                self._assign[user][config] = -1
            holders = None
            if self._reverse is not None:
                holders = self._reverse.holders(user)
            losers = self.graph.remove_user(user, holders=holders)
            # Rows that lost an edge stay one short until someone reads
            # them — the lazy-refill contract (see neighborhood/refill).
            active = self._data.active_mask()
            self._degraded.update(int(v) for v in losers if active[v])
            self._degraded.discard(user)
            self._notify("remove_user", user)

    def rebuild(self) -> BuildResult:
        """Re-run the batch pipeline on the current profiles.

        Replaces the graph and the cluster state in place (clusters
        swollen by churn are re-balanced); the engine and its counters
        carry over, so the rebuild's cost lands in ``comparisons``.
        With :meth:`_resplit` handling swollen clusters online this is
        an off-peak tool, not a churn tax — the scenario benchmark's
        acceptance counts ``n_rebuilds`` to prove the tape needed none.
        """
        t0 = perf_counter()
        try:
            return self._rebuild()
        finally:
            self._mut_hist["rebuild"].observe(perf_counter() - t0)

    def _rebuild(self) -> BuildResult:
        with self.lock.write():
            build = cluster_and_conquer(self.engine, self.params, keep_clustering=True)
            self.build_result = build
            self.n_rebuilds += 1
            self._install(build)
            self._notify("rebuild", -1)
            return build

    # ------------------------------------------------------------------
    # Online cluster re-split
    # ------------------------------------------------------------------

    def _maybe_resplit(self, user: int) -> None:
        """Re-split any cluster this mutation pushed past the threshold.

        Called under the write lock after the mutation's own notify, so
        a re-split is journaled as its own ``resplit`` event (own
        version, own :class:`~repro.deltas.Delta`) and a replay applies
        the two in the exact live order.
        """
        threshold = self.params.split_threshold
        if not self.auto_resplit or threshold is None or user < 0:
            return
        for config in range(self.n_configs):
            cid = self._assign[user][config]
            if (
                cid >= 0
                and cid not in self._unsplittable
                and len(self._members[cid]) > threshold
            ):
                self._resplit(cid)

    def _resplit(self, cid: int) -> None:
        """Re-partition one oversized cluster by the batch split rule.

        The members are re-hashed with ``H\\eta`` (``eta`` = the
        cluster's last lineage value); users with an undefined hash or
        alone in their new value stay in the residual (which keeps
        ``cid`` and is frozen unsplittable, exactly like the batch
        splitter's residuals), every larger group becomes a child
        cluster registered under ``lineage + (value,)``. Oversized
        children are split recursively within the same event. Costs
        **zero similarity evaluations** — hashing and list surgery
        only — and moves no graph edges; what it changes is routing:
        seeds and update candidate pools come from tight, homogeneous
        clusters again, which is what holds recall under churn.

        Publishes one ``resplit`` event whose payload carries the new
        split marks and the final member lists of every touched
        cluster, so caches and the WAL replay the exact routing state.
        """
        threshold = self.params.split_threshold
        config, _ = self._cluster_key[cid]
        marks: list[tuple] = []
        frozen: list[int] = []
        touched: set[int] = set()
        stack = [cid]
        while stack:
            c = stack.pop()
            members = self._members[c]
            if c in self._unsplittable or len(members) <= threshold:
                continue
            _, lineage = self._cluster_key[c]
            values = self._router.split_hashes(
                config, self._data, members, int(lineage[-1])
            )
            moved: set[int] = set()
            for value, group in group_by_value(
                np.asarray(members, dtype=np.int64), values
            ):
                if value == UNDEFINED or group.size <= 1:
                    continue  # undefined hashes and singletons stay put
                child_lineage = lineage + (int(value),)
                child = len(self._members)
                child_members = [int(u) for u in group]
                self._members.append(child_members)
                self._cluster_key.append((config, child_lineage))
                self._router.register(config, child_lineage, child)
                for u in child_members:
                    self._assign[u][config] = child
                moved.update(child_members)
                touched.add(child)
                if len(child_members) > threshold:
                    stack.append(child)
            self._router.mark_split(config, lineage)
            marks.append(tuple(lineage))
            self._members[c] = [u for u in members if u not in moved]
            self._unsplittable.add(c)
            frozen.append(c)
            touched.add(c)
            self.n_resplits += 1
            self.resplit_moved += len(moved)
        payload = {
            "config": int(config),
            "marks": marks,
            "members": [(int(c), list(self._members[c])) for c in sorted(touched)],
            "unsplittable": [int(c) for c in frozen],
        }
        # Views read the payload off ``delta.resplit`` — the result
        # caches evict the touched-cluster lineages selectively from it.
        self._notify("resplit", -1, resplit=payload)

    # ------------------------------------------------------------------

    def _update(self, user: int) -> None:
        """Re-route ``user`` and re-score her candidate edges."""
        self._degraded.discard(user)  # the full rescore below repairs the row
        before = self.engine.comparisons
        profile = self._data.profile(user)
        self._router.ensure_items(self._data.n_items)

        candidate_pools: list[np.ndarray] = []
        paths = self._router.hash_paths(profile)
        for config in range(self.n_configs):
            lineage, cid = self._router.route(config, profile, path=paths[config])
            if cid < 0:
                cid = len(self._members)
                self._members.append([])
                self._cluster_key.append((config, lineage))
                self._router.register(config, lineage, cid)
            old = self._assign[user][config]
            if old != cid:
                if old >= 0:
                    self._members[old].remove(user)
                self._members[cid].append(user)
                self._assign[user][config] = cid
            members = self._members[cid]
            if self.update_cap is not None and len(members) > self.update_cap:
                # Swollen cluster: bound the sweep with the same
                # deterministic evenly-spaced subsample the read path
                # uses. This is where a no-resplit index pays in edge
                # quality — a newcomer's candidates are a thin sample
                # of a heterogeneous blob instead of a tight cluster.
                step = max(1, len(members) // self.update_cap)
                members = members[::step][: self.update_cap]
            candidate_pools.append(np.array(members, dtype=np.int64))

        # Candidate edges: cluster peers across all t configurations,
        # plus every existing edge touching the user in either
        # direction (their scores are stale now). Purging the reverse
        # edges up front doubles as the holder scan — every ex-holder
        # joins the candidate set and gets a fresh offer below. With
        # the reverse index built the holders are already known, so the
        # purge touches O(holders) rows instead of scanning all n.
        candidate_pools.append(self.graph.neighbors(user).astype(np.int64))
        if self._reverse is not None:
            ex_holders = self.graph.heaps.purge_id_rows(
                user, self._reverse.holders(user)
            )
        else:
            ex_holders = self.graph.heaps.purge_id(user)
        candidate_pools.append(ex_holders.astype(np.int64))
        cands = np.unique(np.concatenate(candidate_pools))
        cands = cands[cands != user]

        if cands.size < self.k:
            # Cold start: a sparse profile can miss every registered
            # lineage (all t clusters fresh singletons). Top the pool
            # up with a bounded random sample so every user leaves an
            # update with a full neighbourhood to iterate from —
            # deterministic given the seed and the update sequence.
            active = self._data.active_users()
            pool = active[(active != user) & ~np.isin(active, cands)]
            want = min(2 * self.k - cands.size, pool.size)
            if want > 0:
                rng = np.random.default_rng(
                    (self.params.seed, user, self.n_updates)
                )
                extra = rng.choice(pool, size=want, replace=False)
                cands = np.unique(np.concatenate([cands, extra]))

        if cands.size:
            sims = self.engine.one_to_many(user, cands)  # the counted cost
            self.graph.rescore_user(user, cands, sims)
            # Reverse-edge repair: every ex-holder is in cands, so
            # re-offering the fresh scores leaves no edge unaccounted
            # for — and costs no extra similarity evaluations (Jaccard
            # is symmetric).
            self.graph.offer_reverse(user, cands, sims)
        else:
            self.graph.clear_user(user)

        self.update_comparisons += self.engine.comparisons - before
        self.n_updates += 1
