"""Batched query serving: dedup, result caching, sync + async APIs.

:class:`GraphSearcher` answers one query; :class:`QueryEngine` turns it
into the one service front end:

* **batching** — ``search_many`` serves a list of concurrent queries
  and the :meth:`QueryEngine.search_async` entry point coalesces
  concurrent ``await``-ers into one batch per event-loop tick;
* **deduplication** — identical profiles inside a batch are searched
  once, so a thundering herd of the same query charges the engine a
  single time. Every deduped miss is walked on the calling thread,
  under the index's readers-writer lock: callers on several threads
  overlap their walks and only serialise against mutations;
* **an LRU result cache** wired to the index's delta bus as a
  registered :class:`~repro.deltas.DerivedView`. Two invalidation
  modes:

  - ``"partial"`` (default): a user→cache-key postings map tracks
    which cached result sets contain which users; a mutation of user
    ``u`` evicts exactly the entries whose results include ``u``.
    Entries untouched by the mutation survive — under a 90/10
    read/write storm the cache keeps earning its keep instead of
    starting cold after every write. The relaxed contract: a cached
    answer **never contains a user mutated after it was computed**
    (so no tombstoned, re-profiled or refilled neighbour is ever
    served stale). A brand-new signup has no postings of her own, so
    her eviction is **seeded from her cluster route**: every user her
    arrival wired edges to (the deltas of the ``add_user`` event)
    also evicts — a cached answer full of her neighbours is exactly
    the answer she should now appear in. Entries untouched by both
    rules may still go stale against *unrelated* graph drift until
    they expire from the LRU; ``"full"`` mode trades the hit rate
    back for strictness. An online ``resplit`` evicts **by route**:
    it moves no edges and no profiles, only cluster routing, so the
    answers it can change are exactly those whose query routed into
    a touched cluster — a cluster→cache-key postings map (fed from
    :attr:`SearchResult.routed`) drops those and keeps the rest,
    which is what keeps the cache warm across churn-driven
    re-splits (the ``resplit_evictions_total`` /
    ``cache_resplit_kept`` metrics record the trade). This eviction
    is *exact*, not relaxed — surviving entries still equal a fresh
    search (property-tested). A ``rebuild`` (also ``user == -1``)
    still clears everything: it reassigns cluster ids wholesale.
  - ``"full"``: every mutation drops the whole cache and entries are
    version-stamped — the strict PR-2 contract that a cached answer
    always equals a fresh search against the current index state.

All similarity spending still flows through the engine's ``charge()``
protocol; the cache saves whole queries, not accounting accuracy.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from time import perf_counter

import numpy as np

from .. import obs
from ..data.dataset import canonical_profile
from ..deltas.view import DerivedView
from ..online.index import OnlineIndex
from .searcher import GraphSearcher, SearchResult

__all__ = ["QueryEngine"]


def _signup_contacts(event: str, deltas) -> set[int] | None:
    """Users a brand-new signup wired edges to — her eviction seeds.

    The ROADMAP-flagged blind spot: a new user has no postings, so a
    cached result she *should* appear in would survive until LRU churn.
    Her ``add_user`` deltas name every user her cluster route connected
    her to (her row's edges plus the reverse offers she won) — cached
    answers containing those users are precisely the ones she belongs
    in, so they are evicted too. ``None`` for every other event: the
    mutated user's own postings already cover those.
    """
    if event != "add_user":
        return None
    contacts: set[int] = set()
    for u, v, _added, *_ in deltas:
        contacts.add(int(u))
        contacts.add(int(v))
    return contacts


def _resplit_clusters(delta) -> list[int] | None:
    """Touched-cluster ids of a ``resplit`` event (``None`` otherwise).

    A re-split moves no graph edges, so its :class:`~repro.deltas.Delta`
    carries the routing change as the ``resplit`` payload instead; the
    touched-cluster ids are what lineage-keyed cache eviction needs.
    """
    if delta.event != "resplit":
        return None
    if delta.resplit is None:
        return None  # defensive: fall back to the full clear
    return [int(cid) for cid, _members in delta.resplit["members"]]


class _CacheView(DerivedView):
    """Result-cache invalidation as a derived view.

    Wraps the :class:`QueryEngine`'s ``_on_delta``; the resync recipe
    for a cache is the trivial one — drop everything, the next misses
    repopulate from the source of truth.
    """

    def __init__(self, engine, name: str) -> None:
        super().__init__(name=name)
        self._engine = engine

    def apply(self, delta) -> None:
        """Evict whatever this mutation can have changed."""
        self._engine._on_delta(delta)

    def resync(self) -> None:
        """A cache rebuilds by forgetting: clear and refill on miss."""
        self._engine._cache.clear()


class _ResultCache:
    """LRU of :class:`SearchResult` with per-user partial invalidation.

    Keyed by ``(canonical profile bytes, k)``. In ``"partial"`` mode a
    postings map ``user id -> {keys whose cached result contains it}``
    lets a mutation evict exactly the answers it can have changed, and
    a second postings map ``cluster id -> {keys whose query routed
    through it}`` lets a re-split evict exactly the answers it can
    have re-routed; in ``"full"`` mode any mutation clears everything
    and lookups also enforce the stored index version (belt and braces
    against a detached hook). Thread-safe: concurrent callers store
    into it.
    """

    def __init__(self, size: int, mode: str = "partial", registry=None) -> None:
        if mode not in ("partial", "full"):
            raise ValueError("invalidation mode must be 'partial' or 'full'")
        self.size = int(size)
        self.mode = mode
        self.invalidations = 0
        self.resplit_evictions = 0
        self.resplit_kept = 0
        self._entries: OrderedDict[tuple, tuple[int, SearchResult]] = OrderedDict()
        self._postings: dict[int, set[tuple]] = {}
        self._cluster_postings: dict[int, set[tuple]] = {}
        self._lock = threading.Lock()
        reg = registry if registry is not None else obs.metrics()
        self._c_evictions = reg.counter("cache_evictions_total", frontend="engine")
        self._c_resplit_evictions = reg.counter(
            "cache_resplit_evictions_total", frontend="engine"
        )
        self._g_resplit_kept = reg.gauge("cache_resplit_kept", frontend="engine")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, version: int) -> SearchResult | None:
        """Cached result for ``key``, or ``None`` (LRU order refreshed)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            stored_version, result = entry
            if self.mode == "full" and stored_version != version:
                self._drop(key)
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            return result

    def put(self, key: tuple, version: int, result: SearchResult, live_version=None) -> None:
        """Store a result computed at index ``version``.

        ``live_version`` (a callable) closes the store-after-evict
        race under concurrent mutation: a result computed before a
        mutation must not enter the cache after that mutation's
        eviction already ran. Checked under the cache lock — the same
        lock :meth:`on_mutation` takes — so either the entry lands
        first and the eviction sees it, or the version has moved and
        the entry is discarded.
        """
        if self.size <= 0:
            return
        with self._lock:
            if live_version is not None and live_version() != version:
                return
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (version, result)
            if self.mode == "partial":  # full mode never consults postings
                for v in result.ids.tolist():
                    self._postings.setdefault(v, set()).add(key)
                for cid in result.routed:
                    self._cluster_postings.setdefault(int(cid), set()).add(key)
            while len(self._entries) > self.size:
                self._drop(next(iter(self._entries)))

    def _drop(self, key: tuple) -> None:
        """Remove one entry and unthread it from both postings maps."""
        entry = self._entries.pop(key, None)
        if entry is None or self.mode != "partial":
            return
        for v in entry[1].ids.tolist():
            keys = self._postings.get(v)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._postings[v]
        for cid in entry[1].routed:
            keys = self._cluster_postings.get(int(cid))
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._cluster_postings[int(cid)]

    def on_mutation(self, event: str, user: int, touched=None, clusters=None) -> None:
        """Invalidate for one index mutation (the cache view's apply body).

        ``touched`` optionally widens the eviction beyond the mutated
        user's own postings — the engines pass the signup-contact set
        from :func:`_signup_contacts` so a brand-new user evicts the
        cached answers she should appear in. ``clusters`` is the
        touched-cluster set of a ``resplit`` event: a re-split changes
        only routing, so partial mode evicts exactly the entries whose
        query routed through a touched cluster and keeps everything
        else warm (full mode, ``rebuild``, or a global event without
        cluster info still clear everything).
        """
        with self._lock:
            if self.mode == "full" or event == "rebuild" or (
                user < 0 and clusters is None
            ):
                # Full mode always clears; a rebuild (or a global
                # event of unknown shape) reassigns cluster ids
                # wholesale, so even partial mode has nothing to keep.
                if self._entries:
                    self.invalidations += len(self._entries)
                    self._c_evictions.inc(len(self._entries))
                    self._entries.clear()
                    self._postings.clear()
                    self._cluster_postings.clear()
                return
            if user < 0:  # resplit with its touched-cluster set
                victims: set[tuple] = set()
                for cid in clusters:
                    victims.update(self._cluster_postings.get(int(cid), ()))
                for key in victims:
                    self._drop(key)
                dropped = len(victims)
                self.invalidations += dropped
                self.resplit_evictions += dropped
                self.resplit_kept += len(self._entries)
                self._c_evictions.inc(dropped)
                self._c_resplit_evictions.inc(dropped)
                self._g_resplit_kept.set(self.resplit_kept)
                return
            victims = {user}
            if touched:
                victims.update(touched)
            dropped = 0
            for uid in victims:
                for key in list(self._postings.get(uid, ())):
                    self._drop(key)
                    dropped += 1
            self.invalidations += dropped
            if dropped:
                self._c_evictions.inc(dropped)

    def clear(self) -> None:
        """Drop every entry and its postings (not counted as eviction)."""
        with self._lock:
            self._entries.clear()
            self._postings.clear()
            self._cluster_postings.clear()

    def postings_size(self) -> int:
        """Total user-postings entries (tests bound the map's growth)."""
        with self._lock:
            return sum(len(keys) for keys in self._postings.values())

    def cluster_postings_size(self) -> int:
        """Total cluster-postings entries (bounded alongside the above)."""
        with self._lock:
            return sum(len(keys) for keys in self._cluster_postings.values())


class QueryEngine:
    """Serves top-k queries over an :class:`OnlineIndex`.

    Args:
        index: the maintained index to serve from.
        k: default neighbours per query.
        cache_size: maximum cached results (LRU eviction); 0 disables
            caching.
        invalidation: ``"partial"`` (default — evict only answers the
            mutation can have changed) or ``"full"`` (drop everything
            on any mutation; the strict coherence mode). See the
            module docstring for the exact contracts.
        searcher: the configured :class:`GraphSearcher` every walk
            uses (one with default parameters is built otherwise).
        registry: :class:`~repro.obs.MetricsRegistry` for the cache
            hit/miss/eviction and batch-latency metrics, labelled
            ``frontend="engine"`` (default: the process-wide registry).
        tracer: :class:`~repro.obs.Tracer` wrapping each cache miss in
            a ``query`` root span (children: the searcher's ``search``
            tree and ``cache_store``), on the calling thread.
    """

    def __init__(
        self,
        index: OnlineIndex,
        *,
        k: int = 10,
        cache_size: int = 1024,
        invalidation: str = "partial",
        searcher: GraphSearcher | None = None,
        registry=None,
        tracer=None,
    ) -> None:
        reg = registry if registry is not None else obs.metrics()
        self.tracer = tracer if tracer is not None else obs.tracer()
        self.index = index
        self.searcher = searcher or GraphSearcher(
            index, registry=registry, tracer=tracer
        )
        self.default_k = int(k)
        self.cache_size = int(cache_size)
        self._cache = _ResultCache(cache_size, mode=invalidation, registry=reg)
        self._stats_lock = threading.Lock()
        self.n_queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self._c_hits = reg.counter("cache_hits_total", frontend="engine")
        self._c_misses = reg.counter("cache_misses_total", frontend="engine")
        self._c_dedup = reg.counter("cache_dedup_total", frontend="engine")
        self._h_batch = reg.histogram("serve_batch_seconds", frontend="engine")
        self._pending: list[tuple[object, int | None, asyncio.Future]] = []
        self._flush_task: asyncio.Task | None = None
        self._view = index.deltas.register(_CacheView(self, "result_cache"))

    @property
    def invalidation(self) -> str:
        """The cache's invalidation mode (``"partial"`` or ``"full"``)."""
        return self._cache.mode

    def close(self) -> None:
        """Detach from the index.

        A closed engine stops observing mutations: in ``"full"`` mode
        the version stamps still refuse stale entries on lookup, in
        ``"partial"`` mode the cache is cleared here because nothing
        will evict mutated answers anymore.
        """
        self._view.close()
        if self._cache.mode == "partial":
            self._cache.clear()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _on_delta(self, delta) -> None:
        """Delta-view hook → evict what the mutation can have changed."""
        self._cache.on_mutation(
            delta.event,
            delta.user,
            touched=_signup_contacts(delta.event, delta.edges),
            clusters=_resplit_clusters(delta),
        )

    # ------------------------------------------------------------------
    # Sync entry points
    # ------------------------------------------------------------------

    def search(self, profile, k: int | None = None) -> SearchResult:
        """Top-k neighbours of one profile (cached)."""
        return self.search_many([profile], k=k)[0]

    def search_many(self, profiles, k: int | None = None) -> list[SearchResult]:
        """Serve a batch of queries.

        Cache hits are answered immediately; the misses are
        deduplicated by canonical profile (identical profiles are
        searched once) and walked on the calling thread, each inside a
        ``query`` span, and cached. Results come back in request order.
        Thread-safe: the cache and counters take their own locks and
        every walk runs under the index's read lock.
        """
        t_batch = perf_counter()
        k = int(k if k is not None else self.default_k)
        results: list[SearchResult | None] = [None] * len(profiles)
        canon: list[np.ndarray] = []
        misses: OrderedDict[tuple, list[int]] = OrderedDict()
        hits = 0
        for pos, profile in enumerate(profiles):
            ids = canonical_profile(profile)
            canon.append(ids)
            key = (ids.tobytes(), k)
            hit = self._cache.get(key, self.index.version)
            if hit is not None:
                hits += 1
                results[pos] = hit
            else:
                misses.setdefault(key, []).append(pos)
        for key, positions in misses.items():
            with self.tracer.span("query", k=k, dedup=len(positions)):
                version = self.index.version
                result = self.searcher.top_k(canon[positions[0]], k=k)
                with self.tracer.span("cache_store"):
                    self._cache.put(
                        key, version, result, live_version=lambda: self.index.version
                    )
            for pos in positions:
                results[pos] = result
        dedup = len(profiles) - hits - len(misses)
        with self._stats_lock:
            self.n_queries += len(profiles)
            self.cache_hits += hits
            self.cache_misses += len(misses)
            self.dedup_hits += dedup
        if hits:
            self._c_hits.inc(hits)
        if misses:
            self._c_misses.inc(len(misses))
        if dedup:
            self._c_dedup.inc(dedup)
        self._h_batch.observe(perf_counter() - t_batch)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Async entry point
    # ------------------------------------------------------------------

    async def search_async(self, profile, k: int | None = None) -> SearchResult:
        """Awaitable :meth:`search`; concurrent callers share a batch.

        Every caller already scheduled when the flush task runs (e.g.
        all coroutines of one ``asyncio.gather``) lands in the same
        :meth:`search_many` batch and benefits from its deduplication.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((profile, k, future))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush_pending())
        return await future

    async def _flush_pending(self) -> None:
        await asyncio.sleep(0)  # let every scheduled caller enqueue first
        while self._pending:
            batch, self._pending = self._pending, []
            groups: dict[int, list[tuple[object, asyncio.Future]]] = {}
            for profile, k, future in batch:
                kk = int(k if k is not None else self.default_k)
                groups.setdefault(kk, []).append((profile, future))
            for kk, items in groups.items():
                try:
                    outs = self.search_many([p for p, _ in items], k=kk)
                except Exception as exc:  # pragma: no cover - defensive
                    for _, future in items:
                        if not future.done():
                            future.set_exception(exc)
                else:
                    for (_, future), out in zip(items, outs):
                        if not future.done():
                            future.set_result(out)

    # ------------------------------------------------------------------

    @property
    def invalidations(self) -> int:
        """Cache entries dropped by mutations (and version mismatches)."""
        return self._cache.invalidations

    def stats(self) -> dict:
        """Operational counters for dashboards and tests.

        Keys follow the shared serving-stats vocabulary
        (``docs/observability.md``).
        """
        with self._stats_lock:
            out = {
                "component": "query_engine",
                "queries_total": self.n_queries,
                "cache_hits_total": self.cache_hits,
                "cache_misses_total": self.cache_misses,
                "dedup_hits_total": self.dedup_hits,
            }
        out.update(
            evictions_total=self._cache.invalidations,
            resplit_evictions_total=self._cache.resplit_evictions,
            resplit_kept=self._cache.resplit_kept,
            invalidation_mode=self._cache.mode,
            cache_entries=len(self._cache),
            postings_entries=self._cache.postings_size(),
            cluster_postings_entries=self._cache.cluster_postings_size(),
            version=self.index.version,
        )
        return out
