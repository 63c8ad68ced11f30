"""Sharded query serving — one front end, N searcher threads.

A single :class:`~repro.serve.engine.QueryEngine` walks queries one at
a time; a CPU-bound serving tier wants the deduped misses of each
batch spread across workers. :class:`ShardedQueryEngine` keeps the
front-end duties in one place — canonicalisation, the shared LRU
result cache with partial invalidation, batch dedup — and partitions
the remaining misses by a stable hash of the canonical profile across
``n_shards`` workers: one :class:`GraphSearcher` per shard on a shared
:class:`~concurrent.futures.ThreadPoolExecutor`. The similarity
kernels spend their time in numpy/scipy calls that release the GIL,
and walks take the index's readers-writer lock, so queries overlap
each other and only serialise against mutations.

``replicas=True`` upgrades the shards to the **replica tier**
(:class:`~repro.serve.replica.ReplicaSet`): every shard owns a full
clone of the index — its own graph, reverse adjacency, router and
fingerprints — and converges after each primary mutation by applying
the shipped journal deltas instead of re-reading shared state. Walks
then touch no primary lock at all, and batch misses are routed across
the replicas by a configurable policy: ``"round_robin"`` (default —
any replica can serve any query, so spread them evenly),
``"least_loaded"`` (route to the replica with the fewest in-flight
misses) or ``"hash"`` (the stable profile-hash partition the
shared-state shards use).

Sharding never changes answers: the same deterministic searcher
configuration runs in every worker against converged state, so a
sharded batch returns exactly what a single-worker engine would
(property-tested).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from .. import obs
from ..online.index import OnlineIndex
from .engine import (
    AsyncSearchMixin,
    _CacheView,
    _ResultCache,
    _resplit_clusters,
    _signup_contacts,
)
from .replica import ReplicaSet
from .searcher import GraphSearcher, SearchResult

__all__ = ["ShardedQueryEngine"]


class ShardedQueryEngine(AsyncSearchMixin):
    """Batch query serving partitioned across ``n_shards`` workers.

    Args:
        index: the maintained index to serve from (the primary, when
            replicas are on — mutations always apply there, once).
        n_shards: worker thread (or replica) count; deduped batch
            misses are spread across them.
        k: default neighbours per query.
        cache_size: shared front-end LRU size (0 disables caching).
        invalidation: cache mode, ``"partial"`` (default) or
            ``"full"`` — same contracts as :class:`QueryEngine`.
        replicas: give every shard its own replica index converging by
            shipped journal deltas (see module docstring) instead of
            sharing the primary's state.
        routing: miss-routing policy across replicas —
            ``"round_robin"`` (default with replicas),
            ``"least_loaded"`` or ``"hash"``. Shared-state shards
            (``replicas=False``) always hash-partition.
        searcher_kwargs: forwarded to each shard's (or replica's)
            :class:`GraphSearcher` (``ef``, ``budget``, ``rerank``, …),
            together with ``registry`` and ``tracer``.
        hydrate: forwarded to :class:`ReplicaSet` — bootstrap the
            initial replicas from persisted state (e.g.
            :meth:`repro.persist.DurableIndex.hydrate`) instead of
            cloning the live primary. Requires ``replicas=True``.
        registry: :class:`~repro.obs.MetricsRegistry` for the cache
            and batch metrics, labelled ``frontend="sharded"``
            (default: the process-wide registry).
        tracer: :class:`~repro.obs.Tracer` forwarded to the per-shard
            (or per-replica) searchers (worker threads record their
            own ``search`` root spans).
    """

    def __init__(
        self,
        index: OnlineIndex,
        n_shards: int = 2,
        *,
        k: int = 10,
        cache_size: int = 1024,
        invalidation: str = "partial",
        replicas: bool = False,
        routing: str | None = None,
        searcher_kwargs: dict | None = None,
        hydrate=None,
        registry=None,
        tracer=None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if routing is None:
            routing = "round_robin" if replicas else "hash"
        if routing not in ("hash", "round_robin", "least_loaded"):
            raise ValueError(
                "routing must be 'hash', 'round_robin' or 'least_loaded'"
            )
        if not replicas and routing != "hash":
            raise ValueError(
                "routing policies require replicas=True "
                "(shared-state shards are hash-partitioned)"
            )
        if hydrate is not None and not replicas:
            raise ValueError("hydrate requires replicas=True")
        self.index = index
        self.n_shards = int(n_shards)
        self.default_k = int(k)
        self.replicas = bool(replicas)
        self.routing = routing
        self.searcher_kwargs = dict(searcher_kwargs or {})
        reg = registry if registry is not None else obs.metrics()
        self.tracer = tracer if tracer is not None else obs.tracer()
        self._cache = _ResultCache(
            cache_size, mode=invalidation, registry=reg, frontend="sharded"
        )
        self._stats_lock = threading.Lock()
        self.n_queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self._c_hits = reg.counter("cache_hits_total", frontend="sharded")
        self._c_misses = reg.counter("cache_misses_total", frontend="sharded")
        self._c_dedup = reg.counter("cache_dedup_total", frontend="sharded")
        self._h_batch = reg.histogram("serve_batch_seconds", frontend="sharded")
        # Per-shard series: one aggregated frontend="sharded" line
        # cannot show a hot or straggling shard, so misses and batch
        # time are also recorded under a shard label.
        self._c_shard_misses = [
            reg.counter("shard_misses_total", frontend="sharded", shard=str(i))
            for i in range(self.n_shards)
        ]
        self._h_shard_batch = [
            reg.histogram("shard_batch_seconds", frontend="sharded", shard=str(i))
            for i in range(self.n_shards)
        ]
        self._init_async()
        self._replica_set: ReplicaSet | None = None
        self._route_lock = threading.Lock()
        self._rr = 0  # round-robin cursor
        self._inflight = [0] * self.n_shards  # least-loaded accounting
        # Every walk, on a shard or on a replica, reports to this
        # engine's registry and tracer.
        walk_kwargs = dict(self.searcher_kwargs, registry=registry, tracer=tracer)
        if self.replicas:
            self._replica_set = ReplicaSet(
                index,
                self.n_shards,
                searcher_kwargs=walk_kwargs,
                hydrate=hydrate,
                registry=registry,
            )
            self._searchers = []
        else:
            self._searchers = [
                GraphSearcher(index, **walk_kwargs) for _ in range(self.n_shards)
            ]
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="repro-shard"
        )
        self._view = index.deltas.register(_CacheView(self, "sharded_cache"))

    # ------------------------------------------------------------------

    @property
    def replica_set(self) -> ReplicaSet | None:
        """The backing :class:`ReplicaSet` (``None`` without replicas)."""
        return self._replica_set

    def _on_delta(self, delta) -> None:
        self._cache.on_mutation(
            delta.event,
            delta.user,
            touched=_signup_contacts(delta.event, delta.edges),
            clusters=_resplit_clusters(delta),
        )

    def _shard_of(self, key: tuple) -> int:
        """Stable profile→shard assignment (independent of batch order)."""
        return zlib.crc32(key[0]) % self.n_shards

    def _route_miss(self, key: tuple) -> int:
        """Pick the shard for one deduped miss; caller holds ``_route_lock``.

        Replicas converge to identical state, so any of them may serve
        any query — the policy only shapes load. Hash keeps the stable
        assignment (and is the only sound choice for shared-state
        shards); round-robin spreads a batch evenly; least-loaded
        routes around stragglers using in-flight miss counts.
        """
        if self.routing == "round_robin":
            shard = self._rr % self.n_shards
            self._rr += 1
            return shard
        if self.routing == "least_loaded":
            return min(range(self.n_shards), key=lambda i: self._inflight[i])
        return self._shard_of(key)

    def _run_shard(self, shard: int, items: list, k: int) -> list:
        t0 = perf_counter()
        searcher = self._searchers[shard]
        out = [(key, searcher.top_k(profile, k=k)) for key, profile in items]
        self._c_shard_misses[shard].inc(len(items))
        self._h_shard_batch[shard].observe(perf_counter() - t0)
        return out

    def _run_replica(self, shard: int, items: list, k: int) -> list:
        t0 = perf_counter()
        try:
            results = self._replica_set.search(
                shard, [profile for _, profile in items], k
            )
            self._c_shard_misses[shard].inc(len(items))
            self._h_shard_batch[shard].observe(perf_counter() - t0)
            return [(key, result) for (key, _), result in zip(items, results)]
        finally:
            if self.routing == "least_loaded":
                with self._route_lock:
                    self._inflight[shard] -= len(items)

    # ------------------------------------------------------------------

    def search(self, profile, k: int | None = None) -> SearchResult:
        """Top-k neighbours of one profile (cached)."""
        return self.search_many([profile], k=k)[0]

    def search_many(self, profiles, k: int | None = None) -> list[SearchResult]:
        """Serve a batch: cache, dedup, then fan the misses out.

        Thread-safe — the concurrency tests hammer one engine from
        many threads while mutations stream in; the shared cache and
        counters take their own locks and every walk runs under the
        index's read lock.
        """
        t_batch = perf_counter()
        k = int(k if k is not None else self.default_k)
        results: list[SearchResult | None] = [None] * len(profiles)
        canon: list[np.ndarray] = []
        misses: OrderedDict[tuple, list[int]] = OrderedDict()
        hits = 0
        for pos, profile in enumerate(profiles):
            ids = np.unique(np.asarray(profile, dtype=np.int64))
            canon.append(ids)
            key = (ids.tobytes(), k)
            hit = self._cache.get(key, self.index.version)
            if hit is not None:
                hits += 1
                results[pos] = hit
            else:
                misses.setdefault(key, []).append(pos)

        answered: dict[tuple, SearchResult] = {}
        if misses:
            version = self.index.version
            shards: dict[int, list[tuple[tuple, np.ndarray]]] = {}
            if self._replica_set is not None:
                with self._route_lock:
                    for key, positions in misses.items():
                        shard = self._route_miss(key)
                        if self.routing == "least_loaded":
                            self._inflight[shard] += 1
                        shards.setdefault(shard, []).append(
                            (key, canon[positions[0]])
                        )
            else:
                for key, positions in misses.items():
                    shards.setdefault(self._shard_of(key), []).append(
                        (key, canon[positions[0]])
                    )
            run = self._run_replica if self._replica_set is not None else self._run_shard
            futures = [
                self._pool.submit(run, shard, items, k)
                for shard, items in shards.items()
            ]
            for future in futures:
                for key, result in future.result():
                    answered[key] = result
            for key, result in answered.items():
                self._cache.put(
                    key, version, result, live_version=lambda: self.index.version
                )
            for key, positions in misses.items():
                for pos in positions:
                    results[pos] = answered[key]

        dedup = sum(len(p) - 1 for p in misses.values())
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

    def close(self) -> None:
        """Detach from the index and shut the worker pool down.

        As with :meth:`QueryEngine.close`, a closed partial-mode cache
        is cleared — nothing would ever evict mutated answers from it.
        """
        self._view.close()
        if self._cache.mode == "partial":
            self._cache.clear()
        if self._replica_set is not None:
            self._replica_set.close()
        self._pool.shutdown()

    def stats(self) -> dict:
        """Operational counters for dashboards and tests.

        Same canonical vocabulary as :meth:`QueryEngine.stats` (see
        ``docs/observability.md``); the pre-unification spellings were
        dropped after their one-release grace window.
        """
        with self._stats_lock:
            out = {
                "component": "sharded_query_engine",
                "queries_total": self.n_queries,
                "cache_hits_total": self.cache_hits,
                "cache_misses_total": self.cache_misses,
                "dedup_hits_total": self.dedup_hits,
                "evictions_total": self._cache.invalidations,
                "resplit_evictions_total": self._cache.resplit_evictions,
                "resplit_kept": self._cache.resplit_kept,
                "invalidation_mode": self._cache.mode,
                "cache_entries": len(self._cache),
                "n_shards": self.n_shards,
                "routing": self.routing,
                "version": self.index.version,
            }
        if self._replica_set is not None:
            replica = self._replica_set.stats()
            out.update(
                deltas_shipped_total=replica["deltas_shipped_total"],
                resyncs_total=replica["resyncs_total"],
                replica_lag=replica["lag"],
                replica_serving=replica["serving"],
            )
        return out
