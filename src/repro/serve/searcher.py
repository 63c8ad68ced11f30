"""Graph-walk top-k search — the read path of the KNN service.

A built C² graph answers "who are this profile's nearest neighbours?"
only for users that were indexed. Serving real traffic needs the same
answer for *arbitrary* profiles — an anonymous visitor, a user typing
ratings right now, a recommendation request from another service —
without the n similarity evaluations a brute-force scan costs.

:class:`GraphSearcher` does it in two phases, both metered through the
engine's ``charge()`` protocol so served queries spend from the same
similarity budget as builds and updates:

1. **Cluster-routed seeding** — the query profile is routed through
   the recorded FastRandomHash clustering
   (:meth:`~repro.online.OnlineIndex.seed_candidates`, one
   :class:`~repro.online.ClusterRouter` descent per configuration).
   The members of the destination clusters are exactly the users a
   batch run would have compared the profile against, so the walk
   starts in the right neighbourhood instead of a random corner of the
   graph.
2. **Best-first beam search** — the classic greedy walk of the
   NN-Descent / HNSW lineage over the KNN graph's edges: keep the
   ``ef`` best users seen so far, repeatedly expand the best
   unexpanded candidates' neighbour lists, stop when the best
   remaining candidate cannot improve the result set. Expansion
   follows edges in *both* directions: a directed top-k graph is a
   poor navigation structure on its own — u's true neighbour v often
   keeps the edge v→u when u's list has no room for v — and walking
   in-edges too recovers roughly ten recall points at equal
   evaluation budget.

A **hop** expands up to :data:`_HOP_WIDTH` frontier nodes at once: it
pops the best nodes that can still improve a full best-seen set,
gathers their not-yet-seen out- and in-neighbours, and scores the
whole batch, in id order, with one ``query_many`` call. Scoring once
per hop instead of once per node is what keeps the per-call and
per-hop Python overhead from rivalling the scoring itself.

Nodes expanded together are chosen blind — the later ones before the
earlier ones' neighbours are scored — so one rule keeps a
budget-bound walk as good as a one-node-per-hop walk: **a hop takes a
further node only if its batch, that node's fresh neighbours
included, stays within half of the evaluations the budget still
allows.** A node that would overflow goes back to the frontier for a
later hop. So a tight budget falls back to one node per hop, at most
half of the remaining budget is ever spent blind, and only a
single-node hop can outgrow the budget: the budget then keeps a prefix
of that node's fresh neighbours in id order, exactly as a
one-node-per-hop walk does.

The in-edge direction comes from the index's **incrementally
maintained** :class:`~repro.graph.reverse.ReverseAdjacency`
(:meth:`OnlineIndex.reverse_index`), patched per edge from each
mutation's journal — so a write storm costs O(changed edges) of
read-side maintenance, not an O(n·k) rebuild on the first query after
every mutation. The property tests compare it against a from-scratch
:meth:`~repro.graph.reverse.ReverseAdjacency.from_heaps` rebuild.

For estimate backends (GoldFinger/Bloom), ``rerank="exact"`` re-scores
the walk's final frontier — the ``ef`` best candidates, not just the
returned ``k`` — with exact similarities over the raw profiles before
truncation, recovering the ~5 recall points fingerprint noise costs at
equal walk budget for ``ef`` extra (counted) exact evaluations.

The walk ships two interchangeable implementations selected by
``walk_impl``:

* ``"numpy"`` (default) — array-at-a-time kernels: a reusable
  visited/excluded bitmap cleared via touched-index lists, each
  node's sorted out+in adjacency cached per index version, one fancy-
  indexing mask pass per popped node over that adjacency, a lexsort top-``ef`` seed initialisation, and a vectorised admission
  prefilter in front of an exact scalar tail that preserves the heap's
  tie semantics bit-for-bit.
* ``"python"`` — the original per-node loop, kept as the **scalar
  oracle**: ``tests/test_prop_search_vec.py`` pins the two
  implementations to identical ids, scores, ``evaluations``, ``hops``
  and ``routed`` on randomized indexes and parameter combinations.

Both order candidates by id (``_adjacent``), so budget truncation —
which keeps a prefix of a single node's fresh neighbours — is
deterministic regardless of heap slot layout or set iteration order.

Because C² graphs are cluster-local by construction, a handful of hops
reaches the true neighbourhood: recall@10 ≥ 0.9 of a brute-force scan
at a few percent of its evaluations (``benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import heapq
import os
import threading
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .. import obs
from ..data.dataset import canonical_profile
from ..online.index import OnlineIndex
from ..similarity.engine import SimilarityEngine
from ..similarity.jaccard import profile_intersections

__all__ = ["SearchResult", "GraphSearcher", "brute_force_top_k"]

# Frontier nodes one hop may expand (scored together in one call).
# Chosen from a sweep over 1-4 on the read and churn benchmarks
# (CHANGES.md); a module constant rather than a knob, since the
# half-budget rule already narrows hops under a tight budget.
_HOP_WIDTH = 4


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one top-k query.

    Attributes:
        ids: neighbour user ids, best first.
        scores: matching similarities (engine's metric).
        evaluations: similarity evaluations this query charged.
        hops: scoring rounds of the walk (0 = seeds sufficed). Each
            hop expands up to ``_HOP_WIDTH`` frontier nodes and scores
            their gathered neighbours in one ``query_many`` call.
        routed: cluster ids the query's seeds were routed through
            (one per hashing configuration that matched). A re-split
            changes *only* routing — no edges, no profiles — so a
            cached result is affected by one iff its query routed into
            a re-split cluster; the result cache keys its re-split
            eviction on exactly this set.
    """

    ids: np.ndarray
    scores: np.ndarray
    evaluations: int
    hops: int
    routed: tuple = field(default=())

    def __len__(self) -> int:
        return int(self.ids.size)


class GraphSearcher:
    """Answers ``top_k(profile)`` over a maintained :class:`OnlineIndex`.

    Args:
        index: the index to search; its engine, graph and recorded
            clustering are all reused.
        ef: beam width — the size of the best-seen set the walk
            maintains. Larger = better recall, more evaluations.
        per_config: cluster members taken as seeds per hashing
            configuration (deterministically subsampled).
        budget: optional hard cap on similarity evaluations per query;
            the walk stops early rather than exceed it.
        use_reverse_edges: also expand along in-edges, read from the
            index's maintained
            :meth:`~repro.online.OnlineIndex.reverse_index` (default;
            see module docstring). Disable to walk out-edges only.
        rerank: ``"exact"`` re-scores the final frontier with exact
            similarities over raw profiles before truncating to ``k``
            (counted; recovers estimate-backend recall). ``None``
            returns engine scores untouched.
        walk_impl: ``"numpy"`` (default) walks with the vectorised
            kernels; ``"python"`` forces the scalar per-node loop —
            the oracle the differential suite compares against, and a
            debugging fallback. ``None`` reads ``REPRO_WALK_IMPL``
            from the environment (defaulting to ``"numpy"``), which is
            how the CI matrix runs every serve suite under both.
        registry: :class:`~repro.obs.MetricsRegistry` for the stage
            timing/hop/evaluation metrics (default: the process-wide
            registry, see ``docs/observability.md`` for the catalog).
        tracer: :class:`~repro.obs.Tracer` for per-query spans
            (``search`` → ``route``/``seed``/``walk``/``rerank``).
    """

    def __init__(
        self,
        index: OnlineIndex,
        *,
        ef: int = 32,
        per_config: int = 16,
        budget: int | None = None,
        use_reverse_edges: bool = True,
        rerank: str | None = None,
        walk_impl: str | None = None,
        registry=None,
        tracer=None,
    ) -> None:
        if ef < 1:
            raise ValueError("ef must be >= 1")
        if rerank not in (None, "exact"):
            raise ValueError("rerank must be None or 'exact'")
        if walk_impl is None:
            walk_impl = os.environ.get("REPRO_WALK_IMPL", "numpy")
        if walk_impl not in ("numpy", "python"):
            raise ValueError("walk_impl must be 'numpy' or 'python'")
        self.index = index
        self.walk_impl = walk_impl
        # Scratch buffers for the numpy kernels are thread-local: a
        # QueryEngine shares one searcher across its caller threads,
        # and a bitmap mid-clear in one walk must not leak into
        # another.
        self._scratch = threading.local()
        self._adjacency: tuple[int, dict[int, np.ndarray]] = (-1, {})
        self.ef = int(ef)
        self.per_config = int(per_config)
        self.budget = budget
        self.use_reverse_edges = bool(use_reverse_edges)
        self.rerank = rerank
        reg = registry if registry is not None else obs.metrics()
        self.tracer = tracer if tracer is not None else obs.tracer()
        self._m_queries = reg.counter("serve_queries_total")
        self._h_query = reg.histogram("serve_query_seconds")
        self._h_seed = reg.histogram("serve_seed_seconds")
        self._h_walk = reg.histogram("serve_walk_seconds")
        self._h_rerank = reg.histogram("serve_rerank_seconds")
        self._h_hops = reg.histogram("serve_walk_hops", bounds=obs.COUNT_BUCKETS)
        self._h_evals = reg.histogram(
            "serve_walk_evaluations", bounds=obs.COUNT_BUCKETS
        )

    @property
    def engine(self) -> SimilarityEngine:
        """The counted similarity engine queries are charged to."""
        return self.index.engine

    def top_k(
        self,
        profile,
        k: int = 10,
        *,
        ef: int | None = None,
        budget: int | None = None,
        exclude=(),
        extra_seeds=None,
    ) -> SearchResult:
        """The ``k`` most similar indexed users to an arbitrary profile.

        Deterministic: the same profile against the same index state
        returns the same result (which is what makes the serving
        layer's cache sound).

        Args:
            profile: item ids (any iterable; deduplicated). Items the
                index has never seen are fine — they simply cannot
                match anyone.
            k: neighbours to return.
            ef: beam width override (clamped to at least ``k``).
            budget: evaluation-cap override for this query.
            exclude: user ids never to return (a user querying for her
                own neighbours excludes herself).
            extra_seeds: extra entry points for the walk, e.g. the
                surviving edges of a degraded row being refilled.
        """
        profile = canonical_profile(profile)
        ef = max(int(ef or self.ef), int(k))
        budget = budget if budget is not None else self.budget
        t0 = perf_counter()
        with self.tracer.span("search", k=int(k), profile_size=int(profile.size)) as sp:
            # Walks read shared graph state that mutations patch in
            # place; the index's readers-writer lock keeps the two
            # apart (many concurrent walks, mutations exclusive).
            with self.index.lock.read():
                result = self._walk(profile, int(k), ef, budget, exclude, extra_seeds)
            sp.note(hops=result.hops, evaluations=result.evaluations)
        self._m_queries.inc()
        self._h_query.observe(perf_counter() - t0)
        self._h_hops.observe(result.hops)
        self._h_evals.observe(result.evaluations)
        return result

    def _walk(self, profile, k, ef, budget, exclude, extra_seeds) -> SearchResult:
        engine = self.index.engine
        graph = self.index.graph
        active = self.index.dataset.active_mask()
        excluded = {int(u) for u in exclude}
        query = engine.prepare_query(profile)

        t_seed = perf_counter()
        with self.tracer.span("route") as sp:
            seeds, routed = self._seeds(profile, ef, active, excluded, extra_seeds)
            sp.note(clusters=len(routed))
        if budget is not None and seeds.size > budget:
            seeds = seeds[:budget]
        if seeds.size == 0:
            self._h_seed.observe(perf_counter() - t_seed)
            return SearchResult(
                ids=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
                evaluations=0,
                hops=0,
                routed=routed,
            )
        with self.tracer.span("seed", n_seeds=int(seeds.size)):
            sims = engine.query_many(query, seeds)
        self._h_seed.observe(perf_counter() - t_seed)

        rev = self._reverse_source()
        core = (
            self._walk_core_numpy
            if self.walk_impl == "numpy"
            else self._walk_core_python
        )
        t_walk = perf_counter()
        with self.tracer.span("walk") as walk_span:
            pool, hops, evals = core(
                engine, graph, query, active, excluded, seeds, sims, ef, budget, rev
            )
            walk_span.note(hops=hops, evaluations=evals)
        self._h_walk.observe(perf_counter() - t_walk)
        if self.rerank == "exact" and pool:
            # Re-score the whole final frontier (ef candidates), not
            # just the top k of the estimates — the candidates exact
            # scoring promotes into the top k are precisely the ones
            # estimate noise demoted out of it.
            t_rerank = perf_counter()
            with self.tracer.span("rerank", n_candidates=len(pool)):
                cands = np.array([v for _, v in pool], dtype=np.int64)
                exact = self._exact_scores(profile, cands)
                engine.charge(cands.size)
                evals += cands.size
                order = np.lexsort((cands, -exact))[:k]
                ids, scores = cands[order], exact[order]
            self._h_rerank.observe(perf_counter() - t_rerank)
        else:
            best = pool[:k]
            ids = np.array([v for _, v in best], dtype=np.int64)
            scores = np.array([s for s, _ in best], dtype=np.float64)
        return SearchResult(
            ids=ids,
            scores=scores,
            evaluations=evals,
            hops=hops,
            routed=routed,
        )

    # ------------------------------------------------------------------
    # Walk cores — one beam search, two implementations. Both return
    # ``(pool, hops, evals)`` where ``pool`` is the final best-seen set
    # sorted by (score desc, id asc). The python core is the scalar
    # oracle; the numpy core must match it bit-for-bit (see
    # tests/test_prop_search_vec.py).
    # ------------------------------------------------------------------

    def _walk_core_python(
        self, engine, graph, query, active, excluded, seeds, sims, ef, budget, rev
    ):
        """The scalar per-node loop — kept as the differential oracle.

        Bounded best-seen set (min-heap on ``(score, -id)``: ties evict
        the larger id so results are deterministic) and expansion
        frontier (max-heap on ``(-score, id)``). This core *defines*
        the hop rule (see :data:`_HOP_WIDTH`); the numpy core mirrors
        it.
        """
        result: list[tuple[float, int]] = []
        frontier: list[tuple[float, int]] = []
        visited = {int(v) for v in seeds}
        for v, s in zip(seeds, sims):
            heapq.heappush(frontier, (-float(s), int(v)))
            heapq.heappush(result, (float(s), -int(v)))
            if len(result) > ef:
                heapq.heappop(result)

        hops = 0
        evals = int(seeds.size)
        while frontier:
            room = None if budget is None else budget - evals
            # Gather: pop the best frontier nodes that can still improve
            # the set, each contributing its not-yet-seen neighbours.
            batch: list[int] = []
            taken = 0
            while frontier and taken < _HOP_WIDTH:
                neg_score, node = frontier[0]
                if len(result) >= ef and -neg_score < result[0][0]:
                    break  # the best remaining candidate cannot improve the set
                heapq.heappop(frontier)
                fresh = [
                    int(v)
                    for v in self._adjacent(graph, node, rev)
                    if int(v) not in visited and active[v] and int(v) not in excluded
                ]
                if not fresh:
                    continue
                if taken and room is not None and 2 * (len(batch) + len(fresh)) > room:
                    # Over half the remaining budget: a later hop gets it.
                    heapq.heappush(frontier, (neg_score, node))
                    break
                visited.update(fresh)
                batch += fresh
                taken += 1
            if not taken:
                break
            batch.sort()
            if room is not None and len(batch) > room:
                batch = batch[:room]  # only ever a single node's batch
                if not batch:
                    break
            hops += 1
            cands = np.asarray(batch, dtype=np.int64)
            scores = engine.query_many(query, cands)
            evals += cands.size
            for v, s in zip(batch, scores):
                if len(result) < ef or s > result[0][0]:
                    heapq.heappush(frontier, (-float(s), int(v)))
                    heapq.heappush(result, (float(s), -int(v)))
                    if len(result) > ef:
                        heapq.heappop(result)
        pool = sorted(((s, -neg_id) for s, neg_id in result), key=lambda t: (-t[0], t[1]))
        return pool, hops, evals

    def _walk_core_numpy(
        self, engine, graph, query, active, excluded, seeds, sims, ef, budget, rev
    ):
        """Array-at-a-time walk, bit-equivalent to the python oracle.

        Per popped node: one fancy-indexing mask pass filters its
        sorted out+in adjacency (cached per index version) against a
        reusable visited/excluded bitmap (cleared via touched-index
        lists, never reallocated). Per hop: one ``query_many`` scores
        the gathered batch, and a vectorised ``> current-min``
        prefilter shrinks the exact scalar admission tail to the
        candidates that can actually enter the best-seen set.
        Candidates stay in id order, so budget prefix truncation
        matches the oracle exactly. The best-seen set itself stays a
        heap: a batched top-ef rebuild would break tie semantics (an
        incumbent at the current min score must not be evicted by a
        tying candidate the heap would reject).
        """
        n = active.size
        blocked = self._blocked_bitmap(n)
        adjacency = self._adjacency_cache()
        touched: list[np.ndarray] = []
        try:
            if excluded:
                excl = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
                excl = excl[(excl >= 0) & (excl < n)]
                if excl.size:
                    blocked[excl] = True
                    touched.append(excl)
            blocked[seeds] = True
            touched.append(seeds)

            # Seed phase: pushing every seed and popping the minimum
            # down to ef is exactly "top-ef by (score desc, id asc)" —
            # one lexsort replaces the per-seed heap churn. The
            # frontier takes every seed regardless.
            order = np.lexsort((seeds, -sims))[:ef]
            result = [(float(sims[i]), -int(seeds[i])) for i in order]
            heapq.heapify(result)
            frontier = list(zip((-sims).tolist(), seeds.tolist()))
            heapq.heapify(frontier)

            hops = 0
            evals = int(seeds.size)
            while frontier:
                room = None if budget is None else budget - evals
                parts: list[np.ndarray] = []
                taken = gathered = 0
                while frontier and taken < _HOP_WIDTH:
                    neg_score, node = frontier[0]
                    if len(result) >= ef and -neg_score < result[0][0]:
                        break  # the best remaining candidate cannot improve the set
                    heapq.heappop(frontier)
                    fresh = self._fresh_neighbors(
                        graph, node, rev, active, blocked, adjacency
                    )
                    if fresh.size == 0:
                        continue
                    if taken and room is not None and 2 * (gathered + fresh.size) > room:
                        # Over half the remaining budget: a later hop gets it.
                        heapq.heappush(frontier, (neg_score, node))
                        break
                    # Blocking at gather time keeps this hop's later
                    # nodes from re-gathering the same ids.
                    blocked[fresh] = True
                    touched.append(fresh)
                    parts.append(fresh)
                    taken += 1
                    gathered += fresh.size
                if not taken:
                    break
                batch = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
                if room is not None and batch.size > room:
                    batch = batch[:room]  # only ever a single node's batch
                    if batch.size == 0:
                        break
                hops += 1
                scores = engine.query_many(query, batch)
                evals += batch.size
                if len(result) >= ef:
                    # Admission needs s > current min, and the min only
                    # rises — s > min-before-batch is a sound prefilter.
                    live = np.flatnonzero(scores > result[0][0])
                    if live.size == 0:
                        continue
                    fvals = batch[live].tolist()
                    svals = scores[live].tolist()
                else:
                    fvals = batch.tolist()
                    svals = scores.tolist()
                for v, s in zip(fvals, svals):
                    if len(result) < ef or s > result[0][0]:
                        heapq.heappush(frontier, (-s, v))
                        heapq.heappush(result, (s, -v))
                        if len(result) > ef:
                            heapq.heappop(result)
            pool = sorted(
                ((s, -neg_id) for s, neg_id in result), key=lambda t: (-t[0], t[1])
            )
            return pool, hops, evals
        finally:
            for arr in touched:
                blocked[arr] = False

    def _blocked_bitmap(self, n: int) -> np.ndarray:
        """This thread's reusable visited/excluded bitmap, ≥ ``n`` wide.

        Allocated once per (searcher, thread) and grown geometrically;
        the walk core clears exactly the entries it set (touched-index
        lists), so consecutive queries see all-False without an O(n)
        wipe per query.
        """
        buf = getattr(self._scratch, "blocked", None)
        if buf is None or buf.size < n:
            grow = 0 if buf is None else 2 * buf.size
            buf = np.zeros(max(n, grow), dtype=bool)
            self._scratch.blocked = buf
        return buf

    def _reverse_source(self):
        """Where this walk reads in-edges from (None = out-edges only).

        The index's maintained
        :class:`~repro.graph.reverse.ReverseAdjacency` (built once,
        patched per mutation).
        """
        if not self.use_reverse_edges:
            return None
        return self.index.reverse_index()

    def _fresh_neighbors(self, graph, node: int, rev, active, blocked, adjacency):
        """The numpy core's gather: ``node``'s active, unblocked out- and
        in-neighbours in id order — what the oracle's per-node filter
        over :meth:`_adjacent` yields. ``adjacency`` caches
        :meth:`_adjacent` per node (see :meth:`_adjacency_cache`)."""
        adj = adjacency.get(node)
        if adj is None:
            adj = adjacency[node] = self._adjacent(graph, node, rev)
        return adj[active[adj] & ~blocked[adj]]

    def _adjacency_cache(self) -> dict[int, np.ndarray]:
        """Per-node :meth:`_adjacent` arrays for the index's version.

        Every mutation that edits an edge or the active set bumps
        ``index.version``, so the cache is dropped whole on the first
        walk after one; walks of one version run under the index's
        read lock and share it. A read-only index thus sorts each
        node's adjacency once instead of once per expansion.
        """
        version = self.index.version
        cached_version, cache = self._adjacency
        if cached_version != version:
            cache = {}
            self._adjacency = (version, cache)  # one atomic swap
        return cache

    def _adjacent(self, graph, node: int, rev) -> np.ndarray:
        """Neighbours of ``node`` in either edge direction, sorted by id.

        Sorted unconditionally: budget truncation keeps a *prefix* of
        a node's fresh neighbours, so candidate order must not depend
        on heap slot layout (which varies with mutation history even
        between graphs holding identical edge sets).
        """
        out = graph.neighbors(node)
        incoming = None if rev is None else rev.holders(node)
        if incoming is None or incoming.size == 0:
            return np.sort(out)
        return np.unique(np.concatenate([out.astype(np.int64), incoming]))

    def _exact_scores(self, profile: np.ndarray, users: np.ndarray) -> np.ndarray:
        """Exact similarity of ``profile`` vs ``users`` from raw profiles.

        Used by ``rerank="exact"``: estimate backends keep serving the
        walk from fingerprints, only the final frontier pays for exact
        scoring (the caller charges the engine for these evaluations).
        Honours the engine's metric where it has one (exact cosine
        engines re-rank with cosine).
        """
        inter, sizes = profile_intersections(self.index.dataset, profile, users)
        if getattr(self.engine, "metric", "jaccard") == "cosine":
            denom = np.sqrt(float(profile.size) * sizes)
        else:
            denom = profile.size + sizes - inter
        out = np.zeros(users.size, dtype=np.float64)
        nz = denom > 0
        out[nz] = inter[nz] / denom[nz]
        return out

    def _seeds(
        self,
        profile: np.ndarray,
        ef: int,
        active: np.ndarray,
        excluded: set[int],
        extra_seeds,
    ) -> tuple[np.ndarray, tuple]:
        """Entry points: routed cluster peers + caller seeds + top-up.

        Returns ``(seeds, routed)`` where ``routed`` is the cluster-id
        tuple routing matched (recorded on the
        :class:`SearchResult` so the result cache can evict exactly
        the answers a re-split re-routes). The top-up draws
        deterministically-seeded random active users when routing
        finds fewer than ``ef`` entry points (a profile of never-seen
        items misses every recorded lineage); without it the walk
        would have nowhere to start.
        """
        routed_seeds, routed = self.index.seed_candidates(
            profile, per_config=self.per_config, with_route=True
        )
        pools = [routed_seeds]
        if extra_seeds is not None:
            extra = np.asarray(extra_seeds, dtype=np.int64)
            if extra.size:
                pools.append(extra[active[extra]])
        # Routed seeds arrive sorted-unique; only caller seeds need a merge.
        seeds = pools[0] if len(pools) == 1 else np.unique(np.concatenate(pools))
        if excluded:
            seeds = seeds[~np.isin(seeds, np.fromiter(excluded, dtype=np.int64))]
        if seeds.size < ef:
            pool = self.index.dataset.active_users()
            pool = pool[~np.isin(pool, seeds)]
            if excluded:
                pool = pool[~np.isin(pool, np.fromiter(excluded, dtype=np.int64))]
            want = min(ef - seeds.size, pool.size)
            if want > 0:
                rng = np.random.default_rng(
                    (self.index.params.seed, zlib.crc32(profile.tobytes()))
                )
                extra = rng.choice(pool, size=want, replace=False)
                seeds = np.unique(np.concatenate([seeds, extra]))
        return seeds.astype(np.int64), routed


def brute_force_top_k(
    engine: SimilarityEngine,
    profile,
    k: int = 10,
    users: np.ndarray | None = None,
) -> SearchResult:
    """Reference answer: score the profile against every (active) user.

    Costs one evaluation per candidate — the denominator for the
    "fraction of a brute-force query" numbers the serving benchmarks
    report, and the ground truth for recall@k.
    """
    if users is None:
        dataset = engine.dataset
        if hasattr(dataset, "active_users"):
            users = dataset.active_users()
        else:
            users = np.arange(engine.n_users, dtype=np.int64)
    users = np.asarray(users, dtype=np.int64)
    query = engine.prepare_query(profile)
    sims = engine.query_many(query, users)
    order = np.lexsort((users, -sims))[: int(k)]
    return SearchResult(
        ids=users[order],
        scores=sims[order],
        evaluations=int(users.size),
        hops=0,
    )
