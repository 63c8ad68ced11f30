"""The three workloads: ``build``, ``read`` and ``churn``.

Each is a single-process closed loop with one client driving the
library's public API. A run is one or more *episodes*, each on its own
inputs derived from the seed; averaging episodes is what keeps a run's
figures steady from seed to seed. Per episode:

* ``setup(seed, episode, seconds, size)`` generates the inputs and
  builds what the measured phase needs (timed as ``setup_s``);
* ``measure(state, acc, report, tracer)`` runs the episode's fixed
  amount of work, times it, runs the oracles with the clock stopped and
  adds its samples to ``acc``;
* ``teardown(state)`` releases files and views.

``finish(acc, report)`` then turns the pooled samples into metrics.
The amount of work is fixed by ``--seconds`` and a nominal rate, never
by the clock, so every count (evaluations, comparisons, re-splits, WAL
bytes, hops) repeats exactly for the same seed.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from perfbench.harness import percentile
from repro import C2Params
from repro.bench.scenarios import Op, SimWorld, SustainedChurn
from repro.bench.workloads import scaled_c2_params
from repro.core import cluster_and_conquer
from repro.data import SyntheticSpec, generate
from repro.data.dataset import Dataset
from repro.data.registry import load
from repro.graph.heap import edge_digest
from repro.graph.reverse import ReverseAdjacency
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import GraphSearcher, QueryEngine, brute_force_top_k
from repro.similarity import make_engine
from repro.similarity.jaccard import jaccard_block, jaccard_one_to_many

__all__ = ["SIZES", "WAL_POLICY", "WORKLOADS", "Size"]

TOP_K = 10


@dataclass(frozen=True)
class Size:
    """Input sizes; ``full`` is the benchmark, ``toy`` the self-test pass."""

    build_scale: float
    read_users: int
    churn_users: int
    churn_pool: int
    quality_sample: int
    recall_sample: int
    toy_ops: int | None = None  # toy: fixed work, --seconds ignored


SIZES = {
    "full": Size(build_scale=0.3, read_users=10_000, churn_users=2_000,
                 churn_pool=200, quality_sample=1000, recall_sample=1000),
    "toy": Size(build_scale=0.02, read_users=600, churn_users=300,
                churn_pool=40, quality_sample=200, recall_sample=100, toy_ops=100),
}

# Nominal rates on a 2-core x86 box; they size the work, not the clock.
BUILD_SECONDS = 5.0      # one C² build of the ml10M stand-in at scale 0.3
READ_QPS = 1500          # unique queries per second
CHURN_OPS = 1400         # tape operations per second
CHURN_EPISODE_OPS = 3500  # tape length of one churn episode

# Output floors counted into ``failed``.
BUILD_QUALITY_FLOOR = 0.85
READ_RECALL_FLOOR = 0.90
CHURN_RECALL_FLOOR = 0.70

WAL_POLICY = "flush to the OS per append, fsync off, automatic checkpoints off"


def _workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def episode_seed(seed: int, episode: int) -> int:
    """Seed of one episode's inputs; episodes of one run never share inputs."""
    return seed * 1000 + episode


def community_population(n_users: int, n_extra: int, seed: int):
    """An indexed population plus ``n_extra`` held-out profiles.

    The community generator of ``benchmarks/bench_serving.py``, kept
    here so the benchmark does not change when that script does: the
    held-out profiles are extra users of the same communities, so they
    are out of the index but statistically like its users.
    """
    spec = SyntheticSpec(
        name=f"serve{n_users}",
        n_users=n_users + n_extra,
        n_items=max(400, int(0.8 * n_users)),
        mean_profile_size=40.0,
        n_communities=max(8, n_users // 62),
        community_pool_size=120,
        community_affinity=0.95,
        min_profile_size=15,
    )
    full = generate(spec, seed=seed)
    dataset = Dataset.from_profiles(
        [full.profile(u) for u in range(n_users)], n_items=full.n_items, name=spec.name
    )
    held_out = [full.profile(u) for u in range(n_users, n_users + n_extra)]
    return dataset, held_out


def serving_params(n_users: int) -> C2Params:
    """The serving benchmark's index parameters (``bench_serving``)."""
    return C2Params(
        k=16,
        n_buckets=1024 if n_users > 2000 else 128,
        n_hashes=8,
        split_threshold=max(60, n_users // 16),
        seed=1,
    )


def _searcher(index, n_users: int) -> GraphSearcher:
    return GraphSearcher(index, ef=32, per_config=16, budget=max(6 * 32, n_users // 20))


def _fail(report, what: str) -> None:
    """Count one failed operation and keep its traceback on stderr."""
    report.failed_ops += 1
    if report.failed_ops <= 3:
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()


@contextmanager
def _clock_stopped(tracer):
    """Oracles run untraced; callers also keep them out of the wall."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def _p50_ms(seconds) -> float | None:
    value = percentile(seconds, 50.0)
    return None if value is None else value * 1e3


def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def _recall(truth_ids: np.ndarray, found_ids: np.ndarray) -> float:
    return float(np.isin(truth_ids, found_ids).mean()) if truth_ids.size else 1.0


# ----------------------------------------------------------------------
# build: the paper's batch C² run
# ----------------------------------------------------------------------


def sampled_quality(dataset, graph, k: int, users: np.ndarray) -> float:
    """The paper's quality (Eq. 2) estimated on a sample of users.

    Ratio of the summed exact Jaccard of the graph's edges to that of
    the exact top-``k`` neighbours, both over ``users`` — the paper's
    ``avg_sim(G) / avg_sim(G_exact)`` with the sums restricted to the
    sample, so no all-pairs ground truth is needed.
    """
    n = dataset.n_users
    everyone = np.arange(n, dtype=np.int64)
    approx = exact = 0.0
    for chunk in np.array_split(users, max(1, -(-users.size // 200))):
        sims = jaccard_block(dataset, chunk, everyone)
        sims[np.arange(chunk.size), chunk] = -1.0  # not your own neighbour
        exact += float(np.partition(sims, n - k, axis=1)[:, n - k:].clip(min=0).sum())
        for u in chunk:
            nbrs = graph.neighbors(int(u))
            if nbrs.size:
                approx += float(jaccard_one_to_many(dataset, int(u), nbrs).sum())
    return approx / exact if exact else 1.0


class Build:
    """``cluster_and_conquer`` on the dense ml10M stand-in, one per episode."""

    name = "build"

    def episodes(self, seconds: int, size: Size) -> int:
        return 2 if size.toy_ops else max(1, round(seconds / BUILD_SECONDS))

    def setup(self, seed: int, episode: int, seconds: int, size: Size):
        sub = episode_seed(seed, episode)
        dataset = load("ml10M", scale=size.build_scale, seed=sub)
        engine = make_engine(dataset, backend="goldfinger", n_bits=1024)
        return SimpleNamespace(
            seed=sub, size=size, dataset=dataset, counted=engine,
            params=scaled_c2_params("ml10M", size.build_scale, n_workers=_workers()),
        )

    def start(self):
        return SimpleNamespace(walls=[], users=[], comparisons=[], scan=[], quality=[],
                               sampled=0, clusters=[], max_cluster=[])

    def measure(self, state, acc, report, tracer) -> None:
        dataset, params = state.dataset, state.params
        n = dataset.n_users
        gc.collect()
        if tracer is not None:
            tracer.op = len(acc.walls)
        report.ops += 1
        t0 = perf_counter()
        try:
            result = cluster_and_conquer(state.counted, params)
        except Exception:
            _fail(report, "cluster_and_conquer")
            return
        acc.walls.append(perf_counter() - t0)
        acc.users.append(n)
        acc.comparisons.append(result.comparisons)
        acc.scan.append(result.comparisons / (n * (n - 1) / 2))
        acc.clusters.append(result.extra["n_clusters"])
        acc.max_cluster.append(result.extra["max_cluster_size"])

        rng = np.random.default_rng((state.seed, 17))
        sample = np.sort(rng.choice(n, size=min(state.size.quality_sample, n), replace=False))
        quality = sampled_quality(dataset, result.graph, params.k, sample)
        acc.quality.append(quality)
        acc.sampled += sample.size
        report.check(f"build_quality[{len(acc.walls) - 1}]", quality >= BUILD_QUALITY_FLOOR,
                     f"{quality:.4f} >= {BUILD_QUALITY_FLOOR}")

    def finish(self, acc, report) -> dict:
        builds, wall = len(acc.walls), sum(acc.walls)
        users = sum(acc.users)
        comparisons = sum(acc.comparisons)
        build_s = _mean(acc.walls)
        quality = _mean(acc.quality)
        report.add("latency_ms", None if build_s is None else build_s * 1e3, "ms", builds,
                   "mean wall of one build")
        report.add("ops_s", users / wall if wall else None, "1/s", builds,
                   "users indexed per second")
        report.add("quality", quality, "ratio", acc.sampled,
                   "paper Eq. 2 on seeded user samples")
        report.add("evals_per_op", comparisons / users if users else None, "count", builds,
                   "comparisons per user indexed")
        report.add("build_s", build_s, "s", builds)
        report.add("build_quality", quality, "ratio", acc.sampled)
        report.add("build_scan_rate", _mean(acc.scan), "ratio", builds,
                   "comparisons / (n(n-1)/2)")
        report.add("build_comparisons", _mean(acc.comparisons), "count", builds)
        report.add("users", _mean(acc.users), "count", builds)
        report.add("clusters", _mean(acc.clusters), "count", builds)
        report.add("max_cluster_size", _mean(acc.max_cluster), "count", builds)
        return {
            "wall_s": wall,
            "counters": {"evaluations": comparisons, "builds": builds},
            "counts": {"build_comparisons": acc.comparisons},
        }

    def teardown(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# read: unique held-out queries, no writes
# ----------------------------------------------------------------------


class Read:
    """``QueryEngine.search`` over a static exact-backend index."""

    name = "read"

    def episodes(self, seconds: int, size: Size) -> int:
        return 1

    def setup(self, seed: int, episode: int, seconds: int, size: Size):
        sub = episode_seed(seed, episode)
        n_users = size.read_users
        n_queries = size.toy_ops or READ_QPS * seconds
        dataset, held_out = community_population(n_users, n_queries, sub)
        seen, queries = set(), []
        for profile in held_out:  # every query unique: the cache never hits
            key = np.unique(profile).tobytes()
            if key not in seen:
                seen.add(key)
                queries.append(profile)
        index = OnlineIndex.build(dataset, params=serving_params(n_users), backend="exact")
        index.reverse_index()
        engine = QueryEngine(index, k=TOP_K, searcher=_searcher(index, n_users))
        return SimpleNamespace(seed=sub, size=size, index=index, engine=engine,
                               counted=index.engine, queries=queries)

    def start(self):
        return SimpleNamespace(latencies=[], recalls=[], wall=0.0, evaluations=0, hops=0,
                               queries=0, hits=0, evictions=0)

    def measure(self, state, acc, report, tracer) -> None:
        index, engine, queries = state.index, state.engine, state.queries
        results = []
        before = index.engine.comparisons
        gc.collect()
        t_start = perf_counter()
        for profile in queries:
            if tracer is not None:
                tracer.op = len(acc.latencies)
            report.ops += 1
            t0 = perf_counter()
            try:
                result = engine.search(profile)
            except Exception:
                _fail(report, "search")
                result = None
            acc.latencies.append(perf_counter() - t0)
            results.append(result)
        acc.wall += perf_counter() - t_start
        acc.evaluations += index.engine.comparisons - before
        acc.hops += sum(r.hops for r in results if r is not None)

        # Oracle, clock stopped: brute force on a seeded query sample.
        rng = np.random.default_rng((state.seed, 23))
        picks = rng.choice(len(queries), size=min(state.size.recall_sample, len(queries)),
                           replace=False)
        with _clock_stopped(tracer):
            acc.recalls += [
                _recall(brute_force_top_k(index.engine, queries[i], k=TOP_K).ids,
                        results[i].ids)
                for i in picks if results[i] is not None
            ]
        stats = engine.stats()
        acc.queries += stats["queries_total"]
        acc.hits += stats["cache_hits_total"]
        acc.evictions += stats["evictions_total"]

    def finish(self, acc, report) -> dict:
        n = len(acc.latencies)
        recall = _mean(acc.recalls)
        report.add("latency_ms", _p50_ms(acc.latencies), "ms", n, "median query")
        report.add("ops_s", n / acc.wall, "1/s", n, "queries per second")
        report.add("quality", recall, "ratio", len(acc.recalls), "recall@10 vs brute force")
        report.add("evals_per_op", acc.evaluations / n, "count", n, "evaluations per query")
        report.latency("query", acc.latencies)
        report.add("recall_at_10", recall, "ratio", len(acc.recalls))
        report.add("evals_per_query", acc.evaluations / n, "count", n)
        report.add("hops_per_query", acc.hops / n, "count", n)
        report.add("cache_hits", acc.hits, "count", n)
        report.check("recall_at_10", recall is not None and recall >= READ_RECALL_FLOOR,
                     f"{recall:.4f} >= {READ_RECALL_FLOOR}")
        report.check("no_cache_hits", acc.hits == 0,
                     f"{acc.hits} hits on {n} unique queries")
        return {
            "wall_s": acc.wall,
            "counters": {
                "evaluations": acc.evaluations,
                "cache_queries": acc.queries,
                "cache_hits": acc.hits,
                "evictions": acc.evictions,
            },
            "counts": {"evaluations": acc.evaluations, "hops": acc.hops},
        }

    def teardown(self, state) -> None:
        state.engine.close()


# ----------------------------------------------------------------------
# churn: write-heavy tape, Zipf reads, WAL, crash and recovery
# ----------------------------------------------------------------------


def churn_tape(dataset, pool, n_ops: int, seed: int):
    """``SustainedChurn`` writes with Zipf-popular reads from ``pool``.

    Drawn against a :class:`SimWorld` mirror of the initial population,
    so the tape is fixed before the clock starts; each entry is
    ``(op, uid)`` where ``uid`` is the id the index must hand out for
    an ``add_user`` (checked while the tape runs).
    """
    scenario = SustainedChurn(n_ops=n_ops, seed=seed)
    world = SimWorld([dataset.profile(u) for u in range(dataset.n_users)], dataset.n_items)
    rng = np.random.default_rng((seed, 31))
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64) ** -1.1
    ranks /= ranks.sum()
    tape = []
    for op in scenario.ops(world):
        if op.kind == "query":
            op = Op("query", profile=pool[int(rng.choice(len(pool), p=ranks))])
        world.apply(op)
        tape.append((op, world.last_uid if op.kind == "add_user" else -1))
    return tape


class Churn:
    """Writes racing cached reads on a durable index, then crash-recovery."""

    name = "churn"
    probe_every = 10  # every 10th query is checked against brute force

    def episodes(self, seconds: int, size: Size) -> int:
        return 2 if size.toy_ops else max(1, round(CHURN_OPS * seconds / CHURN_EPISODE_OPS))

    def setup(self, seed: int, episode: int, seconds: int, size: Size):
        sub = episode_seed(seed, episode)
        dataset, pool = community_population(size.churn_users, size.churn_pool, sub)
        params = serving_params(size.churn_users).with_(split_threshold=60)
        index = OnlineIndex.build(dataset, params=params, backend="exact", update_cap=96)
        index.reverse_index()
        engine = QueryEngine(index, k=TOP_K, searcher=_searcher(index, size.churn_users))
        out_dir = Path(__file__).resolve().parent.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=out_dir))
        durable = DurableIndex(index, wal_dir, checkpoint_bytes=0,
                               background_checkpoints=False, fsync=False)
        tape = churn_tape(dataset, pool, size.toy_ops or CHURN_EPISODE_OPS, sub)
        return SimpleNamespace(seed=sub, size=size, index=index, engine=engine,
                               counted=index.engine, durable=durable, wal_dir=wal_dir,
                               tape=tape, recovered=None)

    def start(self):
        return SimpleNamespace(
            query_lat=[], write_lat=[], recalls=[], recover_s=[], wall=0.0,
            query_evals=0, write_evals=0, hops=0, wal_bytes=0, resplits=0,
            resplit_moved=0, update_comparisons=0, oversized=0,
            queries=0, hits=0, evictions=0,
        )

    def measure(self, state, acc, report, tracer) -> None:
        index, engine, durable = state.index, state.engine, state.durable
        counted = index.engine
        stats0, wal0 = index.stats(), durable.wal.size_bytes()
        oracle_s = 0.0
        n_queries = 0
        gc.collect()
        t_start = perf_counter()
        for op, uid in state.tape:
            if tracer is not None:
                tracer.op = len(acc.query_lat) + len(acc.write_lat)
            report.ops += 1
            before = counted.comparisons
            t0 = perf_counter()
            result = None
            try:
                if op.kind == "query":
                    hits = engine.cache_hits
                    result = engine.search(op.profile)
                    cached = engine.cache_hits > hits
                elif op.kind == "add_user":
                    if index.add_user(op.items) != uid:
                        report.failed_ops += 1
                elif op.kind == "add_items":
                    index.add_items(op.user, op.items)
                else:
                    index.remove_user(op.user)
            except Exception:
                _fail(report, op.kind)
            elapsed = perf_counter() - t0
            spent = counted.comparisons - before
            if op.kind != "query":
                acc.write_lat.append(elapsed)
                acc.write_evals += spent
                continue
            acc.query_lat.append(elapsed)
            acc.query_evals += spent
            n_queries += 1
            if result is None:
                continue
            acc.hops += result.hops
            if n_queries % self.probe_every == 0:
                t1 = perf_counter()
                with _clock_stopped(tracer):  # its evaluations fall outside `spent`
                    truth = brute_force_top_k(counted, op.profile, k=TOP_K)
                acc.recalls.append((_recall(truth.ids, result.ids), cached))
                oracle_s += perf_counter() - t1
        acc.wall += perf_counter() - t_start - oracle_s

        stats, estats = index.stats(), engine.stats()
        acc.wal_bytes += durable.wal.size_bytes() - wal0
        acc.resplits += stats["resplits_total"] - stats0["resplits_total"]
        acc.resplit_moved += stats["resplit_moved"] - stats0["resplit_moved"]
        acc.update_comparisons += stats["update_comparisons"] - stats0["update_comparisons"]
        acc.oversized += stats["oversized"]
        acc.queries += estats["queries_total"]
        acc.hits += estats["cache_hits_total"]
        acc.evictions += estats["evictions_total"]
        episode = len(acc.recover_s)
        report.check(
            f"reverse_index[{episode}]",
            index.reverse_index() == ReverseAdjacency.from_heaps(index.graph.heaps),
            "maintained in-edges == ReverseAdjacency.from_heaps at tape end",
        )

        # Crash: the live process is gone without a checkpoint; every
        # append was flushed to the OS, so the WAL holds the whole tape.
        version, digest = index.version, edge_digest(index.graph.heaps)
        engine.close()
        durable.close()
        t0 = perf_counter()
        try:
            state.recovered = DurableIndex.recover(
                state.wal_dir, checkpoint_bytes=0, background_checkpoints=False
            )
        except Exception:
            _fail(report, "recover")
        recover_s = perf_counter() - t0
        acc.recover_s.append(recover_s)
        acc.wall += recover_s
        rec = state.recovered
        parity = rec is not None and (
            rec.index.version == version and edge_digest(rec.index.graph.heaps) == digest
        )
        report.check(f"recovery_parity[{episode}]", parity,
                     f"version {version} and edge digest match after recovery")
        report.check(f"recovery_evaluations[{episode}]",
                     rec is not None and rec.recovery.evaluations == 0,
                     "WAL replay charges no similarity evaluations")

    def finish(self, acc, report) -> dict:
        writes, n_queries = len(acc.write_lat), len(acc.query_lat)
        n_ops = writes + n_queries
        tape_wall = acc.wall - sum(acc.recover_s)
        recall = _mean([r for r, _ in acc.recalls])
        from_cache = [r for r, cached in acc.recalls if cached]
        walked = [r for r, cached in acc.recalls if not cached]
        evaluations = acc.query_evals + acc.write_evals
        report.add("latency_ms", _p50_ms(acc.write_lat), "ms", writes, "median write")
        report.add("ops_s", n_ops / tape_wall, "1/s", n_ops, "tape operations per second")
        report.add("quality", recall, "ratio", len(acc.recalls), "recall@10 vs brute force")
        report.add("evals_per_op", evaluations / n_ops, "count", n_ops,
                   "evaluations per operation")
        report.latency("query", acc.query_lat)
        report.latency("write", acc.write_lat)
        report.add("recall_at_10", recall, "ratio", len(acc.recalls),
                   f"every {self.probe_every}th query vs brute force on the live index")
        report.add("recall_at_10_cached", _mean(from_cache), "ratio", len(from_cache),
                   "probes answered from the result cache")
        report.add("recall_at_10_walked", _mean(walked), "ratio", len(walked),
                   "probes answered by a graph walk")
        report.add("evals_per_query", acc.query_evals / max(1, n_queries), "count", n_queries)
        report.add("evals_per_write", acc.write_evals / max(1, writes), "count", writes)
        report.add("recover_s", _mean(acc.recover_s), "s", len(acc.recover_s),
                   "snapshot load + WAL replay, mean per episode")
        report.add("resplits", acc.resplits, "count")
        report.add("oversized", acc.oversized, "count", len(acc.recover_s),
                   "clusters over the threshold at tape end")
        report.add("wal_bytes", acc.wal_bytes, "B")
        report.add("cache_hit_rate", acc.hits / max(1, acc.queries), "ratio", acc.queries)
        report.check("recall_at_10", recall is not None and recall >= CHURN_RECALL_FLOOR,
                     f"{recall:.4f} >= {CHURN_RECALL_FLOOR}")
        return {
            "wall_s": acc.wall,
            "counters": {
                "evaluations": evaluations,
                "writes": writes,
                "update_comparisons": acc.update_comparisons,
                "resplits": acc.resplits,
                "resplit_moved": acc.resplit_moved,
                "cache_queries": acc.queries,
                "cache_hits": acc.hits,
                "evictions": acc.evictions,
            },
            "counts": {
                "evaluations": evaluations,
                "resplits": acc.resplits,
                "wal_bytes": acc.wal_bytes,
                "hops": acc.hops,
            },
        }

    def teardown(self, state) -> None:
        state.engine.close()
        state.durable.close()
        if state.recovered is not None:
            state.recovered.close()
        shutil.rmtree(state.wal_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Build(), Read(), Churn())}
