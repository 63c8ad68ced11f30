"""Per-layer probes: which library calls are traced, and what they yield.

:func:`install` wraps one public function or method per layer boundary
at the name its callers look up, so the library runs unmodified.
:data:`PER_LAYER` lists every per-layer metric with the end-to-end
metric it should move, on which workload, and where it should stay
flat — the prediction a change to that layer is judged against.
``BENCHMARK.json`` carries the same names, units and directions.
"""

from __future__ import annotations

import importlib

__all__ = ["LAYERS", "PER_LAYER", "VIEWS", "install", "layer_metrics"]

LAYERS = ("core", "similarity", "online", "serve", "deltas", "graph", "persist")

# Views registered on the delta bus by the workloads, by their names.
VIEWS = ("reverse_adjacency", "result_cache", "durable_wal")

# (name, unit, better, moves, stays flat on)
PER_LAYER: list[tuple[str, str, str, str, str]] = [
    ("core.cluster_s", "s", "lower",
     "latency_ms, ops_s on build (time in cluster_dataset)", "read, churn: 0"),
    ("core.local_knn_s", "s", "lower",
     "latency_ms, ops_s on build (time in run_clusters)", "read, churn: 0"),
    ("core.merge_s", "s", "lower",
     "latency_ms, ops_s on build (time in merge_partials)", "read, churn: 0"),
    ("core.clusters", "count", "lower",
     "latency_ms, evals_per_op on build (clusters per build)", "read, churn: 0"),
    ("core.max_cluster_size", "count", "lower",
     "latency_ms, evals_per_op on build", "read, churn: 0"),
    ("core.local_comparisons", "count", "lower",
     "evals_per_op, latency_ms on build (per build)", "read, churn: 0"),
    ("core.merge_offers", "count", "lower",
     "latency_ms on build (edges handed to the merge, per build)", "read, churn: 0"),
    ("core.split_s", "s", "lower",
     "write_p99_ms, ops_s on churn (H-eta re-hash of a re-split)",
     "read: 0; on build it is part of core.cluster_s"),
    ("core.split_calls", "count", "lower",
     "write_p99_ms on churn", "read: 0"),
    ("similarity.evaluations", "count", "lower",
     "evals_per_op on every workload", "-"),
    ("similarity.query_many_s", "s", "lower",
     "latency_ms on read", "build: 0"),
    ("similarity.query_many_calls", "count", "lower",
     "latency_ms on read", "build: 0"),
    ("similarity.one_to_many_s", "s", "lower",
     "latency_ms (write p50) on churn", "read: 0"),
    ("online.route_s", "s", "lower",
     "latency_ms on read (time in seed_candidates)", "build: 0"),
    ("online.add_user_s", "s", "lower",
     "latency_ms on churn (self time, publish excluded)", "read, build: 0"),
    ("online.add_items_s", "s", "lower",
     "latency_ms on churn (self time, publish excluded)", "read, build: 0"),
    ("online.remove_user_s", "s", "lower",
     "latency_ms on churn (self time, publish excluded)", "read, build: 0"),
    ("online.update_comparisons_per_write", "count", "lower",
     "latency_ms, evals_per_op on churn", "read, build: 0"),
    ("online.resplits", "count", "lower",
     "write_p99_ms, quality on churn", "read, build: 0"),
    ("online.resplit_moved", "count", "lower",
     "write_p99_ms, quality on churn", "read, build: 0"),
    ("serve.search_self_s", "s", "lower",
     "latency_ms on read (top_k minus route and scoring)", "build: 0"),
    ("serve.engine_self_s", "s", "lower",
     "ops_s on churn (QueryEngine.search outside top_k)", "build: 0"),
    ("serve.hops_per_walk", "count", "lower",
     "latency_ms, evals_per_op on read", "build: 0"),
    ("serve.evals_per_walk", "count", "lower",
     "latency_ms, evals_per_op on read", "build: 0"),
    ("serve.cache_hit_rate", "ratio", "higher",
     "ops_s on churn (hits / serve.cache_queries)", "read: 0 by construction"),
    ("serve.cache_queries", "count", "higher",
     "base of serve.cache_hit_rate", "build: 0"),
    ("serve.evictions", "count", "lower",
     "ops_s on churn", "read, build: 0"),
    ("deltas.published", "count", "lower",
     "latency_ms on churn", "read, build: 0"),
    ("deltas.publish_self_s", "s", "lower",
     "latency_ms on churn", "read, build: 0"),
    *[
        (f"deltas.view_apply_s.{view}", "s", "lower",
         "latency_ms on churn (time in the view's apply)", "read, build: 0")
        for view in VIEWS
    ],
    ("graph.edges_per_delta", "count", "lower",
     "latency_ms, recover_s on churn", "read, build: 0"),
    ("graph.heap_update_s", "s", "lower",
     "latency_ms on churn (KNNGraph write calls)", "read, build: 0"),
    ("persist.wal_append_s", "s", "lower",
     "latency_ms on churn", "read, build: 0"),
    ("persist.wal_bytes_per_write", "B", "lower",
     "latency_ms, recover_s on churn", "read, build: 0"),
    ("persist.snapshot_load_s", "s", "lower",
     "recover_s on churn (time in SnapshotStore.load_latest)", "read, build: 0"),
    ("persist.replay_s", "s", "lower",
     "recover_s on churn (time in OnlineIndex.apply_delta)", "read, build: 0"),
    ("persist.replayed", "count", "lower",
     "recover_s on churn", "read, build: 0"),
    *[
        (f"{layer}.self_s", "s", "lower",
         "the traced wall: layer self times + trace.unattributed_s = trace.wall_s",
         "-")
        for layer in LAYERS
    ],
    ("trace.wall_s", "s", "lower", "the traced measured phase", "-"),
    ("trace.unattributed_s", "s", "lower", "wall not covered by any layer", "-"),
    ("trace.overhead_pct", "%", "lower",
     "traced minus untraced wall, sign kept", "-"),
]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer, engine) -> None:
    """Wrap every layer boundary; ``engine`` is the counted similarity engine."""
    from repro.core.fastrandomhash import FastRandomHash
    from repro.deltas.bus import DeltaBus
    from repro.deltas.view import DerivedView
    from repro.graph.heap import EMPTY
    from repro.graph.knn_graph import KNNGraph
    from repro.online.index import OnlineIndex
    from repro.persist.durable import DurableIndex
    from repro.persist.snapshot import SnapshotStore
    from repro.persist.wal import WriteAheadLog
    from repro.serve.engine import QueryEngine
    from repro.serve.searcher import GraphSearcher
    from repro.similarity.engine import SimilarityEngine

    # ``repro.core`` re-exports the function under the module's own name.
    c2 = importlib.import_module("repro.core.cluster_and_conquer")

    def clusters(counts, args, result, _):
        counts["core.clusters"] += len(result.clusters)
        sizes = result.sizes()
        if sizes.size:
            counts["core.max_cluster_size"] = max(
                counts["core.max_cluster_size"], float(sizes[0])
            )

    def local(counts, args, result, before):
        counts["core.local_comparisons"] += engine.comparisons - before

    def offers(counts, args, result, _):
        counts["core.merge_offers"] += sum(
            int((p.ids != EMPTY).sum()) for p in args[0]
        )

    def walk(counts, args, result, _):
        counts["serve.walks"] += 1
        counts["serve.hops"] += result.hops
        counts["serve.walk_evals"] += result.evaluations

    def edges(counts, args, result, _):
        counts["graph.delta_edges"] += len(args[1].edges)

    def wal_bytes(counts, args, result, _):
        counts["persist.wal_bytes"] += len(args[2])

    def replayed(counts, args, result, _):
        counts["persist.replayed"] += bool(result)

    wrap = tracer.wrap
    wrap(c2, "cluster_dataset", "core.cluster", count=clusters)
    # Worker threads score clusters concurrently; their spans are not
    # recorded, and with one worker the inline solves stay opaque too.
    wrap(c2, "run_clusters", "core.local_knn", count=local,
         before=lambda args: engine.comparisons, opaque=True)
    wrap(c2, "merge_partials", "core.merge", count=offers)
    wrap(FastRandomHash, "user_hashes_excluding", "core.split")
    wrap(SimilarityEngine, "query_many", "similarity.query_many")
    wrap(SimilarityEngine, "one_to_many", "similarity.one_to_many")
    wrap(OnlineIndex, "seed_candidates", "online.route")
    for op in ("add_user", "add_items", "remove_user", "refill"):
        wrap(OnlineIndex, op, f"online.{op}")
    wrap(OnlineIndex, "apply_delta", "persist.replay", count=replayed)
    wrap(QueryEngine, "search", "serve.engine")
    wrap(GraphSearcher, "top_k", "serve.search", count=walk)
    wrap(DeltaBus, "publish", "deltas.publish", count=edges)
    wrap(DerivedView, "_deliver", lambda args: f"deltas.view_apply.{args[0].name}")
    for op in ("rescore_user", "offer_reverse", "remove_user"):
        wrap(KNNGraph, op, "graph.heap_update")
    wrap(WriteAheadLog, "append", "persist.wal_append", count=wal_bytes)
    wrap(SnapshotStore, "load_latest", "persist.snapshot_load")
    wrap(DurableIndex, "recover", "persist.recover")


def layer_metrics(summary: dict, counts: dict, counters: dict, layer_self: dict,
                  wall_s: float, unattributed_s: float, overhead_pct: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``summary`` is :func:`~perfbench.tracing.summarize` output,
    ``counts`` the tracer's call-site counts, ``counters`` the program
    counters the workload read (evaluations, writes, cache and re-split
    totals, builds).
    """

    def incl(name):
        return summary.get(name, {}).get("inclusive_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    builds = counters.get("builds", 0)
    writes = counters.get("writes", 0)
    published = calls("deltas.publish")
    appends = calls("persist.wal_append")
    out = {
        "core.cluster_s": incl("core.cluster"),
        "core.local_knn_s": incl("core.local_knn"),
        "core.merge_s": incl("core.merge"),
        "core.clusters": _per(counts.get("core.clusters", 0), builds),
        "core.max_cluster_size": counts.get("core.max_cluster_size", 0),
        "core.local_comparisons": _per(counts.get("core.local_comparisons", 0), builds),
        "core.merge_offers": _per(counts.get("core.merge_offers", 0), builds),
        "core.split_s": incl("core.split"),
        "core.split_calls": calls("core.split"),
        "similarity.evaluations": counters.get("evaluations", 0),
        "similarity.query_many_s": incl("similarity.query_many"),
        "similarity.query_many_calls": calls("similarity.query_many"),
        "similarity.one_to_many_s": incl("similarity.one_to_many"),
        "online.route_s": incl("online.route"),
        "online.add_user_s": own("online.add_user"),
        "online.add_items_s": own("online.add_items"),
        "online.remove_user_s": own("online.remove_user"),
        "online.update_comparisons_per_write": _per(
            counters.get("update_comparisons", 0), writes
        ),
        "online.resplits": counters.get("resplits", 0),
        "online.resplit_moved": counters.get("resplit_moved", 0),
        "serve.search_self_s": own("serve.search"),
        "serve.engine_self_s": own("serve.engine"),
        "serve.hops_per_walk": _per(counts.get("serve.hops", 0), counts.get("serve.walks", 0)),
        "serve.evals_per_walk": _per(
            counts.get("serve.walk_evals", 0), counts.get("serve.walks", 0)
        ),
        "serve.cache_hit_rate": _per(
            counters.get("cache_hits", 0), counters.get("cache_queries", 0)
        ),
        "serve.cache_queries": counters.get("cache_queries", 0),
        "serve.evictions": counters.get("evictions", 0),
        "deltas.published": published,
        "deltas.publish_self_s": own("deltas.publish"),
        **{
            f"deltas.view_apply_s.{view}": incl(f"deltas.view_apply.{view}")
            for view in VIEWS
        },
        "graph.edges_per_delta": _per(counts.get("graph.delta_edges", 0), published),
        "graph.heap_update_s": incl("graph.heap_update"),
        "persist.wal_append_s": incl("persist.wal_append"),
        "persist.wal_bytes_per_write": _per(counts.get("persist.wal_bytes", 0), appends),
        "persist.snapshot_load_s": incl("persist.snapshot_load"),
        "persist.replay_s": incl("persist.replay"),
        "persist.replayed": counts.get("persist.replayed", 0),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed_s,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(value) for name, value in out.items()}
