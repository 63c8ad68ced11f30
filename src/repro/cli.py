"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build`` — build a KNN graph with any algorithm on a paper dataset
  (or a saved dataset file) and report time / similarity count /
  quality.
* ``datasets`` — print the Table I statistics of the synthetic
  stand-ins at a given scale.
* ``recall`` — run the Table III recommendation protocol.
* ``update-demo`` — stream profile updates through an ``OnlineIndex``
  and report the incremental cost vs a from-scratch rebuild.
* ``serve-demo`` — answer out-of-sample top-k queries through the
  serving subsystem and report QPS, latency percentiles, recall vs
  brute force and the fraction of similarities evaluated. With
  ``--wal-dir`` the index persists itself (snapshot + delta WAL) and
  ``--restore`` recovers it from there instead of rebuilding;
  ``--metrics`` appends the live telemetry dashboard (registry
  snapshot + slowest trace).
* ``metrics-dump`` — exercise every serving layer (index mutations,
  engine cache, WAL, journal consumer) on a small
  workload, then dump the unified metrics registry as a table,
  Prometheus text exposition or JSON.

Examples::

    python -m repro datasets --scale 0.05
    python -m repro build --dataset ml10M --algo C2 --scale 0.05
    python -m repro build --dataset AM --algo Hyrec --k 20
    python -m repro recall --dataset ml1M --folds 5
    python -m repro update-demo --dataset ml1M --updates 200
    python -m repro serve-demo --dataset ml1M --queries 200 --metrics
    python -m repro metrics-dump --format prometheus
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import obs
from .baselines import brute_force_knn
from .bench.report import format_table
from .bench.runner import ALGORITHMS, evaluate_run, run_algorithm
from .bench.workloads import Workload
from .core import cluster_and_conquer
from .data import dataset_names, describe, load, load_dataset
from .online import OnlineIndex
from .recommend import evaluate_recall
from .serve import GraphSearcher, QueryEngine, brute_force_top_k
from .similarity import make_engine

__all__ = ["main"]


def _load_dataset(args) -> object:
    if args.file:
        return load_dataset(args.file)
    return load(args.dataset, scale=args.scale, seed=args.seed)


def _cmd_datasets(args) -> int:
    rows = []
    for name in dataset_names():
        rows.append(describe(load(name, scale=args.scale, seed=args.seed)).as_row())
    print(format_table(rows, title=f"synthetic datasets at scale={args.scale}"))
    return 0


def _cmd_build(args) -> int:
    dataset = _load_dataset(args)
    workload = Workload(
        dataset=args.dataset,
        scale=args.scale,
        k=args.k,
        seed=args.seed,
        n_workers=args.workers,
    )
    result = run_algorithm(args.algo, dataset, workload)
    if args.no_quality:
        row = {
            "Algo": args.algo,
            "Time (s)": f"{result.seconds:.2f}",
            "Similarities": result.comparisons,
        }
    else:
        row = evaluate_run(args.algo, dataset, workload, result).as_row()
    print(format_table([row], title=f"{args.algo} on {dataset.name}"))
    return 0


def _cmd_recall(args) -> int:
    dataset = _load_dataset(args)
    workload = Workload(dataset=args.dataset, scale=args.scale, k=args.k, seed=args.seed)

    def brute_builder(train):
        return brute_force_knn(make_engine(train), k=args.k).graph

    def c2_builder(train):
        return cluster_and_conquer(make_engine(train), workload.c2_params).graph

    brute = evaluate_recall(dataset, brute_builder, n_folds=args.folds, seed=args.seed)
    c2 = evaluate_recall(dataset, c2_builder, n_folds=args.folds, seed=args.seed)
    print(
        format_table(
            [
                {
                    "Dataset": dataset.name,
                    "Brute force": f"{brute.mean_recall:.3f}",
                    "C2": f"{c2.mean_recall:.3f}",
                    "Delta": f"{c2.mean_recall - brute.mean_recall:+.3f}",
                }
            ],
            title=f"recall @30, {args.folds}-fold CV",
        )
    )
    return 0


def _cmd_update_demo(args) -> int:
    dataset = _load_dataset(args)
    workload = Workload(dataset=args.dataset, scale=args.scale, k=args.k, seed=args.seed)
    params = workload.c2_params
    index = OnlineIndex.build(dataset, params=params)

    rng = np.random.default_rng(args.seed)
    for _ in range(args.updates):
        op = rng.random()
        if op < 0.8:
            user = int(rng.choice(index.dataset.active_users()))
            index.add_items(user, [int(rng.integers(0, dataset.n_items))])
        elif op < 0.9:
            size = int(rng.integers(15, 40))
            index.add_user(rng.integers(0, dataset.n_items, size=size))
        else:
            index.remove_user(int(rng.choice(index.dataset.active_users())))

    rebuild = cluster_and_conquer(make_engine(index.dataset.snapshot()), params)
    stats = index.stats()
    per_update = stats["update_comparisons"] / max(1, stats["mutations_total"])
    print(
        format_table(
            [
                {
                    "Series": "OnlineIndex (incremental)",
                    "Similarities": stats["update_comparisons"],
                    "Per update": f"{per_update:.0f}",
                },
                {
                    "Series": "Full rebuild (batch C2)",
                    "Similarities": rebuild.comparisons,
                    "Per update": f"{rebuild.comparisons:.0f}",
                },
            ],
            title=(
                f"{stats['mutations_total']} mixed updates on {dataset.name} "
                f"({stats['n_active']} active users) — "
                f"{stats['update_comparisons'] / rebuild.comparisons:.1%} "
                "of one rebuild"
            ),
        )
    )
    return 0


def _print_metrics_dashboard(registry, tracer) -> None:
    """Print the registry's latency/counter dashboard plus one trace."""
    snap = registry.snapshot()
    hist_rows = []
    for name, data in sorted(snap["histograms"].items()):
        if not data["count"]:
            continue
        hist_rows.append(
            {
                "Histogram": name,
                "Count": data["count"],
                "p50": f"{data['p50']:.3g}",
                "p99": f"{data['p99']:.3g}",
                "Max": f"{data['max']:.3g}",
            }
        )
    if hist_rows:
        print(format_table(hist_rows, title="latency & size distributions"))
    counter_rows = [
        {"Counter": name, "Value": int(value)}
        for name, value in sorted(snap["counters"].items())
        if value
    ]
    if counter_rows:
        print(format_table(counter_rows, title="counters"))
    gauge_rows = [
        {"Gauge": name, "Value": f"{value:.6g}"}
        for name, value in sorted(snap["gauges"].items())
    ]
    if gauge_rows:
        print(format_table(gauge_rows, title="gauges"))
    slow = tracer.slow(1) or tracer.recent(1)
    if slow:
        print("slowest recent trace:")
        print(obs.format_span(slow[-1], indent=1))


def _cmd_serve_demo(args) -> int:
    dataset = _load_dataset(args)
    workload = Workload(dataset=args.dataset, scale=args.scale, k=args.k, seed=args.seed)
    durable = None
    if args.restore:
        if not args.wal_dir:
            print("--restore requires --wal-dir", file=sys.stderr)
            return 2
        from .persist import DurableIndex

        durable = DurableIndex.recover(args.wal_dir)
        index = durable.index
        info = durable.recovery
        print(
            f"restored from {args.wal_dir}: snapshot seq {info.snapshot_seq} "
            f"+ {info.replayed} WAL deltas replayed in {info.seconds:.3f}s "
            f"({info.evaluations} similarity evaluations) -> version {info.version}"
        )
    else:
        index = OnlineIndex.build(dataset, params=workload.c2_params)
        if args.wal_dir:
            durable = index.attach_persistence(args.wal_dir)
    rerank = None if args.rerank == "none" else args.rerank
    searcher = GraphSearcher(index, ef=args.ef, budget=args.budget, rerank=rerank)
    queries = QueryEngine(index, k=args.topk, searcher=searcher)

    # Out-of-sample query profiles: partial histories of real users (a
    # visitor who rated a subset of what an indexed user rated), drawn
    # from a pool smaller than the stream so the cache sees repeats.
    rng = np.random.default_rng(args.seed)
    pool = []
    for _ in range(max(1, args.queries // 4)):
        base = dataset.profile(int(rng.integers(0, dataset.n_users)))
        keep = rng.random(base.size) > 0.3
        pool.append(base[keep] if keep.any() else base)
    stream = [pool[int(rng.integers(0, len(pool)))] for _ in range(args.queries)]

    latencies = []
    t0 = time.perf_counter()
    for profile in stream:
        t1 = time.perf_counter()
        queries.search(profile)
        latencies.append(time.perf_counter() - t1)
    wall = time.perf_counter() - t0
    latencies = np.array(latencies) * 1e3

    n_active = index.dataset.active_users().size
    sample = pool[: min(50, len(pool))]
    recalls, evals = [], []
    for profile in sample:
        res = searcher.top_k(profile, k=args.topk)
        ref = brute_force_top_k(index.engine, profile, k=args.topk)
        recalls.append(float(np.isin(ref.ids, res.ids).mean()))
        evals.append(res.evaluations)
    stats = queries.stats()
    print(
        format_table(
            [
                {
                    "QPS": f"{args.queries / wall:.0f}",
                    "p50 (ms)": f"{np.percentile(latencies, 50):.2f}",
                    "p95 (ms)": f"{np.percentile(latencies, 95):.2f}",
                    f"Recall@{args.topk}": f"{np.mean(recalls):.3f}",
                    "Evals/query": f"{np.mean(evals):.0f}",
                    "vs brute force": f"{np.mean(evals) / n_active:.1%}",
                    "Cache hits": f"{stats['cache_hits_total']}/{stats['queries_total']}",
                }
            ],
            title=(
                f"serving {args.queries} queries over {dataset.name} "
                f"({n_active} users, k={args.topk})"
            ),
        )
    )
    if durable is not None:
        pstats = durable.stats()
        print(
            format_table(
                [
                    {
                        "WAL records": pstats["appends_total"],
                        "WAL bytes": pstats["bytes"],
                        "Segments": pstats["segments"],
                        "Snapshot seq": pstats["snapshot_seq"],
                        "Checkpoints": pstats["checkpoints_total"],
                        "Version": pstats["version"],
                    }
                ],
                title=f"persistence ({args.wal_dir})",
            )
        )
        durable.close()
    if args.metrics:
        _print_metrics_dashboard(obs.metrics(), obs.tracer())
    queries.close()
    return 0


def _cmd_metrics_dump(args) -> int:
    """Drive all five instrumented layers, then dump the registry."""
    import tempfile

    from .core.config import C2Params
    from .data import SyntheticSpec, generate
    from .obs import JournalMetrics
    from .persist import DurableIndex

    spec = SyntheticSpec(
        name="metricsdump", n_users=args.users, n_items=2 * args.users,
        mean_profile_size=25.0, n_communities=8,
        community_pool_size=max(40, args.users // 3), min_profile_size=8,
    )
    dataset = generate(spec, seed=args.seed)
    params = C2Params(
        k=args.k, n_buckets=64, n_hashes=4,
        split_threshold=max(20, args.users // 5), seed=args.seed,
    )
    index = OnlineIndex.build(dataset, params=params)
    journal = JournalMetrics(index)
    engine = QueryEngine(index, k=10)
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as wal_dir:
        durable = DurableIndex(index, wal_dir, background_checkpoints=False)
        # The WAL's consumer cursor becomes a journal_lag gauge.
        journal.attach_lag("wal", durable.lag)
        pool = [
            dataset.profile(int(rng.integers(0, dataset.n_users)))
            for _ in range(16)
        ]
        for step in range(args.ops):
            engine.search_many([pool[int(rng.integers(0, len(pool)))]])
            op = rng.random()
            if op < 0.5:
                user = int(rng.choice(index.dataset.active_users()))
                index.add_items(user, [int(rng.integers(0, dataset.n_items))])
            elif op < 0.8:
                index.add_user(rng.integers(0, dataset.n_items, size=20))
            else:
                index.remove_user(int(rng.choice(index.dataset.active_users())))
        durable.checkpoint()
        journal.collect()
        durable.close()
    engine.close()
    journal.close()
    registry = obs.metrics()
    if args.format == "prometheus":
        print(registry.to_prometheus())
    elif args.format == "json":
        print(registry.to_json())
    else:
        _print_metrics_dashboard(registry, obs.tracer())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cluster-and-Conquer KNN graph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", default="ml1M", choices=dataset_names())
        p.add_argument("--file", help="load a dataset saved with repro.data.save_dataset")
        p.add_argument("--scale", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--k", type=int, default=30)

    p = sub.add_parser("datasets", help="Table I statistics of the stand-ins")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("build", help="build one KNN graph")
    common(p)
    p.add_argument("--algo", default="C2", choices=sorted(ALGORITHMS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--no-quality",
        action="store_true",
        help="skip the exact-graph quality evaluation (faster)",
    )
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("recall", help="Table III recommendation protocol")
    common(p)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=_cmd_recall)

    p = sub.add_parser(
        "update-demo",
        help="stream online updates through an OnlineIndex vs a rebuild",
    )
    common(p)
    p.add_argument("--updates", type=int, default=100)
    p.set_defaults(fn=_cmd_update_demo)

    p = sub.add_parser(
        "serve-demo",
        help="serve out-of-sample top-k queries and report QPS/recall/cost",
    )
    common(p)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--ef", type=int, default=32)
    p.add_argument("--budget", type=int, default=None,
                   help="hard cap on similarity evaluations per query")
    p.add_argument("--rerank", default="none", choices=["none", "exact"],
                   help="re-score the walk's final frontier with exact similarities")
    p.add_argument("--wal-dir",
                   help="persist the index there (snapshot + delta WAL)")
    p.add_argument("--restore", action="store_true",
                   help="recover the index from --wal-dir (snapshot + WAL tail "
                        "replay) instead of building it")
    p.add_argument("--metrics", action="store_true",
                   help="append the telemetry dashboard (metrics registry "
                        "snapshot + slowest recent trace)")
    p.set_defaults(fn=_cmd_serve_demo)

    p = sub.add_parser(
        "metrics-dump",
        help="exercise every serving layer on a small workload and dump "
             "the unified metrics registry",
    )
    p.add_argument("--users", type=int, default=150)
    p.add_argument("--ops", type=int, default=120,
                   help="mixed query/mutation steps to drive")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", default="table",
                   choices=["table", "prometheus", "json"])
    p.set_defaults(fn=_cmd_metrics_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
