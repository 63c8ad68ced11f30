"""Metrics tour: watch the telemetry layer observe a churning index.

Builds a small synthetic index with every telemetry surface attached —
the process-wide :class:`~repro.obs.MetricsRegistry`, the per-query
:class:`~repro.obs.Tracer` and a :class:`~repro.obs.JournalMetrics`
exporter consuming the mutation journal — then drives a mixed
query/mutation tape through a ``QueryEngine`` with a write-ahead log
(:class:`~repro.persist.DurableIndex`) persisting behind it. Along the
way it prints:

1. a live registry snapshot (stage latencies, cache traffic, journal
   rates, the WAL's consumer lag) mid-tape;
2. the drift between two snapshots — counters are cumulative, so the
   delta is the last window's traffic;
3. a re-split caught in the act: how many cached answers the split
   lineage evicted vs how many stayed warm;
4. the slowest recent query as a nested trace span tree;
5. the same registry exported as Prometheus text (the scrape surface
   ``repro metrics-dump --format prometheus`` serves).

Run:  PYTHONPATH=src python examples/metrics_tour.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import C2Params, obs
from repro.data import SyntheticSpec, generate
from repro.obs import JournalMetrics, format_span
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import QueryEngine

K = 10
N_STEPS = 240


def churn(index, rng) -> None:
    """One random mutation: ratings, a signup, or a deletion."""
    active = index.dataset.active_users()
    op = rng.random()
    if op < 0.5 and active.size:
        user = int(rng.choice(active))
        index.add_items(user, rng.integers(0, index.dataset.n_items, size=3))
    elif op < 0.85:
        index.add_user(rng.integers(0, index.dataset.n_items, size=14))
    elif active.size > 120:
        index.remove_user(int(rng.choice(active)))


def show(title: str, pairs) -> None:
    """Print a two-column block."""
    print(f"\n{title}")
    for name, value in pairs:
        print(f"  {name:<38} {value}")


def main() -> None:
    registry = obs.metrics()  # the process-wide default everything binds to
    tracer = obs.tracer()

    # 1. A low split threshold makes re-splits fire within a short tape.
    spec = SyntheticSpec(
        name="tour", n_users=300, n_items=600, mean_profile_size=24.0,
        n_communities=10, community_pool_size=80, min_profile_size=8,
    )
    dataset = generate(spec, seed=7)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=40, seed=1)
    index = OnlineIndex.build(dataset, params=params)
    index.reverse_index()

    journal = JournalMetrics(index, window_s=300.0)
    engine = QueryEngine(index, k=K, invalidation="partial")
    wal_dir = tempfile.TemporaryDirectory()
    durable = DurableIndex(index, wal_dir.name, background_checkpoints=False)
    # The WAL's seq cursor becomes the journal_lag{consumer="wal"} gauge.
    journal.attach_lag("wal", durable.lag)
    print(f"index built over {dataset}; telemetry attached to every layer")

    rng = np.random.default_rng(13)
    pool = [rng.integers(0, dataset.n_items, size=12) for _ in range(50)]

    def drive(steps: int) -> None:
        for _ in range(steps):
            engine.search(pool[int(rng.integers(0, len(pool)))])
            churn(index, rng)

    hits_key = 'cache_hits_total{frontend="engine"}'
    misses_key = 'cache_misses_total{frontend="engine"}'
    lag_key = 'journal_lag{consumer="wal"}'

    # 2. Half the tape, then a live snapshot.
    drive(N_STEPS // 2)
    journal.collect()
    snap = registry.snapshot()
    hist = snap["histograms"]
    q = hist["serve_query_seconds"]
    walk = hist["serve_walk_seconds"]
    mid = snap["counters"]
    show("mid-tape snapshot", [
        ("walk queries", int(q["count"])),
        ("query p50 / p99 (ms)", f"{q['p50'] * 1e3:.2f} / {q['p99'] * 1e3:.2f}"),
        ("walk-phase p99 (ms)", f"{walk['p99'] * 1e3:.2f}"),
        ("cache hits / misses",
         f"{mid[hits_key]:.0f} / {mid[misses_key]:.0f}"),
        ("journal mutation rate (events/s)",
         f"{snap['gauges']['journal_mutation_rate']:.1f}"),
        ("WAL journal lag (versions)", f"{snap['gauges'][lag_key]:.0f}"),
    ])

    # 3. The rest of the tape; counters are cumulative, so the delta
    #    between snapshots is exactly the second half's traffic.
    drive(N_STEPS // 2)
    journal.collect()
    end = registry.snapshot()["counters"]
    show("drift since mid-tape (counter deltas)", [
        ("queries", int(end["serve_queries_total"] - mid["serve_queries_total"])),
        ("cache hits", int(end[hits_key] - mid[hits_key])),
        ("journal edges added",
         int(end["journal_edges_added_total"] - mid["journal_edges_added_total"])),
    ])

    # 4. Re-splits evict selectively: only answers that routed through
    #    the split cluster lineage, the rest stay warm.
    stats = engine.stats()
    show("re-split-aware cache invalidation", [
        ("re-splits on the tape", index.stats()["resplits_total"]),
        ("entries evicted (split lineage)", stats["resplit_evictions_total"]),
        ("entries kept warm (last re-split)", stats["resplit_kept"]),
    ])

    # 5. One bad query, end to end: the slowest recent root span.
    slow = tracer.slow(1) or tracer.recent(1)
    if slow:
        print("\nslowest recent query (trace span tree)")
        print(format_span(slow[-1], indent=1))

    # 6. The scrape surface: the same registry as Prometheus text.
    lines = registry.to_prometheus().splitlines()
    sample = [ln for ln in lines if ln.startswith("serve_query_seconds_bucket")]
    print("\nprometheus exposition (excerpt)")
    for line in sample[8:14]:
        print(f"  {line}")
    print(f"  ... {len(lines)} lines total "
          "(python -m repro metrics-dump --format prometheus)")

    durable.close()
    wal_dir.cleanup()
    engine.close()
    journal.close()


if __name__ == "__main__":
    main()
