"""Unit tests for the telemetry layer (``repro.obs``).

Covers the histogram quantile math against numpy ground truth, exact
totals under thread contention, tracer span nesting and ring buffers,
the disabled (null) fast paths, the exposition formats, the canonical
stats-key aliasing helper, and the re-split-aware selective cache
eviction the engine layer builds on top of the metrics.
"""

import json
import threading

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    JournalMetrics,
    MetricsRegistry,
    Tracer,
    format_span,
)
from repro.online import OnlineIndex
from repro.serve import QueryEngine


# ----------------------------------------------------------------------
# Histogram math
# ----------------------------------------------------------------------


def test_histogram_percentiles_track_numpy():
    """Bucketed estimates stay within one bucket width of exact quantiles."""
    rng = np.random.default_rng(7)
    samples = rng.lognormal(mean=-6.0, sigma=1.0, size=20_000)  # ~ms latencies
    hist = Histogram("lat", bounds=LATENCY_BUCKETS)
    for s in samples:
        hist.observe(float(s))
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = float(np.quantile(samples, q))
        est = hist.percentile(q)
        # Factor-2 buckets: the estimate lands in the right bucket, so it
        # is within [exact/2, exact*2] — and clamped to the true range.
        assert exact / 2 <= est <= exact * 2, (q, exact, est)
        assert samples.min() <= est <= samples.max()


def test_histogram_percentile_clamps_to_observed_range():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for v in (1.5, 1.6, 1.7):
        hist.observe(v)
    assert hist.percentile(0.001) >= 1.5
    assert hist.percentile(1.0) <= 1.7


def test_histogram_overflow_bucket_reports_max():
    hist = Histogram("h", bounds=(1.0,))
    hist.observe(50.0)
    hist.observe(90.0)
    assert hist.percentile(0.99) == 90.0
    assert hist.count == 2


def test_histogram_snapshot_shape():
    hist = Histogram("h", bounds=COUNT_BUCKETS)
    for v in (1, 2, 3, 100):
        hist.observe(v)
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(106.0)
    assert snap["min"] == 1.0 and snap["max"] == 100.0
    assert set(snap) >= {"p50", "p90", "p99", "p999"}


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 2.0)).percentile(0.0)


# ----------------------------------------------------------------------
# Thread safety: exact totals under contention
# ----------------------------------------------------------------------


def test_concurrent_observations_are_exact():
    """No lost updates: totals are exact after 8 threads × 2000 ops."""
    registry = MetricsRegistry()
    counter = registry.counter("ops_total")
    hist = registry.histogram("lat", bounds=LATENCY_BUCKETS)
    n_threads, per_thread = 8, 2000

    def work(tid):
        for i in range(per_thread):
            counter.inc()
            hist.observe(1e-4 * ((tid + i) % 7 + 1))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n_threads * per_thread
    assert hist.count == n_threads * per_thread
    # Cumulative bucket counts are monotone and end at the total.
    cum = [c for _, c in hist.bucket_counts()]
    assert cum == sorted(cum)
    assert cum[-1] == n_threads * per_thread


def test_registry_get_or_create_is_stable_across_threads():
    registry = MetricsRegistry()
    handles = []

    def grab():
        handles.append(registry.counter("shared", shard=1))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(h is handles[0] for h in handles)


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


# ----------------------------------------------------------------------
# Disabled fast paths
# ----------------------------------------------------------------------


def test_disabled_registry_hands_out_noops():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("a")
    h = registry.histogram("b")
    c.inc(5)
    h.observe(1.0)
    assert c.value == 0.0 and h.count == 0
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert registry.to_prometheus() == ""


def test_disabled_tracer_yields_shared_null_span():
    tracer = Tracer(enabled=False)
    with tracer.span("a") as sa:
        with tracer.span("b") as sb:
            sb.note(x=1)
    assert sa is sb
    assert sa.tags == {}
    assert tracer.recent() == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_spans_nest_into_a_tree():
    tracer = Tracer(slow_ms=0.0)
    with tracer.span("query", k=10):
        with tracer.span("search"):
            with tracer.span("walk") as walk:
                walk.note(hops=3)
        with tracer.span("cache_store"):
            pass
    (root,) = tracer.recent(1)
    assert root.name == "query" and root.tags == {"k": 10}
    assert [c.name for c in root.children] == ["search", "cache_store"]
    assert root.children[0].children[0].tags == {"hops": 3}
    assert root.duration >= root.children[0].duration >= 0.0
    # Root crossed slow_ms=0, so it is also in the slow log.
    assert tracer.slow(1)[0] is root
    rendered = format_span(root)
    assert "query" in rendered and "walk" in rendered and "hops=3" in rendered


def test_span_stack_unwinds_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    # Both spans closed; a fresh span is a root again.
    with tracer.span("next"):
        pass
    assert tracer.recent(1)[0].name == "next"


def test_ring_buffer_keeps_most_recent():
    tracer = Tracer(capacity=4, slow_ms=1e9)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    names = [s.name for s in tracer.recent()]
    assert names == ["s9", "s8", "s7", "s6"]
    assert tracer.slow() == []  # nothing crossed the slow threshold
    tracer.clear()
    assert tracer.recent() == []


def test_span_to_dict_roundtrips_to_json():
    tracer = Tracer()
    with tracer.span("query", k=5):
        with tracer.span("walk"):
            pass
    tree = tracer.recent(1)[0].to_dict()
    parsed = json.loads(json.dumps(tree))
    assert parsed["name"] == "query"
    assert parsed["children"][0]["name"] == "walk"
    assert parsed["duration_ms"] >= parsed["children"][0]["duration_ms"]


# ----------------------------------------------------------------------
# Exposition formats
# ----------------------------------------------------------------------


def test_prometheus_exposition_shape():
    registry = MetricsRegistry()
    registry.counter("reqs_total", frontend="engine").inc(3)
    registry.gauge("lag").set(2)
    registry.histogram("lat", bounds=(0.1, 1.0)).observe(0.05)
    text = registry.to_prometheus()
    assert '# TYPE reqs_total counter' in text
    assert 'reqs_total{frontend="engine"} 3' in text
    assert "# TYPE lag gauge" in text and "lag 2" in text
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text


def test_json_export_matches_snapshot():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    assert json.loads(registry.to_json()) == registry.snapshot()


# ----------------------------------------------------------------------
# Journal metrics + selective re-split eviction (integration-ish units)
# ----------------------------------------------------------------------


def _small_index(seed=3, split_threshold=60):
    spec = SyntheticSpec(
        name="obs", n_users=120, n_items=260, mean_profile_size=22.0,
        n_communities=6, community_pool_size=50, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(
        k=6, n_buckets=64, n_hashes=4, split_threshold=split_threshold, seed=1
    )
    return OnlineIndex.build(dataset, params=params)


def test_journal_metrics_counts_match_ops():
    index = _small_index()
    registry = MetricsRegistry()
    jm = JournalMetrics(index, registry=registry)
    try:
        rng = np.random.default_rng(5)
        for _ in range(10):
            user = int(rng.choice(index.dataset.active_users()))
            index.add_items(user, rng.integers(0, index.dataset.n_items, size=2))
        for _ in range(4):
            index.add_user(rng.integers(0, index.dataset.n_items, size=12))
        counts = jm.counts()
        assert counts["add_items"] == 10
        assert counts["add_user"] == 4
        assert registry.counter("journal_mutations_total", op="add_items").value == 10
        assert jm.seq == index.version
        assert jm.mutation_rate() > 0.0
        jm.collect()
        assert registry.gauge("journal_clusters").value == index.stats()["clusters"]
    finally:
        jm.close()
    # After close the journal no longer feeds the consumer.
    index.add_user(np.arange(10))
    assert jm.counts().get("add_user", 0) == 4


def test_journal_lag_sources_become_gauges():
    index = _small_index()
    registry = MetricsRegistry()
    jm = JournalMetrics(index, registry=registry)
    try:
        jm.attach_lag("wal", lambda: 3)
        jm.collect()
        assert registry.gauge("journal_lag", consumer="wal").value == 3.0
    finally:
        jm.close()


def test_resplit_evicts_only_split_lineage():
    """A re-split drops routed-through entries and keeps the rest warm."""
    index = _small_index(split_threshold=30)
    registry = MetricsRegistry()
    engine = QueryEngine(index, k=6, invalidation="partial", registry=registry)
    try:
        rng = np.random.default_rng(9)
        pool = [
            rng.integers(0, index.dataset.n_items, size=12) for _ in range(60)
        ]
        resplit_stats = None
        for step in range(400):
            for profile in pool:
                engine.search(profile)
            index.add_user(rng.integers(0, index.dataset.n_items, size=14))
            if index.stats()["resplits_total"] > 0:
                resplit_stats = engine.stats()
                break
        assert resplit_stats is not None, "tape never re-split"
        assert (
            resplit_stats["resplit_evictions_total"]
            + resplit_stats["resplit_kept"]
            > 0
        )
        assert resplit_stats["resplit_kept"] > 0, "re-split cleared everything"
        assert (
            registry.counter(
                "cache_resplit_evictions_total", frontend="engine"
            ).value
            == resplit_stats["resplit_evictions_total"]
        )
    finally:
        engine.close()
