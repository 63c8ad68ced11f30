"""Property tests for the telemetry layer (repro.obs, PR 7).

Randomized programs (fixed seeds, no hypothesis dependency) checked
against strict oracles:

* a random recursive span program executed through :class:`Tracer`
  reconstructs **exactly** the tree that generated it — names, order,
  nesting — and every parent's duration bounds its children's sum;
* a random mutation tape folded by :class:`JournalMetrics` produces
  per-op counts, edge-delta totals and a re-split counter equal to
  ground truth recomputed independently from the same journal events
  and the index's own accounting;
* random latency samples pushed through the fixed-bucket
  :class:`Histogram` yield quantile estimates within one factor-2
  bucket of numpy's exact quantiles, for every standard quantile.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but the programs vary across jobs.
"""

import os

import numpy as np
import pytest

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.obs import (
    LATENCY_BUCKETS,
    Histogram,
    JournalMetrics,
    MetricsRegistry,
    Tracer,
)
from repro.online import OnlineIndex

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


# ----------------------------------------------------------------------
# Span nesting reconstructs the generating program
# ----------------------------------------------------------------------


def _random_tree(rng, depth=0):
    """A random span program: (name, [children...])."""
    n_children = int(rng.integers(0, 4 - depth)) if depth < 3 else 0
    return (
        f"op{int(rng.integers(0, 10))}",
        [_random_tree(rng, depth + 1) for _ in range(n_children)],
    )


def _execute(tracer, node):
    name, children = node
    with tracer.span(name):
        for child in children:
            _execute(tracer, child)


def _shape(span):
    return (span.name, [_shape(c) for c in span.children])


def _check_durations(span):
    assert span.duration is not None and span.duration >= 0.0
    child_sum = sum(c.duration for c in span.children)
    assert child_sum <= span.duration + 1e-6
    for child in span.children:
        _check_durations(child)


@pytest.mark.parametrize("seed", SEEDS)
def test_tracer_reconstructs_random_span_programs(seed):
    rng = np.random.default_rng(seed)
    tracer = Tracer(capacity=64)
    programs = [_random_tree(rng) for _ in range(40)]
    for program in programs:
        _execute(tracer, program)
    recent = tracer.recent()  # newest first
    got = [_shape(s) for s in reversed(recent)]
    assert got == programs[-len(recent) :]
    for span in recent:
        _check_durations(span)


@pytest.mark.parametrize("seed", SEEDS)
def test_tracer_nesting_survives_random_exceptions(seed):
    """Spans unwind correctly when programs abort at random depths."""
    rng = np.random.default_rng(seed + 50)
    tracer = Tracer()

    def run(depth=0):
        with tracer.span(f"d{depth}"):
            if rng.random() < 0.3:
                raise RuntimeError
            if depth < 3:
                for _ in range(int(rng.integers(0, 3))):
                    run(depth + 1)

    for _ in range(30):
        try:
            run()
        except RuntimeError:
            pass
        # The stack must be empty between programs: the next root is a
        # root, not a child of a leaked frame.
        with tracer.span("probe"):
            pass
        assert tracer.recent(1)[0].name == "probe"


# ----------------------------------------------------------------------
# Journal counts equal ground truth
# ----------------------------------------------------------------------


def _index(seed):
    spec = SyntheticSpec(
        name="propobs", n_users=140, n_items=280, mean_profile_size=22.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(k=6, n_buckets=64, n_hashes=4, split_threshold=40, seed=1)
    return OnlineIndex.build(dataset, params=params)


@pytest.mark.parametrize("seed", SEEDS)
def test_journal_metrics_match_ground_truth_tape(seed, tap):
    index = _index(seed)
    registry = MetricsRegistry()
    truth = {"counts": {}, "added": 0, "removed": 0}

    def oracle(delta):
        truth["counts"][delta.event] = truth["counts"].get(delta.event, 0) + 1
        for _u, _v, was_added, *_ in delta.edges:
            truth["added" if was_added else "removed"] += 1

    feed = tap(index, oracle)
    jm = JournalMetrics(index, registry=registry)
    resplits_before = index.stats()["resplits_total"]
    try:
        rng = np.random.default_rng(seed + 900)
        for _ in range(80):
            active = index.dataset.active_users()
            op = rng.random()
            if op < 0.45 and active.size:
                user = int(rng.choice(active))
                index.add_items(
                    user, rng.integers(0, index.dataset.n_items, size=3)
                )
            elif op < 0.8:
                index.add_user(rng.integers(0, index.dataset.n_items, size=14))
            elif active.size > 40:
                index.remove_user(int(rng.choice(active)))
        assert jm.counts() == truth["counts"]
        for event, n in truth["counts"].items():
            assert (
                registry.counter("journal_mutations_total", op=event).value == n
            )
        assert (
            registry.counter("journal_edges_added_total").value == truth["added"]
        )
        assert (
            registry.counter("journal_edges_removed_total").value
            == truth["removed"]
        )
        assert (
            registry.counter("journal_resplits_total").value
            == index.stats()["resplits_total"] - resplits_before
        )
        assert jm.seq == index.version
        jm.collect()
        stats = index.stats()
        assert registry.gauge("journal_clusters").value == stats["clusters"]
        assert (
            registry.gauge("journal_max_cluster_size").value
            == stats["max_cluster_size"]
        )
        # The derived size distribution covers every live cluster.
        assert (
            registry.histogram("journal_cluster_size").count == stats["clusters"]
        )
    finally:
        jm.close()
        feed.close()


# ----------------------------------------------------------------------
# Histogram estimates track exact quantiles for random sample sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_histogram_quantiles_bounded_by_bucket_width(seed):
    rng = np.random.default_rng(seed + 123)
    sigma = float(rng.uniform(0.5, 1.5))
    samples = rng.lognormal(mean=-6.5, sigma=sigma, size=5_000)
    hist = Histogram("lat", bounds=LATENCY_BUCKETS)
    for s in samples:
        hist.observe(float(s))
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = float(np.quantile(samples, q))
        est = hist.percentile(q)
        assert exact / 2 <= est <= exact * 2, (q, exact, est)
