"""Regression pins for C² graph quality on the synthetic workload.

Timing-only tests cannot catch a change that silently degrades the
graphs C² produces (a broken hash family, a lossy merge, a mis-seeded
solver all still *run* fast). These tests pin recall and quality
against stored floors measured on the seed implementation; the
pipeline is deterministic given the seed, so the floors sit a few
points under the measured values (seed=1: GoldFinger recall 0.468,
quality 0.896; exact recall 0.504, quality 0.922) and only genuine
quality regressions can cross them.
"""

import pytest

from repro import C2Params, cluster_and_conquer, make_engine
from repro.baselines import brute_force_knn
from repro.graph import edge_recall, quality
from repro.similarity import ExactEngine

K = 10

# Stored floors: measured value minus a safety margin for numeric
# drift across platforms. A failure here means C² got *worse*.
FLOORS = {
    "goldfinger": {"recall": 0.44, "quality": 0.87},
    "exact": {"recall": 0.47, "quality": 0.90},
}


@pytest.fixture(scope="module")
def exact_graph(medium_dataset):
    return brute_force_knn(ExactEngine(medium_dataset), k=K).graph


def _params():
    return C2Params(k=K, n_buckets=32, n_hashes=6, split_threshold=100, seed=1)


@pytest.mark.parametrize("backend", ["goldfinger", "exact"])
def test_c2_recall_and_quality_floor(medium_dataset, exact_graph, backend):
    engine = (
        make_engine(medium_dataset, n_bits=1024)
        if backend == "goldfinger"
        else ExactEngine(medium_dataset)
    )
    result = cluster_and_conquer(engine, _params())
    floors = FLOORS[backend]

    recall = edge_recall(result.graph, exact_graph)
    q = quality(result.graph, exact_graph, medium_dataset)
    assert recall >= floors["recall"], (
        f"C2/{backend} recall regressed: {recall:.3f} < {floors['recall']}"
    )
    assert q >= floors["quality"], (
        f"C2/{backend} quality regressed: {q:.3f} < {floors['quality']}"
    )


def test_c2_beats_brute_force_cost(medium_dataset):
    """The quality floor is meaningless if C² stops being cheap: keep
    the comparison budget pinned too (well under half of brute force)."""
    n = medium_dataset.n_users
    result = cluster_and_conquer(make_engine(medium_dataset, n_bits=1024), _params())
    assert result.comparisons < 0.5 * (n * (n - 1) // 2)


# Serving-path floors (seed=5, 30 held-out queries on medium_dataset,
# measured: plain GoldFinger walk 0.697, with exact frontier
# re-ranking 0.937 — the rerank recovers the recall estimate noise
# costs; at this small scale the noise is far worse than the 10 points
# the last full 5k-user run measured, see docs/benchmarks.md).
SERVING_RERANK_FLOOR = 0.90
SERVING_RERANK_MIN_GAIN = 0.03


def test_goldfinger_serving_rerank_recovers_recall(medium_dataset):
    """rerank="exact" must keep closing the GoldFinger estimate gap."""
    import numpy as np

    from repro.online import MutableDataset, OnlineIndex
    from repro.serve import GraphSearcher, brute_force_top_k

    params = C2Params(k=K, n_buckets=64, n_hashes=6, split_threshold=100, seed=1)
    index = OnlineIndex.build(medium_dataset, params=params, backend="goldfinger")
    truth_engine = ExactEngine(MutableDataset.from_dataset(medium_dataset))
    plain = GraphSearcher(index, ef=32)
    rerank = GraphSearcher(index, ef=32, rerank="exact")
    rng = np.random.default_rng(5)
    rec_plain, rec_rerank = [], []
    for _ in range(30):
        base = medium_dataset.profile(int(rng.integers(0, medium_dataset.n_users)))
        profile = base[rng.random(base.size) > 0.3]
        truth = brute_force_top_k(truth_engine, profile, k=10)
        rec_plain.append(np.isin(truth.ids, plain.top_k(profile, k=10).ids).mean())
        rec_rerank.append(np.isin(truth.ids, rerank.top_k(profile, k=10).ids).mean())
    mean_plain, mean_rerank = float(np.mean(rec_plain)), float(np.mean(rec_rerank))
    assert mean_rerank >= SERVING_RERANK_FLOOR, (
        f"rerank recall regressed: {mean_rerank:.3f} < {SERVING_RERANK_FLOOR}"
    )
    assert mean_rerank >= mean_plain + SERVING_RERANK_MIN_GAIN, (
        f"rerank no longer recovers the estimate gap "
        f"({mean_rerank:.3f} vs plain {mean_plain:.3f})"
    )
