"""Differential property suite: vectorized walk == scalar oracle.

The numpy walk kernels (``GraphSearcher(walk_impl="numpy")``, the
default) promise **bit-equivalence** with the original per-node python
loop (``walk_impl="python"``) — not approximate agreement: identical
ids, identical float scores, identical ``evaluations``/``hops``
charges and identical ``routed`` provenance. This suite pins that
promise on randomized indexes and mutation tapes across the full
parameter grid (k/ef/budget/exclude/extra_seeds, both similarity
backends, rerank on/off) including the
degenerate corners: empty seed sets, budgets smaller than the seed
count, all-excluded neighbourhoods, and post-re-split indexes.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED`` so
tier-1 stays at two seeds per run but tapes vary across jobs.
"""

import os

import numpy as np
import pytest

from repro import C2Params
from repro.bench.scenarios import IndexWorld, make_scenario, play
from repro.data import SyntheticSpec, generate
from repro.online import OnlineIndex
from repro.serve import GraphSearcher

K = 6

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE, _SEED_BASE + 1]


def _index(seed, backend="exact", auto_resplit=False, threshold=60):
    spec = SyntheticSpec(
        name="propvec", n_users=150, n_items=300, mean_profile_size=25.0,
        n_communities=8, community_pool_size=60, min_profile_size=8,
    )
    dataset = generate(spec, seed=seed)
    params = C2Params(
        k=K, n_buckets=64, n_hashes=4, split_threshold=threshold, seed=1
    )
    return OnlineIndex.build(
        dataset, params=params, backend=backend, auto_resplit=auto_resplit
    )


# The op mix this suite draws from (see conftest.py ``mutate``).
_OPS = dict(mix=(0.5, 0.25, 0.25), profile_size=15)


def _random_profile(index, rng):
    if rng.random() < 0.5 and index.dataset.active_users().size:
        base = index.dataset.profile(int(rng.choice(index.dataset.active_users())))
        keep = rng.random(base.size) > 0.4
        return base[keep] if keep.any() else base
    return rng.integers(0, index.dataset.n_items, size=int(rng.integers(3, 25)))


def _assert_identical(a, b, ctx=""):
    assert np.array_equal(a.ids, b.ids), f"ids diverge {ctx}: {a.ids} vs {b.ids}"
    assert np.array_equal(a.scores, b.scores), f"scores diverge {ctx}"
    assert a.evaluations == b.evaluations, (
        f"evaluations diverge {ctx}: {a.evaluations} vs {b.evaluations}"
    )
    assert a.hops == b.hops, f"hops diverge {ctx}: {a.hops} vs {b.hops}"
    assert a.routed == b.routed, f"routed diverges {ctx}"


def _pair(index, **kwargs):
    return (
        GraphSearcher(index, walk_impl="numpy", **kwargs),
        GraphSearcher(index, walk_impl="python", **kwargs),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", ["exact", "goldfinger"])
def test_numpy_equals_python_across_parameter_grid(seed, backend, mutate):
    """Random tapes + random k/ef/budget/exclude/extra_seeds combos."""
    index = _index(seed, backend=backend)
    rng = np.random.default_rng(seed + 11)
    for _ in range(25):
        mutate(index, rng, **_OPS)
    for rerank in (None, "exact"):
        s_np, s_py = _pair(index, rerank=rerank)
        for trial in range(10):
            profile = _random_profile(index, rng)
            k = int(rng.integers(1, 15))
            ef = int(rng.integers(1, 40))
            budget = (None, int(rng.integers(1, 180)), 3)[trial % 3]
            exclude = rng.choice(
                index.dataset.n_users,
                size=int(rng.integers(0, 10)), replace=False,
            )
            extra = (
                rng.choice(
                    index.dataset.n_users,
                    size=int(rng.integers(0, 5)), replace=False,
                )
                if trial % 2
                else None
            )
            a = s_np.top_k(
                profile, k=k, ef=ef, budget=budget,
                exclude=exclude, extra_seeds=extra,
            )
            b = s_py.top_k(
                profile, k=k, ef=ef, budget=budget,
                exclude=exclude, extra_seeds=extra,
            )
            _assert_identical(a, b, f"(rerank={rerank} trial={trial})")


@pytest.mark.parametrize("seed", SEEDS)
def test_numpy_equals_python_under_interleaved_mutations(seed, mutate):
    """Equivalence must hold at every intermediate index state."""
    index = _index(seed)
    s_np, s_py = _pair(index)
    rng = np.random.default_rng(seed + 23)
    for step in range(40):
        mutate(index, rng, **_OPS)
        profile = _random_profile(index, rng)
        budget = None if step % 2 else int(rng.integers(10, 120))
        a = s_np.top_k(profile, k=K, budget=budget)
        b = s_py.top_k(profile, k=K, budget=budget)
        _assert_identical(a, b, f"(step={step})")


@pytest.mark.parametrize("seed", SEEDS)
def test_degenerate_empty_seeds(seed):
    """Excluding every user empties the seed set in both impls."""
    index = _index(seed)
    s_np, s_py = _pair(index)
    everyone = np.arange(index.dataset.n_users)
    a = s_np.top_k([1, 2, 3], k=K, exclude=everyone)
    b = s_py.top_k([1, 2, 3], k=K, exclude=everyone)
    assert len(a) == 0 and a.evaluations == 0 and a.hops == 0
    _assert_identical(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_degenerate_budget_below_seed_count(seed):
    """A budget smaller than the seed set truncates seeds identically."""
    index = _index(seed)
    rng = np.random.default_rng(seed + 31)
    s_np, s_py = _pair(index)
    for budget in (1, 2, 5):
        profile = _random_profile(index, rng)
        a = s_np.top_k(profile, k=K, ef=32, budget=budget)
        b = s_py.top_k(profile, k=K, ef=32, budget=budget)
        assert a.evaluations <= budget
        _assert_identical(a, b, f"(budget={budget})")


@pytest.mark.parametrize("seed", SEEDS)
def test_degenerate_all_excluded_neighborhoods(seed):
    """Seeds whose entire neighbourhoods are excluded stall both walks
    at the same point."""
    index = _index(seed)
    rng = np.random.default_rng(seed + 47)
    s_np, s_py = _pair(index)
    active = index.dataset.active_users()
    seeds = active[: min(4, active.size)]
    # Exclude every out/in-neighbour of the seeds: the walk can score
    # the seeds but every expansion comes back empty.
    rev = index.reverse_index()
    banned: set[int] = set()
    for u in seeds:
        banned.update(int(v) for v in index.graph.neighbors(int(u)))
        banned.update(int(v) for v in rev.holders(int(u)))
    banned -= {int(u) for u in seeds}
    profile = _random_profile(index, rng)
    a = s_np.top_k(profile, k=K, exclude=np.fromiter(banned, dtype=np.int64),
                   extra_seeds=seeds)
    b = s_py.top_k(profile, k=K, exclude=np.fromiter(banned, dtype=np.int64),
                   extra_seeds=seeds)
    _assert_identical(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_numpy_equals_python_after_resplit(seed):
    """Post-re-split routing state serves identical walks."""
    index = _index(seed, auto_resplit=True, threshold=30)
    world = IndexWorld(index)
    play(make_scenario("churn", 220, seed=seed, bundle_size=60), world)
    rng = np.random.default_rng(seed + 61)
    s_np, s_py = _pair(index)
    for _ in range(12):
        profile = _random_profile(index, rng)
        a = s_np.top_k(profile, k=K)
        b = s_py.top_k(profile, k=K)
        _assert_identical(a, b)
