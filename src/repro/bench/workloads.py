"""Benchmark workload definitions — the paper's setups, scale-aware.

The paper's parameters are tuned for its full-size datasets (6k-138k
users). Benchmarks here run on user-scaled synthetic stand-ins (see
``repro.data.registry``; item universes stay full-size), so the one
parameter whose meaning is *per-user-count* — the split threshold
``N`` — is scaled by the user factor. Everything else is scale-free
and kept at paper values: ``b`` interacts with profile sizes (the
probability a user lands in a given bucket is ``~|P_u|/b``) which do
not scale, and ``t``, ``k``, ``δ``, ``ρ`` are ratios.

The ``serving_*`` names and the tapes below them define the one
workload of the serving floors (``tests/test_serving_floors.py`` and
``benchmarks/bench_serving.py``): a community-structured index, its
held-out queries, the walk settings and the read/write tapes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.config import C2Params, paper_params
from ..data.dataset import Dataset
from ..data.registry import DEFAULT_SCALE
from ..data.synthetic import SyntheticSpec, generate
from ..online import OnlineIndex
from .scenarios import Scenario, make_scenario

__all__ = [
    "SERVING_K",
    "SERVING_PARAMS",
    "SERVING_SEED",
    "SERVING_WALK",
    "Workload",
    "bench_scale",
    "paper_workload",
    "scale_split_threshold",
    "scaled_c2_params",
    "serving_index",
    "serving_tape",
    "serving_workload",
    "warm_stream",
    "write_tape",
]

# Environment override so the full suite can be re-run at other scales
# without editing code: REPRO_SCALE=0.2 pytest benchmarks/ ...
_SCALE_ENV = "REPRO_SCALE"


def bench_scale() -> float:
    """The dataset scale benchmarks run at (env ``REPRO_SCALE`` or default)."""
    return float(os.environ.get(_SCALE_ENV, DEFAULT_SCALE))


def scaled_c2_params(
    dataset_name: str,
    scale: float,
    n_workers: int = 1,
    seed: int = 0,
) -> C2Params:
    """Paper C² parameters for ``dataset_name``, adjusted to ``scale``.

    Only the split threshold ``N`` scales with the user count; ``b``
    stays at the paper's value (see module docstring).
    """
    base = paper_params(dataset_name, n_workers=n_workers, seed=seed)
    return base.with_(
        split_threshold=scale_split_threshold(base.split_threshold, scale),
    )


def scale_split_threshold(n: int | None, scale: float) -> int | None:
    """Scale the max-cluster-size ``N`` with the user count."""
    if n is None:
        return None
    return max(50, int(round(n * scale)))


@dataclass(frozen=True)
class Workload:
    """One dataset's benchmark setup (paper §IV-C)."""

    dataset: str
    scale: float
    k: int = 30
    lsh_hashes: int = 10  # paper: "number of hash functions for LSH is 10"
    greedy_delta: float = 0.001
    greedy_max_iterations: int = 30
    goldfinger_bits: int = 1024
    seed: int = 0
    n_workers: int = 1

    @property
    def c2_params(self) -> C2Params:
        """Scale-adjusted paper parameters for C² on this dataset."""
        return scaled_c2_params(
            self.dataset, self.scale, n_workers=self.n_workers, seed=self.seed
        )


def paper_workload(
    dataset_name: str,
    scale: float | None = None,
    n_workers: int = 1,
    seed: int = 0,
) -> Workload:
    """The Table II setup for ``dataset_name`` at benchmark scale."""
    return Workload(
        dataset=dataset_name,
        scale=bench_scale() if scale is None else scale,
        n_workers=n_workers,
        seed=seed,
    )


# ----------------------------------------------------------------------
# The serving floors' workload (not from the paper)
# ----------------------------------------------------------------------

#: Seed of the serving population, its warm stream and its tapes.
SERVING_SEED = 11
#: Result size of every serving-floor search.
SERVING_K = 10
#: Walk settings of every serving-floor :class:`~repro.serve.GraphSearcher`.
SERVING_WALK = {"ef": 32, "per_config": 16, "budget": 192}
#: C² parameters of the serving index.
SERVING_PARAMS = C2Params(
    k=16, n_buckets=128, n_hashes=8, split_threshold=60, seed=1
)


def serving_workload() -> tuple[Dataset, list[np.ndarray]]:
    """400 users plus 40 held-out query profiles, seeded.

    Queries are extra users of the same synthetic communities, so they
    are out of the index but statistically indistinguishable from
    signups. Returns ``(dataset, queries)``.
    """
    n_users, n_queries = 400, 40
    spec = SyntheticSpec(
        name="serve400",
        n_users=n_users + n_queries,
        n_items=400,
        mean_profile_size=40.0,
        n_communities=8,
        community_pool_size=120,
        community_affinity=0.95,
        min_profile_size=15,
    )
    full = generate(spec, seed=SERVING_SEED)
    dataset = Dataset.from_profiles(
        [full.profile(u) for u in range(n_users)],
        n_items=full.n_items,
        name=spec.name,
    )
    queries = [full.profile(u) for u in range(n_users, n_users + n_queries)]
    return dataset, queries


def serving_index(dataset: Dataset, backend: str = "exact", **kwargs) -> OnlineIndex:
    """An :class:`~repro.online.OnlineIndex` over ``dataset`` at :data:`SERVING_PARAMS`."""
    return OnlineIndex.build(dataset, params=SERVING_PARAMS, backend=backend, **kwargs)


def warm_stream(queries: list[np.ndarray]) -> list[np.ndarray]:
    """160 seeded draws from the first 10 of ``queries`` (a cache-warm stream)."""
    rng = np.random.default_rng(SERVING_SEED)
    pool = queries[:10]
    return [pool[int(rng.integers(0, len(pool)))] for _ in range(160)]


def serving_tape(n_ops: int) -> Scenario:
    """The 90/10 read/write tape, reads drawn from a fixed 20-query pool.

    :class:`~repro.bench.scenarios.ZipfianQueries` with a flat
    popularity law: 90% of the ops query one of 20 profiles drawn up
    front, uniformly, so most reads after the first pass hit the
    result cache; writes split 60/25/15 across profile updates,
    signups and departures.
    """
    return make_scenario(
        "zipf", n_ops, seed=SERVING_SEED, read_fraction=0.9, exponent=0.0,
        pool_size=20,
    )


def write_tape(n_ops: int, seed: int = SERVING_SEED) -> Scenario:
    """A write-only tape: 70/20/10 profile updates, signups, departures."""
    return make_scenario(
        "mixed", n_ops, seed=seed, read_fraction=0.0,
        add_items_weight=0.7, add_user_weight=0.2, remove_user_weight=0.1,
    )
