"""Registry of the paper's six datasets as synthetic specifications.

Full-size parameters follow Table I of the paper. ``load(name, scale=…)``
is the single entry point used by benchmarks and examples; the default
``scale`` keeps laptop runtimes reasonable while preserving the
dense-vs-sparse contrast (ml10M vs AmazonMovies) that drives the
paper's sensitivity analysis.
"""

from __future__ import annotations

import zlib

import numpy as np

from .dataset import Dataset
from .synthetic import SyntheticSpec, generate

__all__ = ["PAPER_SPECS", "DEFAULT_SCALE", "dataset_names", "load"]

# Table I of the paper. mean_profile_size is the reported |P_u| column.
PAPER_SPECS: dict[str, SyntheticSpec] = {
    "ml1M": SyntheticSpec(
        name="ml1M",
        n_users=6_038,
        n_items=3_533,
        mean_profile_size=95.28,
        popularity_exponent=0.55,
        n_communities=40,
        community_pool_size=140,
    ),
    "ml10M": SyntheticSpec(
        name="ml10M",
        n_users=69_816,
        n_items=10_472,
        mean_profile_size=84.30,
        popularity_exponent=0.55,
        n_communities=80,
        community_pool_size=130,
    ),
    "ml20M": SyntheticSpec(
        name="ml20M",
        n_users=138_362,
        n_items=22_884,
        mean_profile_size=88.14,
        popularity_exponent=0.55,
        n_communities=120,
        community_pool_size=140,
    ),
    "AM": SyntheticSpec(
        name="AM",
        n_users=57_430,
        n_items=171_356,
        mean_profile_size=56.82,
        popularity_exponent=0.5,
        n_communities=300,
        community_pool_size=160,
        community_affinity=0.75,
        community_pool_bias=0.0,
        community_size_exponent=0.2,
    ),
    "DBLP": SyntheticSpec(
        name="DBLP",
        n_users=18_889,
        n_items=203_030,
        mean_profile_size=36.67,
        popularity_exponent=0.5,
        n_communities=400,
        community_pool_size=90,
        community_affinity=0.85,
        community_pool_bias=0.0,
        community_size_exponent=0.2,
    ),
    "GW": SyntheticSpec(
        name="GW",
        n_users=20_270,
        n_items=135_540,
        mean_profile_size=54.64,
        popularity_exponent=0.5,
        n_communities=300,
        community_pool_size=140,
        community_affinity=0.75,
        community_pool_bias=0.0,
        community_size_exponent=0.2,
    ),
}

# Default shrink factor applied by ``load``: user counts scale linearly,
# item counts by sqrt, keeping generation + brute-force ground truth
# tractable on a laptop (see docs/paper.md).
DEFAULT_SCALE = 0.05


def dataset_names() -> list[str]:
    """The six paper dataset labels, in Table I order."""
    return list(PAPER_SPECS)


def load(name: str, scale: float = DEFAULT_SCALE, seed: int = 42) -> Dataset:
    """Generate the synthetic stand-in for paper dataset ``name``.

    Args:
        name: one of :func:`dataset_names` (``ml1M``, ``ml10M``,
            ``ml20M``, ``AM``, ``DBLP``, ``GW``).
        scale: fraction of the paper's user count to generate
            (``1.0`` reproduces Table I sizes).
        seed: RNG seed; a fixed (name, scale, seed) triple is fully
            deterministic.
    """
    if name not in PAPER_SPECS:
        raise KeyError(f"unknown dataset {name!r}; expected one of {dataset_names()}")
    spec = PAPER_SPECS[name]
    if scale != 1.0:
        spec = spec.scaled(scale)
    # Derive a per-dataset seed so different datasets are independent
    # even under the same user-provided seed.
    sub_seed = int(np.random.SeedSequence([seed, zlib.crc32(name.encode())]).generate_state(1)[0])
    return generate(spec, seed=sub_seed)
