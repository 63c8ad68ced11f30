"""Synthetic generators standing in for the paper's six real datasets.

The paper evaluates on MovieLens1M/10M/20M, AmazonMovies, DBLP and
Gowalla, none of which can be downloaded in this offline environment.
We substitute generators that reproduce the statistical properties the
algorithms are sensitive to (see docs/paper.md):

* **Item popularity skew** (Zipf-like). Popular items hashed to low
  values create the oversized FastRandomHash clusters that recursive
  splitting exists to fix — MovieLens-like datasets are dense with few
  items and strong skew, AmazonMovies-like datasets are sparse with a
  huge item universe and a flat tail.
* **Profile-size distribution** (lognormal, clipped at the paper's
  min-20-ratings rule) which drives ``ℓ = |P_u ∪ P_v|`` in Theorems 1-2.
* **Planted similarity structure**: users belong to overlapping
  interest communities and draw most of their profile from community
  item pools, so a ground-truth KNN graph has meaningful structure for
  greedy algorithms to converge to and for recall experiments.

The generative model, per user:

1. draw a community ``c`` (Zipf sizes) and a profile size ``s``;
2. draw ``round(alpha * s)`` items from the community pool (Zipf
   weights within the pool) and the rest from global popularity;
3. deduplicate; top up from the global distribution if short.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

__all__ = ["SyntheticSpec", "generate"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic users/items generative model.

    Attributes:
        name: dataset label.
        n_users: number of users to generate.
        n_items: size of the item universe.
        mean_profile_size: target mean ``|P_u|`` (lognormal mean).
        profile_sigma: lognormal shape parameter for profile sizes.
        popularity_exponent: Zipf exponent of global item popularity
            (higher = more skewed; MovieLens-like ~1.0, sparse
            AmazonMovies-like ~0.8).
        n_communities: number of planted interest communities.
        community_pool_size: number of items in each community pool.
        community_affinity: fraction ``alpha`` of a profile drawn from
            the community pool (the rest is global-popularity noise).
        community_size_exponent: Zipf exponent of community sizes
            (0 = equal-sized communities; higher = a few dominant
            interest groups, as in MovieLens-like data).
        community_pool_bias: exponent applied to global popularity when
            sampling pool members. ``1.0`` = pools prefer popular items
            (dense, MovieLens-like: everyone watches the hits), ``0.0``
            = uniform pools (sparse, AmazonMovies-like: niche interest
            areas barely overlap, keeping head-item prevalence low).
        min_profile_size: lower clip for profile sizes (paper keeps
            users with >= 20 ratings).
    """

    name: str
    n_users: int
    n_items: int
    mean_profile_size: float
    profile_sigma: float = 0.6
    popularity_exponent: float = 1.0
    n_communities: int = 50
    community_pool_size: int = 400
    community_affinity: float = 0.7
    community_pool_bias: float = 1.0
    community_size_exponent: float = 0.8
    min_profile_size: int = 20

    def scaled(self, scale: float) -> "SyntheticSpec":
        """A spec with the *user* count shrunk by ``scale``.

        The item universe is deliberately kept at full size: per-item
        prevalence (fraction of profiles containing an item) is what
        drives FastRandomHash cluster sizes and the paper's b = 4096
        setting, and prevalence is determined by profile sizes and the
        popularity distribution — both scale-free. Shrinking the item
        universe would inflate prevalence and distort the clustering
        regime the paper's parameters are tuned for.
        """
        if scale <= 0 or scale > 1:
            raise ValueError("scale must be in (0, 1]")
        return SyntheticSpec(
            name=self.name,
            n_users=max(50, int(round(self.n_users * scale))),
            n_items=self.n_items,
            mean_profile_size=self.mean_profile_size,
            profile_sigma=self.profile_sigma,
            popularity_exponent=self.popularity_exponent,
            # Communities scale linearly with users so the *community
            # size* (neighbour supply per user, in units of k) stays
            # constant — the property KNN quality depends on.
            n_communities=max(4, int(round(self.n_communities * scale))),
            community_pool_size=self.community_pool_size,
            community_affinity=self.community_affinity,
            community_pool_bias=self.community_pool_bias,
            community_size_exponent=self.community_size_exponent,
            min_profile_size=self.min_profile_size,
        )


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights ``rank^-exponent`` over ``n`` elements."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _sample_distinct(rng: np.random.Generator, population: np.ndarray,
                     weights: np.ndarray, count: int) -> np.ndarray:
    """Sample ``count`` distinct elements of ``population`` by weight.

    Uses the exponential-race trick (Gumbel top-k) which is vectorised
    and exact for sampling without replacement proportional to weights.
    ``O(len(population))`` per call — use for small pools.
    """
    count = min(count, population.size)
    if count <= 0:
        return np.empty(0, dtype=population.dtype)
    keys = rng.exponential(size=population.size) / weights
    picked = np.argpartition(keys, count - 1)[:count]
    return population[picked]


def _sample_distinct_cdf(rng: np.random.Generator, cdf: np.ndarray,
                         count: int, exclude_seen: np.ndarray) -> np.ndarray:
    """Sample ``count`` distinct item ids by inverse-CDF rejection.

    ``O(count log m)`` per draw instead of ``O(m)``, which keeps
    generation fast for the paper's 100k+-item universes. ``exclude_seen``
    is a reusable boolean scratch array marking already-chosen ids; it
    is updated in place.
    """
    m = cdf.size
    chosen: list[np.ndarray] = []
    have = 0
    for _ in range(32):  # rejection rounds; plenty for count << m
        if have >= count:
            break
        draw = np.searchsorted(cdf, rng.random(2 * (count - have) + 4), side="right")
        draw = np.minimum(draw, m - 1)
        draw = draw[~exclude_seen[draw]]
        # de-duplicate within the batch, preserving draw order
        _, first_pos = np.unique(draw, return_index=True)
        draw = draw[np.sort(first_pos)][: count - have]
        exclude_seen[draw] = True
        chosen.append(draw)
        have += draw.size
    if not chosen:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chosen).astype(np.int64)


def generate(spec: SyntheticSpec, seed: int = 0) -> Dataset:
    """Generate a dataset following ``spec``; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)

    # Global item popularity: Zipf over a random permutation of item ids
    # (so that popularity rank is decoupled from item id, as in reality).
    item_perm = rng.permutation(spec.n_items)
    global_weights = np.empty(spec.n_items, dtype=np.float64)
    global_weights[item_perm] = _zipf_weights(spec.n_items, spec.popularity_exponent)

    # Community pools: each community prefers a popularity-biased random
    # subset of items, giving overlapping but distinct interest areas.
    # Within a pool, draws are uniform: the pool membership already
    # encodes popularity, and re-weighting inside the pool would drive
    # the prevalence of head items far above anything seen in the real
    # datasets (every user of every community would hold them).
    pool_size = min(spec.community_pool_size, spec.n_items)
    pools = []
    pool_weights = []
    all_items = np.arange(spec.n_items)
    if spec.community_pool_bias == 0.0:
        pool_sampling_weights = np.full(spec.n_items, 1.0 / spec.n_items)
    else:
        w = global_weights**spec.community_pool_bias
        pool_sampling_weights = w / w.sum()
    for _ in range(spec.n_communities):
        pool = _sample_distinct(rng, all_items, pool_sampling_weights, pool_size)
        pools.append(pool)
        pool_weights.append(np.full(pool.size, 1.0 / pool.size))

    # Community membership: Zipf-distributed community sizes.
    community_probs = _zipf_weights(spec.n_communities, spec.community_size_exponent)
    memberships = rng.choice(spec.n_communities, size=spec.n_users, p=community_probs)

    # Profile sizes: lognormal with the requested mean, clipped below.
    mu = np.log(spec.mean_profile_size) - spec.profile_sigma**2 / 2
    sizes = rng.lognormal(mean=mu, sigma=spec.profile_sigma, size=spec.n_users)
    sizes = np.clip(np.round(sizes), spec.min_profile_size, spec.n_items).astype(np.int64)

    global_cdf = np.cumsum(global_weights)
    global_cdf[-1] = 1.0  # guard against float rounding
    seen = np.zeros(spec.n_items, dtype=bool)  # reusable scratch

    profiles = []
    for u in range(spec.n_users):
        s = int(sizes[u])
        c = int(memberships[u])
        n_comm = int(round(spec.community_affinity * s))
        part_comm = _sample_distinct(rng, pools[c], pool_weights[c], n_comm)
        seen[part_comm] = True
        part_glob = _sample_distinct_cdf(rng, global_cdf, s - part_comm.size, seen)
        profile = np.concatenate([part_comm, part_glob])
        # Rejection sampling may come up short in pathological cases;
        # top up uniformly so the min-20-ratings invariant holds.
        if profile.size < spec.min_profile_size:
            missing = spec.min_profile_size - profile.size
            extra = rng.choice(
                np.flatnonzero(~seen), size=missing, replace=False
            )
            profile = np.concatenate([profile, extra])
        seen[profile] = False  # reset scratch for the next user
        profiles.append(np.sort(profile))

    return Dataset.from_profiles(profiles, n_items=spec.n_items, name=spec.name)
