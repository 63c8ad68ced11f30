"""Theoretical properties of FastRandomHash (paper §III).

Theorem 1 brackets the probability that two users share a
FastRandomHash value around their Jaccard similarity, up to a collision
term ``κ/ℓ``; Theorem 2 is a Chernoff-style concentration bound on that
collision density. This module provides the closed-form bounds, exact
per-hash quantities (Eq. 6), and Monte-Carlo estimators used by the
property tests and the `bench_theory_bounds` benchmark.

Note on the paper's numeric example (§III): the text says ``d = 0.5``,
but the quoted numbers (margin 0.078, upper 3·0.078 ≈ 0.234,
probability 0.998) are only consistent with ``d = 1.5`` — with
``d = 0.5`` the probability bound evaluates to ≈ 0.58. We therefore
expose :func:`paper_numeric_example` with ``d = 1.5`` and record the
discrepancy in docs/paper.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import GenerativeHash

__all__ = [
    "theorem1_lower_bound",
    "theorem1_upper_bound",
    "collision_density_threshold",
    "theorem2_probability_bound",
    "count_collisions",
    "same_hash_probability",
    "empirical_same_hash_probability",
    "paper_numeric_example",
    "NumericExample",
]


def theorem1_lower_bound(jaccard: float, kappa: int, ell: int) -> float:
    """Eq. (4): ``J - κ/ℓ <= P[H(u1) = H(u2)]``."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    return jaccard - kappa / ell


def theorem1_upper_bound(jaccard: float, kappa: int, ell: int) -> float:
    """Eq. (9) upper bound in exact form: ``(J + κ/ℓ) / (1 - κ/ℓ)``.

    Tighter than the expanded ``J + 3κ/ℓ + O((κ/ℓ)²)`` of Eq. (5) and
    valid for every ``κ < ℓ``.
    """
    if not 0 <= kappa < ell:
        raise ValueError("kappa must satisfy 0 <= kappa < ell")
    x = kappa / ell
    return (jaccard + x) / (1 - x)


def collision_density_threshold(ell: int, b: int, d: float) -> float:
    """Theorem 2 threshold: ``κ/ℓ < (1 + d)(ℓ - 1) / (2b)``."""
    if d <= 0:
        raise ValueError("d must be positive")
    return (1 + d) * (ell - 1) / (2 * b)


def theorem2_probability_bound(ell: int, b: int, d: float) -> float:
    """Theorem 2: lower bound on ``P[κ/ℓ < threshold]``.

    ``1 - (e^d / (1+d)^(1+d))^(ℓ(ℓ-1)/(2b))``.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    base = np.exp(d) / (1 + d) ** (1 + d)
    exponent = ell * (ell - 1) / (2 * b)
    return float(1.0 - base**exponent)


def count_collisions(hash_fn: GenerativeHash, profile_union: np.ndarray) -> int:
    """``κ = ℓ - |h(P1 ∪ P2)|``: collisions when projecting the union."""
    ell = int(profile_union.size)
    return ell - int(np.unique(hash_fn(profile_union)).size)


def same_hash_probability(
    hash_fn: GenerativeHash, profile1: np.ndarray, profile2: np.ndarray
) -> float:
    """Eq. (6): exact ``P[H(u1) = H(u2)]`` for one fixed generative hash.

    The probability (over the randomness of *which* hash function is
    drawn, conditioned on this one's collision pattern) equals
    ``|h(P1) ∩ h(P2)| / |h(P1 ∪ P2)|``.
    """
    h1 = np.unique(hash_fn(np.asarray(profile1)))
    h2 = np.unique(hash_fn(np.asarray(profile2)))
    inter = np.intersect1d(h1, h2, assume_unique=True).size
    union = np.union1d(h1, h2).size
    return inter / union if union else 0.0


def empirical_same_hash_probability(
    profile1: np.ndarray,
    profile2: np.ndarray,
    n_items: int,
    n_buckets: int,
    n_trials: int = 1000,
    seed: int = 0,
) -> float:
    """Monte-Carlo ``P[H(u1) = H(u2)]`` over random generative hashes."""
    seeds = np.random.SeedSequence(seed).generate_state(n_trials)
    hits = 0
    p1 = np.asarray(profile1)
    p2 = np.asarray(profile2)
    for s in seeds:
        hash_fn = GenerativeHash(n_items, n_buckets, int(s))
        if int(hash_fn(p1).min()) == int(hash_fn(p2).min()):
            hits += 1
    return hits / n_trials


@dataclass(frozen=True)
class NumericExample:
    """The §III worked example: margins around J and their probability."""

    ell: int
    b: int
    d: float
    lower_margin: float
    upper_margin: float
    probability: float


def paper_numeric_example(ell: int = 256, b: int = 4096, d: float = 1.5) -> NumericExample:
    """Reproduce the paper's numeric example (§III).

    With ``ℓ = 256``, ``b = 4096`` and ``d = 1.5`` (see module note on
    the paper's ``d = 0.5`` typo) this yields
    ``J - 0.078 <= P <= J + 0.234`` with probability ``≈ 0.998``.
    """
    margin = collision_density_threshold(ell, b, d)
    return NumericExample(
        ell=ell,
        b=b,
        d=d,
        lower_margin=margin,
        upper_margin=3 * margin,
        probability=theorem2_probability_bound(ell, b, d),
    )
