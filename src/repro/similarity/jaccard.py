"""Exact Jaccard similarity over item-set profiles.

``J(P_u, P_v) = |P_u ∩ P_v| / |P_u ∪ P_v|`` — the paper's similarity
function. Scalar helpers work on sorted id arrays; the batch helpers
use a sparse user x item matrix product so that the brute-force
baseline and quality metrics stay tractable in Python.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset, gather_profiles

__all__ = [
    "jaccard_pair",
    "intersection_size",
    "jaccard_one_to_many",
    "jaccard_profile_one_to_many",
    "profile_intersections",
    "profile_mask",
    "jaccard_block",
    "jaccard_matrix",
]


def intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` for two sorted, unique id arrays."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def jaccard_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two sorted, unique id arrays."""
    inter = intersection_size(a, b)
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def profile_mask(dataset: Dataset, profile: np.ndarray) -> np.ndarray:
    """Boolean membership mask of ``profile`` over the item universe.

    The reusable half of :func:`profile_intersections`: a prepared
    query scores many candidate batches against the same profile (one
    per search hop), and rebuilding the mask per batch was measurable
    on the serving hot path. Items beyond the universe are dropped —
    they cannot intersect anything.
    """
    mask = np.zeros(dataset.n_items, dtype=bool)
    mask[profile[profile < dataset.n_items]] = True
    return mask


def profile_intersections(
    dataset: Dataset,
    profile: np.ndarray,
    others: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(|profile ∩ P_v|, |P_v|)`` for each user ``v`` in ``others``.

    Vectorised via a membership mask over the item universe: one pass
    builds a boolean mask of the profile (callers scoring many batches
    pass a precomputed :func:`profile_mask`), then intersection sizes
    for all ``others`` are counted in a single fancy-indexing sweep
    over their concatenated profiles — gathered by
    :func:`~repro.data.dataset.gather_profiles` through the per-user
    starts and the item buffer, so a mutable store is read as it
    stands, never re-packed first. The profile need not belong to any
    user in the dataset (the query-serving path scores out-of-index
    profiles); items beyond the dataset's universe cannot intersect
    anything and only count toward the union.
    """
    others = np.asarray(others, dtype=np.int64)
    if others.size == 0:
        return np.zeros(0, dtype=np.int64), dataset.profile_sizes[others]
    if mask is None:
        mask = profile_mask(dataset, profile)
    flat, indptr = gather_profiles(dataset, others)
    sizes = indptr[1:] - indptr[:-1]
    inter = np.zeros(others.size, dtype=np.int64)
    if flat.size:
        # Reduce over the non-empty segments only: they tile ``flat``
        # exactly, and a trailing empty one would index past its end.
        nonempty = sizes > 0
        # ``take`` gathers through int32 ids far faster than ``mask[flat]``.
        inter[nonempty] = np.add.reduceat(mask.take(flat), indptr[:-1][nonempty])
    return inter, sizes


def jaccard_profile_one_to_many(
    dataset: Dataset, profile: np.ndarray, others: np.ndarray
) -> np.ndarray:
    """Exact Jaccard of an arbitrary item-set profile vs ``others``."""
    profile = np.asarray(profile, dtype=np.int64)
    others = np.asarray(others, dtype=np.int64)
    inter, sizes = profile_intersections(dataset, profile, others)
    union = profile.size + sizes - inter
    out = np.zeros(others.size, dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def jaccard_one_to_many(dataset: Dataset, user: int, others: np.ndarray) -> np.ndarray:
    """Exact Jaccard of ``user`` against each user in ``others``."""
    return jaccard_profile_one_to_many(dataset, dataset.profile(user), others)


def jaccard_block(dataset: Dataset, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Exact Jaccard block of shape ``(len(us), len(vs))``.

    One sparse matrix product computes all intersections at once.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    matrix = dataset.to_csr_matrix()
    inter = np.asarray((matrix[us] @ matrix[vs].T).todense(), dtype=np.float64)
    size_u = dataset.profile_sizes[us].astype(np.float64)
    size_v = dataset.profile_sizes[vs].astype(np.float64)
    union = size_u[:, None] + size_v[None, :] - inter
    out = np.zeros_like(inter)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def jaccard_matrix(dataset: Dataset, users: np.ndarray | None = None) -> np.ndarray:
    """Dense pairwise Jaccard matrix for ``users`` (all users if None).

    Uses a sparse matrix product for intersections; the diagonal is 1
    by convention (a profile is identical to itself). Intended for
    clusters / small datasets — memory is ``O(len(users)^2)``.
    """
    matrix = dataset.to_csr_matrix()
    if users is not None:
        users = np.asarray(users, dtype=np.int64)
        matrix = matrix[users]
        sizes = dataset.profile_sizes[users].astype(np.float64)
    else:
        sizes = dataset.profile_sizes.astype(np.float64)
    inter = np.asarray((matrix @ matrix.T).todense(), dtype=np.float64)
    union = sizes[:, None] + sizes[None, :] - inter
    out = np.zeros_like(inter)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out
