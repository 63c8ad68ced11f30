"""Cosine similarity over binary item-set profiles.

The paper's framework admits "any similarity function over sets that is
positively correlated with the number of common items ... such as
cosine or the Jaccard similarity"; Jaccard is the default everywhere,
cosine is provided for completeness of the public API. For binary sets,
``cos(P_u, P_v) = |P_u ∩ P_v| / sqrt(|P_u| * |P_v|)``.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset
from .jaccard import intersection_size, profile_intersections

__all__ = ["cosine_pair", "cosine_one_to_many", "cosine_matrix"]


def cosine_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two sorted, unique id arrays."""
    if a.size == 0 or b.size == 0:
        return 0.0
    return intersection_size(a, b) / float(np.sqrt(a.size * b.size))


def cosine_one_to_many(dataset: Dataset, user: int, others: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``user`` against each user in ``others``."""
    profile = dataset.profile(user)
    inter, sizes = profile_intersections(dataset, profile, others)
    denom = np.sqrt(float(profile.size) * sizes)
    out = np.zeros(inter.size, dtype=np.float64)
    nz = denom > 0
    out[nz] = inter[nz] / denom[nz]
    return out


def cosine_matrix(dataset: Dataset, users: np.ndarray | None = None) -> np.ndarray:
    """Dense pairwise cosine matrix for ``users`` (all users if None)."""
    matrix = dataset.to_csr_matrix()
    if users is not None:
        users = np.asarray(users, dtype=np.int64)
        matrix = matrix[users]
        sizes = dataset.profile_sizes[users].astype(np.float64)
    else:
        sizes = dataset.profile_sizes.astype(np.float64)
    inter = np.asarray((matrix @ matrix.T).todense(), dtype=np.float64)
    denom = np.sqrt(np.outer(sizes, sizes))
    out = np.zeros_like(inter)
    nz = denom > 0
    out[nz] = inter[nz] / denom[nz]
    return out
