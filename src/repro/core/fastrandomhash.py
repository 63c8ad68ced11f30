"""FastRandomHash — the paper's clustering hash (§II-D).

A generative hash ``h : I -> [1, b]`` assigns each item a random bucket;
the FastRandomHash of a user is the *minimum* hash over her profile:

    H(u) = min_{i in P_u} h(i)                              (Eq. 3)

Unlike MinHash, the hash space is a small fixed interval ``[1, b]``
rather than the item universe, which keeps the number of clusters
bounded (and intentionally causes collisions — Theorems 1-2 bound
their effect). Splitting a cluster of index ``η`` re-hashes its users
with the values ``<= η`` masked out:

    H\\η(u) = min { h(i) : i in P_u, h(i) > η }

Both operations are computed for whole user batches with one
``np.minimum.reduceat`` sweep over the CSR profile layout; a re-split
gathers its members' profiles with
:func:`~repro.data.dataset.gather_profiles`.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset, gather_profiles
from .hashing import GenerativeHash

__all__ = ["FastRandomHash", "UNDEFINED"]

# Sentinel returned when H\eta(u) is undefined (no item hashed above
# eta). One past any valid hash value, so min-reductions ignore it.
UNDEFINED = np.iinfo(np.int32).max


class FastRandomHash:
    """FastRandomHash function over one generative hash."""

    def __init__(self, generative: GenerativeHash) -> None:
        self.generative = generative

    @property
    def n_buckets(self) -> int:
        """Size ``b`` of the hash interval."""
        return self.generative.n_buckets

    def user_hashes(self, dataset: Dataset) -> np.ndarray:
        """``H(u)`` for every user of ``dataset``; empty profiles map
        to :data:`UNDEFINED`."""
        item_hashes = self.generative(dataset.indices)
        return _segment_min(item_hashes, dataset.indptr)

    def user_hashes_excluding(
        self, dataset: Dataset, users: np.ndarray, eta: int
    ) -> np.ndarray:
        """``H\\eta(u)`` for each user in ``users``.

        Items whose hash is ``<= eta`` are ignored; users left with no
        item get :data:`UNDEFINED` (they stay in the parent cluster).
        """
        flat, indptr = gather_profiles(dataset, users)
        hashes = self.generative(flat).astype(np.int64)
        hashes[hashes <= eta] = UNDEFINED
        return _segment_min(hashes, indptr)

    def profile_hash_path(self, profile: np.ndarray) -> np.ndarray:
        """The full recursive-split descent path of one profile.

        Splitting re-hashes with ``H\\eta``, i.e. the minimum hash value
        strictly above the previous one — so the sequence of values a
        user can take under repeated splitting is exactly the sorted
        distinct hash values of her items: ``path[0] = H(u)``,
        ``path[i+1] = H\\path[i](u)``.
        """
        profile = np.asarray(profile)
        if profile.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.generative(profile).astype(np.int64))


def _segment_min(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment minimum; empty segments get :data:`UNDEFINED`."""
    n = indptr.size - 1
    out = np.full(n, UNDEFINED, dtype=np.int64)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if values.size and nonempty.size:
        mins = np.minimum.reduceat(values.astype(np.int64), indptr[nonempty])
        out[nonempty] = mins
    return out
