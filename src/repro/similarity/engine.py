"""Counting similarity engines — the single entry point algorithms use.

Every KNN-graph algorithm in this repository (C², Hyrec, NN-Descent,
LSH, brute force) computes similarities through a
:class:`SimilarityEngine`, never directly. This gives us:

* one switch between **exact** Jaccard/cosine and **GoldFinger**
  estimates (the paper's Table V ablation is exactly this switch);
* an accurate count of similarity evaluations, the paper's cost model
  ("greedy approaches spend most of the total computation time
  computing similarities") and our hardware-independent metric.

Counters are protected by a lock so the multi-threaded C² scheduler
reports exact totals.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np

from ..data.dataset import Dataset
from .bloom import BloomFilterTable
from .cosine import cosine_matrix, cosine_one_to_many, cosine_pair
from .goldfinger import GoldFinger
from .jaccard import (
    jaccard_one_to_many,
    jaccard_pair,
    profile_intersections,
    profile_mask,
)

__all__ = [
    "SimilarityEngine",
    "ExactEngine",
    "GoldFingerEngine",
    "BloomEngine",
    "make_engine",
]


class SimilarityEngine(ABC):
    """Counted similarity oracle over a fixed dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._count = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lock"] = None  # locks cannot cross process boundaries
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- cost accounting ------------------------------------------------

    @property
    def comparisons(self) -> int:
        """Number of pairwise similarity evaluations so far."""
        return self._count

    def reset_comparisons(self) -> None:
        """Zero the evaluation counter."""
        with self._lock:
            self._count = 0

    def _charge(self, n: int) -> None:
        with self._lock:
            self._count += int(n)

    def charge(self, n: int) -> None:
        """Explicitly add ``n`` to the evaluation counter.

        For solvers that compute with ``block(..., counted=False)`` and
        charge an analytic pair count instead (e.g. brute force charges
        ``n(n-1)/2`` while exploiting symmetry internally).
        """
        self._charge(n)

    # -- similarity queries ---------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users the engine can score."""
        return self.dataset.n_users

    def pair(self, u: int, v: int) -> float:
        """Similarity of users ``u`` and ``v`` (counted as 1)."""
        self._charge(1)
        return self._pair(u, v)

    def one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        """Similarities of ``user`` vs each of ``others`` (counted as len)."""
        others = np.asarray(others, dtype=np.int64)
        self._charge(others.size)
        return self._one_to_many(user, others)

    def matrix(self, users: np.ndarray) -> np.ndarray:
        """Dense pairwise matrix over ``users``.

        Counted as ``n(n-1)/2`` — the number of distinct pairs, which
        is what the brute-force cost model in the paper charges.
        """
        users = np.asarray(users, dtype=np.int64)
        n = users.size
        self._charge(n * (n - 1) // 2)
        return self._matrix(users)

    def matrices(self, groups: np.ndarray) -> np.ndarray:
        """Dense pairwise matrices of ``G`` equal-size user groups.

        ``groups`` has shape ``(G, c)``; the result ``(G, c, c)`` holds
        the block of ``groups[g]`` against itself at ``[g]``. Counted as
        ``G * c(c-1)/2``, like :meth:`matrix` once per group.
        """
        groups = np.asarray(groups, dtype=np.int64)
        g, c = groups.shape
        self._charge(g * (c * (c - 1) // 2))
        return self._matrices(groups)

    def _matrices(self, groups: np.ndarray) -> np.ndarray:
        out = np.empty((*groups.shape, groups.shape[1]), dtype=np.float64)
        for pos, users in enumerate(groups):
            out[pos] = self._block(users, users)
        return out

    # -- out-of-index queries (query-serving subsystem) -----------------

    def prepare_query(self, profile) -> object:
        """Prepare an arbitrary item-set profile for repeated scoring.

        The returned handle is backend-specific (raw ids for exact
        engines, a fingerprint/filter row for compact ones) and is
        consumed by :meth:`query_many`. Preparation is O(|profile|)
        maintenance work, not a similarity evaluation, so it is not
        counted — exactly like :meth:`update_profile`.
        """
        profile = np.unique(np.asarray(profile, dtype=np.int64))
        if profile.size and profile[0] < 0:
            raise ValueError("item ids must be non-negative")
        return self._prepare_query(profile)

    def query_many(self, query: object, users: np.ndarray) -> np.ndarray:
        """Similarity of a prepared query profile vs each of ``users``.

        Counted as ``len(users)`` evaluations — a served query spends
        from the same budget the build and update paths do, which is
        what lets benchmarks report "fraction of a brute-force query".
        """
        users = np.asarray(users, dtype=np.int64)
        self._charge(users.size)
        return self._query_many(query, users)

    def _prepare_query(self, profile: np.ndarray) -> object:
        return profile

    @abstractmethod
    def _query_many(self, query: object, users: np.ndarray) -> np.ndarray: ...

    # -- incremental updates --------------------------------------------

    def update_profile(self, user: int, added_items: np.ndarray | None = None) -> None:
        """Notify the engine that ``user``'s profile changed in the dataset.

        The dataset the engine was built over must already reflect the
        change (the online subsystem mutates its
        :class:`~repro.online.MutableDataset` first, then calls this).

        Args:
            user: the dirty user. May be a brand-new index one past the
                previously known users — engines grow their per-user
                state to cover it.
            added_items: sorted item ids that were *appended* to the
                profile. ``None`` signals an arbitrary change (new user,
                removal, rewrite): engines rebuild that user's state
                from the dataset instead of patching it in place.

        Updates are not counted as similarity evaluations; they are the
        O(|update|) maintenance cost the GoldFinger representation makes
        cheap (OR a few bits), which is the point of the subsystem.
        """
        self._update_profile(int(user), added_items)

    def _update_profile(self, user: int, added_items: np.ndarray | None) -> None:
        """Backend hook; default engines keep no per-user caches."""

    def block(self, us: np.ndarray, vs: np.ndarray, counted: bool = True) -> np.ndarray:
        """Similarity block of shape ``(len(us), len(vs))``.

        With ``counted=False`` the caller takes responsibility for
        charging via :meth:`charge` (used by solvers that exploit
        symmetry so the reported count matches the paper's cost model).
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if counted:
            self._charge(us.size * vs.size)
        return self._block(us, vs)

    def _block(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        out = np.empty((us.size, vs.size), dtype=np.float64)
        for pos, u in enumerate(us):
            out[pos] = self._one_to_many(int(u), vs)
        return out

    @abstractmethod
    def _pair(self, u: int, v: int) -> float: ...

    @abstractmethod
    def _one_to_many(self, user: int, others: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _matrix(self, users: np.ndarray) -> np.ndarray: ...


class _ExactQuery:
    """A prepared out-of-index profile with a cached membership mask.

    The serving walk scores one small candidate batch per hop against
    the same query; caching the item mask turns the per-batch cost into
    one fancy-indexing gather. The mask is rebuilt if the item universe
    grew since preparation (an online mutation between two scoring
    calls against the same handle).
    """

    __slots__ = ("profile", "_mask")

    def __init__(self, profile: np.ndarray) -> None:
        self.profile = profile
        self._mask: np.ndarray | None = None

    def mask(self, dataset: Dataset) -> np.ndarray:
        if self._mask is None or self._mask.size != dataset.n_items:
            self._mask = profile_mask(dataset, self.profile)
        return self._mask


class ExactEngine(SimilarityEngine):
    """Exact set similarity on raw profiles (``metric``: jaccard|cosine)."""

    def __init__(self, dataset: Dataset, metric: str = "jaccard") -> None:
        super().__init__(dataset)
        if metric not in ("jaccard", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self._csr = None  # lazy cache of the sparse user x item matrix

    def _csr_matrix(self):
        if self._csr is None:
            self._csr = self.dataset.to_csr_matrix()
        return self._csr

    def _update_profile(self, user: int, added_items: np.ndarray | None) -> None:
        self._csr = None  # raw profiles are read live; only the cache is stale

    def _prepare_query(self, profile: np.ndarray) -> object:
        return _ExactQuery(profile)

    def _query_many(self, query: object, users: np.ndarray) -> np.ndarray:
        if isinstance(query, _ExactQuery):
            profile, mask = query.profile, query.mask(self.dataset)
        else:  # raw profile array (legacy callers / tests)
            profile, mask = query, None
        inter, sizes = profile_intersections(self.dataset, profile, users, mask=mask)
        if self.metric == "jaccard":
            denom = profile.size + sizes - inter
        else:
            denom = np.sqrt(float(profile.size) * sizes)
        out = np.zeros(users.size, dtype=np.float64)
        nz = denom > 0
        out[nz] = inter[nz] / denom[nz]
        return out

    def _pair(self, u: int, v: int) -> float:
        a, b = self.dataset.profile(u), self.dataset.profile(v)
        return jaccard_pair(a, b) if self.metric == "jaccard" else cosine_pair(a, b)

    def _one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        fn = jaccard_one_to_many if self.metric == "jaccard" else cosine_one_to_many
        return fn(self.dataset, user, others)

    def _matrix(self, users: np.ndarray) -> np.ndarray:
        if self.metric == "jaccard":
            return self._block(users, users)
        return cosine_matrix(self.dataset, users)

    def _block(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        if self.metric != "jaccard":
            return super()._block(us, vs)
        matrix = self._csr_matrix()
        inter = np.asarray((matrix[us] @ matrix[vs].T).todense(), dtype=np.float64)
        size_u = self.dataset.profile_sizes[us].astype(np.float64)
        size_v = self.dataset.profile_sizes[vs].astype(np.float64)
        union = size_u[:, None] + size_v[None, :] - inter
        out = np.zeros_like(inter)
        nz = union > 0
        out[nz] = inter[nz] / union[nz]
        return out


class GoldFingerEngine(SimilarityEngine):
    """Jaccard estimated from GoldFinger fingerprints (paper default)."""

    def __init__(self, dataset: Dataset, n_bits: int = 1024, seed: int = 7) -> None:
        super().__init__(dataset)
        self.goldfinger = GoldFinger(dataset, n_bits=n_bits, seed=seed)

    @property
    def n_bits(self) -> int:
        """Fingerprint width in bits."""
        return self.goldfinger.n_bits

    def _update_profile(self, user: int, added_items: np.ndarray | None) -> None:
        if added_items is not None:
            self.goldfinger.add_items(user, added_items)
        else:
            self.goldfinger.set_profile(
                user, self.dataset.profile(user), n_items=self.dataset.n_items
            )

    def _prepare_query(self, profile: np.ndarray) -> object:
        return self.goldfinger.fingerprint_profile(profile)

    def _query_many(self, query: object, users: np.ndarray) -> np.ndarray:
        return self.goldfinger.estimate_fp_one_to_many(query, users)

    def _pair(self, u: int, v: int) -> float:
        return self.goldfinger.estimate_pair(u, v)

    def _one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        return self.goldfinger.estimate_one_to_many(user, others)

    def _matrix(self, users: np.ndarray) -> np.ndarray:
        return self.goldfinger.estimate_matrix(users)

    def _block(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.goldfinger.estimate_block(us, vs)

    def _matrices(self, groups: np.ndarray) -> np.ndarray:
        return self.goldfinger.estimate_stack(groups)


class BloomEngine(SimilarityEngine):
    """Jaccard estimated from Bloom-filter summaries (§VII alternative).

    Slower and biased relative to GoldFinger at equal width (cardinality
    inversion is nonlinear), but supports multi-hash filters; provided
    for the compact-structure ablation.
    """

    def __init__(self, dataset: Dataset, n_bits: int = 1024, n_hashes: int = 2,
                 seed: int = 11) -> None:
        super().__init__(dataset)
        self.bloom = BloomFilterTable(
            dataset, n_bits=n_bits, n_hashes=n_hashes, seed=seed
        )

    def _update_profile(self, user: int, added_items: np.ndarray | None) -> None:
        if added_items is not None:
            self.bloom.add_items(user, added_items)
        else:
            self.bloom.set_profile(
                user, self.dataset.profile(user), n_items=self.dataset.n_items
            )

    def _prepare_query(self, profile: np.ndarray) -> object:
        return self.bloom.filter_profile(profile)

    def _query_many(self, query: object, users: np.ndarray) -> np.ndarray:
        return self.bloom.estimate_filter_one_to_many(query, users)

    def _pair(self, u: int, v: int) -> float:
        return self.bloom.estimate_pair(u, v)

    def _one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        return self.bloom.estimate_one_to_many(user, others)

    def _matrix(self, users: np.ndarray) -> np.ndarray:
        return self._block(users, users)


def make_engine(
    dataset: Dataset,
    backend: str = "goldfinger",
    n_bits: int = 1024,
    metric: str = "jaccard",
    seed: int = 7,
) -> SimilarityEngine:
    """Factory: ``backend`` is ``"goldfinger"`` (paper default),
    ``"exact"``, or ``"bloom"`` (related-work compact structure)."""
    if backend == "goldfinger":
        if metric != "jaccard":
            raise ValueError("GoldFinger only estimates Jaccard similarity")
        return GoldFingerEngine(dataset, n_bits=n_bits, seed=seed)
    if backend == "exact":
        return ExactEngine(dataset, metric=metric)
    if backend == "bloom":
        if metric != "jaccard":
            raise ValueError("Bloom filters only estimate Jaccard similarity")
        return BloomEngine(dataset, n_bits=n_bits)
    raise ValueError(f"unknown backend {backend!r}")
