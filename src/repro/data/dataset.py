"""Core dataset model: users associated with sets of items.

The paper works on *item-based* datasets: each user ``u`` owns a profile
``P_u``, a subset of the item universe ``I``. Profiles are stored in a
compressed sparse row (CSR) layout — one flat array of item ids plus an
index pointer array — which keeps memory compact and lets similarity
kernels and FastRandomHash operate with vectorised numpy primitives
(``np.minimum.reduceat``, sparse matrix products, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "canonical_profile", "gather_profiles"]


def canonical_profile(profile) -> np.ndarray:
    """``profile`` as sorted-unique ``int64`` item ids.

    Idempotent and cheap on canonical input: an already sorted-unique
    1-D ``int64`` array comes back as is (one O(n) check instead of a
    sort), so every layer of the read path (engine, searcher, router,
    similarity backend) can accept raw profiles while a query is
    sorted only once.
    """
    arr = np.asarray(profile, dtype=np.int64)
    if arr.ndim == 1 and (arr.size < 2 or bool((arr[1:] > arr[:-1]).all())):
        return arr
    return np.unique(arr)


def gather_profiles(dataset, users) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated profiles of ``users`` and their CSR index pointers.

    One vectorised gather through the per-user ``starts`` into the item
    ``buffer`` — the two names both a static :class:`Dataset` and the
    slack-CSR :class:`~repro.online.MutableDataset` expose — so scoring,
    re-hashing and snapshotting read any profile store the same way.
    Returns ``(flat, indptr)``: ``flat[indptr[p]:indptr[p + 1]]`` is the
    profile of ``users[p]``.
    """
    users = np.asarray(users, dtype=np.int64)
    sizes = dataset.profile_sizes[users]
    indptr = np.zeros(users.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    gather = np.repeat(dataset.starts[users] - indptr[:-1], sizes)
    gather += np.arange(int(indptr[-1]), dtype=np.int64)
    return dataset.buffer[gather], indptr


@dataclass(frozen=True)
class Dataset:
    """An immutable users/items dataset with CSR profile storage.

    Attributes:
        indptr: ``int64`` array of shape ``(n_users + 1,)``. Profile of
            user ``u`` lives in ``indices[indptr[u]:indptr[u + 1]]``.
        indices: ``int32`` array of item ids, sorted and unique within
            each user's slice.
        n_items: size of the item universe ``|I|``. Item ids in
            ``indices`` are all ``< n_items``.
        name: human-readable dataset label (used in reports).
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_items: int
    name: str = "dataset"
    _profile_sizes: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed indptr: must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_items):
            raise ValueError("item ids must lie in [0, n_items)")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_profile_sizes", np.diff(indptr))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_profiles(cls, profiles, n_items: int | None = None, name: str = "dataset") -> "Dataset":
        """Build a dataset from an iterable of per-user item collections.

        Items within each profile are deduplicated and sorted. When
        ``n_items`` is omitted it is inferred as ``max(item) + 1``.
        """
        cleaned = [np.unique(np.asarray(list(p), dtype=np.int64)) for p in profiles]
        indptr = np.zeros(len(cleaned) + 1, dtype=np.int64)
        for u, p in enumerate(cleaned):
            indptr[u + 1] = indptr[u] + p.size
        indices = (
            np.concatenate(cleaned).astype(np.int32)
            if cleaned and indptr[-1] > 0
            else np.empty(0, dtype=np.int32)
        )
        if n_items is None:
            n_items = int(indices.max()) + 1 if indices.size else 0
        return cls(indptr=indptr, indices=indices, n_items=int(n_items), name=name)

    @classmethod
    def from_ratings(
        cls,
        users: np.ndarray,
        items: np.ndarray,
        n_users: int | None = None,
        n_items: int | None = None,
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from parallel ``(user, item)`` rating arrays."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("users and items must have the same shape")
        if n_users is None:
            n_users = int(users.max()) + 1 if users.size else 0
        if n_items is None:
            n_items = int(items.max()) + 1 if items.size else 0
        # Sort by (user, item), then deduplicate pairs.
        order = np.lexsort((items, users))
        users, items = users[order], items[order]
        if users.size:
            keep = np.ones(users.size, dtype=bool)
            keep[1:] = (users[1:] != users[:-1]) | (items[1:] != items[:-1])
            users, items = users[keep], items[keep]
        counts = np.bincount(users, minlength=n_users)
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=items.astype(np.int32), n_items=int(n_items), name=name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users ``|U|``."""
        return self.indptr.size - 1

    @property
    def n_ratings(self) -> int:
        """Total number of (user, item) associations."""
        return int(self.indices.size)

    @property
    def profile_sizes(self) -> np.ndarray:
        """``|P_u|`` for every user, shape ``(n_users,)``."""
        return self._profile_sizes

    @property
    def starts(self) -> np.ndarray:
        """Offset of each user's profile in :attr:`buffer` (``indptr[:-1]``, no copy)."""
        return self.indptr[:-1]

    @property
    def buffer(self) -> np.ndarray:
        """The item buffer profiles are sliced from (``indices``, no copy)."""
        return self.indices

    def profile(self, user: int) -> np.ndarray:
        """The sorted item ids of ``user``'s profile (a view, do not mutate)."""
        return self.indices[self.indptr[user] : self.indptr[user + 1]]

    def profile_set(self, user: int) -> set[int]:
        """``P_u`` as a Python set (convenience for tests and examples)."""
        return set(int(i) for i in self.profile(user))

    def iter_profiles(self):
        """Yield ``(user, profile_view)`` pairs in user order."""
        for u in range(self.n_users):
            yield u, self.profile(u)

    @property
    def density(self) -> float:
        """Fraction of the user x item matrix that is filled."""
        cells = self.n_users * self.n_items
        return self.n_ratings / cells if cells else 0.0

    def subset(self, users: np.ndarray, name: str | None = None) -> "Dataset":
        """A new dataset restricted to ``users`` (reindexed 0..len-1).

        The item universe is kept unchanged so that item ids — and thus
        hash values — remain comparable with the parent dataset.
        """
        users = np.asarray(users, dtype=np.int64)
        indices, indptr = gather_profiles(self, users)
        return Dataset(
            indptr=indptr,
            indices=indices,
            n_items=self.n_items,
            name=name or f"{self.name}[{users.size} users]",
        )

    def to_csr_matrix(self):
        """The binary user x item matrix as a ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.indices.size, dtype=np.int32)
        return csr_matrix(
            (data, self.indices.astype(np.int64), self.indptr),
            shape=(self.n_users, self.n_items),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, ratings={self.n_ratings})"
        )
