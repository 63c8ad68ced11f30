"""Mutable profile store backing the online-update subsystem.

:class:`~repro.data.dataset.Dataset` is an immutable CSR snapshot —
ideal for the vectorised batch pipeline, wrong for a system where users
rate new items every second. :class:`MutableDataset` keeps its profiles
in a *slack CSR*: one append-only ``int32`` item buffer plus per-user
``start``, ``length`` and ``active`` arrays. A write patches those in
place and costs O(change), never O(population):

* ``add_user`` appends the profile at the buffer's tail and one slot to
  each per-user array (both grow by amortized doubling);
* ``add_items`` re-appends the merged profile at the tail and repoints
  the user's ``start``; the old segment becomes dead space;
* ``remove_user`` zeroes the length and clears the active flag.

Dead space is reclaimed by compacting the buffer once it outgrows the
live items (and the user count), so compaction is amortized O(1) per
written item.

The store duck-types the read interface the similarity kernels and the
clustering step consume. ``starts``/``buffer`` are what
:func:`~repro.data.dataset.gather_profiles` reads, ``profile_sizes``
and :meth:`MutableDataset.active_mask` are views of the patched arrays,
so scoring, walks and re-splits read the store as it stands. Only batch
callers (a rebuild, engine construction, ``to_csr_matrix``) ask for a
packed :meth:`MutableDataset.snapshot`, built by one vectorised gather
and kept until the next write.

Removed users keep their index with an empty profile (tombstones) so
user ids — and thus graph rows, fingerprints and hash values — stay
stable for everyone else.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset, gather_profiles

__all__ = ["MutableDataset"]


def _grown(array: np.ndarray, need: int) -> np.ndarray:
    """``array`` with capacity for ``need`` entries (amortized doubling)."""
    if need <= array.size:
        return array
    out = np.zeros(max(need, 2 * array.size, 8), dtype=array.dtype)
    out[: array.size] = array
    return out


class MutableDataset:
    """A users/items dataset supporting per-user profile mutation.

    Profiles live in a slack CSR (see the module docstring): user ``u``'s
    sorted, unique item ids are ``buffer[starts[u]:starts[u] +
    profile_sizes[u]]``, and every write patches these arrays in place.

    Args:
        profiles: optional initial per-user item collections.
        n_items: initial item universe size (grows automatically when
            larger item ids are added).
        name: dataset label.
    """

    def __init__(self, profiles=None, n_items: int = 0, name: str = "online") -> None:
        self.name = name
        self._n_items = int(n_items)
        self._n_users = 0
        # Capacity arrays; the first ``_n_users`` / ``_tail`` entries are in use.
        self._buf = np.zeros(0, dtype=np.int32)
        self._tail = 0
        self._live = 0  # items in live segments; ``_tail - _live`` is dead space
        self._start = np.zeros(0, dtype=np.int64)
        self._len = np.zeros(0, dtype=np.int64)
        self._active = np.zeros(0, dtype=bool)
        self._snapshot: Dataset | None = None
        for p in profiles or []:
            self.add_user(p)

    @classmethod
    def from_dataset(cls, dataset: Dataset, name: str | None = None) -> "MutableDataset":
        """Thaw an immutable :class:`Dataset` into a mutable store."""
        out = cls(n_items=dataset.n_items, name=name or dataset.name)
        out._load(dataset.indices.copy(), dataset.profile_sizes.copy(),
                  np.ones(dataset.n_users, dtype=bool))
        return out

    def _load(self, items: np.ndarray, sizes: np.ndarray, active: np.ndarray) -> None:
        """Adopt packed profiles (no dead space) as the whole store."""
        self._buf = items
        self._tail = self._live = int(items.size)
        self._len = sizes
        self._start = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=self._start[1:])
        self._active = active
        self._n_users = int(sizes.size)
        self._snapshot = None

    # ------------------------------------------------------------------
    # Pickling: live items only, no slack
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        items, _ = gather_profiles(self, np.arange(self._n_users))
        return {
            "name": self.name,
            "n_items": self._n_items,
            "items": items,
            "sizes": self.profile_sizes.copy(),
            "active": self.active_mask().copy(),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._n_items = state["n_items"]
        self._load(state["items"], state["sizes"], state["active"])

    # ------------------------------------------------------------------
    # Read interface (Dataset-compatible)
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of user slots (tombstones included)."""
        return self._n_users

    @property
    def n_items(self) -> int:
        """Current item universe size (monotonically growing)."""
        return self._n_items

    @property
    def n_ratings(self) -> int:
        """Total number of (user, item) associations."""
        return self._live

    @property
    def profile_sizes(self) -> np.ndarray:
        """``|P_u|`` per user slot (0 for removed users); a live view."""
        return self._len[: self._n_users]

    @property
    def starts(self) -> np.ndarray:
        """Offset of each user's profile in :attr:`buffer`; a live view."""
        return self._start[: self._n_users]

    @property
    def buffer(self) -> np.ndarray:
        """The item buffer profiles are sliced from (dead space included)."""
        return self._buf

    def profile(self, user: int) -> np.ndarray:
        """Sorted item ids of ``user``'s profile (a view, do not mutate).

        Writes never touch a written segment — they append and repoint —
        so the view keeps showing the profile as it was when taken.
        """
        user = self._slot(user)
        start = self._start[user]
        return self._buf[start : start + self._len[user]]

    def profile_set(self, user: int) -> set[int]:
        """``P_u`` as a Python set."""
        return set(int(i) for i in self.profile(user))

    def is_active(self, user: int) -> bool:
        """False once :meth:`remove_user` tombstoned the slot."""
        return bool(self._active[self._slot(user)])

    def active_mask(self) -> np.ndarray:
        """Boolean mask over user slots, True for non-removed users.

        A live view of the flags writes patch in place — the serving
        path filters candidate arrays against it on every search hop.
        """
        return self._active[: self._n_users]

    def active_users(self) -> np.ndarray:
        """Ids of all non-removed users."""
        return np.flatnonzero(self.active_mask()).astype(np.int64)

    def snapshot(self) -> Dataset:
        """An immutable CSR :class:`Dataset` of the current state.

        For batch callers only (a rebuild, engine construction,
        :meth:`to_csr_matrix`): one vectorised gather of the live
        segments, kept until the next write. Tombstoned users appear
        with empty profiles so indices line up.
        """
        if self._snapshot is None:
            indices, indptr = gather_profiles(self, np.arange(self._n_users))
            self._snapshot = Dataset(
                indptr=indptr, indices=indices, n_items=self._n_items,
                name=self.name,
            )
        return self._snapshot

    @property
    def indptr(self) -> np.ndarray:
        """CSR index pointers of the current snapshot (batch callers)."""
        return self.snapshot().indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR item ids of the current snapshot (batch callers)."""
        return self.snapshot().indices

    def to_csr_matrix(self):
        """The binary user x item matrix as ``scipy.sparse.csr_matrix``."""
        return self.snapshot().to_csr_matrix()

    # ------------------------------------------------------------------
    # Mutation interface
    # ------------------------------------------------------------------

    def _clean(self, items) -> np.ndarray:
        items = np.unique(np.asarray(list(items) if not isinstance(items, np.ndarray) else items, dtype=np.int64))
        if items.size and items[0] < 0:
            raise ValueError("item ids must be non-negative")
        if items.size:
            self._n_items = max(self._n_items, int(items[-1]) + 1)
        return items.astype(np.int32)

    def _slot(self, user: int) -> int:
        """``user`` as a checked slot index (IndexError past the last one)."""
        return range(self._n_users)[user]

    def _append(self, profile: np.ndarray) -> int:
        """Write ``profile`` at the buffer's tail; returns its start."""
        start = self._tail
        self._tail += profile.size
        self._buf = _grown(self._buf, self._tail)
        self._buf[start : self._tail] = profile
        self._live += profile.size
        self._snapshot = None
        return start

    def _release(self, user: int) -> None:
        """Turn ``user``'s segment into dead space; compact if it dominates.

        Compaction packs the live segments into a fresh buffer (views
        handed out earlier keep the old one), and waits until the dead
        space outgrows both the live items and the user count, so its
        O(users + live) cost is paid for by the dead items written.
        """
        self._live -= int(self._len[user])
        self._len[user] = 0
        self._snapshot = None
        if self._tail - self._live > max(self._live, self._n_users):
            self._buf, indptr = gather_profiles(self, np.arange(self._n_users))
            self._tail = int(indptr[-1])
            self._start[: self._n_users] = indptr[:-1]

    def add_user(self, items) -> int:
        """Append a new user with the given profile; returns her id."""
        profile = self._clean(items)
        uid = self._n_users
        self._start = _grown(self._start, uid + 1)
        self._len = _grown(self._len, uid + 1)
        self._active = _grown(self._active, uid + 1)
        self._n_users = uid + 1
        self._start[uid] = self._append(profile)
        self._len[uid] = profile.size
        self._active[uid] = True
        return uid

    def add_items(self, user: int, items) -> np.ndarray:
        """Add ``items`` to ``user``'s profile.

        Returns the genuinely new item ids (sorted); already-present
        items are ignored. Raises for tombstoned users.
        """
        user = self._slot(user)
        if not self._active[user]:
            raise ValueError(f"user {user} was removed")
        items = self._clean(items)
        current = self.profile(user)
        added = np.setdiff1d(items, current, assume_unique=False)
        if added.size:
            merged = np.union1d(current, added).astype(np.int32)
            self._release(user)
            self._start[user] = self._append(merged)
            self._len[user] = merged.size
        return added.astype(np.int64)

    def remove_user(self, user: int) -> None:
        """Tombstone ``user``: empty profile, id kept, flagged inactive."""
        user = self._slot(user)
        if not self._active[user]:
            return
        self._active[user] = False
        self._release(user)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableDataset(name={self.name!r}, users={self.n_users} "
            f"({len(self.active_users())} active), items={self.n_items}, "
            f"ratings={self.n_ratings})"
        )
