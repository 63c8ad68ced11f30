"""GoldFinger: compact fingerprints for fast Jaccard estimation.

GoldFinger (Guerraoui et al., ICDE 2019 / WWW 2020) summarises each
user's profile into a ``B``-bit vector — the *Single Hash Fingerprint*
(SHF): bit ``hash(i) mod B`` is set for every item ``i`` in the
profile. The Jaccard similarity of two profiles is then estimated from
the fingerprints alone:

    J(u, v) ≈ |fp_u ∩ fp_v| / |fp_u ∪ fp_v|,
    |fp_u ∪ fp_v| = |fp_u| + |fp_v| − |fp_u ∩ fp_v|

The paper runs *all* competitors with 1024-bit GoldFinger vectors, and
ablates them against raw profiles in Table V. Fingerprints are stored
as ``(n_users, B / 64)`` uint64 arrays, and each user's set-bit count
``|fp_u|`` is cached, so only intersections are ever counted.

One-vs-many estimates pop-count ``fp_u AND fp_v`` with
``np.bitwise_count``. Blocks and matrices unpack the bits to float32
0/1 rows and count every intersection of a tile at once as one GEMM,
``A @ B.T`` (``A @ A.T`` for a block of users against themselves, which
numpy hands to BLAS's symmetric kernel). The GEMM is exact in any
summation order and with any number of BLAS threads: every partial sum
is an integer no larger than ``B`` < 2**24, which float32 holds
exactly. The final ``inter / union`` is a float64 division, so every
path yields the same bits.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset
from ._bits import item_bit_tables, item_bits_for

__all__ = ["GoldFinger"]

_WORD_BITS = 64
# Widest fingerprint whose intersection counts float32 holds exactly.
_MAX_BITS = 1 << 24
# Unpacked float32 cells one side of an ``estimate_block`` GEMM tile
# holds (16 MiB): 4096 users at 1024 bits.
_TILE_CELLS = 1 << 22


class GoldFinger:
    """A table of Single Hash Fingerprints for one dataset.

    Args:
        dataset: profiles to fingerprint.
        n_bits: fingerprint width ``B`` (power of two, 64..8192; the
            paper's experiments use 1024).
        seed: seed of the item hash function.
    """

    def __init__(self, dataset: Dataset, n_bits: int = 1024, seed: int = 7) -> None:
        if n_bits < _WORD_BITS or n_bits % _WORD_BITS or n_bits > _MAX_BITS:
            raise ValueError(
                f"n_bits must be a positive multiple of {_WORD_BITS} up to {_MAX_BITS}"
            )
        self.n_bits = int(n_bits)
        self.n_words = self.n_bits // _WORD_BITS
        self.seed = int(seed)

        # Hash every item id once, then scatter bits per profile. The
        # per-item tables are kept so single profiles can be patched
        # in place later (the online-update path).
        self._item_words = np.empty(0, dtype=np.int64)
        self._item_masks = np.empty(0, dtype=np.uint64)
        self._ensure_items(dataset.n_items)

        fp = np.zeros((dataset.n_users, self.n_words), dtype=np.uint64)
        item_words = self._item_words[dataset.indices]
        item_masks = self._item_masks[dataset.indices]
        rows = np.repeat(np.arange(dataset.n_users, dtype=np.int64), np.diff(dataset.indptr))
        np.bitwise_or.at(fp, (rows, item_words), item_masks)
        # The public ``fingerprints``/``_sizes`` arrays are views into
        # capacity buffers so per-signup growth is amortized O(1)
        # (geometric doubling) instead of one reallocation per user.
        self._fp_buf = fp
        self._sizes_buf = np.bitwise_count(fp).sum(axis=1).astype(np.int64)
        self.fingerprints = self._fp_buf[: dataset.n_users]
        self._sizes = self._sizes_buf[: dataset.n_users]
        self.reallocations = 0

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def _ensure_items(self, n_items: int) -> None:
        """Extend the per-item bit tables to cover ``n_items`` ids.

        splitmix64 hashes each id independently, so extending the table
        leaves existing fingerprints byte-identical.
        """
        old = self._item_words.size
        if n_items <= old:
            return
        words, masks = item_bit_tables(old, n_items, self.n_bits, self.seed)
        self._item_words = np.concatenate([self._item_words, words])
        self._item_masks = np.concatenate([self._item_masks, masks])

    def _ensure_users(self, n_users: int) -> None:
        """Grow the fingerprint table with zero rows up to ``n_users``.

        Amortized: the backing buffer doubles when exhausted, so ``m``
        consecutive signups trigger O(log m) reallocations, not m.
        """
        cur = self.fingerprints.shape[0]
        if n_users <= cur:
            return
        cap = self._fp_buf.shape[0]
        if n_users > cap:
            new_cap = max(n_users, 2 * cap, 8)
            fp_buf = np.zeros((new_cap, self.n_words), dtype=np.uint64)
            fp_buf[:cur] = self.fingerprints
            sizes_buf = np.zeros(new_cap, dtype=np.int64)
            sizes_buf[:cur] = self._sizes
            self._fp_buf, self._sizes_buf = fp_buf, sizes_buf
            self.reallocations += 1
        self.fingerprints = self._fp_buf[:n_users]
        self._sizes = self._sizes_buf[:n_users]

    def add_items(self, user: int, items: np.ndarray) -> None:
        """OR the bits of ``items`` into ``user``'s fingerprint.

        The natural SHF update: an append-only profile change costs
        O(|items|) regardless of profile or dataset size.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return
        self._ensure_items(int(items.max()) + 1)
        self._ensure_users(user + 1)
        row = self.fingerprints[user]
        np.bitwise_or.at(row, self._item_words[items], self._item_masks[items])
        self._sizes[user] = int(np.bitwise_count(row).sum())

    def set_profile(self, user: int, profile: np.ndarray, n_items: int | None = None) -> None:
        """Rebuild ``user``'s fingerprint from scratch (new user,
        removal, or a non-append rewrite — bits cannot be un-ORed)."""
        if n_items is not None:
            self._ensure_items(n_items)
        self._ensure_users(user + 1)
        profile = np.asarray(profile, dtype=np.int64)
        if profile.size:
            self._ensure_items(int(profile.max()) + 1)
        row = self.fingerprints[user]
        row.fill(0)
        if profile.size:
            np.bitwise_or.at(row, self._item_words[profile], self._item_masks[profile])
        self._sizes[user] = int(np.bitwise_count(row).sum())

    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of fingerprinted users."""
        return self.fingerprints.shape[0]

    def fingerprint_size(self, user: int) -> int:
        """Number of set bits in ``user``'s fingerprint."""
        return int(self._sizes[user])

    def estimate_pair(self, u: int, v: int) -> float:
        """Estimated Jaccard similarity between users ``u`` and ``v``."""
        inter = int(np.bitwise_count(self.fingerprints[u] & self.fingerprints[v]).sum())
        union = int(self._sizes[u]) + int(self._sizes[v]) - inter
        return inter / union if union else 0.0

    def estimate_one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of ``user`` against each user in ``others``."""
        return self.estimate_fp_one_to_many(self.fingerprints[user], others)

    def fingerprint_profile(self, profile: np.ndarray) -> np.ndarray:
        """Fingerprint an arbitrary item-set profile without storing it.

        The query-serving path: out-of-index profiles are summarised
        once, then estimated against stored fingerprints like any user.
        Items outside the stored universe are hashed on the fly — a
        read-only query must not grow the shared item tables (which
        would permanently allocate O(max item id) memory).
        """
        profile = np.asarray(profile, dtype=np.int64)
        row = np.zeros(self.n_words, dtype=np.uint64)
        known = profile[profile < self._item_words.size]
        if known.size:
            np.bitwise_or.at(row, self._item_words[known], self._item_masks[known])
        unseen = profile[profile >= self._item_words.size]
        if unseen.size:
            words, masks = item_bits_for(unseen, self.n_bits, self.seed)
            np.bitwise_or.at(row, words, masks)
        return row

    def estimate_fp_one_to_many(self, fingerprint: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of a fingerprint row vs each user in ``others``."""
        others = np.asarray(others, dtype=np.int64)
        if others.size == 0:
            return np.empty(0, dtype=np.float64)
        inter = np.bitwise_count(fingerprint[None, :] & self.fingerprints[others]).sum(
            axis=1, dtype=np.int64
        )
        union = self._sizes[others] + int(np.bitwise_count(fingerprint).sum()) - inter
        out = np.zeros(others.size, dtype=np.float64)
        np.divide(inter, union, out=out, where=union > 0)
        return out

    def _bits(self, users: np.ndarray) -> np.ndarray:
        """``users``' fingerprints as float32 0/1 cells, one per bit.

        ``users`` may have any shape; the bits form a new last axis.
        """
        return np.unpackbits(self.fingerprints[users].view(np.uint8), axis=-1).astype(np.float32)

    @staticmethod
    def _jaccard(a, sizes_a, b, sizes_b, out: np.ndarray) -> None:
        """Write ``|a ∩ b| / |a ∪ b|`` of unpacked bit tiles into ``out``.

        ``b is None`` scores ``a`` against itself, so numpy takes BLAS's
        symmetric path. The float32 products are exact: every partial
        sum is an integer no larger than ``n_bits`` < 2**24.
        """
        inter = (a @ (a if b is None else b).swapaxes(-1, -2)).astype(np.float64)
        union = sizes_a[..., :, None] + sizes_b[..., None, :]
        union -= inter
        np.divide(inter, union, out=out, where=union > 0)

    def estimate_block(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Estimate block of shape ``(len(us), len(vs))``.

        Both axes are tiled at ``_TILE_CELLS`` unpacked cells, so
        temporaries stay bounded whatever the block size.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.zeros((us.size, vs.size), dtype=np.float64)
        same = us.size == vs.size and np.array_equal(us, vs)
        sizes_u = self._sizes[us].astype(np.float64)
        sizes_v = self._sizes[vs].astype(np.float64)
        step = max(1, _TILE_CELLS // self.n_bits)
        for i in range(0, us.size, step):
            a = self._bits(us[i : i + step])
            for j in range(0, vs.size, step):
                b = None if same and i == j else self._bits(vs[j : j + step])
                self._jaccard(a, sizes_u[i : i + step], b, sizes_v[j : j + step],
                              out[i : i + step, j : j + step])
        return out

    def estimate_stack(self, groups: np.ndarray) -> np.ndarray:
        """Estimate matrices of ``G`` equal-size user groups at once.

        ``groups`` has shape ``(G, c)``; the result ``(G, c, c)`` holds
        ``estimate_matrix(groups[g])`` at ``[g]``. One stacked product
        per tile of groups replaces ``G`` separate calls, which is what
        makes the many small clusters of a C² build cheap.
        """
        groups = np.asarray(groups, dtype=np.int64)
        g, c = groups.shape
        out = np.zeros((g, c, c), dtype=np.float64)
        sizes = self._sizes[groups].astype(np.float64)
        step = max(1, _TILE_CELLS // max(1, c * self.n_bits))
        for i in range(0, g, step):
            tile = slice(i, i + step)
            self._jaccard(self._bits(groups[tile]), sizes[tile], None, sizes[tile], out[tile])
        return out

    def estimate_matrix(self, users: np.ndarray) -> np.ndarray:
        """Dense pairwise estimate matrix for ``users``.

        ``O(len(users)^2 * n_words)`` time and memory; intended for
        clusters (the paper caps cluster sizes at ``N = 2000``).
        """
        users = np.asarray(users, dtype=np.int64)
        return self.estimate_block(users, users)
