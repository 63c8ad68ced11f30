"""Routing a single profile to its FastRandomHash cluster.

The batch pipeline assigns users to clusters in bulk: hash everyone,
group by value, recursively split oversized groups. An incremental
index must answer the same question for *one* (new or changed) profile
without re-hashing the world. Two observations make that possible:

* a profile's split-descent values are just its sorted distinct item
  hash values (``FastRandomHash.profile_hash_path``): splitting with
  ``H\\eta`` always moves a user to her next-larger value, so the
  cluster a user can sit in is identified by a *prefix* of that path —
  the cluster's ``lineage`` recorded at build time;
* :class:`~repro.core.clustering.ClusteringResult` records which
  lineages were actually split (``split_paths``).

Replaying the descent is then a walk down the profile's path: extend
the lineage prefix while the current cluster was split at build time,
then look the final prefix up. If no cluster exists there (the user
would have been a singleton, or carries hash values unseen at build
time), fall back to the nearest ancestor — the residual cluster a
batch run would have left the user in — or report a miss so the index
can open a fresh cluster. For users present at build time this
reproduces the batch assignment exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.fastrandomhash import UNDEFINED, FastRandomHash
from ..core.hashing import GenerativeHash

__all__ = ["ClusterRouter"]


class ClusterRouter:
    """Maps raw profiles to cluster ids, one per hashing configuration.

    Args:
        hashes: the generative hash family the clustering was built
            with (same objects or same seeds — hash values must match).
        split_paths: the ``(config, lineage)`` pairs recorded by
            :func:`~repro.core.clustering.cluster_dataset`.
    """

    def __init__(self, hashes: list[GenerativeHash], split_paths=frozenset()) -> None:
        self._hashes = list(hashes)
        self._frh = [FastRandomHash(g) for g in self._hashes]
        self._split = set(split_paths)
        self._lineage_to_cluster: list[dict[tuple, int]] = [{} for _ in self._hashes]
        # Row-stacked copy of every config's hash table, rebuilt lazily
        # when the item universe grows — lets hash_paths() gather all t
        # configurations' item hashes in one fancy-indexing pass.
        self._stack: np.ndarray | None = None
        self._stack_items = -1

    @property
    def n_configs(self) -> int:
        """Number of hashing configurations ``t``."""
        return len(self._hashes)

    @property
    def split_paths(self) -> frozenset:
        """All ``(config, lineage)`` pairs currently marked as split."""
        return frozenset(self._split)

    def is_split(self, config: int, lineage: tuple) -> bool:
        """Whether ``lineage`` was split (at build time or online)."""
        return (int(config), tuple(lineage)) in self._split

    def mark_split(self, config: int, lineage: tuple) -> None:
        """Record an **online** split of ``lineage``.

        After this, :meth:`route` descends past the lineage exactly as
        it does for build-time splits — the primitive
        :meth:`repro.online.OnlineIndex._resplit` re-partitions
        oversized clusters with (and a delta replay applies from the
        ``resplit`` payload).
        """
        self._split.add((int(config), tuple(lineage)))

    def split_hashes(self, config: int, dataset, users, eta: int):
        """``H\\eta`` values for ``users`` under configuration ``config``.

        The re-hash an online re-split groups a swollen cluster's
        members by — the same
        :meth:`~repro.core.fastrandomhash.FastRandomHash.user_hashes_excluding`
        sweep the batch splitter uses, so online children are exactly
        the clusters a batch split of the same member set would form.
        """
        return self._frh[config].user_hashes_excluding(
            dataset, np.asarray(users, dtype=np.int64), int(eta)
        )

    def ensure_items(self, n_items: int) -> None:
        """Extend the hash tables to cover a grown item universe."""
        for gen in self._hashes:
            gen.extend(n_items)

    def register(self, config: int, lineage: tuple, cluster_id: int) -> None:
        """Bind a cluster lineage to ``cluster_id`` for future routing.

        Lineages are unique within a configuration (a split partitions
        its parent), so the first registration wins.
        """
        self._lineage_to_cluster[config].setdefault(tuple(lineage), int(cluster_id))

    def hash_paths(self, profile: np.ndarray) -> list[np.ndarray]:
        """``profile_hash_path`` under every configuration at once.

        One fancy-indexing gather over a row-stacked copy of the hash
        tables plus one row-wise sort replaces ``t`` separate
        per-config hash + ``np.unique`` passes — the difference is
        measurable on the serving hot path, which routes every query
        through all ``t`` configurations. Values are identical to
        :meth:`~repro.core.fastrandomhash.FastRandomHash.profile_hash_path`
        per config (sorted distinct item hash values).
        """
        if not self._hashes:
            return []
        n_items = self._hashes[0].table.size
        if profile.size == 0:
            return [np.empty(0, dtype=np.int64) for _ in self._hashes]
        if self._stack is None or self._stack_items != n_items:
            self._stack = np.vstack([g.table for g in self._hashes])
            self._stack_items = n_items
        rows = np.sort(self._stack[:, profile].astype(np.int64), axis=1)
        paths = []
        for row in rows:
            keep = np.empty(row.size, dtype=bool)
            keep[0] = True
            np.not_equal(row[1:], row[:-1], out=keep[1:])
            paths.append(row[keep])
        return paths

    def route(
        self, config: int, profile: np.ndarray, path: np.ndarray | None = None
    ) -> tuple[tuple, int]:
        """Destination of ``profile`` under configuration ``config``.

        Returns ``(lineage, cluster_id)`` — the descent prefix where
        the profile settles and the matching registered cluster, or
        ``cluster_id = -1`` when no cluster exists there yet (the
        caller opens one and registers it under ``lineage``).
        ``path`` short-circuits the hash step with this config's entry
        from a :meth:`hash_paths` batch.
        """
        frh = self._frh[config]
        if path is None:
            path = frh.profile_hash_path(profile)
        table = self._lineage_to_cluster[config]
        if path.size == 0:
            lineage = (UNDEFINED,)
            return lineage, table.get(lineage, -1)

        lineage = (int(path[0]),)
        while (config, lineage) in self._split:
            deeper = path[path > lineage[-1]]
            if deeper.size == 0:
                break  # H\eta undefined: a batch run keeps u in the residual
            lineage = lineage + (int(deeper[0]),)

        probe = lineage
        while probe:
            cid = table.get(probe, -1)
            if cid >= 0:
                return probe, cid
            probe = probe[:-1]
        return lineage, -1
