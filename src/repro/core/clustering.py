"""Step 1 of Cluster-and-Conquer: FastRandomHash clustering with
recursive splitting of oversized clusters (paper §II-D, Alg. 1, Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data.dataset import Dataset
from ..graph.knn_graph import group_by_value
from .fastrandomhash import UNDEFINED, FastRandomHash
from .hashing import GenerativeHash, MinHashPermutation

__all__ = [
    "Cluster",
    "ClusteringResult",
    "cluster_dataset",
    "minhash_cluster_dataset",
]


@dataclass(frozen=True)
class Cluster:
    """A sub-dataset produced by one hashing configuration.

    Attributes:
        users: global user ids in the cluster.
        config: index of the hash function that produced it.
        eta: the hash value ``η`` whose minimum formed this cluster —
            also the exclusion threshold used if it must be split.
        splittable: False for residual clusters (re-splitting them with
            the same ``η`` would be a no-op).
        path: the split lineage ``(η₀, η₁, ..., η)`` from the top-level
            bucket down to this cluster. Identifies a cluster uniquely
            within its configuration (``eta`` alone does not: different
            subtrees can produce children with equal η), which is what
            lets the online router replay the descent for one profile.
            Empty for externally constructed clusters; treated as
            ``(eta,)`` then.
    """

    users: np.ndarray
    config: int
    eta: int
    splittable: bool = True
    path: tuple = ()

    @property
    def size(self) -> int:
        """Number of users in the cluster."""
        return int(self.users.size)

    @property
    def lineage(self) -> tuple:
        """``path`` with the single-bucket fallback applied."""
        return self.path if self.path else (self.eta,)


@dataclass(frozen=True)
class ClusteringResult:
    """All clusters across the ``t`` configurations, plus diagnostics.

    ``split_paths`` records the ``(config, lineage)`` of every cluster
    that was recursively split. Together with the clusters themselves
    this is enough to replay the split descent for a *single* (new or
    changed) user profile — the primitive the online-update subsystem
    routes with (see :class:`repro.online.ClusterRouter`).
    """

    clusters: list[Cluster]
    n_configs: int
    n_splits: int
    split_paths: frozenset = frozenset()

    def sizes(self) -> np.ndarray:
        """Cluster sizes, descending."""
        return np.sort(np.array([c.size for c in self.clusters], dtype=np.int64))[::-1]

    def config_clusters(self, config: int) -> list[Cluster]:
        """Clusters belonging to hashing configuration ``config``."""
        return [c for c in self.clusters if c.config == config]


def split_cluster(
    dataset: Dataset,
    frh: FastRandomHash,
    cluster: Cluster,
    threshold: int,
    split_paths: set | None = None,
) -> tuple[list[Cluster], int]:
    """Recursively split ``cluster`` until every piece is <= ``threshold``.

    Implements the paper's rule: users are re-hashed with
    ``H\\η``; users with an undefined hash or alone in their new
    cluster stay in the (residual) parent, which becomes unsplittable.
    Returns the resulting clusters and the number of split operations.
    When ``split_paths`` is given, the ``(config, lineage)`` of every
    cluster that gets split is added to it (consumed by the online
    cluster router to replay the descent for a single profile).
    """
    if not cluster.splittable or cluster.size <= threshold:
        return [cluster], 0
    if split_paths is not None:
        split_paths.add((cluster.config, cluster.lineage))

    new_hashes = frh.user_hashes_excluding(dataset, cluster.users, cluster.eta)
    stay_mask = new_hashes == UNDEFINED
    moved = cluster.users[~stay_mask]
    moved_hashes = new_hashes[~stay_mask]

    stay_users = [cluster.users[stay_mask]]
    children: list[Cluster] = []
    for value, members in group_by_value(moved, moved_hashes):
        if members.size <= 1:
            stay_users.append(members)  # singletons remain in C
        else:
            children.append(
                Cluster(
                    users=members,
                    config=cluster.config,
                    eta=value,
                    path=cluster.lineage + (value,),
                )
            )

    residual_users = np.concatenate(stay_users) if stay_users else np.empty(0, dtype=np.int64)
    out: list[Cluster] = []
    n_splits = 1
    if residual_users.size:
        out.append(replace(cluster, users=residual_users, splittable=False))
    for child in children:
        pieces, splits = split_cluster(dataset, frh, child, threshold, split_paths)
        out.extend(pieces)
        n_splits += splits
    return out, n_splits


def cluster_dataset(
    dataset: Dataset,
    hashes: list[GenerativeHash],
    split_threshold: int | None = 2000,
) -> ClusteringResult:
    """Cluster ``dataset`` with ``t = len(hashes)`` FastRandomHash
    functions (Alg. 1), then recursively split oversized clusters.

    ``split_threshold=None`` disables splitting (ablation switch).
    """
    clusters: list[Cluster] = []
    n_splits = 0
    split_paths: set = set()
    all_users = np.arange(dataset.n_users, dtype=np.int64)
    for config, gen in enumerate(hashes):
        frh = FastRandomHash(gen)
        user_hashes = frh.user_hashes(dataset)
        for value, members in group_by_value(all_users, user_hashes):
            cluster = Cluster(users=members, config=config, eta=value, path=(value,))
            if split_threshold is not None:
                pieces, splits = split_cluster(
                    dataset, frh, cluster, split_threshold, split_paths
                )
                clusters.extend(pieces)
                n_splits += splits
            else:
                clusters.append(cluster)
    return ClusteringResult(
        clusters=clusters,
        n_configs=len(hashes),
        n_splits=n_splits,
        split_paths=frozenset(split_paths),
    )


def minhash_cluster_dataset(
    dataset: Dataset,
    permutations: list[MinHashPermutation],
) -> ClusteringResult:
    """MinHash bucketing (LSH-style): one configuration per permutation.

    The hash space is the item universe itself (``b = m``), so no
    recursive splitting is applied — this is both the LSH baseline's
    bucketing and the Table IV "C²/MinHash" ablation.
    """
    clusters: list[Cluster] = []
    all_users = np.arange(dataset.n_users, dtype=np.int64)
    for config, perm in enumerate(permutations):
        ranks = perm(dataset.indices).astype(np.int64)
        user_min = np.full(dataset.n_users, UNDEFINED, dtype=np.int64)
        nonempty = np.flatnonzero(dataset.profile_sizes > 0)
        if nonempty.size:
            mins = np.minimum.reduceat(ranks, dataset.indptr[nonempty])
            user_min[nonempty] = mins
        for value, members in group_by_value(all_users, user_min):
            clusters.append(
                Cluster(
                    users=members, config=config, eta=value,
                    splittable=False, path=(value,),
                )
            )
    return ClusteringResult(clusters=clusters, n_configs=len(permutations), n_splits=0)
