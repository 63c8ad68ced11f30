"""Incremental maintenance of Cluster-and-Conquer KNN graphs.

The batch pipeline (:func:`repro.core.cluster_and_conquer`) rebuilds
the world; this package keeps a built graph fresh under profile
updates, new users and removals at a tiny fraction of the similarity
budget. See :class:`OnlineIndex` for the full story.
"""

from .dataset import MutableDataset
from .index import OnlineIndex, ReplayGapError
from .router import ClusterRouter

__all__ = [
    "ClusterRouter",
    "MutableDataset",
    "OnlineIndex",
    "ReplayGapError",
]
