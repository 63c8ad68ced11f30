"""Baseline KNN-graph builders: brute force, Hyrec, NN-Descent, LSH."""

from ..result import BuildResult, track_build
from .brute_force import brute_force_knn
from .hyrec import hyrec_knn
from .kmeans import kmeans_cluster_dataset, kmeans_knn
from .lsh import lsh_knn
from .nndescent import nndescent_knn

__all__ = [
    "BuildResult",
    "brute_force_knn",
    "hyrec_knn",
    "kmeans_cluster_dataset",
    "kmeans_knn",
    "lsh_knn",
    "nndescent_knn",
    "track_build",
]
