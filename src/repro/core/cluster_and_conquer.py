"""Cluster-and-Conquer (C²) — the paper's main contribution (§II).

Pipeline: FastRandomHash clustering (+ recursive splitting) → parallel
per-cluster KNN (brute force / Hyrec hybrid, largest-first schedule,
small equal-size clusters brute-forced in batches) → bounded-heap
merge. Every similarity goes through the provided
:class:`SimilarityEngine` (GoldFinger by default, exact for the
Table V ablation).
"""

from __future__ import annotations

import time

import numpy as np

from ..result import BuildResult, track_build
from ..similarity.engine import SimilarityEngine
from .clustering import cluster_dataset, minhash_cluster_dataset
from .config import C2Params
from .hashing import make_hash_family, make_minhash_family
from .local_knn import (
    ClusterBatch,
    PartialKNN,
    batch_clusters,
    brute_force_batch,
    solve_cluster,
)
from .merge import merge_partials
from .scheduler import run_clusters

__all__ = ["cluster_and_conquer"]


def cluster_and_conquer(
    engine: SimilarityEngine,
    params: C2Params | None = None,
    keep_clustering: bool = False,
) -> BuildResult:
    """Build an approximate KNN graph with Cluster-and-Conquer.

    Args:
        engine: similarity oracle over the dataset (GoldFinger-backed
            to match the paper's setup, exact for ablations).
        params: algorithm parameters; defaults to :class:`C2Params`.
        keep_clustering: also store the :class:`ClusteringResult` and
            the hash family in ``extra`` (``"clustering"``/``"hashes"``)
            so an :class:`repro.online.OnlineIndex` can take over the
            built graph for incremental maintenance.

    Returns:
        A :class:`BuildResult`; ``extra`` carries per-step timings and
        clustering diagnostics (``n_clusters``, ``cluster_sizes``,
        ``n_splits``).
    """
    params = params or C2Params()
    dataset = engine.dataset

    with track_build(engine) as info:
        # -- Step 1: clustering ----------------------------------------
        t0 = time.perf_counter()
        if params.hash_family == "frh":
            hashes = make_hash_family(
                dataset.n_items, params.n_buckets, params.n_hashes, seed=params.seed
            )
            clustering = cluster_dataset(dataset, hashes, params.split_threshold)
        else:  # "minhash": Table IV ablation / LSH-style bucketing
            hashes = make_minhash_family(dataset.n_items, params.n_hashes, seed=params.seed)
            clustering = minhash_cluster_dataset(dataset, hashes)
        t_cluster = time.perf_counter() - t0

        # -- Step 2: scheduled local KNN computations -------------------
        t0 = time.perf_counter()

        def solve(batch: ClusterBatch) -> list[PartialKNN]:
            if len(batch.clusters) > 1:
                users = np.stack([cluster.users for cluster in batch.clusters])
                return brute_force_batch(engine, users, params.k)
            cluster = batch.clusters[0]
            return [
                solve_cluster(
                    engine,
                    cluster.users,
                    params.k,
                    rho=params.rho,
                    delta=params.delta,
                    max_iterations=params.max_iterations,
                    seed=params.seed + cluster.config,
                )
            ]

        batches = batch_clusters(clustering.clusters, params.k, params.rho)
        solved = run_clusters(
            batches,
            solve,
            n_workers=params.n_workers,
            order=params.schedule,
        )
        partials: list[PartialKNN] = [None] * len(clustering.clusters)  # type: ignore[list-item]
        for batch, result in zip(batches, solved):
            for pos, partial in zip(batch.positions, result):
                partials[pos] = partial
        t_local = time.perf_counter() - t0

        # -- Step 3: merge ----------------------------------------------
        t0 = time.perf_counter()
        graph = merge_partials(partials, dataset.n_users, params.k)
        t_merge = time.perf_counter() - t0

    sizes = clustering.sizes()
    extra_state = (
        {"clustering": clustering, "hashes": hashes} if keep_clustering else {}
    )
    return BuildResult(
        graph=graph,
        seconds=info["seconds"],
        comparisons=info["comparisons"],
        iterations=0,
        extra={
            "n_clusters": len(clustering.clusters),
            "n_splits": clustering.n_splits,
            "cluster_sizes": sizes,
            "max_cluster_size": int(sizes[0]) if sizes.size else 0,
            "time_clustering": t_cluster,
            "time_local_knn": t_local,
            "time_merge": t_merge,
            "params": params,
            **extra_state,
        },
    )
