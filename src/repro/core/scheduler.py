"""Step 2 scheduling: largest-first parallel processing of clusters.

The paper stores clusters in a synchronized, size-ordered priority
queue drained by a thread pool, so the biggest clusters start first
and cannot straggle at the end of the computation. We reproduce this
with a ``ThreadPoolExecutor`` fed in sorted order — submission order
equals dequeue order, which is exactly the priority-queue discipline.
Each worker computes its cluster's partial KNN in isolation (no
synchronisation between clusters, the paper's key parallelism claim).

Whether the workers overlap depends on what holds the CPU. Measured
on the ``build`` benchmark's C² build (2-core Xeon, OpenBLAS):

* Python and small numpy calls hold the GIL. Solved one by one, the
  thousands of tiny clusters of a C² build serialised the pool: two
  workers were no faster than one. C² therefore hands the pool
  batches of equal-size clusters (:func:`~.local_knn.batch_clusters`),
  a few large numpy calls each, and with one BLAS thread two workers
  now take about half the local-KNN time of one.
* The GoldFinger kernel is a BLAS GEMM. Under a multi-threaded BLAS
  (OpenBLAS defaults to one thread per core), GEMMs issued by two
  workers at once run one after the other inside OpenBLAS, and its
  helper threads, which spin between calls, take CPU from the other
  worker: two workers are then slower than one. The library sets no
  BLAS state, so the two thread counts stay the caller's to choose.

A FIFO mode is kept for the scheduling ablation benchmark.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = ["run_clusters", "makespan_lower_bound"]

T = TypeVar("T")
W = TypeVar("W")


def run_clusters(
    clusters: Sequence[W],
    solve: Callable[[W], T],
    n_workers: int = 1,
    order: str = "largest_first",
) -> list[T]:
    """Run ``solve`` over every cluster; returns results in input order.

    Args:
        clusters: work items with a ``size`` (a :class:`Cluster` or a
            :class:`~.local_knn.ClusterBatch`).
        solve: per-cluster solver (must be thread-safe across clusters).
        n_workers: thread-pool size; ``1`` runs inline (deterministic,
            no pool overhead — the default for tests).
        order: ``"largest_first"`` (paper) or ``"fifo"`` (ablation).
    """
    if order not in ("largest_first", "fifo"):
        raise ValueError(f"unknown scheduling order {order!r}")
    indexed = list(enumerate(clusters))
    if order == "largest_first":
        indexed.sort(key=lambda pair: pair[1].size, reverse=True)

    results: list[T] = [None] * len(clusters)  # type: ignore[list-item]
    if n_workers <= 1:
        for pos, cluster in indexed:
            results[pos] = solve(cluster)
        return results

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [(pos, pool.submit(solve, cluster)) for pos, cluster in indexed]
        for pos, future in futures:
            results[pos] = future.result()
    return results


def makespan_lower_bound(sizes: Sequence[int], n_workers: int) -> float:
    """Lower bound on parallel completion time under the paper's cost
    model (work per cluster ∝ ``size²`` for brute-forced clusters).

    Used by the scheduling ablation to show why balanced clusters and
    largest-first dispatch matter: ``max(max_cluster_work,
    total_work / n_workers)``.
    """
    work = [float(s) * s for s in sizes]
    if not work:
        return 0.0
    return max(max(work), sum(work) / max(1, n_workers))
