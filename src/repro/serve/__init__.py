"""Query serving over maintained C² KNN graphs — the read path.

The batch pipeline builds the graph, ``repro.online`` keeps it fresh;
this package answers traffic against it: top-k neighbour queries for
arbitrary (including out-of-index) profiles via cluster-routed
graph-walk search (:class:`GraphSearcher`, with optional exact
re-ranking for estimate backends), a batching/caching front end with
sync and ``asyncio`` entry points and partial cache invalidation
(:class:`QueryEngine`), a multi-worker variant that partitions deduped
batches across thread shards (:class:`ShardedQueryEngine`)
— optionally backed by per-shard replica indexes that converge via
shipped journal deltas instead of shared state (:class:`ReplicaSet`) —
and an adapter that turns served neighbours into item recommendations
(:class:`Recommender`). Every similarity a query spends is counted
through the engine's ``charge()`` protocol, so serving cost is
comparable with build and update cost in the same currency.
"""

from .engine import QueryEngine
from .recommender import Recommender
from .replica import ReplicaSet
from .searcher import GraphSearcher, SearchResult, brute_force_top_k
from .sharded import ShardedQueryEngine

__all__ = [
    "GraphSearcher",
    "QueryEngine",
    "Recommender",
    "ReplicaSet",
    "SearchResult",
    "ShardedQueryEngine",
    "brute_force_top_k",
]
