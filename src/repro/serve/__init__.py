"""Query serving over maintained C² KNN graphs — the read path.

The batch pipeline builds the graph, ``repro.online`` keeps it fresh;
this package answers traffic against it: top-k neighbour queries for
arbitrary (including out-of-index) profiles via cluster-routed
graph-walk search (:class:`GraphSearcher`, with optional exact
re-ranking for estimate backends), one batching/caching front end with
sync and ``asyncio`` entry points and partial cache invalidation
(:class:`QueryEngine`) that walks each deduped miss on the calling
thread, and an adapter that turns served neighbours into item
recommendations (:class:`Recommender`). Every similarity a query
spends is counted through the engine's ``charge()`` protocol, so
serving cost is comparable with build and update cost in the same
currency.
"""

from .engine import QueryEngine
from .recommender import Recommender
from .searcher import GraphSearcher, SearchResult, brute_force_top_k

__all__ = [
    "GraphSearcher",
    "QueryEngine",
    "Recommender",
    "SearchResult",
    "brute_force_top_k",
]
