"""Profile-to-items adapter: served neighbours → recommendations.

The paper's end application is user-based collaborative filtering over
the KNN graph (§V-B); this module serves it for arbitrary profiles.
A request carries an item-set profile (possibly of a user the index
has never seen); the :class:`QueryEngine` finds the profile's
neighbours among indexed users, and the shared CF scoring core
(:func:`repro.recommend.recommend_from_neighbors`) turns them into
item recommendations — so cache hits, batching and dedup all carry
over to the recommendation workload for free.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import canonical_profile
from ..recommend.cf import recommend_from_neighbors
from .engine import QueryEngine

__all__ = ["Recommender"]


class Recommender:
    """Item recommendations for arbitrary profiles, served online.

    Args:
        queries: the query engine to source neighbours from (its index
            provides the profile store items are scored against).
        n_neighbors: neighbours fetched per request (the CF ``k``).
        n_recommendations: items returned per request by default.
    """

    def __init__(
        self,
        queries: QueryEngine,
        *,
        n_neighbors: int = 20,
        n_recommendations: int = 30,
    ) -> None:
        self.queries = queries
        self.n_neighbors = int(n_neighbors)
        self.n_recommendations = int(n_recommendations)

    @property
    def dataset(self):
        """The profile store recommendations are scored against."""
        return self.queries.index.dataset

    def _count(self, n_recommendations: int | None) -> int:
        return self.n_recommendations if n_recommendations is None else n_recommendations

    def recommend(self, profile, n_recommendations: int | None = None) -> np.ndarray:
        """Top item ids for a profile, best first."""
        profile = canonical_profile(profile)
        result = self.queries.search(profile, k=self.n_neighbors)
        return recommend_from_neighbors(
            self.dataset,
            profile,
            result.ids,
            result.scores,
            self._count(n_recommendations),
        )

    async def recommend_async(
        self, profile, n_recommendations: int | None = None
    ) -> np.ndarray:
        """Awaitable :meth:`recommend`; shares the engine's batching."""
        profile = canonical_profile(profile)
        result = await self.queries.search_async(profile, k=self.n_neighbors)
        return recommend_from_neighbors(
            self.dataset,
            profile,
            result.ids,
            result.scores,
            self._count(n_recommendations),
        )
