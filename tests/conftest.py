"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset, SyntheticSpec, generate
from repro.deltas import DerivedView


def _mutate(index, rng, *, mix=(0.4, 0.25, 0.2), profile_size=12, tail=None) -> int:
    """Apply one random mutation to ``index``; returns the touched user.

    ``mix`` holds the probabilities of ``add_items`` (two random items
    for a random active user), ``add_user`` (``profile_size`` random
    items) and ``remove_user`` (only while more than 40 users are
    active). The rest of the draws go to ``tail``: ``"refill"``
    repairs a random degraded row, ``"read"`` reads a random active
    user's neighbourhood (which refills it if degraded) and ``None``
    does nothing. Returns ``-1`` when no user was touched.
    """
    p_items, p_user, p_remove = mix
    active = index.dataset.active_users()
    op = rng.random()
    if op < p_items and active.size:
        user = int(rng.choice(active))
        index.add_items(user, rng.integers(0, index.dataset.n_items, size=2))
        return user
    if op < p_items + p_user:
        return index.add_user(
            rng.integers(0, index.dataset.n_items, size=profile_size)
        )
    if op < p_items + p_user + p_remove and active.size > 40:
        user = int(rng.choice(active))
        index.remove_user(user)
        return user
    if tail == "refill" and index.degraded:
        user = int(rng.choice(list(index.degraded)))
        index.refill(user)
        return user
    if tail == "read" and active.size:
        user = int(rng.choice(active))
        index.neighborhood(user)
        return user
    return -1


@pytest.fixture()
def mutate():
    """``mutate(index, rng, *, mix, profile_size, tail)``, see :func:`_mutate`.

    The one random-mutation helper the property suites share; each
    suite binds its own op mix.
    """
    return _mutate


class _TapView(DerivedView):
    """Calls ``fn`` with every published delta.

    ``scored=True`` declares ``needs_scored`` and passes the shippable
    :class:`~repro.online.ReplicaDelta` (``delta.replica``) instead.
    """

    name = "test_tap"

    def __init__(self, fn, scored: bool = False) -> None:
        super().__init__()
        self.fn = fn
        self.needs_scored = scored

    def apply(self, delta) -> None:
        self.fn(delta.replica if self.needs_scored else delta)

    def resync(self) -> None:
        pass


@pytest.fixture()
def tap():
    """``tap(index, fn, scored=False)`` registers a :class:`_TapView`.

    Returns the view; ``view.close()`` detaches it.
    """
    return lambda index, fn, scored=False: index.deltas.register(
        _TapView(fn, scored)
    )


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """A fixed 6-user dataset with hand-checkable similarities."""
    return Dataset.from_profiles(
        [
            [0, 1, 2, 3],        # u0
            [0, 1, 2, 4],        # u1: J(u0,u1)=3/5
            [0, 1, 2, 3],        # u2: identical to u0
            [5, 6, 7],           # u3: disjoint from u0
            [3, 5, 6, 7, 8],     # u4
            [0, 3],              # u5
        ],
        n_items=9,
        name="tiny",
    )


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A 300-user synthetic dataset with planted community structure."""
    spec = SyntheticSpec(
        name="small",
        n_users=300,
        n_items=500,
        mean_profile_size=35.0,
        n_communities=10,
        community_pool_size=80,
        min_profile_size=10,
    )
    return generate(spec, seed=123)


@pytest.fixture(scope="session")
def medium_dataset() -> Dataset:
    """A 800-user synthetic dataset (for integration tests)."""
    spec = SyntheticSpec(
        name="medium",
        n_users=800,
        n_items=1200,
        mean_profile_size=40.0,
        n_communities=16,
        community_pool_size=120,
        min_profile_size=15,
    )
    return generate(spec, seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(0)
