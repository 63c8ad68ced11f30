"""Derived views: build a secondary index as a delta-pipeline consumer.

Everything downstream of an ``OnlineIndex`` — reverse adjacency, cache
invalidation, the WAL, the metrics exporter — is a *derived
collection* over the mutation journal, written once as a
``repro.deltas.DerivedView`` and registered on ``index.deltas``. This
walkthrough writes a brand-new one from scratch: a toy **item → users**
secondary index (which users currently hold item *i* in their
profile), maintained incrementally from the stream and checked against
its own from-scratch ``resync()`` recipe.

It shows the full consumer lifecycle:

1. subclass ``DerivedView`` with ``apply`` (fold one delta) and
   ``resync`` (rebuild from the source of truth);
2. ``index.deltas.register(view)`` — the cursor adopts the stream seq;
3. a random churn tape; the view tracks every mutation with zero lag;
4. the declarative payoff: ``resync()`` from scratch reproduces the
   incrementally-maintained state exactly;
5. the bus's own introspection: ``views()``, ``lags()``, ``stats()``.

Run:  PYTHONPATH=src python examples/derived_views.py
"""

from __future__ import annotations

import numpy as np

from repro import C2Params
from repro.data import SyntheticSpec, generate
from repro.deltas import DerivedView
from repro.online import OnlineIndex

K = 8
N_STEPS = 300


class ItemHolders(DerivedView):
    """Toy secondary index: ``item id -> set of users holding it``.

    The index's own data structures answer "which items does user u
    hold?"; this view maintains the transpose, folded per mutation
    from ``delta.items`` (the profile payload) — no index reads on the
    hot path.
    """

    name = "item_holders"

    def __init__(self, index) -> None:
        super().__init__()
        self._index = index
        self.holders: dict[int, set[int]] = {}

    # -- the transform: fold one journal event ---------------------------
    def apply(self, delta) -> None:
        """O(|payload|) per mutation, courtesy of the self-describing Delta."""
        if delta.event in ("add_user", "add_items"):
            for item in np.asarray(delta.items).tolist():
                self.holders.setdefault(int(item), set()).add(delta.user)
        elif delta.event == "remove_user":
            for item in list(self.holders):
                held = self.holders[item]
                held.discard(delta.user)
                if not held:  # keep parity with resync: no empty entries
                    del self.holders[item]
        # resplit / refill / rebuild move no profile items: nothing to fold.

    # -- the recipe: rebuild from the source of truth --------------------
    def resync(self) -> None:
        """From scratch: one pass over the live profiles."""
        self.holders = {}
        dataset = self._index.dataset
        for user in dataset.active_users().tolist():
            for item in dataset.profile(int(user)).tolist():
                self.holders.setdefault(int(item), set()).add(int(user))

    def top(self, n: int = 3):
        """The ``n`` most-held items, ``(item, holders)``."""
        ranked = sorted(self.holders.items(), key=lambda kv: -len(kv[1]))
        return [(item, len(held)) for item, held in ranked[:n]]


def churn(index, rng) -> None:
    """One random mutation: ratings, a signup, or a deletion."""
    active = index.dataset.active_users()
    op = rng.random()
    if op < 0.5 and active.size:
        user = int(rng.choice(active))
        index.add_items(user, rng.integers(0, index.dataset.n_items, size=3))
    elif op < 0.85:
        index.add_user(rng.integers(0, index.dataset.n_items, size=14))
    elif active.size > 120:
        index.remove_user(int(rng.choice(active)))


def main() -> None:
    # 1. An index; its bus is born with the built-in reverse view.
    spec = SyntheticSpec(
        name="views", n_users=250, n_items=500, mean_profile_size=24.0,
        n_communities=10, community_pool_size=80, min_profile_size=8,
    )
    dataset = generate(spec, seed=11)
    params = C2Params(k=K, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    index = OnlineIndex.build(dataset, params=params)

    # 2. Register: the view derives its state, then rides the stream.
    view = ItemHolders(index)
    view.resync()  # initial derivation from the live profiles
    index.deltas.register(view)
    print(f"registered {view.name!r} at seq {view.seq} "
          f"alongside {[v.name for v in index.deltas.views()]}")

    # 3. Churn. Every mutation folds into the view inside the mutation —
    #    by the time add_items returns, the secondary index is current.
    rng = np.random.default_rng(23)
    for _ in range(N_STEPS):
        churn(index, rng)
    print(f"\nafter {N_STEPS} mutations: seq {view.seq}, lag {view.lag}, "
          f"{view.applied_total} deltas folded")
    print(f"  most-held items: {view.top()}")

    # 4. The declarative contract, checked: the from-scratch recipe
    #    lands on exactly the incrementally-maintained state.
    incremental = {item: set(held) for item, held in view.holders.items()}
    index.deltas.resync(view)
    assert view.holders == incremental, "resync diverged from incremental!"
    print("  resync() from scratch == incrementally-maintained state ✓")

    # 5. The bus sees every consumer the same way.
    stats = index.deltas.stats()
    print(f"\nbus: {stats['published_total']} deltas published to "
          f"{stats['views']}, lags {index.deltas.lags()}")

    view.close()
    print(f"closed: views now {[v.name for v in index.deltas.views()]}")


if __name__ == "__main__":
    main()
