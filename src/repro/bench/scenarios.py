"""Adversarial & time-evolving serving workloads with drift tracking.

A :class:`Scenario` is a seeded generator of fully resolved
:class:`Op` records, sampled against a :class:`World` view of the
*live* id set, so every op targets a user that exists at the moment
the op is drawn (never a deleted id from the initial range).

Concrete scenarios cover the traffic shapes the paper's static
evaluation never exercises:

* :class:`UniformMixed` — a uniform 90/10 read/write tape;
* :class:`ZipfianQueries` — read-heavy traffic whose query popularity
  follows a Zipf law (cache hit-rate cliffs live here);
* :class:`FlashCrowd` — periodic bursts of *correlated* signups cloned
  from a live seed user (the ``_signup_contacts`` eviction storm, and
  a cluster-swelling attack: the cohort lands in the seed's clusters);
* :class:`SustainedChurn` — write-heavy churn around a viral item
  bundle (most signups are bundle *followers*, most updates make
  existing users adopt bundle items), the scenario that swells
  clusters far past ``split_threshold`` and motivates online
  re-split;
* :class:`CorrelatedDeletes` — signup cohorts purged wholesale later,
  so the graph loses whole neighbourhoods at once.

Quality is tracked **over the stream**, not just at the endpoint:
:class:`DriftTracker` probes a fixed held-out query set every
``window`` ops against a brute-force oracle on the *current* index
state and records a recall drift curve (plus the worst-window floor
``tests/test_serving_floors.py`` holds for every scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

__all__ = [
    "SCENARIOS",
    "CorrelatedDeletes",
    "DriftTracker",
    "FlashCrowd",
    "IndexWorld",
    "Op",
    "Scenario",
    "SimWorld",
    "SustainedChurn",
    "UniformMixed",
    "World",
    "ZipfianQueries",
    "make_scenario",
    "play",
]


@dataclass(frozen=True)
class Op:
    """One fully resolved workload operation.

    An ``Op`` carries its concrete target and payload, so a tape can
    be replayed bit-identically against different serving
    configurations.

    Attributes:
        kind: ``"query"``, ``"add_items"``, ``"add_user"`` or
            ``"remove_user"``.
        user: target uid for ``add_items`` / ``remove_user``; ``-1``
            otherwise.
        items: item payload for ``add_items`` / ``add_user``.
        profile: the query profile for ``"query"`` ops.
    """

    kind: str
    user: int = -1
    items: np.ndarray | None = None
    profile: np.ndarray | None = None

    def signature(self) -> tuple:
        """Hashable value equality view (determinism tests compare these)."""
        return (
            self.kind,
            self.user,
            None if self.items is None else tuple(int(i) for i in self.items),
            None if self.profile is None else tuple(int(i) for i in self.profile),
        )


class World:
    """Live-state view a :class:`Scenario` samples targets from.

    The scenario generator and the op applier must see the *same*
    evolving population: a generator yields one op, the driver applies
    it through :meth:`apply`, and only then does the generator resume
    and draw the next op against the updated live set. Two
    implementations: :class:`IndexWorld` executes ops against a real
    ``OnlineIndex`` (the benchmark path), :class:`SimWorld` only
    bookkeeps ids and profiles (the unit-test path) — and *raises* on
    any op that targets a dead id, which is exactly the regression
    test for the old initial-id-range blind spot.
    """

    last_uid: int = -1

    def live_users(self) -> np.ndarray:
        """Currently live uids, ascending."""
        raise NotImplementedError

    def profile(self, uid: int) -> np.ndarray:
        """The live profile of ``uid``."""
        raise NotImplementedError

    @property
    def n_items(self) -> int:
        """Size of the item universe."""
        raise NotImplementedError

    def apply(self, op: Op) -> None:
        """Execute ``op``; records ``last_uid`` for signups."""
        raise NotImplementedError


class SimWorld(World):
    """Pure-bookkeeping world for scenario unit tests.

    Tracks live uids and their profiles without any index. Strict by
    construction: an op that touches a dead or unknown uid raises
    ``ValueError`` — so "every scenario runs to completion on a
    SimWorld" *is* the live-id soundness test.
    """

    def __init__(self, profiles: list[np.ndarray], n_items: int) -> None:
        self._profiles: dict[int, np.ndarray] = {
            uid: np.unique(np.asarray(p, dtype=np.int64))
            for uid, p in enumerate(profiles)
        }
        self._n_items = int(n_items)
        self._next_uid = len(profiles)
        self.last_uid = -1
        self.n_queries = 0

    @classmethod
    def random(cls, n_users: int, n_items: int = 300, seed: int = 0,
               mean_size: float = 20.0) -> "SimWorld":
        """A seeded random population to run tapes against."""
        rng = np.random.default_rng(seed)
        profiles = [
            rng.integers(0, n_items, size=max(3, int(rng.normal(mean_size, 5.0))))
            for _ in range(n_users)
        ]
        return cls(profiles, n_items)

    def live_users(self) -> np.ndarray:
        return np.array(sorted(self._profiles), dtype=np.int64)

    def profile(self, uid: int) -> np.ndarray:
        if uid not in self._profiles:
            raise ValueError(f"profile() of dead user {uid}")
        return self._profiles[uid]

    @property
    def n_items(self) -> int:
        return self._n_items

    def apply(self, op: Op) -> None:
        if op.kind == "query":
            if op.profile is None:
                raise ValueError("query op without a profile")
            self.n_queries += 1
        elif op.kind == "add_user":
            uid = self._next_uid
            self._next_uid += 1
            self._profiles[uid] = np.unique(np.asarray(op.items, dtype=np.int64))
            self.last_uid = uid
        elif op.kind == "add_items":
            if op.user not in self._profiles:
                raise ValueError(f"add_items to dead user {op.user}")
            self._profiles[op.user] = np.union1d(
                self._profiles[op.user], np.asarray(op.items, dtype=np.int64)
            )
        elif op.kind == "remove_user":
            if op.user not in self._profiles:
                raise ValueError(f"remove_user of dead user {op.user}")
            del self._profiles[op.user]
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")


class IndexWorld(World):
    """Executes scenario ops against a live ``OnlineIndex``.

    Queries go through ``engine.search`` when an engine (any object
    with a ``search(profile)`` method, e.g.
    :class:`~repro.serve.QueryEngine`) is attached, and are skipped otherwise
    (mutation-only replays, e.g. the property tests).
    """

    def __init__(self, index, engine=None) -> None:
        self.index = index
        self.engine = engine
        self.last_uid = -1
        self.n_queries = 0

    def live_users(self) -> np.ndarray:
        return self.index.dataset.active_users()

    def profile(self, uid: int) -> np.ndarray:
        return self.index.dataset.profile(uid)

    @property
    def n_items(self) -> int:
        return self.index.dataset.n_items

    def apply(self, op: Op) -> None:
        if op.kind == "query":
            self.n_queries += 1
            if self.engine is not None:
                self.engine.search(op.profile)
        elif op.kind == "add_user":
            self.last_uid = self.index.add_user(op.items)
        elif op.kind == "add_items":
            self.index.add_items(op.user, op.items)
        elif op.kind == "remove_user":
            self.index.remove_user(op.user)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")


# ----------------------------------------------------------------------
# Sampling helpers shared by the scenarios
# ----------------------------------------------------------------------


def _live_user(world: World, rng: np.random.Generator) -> int:
    """One uniformly sampled live uid (live set is never empty here)."""
    live = world.live_users()
    return int(live[int(rng.integers(0, live.size))])


def _query_profile(world: World, rng: np.random.Generator) -> np.ndarray:
    """A query profile sampled from *live* state.

    Half the queries perturb a live user's current profile (drop ~40%
    of its items), half are fresh random profiles — the same mix the
    serving property tests use, minus their initial-id-range bug.
    """
    if rng.random() < 0.5:
        base = world.profile(_live_user(world, rng))
        keep = rng.random(base.size) > 0.4
        if keep.any():
            return base[keep]
        return base
    return rng.integers(0, world.n_items, size=int(rng.integers(3, 25)))


def _signup_profile(
    world: World,
    rng: np.random.Generator,
    clone_from: int | None = None,
    clone_fraction: float = 0.0,
    mean_size: float = 20.0,
) -> np.ndarray:
    """A new user's profile, optionally cloned from a live user.

    With ``clone_from`` set, ``clone_fraction`` of the donor's items
    are copied and the rest filled with random items — correlated
    signups that land in (and swell) the donor's clusters.
    """
    size = max(5, int(rng.normal(mean_size, 5.0)))
    if clone_from is not None and clone_fraction > 0.0:
        donor = world.profile(clone_from)
        n_clone = min(donor.size, max(1, int(round(clone_fraction * size))))
        cloned = rng.choice(donor, size=n_clone, replace=False)
        extra = rng.integers(0, world.n_items, size=max(0, size - n_clone))
        return np.union1d(cloned, extra)
    return rng.integers(0, world.n_items, size=size)


# ----------------------------------------------------------------------
# Scenario base + registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A seeded op-tape generator (base class).

    Subclasses implement :meth:`ops` as a generator that *samples
    against the world as the tape executes*: the driver must apply
    each yielded op before pulling the next (see :func:`play`), so
    mutation targets always come from the then-current live set. The
    tape is deterministic under a fixed ``seed`` and a deterministic
    world.

    Attributes:
        n_ops: number of operations the tape yields.
        seed: RNG seed for every sampling decision.
    """

    name: ClassVar[str] = "base"
    n_ops: int = 1000
    seed: int = 0

    def ops(self, world: World) -> Iterator[Op]:
        """Yield ``n_ops`` fully resolved operations against ``world``."""
        raise NotImplementedError

    def probes(self, world: World, n: int) -> list[np.ndarray] | None:
        """Scenario-specific drift probes, or ``None`` for the default.

        Called once, *before* the tape runs, against the initial
        population. A scenario overrides this when generic held-out
        queries would miss the neighbourhoods its tape degrades (e.g.
        :class:`SustainedChurn` probes bundle-follower queries — the
        traffic that actually lands in the swollen clusters).
        Deterministic under the scenario ``seed``.
        """
        return None

    # Shared building block: one uniform-mixed op.
    def _mixed_op(
        self,
        world: World,
        rng: np.random.Generator,
        read_fraction: float,
        weights: np.ndarray,
        min_population: int = 20,
    ) -> Op:
        if rng.random() < read_fraction:
            return Op("query", profile=_query_profile(world, rng))
        kind = ("add_items", "add_user", "remove_user")[
            int(rng.choice(3, p=weights))
        ]
        if kind == "remove_user" and world.live_users().size <= min_population:
            kind = "add_items"  # never drain the population
        if kind == "add_items":
            return Op(
                "add_items",
                user=_live_user(world, rng),
                items=rng.integers(0, world.n_items, size=int(rng.integers(1, 4))),
            )
        if kind == "add_user":
            return Op("add_user", items=_signup_profile(world, rng))
        return Op("remove_user", user=_live_user(world, rng))


def _norm_weights(*weights: float) -> np.ndarray:
    w = np.array(weights, dtype=np.float64)
    return w / w.sum()


@dataclass(frozen=True)
class UniformMixed(Scenario):
    """Uniform mixed traffic: 90% queries, 10% writes.

    Writes split 60/25/15 across profile updates, signups and
    departures; every target is drawn from the live id set at the
    moment the op executes.
    """

    name: ClassVar[str] = "mixed"
    read_fraction: float = 0.9
    add_items_weight: float = 0.60
    add_user_weight: float = 0.25
    remove_user_weight: float = 0.15

    def ops(self, world: World) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        weights = _norm_weights(
            self.add_items_weight, self.add_user_weight, self.remove_user_weight
        )
        for _ in range(self.n_ops):
            yield self._mixed_op(world, rng, self.read_fraction, weights)


@dataclass(frozen=True)
class ZipfianQueries(Scenario):
    """Read-heavy traffic with Zipf-distributed query popularity.

    A fixed pool of ``pool_size`` query profiles is drawn up front
    (perturbations of then-live users); each query picks pool rank
    ``r`` with probability ``∝ r^-exponent``. Rank-1 queries hammer
    the result cache (hit-rate heaven), the tail forces walks — the
    hit-rate cliff appears when mutations keep evicting the head. The
    small write share is the uniform mixed mix.
    """

    name: ClassVar[str] = "zipf"
    read_fraction: float = 0.95
    exponent: float = 1.1
    pool_size: int = 64

    def rank_probabilities(self) -> np.ndarray:
        """``P(rank r) ∝ r^-exponent`` over the pool, normalized."""
        ranks = np.arange(1, self.pool_size + 1, dtype=np.float64)
        p = ranks ** (-self.exponent)
        return p / p.sum()

    def ops(self, world: World) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        pool = [_query_profile(world, rng) for _ in range(self.pool_size)]
        probs = self.rank_probabilities()
        weights = _norm_weights(0.60, 0.25, 0.15)
        for _ in range(self.n_ops):
            if rng.random() < self.read_fraction:
                yield Op("query", profile=pool[int(rng.choice(self.pool_size, p=probs))])
            else:
                yield self._mixed_op(world, rng, 0.0, weights)


@dataclass(frozen=True)
class FlashCrowd(Scenario):
    """Signup storms: periodic bursts of correlated new users.

    Every ``burst_every`` ops the tape emits ``burst_size`` back-to-back
    signups whose profiles clone ``clone_fraction`` of one live seed
    user's items — a flash crowd arriving through the same door. The
    cohort routes into the seed's clusters (swelling them toward
    ``split_threshold``) and every arrival triggers the
    ``_signup_contacts`` eviction path at once. Between bursts the
    tape is uniform mixed traffic.
    """

    name: ClassVar[str] = "flashcrowd"
    read_fraction: float = 0.9
    burst_every: int = 60
    burst_size: int = 12
    clone_fraction: float = 0.7

    def ops(self, world: World) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        weights = _norm_weights(0.60, 0.25, 0.15)
        emitted = 0
        while emitted < self.n_ops:
            if emitted % self.burst_every == 0:
                seed_user = _live_user(world, rng)
                for _ in range(min(self.burst_size, self.n_ops - emitted)):
                    yield Op(
                        "add_user",
                        items=_signup_profile(
                            world, rng,
                            clone_from=seed_user,
                            clone_fraction=self.clone_fraction,
                        ),
                    )
                    emitted += 1
            else:
                yield self._mixed_op(world, rng, self.read_fraction, weights)
                emitted += 1


@dataclass(frozen=True)
class SustainedChurn(Scenario):
    """Write-heavy churn around a viral item bundle — the re-split forcer.

    A fixed *trending bundle* of ``bundle_size`` items (derived from
    the scenario seed) goes viral over the tape: ``follow_fraction``
    of signups are **followers** — the full bundle plus a slice of a
    live donor's profile (their own community identity) — and
    ``adopt_fraction`` of profile updates make an existing user adopt
    a handful of bundle items. The bundle dominates every follower's
    min-hash values, so all that correlated mass routes into the same
    few clusters and swells them far past ``split_threshold``, while
    removals churn the rest of the population. A write path whose
    per-mutation candidate pool is bounded (``update_cap``) then pays
    in edge quality: a newcomer's candidates are a thin subsample of a
    heterogeneous swollen blob. Online re-split keeps the blob carved
    into per-community children at or under the threshold, so the same
    bounded pool stays homogeneous and windowed recall holds — the
    acceptance scenario of ISSUE 6. :meth:`probes` returns
    follower-like queries (bundle + fresh community slice), the
    traffic that actually lands in the swollen clusters.
    """

    name: ClassVar[str] = "churn"
    read_fraction: float = 0.5
    add_items_weight: float = 0.40
    add_user_weight: float = 0.40
    remove_user_weight: float = 0.20
    bundle_size: int = 150
    follow_fraction: float = 0.85
    adopt_fraction: float = 0.7
    adopt_size: int = 8
    slice_drop: float = 0.4

    def bundle(self, world: World) -> np.ndarray:
        """The trending item set — fixed per seed, shared by followers."""
        rng = np.random.default_rng((self.seed, 999))
        size = min(self.bundle_size, world.n_items)
        return np.sort(rng.choice(world.n_items, size=size, replace=False))

    def _follower_profile(
        self, world: World, rng: np.random.Generator, bundle: np.ndarray
    ) -> np.ndarray:
        """Full bundle + a slice of a live donor's profile."""
        donor = world.profile(_live_user(world, rng))
        keep = donor[rng.random(donor.size) > self.slice_drop]
        return np.union1d(bundle, keep)

    def probes(self, world: World, n: int) -> list[np.ndarray]:
        """Follower-like drift probes: bundle + fresh community slice."""
        rng = np.random.default_rng((self.seed, 4242))
        bundle = self.bundle(world)
        return [self._follower_profile(world, rng, bundle) for _ in range(n)]

    def ops(self, world: World) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        bundle = self.bundle(world)
        weights = _norm_weights(
            self.add_items_weight, self.add_user_weight, self.remove_user_weight
        )
        for _ in range(self.n_ops):
            if rng.random() < self.read_fraction:
                yield Op("query", profile=_query_profile(world, rng))
                continue
            kind = ("add_items", "add_user", "remove_user")[
                int(rng.choice(3, p=weights))
            ]
            if kind == "remove_user" and world.live_users().size <= 20:
                kind = "add_items"
            if kind == "add_items":
                user = _live_user(world, rng)
                if rng.random() < self.adopt_fraction:
                    # Trending adoption: an existing user picks up
                    # bundle items and slides toward the viral blob.
                    size = min(self.adopt_size, bundle.size)
                    items = rng.choice(bundle, size=size, replace=False)
                else:
                    items = rng.integers(0, world.n_items, size=self.adopt_size)
                yield Op("add_items", user=user, items=items)
            elif kind == "add_user":
                if rng.random() < self.follow_fraction:
                    items = self._follower_profile(world, rng, bundle)
                else:
                    items = _signup_profile(world, rng)
                yield Op("add_user", items=items)
            else:
                yield Op("remove_user", user=_live_user(world, rng))


@dataclass(frozen=True)
class CorrelatedDeletes(Scenario):
    """Cohort signups followed by wholesale cohort purges.

    Signups are grouped into cohorts of ``cohort_size``; once
    ``purge_after`` cohorts have accumulated, the tape purges the
    oldest cohort in one burst of ``remove_user`` ops — the graph
    loses a whole correlated neighbourhood at once (every member
    cloned the same seed user), stressing lazy refill and reverse-
    adjacency deletion in bulk. Members already departed through
    other churn are skipped (live-id soundness).
    """

    name: ClassVar[str] = "deletes"
    read_fraction: float = 0.8
    cohort_size: int = 10
    purge_after: int = 3
    clone_fraction: float = 0.5
    signup_weight: float = 0.7  # write share that is a cohort signup

    def ops(self, world: World) -> Iterator[Op]:
        rng = np.random.default_rng(self.seed)
        weights = _norm_weights(0.8, 0.0, 0.2)  # non-signup writes
        cohorts: list[list[int]] = []
        current: list[int] = []
        current_seed: int | None = None
        emitted = 0
        while emitted < self.n_ops:
            if len(cohorts) >= self.purge_after:
                victims = [u for u in cohorts.pop(0)
                           if u in set(world.live_users().tolist())]
                for uid in victims:
                    if emitted >= self.n_ops:
                        return
                    yield Op("remove_user", user=uid)
                    emitted += 1
                continue
            if rng.random() < self.read_fraction:
                yield Op("query", profile=_query_profile(world, rng))
                emitted += 1
            elif rng.random() < self.signup_weight:
                if current_seed is None:
                    current_seed = _live_user(world, rng)
                yield Op(
                    "add_user",
                    items=_signup_profile(
                        world, rng,
                        clone_from=current_seed,
                        clone_fraction=self.clone_fraction,
                    ),
                )
                emitted += 1
                current.append(world.last_uid)
                if len(current) >= self.cohort_size:
                    cohorts.append(current)
                    current, current_seed = [], None
            else:
                yield self._mixed_op(world, rng, 0.0, weights)
                emitted += 1


SCENARIOS: dict[str, type[Scenario]] = {
    cls.name: cls
    for cls in (
        UniformMixed, ZipfianQueries, FlashCrowd, SustainedChurn,
        CorrelatedDeletes,
    )
}


def make_scenario(name: str, n_ops: int, seed: int = 0, **overrides) -> Scenario:
    """Instantiate the registered scenario ``name``.

    ``overrides`` go straight to the dataclass constructor (e.g.
    ``make_scenario("zipf", 500, exponent=1.4)``).
    """
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return cls(n_ops=n_ops, seed=seed, **overrides)


# ----------------------------------------------------------------------
# Drift tracking
# ----------------------------------------------------------------------


class DriftTracker:
    """Windowed recall@k over a stream, against a brute-force oracle.

    Every ``window`` applied ops the tracker answers a fixed held-out
    probe set through ``searcher`` and scores it against
    :func:`~repro.serve.brute_force_top_k` on the **current** index
    state. The result is a drift *curve* (one point per window), not
    just endpoint recall — the worst window is what the CI floors
    gate on. Probe cost is accounted separately (``probe_windows``)
    so tape accounting stays interpretable.

    Each curve point records::

        {"op": <ops applied so far>, "recall": <mean recall@k>,
         "resplits": <cumulative online re-splits>,
         "oversized": <clusters currently over split_threshold>,
         "max_cluster": <largest cluster size>}
    """

    def __init__(self, index, searcher, probes, k: int = 10,
                 window: int = 200) -> None:
        from ..serve import brute_force_top_k  # local: avoid import cycle

        self._brute = brute_force_top_k
        self.index = index
        self.searcher = searcher
        self.probes = list(probes)
        self.k = int(k)
        self.window = int(window)
        self.curve: list[dict] = []
        self.n_ops = 0

    def probe(self) -> float:
        """Score the probe set now; appends and returns the window point."""
        recalls = []
        for profile in self.probes:
            result = self.searcher.top_k(profile, k=self.k)
            truth = self._brute(self.index.engine, profile, k=self.k)
            recalls.append(float(np.isin(truth.ids, result.ids).mean()))
        stats = self.index.stats()
        self.curve.append({
            "op": self.n_ops,
            "recall": round(float(np.mean(recalls)), 4),
            "resplits": stats["resplits_total"],
            "oversized": stats["oversized"],
            "max_cluster": stats["max_cluster_size"],
        })
        return self.curve[-1]["recall"]

    def tick(self) -> None:
        """Count one applied op; probes at every window boundary."""
        self.n_ops += 1
        if self.n_ops % self.window == 0:
            self.probe()

    @property
    def worst(self) -> float:
        """The worst-window recall (1.0 for an empty curve)."""
        return min((p["recall"] for p in self.curve), default=1.0)

    @property
    def final(self) -> float:
        """The last window's recall (1.0 for an empty curve)."""
        return self.curve[-1]["recall"] if self.curve else 1.0

    @property
    def probe_windows(self) -> int:
        """Number of probe windows scored so far."""
        return len(self.curve)


def play(scenario: Scenario, world: World, tracker: DriftTracker | None = None):
    """Drive ``scenario`` against ``world``; returns the applied op count.

    The canonical apply-before-next-draw loop: each yielded op is
    applied (so the generator's next sample sees the updated live
    set), then the drift tracker ticks.
    """
    n = 0
    for op in scenario.ops(world):
        world.apply(op)
        n += 1
        if tracker is not None:
            tracker.tick()
    if tracker is not None and (tracker.n_ops % tracker.window or not tracker.curve):
        tracker.probe()  # always close the tape with a final window
    return n
