"""Serving benchmark — QPS, latency, recall and similarity cost.

Not a figure from the paper: the paper stops at building graphs. This
benchmark measures the read path `repro.serve` adds on top — answering
top-k neighbour queries for held-out (out-of-index) profiles by
cluster-routed graph walk, against the only alternative a built index
offers (score the profile against every user).

Reported per configuration:

* **QPS** of the batched ``QueryEngine`` front end, cold (every query
  unique) and warm (a stream with repeats hitting cache + dedup);
* **per-query latency** percentiles of individual ``top_k`` calls;
* **recall@k** against the brute-force answer on the same engine;
* **similarity evaluations per query**, absolute and as a fraction of
  the brute-force scan — the paper's hardware-independent cost metric
  applied to serving.

Acceptance gate (full run, 5k users): recall@10 ≥ 0.9 at ≤ 5% of the
brute-force evaluations. Run::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI

``--mixed`` switches to the write-storm benchmark: a deterministic
90/10 read/write tape (``repro.bench.workloads.MixedWorkload``) served
with incremental reverse-adjacency maintenance + partial cache
invalidation versus the PR-2 behaviour (full O(n·k) reverse rebuild on
the first query after every mutation + full cache clears), plus the
GoldFinger recall gap with and without ``rerank="exact"``. Acceptance
(full run, 5k users): per-mutation reverse-maintenance cost ≥ 5× lower
than the rebuild path, recall@10 ≥ 0.9 after the write tape, and exact
re-ranking within 1 point of an exact-backend walk.

``--scenario <name>`` runs the drift benchmark (see ``run_scenario``):
one scenario from the adversarial/time-evolving suite
(``repro.bench.scenarios``) drives an index + engine while a
``DriftTracker`` records windowed recall@k against a brute-force
oracle. Full runs drive the same tape twice — online re-split enabled
vs disabled — and report both drift curves; the churn scenario's
acceptance gate demands worst-window recall@10 ≥ 0.85 with re-split,
the no-resplit baseline below the floor, and zero ``rebuild()`` calls
(the accounting counters verify the re-split cost is amortized).

``--restart`` runs the durability benchmark (see ``run_restart``):
recover the index from its snapshot + delta WAL after a simulated
crash versus the cold rebuild a restart otherwise pays. Acceptance
(full run, 5k users): exact state parity (edge digest + version) with
the pre-restart index, recall@10 ≥ 0.9 through the recovered index,
zero similarity evaluations charged by the replay, and restart time ≤
1/10 of the rebuild.

Every mode also records its headline numbers machine-readably in
``BENCH_serving.json`` (via ``repro.bench.emit_json``) — CI uploads it
as an artifact and gates smoke throughput/recall against the committed
floors in ``benchmarks/perf_floors.json``. The single mode also emits
per-query latency percentiles (``p99_ms``/``p999_ms``, gated as
ceilings) alongside the same percentile as the telemetry layer's
fixed-bucket histogram estimates it; the mixed mode measures the
telemetry layer's own cost by replaying the tape with the registry and
tracer disabled (``metrics_overhead_pct``, gated at ≤ 5%).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np

from repro import C2Params, obs
from repro.bench import emit, emit_json
from repro.bench.scenarios import (
    DriftTracker,
    IndexWorld,
    SimWorld,
    make_scenario,
    play,
)
from repro.bench.workloads import MixedWorkload
from repro.data import SyntheticSpec, generate
from repro.data.dataset import Dataset
from repro.graph.heap import EMPTY, edge_digest
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.serve import (
    GraphSearcher,
    QueryEngine,
    brute_force_top_k,
)


def build_workload(n_users: int, n_queries: int, seed: int):
    """An indexed population plus held-out query profiles.

    Queries are generated by the same synthetic model as the indexed
    users (extra users of the same communities), so they are genuinely
    out-of-index but statistically indistinguishable from signups.
    """
    spec = SyntheticSpec(
        name=f"serve{n_users}",
        n_users=n_users + n_queries,
        n_items=max(400, int(0.8 * n_users)),
        mean_profile_size=40.0,
        n_communities=max(8, n_users // 62),
        community_pool_size=120,
        community_affinity=0.95,
        min_profile_size=15,
    )
    full = generate(spec, seed=seed)
    dataset = Dataset.from_profiles(
        [full.profile(u) for u in range(n_users)],
        n_items=full.n_items,
        name=spec.name,
    )
    queries = [full.profile(u) for u in range(n_users, n_users + n_queries)]
    return dataset, queries


def _bench_params(n_users: int) -> C2Params:
    return C2Params(
        k=16,
        n_buckets=1024 if n_users > 2000 else 128,
        n_hashes=8,
        split_threshold=max(60, n_users // 16),
        seed=1,
    )


def _mutate(index: OnlineIndex, kind: str, rng: np.random.Generator) -> int:
    """Apply one write op from the tape; returns the touched user id."""
    active = index.dataset.active_users()
    if kind == "add_items" and active.size:
        user = int(rng.choice(active))
        index.add_items(
            user,
            rng.integers(0, index.dataset.n_items, size=int(rng.integers(1, 4))),
        )
        return user
    if kind == "add_user" or not active.size:
        size = max(5, int(rng.normal(20.0, 5.0)))
        return index.add_user(rng.integers(0, index.dataset.n_items, size=size))
    user = int(rng.choice(active))
    index.remove_user(user)
    return user


def _walk_params(args, budget: int) -> dict:
    return dict(ef=args.ef, per_config=args.per_config, budget=budget)


def run_scenario(args) -> int:
    """The drift benchmark: one scenario tape, re-split on vs off.

    Builds an index over the synthetic population, then drives the
    chosen scenario's op tape through an :class:`IndexWorld` (tape
    queries served by a partial-invalidation ``QueryEngine``) while a
    :class:`DriftTracker` probes held-out queries every ``--window``
    ops against brute force on the *current* index state. Full runs
    replay the identical tape twice — ``auto_resplit`` enabled and
    disabled — so the artifact documents the drift curve the online
    re-split exists to flatten. Smoke runs drive only the re-split
    configuration and feed the per-scenario floors in
    ``perf_floors.json`` (worst-window recall floor, re-split count
    ceiling, rebuild ceiling of zero).

    Acceptance (full run, churn scenario): worst-window recall@10
    ≥ 0.85 with re-split, the no-resplit baseline's worst window
    *below* the floor (the degradation the mechanism prevents), and
    zero full ``rebuild()`` calls in either tape.
    """
    name = args.scenario
    n_users = args.users or (400 if args.smoke else 2000)
    n_queries = args.queries or (40 if args.smoke else 200)
    n_ops = args.ops or (300 if args.smoke else 4000)
    window = args.window or (100 if args.smoke else 250)
    dataset, queries = build_workload(n_users, n_queries, args.seed)
    params = _bench_params(n_users)
    if args.split_threshold:
        params = params.with_(split_threshold=args.split_threshold)
    budget = max(6 * args.ef, int(args.budget_fraction * n_users))
    kwargs = _walk_params(args, budget)
    scenario = make_scenario(name, n_ops, seed=args.seed)
    # Scenario-specific probes (e.g. churn's bundle followers) are
    # drawn once against the *initial* population so both drives score
    # the identical probe set; scenarios without a custom probe model
    # fall back to the generic held-out queries.
    n_probes = 20 if args.smoke else 100
    probe_world = SimWorld(
        [dataset.profile(u) for u in range(dataset.n_users)],
        n_items=dataset.n_items,
    )
    probes = scenario.probes(probe_world, n_probes) or queries[:n_probes]

    def drive(auto_resplit: bool):
        index = OnlineIndex.build(
            dataset, params=params, backend=args.backend,
            auto_resplit=auto_resplit, update_cap=args.update_cap,
        )
        index.reverse_index()  # maintained from the first write on
        engine = QueryEngine(
            index, k=args.topk, invalidation="partial",
            searcher=GraphSearcher(index, **kwargs),
        )
        tracker = DriftTracker(
            index, GraphSearcher(index, **kwargs), probes,
            k=args.topk, window=window,
        )
        world = IndexWorld(index, engine=engine)
        t0 = time.perf_counter()
        play(scenario, world, tracker)
        wall = time.perf_counter() - t0
        stats = engine.stats()
        engine.close()
        return index, tracker, wall, stats

    index_on, track_on, wall_on, stats_on = drive(auto_resplit=True)
    s_on = index_on.stats()

    def curve_rows(label, tracker):
        return [
            {
                "Series": label,
                "Op": point["op"],
                f"Recall@{args.topk}": f"{point['recall']:.3f}",
                "Re-splits": point["resplits"],
                "Oversized": point["oversized"],
                "Max cluster": point["max_cluster"],
            }
            for point in tracker.curve
        ]

    def summary_row(label, tracker, wall, stats, istats):
        reads = stats["queries_total"]
        return {
            "Series": label,
            "Worst window": f"{tracker.worst:.3f}",
            "Final window": f"{tracker.final:.3f}",
            "Ops/s": f"{n_ops / wall:.0f}",
            "Cache hit rate": f"{stats['cache_hits_total'] / max(1, reads):.1%}",
            "Re-splits": istats["resplits_total"],
            "Users moved": istats["resplit_moved"],
            "Rebuilds": istats["rebuilds_total"],
        }

    header = (
        f"Scenario '{name}': {n_ops}-op tape over {n_users} users "
        f"(window={window}, {len(probes)} probes, k={args.topk}, "
        f"ef={args.ef}, budget={budget}, "
        f"split_threshold={params.split_threshold}, "
        f"update_cap={args.update_cap}, seed={args.seed})"
    )
    metrics = {
        "mode": "scenario",
        "scenario": name,
        "n_users": n_users,
        "n_ops": n_ops,
        "window": window,
        "split_threshold": params.split_threshold,
        "update_cap": args.update_cap,
        "ops_s": round(n_ops / wall_on, 1),
        f"worst_recall_at_{args.topk}": round(track_on.worst, 3),
        f"final_recall_at_{args.topk}": round(track_on.final, 3),
        "drift_curve": track_on.curve,
        "resplits": s_on["resplits_total"],
        "resplit_moved": s_on["resplit_moved"],
        "rebuilds": s_on["rebuilds_total"],
        "max_cluster_size": s_on["max_cluster_size"],
        "n_oversized": s_on["oversized"],
    }

    if args.smoke:
        blocks = [
            header,
            [summary_row("online re-split", track_on, wall_on, stats_on, s_on)],
            curve_rows("re-split", track_on),
            "acceptance: not evaluated (--smoke run)",
        ]
        metrics["acceptance"] = None
        emit(f"serving-scenario-{name}-smoke", *blocks)
        emit_json(f"serving-scenario-{name}-smoke", metrics)
        return 0

    index_off, track_off, wall_off, stats_off = drive(auto_resplit=False)
    s_off = index_off.stats()
    metrics.update({
        f"baseline_worst_recall_at_{args.topk}": round(track_off.worst, 3),
        f"baseline_final_recall_at_{args.topk}": round(track_off.final, 3),
        "baseline_drift_curve": track_off.curve,
        "baseline_max_cluster_size": s_off["max_cluster_size"],
        "baseline_n_oversized": s_off["oversized"],
        "baseline_rebuilds": s_off["rebuilds_total"],
    })
    blocks = [
        header,
        [
            summary_row("online re-split", track_on, wall_on, stats_on, s_on),
            summary_row("no re-split (baseline)", track_off, wall_off,
                        stats_off, s_off),
        ],
        curve_rows("re-split", track_on) + curve_rows("baseline", track_off),
    ]

    floor = 0.85
    no_rebuilds = s_on["rebuilds_total"] == 0 and s_off["rebuilds_total"] == 0
    ok = track_on.worst >= floor and no_rebuilds and s_on["resplits_total"] > 0
    if name == "churn":
        # The tentpole gate: the baseline must demonstrably degrade
        # below the floor the re-split configuration holds.
        ok = ok and track_off.worst < floor
    blocks.append(
        f"acceptance: worst-window recall@{args.topk}={track_on.worst:.3f} "
        f"(>={floor}) vs baseline {track_off.worst:.3f}"
        + (" (<floor)" if name == "churn" else "")
        + f", resplits={s_on['resplits_total']} (>0), rebuilds="
        f"{s_on['rebuilds_total']}+{s_off['rebuilds_total']} (=0) "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    metrics["acceptance"] = bool(ok)
    emit(f"serving-scenario-{name}", *blocks)
    emit_json(f"serving-scenario-{name}", metrics)
    return 0 if ok else 1


def run_restart(args) -> int:
    """The restart-recovery benchmark: recover-from-WAL vs cold rebuild.

    The durability story end to end, timed:

    1. build an index, attach :class:`~repro.persist.DurableIndex`
       (baseline snapshot), and run a write tape whose deltas stream
       into the WAL as a side effect of the mutations themselves;
    2. "crash": drop the process state, then **recover** — newest
       snapshot + seq-guarded WAL-tail replay — and verify exact state
       parity (``edge_digest`` + version) with the pre-restart index,
       with **zero similarity evaluations** spent;
    3. the alternative a restart otherwise pays: a cold
       ``OnlineIndex.build`` over the identically-churned profiles;
    4. checkpoint, run a short extra tape, and recover again — the
       compacted log must replay only the post-checkpoint tail.

    Serving quality is probed through the recovered index (recall@k vs
    brute force on its own engine). Acceptance (full run, 5k users):
    state parity, recall@10 >= 0.9 post-recovery, recovery charged
    zero evaluations, and restart time <= 1/10 of the cold rebuild.
    """
    n_users = args.users or (400 if args.smoke else 5000)
    n_queries = args.queries or (40 if args.smoke else 200)
    n_ops = args.ops or (120 if args.smoke else 800)
    dataset, queries = build_workload(n_users, n_queries, args.seed)
    params = _bench_params(n_users)
    budget = max(6 * args.ef, int(args.budget_fraction * n_users))
    kwargs = _walk_params(args, budget)
    with tempfile.TemporaryDirectory(prefix="repro-restart-") as wal_dir:
        return _run_restart_in(args, wal_dir, dataset, queries, params,
                               budget, kwargs, n_users, n_queries, n_ops)


def _run_restart_in(
    args, wal_dir, dataset, queries, params, budget, kwargs,
    n_users, n_queries, n_ops,
) -> int:
    """Body of :func:`run_restart`, inside the temp-dir lifetime."""

    def mutation_tape(index, rng, n: int) -> None:
        for _ in range(n):
            r = rng.random()
            kind = (
                "add_items" if r < 0.7 else "add_user" if r < 0.9 else "remove_user"
            )
            _mutate(index, kind, rng)

    # --- 1. live index + WAL ------------------------------------------
    t0 = time.perf_counter()
    index = OnlineIndex.build(dataset, params=params, backend=args.backend)
    build_s = time.perf_counter() - t0
    index.reverse_index()  # maintained from the first write on
    durable = index.attach_persistence(wal_dir, checkpoint_bytes=0)
    rng = np.random.default_rng(args.seed + 31)
    t0 = time.perf_counter()
    mutation_tape(index, rng, n_ops)
    tape_s = time.perf_counter() - t0
    wal_stats = durable.stats()
    pre_version = index.version
    pre_digest = edge_digest(index.graph.heaps)
    durable.close()

    # --- 2. restart: snapshot + WAL-tail replay ------------------------
    t0 = time.perf_counter()
    recovered = DurableIndex.recover(wal_dir)
    restart_s = time.perf_counter() - t0
    rec_index = recovered.index
    parity = (
        rec_index.version == pre_version
        and edge_digest(rec_index.graph.heaps) == pre_digest
    )
    recovery_evals = recovered.recovery.evaluations

    # --- 3. the rebuild a restart pays without persistence -------------
    # Generous to the baseline: the churned profiles are handed over
    # in memory, though a process that lost them would first have to
    # reload them from somewhere. Like the recovered index (and every
    # other serving bench), the rebuilt one primes its reverse index.
    churned = index.dataset.snapshot()
    t0 = time.perf_counter()
    OnlineIndex.build(churned, params=params, backend=args.backend).reverse_index()
    rebuild_s = time.perf_counter() - t0
    speedup = rebuild_s / max(restart_s, 1e-9)

    # --- recall through the recovered index ----------------------------
    searcher = GraphSearcher(rec_index, **kwargs)
    sample = queries[: (20 if args.smoke else 150)]
    recalls = []
    for profile in sample:
        result = searcher.top_k(profile, k=args.topk)
        truth = brute_force_top_k(rec_index.engine, profile, k=args.topk)
        recalls.append(float(np.isin(truth.ids, result.ids).mean()))
    recall = float(np.mean(recalls))

    # --- 4. checkpoint + tail-only replay ------------------------------
    recovered.checkpoint()
    n_tail = max(1, n_ops // 8)
    mutation_tape(rec_index, rng, n_tail)
    recovered.close()
    t0 = time.perf_counter()
    third = DurableIndex.recover(wal_dir)
    ckpt_restart_s = time.perf_counter() - t0
    replayed_tail = third.recovery.replayed
    third.close()

    rows = [
        {
            "Series": "restart (snapshot + WAL-tail replay)",
            "Seconds": f"{restart_s:.3f}",
            "Similarities": recovery_evals,
            "Deltas replayed": recovered.recovery.replayed,
        },
        {
            "Series": f"restart after checkpoint ({n_tail}-op tail)",
            "Seconds": f"{ckpt_restart_s:.3f}",
            "Similarities": third.recovery.evaluations,
            "Deltas replayed": replayed_tail,
        },
        {
            "Series": "cold rebuild (batch C2 on churned profiles)",
            "Seconds": f"{rebuild_s:.2f}",
            "Similarities": "O(n*k̃)",
            "Deltas replayed": "-",
        },
    ]
    state_rows = [{
        "State parity (edge digest + version)": "yes" if parity else "NO",
        "WAL records": wal_stats["appends_total"],
        "WAL MiB": f"{wal_stats['bytes'] / (1 << 20):.2f}",
        f"Recall@{args.topk} post-recovery": f"{recall:.3f}",
        "Restart speedup": f"{speedup:.1f}x",
    }]
    header = (
        f"Restart recovery: {n_ops}-op write tape over {n_users} users "
        f"(built in {build_s:.1f}s, tape {tape_s:.1f}s, k={args.topk}, "
        f"ef={args.ef}, budget={budget}); recall sample {len(sample)} "
        f"held-out queries through the recovered index"
    )
    blocks = [header, rows, state_rows]
    metrics = {
        "mode": "restart",
        "n_users": n_users,
        "n_ops": n_ops,
        "build_s": round(build_s, 2),
        "rebuild_s": round(rebuild_s, 3),
        "restart_s": round(restart_s, 4),
        "restart_speedup": round(speedup, 1),
        "ckpt_restart_s": round(ckpt_restart_s, 4),
        "wal_records": wal_stats["appends_total"],
        "wal_bytes": wal_stats["bytes"],
        "replayed": recovered.recovery.replayed,
        "replayed_after_checkpoint": replayed_tail,
        "recovery_evaluations": recovery_evals,
        "state_parity": bool(parity),
        f"recall_at_{args.topk}": round(recall, 3),
    }

    if args.smoke:
        blocks.append("acceptance: not evaluated (--smoke run)")
        metrics["acceptance"] = None
        emit("serving-restart-smoke", *blocks)
        emit_json("serving-restart-smoke", metrics)
        return 0

    ok = parity and recall >= 0.9 and recovery_evals == 0 and speedup >= 10.0
    blocks.append(
        f"acceptance: state_parity={parity}, "
        f"recall@{args.topk}={recall:.3f} (>=0.9), "
        f"recovery evaluations={recovery_evals} (=0), "
        f"restart {speedup:.1f}x faster than rebuild (>=10x) "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    metrics["acceptance"] = bool(ok)
    emit("serving-restart", *blocks)
    emit_json("serving-restart", metrics)
    return 0 if ok else 1


class _RebuildingSearcher(GraphSearcher):
    """The pre-incremental read path, the mixed benchmark's baseline.

    In-edges come from a private CSR copy rebuilt with one O(n·k)
    group-by on the first walk after every mutation, instead of the
    index's maintained reverse adjacency.
    """

    _version = -1  # index.version the CSR copy matches

    def refresh(self) -> None:
        if self._version == self.index.version:
            return
        heaps = self.index.graph.heaps
        valid = heaps.ids.ravel() != EMPTY
        dst = heaps.ids.ravel()[valid].astype(np.int64)
        src = np.repeat(np.arange(heaps.n, dtype=np.int64), heaps.k)[valid]
        order = np.argsort(dst, kind="stable")
        self._sources = src[order]
        self._indptr = np.searchsorted(
            dst[order], np.arange(heaps.n + 1, dtype=np.int64)
        )
        self._version = self.index.version

    def holders(self, node: int) -> np.ndarray:
        return self._sources[self._indptr[node] : self._indptr[node + 1]]

    def _reverse_source(self):
        self.refresh()
        return self


def run_mixed(args) -> int:
    """The write-storm benchmark: mixed 90/10 traffic, before vs after.

    Three measurements, one artifact:

    1. the mixed tape end-to-end (ops/s, cache efficiency) served with
       incremental reverse maintenance + partial invalidation vs the
       PR-2 path (full rebuild + full clears) on an identical index;
    2. per-mutation cost isolated: time spent patching the maintained
       reverse index vs the O(n·k) rebuild the first post-mutation
       query used to pay, plus the first-query latencies both ways;
    3. the GoldFinger recall gap after the same write churn, with and
       without ``rerank="exact"``, against an exact-backend build of
       the identically-churned profiles.
    """
    n_users = args.users or (400 if args.smoke else 5000)
    n_queries = args.queries or (40 if args.smoke else 200)
    n_ops = args.ops or (120 if args.smoke else 2000)
    n_probe = args.mutations or (20 if args.smoke else 100)
    dataset, queries = build_workload(n_users, n_queries, args.seed)
    params = _bench_params(n_users)
    budget = max(6 * args.ef, int(args.budget_fraction * n_users))
    workload = MixedWorkload(n_ops=n_ops, seed=args.seed)
    kinds = workload.kinds()
    pool = queries[: max(1, len(queries) // 2)]

    # --- 1. the tape, served both ways ---------------------------------
    def run_tape(mode: str, passes: int = 1):
        index = OnlineIndex.build(dataset, params=params, backend=args.backend)
        kwargs = _walk_params(args, budget)
        if mode == "incremental":
            index.reverse_index()  # prime: maintained from the first write on
            engine = QueryEngine(
                index, k=args.topk, invalidation="partial",
                searcher=GraphSearcher(index, **kwargs),
            )
        else:
            engine = QueryEngine(
                index, k=args.topk, invalidation="full",
                searcher=_RebuildingSearcher(index, **kwargs),
            )
        rng = np.random.default_rng(args.seed + 17)
        n_writes = 0
        t0 = time.perf_counter()
        for _ in range(passes):
            for kind in kinds:
                if kind == "query":
                    engine.search(pool[int(rng.integers(0, len(pool)))])
                else:
                    _mutate(index, kind, rng)
                    n_writes += 1
        wall = time.perf_counter() - t0
        stats = engine.stats()
        engine.close()
        return index, wall, stats, n_writes

    index_inc, wall_inc, stats_inc, n_writes = run_tape("incremental")
    _, wall_reb, stats_reb, _ = run_tape("rebuild")

    # --- telemetry overhead: the same tape, instrumentation on vs off --
    # Both arms swap the process-wide defaults *before* building their
    # stack (components capture metric handles at construction); the
    # disabled arm hands out shared no-op singletons, so the delta is
    # the full cost of the observability layer. Three robustness
    # tricks: the arms are interleaved rep-by-rep with the order
    # alternating each rep (so thermal / scheduler drift hits both
    # equally), the smoke tape is replayed several passes inside one
    # timed wall so the measured section is long enough to resolve a
    # few percent, and each arm keeps its min across reps (per-rep
    # scheduler noise on a short tape dwarfs the true delta, so the
    # gate compares best-case against best-case).
    def measure_overhead(reps: int, passes: int) -> tuple[float, float, float]:
        walls = {True: float("inf"), False: float("inf")}
        for rep in range(reps):
            order = (True, False) if rep % 2 == 0 else (False, True)
            for enabled in order:
                prev_reg = obs.set_metrics(obs.MetricsRegistry(enabled=enabled))
                prev_tr = obs.set_tracer(obs.Tracer(enabled=enabled))
                try:
                    wall = run_tape("incremental", passes=passes)[1]
                finally:
                    obs.set_metrics(prev_reg)
                    obs.set_tracer(prev_tr)
                walls[enabled] = min(walls[enabled], wall)
        pct = max(0.0, (walls[True] - walls[False]) / walls[False] * 100.0)
        return walls[True], walls[False], pct

    # The vectorized hot path roughly halved the full tape's wall time,
    # so the full-run measurement needs more passes per timed section
    # (and more reps to min over) to keep resolving a few percent of
    # telemetry cost against scheduler noise.
    wall_obs_on, wall_obs_off, overhead_pct = measure_overhead(
        reps=10 if args.smoke else 5, passes=8 if args.smoke else 2
    )

    def tape_row(label, wall, stats):
        reads = stats["queries_total"]
        return {
            "Series": label,
            "Ops/s": f"{n_ops / wall:.0f}",
            "Read QPS": f"{reads / wall:.0f}",
            "Cache hit rate": f"{stats['cache_hits_total'] / max(1, reads):.1%}",
            "Evictions": stats["evictions_total"],
            "Walks": stats["cache_misses_total"],
        }

    tape_rows = [
        tape_row("incremental reverse + partial invalidation", wall_inc, stats_inc),
        tape_row("full rebuild + full clears (PR 2)", wall_reb, stats_reb),
    ]
    overhead_rows = [{
        "Tape wall, telemetry on (s)": f"{wall_obs_on:.3f}",
        "Tape wall, telemetry off (s)": f"{wall_obs_off:.3f}",
        "Instrumentation overhead": f"{overhead_pct:.2f}%",
    }]

    # --- 2. per-mutation cost, isolated --------------------------------
    # Incremental: wrap the maintained index's apply() so the patch
    # cost of each mutation is accounted exactly. Rebuild: one searcher
    # pays the O(n·k) refresh inside its first query (end-to-end
    # latency), a second one is timed on the refresh alone.
    rev = index_inc.reverse_index()
    apply_seconds = [0.0]
    orig_apply = rev.apply_batch  # the journal-fed delta pipeline's entry point

    def timed_apply(deltas):
        t = time.perf_counter()
        orig_apply(deltas)
        apply_seconds[0] += time.perf_counter() - t

    rev.apply_batch = timed_apply
    kwargs = _walk_params(args, budget)
    inc_q = GraphSearcher(index_inc, **kwargs)
    reb_q = _RebuildingSearcher(index_inc, **kwargs)
    reb_iso = _RebuildingSearcher(index_inc, **kwargs)
    probe = pool[0]
    rng = np.random.default_rng(args.seed + 99)
    first_inc, first_reb, refresh = [], [], []
    for _ in range(n_probe):
        _mutate(index_inc, "add_items", rng)
        t = time.perf_counter()
        inc_q.top_k(probe, k=args.topk)
        first_inc.append(time.perf_counter() - t)
        t = time.perf_counter()
        reb_q.top_k(probe, k=args.topk)
        first_reb.append(time.perf_counter() - t)
        t = time.perf_counter()
        reb_iso.refresh()
        refresh.append(time.perf_counter() - t)
    rev.apply_batch = orig_apply
    inc_maint_ms = apply_seconds[0] / n_probe * 1e3
    reb_maint_ms = float(np.mean(refresh)) * 1e3
    ratio = reb_maint_ms / max(inc_maint_ms, 1e-9)
    cost_rows = [
        {
            "Series": "incremental (apply edge deltas)",
            "Maintenance/mutation (ms)": f"{inc_maint_ms:.4f}",
            "First query after write (ms)": f"{np.mean(first_inc) * 1e3:.2f}",
        },
        {
            "Series": "rebuild (O(n·k) group-by)",
            "Maintenance/mutation (ms)": f"{reb_maint_ms:.4f}",
            "First query after write (ms)": f"{np.mean(first_reb) * 1e3:.2f}",
        },
    ]

    # --- 3. GoldFinger recall gap after churn, rerank on/off -----------
    idx_gf = OnlineIndex.build(dataset, params=params, backend="goldfinger")
    idx_ex = OnlineIndex.build(dataset, params=params, backend="exact")
    rng_gf = np.random.default_rng(args.seed + 5)
    rng_ex = np.random.default_rng(args.seed + 5)
    for kind in kinds:
        if kind != "query":
            _mutate(idx_gf, kind, rng_gf)  # identical draws → identical churn
            _mutate(idx_ex, kind, rng_ex)
    s_ex = GraphSearcher(idx_ex, **kwargs)
    s_gf = GraphSearcher(idx_gf, **kwargs)
    s_rr = GraphSearcher(idx_gf, rerank="exact", **kwargs)
    sample = queries[: min(len(queries), 20 if args.smoke else 100)]
    rec = {"exact": [], "goldfinger": [], "goldfinger+rerank": []}
    for profile in sample:
        truth = brute_force_top_k(idx_ex.engine, profile, k=args.topk)
        rec["exact"].append(np.isin(truth.ids, s_ex.top_k(profile, k=args.topk).ids).mean())
        rec["goldfinger"].append(np.isin(truth.ids, s_gf.top_k(profile, k=args.topk).ids).mean())
        rec["goldfinger+rerank"].append(
            np.isin(truth.ids, s_rr.top_k(profile, k=args.topk).ids).mean()
        )
    r_ex = float(np.mean(rec["exact"]))
    r_gf = float(np.mean(rec["goldfinger"]))
    r_rr = float(np.mean(rec["goldfinger+rerank"]))
    recall_rows = [
        {"Series": name, f"Recall@{args.topk} (exact truth)": f"{np.mean(vals):.3f}",
         "Gap to exact walk (pts)": f"{(r_ex - np.mean(vals)) * 100:+.1f}"}
        for name, vals in rec.items()
    ]

    header = (
        f"Mixed workload: {n_ops} ops ({workload.read_fraction:.0%} reads, "
        f"{n_writes} writes) over {n_users} users "
        f"(k={args.topk}, ef={args.ef}, budget={budget}); "
        f"{n_probe} probe mutations; recall sample {len(sample)} queries "
        f"after the same write churn"
    )
    blocks = [header, tape_rows, overhead_rows, cost_rows, recall_rows]
    metrics = {
        "mode": "mixed",
        "n_users": n_users,
        "n_ops": n_ops,
        "ops_s_incremental": round(n_ops / wall_inc, 1),
        "ops_s_rebuild": round(n_ops / wall_reb, 1),
        "metrics_overhead_pct": round(overhead_pct, 2),
        "maintenance_ms_incremental": round(inc_maint_ms, 4),
        "maintenance_ms_rebuild": round(reb_maint_ms, 4),
        "maintenance_ratio": round(ratio, 1),
        "first_query_ms_incremental": round(float(np.mean(first_inc)) * 1e3, 3),
        "first_query_ms_rebuild": round(float(np.mean(first_reb)) * 1e3, 3),
        "recall_exact": round(r_ex, 3),
        "recall_goldfinger": round(r_gf, 3),
        "recall_rerank": round(r_rr, 3),
    }

    if args.smoke:
        blocks.append("acceptance: not evaluated (--smoke run)")
        metrics["acceptance"] = None
        emit("serving-mixed-smoke", *blocks)
        emit_json("serving-mixed-smoke", metrics)
        return 0

    ok = (
        ratio >= 5.0 and r_rr >= 0.9 and (r_ex - r_rr) <= 0.01
        and overhead_pct <= 5.0
    )
    blocks.append(
        f"acceptance: maintenance ratio {ratio:.1f}x (>=5x), "
        f"recall@{args.topk} rerank={r_rr:.3f} (>=0.9), "
        f"gap to exact walk {(r_ex - r_rr) * 100:.1f}pt (<=1pt), "
        f"telemetry overhead {overhead_pct:.2f}% (<=5%) "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    metrics["acceptance"] = bool(ok)
    emit("serving-mixed", *blocks)
    emit_json("serving-mixed", metrics)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI (no acceptance assertions)")
    parser.add_argument("--mixed", action="store_true",
                        help="run the mixed read/write (write-storm) benchmark")
    parser.add_argument("--restart", action="store_true",
                        help="run the restart-recovery benchmark "
                             "(recover-from-WAL vs cold rebuild)")
    parser.add_argument("--scenario", default=None,
                        choices=["mixed", "zipf", "flashcrowd", "churn",
                                 "deletes"],
                        help="run one adversarial/time-evolving scenario "
                             "with windowed recall-drift tracking "
                             "(full runs compare online re-split on vs off)")
    parser.add_argument("--window", type=int, default=None,
                        help="scenario mode: ops per drift-probe window")
    parser.add_argument("--split-threshold", type=int, default=None,
                        help="scenario mode: override the index's max "
                             "cluster size N")
    parser.add_argument("--update-cap", type=int, default=None,
                        help="scenario mode: bound the write path's "
                             "per-config candidate pool (subsampled past "
                             "the cap; keep it >= the split threshold so "
                             "a re-split index never truncates)")
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--ops", type=int, default=None,
                        help="mixed mode: operations in the 90/10 tape")
    parser.add_argument("--mutations", type=int, default=None,
                        help="mixed mode: probe mutations for the cost table")
    parser.add_argument("--topk", type=int, default=10)
    parser.add_argument("--ef", type=int, default=32)
    parser.add_argument("--per-config", type=int, default=16)
    parser.add_argument("--budget-fraction", type=float, default=0.05,
                        help="per-query evaluation cap as a fraction of n_users")
    parser.add_argument("--backend", default="exact",
                        choices=["exact", "goldfinger", "bloom"])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    if args.scenario:
        return run_scenario(args)
    if args.restart:
        return run_restart(args)
    if args.mixed:
        return run_mixed(args)

    n_users = args.users or (400 if args.smoke else 5000)
    n_queries = args.queries or (40 if args.smoke else 200)
    dataset, queries = build_workload(n_users, n_queries, args.seed)

    params = _bench_params(n_users)
    t0 = time.perf_counter()
    index = OnlineIndex.build(dataset, params=params, backend=args.backend)
    build_seconds = time.perf_counter() - t0
    # At full scale the 5% fraction dominates; the floor keeps tiny
    # (smoke) runs from strangling the walk into meaninglessness.
    budget = max(6 * args.ef, int(args.budget_fraction * n_users))
    searcher = GraphSearcher(
        index, ef=args.ef, per_config=args.per_config, budget=budget
    )

    # --- recall + evaluation cost vs the brute-force scan -------------
    latencies, recalls, evals = [], [], []
    for profile in queries:
        t1 = time.perf_counter()
        result = searcher.top_k(profile, k=args.topk)
        latencies.append(time.perf_counter() - t1)
        reference = brute_force_top_k(index.engine, profile, k=args.topk)
        recalls.append(float(np.isin(reference.ids, result.ids).mean()))
        evals.append(result.evaluations)
    latencies = np.array(latencies) * 1e3
    recall = float(np.mean(recalls))
    frac = float(np.mean(evals)) / n_users

    # --- batched QPS: cold (all unique) and warm (repeats) ------------
    def front_end(cache_size: int):
        return QueryEngine(
            index, k=args.topk, searcher=searcher, cache_size=cache_size
        )

    engine_cold = front_end(cache_size=0)
    t2 = time.perf_counter()
    engine_cold.search_many(queries)
    cold_qps = len(queries) / (time.perf_counter() - t2)
    engine_cold.close()

    rng = np.random.default_rng(args.seed)
    pool = queries[: max(1, len(queries) // 4)]
    stream = [pool[int(rng.integers(0, len(pool)))] for _ in range(4 * len(queries))]
    engine_warm = front_end(cache_size=1024)
    t3 = time.perf_counter()
    for start in range(0, len(stream), 32):  # arrival in batches of 32
        engine_warm.search_many(stream[start : start + 32])
    warm_qps = len(stream) / (time.perf_counter() - t3)
    warm_stats = engine_warm.stats()
    engine_warm.close()

    rows = [
        {
            "Series": f"GraphSearcher (walk, {args.backend})",
            f"Recall@{args.topk}": f"{recall:.3f}",
            "Evals/query": f"{np.mean(evals):.0f}",
            "vs brute force": f"{frac:.2%}",
            "p50 (ms)": f"{np.percentile(latencies, 50):.2f}",
            "p95 (ms)": f"{np.percentile(latencies, 95):.2f}",
            "QPS": f"{cold_qps:.0f}",
        },
        {
            "Series": "QueryEngine (warm: cache+dedup)",
            f"Recall@{args.topk}": f"{recall:.3f}",
            "Evals/query": f"{np.mean(evals) * warm_stats['cache_misses_total'] / warm_stats['queries_total']:.0f}",
            "vs brute force": f"{frac * warm_stats['cache_misses_total'] / warm_stats['queries_total']:.2%}",
            "p50 (ms)": "-",
            "p95 (ms)": "-",
            "QPS": f"{warm_qps:.0f}",
        },
        {
            "Series": "Brute force (reference)",
            f"Recall@{args.topk}": "1.000",
            "Evals/query": f"{n_users}",
            "vs brute force": "100.00%",
            "p50 (ms)": "-",
            "p95 (ms)": "-",
            "QPS": "-",
        },
    ]
    header = (
        f"Serving {n_queries} held-out queries over {n_users} users "
        f"(k={args.topk}, ef={args.ef}, budget={budget} evals/query; "
        f"index: k={params.k}, t={params.n_hashes}, built in {build_seconds:.1f}s; "
        f"warm stream: {len(stream)} queries, "
        f"{warm_stats['cache_hits_total']} cache hits, "
        f"{warm_stats['dedup_hits_total']} dedup hits)"
    )
    blocks = [header, rows]
    metrics = {
        "mode": "single",
        "n_users": n_users,
        "n_queries": n_queries,
        f"recall_at_{args.topk}": round(recall, 3),
        "evals_fraction": round(frac, 4),
        "cold_qps": round(cold_qps, 1),
        "warm_qps": round(warm_qps, 1),
        "p50_ms": round(float(np.percentile(latencies, 50)), 3),
        "p95_ms": round(float(np.percentile(latencies, 95)), 3),
        "p99_ms": round(float(np.percentile(latencies, 99)), 3),
        "p999_ms": round(float(np.percentile(latencies, 99.9)), 3),
        # Cross-check: the same percentiles as the fixed-bucket
        # serve_query_seconds histogram estimates them — the numbers a
        # live dashboard would report (bucket-interpolated, so they may
        # differ from the sample percentiles by up to one bucket width).
        "registry_p99_ms": round(
            obs.metrics().histogram("serve_query_seconds").percentile(0.99) * 1e3,
            3,
        ),
    }

    if args.smoke:
        # Smoke runs are too small for the gate to mean anything (the
        # budget floor alone is a large fraction of a brute-force scan),
        # so the artifact says so instead of carrying no verdict at all.
        # Distinct artifact name: a smoke run must never clobber the
        # committed full-run serving.txt.
        blocks.append("acceptance: not evaluated (--smoke run)")
        metrics["acceptance"] = None
        emit("serving-smoke", *blocks)
        emit_json("serving-smoke", metrics)
        return 0

    # The tentpole acceptance gate: batched graph-walk queries must
    # recover >= 0.9 of the brute-force top-k while spending <= 5%
    # of its similarity evaluations. The verdict is part of the
    # persisted artifact, not just stdout.
    ok = recall >= 0.9 and frac <= 0.05
    blocks.append(
        f"acceptance: recall@{args.topk}={recall:.3f} (>=0.9), "
        f"evals={frac:.2%} (<=5%) -> {'PASS' if ok else 'FAIL'}"
    )
    metrics["acceptance"] = bool(ok)
    emit("serving", *blocks)
    emit_json("serving", metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
