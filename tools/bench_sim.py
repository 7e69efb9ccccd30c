#!/usr/bin/env python3
"""Calibrated simulator-throughput harness (and fast-lane proof).

Runs each workload three times -- fast lanes on (:mod:`repro.fastlane`
defaults), fast with flight fusion off (for fusion's attribution), and
all lanes off (the reference path) -- and measures
**simulator events per second** and wall clock.

The interesting output is not only the speedup: the harness *proves* the
fast lanes are behaviour-preserving by asserting, between the lanes:

* identical ``Simulator.events_executed`` over the measured window,
* identical benchmark metrics (consensus/s, goodput, commit count),
* an identical packet-trace digest: every frame accepted by every link is
  hashed (wire bytes + attached ICRC + timestamp), so a single byte or
  timestamp diverging anywhere in the run changes the digest.

The ``fault_recovery`` workload additionally cuts the leader's primary
cable mid-window and heals it: flight fusion must disengage at the fault,
take the RDMA-timeout/go-back-N recovery on the slow path, re-engage once
the retransmitted PSNs catch up -- and still produce the slow lane's
exact digest.

The ``serving`` workload drives a modeled million-client open-loop fleet
(Poisson arrivals, Zipfian keys) into G range-partitioned groups with
hot-range migration rebalancing ownership live; each cell's per-shard
digests must match between the fast and slow lanes even across the 40 ms
migration windows, and ``--check`` enforces the skew-throughput gates.

Results are written to ``BENCH_<n>.json`` so future PRs have a perf
trajectory; see ``docs/PERF.md`` for how to read it.

Usage::

    PYTHONPATH=src python tools/bench_sim.py            # full run
    PYTHONPATH=src python tools/bench_sim.py --quick    # CI smoke (~15 s)

Exits non-zero if any determinism assertion fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import os
import pstats
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro import fastlane  # noqa: E402
from repro.faults.injector import FaultSchedule  # noqa: E402
from repro.workloads import generators  # noqa: E402
from repro.faults.scenarios import REJOIN_RECOVERY_BOUND_NS  # noqa: E402
from repro.workloads.chaos import (  # noqa: E402
    chaos_cell_specs, run_chaos_cell)
from repro.consensus import ShardedCluster  # noqa: E402
from repro.workloads.experiments import (  # noqa: E402
    ClosedLoopDriver, build_cluster, install_trace_digest, run_groups)
from repro.workloads.fleet import (  # noqa: E402
    run_serving_cell, sampler_attribution)

MS = 1_000_000

#: The workloads the fidelity gate hammers: small-value maximum consensus
#: rate and large-value goodput (benchmarks/test_consensus_rate.py and
#: test_fig5_goodput.py), plus a fault-recovery point that partitions a
#: replica mid-window so flight fusion provably disengages and re-engages
#: without perturbing a single byte of the trace.
WORKLOADS = {
    # Hop-dominated shape: a deep closed-loop window of individually
    # proposed small values keeps ~128 clean flights pipelined through
    # the express timelines at once -- the regime where the per-event
    # machinery (heap, dispatch, packet build, full ICRC) dominates the
    # slow lane and the fused hop queue earns its keep.
    "consensus_rate": dict(protocol="p4ce", replicas=2, value_size=64,
                           window=128),
    "goodput": dict(protocol="p4ce", replicas=3, value_size=4096,
                    window=16),
    # The leader's scatter writes are lost pre-quorum during the outage,
    # so go-back-N on the unchanged broadcast QP heals the gap at the
    # RDMA-timeout timescale (~131 us) -- unlike a replica-side cut,
    # whose post-heal straggler NAK degrades the leader to direct mode
    # and needs a full 40 ms switch-group rebuild to regain
    # acceleration, far outside any benchmark window.
    "fault_recovery": dict(protocol="p4ce", replicas=2, value_size=64,
                           window=16, fault=dict(down_ns=0.2 * MS,
                                                 outage_ns=0.15 * MS)),
}

#: The lane settings compared per workload: (name, lanes on, flight
#: fusion on).  ``fast_no_fusion`` isolates flight fusion's contribution.
_LANES = (("fast", True, True),
          ("fast_no_fusion", True, False),
          ("slow", False, False))


#: Group counts swept by the ``group_scaling`` workload.
_GROUP_COUNTS = (1, 2, 4, 8)
_GROUP_COUNTS_QUICK = (1, 2)

#: The group-scaling saturation shape: leader-side doorbell batching
#: over the same deep pipelined window.  Batching coalesces a window's
#: values into few carrier flights, which is what pushes a single
#: shard's committed rate into the tens of millions per second -- the
#: regime behind the aggregate-commits/s scaling target.  It is
#: deliberately not the consensus_rate shape: that one measures
#: per-event simulator overhead (every value is its own flight), this
#: one measures aggregate committed throughput.
SCALING_SPEC = dict(protocol="p4ce", replicas=2, value_size=64, window=128,
                    overrides=dict(batching=True))


#: The serving tier: a modeled million-client open-loop fleet (Poisson
#: arrivals, Zipfian keys, batch-sampled per epoch) over G=8 range-
#: partitioned groups, with hot-range splitting/migration rebalancing
#: ownership live.  Offered load is ~80% of aggregate service capacity
#: (capacity = groups / service_gap), so skew has real consequences: a
#: saturated group queues, and only migration can recover the headroom.
SERVING_SPEC = dict(groups=8, replicas=2, protocol="p4ce", seed=11,
                    keyspace=100_000, clients=1_000_000,
                    offered_ops_per_sec=160_000.0, value_size=64,
                    inflight_window=1, service_gap_ns=40_000.0,
                    fleet_seed=5, warmup_epochs=2,
                    window_ns=400 * MS, epoch_ns=5 * MS)
SERVING_SPEC_QUICK = dict(SERVING_SPEC, groups=4, clients=250_000,
                          offered_ops_per_sec=80_000.0,
                          window_ns=120 * MS)

#: Skew levels swept: uniform (the baseline migration must retain),
#: moderate and YCSB-default Zipfian.
_SERVING_THETAS = (0.0, 0.9, 0.99)
_SERVING_THETAS_QUICK = (0.0, 0.99)

#: Metrics that must be bit-identical between serving lanes.
_SERVING_DETERMINISM_KEYS = ("trace_digests", "commits", "injected",
                             "per_shard_commits", "migrations", "latency")


def run_serving(*, quick: bool) -> dict:
    """The serving sweep: theta x {migration on, off}, fast + slow lanes.

    Every cell runs twice -- full fast stack and all lanes off -- and the
    per-shard wire digests must match bit-for-bit, *including the cells
    whose epochs span live hot-range migrations*.  Quick mode trims to a
    3-cell smoke (uniform needs no off-cell: with no skew there is
    nothing to migrate); the acceptance gates are enforced by
    ``--check`` on full runs only, where the sizing guarantees contrast.
    """
    base = SERVING_SPEC_QUICK if quick else SERVING_SPEC
    thetas = _SERVING_THETAS_QUICK if quick else _SERVING_THETAS
    out = {
        "spec": dict(base),
        "cells": {},
        "sampler": sampler_attribution(
            samples=200_000 if quick else 1_000_000,
            keyspace=base["keyspace"]),
        "deterministic": True,
        "determinism_failures": [],
    }
    failures = out["determinism_failures"]
    for theta in thetas:
        for migration in (True, False):
            if quick and migration is False and theta == 0.0:
                continue
            name = f"theta{theta:g}_{'mig' if migration else 'nomig'}"
            print(f"[serving] {name}: fast + slow lanes "
                  f"({base['window_ns'] / MS:g} ms window, "
                  f"G={base['groups']})...")
            spec = dict(base, theta=theta, migration=migration)
            fast = run_serving_cell(dict(spec, fast_lane=True))
            slow = run_serving_cell(dict(spec, fast_lane=False))
            for key in _SERVING_DETERMINISM_KEYS:
                if fast[key] != slow[key]:
                    failures.append(
                        f"serving/{name}: {key} differs between fast and "
                        f"slow lanes")
            cell = dict(fast)
            cell["slow_wall_clock_s"] = slow["wall_clock_s"]
            out["cells"][name] = cell
            done = sum(1 for m in fast["migrations"] if m["complete"])
            print(f"  {fast['commits_per_sec'] / 1e3:7.1f}k commits/s  "
                  f"p50={fast['latency'].get('p50_us', 0.0):.0f}us "
                  f"p99={fast['latency'].get('p99_us', 0.0):.0f}us  "
                  f"migrations={done}/{len(fast['migrations'])} "
                  f"max_dip={fast['max_dip_ms']:.1f}ms  "
                  f"wall={fast['wall_clock_s']:.0f}s/"
                  f"{slow['wall_clock_s']:.0f}s")
            if not fast["availability_dips_bounded"]:
                failures.append(
                    f"serving/{name}: a migration dip exceeded the "
                    f"reconfiguration-window bound "
                    f"({fast['max_dip_ms']:.2f} ms > "
                    f"{fast['availability_dip_bound_ms']:.2f} ms)")
    out["deterministic"] = not failures
    return out


def check_serving(serving: dict, *, quick: bool) -> list:
    """The serving acceptance gates (full runs only -- quick cells are
    too short for steady-state throughput ratios to mean anything)."""
    problems = []
    if quick:
        return problems
    cells = serving["cells"]
    uniform = cells.get("theta0_mig")
    skew_on = cells.get("theta0.99_mig")
    skew_off = cells.get("theta0.99_nomig")
    if uniform and skew_on:
        retained = skew_on["commits_per_sec"] / uniform["commits_per_sec"]
        serving["skew_retained_vs_uniform"] = retained
        if retained < 0.70:
            problems.append(
                f"serving: theta=0.99 with migration retains only "
                f"{retained:.2f}x the uniform aggregate (target >= 0.70)")
    if skew_on and skew_off:
        gain = skew_on["commits_per_sec"] / skew_off["commits_per_sec"]
        serving["migration_gain_vs_static"] = gain
        if gain < 1.5:
            problems.append(
                f"serving: migration gains only {gain:.2f}x over the "
                f"static skewed baseline (target >= 1.5x)")
    sampler = serving["sampler"]
    if sampler["vectorized_backend"]:
        if sampler["speedup_batch_vs_scalar"] < 10.0:
            problems.append(
                f"serving: batch sampling is only "
                f"{sampler['speedup_batch_vs_scalar']:.1f}x the scalar "
                f"path at {sampler['samples']} draws (target >= 10x)")
    return problems


def run_lane(spec: dict, lane_name: str, lane_on: bool, fusion_on: bool,
             warmup_ns: float, window_ns: float,
             profile: bool = False) -> dict:
    """One workload, one lane setting, one fresh cluster."""
    fastlane.flags.set_all(lane_on)
    fastlane.flags.flight_fusion = lane_on and fusion_on
    fastlane.reset_columnar()
    try:
        cluster = build_cluster(spec["protocol"], spec["replicas"],
                                value_size=spec["value_size"],
                                **spec.get("overrides", {}))
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        driver = ClosedLoopDriver(cluster, spec["value_size"],
                                  window=spec["window"])
        driver.start()
        cluster.run_for(warmup_ns)
        planner = cluster.flight_planner
        fault = spec.get("fault")
        probe = {}
        if fault is not None:
            # Deterministic mid-window fault: cut the leader's primary
            # cable (no RNG -- frames on a down link are dropped
            # unconditionally), heal it after the outage.  Heartbeats
            # survive on the backup network, so no election fires; the
            # in-flight scatter writes are lost before any replica could
            # ACK, so the leader's RDMA timeout fires go-back-N on the
            # same broadcast QP and the switch path never degrades.
            victim = leader.node_id
            schedule = FaultSchedule(cluster)
            schedule.at_ns(fault["down_ns"]).partition_host(victim, False)
            schedule.at_ns(fault["down_ns"] + fault["outage_ns"]).heal_host(
                victim)
            schedule.arm()
            # Sample fusion progress just after the heal: any flights
            # fused beyond this count prove fusion re-engaged.
            cluster.sim.schedule(
                fault["down_ns"] + fault["outage_ns"],
                lambda: probe.__setitem__("fused_at_heal",
                                          planner.flights_fused))
        driver.measuring = True
        driver.throughput.open(cluster.sim.now)
        events_before = cluster.sim.events_executed
        # GC pauses land arbitrarily and swamp the lane comparison; both
        # lanes run the measured window with collection off.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        profiler = None
        if profile:
            profiler = cProfile.Profile()
            profiler.enable()
        t0 = time.perf_counter()
        cluster.run_for(window_ns)
        wall = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
            print(f"\n-- cProfile, {lane_name} lane, measured window "
                  f"(top 20 by cumulative time) --")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative").print_stats(20)
        if gc_was_enabled:
            gc.enable()
        driver.throughput.close(cluster.sim.now)
        driver.measuring = False
        driver.stop()
        events = cluster.sim.events_executed - events_before
        result = {
            "lane": lane_name,
            "wall_clock_s": wall,
            "events_executed": events,
            "events_per_sec": events / wall,
            "ops_per_sec": driver.throughput.ops_per_sec,
            "goodput_gbps": driver.throughput.goodput_gbytes_per_sec,
            "commits": driver.commits,
            "trace_digest": digest.hexdigest(),
            "fastlane": fastlane.stats(),
            # Fusion attribution: how much of the run the planner
            # fused, and how the batched drain carved it into runs.
            "flight": planner.stats(),
        }
        if fault is not None:
            fused_at_heal = probe.get("fused_at_heal", 0)
            result["flight"]["fused_at_heal"] = fused_at_heal
            result["flight"]["fused_after_heal"] = (
                planner.flights_fused - fused_at_heal)
        return result
    finally:
        fastlane.enable()


#: Metrics that must be bit-identical between the fast and slow lanes.
_DETERMINISM_KEYS = ("events_executed", "trace_digest", "ops_per_sec",
                     "goodput_gbps", "commits")


def run_workload(name: str, spec: dict, *, warmup_ns: float, window_ns: float,
                 repeats: int, profile: bool = False) -> dict:
    """Run all lanes ``repeats`` times; keep best wall clock per lane.

    The lanes are interleaved (fast, no-fusion, slow, fast, ...) so slow
    drifts in machine load hit every lane alike instead of biasing
    whichever lane happened to run last.
    """
    lanes = {lane_name: None for lane_name, _, _ in _LANES}
    failures = []
    for repeat in range(repeats):
        for lane_name, lane_on, fusion_on in _LANES:
            # Profile only the first repeat of each lane: the hot spots do
            # not change between repeats, and the profiler's overhead would
            # poison every repeat's wall clock otherwise.
            result = run_lane(spec, lane_name, lane_on, fusion_on,
                              warmup_ns, window_ns,
                              profile=profile and repeat == 0)
            best = lanes[lane_name]
            if best is None:
                lanes[lane_name] = result
            else:
                # Repeats of a deterministic simulation must agree with
                # themselves before lanes are compared with each other.
                for key in _DETERMINISM_KEYS:
                    if result[key] != best[key]:
                        failures.append(
                            f"{name}/{lane_name}: {key} varies across repeats "
                            f"({best[key]!r} vs {result[key]!r})")
                if result["wall_clock_s"] < best["wall_clock_s"]:
                    lanes[lane_name] = result
    for lane_name in ("fast_no_fusion", "slow"):
        for key in _DETERMINISM_KEYS:
            if lanes["fast"][key] != lanes[lane_name][key]:
                failures.append(
                    f"{name}: {key} differs between lanes "
                    f"(fast={lanes['fast'][key]!r} "
                    f"{lane_name}={lanes[lane_name][key]!r})")
    fast, slow = lanes["fast"], lanes["slow"]
    no_fusion = lanes["fast_no_fusion"]
    if spec.get("fault") is not None:
        # The fault point must actually exercise the engage/disengage
        # machinery, not just survive it.
        flight = fast["flight"]
        if not flight["flights_fused"]:
            failures.append(f"{name}: fusion never engaged")
        if not flight["defusions"]:
            failures.append(f"{name}: the fault never defused a flight")
        if not flight["fused_after_heal"]:
            failures.append(f"{name}: fusion did not re-engage after heal")
        if not flight["batch_splits"]:
            failures.append(
                f"{name}: the fault never split a batched run "
                "(the drain held no fused window mid-fault)")
    return {
        # Headline numbers (fast lane) at the top level, per the perf
        # trajectory schema: {events_per_sec, wall_clock_s, events_executed}.
        "events_per_sec": fast["events_per_sec"],
        "wall_clock_s": fast["wall_clock_s"],
        "events_executed": fast["events_executed"],
        "ops_per_sec": fast["ops_per_sec"],
        "goodput_gbps": fast["goodput_gbps"],
        "speedup_vs_slow_lane": fast["events_per_sec"] / slow["events_per_sec"],
        # Flight fusion's own contribution: full fast stack vs the other
        # lanes only.
        "speedup_vs_no_fusion": (fast["events_per_sec"]
                                 / no_fusion["events_per_sec"]),
        "deterministic": not failures,
        "determinism_failures": failures,
        "fast": fast,
        "fast_no_fusion": no_fusion,
        "slow": slow,
    }


#: Per-shard results that must be identical in every placement and lane.
_SHARD_KEYS = ("trace_digest", "events_executed", "counter_totals")


def run_group_scaling(groups, *, warmup_ns: float, window_ns: float,
                      epochs: int) -> dict:
    """The sharding proof at every G: all groups in one process (fast and
    slow lanes) vs one group per spawn worker, with per-shard digest,
    event count and switch-counter equality.

    ``aggregate_ops_per_sec`` sums the per-shard committed rates over the
    same simulated window -- the "aggregate simulated commits/s" the
    scaling target is measured on.
    """
    # Workers regenerate every random stream from (seed, label) alone
    # (stable blake2b forks), but pin the hash seed anyway so dict/set
    # iteration quirks can never creep into a worker-only code path.
    os.environ.setdefault("PYTHONHASHSEED", "0")
    ctx = multiprocessing.get_context("spawn")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    out = {
        "epochs": epochs,
        "groups": {},
        "deterministic": True,
        "determinism_failures": [],
    }
    failures = out["determinism_failures"]
    base = dict(SCALING_SPEC, warmup_ns=warmup_ns, window_ns=window_ns,
                epochs=epochs)

    def compare(num_groups, what, left, right):
        """Record every per-shard key that differs; True if none do."""
        same = True
        for shard, (a, b) in enumerate(zip(left, right)):
            for key in _SHARD_KEYS:
                if a[key] != b[key]:
                    same = False
                    failures.append(f"group_scaling G={num_groups} shard "
                                    f"{shard}: {what} {key} differs")
        return same

    for num_groups in groups:
        print(f"[group_scaling] G={num_groups}: serial fast + slow...")
        serial = run_groups(dict(base, groups=num_groups))
        slow = run_groups(dict(base, groups=num_groups, fast_lane=False))
        compare(num_groups, "fast vs slow", serial["shards"], slow["shards"])
        workers = max(1, min(cores, num_groups))
        print(f"[group_scaling] G={num_groups}: parallel "
              f"({workers} worker(s), spawn)...")
        # Seed 7 is run_groups' (and run_lane's) default base seed.
        one_group = [dict(base, groups=1,
                          seed=ShardedCluster.shard_seed(7, shard))
                     for shard in range(num_groups)]
        t0 = time.perf_counter()
        with ctx.Pool(processes=workers) as pool:
            par_shards = [run["shards"][0]
                          for run in pool.map(run_groups, one_group)]
        parallel = {"workers": workers, "shards": par_shards,
                    "wall_clock_s": time.perf_counter() - t0}
        shards_match = compare(num_groups, "serial vs parallel",
                               serial["shards"], par_shards)
        fused = [s["flight"]["flights_fused"] for s in serial["shards"]]
        if not all(fused):
            failures.append(
                f"group_scaling G={num_groups}: flight fusion never engaged "
                f"on shard(s) {[i for i, f in enumerate(fused) if not f]}")
        runs_fused = [s["flight"]["runs_fused"] for s in serial["shards"]]
        if not all(runs_fused):
            failures.append(
                f"group_scaling G={num_groups}: the drain never batched a run "
                f"on shard(s) {[i for i, r in enumerate(runs_fused) if not r]}")
        aggregate = sum(s["ops_per_sec"] for s in serial["shards"])
        out["groups"][str(num_groups)] = {
            "num_groups": num_groups,
            "aggregate_ops_per_sec": aggregate,
            "aggregate_commits": sum(s["commits"] for s in serial["shards"]),
            "per_shard_ops_per_sec": [s["ops_per_sec"]
                                      for s in serial["shards"]],
            "per_shard_digests": [s["trace_digest"][:16]
                                  for s in serial["shards"]],
            "per_shard_flights_fused": fused,
            "per_shard_runs_fused": runs_fused,
            "shards_match": shards_match,
            "serial_wall_by_lane": {"fast": serial["wall_clock_s"],
                                    "slow": slow["wall_clock_s"]},
            "serial": serial,
            "parallel": parallel,
        }
        print(f"  aggregate = {aggregate / 1e6:.2f} M commits/s  "
              f"shards {'OK' if shards_match else 'MISMATCH'}  "
              f"fused/shard = {fused}")
    if "1" in out["groups"]:
        # Self-contained G=1 parity: one unsharded cluster runs the very
        # same saturation shape through the plain harness (no sharded
        # cluster, no barriers); shard 0 of the G=1 serial run must
        # produce the identical digest, proving the sharded placement
        # machinery is invisible on the wire.
        print("[group_scaling] G=1 parity: unsharded reference run...")
        reference = run_lane(SCALING_SPEC, "fast", True, True,
                             warmup_ns, window_ns)
        shard0 = out["groups"]["1"]["serial"]["shards"][0]["trace_digest"]
        parity = reference["trace_digest"] == shard0
        out["g1_unsharded_digest_match"] = parity
        if not parity:
            failures.append(
                f"group_scaling G=1 shard 0 digest differs from the "
                f"unsharded reference run ({shard0[:16]} vs "
                f"{reference['trace_digest'][:16]})")
        else:
            print("  G=1 parity: OK (digest == unsharded reference run)")
    base = out["groups"].get("1")
    if base is not None:
        base_rate = base["aggregate_ops_per_sec"] or 1.0
        for entry in out["groups"].values():
            entry["scaling_vs_g1"] = entry["aggregate_ops_per_sec"] / base_rate
        g4 = out["groups"].get("4")
        if g4 is not None:
            out["speedup_g4_vs_g1"] = g4["scaling_vs_g1"]
            print(f"  G=4 aggregate = {out['speedup_g4_vs_g1']:.2f}x G=1 serial")
    out["deterministic"] = not failures
    return out


def run_chaos_matrix(quick: bool) -> dict:
    """The composable-chaos sweep: scenario x G cells, each proving
    fast/slow digest parity under mid-flight strikes, plus seed-replay
    fidelity, rejoin-recovery bounds and liveness (see
    :mod:`repro.workloads.chaos`).

    Cells are independent (own cluster, own seed), so they run through
    the same spawn pool the group-scaling sweep uses.
    """
    os.environ.setdefault("PYTHONHASHSEED", "0")
    ctx = multiprocessing.get_context("spawn")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    specs = chaos_cell_specs(quick=quick)
    workers = max(1, min(cores, len(specs)))
    print(f"[chaos_matrix] {len(specs)} cells "
          f"({workers} worker(s), spawn)...")
    t0 = time.perf_counter()
    with ctx.Pool(processes=workers) as pool:
        cells = pool.map(run_chaos_cell, specs)
    out = {
        "cells": {cell["cell"]: cell for cell in cells},
        "num_cells": len(cells),
        "rejoin_recovery_bound_ms": REJOIN_RECOVERY_BOUND_NS / MS,
        "wall_clock_s": time.perf_counter() - t0,
        "deterministic": True,
        "determinism_failures": [],
    }
    failures = out["determinism_failures"]
    for cell in cells:
        name = cell["cell"]
        fast0 = cell["fast"]["shards"][0]
        recovery = ""
        if cell["recovery_bound_ms"] is not None:
            observed = [s["recovery_ms"] for s in cell["fast"]["shards"]
                        if s["recovery_ms"] is not None]
            shown = max(observed) if observed else None
            recovery = (f"  recovery={shown:.1f}ms"
                        f"/{cell['recovery_bound_ms']:.0f}ms"
                        if shown is not None else "  recovery=NONE")
        replay = ("" if cell["replay_match"] is None
                  else f"  replay {'OK' if cell['replay_match'] else 'FAIL'}")
        print(f"  {name:24s} digest "
              f"{'OK' if cell['digest_match'] else 'MISMATCH'}  "
              f"commits={fast0['window_commits']}  "
              f"max_gap={fast0['max_commit_gap_ms']:.1f}ms"
              f"{recovery}{replay}  "
              f"speedup={cell['speedup_vs_slow_lane']:.2f}x")
        if not cell["digest_match"]:
            failures.append(
                f"chaos_matrix {name}: fast and slow trace digests differ "
                f"({cell['fast']['trace_digest'][:16]} vs "
                f"{cell['slow']['trace_digest'][:16]})")
        if not cell["journal_match"]:
            failures.append(
                f"chaos_matrix {name}: fast and slow fault journals differ")
        if cell["replay_match"] is False:
            failures.append(
                f"chaos_matrix {name}: journal replay from seed did not "
                f"reproduce the fast-lane digest")
        if not cell["recovery_ok"]:
            failures.append(
                f"chaos_matrix {name}: rejoin recovery exceeded the "
                f"{cell['recovery_bound_ms']:.0f} ms bound "
                f"(or no rebuild observed)")
        if not cell["progress_ok"]:
            failures.append(
                f"chaos_matrix {name}: a shard made no window commits or "
                f"did not catch up after settling")
    out["deterministic"] = not failures
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short windows and one repeat (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per lane (default: 3, quick: 1)")
    parser.add_argument("--output", type=Path, default=_REPO / "BENCH_8.json",
                        help="where to write the JSON report")
    parser.add_argument("--workload",
                        choices=sorted(WORKLOADS) + ["chaos_matrix",
                                                     "group_scaling",
                                                     "serving"],
                        default=None,
                        help="run a single workload instead of all")
    parser.add_argument("--groups", default=None,
                        help="comma-separated group counts for the "
                             "group_scaling workload (default: 1,2,4,8; "
                             "quick: 1,2)")
    parser.add_argument("--check", action="store_true",
                        help="also enforce the scaling acceptance gates "
                             "(>=2x aggregate at G=4, >=50M commits/s at "
                             "G=8) as exit-failing; the digest parity "
                             "checks always fail the exit code")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the measured window in cProfile and print "
                             "the top-20 cumulative hot spots per lane")
    args = parser.parse_args(argv)

    warmup_ns = 0.3 * MS if args.quick else 1 * MS
    window_ns = 1 * MS if args.quick else 4 * MS
    repeats = args.repeats or (1 if args.quick else 3)
    if args.workload in ("chaos_matrix", "group_scaling", "serving"):
        names = []
    elif args.workload:
        names = [args.workload]
    else:
        names = sorted(WORKLOADS)
    run_scaling = args.workload in (None, "group_scaling")
    run_fleet = args.workload in (None, "serving")
    run_chaos = args.workload in (None, "chaos_matrix")
    if args.groups:
        groups = tuple(int(g) for g in args.groups.split(","))
    else:
        groups = _GROUP_COUNTS_QUICK if args.quick else _GROUP_COUNTS

    report = {
        "schema": 1,
        "harness": "tools/bench_sim.py",
        "python": sys.version.split()[0],
        "quick": args.quick,
        "repeats": repeats,
        "warmup_ns": warmup_ns,
        "window_ns": window_ns,
        "workloads": {},
    }
    ok = True
    for name in names:
        print(f"[{name}] running fast + no-fusion + slow lanes "
              f"({repeats} repeat(s), {window_ns / MS:g} ms window)...")
        result = run_workload(name, WORKLOADS[name], warmup_ns=warmup_ns,
                              window_ns=window_ns, repeats=repeats,
                              profile=args.profile)
        report["workloads"][name] = result
        fast, slow = result["fast"], result["slow"]
        nofu = result["fast_no_fusion"]
        print(f"  fast:          {fast['events_per_sec'] / 1e3:8.1f}k events/s  "
              f"wall={fast['wall_clock_s']:.2f}s  events={fast['events_executed']}")
        print(f"  no-fusion:     {nofu['events_per_sec'] / 1e3:8.1f}k events/s  "
              f"wall={nofu['wall_clock_s']:.2f}s")
        print(f"  slow:          {slow['events_per_sec'] / 1e3:8.1f}k events/s  "
              f"wall={slow['wall_clock_s']:.2f}s")
        flight = fast["flight"]
        print(f"  speedup(fast/slow) = {result['speedup_vs_slow_lane']:.2f}x  "
              f"fusion alone = {result['speedup_vs_no_fusion']:.2f}x   "
              f"consensus = {fast['ops_per_sec'] / 1e6:.2f} M/s")
        print(f"  fusion: {flight['flights_fused']} flights fused, "
              f"{flight['hops_replayed']} hops, "
              f"{flight['defusions']} defusions, "
              f"{flight['express_fallbacks']} fallbacks   "
              f"digest = {fast['trace_digest'][:16]}...")
        print(f"  drain: {flight['runs_fused']} batched runs, "
              f"mean/max run = {flight['mean_run_len']:.1f}/"
              f"{flight['max_run_len']} hops, "
              f"{flight['batch_splits']} batch splits")
        col = fast["fastlane"]["columnar"]
        print(f"  columnar: {col['runs_vectorized']} columnar drains, "
              f"{col['hops_batched']} hops batched, "
              f"{col['frames_bulk_hashed']} frames bulk-hashed, "
              f"{col['columnar_fallbacks']} fallbacks, "
              f"{col['digest_flushes']} digest flushes")
        if result["deterministic"]:
            print("  determinism: OK (events, metrics, trace digest identical)")
        else:
            ok = False
            for failure in result["determinism_failures"]:
                print(f"  DETERMINISM FAILURE: {failure}")

    if run_scaling:
        epochs = 8 if args.quick else 16
        print(f"[group_scaling] G in {list(groups)} "
              f"({window_ns / MS:g} ms window, {epochs} epoch barriers)...")
        scaling = run_group_scaling(groups, warmup_ns=warmup_ns,
                                    window_ns=window_ns, epochs=epochs)
        report["group_scaling"] = scaling
        if not scaling["deterministic"]:
            ok = False
            for failure in scaling["determinism_failures"]:
                print(f"  DETERMINISM FAILURE: {failure}")
        if args.check:
            speedup = scaling.get("speedup_g4_vs_g1")
            if speedup is not None:
                scaling["target_met"] = speedup >= 2.0
                if not scaling["target_met"]:
                    ok = False
                    print(f"  CHECK FAILURE: G=4 aggregate is only "
                          f"{speedup:.2f}x G=1 serial (target >= 2x)")
            g8 = scaling["groups"].get("8")
            if g8 is not None:
                aggregate = g8["aggregate_ops_per_sec"]
                g8["target_met"] = aggregate >= 50e6
                if not g8["target_met"]:
                    ok = False
                    print(f"  CHECK FAILURE: G=8 aggregate is only "
                          f"{aggregate / 1e6:.1f} M commits/s "
                          f"(target >= 50M)")

    if run_fleet:
        print(f"[serving] fleet sweep: theta x migration on/off...")
        serving = run_serving(quick=args.quick)
        report["serving"] = serving
        sampler = serving["sampler"]
        print(f"  sampler: batch {sampler['batch_ns_per_sample']:.0f} "
              f"ns/draw vs scalar {sampler['scalar_ns_per_sample']:.0f} "
              f"ns/draw = {sampler['speedup_batch_vs_scalar']:.1f}x "
              f"(vectorized={sampler['vectorized_backend']})")
        if not serving["deterministic"]:
            ok = False
            for failure in serving["determinism_failures"]:
                print(f"  DETERMINISM FAILURE: {failure}")
        if args.check:
            for problem in check_serving(serving, quick=args.quick):
                ok = False
                print(f"  CHECK FAILURE: {problem}")
            retained = serving.get("skew_retained_vs_uniform")
            gain = serving.get("migration_gain_vs_static")
            if retained is not None and gain is not None:
                print(f"  serving gates: retained {retained:.2f}x of "
                      f"uniform (>=0.70), {gain:.2f}x over static skew "
                      f"(>=1.5)")

    if run_chaos:
        chaos = run_chaos_matrix(quick=args.quick)
        report["chaos_matrix"] = chaos
        if not chaos["deterministic"]:
            ok = False
            for failure in chaos["determinism_failures"]:
                print(f"  DETERMINISM FAILURE: {failure}")
        else:
            print(f"  chaos_matrix: {chaos['num_cells']} cells OK "
                  f"(digest parity, journals, replay, recovery bounds)")

    if args.profile:
        # Profiled windows carry instrumentation overhead; never let them
        # masquerade as a comparable BENCH_* data point.
        print(f"skipping {args.output} (profiled timings are not comparable)")
    else:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
