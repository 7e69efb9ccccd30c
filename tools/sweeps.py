#!/usr/bin/env python3
"""Correctness sweeps: group scaling, serving and the chaos matrix.

Each sweep runs its cells on the full fast stack and again with every
fast lane off, and fails unless the two agree on the wire:

* ``group_scaling`` -- G consensus groups in one process (fast and slow
  lanes) and again one group per spawn worker; every shard's trace
  digest, event count and switch counters must be identical in all
  three, and flight fusion must stay engaged on every shard;
* ``serving`` -- a modeled million-client open-loop fleet into G
  range-partitioned groups with live hot-range migration; per-shard
  digests, counts, migrations and latency summaries must match between
  lanes, every migration dip must stay inside the reconfiguration
  bound, and full runs check the skew-throughput gates;
* ``chaos_matrix`` -- scenario x G cells (see :mod:`repro.workloads.chaos`):
  digest and fault-journal parity, seed replay, rejoin-recovery bounds
  and liveness.

Simulated metrics are the contract here; host timing is measured by
``bench/`` alone.  Wall clock is printed only as a budget line item.

Usage::

    python tools/sweeps.py --quick                          # every sweep
    python tools/sweeps.py --quick --workload group_scaling
    python tools/sweeps.py --workload serving --output serving.json

Exits non-zero if any check fails.  Writes JSON only to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.consensus import ShardedCluster  # noqa: E402
from repro.faults.scenarios import REJOIN_RECOVERY_BOUND_NS  # noqa: E402
from repro.workloads.chaos import (  # noqa: E402
    chaos_cell_specs, run_chaos_cell)
from repro.workloads.experiments import run_groups  # noqa: E402
from repro.workloads.fleet import run_serving_cell  # noqa: E402

MS = 1_000_000

#: Group counts swept by the ``group_scaling`` workload.
_GROUP_COUNTS = (1, 2, 4, 8)
_GROUP_COUNTS_QUICK = (1, 2)

#: The group-scaling saturation shape: leader-side doorbell batching
#: over a deep pipelined window coalesces a window's values into few
#: carrier flights, which pushes a single shard's committed rate into
#: the tens of millions per second.
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

#: Per-shard results that must be identical in every placement and lane.
_SHARD_KEYS = ("trace_digest", "events_executed", "counter_totals")


def _spawn_pool(jobs: int):
    """A spawn pool of at most one worker per usable core and per job.

    Workers regenerate every random stream from (seed, label) alone
    (stable blake2b forks), but the hash seed is pinned anyway so
    dict/set iteration quirks can never creep into a worker-only path.
    """
    os.environ.setdefault("PYTHONHASHSEED", "0")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    workers = max(1, min(cores, jobs))
    return multiprocessing.get_context("spawn").Pool(processes=workers)


def run_group_scaling(groups, *, warmup_ns: float, window_ns: float,
                      epochs: int) -> dict:
    """The sharding proof at every G: all groups in one process (fast and
    slow lanes) vs one group per spawn worker, with per-shard digest,
    event count and switch-counter equality.

    ``aggregate_ops_per_sec`` sums the per-shard committed rates over the
    same simulated window.
    """
    out = {"epochs": epochs, "groups": {}, "failures": []}
    failures = out["failures"]
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
        print(f"[group_scaling] G={num_groups}: serial fast + slow, "
              f"then one group per spawn worker...")
        serial = run_groups(dict(base, groups=num_groups))["shards"]
        slow = run_groups(dict(base, groups=num_groups, fast_lane=False))
        compare(num_groups, "fast vs slow", serial, slow["shards"])
        # Seed 7 is run_groups' default base seed.
        one_group = [dict(base, groups=1,
                          seed=ShardedCluster.shard_seed(7, shard))
                     for shard in range(num_groups)]
        with _spawn_pool(num_groups) as pool:
            parallel = [run["shards"][0]
                        for run in pool.map(run_groups, one_group)]
        shards_match = compare(num_groups, "serial vs parallel", serial,
                               parallel)
        fused = [s["flight"]["flights_fused"] for s in serial]
        runs_fused = [s["flight"]["runs_fused"] for s in serial]
        for what, counts in (("flight fusion never engaged", fused),
                             ("the drain never batched a run", runs_fused)):
            idle = [i for i, n in enumerate(counts) if not n]
            if idle:
                failures.append(f"group_scaling G={num_groups}: {what} "
                                f"on shard(s) {idle}")
        aggregate = sum(s["ops_per_sec"] for s in serial)
        digests = [s["trace_digest"][:16] for s in serial]
        out["groups"][str(num_groups)] = {
            "aggregate_ops_per_sec": aggregate,
            "aggregate_commits": sum(s["commits"] for s in serial),
            "per_shard_digests": digests,
            "shards_match": shards_match,
            "shards": serial,
        }
        print(f"  aggregate = {aggregate / 1e6:.2f} M commits/s  "
              f"shards {'OK' if shards_match else 'MISMATCH'}  "
              f"digests = {' '.join(digests)}  fused/shard = {fused}")
    return out


def run_serving(*, quick: bool) -> dict:
    """The serving sweep: theta x {migration on, off}, fast + slow lanes.

    Every cell runs twice -- full fast stack and all lanes off -- and the
    per-shard wire digests must match bit-for-bit, *including the cells
    whose epochs span live hot-range migrations*.  Quick mode trims to a
    3-cell smoke (uniform needs no off-cell: with no skew there is
    nothing to migrate); the skew gates run on full runs only, where the
    sizing guarantees contrast.
    """
    base = SERVING_SPEC_QUICK if quick else SERVING_SPEC
    thetas = _SERVING_THETAS_QUICK if quick else _SERVING_THETAS
    out = {"spec": dict(base), "cells": {}, "failures": []}
    failures = out["failures"]
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
            out["cells"][name] = fast
            done = sum(1 for m in fast["migrations"] if m["complete"])
            print(f"  {fast['commits_per_sec'] / 1e3:7.1f}k commits/s  "
                  f"p50={fast['latency'].get('p50_us', 0.0):.0f}us "
                  f"p99={fast['latency'].get('p99_us', 0.0):.0f}us  "
                  f"migrations={done}/{len(fast['migrations'])} "
                  f"max_dip={fast['max_dip_ms']:.1f}ms  digests = "
                  f"{' '.join(d[:16] for d in fast['trace_digests'])}")
            if not fast["availability_dips_bounded"]:
                failures.append(
                    f"serving/{name}: a migration dip exceeded the "
                    f"reconfiguration-window bound "
                    f"({fast['max_dip_ms']:.2f} ms > "
                    f"{fast['availability_dip_bound_ms']:.2f} ms)")
    if not quick:
        failures.extend(check_serving(out))
    return out


def check_serving(serving: dict) -> list:
    """The skew gates of a full serving sweep: ratios of simulated
    commit rates, so deterministic model checks."""
    cells = serving["cells"]
    skew_on = cells["theta0.99_mig"]["commits_per_sec"]
    retained = skew_on / cells["theta0_mig"]["commits_per_sec"]
    gain = skew_on / cells["theta0.99_nomig"]["commits_per_sec"]
    serving["skew_retained_vs_uniform"] = retained
    serving["migration_gain_vs_static"] = gain
    print(f"  serving gates: retained {retained:.2f}x of uniform (>=0.70), "
          f"{gain:.2f}x over static skew (>=1.5)")
    problems = []
    if retained < 0.70:
        problems.append(
            f"serving: theta=0.99 with migration retains only "
            f"{retained:.2f}x the uniform aggregate (target >= 0.70)")
    if gain < 1.5:
        problems.append(
            f"serving: migration gains only {gain:.2f}x over the "
            f"static skewed baseline (target >= 1.5x)")
    return problems


def run_chaos_matrix(quick: bool) -> dict:
    """The composable-chaos sweep: scenario x G cells, each proving
    fast/slow digest parity under mid-flight strikes, plus seed-replay
    fidelity, rejoin-recovery bounds and liveness (see
    :mod:`repro.workloads.chaos`).

    Cells are independent (own cluster, own seed), so they run through
    the same spawn pool the group-scaling sweep uses.  Each cell's wall
    clock (fast + slow + replay runs) and the sweep's total are printed
    as the matrix's wall-clock budget line items.
    """
    specs = chaos_cell_specs(quick=quick)
    print(f"[chaos_matrix] {len(specs)} cells (spawn pool)...")
    t0 = time.perf_counter()
    with _spawn_pool(len(specs)) as pool:
        cells = pool.map(run_chaos_cell, specs)
    out = {
        "cells": {cell["cell"]: cell for cell in cells},
        "rejoin_recovery_bound_ms": REJOIN_RECOVERY_BOUND_NS / MS,
        "wall_clock_s": time.perf_counter() - t0,
        "failures": [],
    }
    failures = out["failures"]
    for cell in cells:
        name = cell["cell"]
        fast0 = cell["fast"]["shards"][0]
        recovery = ""
        if cell["recovery_bound_ms"] is not None:
            observed = [s["recovery_ms"] for s in cell["fast"]["shards"]
                        if s["recovery_ms"] is not None]
            recovery = (f"  recovery={max(observed):.1f}ms"
                        f"/{cell['recovery_bound_ms']:.0f}ms"
                        if observed else "  recovery=NONE")
        replay = ("" if cell["replay_match"] is None
                  else f"  replay {'OK' if cell['replay_match'] else 'FAIL'}")
        print(f"  {name:24s} digest "
              f"{'OK' if cell['digest_match'] else 'MISMATCH'} "
              f"{cell['fast']['trace_digest'][:16]}  "
              f"commits={fast0['window_commits']}  "
              f"max_gap={fast0['max_commit_gap_ms']:.1f}ms"
              f"{recovery}{replay}  wall={cell['wall_clock_s']:.0f}s")
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
    print(f"  {len(cells)} cells: {out['wall_clock_s']:.0f} s wall, "
          f"{sum(cell['wall_clock_s'] for cell in cells):.0f} s summed "
          f"over cells")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short windows, fewer cells (CI smoke)")
    parser.add_argument("--workload",
                        choices=("group_scaling", "serving", "chaos_matrix"),
                        default=None,
                        help="run one sweep instead of all three")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {}
    if args.workload in (None, "group_scaling"):
        report["group_scaling"] = run_group_scaling(
            _GROUP_COUNTS_QUICK if args.quick else _GROUP_COUNTS,
            warmup_ns=(0.3 if args.quick else 1) * MS,
            window_ns=(1 if args.quick else 4) * MS,
            epochs=8 if args.quick else 16)
    if args.workload in (None, "serving"):
        report["serving"] = run_serving(quick=args.quick)
    if args.workload in (None, "chaos_matrix"):
        report["chaos_matrix"] = run_chaos_matrix(quick=args.quick)

    failures = [f for sweep in report.values() for f in sweep["failures"]]
    for failure in failures:
        print(f"FAILURE: {failure}")
    if args.output is not None:
        args.output.write_text(json.dumps(dict(report, quick=args.quick),
                                          indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    print(f"{len(failures)} failure(s)" if failures else "all checks OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
