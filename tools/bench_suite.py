#!/usr/bin/env python
"""Parallel experiment sweep runner: fan the benchmark matrix across
worker processes and write ``BENCH_2.json``.

Three sections go into the report:

* ``lane_check`` -- the existing fast-vs-slow harness
  (:mod:`tools.bench_sim`) run on the two fidelity-gate workloads,
  proving digest equality and recording ``speedup_vs_slow_lane``;
* ``sweep`` -- the matrix of :func:`repro.workloads.experiments
  .sweep_matrix` points (value sizes x replica counts x ablations),
  executed by a ``multiprocessing`` pool with one derived seed per
  point.  ``speedup_vs_serial`` compares the pool's wall clock against
  the sum of per-point wall clocks (what a serial loop would pay);
* ``baseline`` -- per-workload fast-lane events/sec compared against a
  checked-in ``BENCH_8.json`` (``--baseline``); only its
  ``workloads.<name>.fast.events_per_sec`` and ``quick`` fields are read.

The sweep clamps ``--workers`` to the cores the process may run on and
records both numbers; when ``speedup_vs_serial`` lands near 1x (single
usable core, contended pool) the report carries a ``speedup_note``
explaining why that is parallel-efficiency information, not a simulator
regression.

Determinism: ``PYTHONHASHSEED`` is pinned in the environment before the
pool spawns, so worker trace behaviour (dict iteration, digests) is
reproducible run to run.  With ``--check`` the exit code reflects the CI
gate: any fast-vs-slow determinism failure, or a fast-lane events/sec
regression beyond ``--max-regression`` vs the baseline, fails the run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))
# Pin the string hash seed for every spawned worker (the parent's own
# interpreter keeps the seed it started with; only children inherit the
# environment, which is where the sweep's determinism lives).
os.environ.setdefault("PYTHONHASHSEED", "0")

from repro.workloads.experiments import run_sweep_point, sweep_matrix  # noqa: E402

import bench_sim  # noqa: E402  (same directory; reuses the lane harness)


def run_lane_checks(quick: bool, repeats: int) -> dict:
    """Fast-vs-slow comparison on the fidelity-gate workloads."""
    MS = bench_sim.MS
    warmup_ns = 0.3 * MS if quick else 1 * MS
    window_ns = 1 * MS if quick else 4 * MS
    checks = {}
    for name in sorted(bench_sim.WORKLOADS):
        print(f"[lane-check:{name}] fast vs slow "
              f"({repeats} repeat(s), {window_ns / MS:g} ms window)...",
              flush=True)
        result = bench_sim.run_workload(
            name, bench_sim.WORKLOADS[name], warmup_ns=warmup_ns,
            window_ns=window_ns, repeats=repeats)
        checks[name] = result
        print(f"  speedup(fast/slow) = {result['speedup_vs_slow_lane']:.2f}x  "
              f"determinism: {'OK' if result['deterministic'] else 'FAILED'}",
              flush=True)
    return checks


def available_cores() -> int:
    """CPU cores this process may actually run on.

    ``sched_getaffinity`` respects container/cgroup CPU masks where
    ``os.cpu_count`` reports the bare-metal total; fall back to the
    latter on platforms without affinity support.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_sweep(quick: bool, workers: int) -> dict:
    """Fan the benchmark matrix across ``workers`` processes."""
    specs = sweep_matrix(quick=quick)
    cores = available_cores()
    requested = workers
    if workers > cores:
        # More workers than runnable cores just adds spawn cost and
        # time-slicing; the pool cannot go faster than the core count.
        workers = cores
        print(f"[sweep] WARNING: --workers {requested} exceeds the "
              f"{cores} available core(s); clamping to {workers}",
              flush=True)
    print(f"[sweep] {len(specs)} points across {workers} worker(s) "
          f"({cores} core(s) available)...", flush=True)
    t0 = time.perf_counter()
    if workers <= 1:
        points = [run_sweep_point(spec) for spec in specs]
    else:
        # spawn (not fork): each worker is a fresh interpreter that sees
        # the pinned PYTHONHASHSEED and no inherited simulator state.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=workers) as pool:
            points = pool.map(run_sweep_point, specs, chunksize=1)
    parallel_wall = time.perf_counter() - t0
    # Serial-equivalent cost: the sum of per-point CPU seconds.  Unlike
    # summing in-worker wall clocks (which time-slicing inflates by the
    # worker count), CPU time does not count the slices spent off-core,
    # so the ratio honestly reports ~1x on a single core and ~min(workers,
    # points) on a machine with that many free cores.
    serial_cpu = sum(p["cpu_s"] for p in points)
    speedup = serial_cpu / parallel_wall if parallel_wall else 0.0
    print(f"[sweep] pool wall {parallel_wall:.1f}s vs serial-equivalent "
          f"{serial_cpu:.1f}s CPU -> {speedup:.2f}x", flush=True)
    report = {
        "workers": workers,
        "workers_requested": requested,
        "cores_available": cores,
        "points": points,
        "parallel_wall_s": parallel_wall,
        "serial_cpu_s": serial_cpu,
        "speedup_vs_serial": speedup,
    }
    if speedup < 1.1:
        # A ~0.97x "speedup" reads like the pool made things worse; spell
        # out what it actually means so nobody chases a phantom
        # regression in the report.
        if cores == 1 or workers == 1:
            report["speedup_note"] = (
                "speedup_vs_serial ~1x is expected here: only one core is "
                "usable, so the pool serialises and the ratio is CPU time "
                "over wall time -- spawn/IPC overhead pushes it slightly "
                "below 1.0. It measures parallel efficiency, not a "
                "simulator regression.")
        else:
            report["speedup_note"] = (
                "speedup_vs_serial near 1x despite multiple workers: the "
                "cores are contended (co-tenant load or CPU quota), so "
                "per-point CPU time, not the pool layout, bounds the wall "
                "clock. Not a simulator regression.")
    return report


def compare_baseline(checks: dict, baseline_path: Path) -> dict:
    """Fast-lane events/sec of each lane check vs the checked-in report."""
    if not baseline_path.exists():
        return {"path": str(baseline_path), "found": False, "workloads": {}}
    baseline = json.loads(baseline_path.read_text())
    comparison = {}
    for name, result in checks.items():
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        now_eps = result["fast"]["events_per_sec"]
        base_eps = base["fast"]["events_per_sec"]
        comparison[name] = {
            "events_per_sec": now_eps,
            "baseline_events_per_sec": base_eps,
            "ratio": now_eps / base_eps if base_eps else 0.0,
        }
    return {"path": str(baseline_path), "found": True,
            "baseline_quick": baseline.get("quick"),
            "workloads": comparison}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small matrix, short windows (CI smoke)")
    parser.add_argument("--workers", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="worker processes for the sweep (default: cores)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="lane-check repeats (default: 3, quick: 1)")
    parser.add_argument("--output", type=Path, default=_REPO / "BENCH_2.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", type=Path,
                        default=_REPO / "BENCH_8.json",
                        help="bench_sim-style report to compare against")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on determinism failure or on "
                             "events/sec regression beyond --max-regression")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="tolerated fractional events/sec drop vs the "
                             "baseline (with --check; default 0.20)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    checks = run_lane_checks(args.quick, repeats)
    sweep = run_sweep(args.quick, args.workers)
    baseline = compare_baseline(checks, args.baseline)

    report = {
        "schema": 1,
        "harness": "tools/bench_suite.py",
        "python": sys.version.split()[0],
        "quick": args.quick,
        "lane_check": checks,
        "sweep": sweep,
        "baseline": baseline,
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    failures = []
    for name, result in checks.items():
        if not result["deterministic"]:
            failures.append(f"{name}: fast/slow determinism divergence")
    if args.check:
        floor = 1.0 - args.max_regression
        if (baseline.get("found")
                and bool(baseline.get("baseline_quick")) != bool(args.quick)):
            # Quick windows pay proportionally more warmup/startup per
            # measured event than the full-mode baseline's 4 ms windows,
            # so a cross-mode comparison needs double the margin before
            # it means anything; the ratio itself is still recorded.
            floor = 1.0 - 2 * args.max_regression
            baseline["cross_mode_floor"] = floor
        for name, cmp in baseline.get("workloads", {}).items():
            if cmp["ratio"] < floor:
                failures.append(
                    f"{name}: events/sec regressed to {cmp['ratio']:.2f}x "
                    f"of baseline (floor {floor:.2f}x)")
    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
