#!/usr/bin/env python
"""What a commit leaves on the heap, and what growing it costs.

Builds a cluster (wire-digest tap installed, as the benchmark runs it),
starts a closed loop, warms up, and then runs two equal windows of
simulated time:

* **untraced** -- minor page faults (``ru_minflt``) and system / user CPU
  seconds for the window: heap that grows is memory the kernel has to map,
  and a fault costs microseconds;
* **traced** -- between two ``tracemalloc`` snapshots (cycle collector run
  and tap flushed before each, so only what is *retained* counts): bytes
  and objects still alive per commit, by allocation site.

Registered memory (the logs) is anonymous ``mmap`` and not on the Python
heap: ``tracemalloc`` does not see it, the fault count does.

The traced window also watches ``Cluster.applied_records``: how many
records it holds at the end and the widest *apply gap* -- entries the
first member has applied and the last has not -- which is all the table
has to span (``member.APPLIED_RECORDS_CAP`` is sized from it).

``--max-bytes-per-commit`` turns the traced total into a gate (exit 1
above the bound): CI holds the 4 KiB closed loop under 12 KiB per commit
so that a per-member copy of every payload cannot come back unnoticed.

    python tools/heap_growth.py --protocol p4ce --value-size 4096 --inflight 16 --ms 0.5
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.workloads.experiments import (  # noqa: E402
    MS, ClosedLoopDriver, build_cluster, install_trace_digest)

#: One value each in use; an option when a second caller needs another.
REPLICAS = 4
SEED = 7
WARMUP_MS = 0.2
TOP = 8  # allocation sites listed


def _settle(tap) -> None:
    """Drop what is only pending: buffered frames and cyclic garbage."""
    tap.flush()
    gc.collect()


def _short(frame) -> str:
    path = Path(frame.filename)
    try:
        path = path.relative_to(_REPO)
    except ValueError:
        pass
    return f"{path}:{frame.lineno}"


def _watch_apply_gap(cluster) -> list:
    """Track the widest spread of ``len(applied)`` across the members."""
    members = list(cluster.members.values())
    widest = [0]

    def on_apply(member, epoch, payload):
        counts = [len(m.applied) for m in members]
        widest[0] = max(widest[0], max(counts) - min(counts))

    for member in members:
        member.on_apply = on_apply
    return widest


def measure(protocol: str, value_size: int, inflight: int, ms: float) -> dict:
    cluster = build_cluster(protocol, REPLICAS, value_size=value_size,
                            seed=SEED)
    tap = install_trace_digest(cluster)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, value_size, window=inflight)
    driver.start()
    cluster.run_for(WARMUP_MS * MS)

    _settle(tap)
    start = driver.commits
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cluster.run_for(ms * MS)
    after = resource.getrusage(resource.RUSAGE_SELF)
    untraced = {
        "commits": driver.commits - start,
        "minor_faults": after.ru_minflt - usage.ru_minflt,
        "system_s": after.ru_stime - usage.ru_stime,
        "user_s": after.ru_utime - usage.ru_utime,
    }

    _settle(tap)
    widest_gap = _watch_apply_gap(cluster)
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    start = driver.commits
    cluster.run_for(ms * MS)
    _settle(tap)
    grown = tracemalloc.take_snapshot().compare_to(before, "lineno")
    tracemalloc.stop()
    driver.stop()
    commits = driver.commits - start
    if not commits:
        raise SystemExit("nothing committed in the window: lengthen --ms")

    # The first snapshot is itself heap that outlives the window.
    own = tracemalloc.__file__
    grown = [stat for stat in grown if stat.traceback[0].filename != own]
    sites = [{"site": _short(stat.traceback[0]),
              "bytes_per_commit": stat.size_diff / commits,
              "objects_per_commit": stat.count_diff / commits}
             for stat in grown[:TOP] if stat.size_diff > 0]
    return {
        "untraced": untraced,
        "commits": commits,
        "bytes_per_commit": sum(s.size_diff for s in grown) / commits,
        "objects_per_commit": sum(s.count_diff for s in grown) / commits,
        "sites": sites,
        "applied_records": len(cluster.applied_records),
        "widest_apply_gap": widest_gap[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", choices=("p4ce", "mu"), default="p4ce")
    parser.add_argument("--value-size", type=int, default=4096)
    parser.add_argument("--inflight", type=int, default=16)
    parser.add_argument("--ms", type=float, default=0.5,
                        help="simulated ms per window (default 0.5)")
    parser.add_argument("--max-bytes-per-commit", type=float, default=None,
                        help="exit 1 if a commit retains more than this")
    args = parser.parse_args(argv)

    result = measure(args.protocol, args.value_size, args.inflight, args.ms)
    untraced = result["untraced"]
    print(f"{args.protocol}, {args.value_size} B values, {args.inflight} in "
          f"flight, n={REPLICAS}, 2 x {args.ms:g} simulated ms")
    print(f"untraced window: {untraced['commits']} commits, "
          f"{untraced['minor_faults']} minor faults "
          f"({untraced['minor_faults'] / max(1, untraced['commits']):.2f} "
          f"per commit), system {untraced['system_s']:.3f} s, "
          f"user {untraced['user_s']:.3f} s")
    print(f"traced window:   {result['commits']} commits, retained per "
          f"commit: {result['bytes_per_commit']:.0f} B in "
          f"{result['objects_per_commit']:.2f} objects")
    for site in result["sites"]:
        print(f"  {site['bytes_per_commit']:9.1f} B  "
              f"{site['objects_per_commit']:6.2f} obj  {site['site']}")
    print(f"applied_records: {result['applied_records']} records, widest "
          f"apply gap {result['widest_apply_gap']} entries")
    bound = args.max_bytes_per_commit
    if bound is not None and result["bytes_per_commit"] > bound:
        print(f"FAIL: {result['bytes_per_commit']:.0f} B per commit is above "
              f"the bound of {bound:.0f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
