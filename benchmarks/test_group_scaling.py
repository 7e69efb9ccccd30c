"""Multi-group sharding: aggregate consensus rate vs group count.

One switch model per shard lane, G independent consensus groups over a
hash-partitioned keyspace, all driven by one ``ShardedCluster``.  The
shape claim: per-group rate is leader-CPU-bound and groups share nothing,
so the aggregate simulated commits/s scales ~linearly with G (the PR's
acceptance gate checks >= 2x at G=4 in the full bench run).

The table is keyed by G: a quick partial re-run (say G=1,2) rewrites just
those rows of the block and keeps the full sweep's G=4,8 rows.
"""

import pytest

from repro.workloads.experiments import run_groups

from conftest import print_table

MS = 1_000_000
GROUPS = (1, 2)


def run_all():
    results = {}
    for num_groups in GROUPS:
        results[num_groups] = run_groups(dict(
            groups=num_groups, warmup_ns=0.2 * MS, window_ns=0.5 * MS,
            epochs=4))
    return results


@pytest.mark.benchmark(group="sharding")
def test_group_scaling_aggregate_rate(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = sum(s["ops_per_sec"] for s in results[GROUPS[0]]["shards"])
    rows = []
    for num_groups, run in sorted(results.items()):
        aggregate = sum(s["ops_per_sec"] for s in run["shards"])
        fused = [s["flight"]["flights_fused"] for s in run["shards"]]
        rows.append((num_groups, f"{aggregate / 1e6:.2f} M/s",
                     f"{aggregate / base:.2f}x", min(fused)))
    print_table("Multi-group sharding: aggregate consensus/s vs G "
                "(64 B, 2 replicas/group)",
                ("G", "aggregate", "vs G=1", "min fused/shard"),
                rows, key="G")

    for num_groups, run in results.items():
        # Every group keeps its own fast lane engaged...
        assert all(s["flight"]["flights_fused"] > 0 for s in run["shards"]), \
            f"G={num_groups}: flight fusion disengaged on some shard"
        # ...and every shard actually commits.
        assert all(s["commits"] > 0 for s in run["shards"])
    # Disjoint groups scale the aggregate ~linearly (generous floor: the
    # gate run in tools/bench_sim.py enforces >= 2x at G=4).
    aggregate_2 = sum(s["ops_per_sec"] for s in results[2]["shards"])
    assert aggregate_2 >= 1.6 * base
