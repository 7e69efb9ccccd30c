"""Ablation: leader-side batching (section V-D's "bursts of RDMA writes").

Batching is what lets a leader reach line rate on sub-MTU values
(Fig. 5): without it, each 512 B consensus costs a full (post, poll)
pair and the leader saturates its CPU at ~2.3 M writes/s = ~1.2 GB/s;
with it, queued values coalesce into up to 16 KiB writes and the link
becomes the bottleneck instead.
"""

import pytest

from repro.workloads.experiments import ClosedLoopDriver, build_cluster

from conftest import print_table

MS = 1_000_000
SIZE = 512


def run_mode(batching: bool) -> dict:
    cluster = build_cluster("p4ce", 2, value_size=SIZE, seed=7,
                            batching=batching)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, SIZE, window=256 if batching else 16)
    driver.start()
    cluster.run_for(1 * MS)
    driver.measuring = True
    driver.throughput.open(cluster.sim.now)
    cluster.run_for(3 * MS)
    driver.throughput.close(cluster.sim.now)
    driver.stop()
    qp = cluster.leader.plane.qp
    ops = max(1, driver.throughput.commits)
    return {
        "goodput_gbps": driver.throughput.goodput_gbytes_per_sec,
        "ops_per_sec": driver.throughput.ops_per_sec,
        "writes_posted": qp.requests_posted,
        "values_per_write": ops / max(1, qp.requests_posted),
    }


@pytest.mark.benchmark(group="ablation-batching")
def test_batching(benchmark):
    def run():
        return {"batched": run_mode(True), "unbatched": run_mode(False)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(mode, f"{r['goodput_gbps']:.2f} GB/s",
             f"{r['ops_per_sec'] / 1e6:.2f} M/s",
             f"{r['values_per_write']:.1f}")
            for mode, r in results.items()]
    print_table(f"Batching ablation: {SIZE} B values, 2 replicas, P4CE",
                ("mode", "goodput", "values/s", "values per write"), rows)

    batched, unbatched = results["batched"], results["unbatched"]
    # Unbatched: CPU-bound at one (post, poll) pair per value.
    assert unbatched["goodput_gbps"] < 1.6
    assert unbatched["values_per_write"] < 1.2
    # Batched: near line rate, many values per posted write.
    assert batched["goodput_gbps"] > 5 * unbatched["goodput_gbps"]
    assert batched["values_per_write"] > 5
