"""One runner for G groups: ``ShardedCluster`` and ``run_groups``.

* barriers: ``on_epoch`` fires once per barrier in both modes, and the
  barrier spacing never changes a lanes-mode group's consensus traffic
  (digest, events, switch counters);
* the elapsed axis: each fabric keeps its own origin;
* the worker contract: a one-group ``run_groups`` seeded for shard s is
  shard s of the G-group run, so one group per spawn worker reproduces
  the serial run (the pool itself is skipped on single-core runners --
  it would only serialize there; the contract is checked without it);
* G=1 is the plain harness: shard 0 of a one-group run is an unsharded
  cluster's closed loop of the same spec, bit for bit;
* ``tools/sweeps.py``'s group-scaling sweep runs end to end, and a bare
  run writes no report.
"""

import importlib.util
import multiprocessing
import os
import pathlib

import pytest

from repro import ShardedCluster
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest, run_groups)

MS = 1_000_000
#: Sub-millisecond closed loops: enough for fusion to engage per shard.
SPEC = dict(groups=2, warmup_ns=0.05 * MS, window_ns=0.2 * MS, epochs=4)
#: What must not depend on placement or barrier spacing.
SHARD_KEYS = ("trace_digest", "events_executed", "commits", "counter_totals")


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _per_shard(run, keys=SHARD_KEYS):
    return [{key: shard[key] for key in keys} for shard in run["shards"]]


def _one_group_specs():
    return [dict(SPEC, groups=1, seed=ShardedCluster.shard_seed(7, shard))
            for shard in range(SPEC["groups"])]


@pytest.fixture(scope="module")
def two_groups():
    return run_groups(SPEC)


class TestEpochBarriers:
    def test_on_epoch_fires_per_barrier(self):
        for mode in ("lanes", "tenant"):
            cluster = ShardedCluster(2, mode=mode, num_replicas=2, seed=3)
            seen = []

            def on_epoch(k, elapsed):
                seen.append((k, elapsed))

            assert cluster.run_for(100, epoch_ns=30, on_epoch=on_epoch) == 4
            assert seen == [(1, 30), (2, 60), (3, 90), (4, 100)], mode
            assert [cluster.elapsed_of(s) for s in range(2)] == [100, 100]
            # The default is one barrier, at the end of the window.
            seen.clear()
            assert cluster.run_for(50, on_epoch=on_epoch) == 1
            assert seen == [(1, 50)], mode

    def test_epoch_size_never_changes_behaviour(self, two_groups):
        # A bounded run of one simulator executes the same events however
        # it is sliced, and lanes share nothing: 1, 4 or 16 barriers give
        # every group the same consensus traffic.
        reference = _per_shard(two_groups)
        assert reference[0]["trace_digest"] != reference[1]["trace_digest"]
        for epochs in (1, 16):
            run = run_groups(dict(SPEC, epochs=epochs))
            assert _per_shard(run) == reference, f"epochs={epochs} diverged"


class TestElapsedAxis:
    def test_origins_are_per_fabric(self):
        cluster = ShardedCluster(2, mode="lanes", num_replicas=2, seed=3)
        cluster.fabrics[0].sim.run(until=500)  # lane 0 bootstrapped further
        fired = []
        cluster.rebase()
        for shard in range(2):
            cluster.schedule_at_elapsed(
                shard, 40, lambda s=shard: fired.append(
                    (s, cluster.fabrics[s].sim.now)))
        cluster.run_for(100)
        assert cluster.origins == [500, 0]
        assert sorted(fired) == [(0, 540), (1, 40)]
        # Clamped to the shard's clock: "now" never underflows.
        cluster.schedule_at_elapsed(1, 0, lambda: fired.append("now"))
        cluster.run_for(1)
        assert fired[-1] == "now"


class TestShardedConsensusDeterminism:
    def test_serial_lanes_reproduce_standalone_digests(self, two_groups):
        # The worker contract, without a pool: each one-group run seeded
        # for shard s is shard s of the two-group run.
        serial = _per_shard(two_groups)
        for shard, spec in enumerate(_one_group_specs()):
            alone = run_groups(spec)
            assert _per_shard(alone) == [serial[shard]]
            # The sharding target rides on fusion staying engaged per shard.
            assert alone["shards"][0]["flight"]["flights_fused"] > 0

    def test_one_group_is_the_unsharded_closed_loop(self):
        # Shard 0 keeps the base seed, so the sharded placement must be
        # invisible on the wire: a plain cluster with the same tap and
        # closed loop gives the same digest, events and commits.
        shard = run_groups(dict(SPEC, groups=1))["shards"][0]
        cluster = build_cluster("p4ce", 2, value_size=64, seed=7)
        tap = install_trace_digest(cluster)
        cluster.await_ready()
        driver = ClosedLoopDriver(cluster, 64, window=16)
        driver.start()
        cluster.run_for(SPEC["warmup_ns"])
        before = cluster.sim.events_executed
        cluster.run_for(SPEC["window_ns"])
        assert ((shard["trace_digest"], shard["events_executed"],
                 shard["commits"])
                == (tap.hexdigest(), cluster.sim.events_executed - before,
                    driver.commits))

    @pytest.mark.skipif(_cores() < 2,
                        reason="process-parallel run needs multiple cores")
    def test_parallel_workers_reproduce_serial_digests(self, two_groups):
        os.environ.setdefault("PYTHONHASHSEED", "0")
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=2) as pool:
            parallel = pool.map(run_groups, _one_group_specs())
        assert ([_per_shard(run)[0] for run in parallel]
                == _per_shard(two_groups))


@pytest.fixture(scope="module")
def sweeps():
    path = (pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "sweeps.py")
    spec = importlib.util.spec_from_file_location("sweeps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGroupScalingHarness:
    def test_sweeps_group_scaling_runs(self, sweeps):
        out = sweeps.run_group_scaling((1,), warmup_ns=0.05 * MS,
                                       window_ns=0.2 * MS, epochs=2)
        assert out["failures"] == []
        assert out["groups"]["1"]["shards_match"]

    def test_bare_run_writes_no_report(self, sweeps):
        # The BENCH_*.json files at the repository root are history: only
        # an explicit --output writes a report.
        assert sweeps.build_parser().parse_args([]).output is None
