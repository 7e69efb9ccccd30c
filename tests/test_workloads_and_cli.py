"""Tests for the measurement utilities, experiment drivers and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.consensus import ClusterConfig, ShardedCluster
from repro.consensus.ranges import RangeKeyMap
from repro.workloads.chaos import ChaosLoadDriver
from repro.workloads.experiments import (
    ClosedLoopDriver, OpenLoopDriver, build_cluster)
from repro.workloads.fleet import ClientFleet, FleetConfig, ServingDriver
from repro.workloads import (
    LatencyRecorder,
    ThroughputWindow,
    measure_burst_latency,
    measure_failover,
    measure_goodput,
    measure_latency_at_load,
    percentile,
)

MS = 1_000_000


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_median_of_pair_interpolates(self):
        assert percentile([10.0, 20.0], 50) == 15.0

    def test_extremes(self):
        data = sorted(float(i) for i in range(101))
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 100.0
        assert percentile(data, 50) == 50.0

    def test_p99(self):
        data = sorted(float(i) for i in range(1, 101))
        assert 99.0 <= percentile(data, 99) <= 100.0


class TestLatencyRecorder:
    def test_summary(self):
        recorder = LatencyRecorder()
        for value in (1000.0, 2000.0, 3000.0):
            recorder.record(value)
        summary = recorder.summary()
        assert summary["count"] == 3
        assert summary["mean_us"] == pytest.approx(2.0)
        assert summary["p50_us"] == pytest.approx(2.0)
        assert summary["max_us"] == pytest.approx(3.0)

    def test_empty_summary(self):
        assert LatencyRecorder().summary()["count"] == 0


class TestThroughputWindow:
    def test_ops_and_goodput(self):
        window = ThroughputWindow()
        window.open(0.0)
        for _ in range(100):
            window.record(1024)
        window.close(1_000_000.0)  # 1 ms
        assert window.ops_per_sec == pytest.approx(100_000.0)
        assert window.goodput_gbytes_per_sec == pytest.approx(0.1024)

    def test_zero_duration_guard(self):
        window = ThroughputWindow()
        window.open(5.0)
        window.close(5.0)
        assert window.ops_per_sec == 0.0


class TestExperimentDrivers:
    def test_measure_goodput_returns_sane_point(self):
        point = measure_goodput("p4ce", 2, 64, warmup_ns=0.5 * MS,
                                window_ns=1 * MS)
        assert point["ops_per_sec"] > 1e6
        assert point["comm_mode"] == "switch"

    def test_measure_latency_unsaturated(self):
        point = measure_latency_at_load("p4ce", 2, 100e3,
                                        warmup_ns=0.5 * MS, window_ns=1 * MS,
                                        drain_ns=0.5 * MS)
        assert not point["saturated"]
        assert 0 < point["p50_us"] < 50

    def test_measure_latency_saturated_mu(self):
        point = measure_latency_at_load("mu", 4, 2e6, warmup_ns=0.5 * MS,
                                        window_ns=1 * MS, drain_ns=1 * MS)
        assert point["saturated"]

    def test_measure_burst(self):
        point = measure_burst_latency("mu", 2, 4, rounds=3)
        assert point["mean_burst_latency_us"] > 0
        assert point["per_op_latency_us"] == pytest.approx(
            point["mean_burst_latency_us"] / 4)

    def test_measure_failover_group_config_mu_is_zero(self):
        assert measure_failover("mu", 2, "group_config")["time_ms"] == 0.0

    def test_measure_failover_unknown_fault(self):
        with pytest.raises(ValueError):
            measure_failover("mu", 2, "meteor")


class TestLoadDriversSurfaceErrors:
    """The drivers ride out a leaderless moment (``NotLeaderError``) and
    nothing else: a value that can never fit the log is a programming
    error, and must stop the run instead of being retried forever."""

    @pytest.mark.parametrize("driver_cls, kwargs", [
        (ClosedLoopDriver, {"window": 4}),
        (OpenLoopDriver, {"rate_per_sec": 1e5}),
        (ChaosLoadDriver, {"window": 4}),
    ])
    def test_oversized_value_propagates(self, driver_cls, kwargs):
        cluster = build_cluster("p4ce", 2, log_bytes=4096)
        cluster.await_ready()
        driver = driver_cls(cluster, 8192, **kwargs)
        with pytest.raises(ValueError, match="entry larger than the log"):
            driver.start()
            cluster.run_for(1 * MS)

    def test_oversized_value_propagates_from_serving_driver(self):
        config = ClusterConfig(num_replicas=2, protocol="p4ce", seed=7,
                               log_bytes=4096, batching=False)
        cluster = ShardedCluster(1, config, mode="lanes",
                                 key_map=RangeKeyMap.uniform(1024, 1))
        cluster.await_ready()
        fleet = ClientFleet(FleetConfig(
            clients=100, offered_ops_per_sec=100_000.0, keyspace=1024,
            value_size=8192))
        driver = ServingDriver(cluster, fleet)
        with pytest.raises(ValueError, match="entry larger than the log"):
            driver.run(1 * MS, 0.5 * MS)

    def test_killed_leader_window_still_refills(self):
        cluster = build_cluster("p4ce", 2, seed=29)
        leader = cluster.await_ready()
        driver = ClosedLoopDriver(cluster, 32, window=4)
        driver.start()
        cluster.run_for(1 * MS)
        cluster.kill_app(leader.node_id)
        # Refills now raise NotLeaderError and retry every 100 us...
        assert cluster.sim.run_until(
            lambda: cluster.leader is not None
            and cluster.leader.node_id != leader.node_id,
            timeout=1_000 * MS)
        at_takeover = driver.commits
        cluster.run_for(3 * MS)
        # ...until the new leader takes them.
        assert driver.commits > at_takeover + driver.window


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["goodput", "--size", "256", "--replicas", "4"])
        assert args.size == 256 and args.replicas == 4

    def test_demo_runs(self, capsys):
        assert main(["demo", "--values", "3", "--replicas", "2",
                     "--protocol", "mu"]) == 0
        out = capsys.readouterr().out
        assert "committed              3 / 3" in out

    def test_rate_runs(self, capsys):
        assert main(["rate", "--protocol", "mu", "--window-ms", "1"]) == 0
        assert "consensus/s" in capsys.readouterr().out

    def test_failover_runs(self, capsys):
        assert main(["failover", "--fault", "leader", "--protocol", "mu"]) == 0
        assert "time_ms" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
