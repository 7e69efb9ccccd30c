"""Experiment drivers for every evaluation point of the paper.

Each function builds a fresh cluster from a :class:`ClusterConfig`, runs a
warm-up, measures over a window of *simulated* time, and returns plain
dictionaries -- the benchmarks print them as the paper's figures' series
and EXPERIMENTS.md records them.

Drivers:

* :func:`measure_goodput`      -- Fig. 5 (goodput vs value size) and the
  max-consensus-rate numbers of section V-C (closed loop, deep pipeline);
* :func:`measure_latency_at_load` -- Fig. 6 (latency vs offered rate,
  open loop);
* :func:`measure_burst_latency`   -- Fig. 7 (latency vs burst size);
* :func:`measure_failover`        -- Table IV (fail-over times).
"""

from __future__ import annotations

from typing import Dict, List

from .. import fastlane
from ..consensus import Cluster, ClusterConfig, NotLeaderError, ShardedCluster
from ..sim.columnar import DigestTap
from .metrics import LatencyRecorder, ThroughputWindow

MS = 1_000_000
US = 1_000


def install_trace_digest(cluster) -> "DigestTap":
    """Hash every frame accepted by every link (bytes + ICRC + time).

    Every cable in the star topology has one end at a switch, so walking
    switch ports finds them all.  The digest is the simulation's fidelity
    fingerprint: a single diverging byte or timestamp anywhere in the run
    changes it.  Lives here (not in the bench harness) because the
    sharded runner's worker processes must compute the identical digest
    from an importable, picklable entry point.

    Returns a :class:`repro.sim.columnar.DigestTap` rather than a bare
    hash object: besides real frames, the tap hashes flight fusion's
    virtual ones from their templates, so fused paths stay fused under
    the digest.  Callers use ``hexdigest()`` as on a ``hashlib`` digest.
    """
    tap = DigestTap(cluster.sim)
    switches = [cluster.switch]
    if cluster.backup_switch is not None:
        switches.append(cluster.backup_switch)
    for switch in switches:
        for port in switch.ports:
            if port.link is not None:
                port.link.tap = tap
    return tap


def build_cluster(protocol: str, num_replicas: int, *,
                  value_size: int = 64, seed: int = 7,
                  **overrides) -> Cluster:
    config = ClusterConfig(num_replicas=num_replicas, protocol=protocol,
                           seed=seed, value_size_hint=value_size, **overrides)
    return Cluster.build(config)


class ClosedLoopDriver:
    """Keeps ``window`` proposals in flight; each commit refills one."""

    def __init__(self, cluster: Cluster, value_size: int, window: int):
        self.cluster = cluster
        self.payload = bytes(value_size) if value_size else b""
        self.window = window
        self.running = False
        self.measuring = False
        self.commits = 0
        self.throughput = ThroughputWindow()
        self.latencies = LatencyRecorder()

    def start(self) -> None:
        self.running = True
        for _ in range(self.window):
            self._issue()

    def stop(self) -> None:
        self.running = False

    def _issue(self) -> None:
        if not self.running:
            return
        try:
            self.cluster.propose(self.payload, self._on_commit)
        except NotLeaderError:
            # Leaderless moment (e.g. during fail-over): retry shortly.
            sim = self.cluster.sim
            sim.schedule_at_fire(sim.now + 100 * US, self._issue)

    def _on_commit(self, entry) -> None:
        if entry.committed:
            self.commits += 1
            if self.measuring:
                self.throughput.record(len(entry.payload))
                self.latencies.record(entry.latency_ns)
        self._issue()


def measure_goodput(protocol: str, num_replicas: int, value_size: int, *,
                    warmup_ns: float = 2 * MS, window_ns: float = 10 * MS,
                    pipeline: int = 16, seed: int = 7) -> Dict[str, float]:
    """Closed-loop max throughput / goodput for one (protocol, n, size)."""
    cluster = build_cluster(protocol, num_replicas, value_size=value_size,
                            seed=seed)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, value_size, window=pipeline)
    driver.start()
    cluster.run_for(warmup_ns)
    driver.measuring = True
    driver.throughput.open(cluster.sim.now)
    cluster.run_for(window_ns)
    driver.throughput.close(cluster.sim.now)
    driver.measuring = False
    driver.stop()
    leader = cluster.leader
    return {
        "protocol": protocol,
        "replicas": num_replicas,
        "value_size": value_size,
        "ops_per_sec": driver.throughput.ops_per_sec,
        "goodput_gbps": driver.throughput.goodput_gbytes_per_sec,
        "mean_latency_us": driver.latencies.mean_ns / 1e3,
        "comm_mode": leader.comm_mode if leader else "?",
    }


class OpenLoopDriver:
    """Issues proposals at a fixed offered rate, regardless of commits."""

    def __init__(self, cluster: Cluster, value_size: int, rate_per_sec: float):
        self.cluster = cluster
        self.payload = bytes(value_size)
        self.interval_ns = 1e9 / rate_per_sec
        self.running = False
        #: Latency recording gate (stays open through the drain so that
        #: queued operations' tails are captured).
        self.measuring = False
        #: Throughput counting gate (open only during the fixed window,
        #: so drain-time commits cannot inflate the achieved rate).
        self.counting = False
        self.offered = 0
        self.throughput = ThroughputWindow()
        self.latencies = LatencyRecorder()

    def start(self) -> None:
        self.running = True
        self._tick()

    def stop(self) -> None:
        self.running = False

    def _tick(self) -> None:
        if not self.running:
            return
        self.offered += 1
        try:
            self.cluster.propose(self.payload, self._on_commit)
        except NotLeaderError:
            pass  # leaderless moment: an open loop does not retry
        sim = self.cluster.sim
        sim.schedule_at_fire(sim.now + self.interval_ns, self._tick)

    def _on_commit(self, entry) -> None:
        if not entry.committed:
            return
        if self.counting:
            self.throughput.record(len(entry.payload))
        if self.measuring:
            self.latencies.record(entry.latency_ns)


def measure_latency_at_load(protocol: str, num_replicas: int,
                            offered_rate: float, *, value_size: int = 64,
                            warmup_ns: float = 2 * MS, window_ns: float = 5 * MS,
                            drain_ns: float = 2 * MS,
                            seed: int = 7) -> Dict[str, float]:
    """One point of Fig. 6: open-loop latency at a given offered rate."""
    cluster = build_cluster(protocol, num_replicas, value_size=value_size,
                            seed=seed)
    cluster.await_ready()
    driver = OpenLoopDriver(cluster, value_size, offered_rate)
    driver.start()
    cluster.run_for(warmup_ns)
    driver.measuring = True
    driver.counting = True
    driver.throughput.open(cluster.sim.now)
    cluster.run_for(window_ns)
    driver.throughput.close(cluster.sim.now)
    driver.counting = False
    driver.stop()
    cluster.run_for(drain_ns)  # let queued commits land in the recorder
    driver.measuring = False
    summary = driver.latencies.summary()
    achieved = driver.throughput.ops_per_sec
    return {
        "protocol": protocol,
        "replicas": num_replicas,
        "offered_rate": offered_rate,
        "achieved_rate": achieved,
        "saturated": achieved < 0.9 * offered_rate,
        **summary,
    }


def measure_burst_latency(protocol: str, num_replicas: int, burst: int, *,
                          value_size: int = 64, rounds: int = 30,
                          gap_ns: float = 200 * US,
                          seed: int = 7) -> Dict[str, float]:
    """One point of Fig. 7: time to commit a burst of ``burst`` values."""
    cluster = build_cluster(protocol, num_replicas, value_size=value_size,
                            seed=seed)
    cluster.await_ready()
    payload = bytes(value_size)
    burst_times: List[float] = []
    # Warm-up round (connections, caches of the simulated stack).
    for round_index in range(rounds + 1):
        start = cluster.sim.now
        state = {"done": 0}

        def on_commit(entry, _state=state) -> None:
            if entry.committed:
                _state["done"] += 1

        for _ in range(burst):
            cluster.propose(payload, on_commit)
        finished = cluster.sim.run_until(lambda: state["done"] >= burst,
                                         timeout=1_000 * MS)
        if not finished:
            raise RuntimeError("burst did not complete")
        if round_index > 0:
            burst_times.append(cluster.sim.now - start)
        cluster.run_for(gap_ns)
    mean_ns = sum(burst_times) / len(burst_times)
    return {
        "protocol": protocol,
        "replicas": num_replicas,
        "burst": burst,
        "mean_burst_latency_us": mean_ns / 1e3,
        "per_op_latency_us": mean_ns / burst / 1e3,
    }


def measure_failover(protocol: str, num_replicas: int, fault: str, *,
                     seed: int = 11) -> Dict[str, float]:
    """One row/column of Table IV.

    ``fault`` is one of:

    * ``"group_config"`` -- time to configure a fresh communication group
      (P4CE only; Mu reports 0: it has no group to configure);
    * ``"replica"``      -- kill one replica's application; time until the
      leader has excluded it (Mu) / reconfigured the group (P4CE);
    * ``"leader"``       -- kill the leader; time until a new leader serves;
    * ``"switch"``       -- power off the switch; time until the leader
      commits again via the non-accelerated backup route.
    """
    cluster = build_cluster(protocol, num_replicas, seed=seed)
    leader = cluster.await_ready()
    # Steady light load so recovery is observable.
    driver = ClosedLoopDriver(cluster, 64, window=1)
    driver.start()
    cluster.run_for(2 * MS)

    if fault == "group_config":
        if protocol != "p4ce":
            return {"protocol": protocol, "fault": fault, "time_ms": 0.0}
        start = cluster.sim.now
        done = {"at": None}
        leader.plane.rebuild(lambda ok: done.update(at=cluster.sim.now))
        cluster.sim.run_until(lambda: done["at"] is not None, timeout=500 * MS)
        elapsed = (done["at"] or cluster.sim.now) - start

    elif fault == "replica":
        victim = max(cluster.members)  # highest id: a follower
        done = {"at": None}
        if protocol == "p4ce":
            cluster.on_group_reconfigured = \
                lambda member: done.update(at=cluster.sim.now)
        start = cluster.sim.now
        cluster.kill_app(victim)
        if protocol == "p4ce":
            cluster.sim.run_until(lambda: done["at"] is not None,
                                  timeout=500 * MS)
            elapsed = (done["at"] or cluster.sim.now) - start
        else:
            # Mu: the replica is excluded as soon as the leader's direct
            # plane stops posting to it.
            cluster.sim.run_until(
                lambda: victim not in cluster.members[leader.node_id].direct.paths,
                timeout=500 * MS)
            elapsed = cluster.sim.now - start

    elif fault == "leader":
        start = cluster.sim.now
        cluster.kill_app(leader.node_id)
        old_id = leader.node_id
        cluster.sim.run_until(
            lambda: cluster.leader is not None
            and cluster.leader.node_id != old_id, timeout=1_000 * MS)
        elapsed = cluster.sim.now - start

    elif fault == "switch":
        baseline = driver.commits
        start = cluster.sim.now
        cluster.crash_switch()
        # Recovered when commits flow again over the backup route.
        cluster.sim.run_until(lambda: driver.commits > baseline + 3,
                              timeout=1_000 * MS)
        elapsed = cluster.sim.now - start

    else:
        raise ValueError(f"unknown fault {fault!r}")

    driver.stop()
    return {"protocol": protocol, "fault": fault, "replicas": num_replicas,
            "time_ms": elapsed / 1e6}


# -- multi-group sharding ----------------------------------------------------


def run_groups(spec: dict) -> dict:
    """G closed-loop groups, one switch each -- also the spawn-pool worker.

    Builds ``ShardedCluster(spec["groups"], config, mode="lanes")`` with a
    wire-digest tap per shard, elects every group, starts one
    :class:`ClosedLoopDriver` per shard, runs the warm-up, then measures a
    ``window_ns`` window cut into ``epochs`` barriers.  Lanes share
    nothing, so a one-group spec seeded
    ``ShardedCluster.shard_seed(seed, s)`` reproduces shard ``s`` of the
    G-group run bit for bit: that is the parallel placement.  Keys
    (defaults in parentheses): ``groups``, ``protocol`` ("p4ce"),
    ``replicas`` (2), ``value_size`` (64), ``window`` (16), ``seed`` (7),
    ``overrides`` (extra :class:`ClusterConfig` fields, every shard),
    ``warmup_ns``, ``window_ns``, ``epochs`` (1), ``fast_lane`` (True).
    Returns plain data, per shard in shard order.
    """
    fastlane.flags.set_all(bool(spec.get("fast_lane", True)))
    try:
        value_size = spec.get("value_size", 64)
        config = ClusterConfig(num_replicas=spec.get("replicas", 2),
                               protocol=spec.get("protocol", "p4ce"),
                               seed=spec.get("seed", 7),
                               value_size_hint=value_size,
                               **spec.get("overrides", {}))
        cluster = ShardedCluster(spec["groups"], config, mode="lanes")
        taps = [install_trace_digest(shard) for shard in cluster.shards]
        cluster.await_ready()
        drivers = [ClosedLoopDriver(shard, value_size,
                                    window=spec.get("window", 16))
                   for shard in cluster.shards]
        for driver in drivers:
            driver.start()
        cluster.run_for(spec["warmup_ns"])
        events_before = [shard.sim.events_executed for shard in cluster.shards]
        for driver in drivers:
            driver.measuring = True
            driver.throughput.open(driver.cluster.sim.now)
        window_ns = spec["window_ns"]
        cluster.run_for(window_ns, epoch_ns=window_ns / spec.get("epochs", 1))
        shards = []
        for shard, driver, tap, before in zip(cluster.shards, drivers, taps,
                                              events_before):
            driver.throughput.close(shard.sim.now)
            driver.measuring = False
            driver.stop()
            shards.append({
                "trace_digest": tap.hexdigest(),
                "events_executed": shard.sim.events_executed - before,
                "commits": driver.commits,
                "ops_per_sec": driver.throughput.ops_per_sec,
                "counter_totals": shard.switch.counter_totals(),
                "flight": shard.flight_planner.stats(),
            })
        return {"shards": shards}
    finally:
        fastlane.enable()
