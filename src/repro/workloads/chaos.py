"""Chaos matrix: scenario x G cells with digest parity and seed-replay.

Each *cell* runs one composed :mod:`repro.faults.scenarios` scenario
against a tenant-mode :class:`~repro.consensus.cluster.ShardedCluster`
(all G groups co-resident on one simulated Tofino) under closed-loop
load, twice -- fast lanes on, then everything off -- and demands the two
SHA-256 wire digests be bit-identical.  Chaos is the adversarial case
for the fast-lane machinery: every strike lands mid-flight and must
defuse fused work back onto the exact slow-path schedule.

Cells flagged ``replay_check`` run a third time: a fresh cluster from
the same seed, no scenario objects at all, just the first run's recorded
action journal re-armed via :meth:`ChaosController.replay`.  Digest
equality there proves the journal + seed fully determine the run.

Telemetry per cell: per-shard commit counts and the maximum inter-commit
gap inside the measured window, plus -- for rejoin-family cells -- the
time from the victim's restart to the leader's completed group rebuild,
gated against a bound derived from the paper's 40 ms reconfiguration
delay (see :data:`repro.faults.scenarios.REJOIN_RECOVERY_BOUND_NS`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .. import fastlane, params
from ..consensus import ClusterConfig, ShardedCluster
from ..faults import (
    REJOIN_RECOVERY_BOUND_NS,
    ChaosController,
    ControlPlaneRestart,
    CorrelatedCrash,
    CreditStarve,
    LeaderChurn,
    LossyLink,
    PartitionHeal,
    ReplicaCrashRejoin,
    Scenario,
)
from .experiments import ClosedLoopDriver, install_trace_digest

MS = 1_000_000


class ChaosLoadDriver(ClosedLoopDriver):
    """Closed-loop load that survives losing its window to a dead leader.

    The plain closed loop keeps ``window`` proposals in flight and
    refills on commit -- but a killed leader takes its in-flight
    callbacks to the grave, permanently shrinking the window.  A 1 ms
    watchdog re-primes one slot whenever a tick passes with no commit,
    so load always resumes after a strike (deterministically: the
    watchdog is an ordinary simulated timer).

    Also records the commit-gap telemetry: the longest stretch of the
    measured window without a single commit, the per-cell availability
    number the chaos matrix gates on.
    """

    WATCHDOG_PERIOD_NS = 1 * MS

    def __init__(self, cluster, value_size: int, window: int):
        super().__init__(cluster, value_size, window)
        self._commits_at_tick = -1
        self.max_gap_ns = 0.0
        self._gap_open = 0.0

    def start(self) -> None:
        super().start()
        self._watchdog()

    @property
    def window_commits(self) -> int:
        return self.throughput.commits

    def open_window(self) -> None:
        self.measuring = True
        self.throughput.open(self.cluster.sim.now)
        self.max_gap_ns = 0.0
        self._gap_open = self.cluster.sim.now

    def close_window(self) -> None:
        # The tail gap (last commit to window close) counts: a cell that
        # never recovers must not report a rosy mid-window maximum.
        self.max_gap_ns = max(self.max_gap_ns,
                              self.cluster.sim.now - self._gap_open)
        self.measuring = False

    def _on_commit(self, entry) -> None:
        # Gaps, not the base class's latency samples: a cell commits
        # 10^5 times and reports no latency distribution.
        if entry.committed:
            self.commits += 1
            if self.measuring:
                self.throughput.record(len(entry.payload))
                now = self.cluster.sim.now
                self.max_gap_ns = max(self.max_gap_ns, now - self._gap_open)
                self._gap_open = now
        self._issue()

    def _watchdog(self) -> None:
        if not self.running:
            return
        if self.commits == self._commits_at_tick:
            self._issue()
        self._commits_at_tick = self.commits
        sim = self.cluster.sim
        sim.schedule_at_fire(sim.now + self.WATCHDOG_PERIOD_NS, self._watchdog)


def build_scenario(key: str) -> Scenario:
    """Scenario registry, keyed by the cell spec's ``scenario`` string.

    A fresh object per call: scenarios carry per-run strike parameters
    and must not leak state between the fast, slow and replay runs of a
    cell.
    """
    if key == "leader_churn":
        return LeaderChurn(rounds=2, down_ms=8.0, period_ms=50.0)
    if key == "replica_rejoin":
        return ReplicaCrashRejoin(down_ms=12.0, hard=False)
    if key == "replica_rejoin_hard":
        return ReplicaCrashRejoin(down_ms=12.0, hard=True)
    if key == "lossy_r02":
        return LossyLink(node=1, rate=0.02, duration_ms=25.0)
    if key == "lossy_r10":
        return LossyLink(node=1, rate=0.10, duration_ms=25.0)
    if key == "partition_heal":
        return PartitionHeal(node=1, duration_ms=12.0)
    if key == "credit_starve":
        return CreditStarve(node=1, duration_ms=15.0)
    if key == "cp_restart_midjoin":
        # The control plane dies ~4 ms into the rebuild the rejoin
        # triggers (strike + 12 ms down + ~0.5 ms detection): the
        # leader's setup CM times out (2 x 40 ms), falls back to the
        # direct plane, and the retry timer re-provisions.
        return (ReplicaCrashRejoin(down_ms=12.0, hard=False)
                | ControlPlaneRestart(at_offset_ms=16.0))
    if key == "seq_mix":
        return (PartitionHeal(node=1, duration_ms=8.0)
                >> LossyLink(node=1, rate=0.05, duration_ms=8.0))
    if key == "correlated_crash":
        return CorrelatedCrash(down_ms=12.0, hard=False)
    raise KeyError(f"unknown chaos scenario {key!r}")


#: Measured-window length per scenario: strike pattern + recovery bound
#: + settle margin (the rejoin family must contain the full 120 ms
#: bound; the cp-restart overlay adds the 80 ms CM timeout and a 10 ms
#: retry period on top).
_WINDOW_NS = {
    "leader_churn": 135 * MS,
    "replica_rejoin": 145 * MS,
    "replica_rejoin_hard": 145 * MS,
    "lossy_r02": 35 * MS,
    "lossy_r10": 100 * MS,
    # Heal-side recovery is slow by design: up to 5 ms reconnect backoff,
    # a 14 ms connection setup, catch-up, then the 40 ms group rebuild --
    # the window must contain all of it for the caught-up gate to hold.
    "partition_heal": 90 * MS,
    "credit_starve": 25 * MS,
    "cp_restart_midjoin": 240 * MS,
    "seq_mix": 95 * MS,
    "correlated_crash": 145 * MS,
}

#: Cells measuring restart -> group-rebuild recovery, with their bounds.
_RECOVERY_BOUND_NS = {
    "replica_rejoin": REJOIN_RECOVERY_BOUND_NS,
    "replica_rejoin_hard": REJOIN_RECOVERY_BOUND_NS,
    "correlated_crash": REJOIN_RECOVERY_BOUND_NS,
    # + CM timeout (2 x 40 ms) + the 10 ms retry period for the rebuild
    # the control-plane restart discards.
    "cp_restart_midjoin": (REJOIN_RECOVERY_BOUND_NS
                           + 2 * params.SWITCH_RECONFIG_NS
                           + params.SWITCH_RETRY_PERIOD_NS),
}


def chaos_cell_specs(quick: bool = False) -> List[dict]:
    """The scenario x G matrix (>= 12 cells even in quick mode)."""
    g1 = ["leader_churn", "replica_rejoin", "replica_rejoin_hard",
          "lossy_r02", "lossy_r10", "partition_heal", "credit_starve",
          "cp_restart_midjoin", "seq_mix"]
    g2 = ["replica_rejoin", "leader_churn", "lossy_r02", "credit_starve",
          "cp_restart_midjoin", "correlated_crash"]
    if quick:
        g1 = [k for k in g1 if k not in ("lossy_r10", "cp_restart_midjoin")]
        g2 = [k for k in g2 if k != "cp_restart_midjoin"]
    specs = []
    for num_groups, keys in ((1, g1), (2, g2)):
        for key in keys:
            specs.append({
                "cell": f"{key}/G{num_groups}",
                "scenario": key,
                "num_groups": num_groups,
                "protocol": "p4ce",
                "replicas": 2,
                "value_size": 64,
                "window": 4,
                "seed": 1009 + 17 * num_groups,
                "warmup_ns": 2 * MS,
                "chaos_ns": _WINDOW_NS[key],
                "settle_ns": 4 * MS,
                "recovery_bound_ns": _RECOVERY_BOUND_NS.get(key),
                # One replay-audited cell per G keeps the sweep's cost
                # linear while still proving journal-replay fidelity on
                # both a single group and co-resident groups.
                "replay_check": key == "replica_rejoin",
            })
    return specs


def _run_chaos_lane(spec: dict, fast: bool,
                    replay_journal: Optional[List[dict]] = None) -> dict:
    """One lane of one cell: build, load, strike (or replay), measure."""
    fastlane.flags.set_all(fast)
    t0 = time.perf_counter()
    config = ClusterConfig(num_replicas=spec["replicas"],
                           protocol=spec["protocol"],
                           seed=spec["seed"],
                           value_size_hint=spec["value_size"])
    sc = ShardedCluster(spec["num_groups"], config, mode="tenant")
    digest = install_trace_digest(sc.shards[0])
    reconfig_times: List[List[float]] = [[] for _ in sc.shards]
    for shard_index, shard in enumerate(sc.shards):
        shard.on_group_reconfigured = (
            lambda member, i=shard_index:
            reconfig_times[i].append(sc.shards[i].sim.now))
    sc.await_ready()
    drivers = [ChaosLoadDriver(shard, spec["value_size"], spec["window"])
               for shard in sc.shards]
    for driver in drivers:
        driver.start()
    sc.run_for(spec["warmup_ns"])
    controller = ChaosController(sc.shards)
    start_ns = sc.shards[0].sim.now
    if replay_journal is not None:
        controller.replay(replay_journal)
        scenario_desc = {"scenario": "replay",
                         "actions": len([r for r in replay_journal
                                         if r.get("action")])}
    else:
        scenario = build_scenario(spec["scenario"])
        controller.arm(scenario, at_ns=start_ns + 1 * MS)
        scenario_desc = scenario.describe()
    for driver in drivers:
        driver.open_window()
    sc.run_for(spec["chaos_ns"])
    for driver in drivers:
        driver.close_window()
        driver.stop()
    sc.run_for(spec["settle_ns"])  # drain in-flight commits and catch-up

    shards_out = []
    for shard_index, shard in enumerate(sc.shards):
        leader = shard.leader
        caught_up = (leader is not None and all(
            m.log.next_offset >= leader.commit_offset
            for m in shard.members.values() if not m._stopped))
        restarts = [r.time_ns for r in controller.injectors[shard_index].journal
                    if r.kind in ("restart_app", "revive_host")]
        recovery_ns = None
        if restarts:
            t_restart = restarts[0]
            after = [t for t in reconfig_times[shard_index] if t >= t_restart]
            recovery_ns = (after[0] - t_restart) if after else None
        shards_out.append({
            "shard": shard_index,
            "window_commits": drivers[shard_index].window_commits,
            "total_commits": drivers[shard_index].commits,
            "max_commit_gap_ms": drivers[shard_index].max_gap_ns / MS,
            "caught_up": caught_up,
            "restarts": len(restarts),
            "group_reconfigs": len(reconfig_times[shard_index]),
            "recovery_ms": (recovery_ns / MS
                            if recovery_ns is not None else None),
        })
    return {
        "fast_lane": fast,
        "scenario": scenario_desc,
        "trace_digest": digest.hexdigest(),
        "journal": controller.journal_dicts(),
        "journal_actions": controller.journal_json(actions_only=True),
        "shards": shards_out,
        "events_executed": sum(s.sim.events_executed
                               for s in {id(x.sim): x for x in sc.shards}
                               .values()),
        "wall_clock_s": time.perf_counter() - t0,
    }


def run_chaos_cell(spec: dict) -> dict:
    """One matrix cell end to end -- the spawn-pool worker entry point.

    Fast lanes vs slow path, digest compared; optionally a third
    journal-replay run audited against the fast digest.  Returns plain
    picklable data.
    """
    try:
        fast = _run_chaos_lane(spec, fast=True)
        slow = _run_chaos_lane(spec, fast=False)
        digest_match = fast["trace_digest"] == slow["trace_digest"]
        journal_match = fast["journal_actions"] == slow["journal_actions"]
        replay = None
        replay_match = None
        if spec.get("replay_check"):
            actions = [r for r in fast["journal"] if r.get("action")]
            replay = _run_chaos_lane(spec, fast=True,
                                     replay_journal=actions)
            replay_match = replay["trace_digest"] == fast["trace_digest"]
        bound_ns = spec.get("recovery_bound_ns")
        recovery_ok = True
        if bound_ns is not None:
            for shard in fast["shards"]:
                if shard["restarts"] == 0:
                    continue
                recovery_ok = (recovery_ok
                               and shard["recovery_ms"] is not None
                               and shard["recovery_ms"] * MS <= bound_ns)
        progress_ok = all(s["window_commits"] > 0 and s["caught_up"]
                          for s in fast["shards"])
        result = {
            "cell": spec["cell"],
            "scenario": spec["scenario"],
            "num_groups": spec["num_groups"],
            "seed": spec["seed"],
            "deterministic": digest_match and journal_match,
            "digest_match": digest_match,
            "journal_match": journal_match,
            "replay_match": replay_match,
            "recovery_bound_ms": (bound_ns / MS
                                  if bound_ns is not None else None),
            "recovery_ok": recovery_ok,
            "progress_ok": progress_ok,
            "fast": fast,
            "slow": {k: v for k, v in slow.items() if k != "journal"},
            "wall_clock_s": (fast["wall_clock_s"] + slow["wall_clock_s"]
                             + (replay["wall_clock_s"] if replay else 0.0)),
        }
        return result
    finally:
        fastlane.enable()
