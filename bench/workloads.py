"""The four benchmark workloads and the load clients that drive them.

Everything here goes through the public ``repro`` API: ``build_cluster``,
``Cluster.propose`` / ``run_for`` / ``await_ready``, the fault injector
and the wire-digest tap.  The simulated window lengths are constants of
this file (``BENCHMARK.json`` has no room for them): they are sized on the
reference box for ``run_seconds`` of host time, scale linearly with
``--seconds`` and never depend on how fast the host happens to be, so the
simulated outputs of a (workload, seed, seconds) triple repeat bit for bit.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Callable, List, Optional

from repro import NotLeaderError, Role
from repro.faults import FaultInjector
from repro.workloads.metrics import percentile

MS = 1_000_000

#: ``run_seconds`` of BENCHMARK.json: the host time the longest nominal
#: window below takes on the reference box (7-12 s each).
NOMINAL_SECONDS = 11

#: Simulated warm-up before the window opens (load already running).
WARMUP_MS = 1.0
#: Simulated time after the window during which in-flight and backlogged
#: proposals may still commit before they count as failed.
DRAIN_MS = 0.5

#: The paper's 5-machine testbed: one leader plus four replicas.
REPLICAS = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str
    value_size: int
    #: "closed": ``inflight`` proposals outstanding, each commit issues the
    #: next.  "open": one proposal every 1/``rate_per_s`` of simulated time
    #: whatever the cluster does; latency counts from the due time.
    loop: str
    #: Simulated window at ``NOMINAL_SECONDS``.
    window_ms: float
    #: Headline figure of the paper this workload reproduces
    #: (EXPERIMENTS.md), the simulated metric compared with it, and how far
    #: the simulation may sit from it before the run counts as incorrect.
    paper_metric: str
    paper_value: float
    paper_source: str
    paper_tolerance_pct: float
    inflight: int = 0
    rate_per_s: float = 0.0
    #: Kill the leader, then crash and restart a follower (see
    #: :func:`fault_plan`).
    faults: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="p4ce_rate_64B",
        why="64 B closed loop, 128 in flight: ~100% fused flights, so "
            "sim.flight/sim.columnar and the terminal NIC/consensus hop do "
            "the work; a fusion-lane change must show here",
        protocol="p4ce", value_size=64, loop="closed", inflight=128,
        window_ms=16.0,
        paper_metric="sim_commits_per_s", paper_value=2.3e6,
        paper_source="2.3 M consensus/s, section V-C",
        paper_tolerance_pct=2.0),
    Workload(
        name="p4ce_goodput_4KiB",
        why="4 KiB = 4 packets per write, not fusable: every hop is a "
            "kernel event through link, switch, dataplane and NIC, and "
            "payload bytes dominate ICRC/packet/digest; fusion changes "
            "should read no change here",
        protocol="p4ce", value_size=4096, loop="closed", inflight=16,
        window_ms=5.0,
        # Unbatched, the leader CPU caps the run at 2.3 M writes/s =
        # 9.4 GB/s; Fig. 5b's 11 GB/s is the batched configuration.
        paper_metric="sim_goodput_gbytes_per_s", paper_value=11.0,
        paper_source="11 GB/s, Fig. 5b (batched)",
        paper_tolerance_pct=20.0),
    Workload(
        name="mu_rate_64B",
        why="Mu uses member/replication/NIC the other way: direct plane, "
            "n writes and n ACKs per commit, no fusion, switch on its L3 "
            "miss path; a P4CE-path gain that costs the direct path shows "
            "here",
        protocol="mu", value_size=64, loop="closed", inflight=128,
        window_ms=28.0,
        paper_metric="sim_commits_per_s", paper_value=0.59e6,
        paper_source="0.59 M consensus/s, Mu n=4, section V-C",
        paper_tolerance_pct=5.0),
    Workload(
        name="p4ce_failover_light",
        why="open loop 20 k/s through a leader kill and a follower rejoin: "
            "~95% heartbeat reads, the only run of election, rdma.cm, "
            "control plane and Member.restart(); idleness leaping must "
            "show here only",
        protocol="p4ce", value_size=64, loop="open", rate_per_s=20_000.0,
        window_ms=200.0, faults=True,
        paper_metric="sim_unavailable_ms", paper_value=40.9,
        paper_source="40.9 ms leader crash, Table IV",
        paper_tolerance_pct=10.0),
)}


def window_ms_for(spec: Workload, seconds: float) -> float:
    """Simulated window for ``--seconds``, rounded to whole microseconds."""
    return round(spec.window_ms * seconds / NOMINAL_SECONDS, 3)


# -- fault schedule -------------------------------------------------------------

#: Strike offsets sit 25 us past a multiple of the 50 us proposal period,
#: between two proposals, so no proposal is in flight at a dead leader.
_LEADER_KILL_MS = 5.025
_FOLLOWER_KILL_MS = 60.025
_FOLLOWER_RESTART_MS = 72.025
#: The follower leg needs room for the 40 ms group rebuild after restart.
_FOLLOWER_LEG_MIN_WINDOW_MS = 120.0


def fault_plan(window_ms: float) -> List[tuple]:
    """[(offset_ms, action)] for a window of this length.

    The full schedule -- leader app killed at +5 ms and left dead, the
    highest-id follower killed at +60 ms and restarted at +72 ms -- needs
    a window of at least 120 ms.  Shorter windows (smoke, the in-run
    parity check) keep the leader kill only, at +5 ms or 30% of the window,
    whichever comes first.
    """
    leader_at = min(_LEADER_KILL_MS, round(0.3 * window_ms, 3) + 0.025)
    plan = [(leader_at, "kill_leader")]
    if window_ms >= _FOLLOWER_LEG_MIN_WINDOW_MS:
        plan.append((_FOLLOWER_KILL_MS, "kill_follower"))
        plan.append((_FOLLOWER_RESTART_MS, "restart_follower"))
    return plan


class FaultDriver:
    """Arms :func:`fault_plan` through the journaling fault injector."""

    def __init__(self, cluster, window_ms: float):
        self.cluster = cluster
        self.injector = FaultInjector(cluster)
        self.plan = fault_plan(window_ms)
        self.victim: Optional[int] = None
        self.restart_at: Optional[float] = None
        self.rejoined_at: Optional[float] = None
        cluster.on_group_reconfigured = self._on_group_reconfigured

    def arm(self, t_open: float) -> None:
        sim = self.cluster.sim
        for offset_ms, action in self.plan:
            sim.schedule_at(t_open + offset_ms * MS, getattr(self, "_" + action))

    def _kill_leader(self) -> None:
        self.injector.kill_app(self.cluster.leader.node_id)

    def _kill_follower(self) -> None:
        leader = self.cluster.leader
        lead_id = None if leader is None else leader.node_id
        self.victim = max(
            node_id for node_id, member in self.cluster.members.items()
            if node_id != lead_id and member.role is not Role.STOPPED)
        self.injector.kill_app(self.victim)

    def _restart_follower(self) -> None:
        self.restart_at = self.cluster.sim.now
        self.injector.restart_app(self.victim)

    def _on_group_reconfigured(self, member) -> None:
        if self.restart_at is not None and self.rejoined_at is None:
            self.rejoined_at = self.cluster.sim.now

    @property
    def rejoin_ms(self) -> Optional[float]:
        """Follower restart -> the leader's group rebuild complete."""
        if self.restart_at is None or self.rejoined_at is None:
            return None
        return (self.rejoined_at - self.restart_at) / MS


# -- load clients ---------------------------------------------------------------


class LoadClient:
    """Issues seeded, distinct values and records every commit.

    Each proposal carries its own payload: an 8-byte proposal number over
    a block drawn from ``--seed``.  A commit callback checks it got the
    payload it proposed back, so a mixed-up or duplicated entry is a
    correctness failure, not a silent count.
    """

    def __init__(self, cluster, spec: Workload, seed: int):
        self.cluster = cluster
        self.sim = cluster.sim
        self.spec = spec
        self._tail = random.Random(seed).randbytes(spec.value_size)[8:]
        self.running = False
        self.due = 0                  # proposals due so far
        self.committed = 0            # ... and committed (any time)
        self.mismatched = 0           # commits whose payload was not ours
        self.refused = 0              # propose() raised NotLeaderError
        #: (commit time, latency, payload bytes) of every commit.
        self.commit_log: List[tuple] = []
        #: Open loop: due times not yet accepted by a leader.
        self._backlog: deque = deque()

    def _payload(self, number: int) -> bytes:
        return number.to_bytes(8, "big") + self._tail

    def start(self) -> None:
        self.running = True
        if self.spec.loop == "closed":
            for _ in range(self.spec.inflight):
                self._issue_closed()
        else:
            self._interval = 1e9 / self.spec.rate_per_s
            self._tick()

    def stop(self) -> None:
        self.running = False

    # closed loop

    def _issue_closed(self) -> None:
        if not self.running:
            return
        self.due += 1
        payload = self._payload(self.due)
        self.cluster.propose(payload, self._make_callback(payload, None))

    # open loop

    def _tick(self) -> None:
        if not self.running:
            return
        self.due += 1
        self._backlog.append((self.due, self.sim.now))
        self._drain_backlog()
        self.sim.schedule(self._interval, self._tick)

    def _drain_backlog(self) -> None:
        backlog = self._backlog
        while backlog:
            number, due_at = backlog[0]
            payload = self._payload(number)
            try:
                self.cluster.propose(payload,
                                     self._make_callback(payload, due_at))
            except NotLeaderError:
                # Nobody to take it: it stays due and is offered again on
                # the next tick, its latency still counted from due_at.
                self.refused += 1
                return
            backlog.popleft()

    def _make_callback(self, payload: bytes,
                       due_at: Optional[float]) -> Callable:
        def on_done(entry) -> None:
            if not entry.committed:
                return  # aborted by a step-down: stays uncommitted = failed
            self.committed += 1
            if entry.payload != payload:
                self.mismatched += 1
            now = self.sim.now
            latency = entry.latency_ns if due_at is None else now - due_at
            self.commit_log.append((now, latency, len(payload)))
            if due_at is None:
                self._issue_closed()
        return on_done


# -- simulated metrics ----------------------------------------------------------

#: The model's outputs and their units: exact functions of simulated time,
#: bit-equal across repeats of one (workload, seed, seconds) and compared
#: with bound 0.  One that does not apply to a run (no rejoin without the
#: follower leg, no p99 under 1,000 samples) is ``None`` and is left out,
#: never reported as 0.
MODEL_METRICS = {
    "sim_commits_per_s": "1/sim_s",
    "sim_goodput_gbytes_per_s": "GB/sim_s",
    "sim_commit_latency_p50_us": "sim_us",
    "sim_commit_latency_p99_us": "sim_us",
    "sim_unavailable_ms": "sim_ms",
    "sim_rejoin_ms": "sim_ms",
    "failed_ops_share": "ratio",
    "paper_error_pct": "%",
}


def simulated_metrics(spec: Workload, client: LoadClient, t_open: float,
                      t_close: float, rejoin_ms: Optional[float]) -> dict:
    """The model's outputs for one window (call after the drain); all
    exact functions of simulated times and counts, so they repeat bit for
    bit.  Proposals count from the start of the load, warm-up included."""
    window_s = (t_close - t_open) / 1e9
    in_window = [c for c in client.commit_log if t_open <= c[0] < t_close]
    latencies = sorted(c[1] for c in in_window)
    edges = [t_open] + [c[0] for c in in_window] + [t_close]
    longest_gap = max(b - a for a, b in zip(edges, edges[1:]))
    n = len(latencies)
    out = {
        "window_commits": n,
        "latency_samples": n,
        "sim_commits_per_s": n / window_s,
        "sim_goodput_gbytes_per_s": sum(c[2] for c in in_window) / window_s / 1e9,
        "sim_commit_latency_p50_us": (percentile(latencies, 50) / 1e3
                                      if n else None),
        # The highest percentile with at least ten samples beyond it.
        "sim_commit_latency_p99_us": (percentile(latencies, 99) / 1e3
                                      if n >= 1000 else None),
        "sim_unavailable_ms": longest_gap / MS,
        "sim_rejoin_ms": rejoin_ms,
        "proposals_due": client.due,
        "proposals_committed": client.committed,
        "failed_ops_share": (client.due - client.committed) / client.due,
    }
    simulated = out[spec.paper_metric]
    out["paper_error_pct"] = (abs(simulated - spec.paper_value)
                              / spec.paper_value * 100.0)
    return out
