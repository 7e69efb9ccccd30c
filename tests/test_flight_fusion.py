"""Flight fusion engage/disengage fidelity.

Every test runs the same seeded workload twice -- flight fusion on and
off (the other lanes stay on, so the comparison isolates fusion) -- and
asserts the *entire observable run* is identical: the packet-trace
digest over every frame accepted by every link (wire bytes + ICRC +
timestamp), the commit count, and the kernel's executed-event count.
The fused run must additionally prove it actually fused (and, for the
fault scenarios, defused and re-engaged) via the planner's counters.
"""

from __future__ import annotations

from repro import fastlane
from repro.faults.injector import FaultSchedule
from repro.sim.flight import _NUMRECV_SLOTS
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000


def _run(fusion_on, fault_fn=None, run_ns=0.6 * MS, replicas=2,
         value_size=64):
    """One seeded closed-loop run; returns every observable we compare."""
    fastlane.flags.set_all(True)
    fastlane.flags.flight_fusion = fusion_on
    try:
        cluster = build_cluster("p4ce", replicas, value_size=value_size,
                                seed=7)
        # The DigestTap, not a bare hash closure: a path over a link
        # with a foreign tap is declined (tests/test_fusion_decline.py).
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        driver = ClosedLoopDriver(cluster, value_size, window=16)
        driver.start()
        cluster.run_for(0.1 * MS)
        planner = cluster.flight_planner
        probe = {}
        if fault_fn is not None:
            fault_fn(cluster, leader, planner, probe)
        cluster.run_for(run_ns)
        driver.stop()
        return {
            "digest": digest.hexdigest(),
            "commits": driver.commits,
            "events": cluster.sim.events_executed,
            "flights_fused": planner.flights_fused,
            "defusions": planner.defusions,
            "runs_fused": planner.runs_fused,
            "hops_batched": planner.hops_batched,
            "batch_splits": planner.batch_splits,
            "fused_at_heal": probe.get("fused_at_heal"),
            "retransmissions": (leader.switch_rep.qp.retransmissions
                                if leader.switch_rep is not None
                                and leader.switch_rep.qp is not None else 0),
        }
    finally:
        fastlane.enable()


def _assert_identical(fused, plain):
    assert fused["digest"] == plain["digest"]
    assert fused["commits"] == plain["commits"]
    assert fused["events"] == plain["events"]


def _leader_link_fault(cluster, leader, planner, probe):
    """Cut the leader's primary cable pre-quorum; heal before lease loss.

    The lost scatter writes heal via the leader's RDMA-timeout go-back-N
    on the unchanged broadcast QP, so fusion can re-engage in-window
    (a replica-side cut would instead degrade the leader to direct mode
    behind a 40 ms switch-group rebuild).
    """
    schedule = FaultSchedule(cluster)
    schedule.at_ns(0.1 * MS).partition_host(leader.node_id, False)
    schedule.at_ns(0.25 * MS).heal_host(leader.node_id)
    schedule.arm()
    cluster.sim.schedule(
        0.25 * MS,
        lambda: probe.__setitem__("fused_at_heal", planner.flights_fused))


def _replica_crash_fault(cluster, leader, planner, probe):
    """Crash a follower mid-run (its cable dies with it)."""
    victim = next(h.node_id for h in cluster.hosts
                  if h.node_id != leader.node_id)
    schedule = FaultSchedule(cluster)
    schedule.at_ns(0.1 * MS).crash_host(victim)
    schedule.arm()


def test_clean_run_fuses_and_matches_unfused_digest():
    fused = _run(fusion_on=True)
    plain = _run(fusion_on=False)
    assert fused["flights_fused"] > 0
    assert fused["defusions"] == 0
    _assert_identical(fused, plain)
    # The unfused lane never touches the planner.
    assert plain["flights_fused"] == 0


def test_link_fault_defuses_then_reengages_after_retransmit():
    fused = _run(fusion_on=True, fault_fn=_leader_link_fault, run_ns=1 * MS)
    plain = _run(fusion_on=False, fault_fn=_leader_link_fault, run_ns=1 * MS)
    # The cut caught fused hops in flight and materialized them...
    assert fused["defusions"] >= 1
    # ...the gap healed through real go-back-N retransmission...
    assert fused["retransmissions"] > 0
    assert plain["retransmissions"] == fused["retransmissions"]
    # ...and fusion re-engaged afterwards instead of staying disabled.
    assert fused["fused_at_heal"] is not None
    assert fused["flights_fused"] > fused["fused_at_heal"]
    _assert_identical(fused, plain)


def test_replica_crash_defuses_and_matches_unfused_digest():
    fused = _run(fusion_on=True, fault_fn=_replica_crash_fault, run_ns=1 * MS)
    plain = _run(fusion_on=False, fault_fn=_replica_crash_fault, run_ns=1 * MS)
    # The broadcast path includes the dead replica's cable, so fusion
    # must stand down for the rest of the run (the armed device never
    # heals); consensus itself continues on the survivor's ACK.
    assert fused["defusions"] >= 1
    assert fused["flights_fused"] > 0
    _assert_identical(fused, plain)


def test_superfusion_batches_clean_window():
    """The drain collapses a clean run into multi-hop batches -- and its
    digest matches the unfused reference."""
    batched = _run(fusion_on=True)
    plain = _run(fusion_on=False)
    assert batched["runs_fused"] > 0
    # Batches actually batch: strictly more hops than runs.
    assert batched["hops_batched"] > batched["runs_fused"]
    _assert_identical(batched, plain)


def test_mid_window_fault_splits_batch_and_replays_tail():
    """A fault landing inside a fused window must split the batch at the
    boundary and re-materialize the un-executed tail as real events at
    their exact timestamps.

    The digest covers every frame's wire bytes *and* timestamp, so
    equality with the unfused lane proves the replayed tail ran at the
    same instants the slow path would have chosen; ``batch_splits``
    proves the split machinery (not a lucky empty queue) handled it.
    """
    batched = _run(fusion_on=True, fault_fn=_leader_link_fault, run_ns=1 * MS)
    plain = _run(fusion_on=False, fault_fn=_leader_link_fault, run_ns=1 * MS)
    assert batched["runs_fused"] > 0
    assert batched["batch_splits"] >= 1
    # Fusion (and with it, batching) re-engaged after the heal.
    assert batched["fused_at_heal"] is not None
    assert batched["flights_fused"] > batched["fused_at_heal"]
    _assert_identical(batched, plain)


def test_numrecv_wrap_inside_super_batches():
    """PSN slot reuse under the batched drain: >256 fused flights wrap
    the NumRecv register file while the drain is batching runs, with no
    splits and no divergence from the unfused lane."""
    batched = _run(fusion_on=True, run_ns=0.5 * MS)
    plain = _run(fusion_on=False, run_ns=0.5 * MS)
    assert batched["flights_fused"] > _NUMRECV_SLOTS
    assert batched["runs_fused"] > 0
    assert batched["batch_splits"] == 0
    _assert_identical(batched, plain)


def test_numrecv_slot_wrap_keeps_fusing():
    """PSN slot reuse in the gather registers is not an invalidation.

    NumRecv aggregates 256 PSNs per connection (section IV-C); beyond
    256 fused flights the express gather stage reuses slots exactly like
    the real RegisterActions do, so fusion neither disengages nor
    diverges when the PSN wraps past the register file.
    """
    fused = _run(fusion_on=True, run_ns=0.5 * MS)
    plain = _run(fusion_on=False, run_ns=0.5 * MS)
    assert fused["flights_fused"] > _NUMRECV_SLOTS
    assert fused["defusions"] == 0
    _assert_identical(fused, plain)
