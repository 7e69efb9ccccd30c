"""Flight fusion engage/disengage fidelity.

Every test runs the same seeded workload twice -- flight fusion on and
off (the other lanes stay on, so the comparison isolates fusion) -- and
asserts the *entire observable run* is identical: the packet-trace
digest over every frame accepted by every link (wire bytes + ICRC +
timestamp), the commit count, and the kernel's executed-event count.
The fused run must additionally prove it actually fused (and, for the
fault scenarios, defused and re-engaged) via the planner's counters.
Every run also samples the verdict caches' hit counters from every
member's ``on_apply`` -- inside the run, where SMR code reads them -- and
the two timelines must be equal: an express stage bumps them where and
when the real handler's cache lookup does.
"""

from __future__ import annotations

from repro import fastlane
from repro.faults.injector import FaultSchedule
from repro.sim.flight import _NUMRECV_SLOTS
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000
US = 1_000


def _run(fusion_on, fault_fn=None, run_ns=0.6 * MS, replicas=2,
         value_size=64, window=16, other_lanes=True, slices=1):
    """One seeded closed-loop run; returns every observable we compare.
    ``other_lanes=False`` makes the unfused run the all-lanes-off
    reference instead of fusion's own off-half; ``slices`` cuts the run
    into that many ``run_for`` calls, with ``probe["at_barrier"]`` (if
    the fault function set one) called after each."""
    fastlane.flags.set_all(other_lanes or fusion_on)
    fastlane.flags.flight_fusion = fusion_on
    try:
        cluster = build_cluster("p4ce", replicas, value_size=value_size,
                                seed=7)
        # The DigestTap, not a bare hash closure: a path over a link
        # with a foreign tap is declined (tests/test_fusion_decline.py).
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        program = cluster.switch.program
        caches = (program._flow_cache, program._egress_cache,
                  program._egress_templates)
        cache_hits = []

        def on_apply(member, epoch, payload):
            cache_hits.append((cluster.sim.now, *(c.hits for c in caches)))

        for member in cluster.members.values():
            member.on_apply = on_apply
        driver = ClosedLoopDriver(cluster, value_size, window=window)
        driver.start()
        cluster.run_for(0.1 * MS)
        planner = cluster.flight_planner
        probe = {}
        if fault_fn is not None:
            fault_fn(cluster, leader, planner, probe)
        for _ in range(slices):
            cluster.run_for(run_ns / slices)
            if "at_barrier" in probe:
                probe["at_barrier"]()
        driver.stop()
        return {
            "digest": digest.hexdigest(),
            "commits": driver.commits,
            "events": cluster.sim.events_executed,
            "cache_hits": cache_hits,
            "probe": probe,
            "flights_fused": planner.flights_fused,
            "defusions": planner.defusions,
            "runs_fused": planner.runs_fused,
            "hops_batched": planner.hops_batched,
            "batch_splits": planner.batch_splits,
            "fused_at_heal": probe.get("fused_at_heal"),
            "retransmissions": (leader.plane.qp.retransmissions
                                if leader.plane.qp is not None else 0),
        }
    finally:
        fastlane.enable()


def _assert_identical(fused, plain):
    assert fused["digest"] == plain["digest"]
    assert fused["commits"] == plain["commits"]
    assert fused["events"] == plain["events"]
    assert fused["cache_hits"] == plain["cache_hits"]


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


def _control_plane_register_writes(cluster, leader, planner, probe):
    """Write one replica's credit register, then a NumRecv slot, from the
    control plane while a 32-deep fused window is pending.  Every ACK the
    gather forwards from here on is recorded with its aggregated
    syndrome, and the group's NumRecv cells at every ``run_for`` barrier
    (not from the spy: before the staging layer went, registers were
    only current at kernel-run exit, and this test guards that change)."""
    sim = cluster.sim
    program = cluster.switch.program
    forwarded = probe["forwarded"] = []
    numrecv = probe["numrecv"] = []
    rewrite = program._rewrite_to_leader

    def spy(packet, bth, aeth, leader_psn, pre, new_syndrome):
        # Both the real gather and the express stage forward through here.
        forwarded.append((sim.now, leader_psn, new_syndrome))
        probe["pre"] = pre
        rewrite(packet, bth, aeth, leader_psn, pre, new_syndrome)

    def at_barrier():
        base = probe["pre"].numrecv_base
        numrecv.append(program.numrecv._cells[base:base + _NUMRECV_SLOTS])

    def write_credit():
        probe["at_credit_write"] = len(forwarded)
        # The cell of the replica that did *not* send the last forwarded
        # ACK, set lower than anything a replica advertises: the group
        # minimum until that replica's next ACK overwrites it.
        pre = probe["pre"]
        program.credits[1 - pre.credit_slot].cp_write(pre.group_index, 3)

    def write_numrecv():
        probe["at_numrecv_write"] = len(forwarded)
        # The slot of the PSN forwarded last: its surplus ACK is still on
        # its way, so a pending fused gather hop reads this cell next.
        pre = probe["pre"]
        program.numrecv.cp_write(
            pre.numrecv_base + forwarded[-1][1] % _NUMRECV_SLOTS, 7)

    program._rewrite_to_leader = spy
    probe["at_barrier"] = at_barrier
    sim.schedule(40 * US, write_credit)
    sim.schedule(80 * US, write_numrecv)


def test_mid_window_control_plane_register_writes_match_reference():
    """The flush barriers that guarded ``cp_write`` are gone, and were not
    load-bearing: a control-plane value written between fused hops wins
    over every older data-plane write and loses to every later one,
    exactly as with all lanes off."""
    kwargs = dict(fault_fn=_control_plane_register_writes, window=32,
                  other_lanes=False, slices=30)
    fused = _run(fusion_on=True, **kwargs)
    slow = _run(fusion_on=False, **kwargs)
    assert fused["defusions"] >= 1
    assert slow["flights_fused"] == 0
    # Fusion re-engaged between and after the writes.
    assert fused["flights_fused"] > fused["defusions"]
    for key in ("digest", "commits", "events"):
        assert fused[key] == slow[key], key
    f, s = fused["probe"], slow["probe"]
    assert f["at_credit_write"] == s["at_credit_write"]
    assert f["at_numrecv_write"] == s["at_numrecv_write"]
    assert f["at_credit_write"] < f["at_numrecv_write"] < len(f["forwarded"])
    # The written credit is what the next forwarded ACK carries...
    assert f["forwarded"][f["at_credit_write"]][2] == 3
    # ...the written NumRecv value is in the cells at the barriers after
    # it, until the PSN window wraps over that slot...
    assert any(7 in cells for cells in f["numrecv"])
    # ...and every syndrome and every later NumRecv cell agrees.
    assert f["forwarded"] == s["forwarded"]
    assert f["numrecv"] == s["numrecv"]


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


_PRE_EGRESS = {"_v_scatter_egress"}
_POST_EGRESS = {"_v_scatter_transmit", "_v_replica_arrive"}
_DELIVERED = {"_v_replica_rx", "_v_ack_emit", "_v_ack_arrive",
              "_v_gather_ingress"}


def _defuse_with_legs_at_every_stage(cluster, leader, planner, probe):
    """Re-seat the digest tap of one replica cable (a defusion trigger,
    and a no-op for the wire) at an instant when the pipelined window has
    scatter legs waiting for egress, legs already rewritten and on their
    way, and legs whose replica has answered."""
    sim = cluster.sim
    link = next(h.nic.port.link for h in cluster.hosts
                if h.node_id != leader.node_id)

    def defuse():
        fq = sim._flight_queue
        probe["stages"] = {getattr(entry[4], "__name__", None)
                           for entry in fq}
        link.tap = link.tap
        probe["pending_after"] = len(fq)
        # Frames and launches live in hop tuples only: with the hop queue
        # handed back to the kernel the planner is as it was before the
        # first flight, counters and resolved paths aside.
        probe["held"] = {
            name: {type(item).__name__ for item in (
                value.values() if isinstance(value, dict)
                else value if isinstance(value, (list, set)) else [value])}
            for name, value in vars(planner).items()}

    sim.schedule(30.15 * US, defuse)


def test_defusion_with_legs_at_every_stage_leaves_no_flight_state():
    """The planner keeps no per-flight state: a launch packet is read,
    never written, every leg that must become real is a copy of it, and
    a flight is nothing but its hops -- so one whose legs all die (a
    full replica RX queue) leaves nothing behind either."""
    kwargs = dict(fault_fn=_defuse_with_legs_at_every_stage, replicas=4,
                  other_lanes=False)
    fused = _run(fusion_on=True, **kwargs)
    slow = _run(fusion_on=False, **kwargs)
    probe = fused["probe"]
    assert probe["stages"] & _PRE_EGRESS
    assert probe["stages"] & _POST_EGRESS
    assert probe["stages"] & _DELIVERED
    assert fused["defusions"] == 1
    assert probe["pending_after"] == 0
    assert slow["probe"]["stages"] == set()
    for name, kinds in probe["held"].items():
        assert not kinds & {"_VFrame", "_VLaunch", "Packet"}, name
        assert kinds <= {"Simulator", "Tracer", "NoneType", "int",
                         "_FusedPath"}, name
    # Fusion re-engaged after the one defusion.
    assert fused["flights_fused"] > 1000
    for key in ("digest", "commits", "events"):
        assert fused[key] == slow[key], key
