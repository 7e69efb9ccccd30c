"""Flight fusion engage/disengage fidelity.

Every test runs the same seeded workload twice -- flight fusion on and
off (the other lanes stay on, so the comparison isolates fusion) -- and
asserts the *entire observable run* is identical: the packet-trace
digest over every frame accepted by every link (wire bytes + ICRC +
timestamp), the commit count, and the kernel's executed-event and
handed-out seq counts (some tests add the all-lanes-off reference as a
third run).  The fused run must additionally prove it actually fused
(and, for the fault scenarios, defused and re-engaged) via the planner's
counters.
Every run also samples the verdict caches' hit counters from every
member's ``on_apply`` -- inside the run, where SMR code reads them -- and
the two timelines must be equal: an express stage bumps them where and
when the real handler's cache lookup does.
"""

from __future__ import annotations

import functools
import importlib
import sys

import pytest

from repro import fastlane, params
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.net.packet import Packet
from repro.rdma.opcodes import Opcode
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
        # Defusions count from here: set-up's connection and control-plane
        # writes land while heartbeat READs are in flight.
        ready_defusions = cluster.flight_planner.defusions
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
        warm_fallbacks = planner.express_fallbacks
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
            # Kernel seqs handed out: a hop draws the one its real event
            # would have, or ties against real events break differently.
            "seqs": cluster.sim._seq,
            "cache_hits": cache_hits,
            "probe": probe,
            "flights_fused": planner.flights_fused,
            "fallbacks_after_warmup": (planner.express_fallbacks
                                       - warm_fallbacks),
            "defusions": planner.defusions - ready_defusions,
            "reads_fused": planner.reads_fused,
            "hops_replayed": planner.hops_replayed,
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
    assert fused["seqs"] == plain["seqs"]
    assert fused["cache_hits"] == plain["cache_hits"]


def _packets_per_write(value_size):
    """PMTU segments of one replicated log entry (header + value)."""
    length = params.LOG_ENTRY_HEADER_BYTES + value_size
    return -(-length // params.ROCE_PMTU)


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
    for key in ("digest", "commits", "events", "seqs"):
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


def _kernel_steps(fusion_on):
    """Drive a warmed-up seeded closed loop through the kernel's three
    stepping calls and record where each one stops."""
    fastlane.flags.set_all(True)
    fastlane.flags.flight_fusion = fusion_on
    try:
        cluster = build_cluster("p4ce", 2, value_size=64, seed=7)
        install_trace_digest(cluster)
        leader = cluster.await_ready()
        replica_nic = next(h.nic for h in cluster.hosts
                           if h.node_id != leader.node_id)
        driver = ClosedLoopDriver(cluster, 64, window=16)
        driver.start()
        cluster.run_for(0.1 * MS)
        sim = cluster.sim
        out = {}
        events = sim.events_executed
        assert sim.step()
        out["step"] = sim.events_executed - events
        events = sim.events_executed
        sim.run(max_events=50)
        out["run"] = sim.events_executed - events
        n0 = replica_nic.packets_received
        out["reached"] = sim.run_until(
            lambda: replica_nic.packets_received >= n0 + 100, 1 * MS)
        out["now"] = sim.now
        out["events"] = sim.events_executed
        out["hops_replayed"] = cluster.flight_planner.hops_replayed
        driver.stop()
        return out
    finally:
        fastlane.enable()


def test_a_hop_is_one_kernel_step():
    """An express hop is a kernel event: ``step()`` runs one, a bounded
    ``run`` counts each, and ``run_until`` checks its predicate after
    each -- so all three stop exactly where they stop unfused."""
    fused = _kernel_steps(fusion_on=True)
    plain = _kernel_steps(fusion_on=False)
    assert fused["hops_replayed"] > 0
    assert plain["hops_replayed"] == 0
    assert fused["step"] == plain["step"] == 1
    assert fused["run"] == plain["run"] == 50
    assert fused["reached"] and plain["reached"]
    assert fused["now"] == plain["now"]
    assert fused["events"] == plain["events"]


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
    # The broadcast path includes the dead replica's NIC, so every
    # re-validation of it fails and fusion stands down for the rest of
    # the run; consensus itself continues on the survivor's ACK.
    assert fused["defusions"] >= 1
    assert fused["flights_fused"] > 0
    _assert_identical(fused, plain)


def _off_path_fault(strike):
    """After warm-up, impair a replica somewhere no fused hop runs."""
    def fault_fn(cluster, leader, planner, probe):
        replica = next(h.node_id for h in cluster.hosts
                       if h.node_id != leader.node_id)
        probe["fused_at_fault"] = planner.flights_fused
        strike(FaultInjector(cluster), replica)
    return fault_fn


@pytest.mark.parametrize("strike", [
    lambda injector, replica: injector.set_loss(replica, 0.5, backup=True),
    lambda injector, replica: injector.set_nic_rx_gap(
        replica, 1.5 * params.NIC_PACKET_GAP_NS),
], ids=["lossy_backup_cable", "slow_nic_rx"])
def test_off_path_fault_keeps_fusing(strike):
    """A fault invalidates only what it touches: a lossy backup cable is
    on no fused path, and a slower replica RX pipeline is read live by
    the express RX stage, so fusion carries on through either."""
    fault_fn = _off_path_fault(strike)
    fused = _run(fusion_on=True, fault_fn=fault_fn)
    plain = _run(fusion_on=False, fault_fn=fault_fn)
    assert fused["probe"]["fused_at_fault"] > 0
    assert fused["flights_fused"] > fused["probe"]["fused_at_fault"]
    _assert_identical(fused, plain)


def _tap_from_replica_apply(cluster, leader, planner, probe):
    """Install a foreign tap on a replica's cable from that replica's
    ``on_apply``.  In a fused flight it runs inside the replica-RX
    stage, after the write completes and before the stage pushes the
    ACK hop: the install invalidates mid-stage, so that push must become
    a real event (a virtual ACK would reach the tap as a bare call)."""
    replica = next(h for h in cluster.hosts if h.node_id != leader.node_id)
    member = cluster.members[replica.node_id]
    link = replica.nic.port.link
    frames = probe["frames"] = []
    inner_apply = member.on_apply

    def on_apply(m, epoch, payload):
        inner_apply(m, epoch, payload)
        if "in_stage" in probe:
            return
        frame = sys._getframe()
        stages = set()
        while frame is not None:
            stages.add(frame.f_code.co_name)
            frame = frame.f_back
        probe["in_stage"] = "_v_replica_write" in stages
        inner_tap = link.tap

        def tap(src, packet):
            frames.append(type(packet))
            inner_tap(src, packet)

        link.tap = tap

    member.on_apply = on_apply


def test_invalidation_inside_a_stage_makes_its_successor_real():
    fused = _run(fusion_on=True, fault_fn=_tap_from_replica_apply)
    plain = _run(fusion_on=False, fault_fn=_tap_from_replica_apply)
    assert fused["probe"]["in_stage"]
    assert not plain["probe"]["in_stage"]
    assert fused["defusions"] >= 1
    frames = fused["probe"]["frames"]
    assert frames and set(frames) == {Packet}
    assert len(frames) == len(plain["probe"]["frames"])
    _assert_identical(fused, plain)


def _write_qps(leader):
    """Ids of the leader's write QPs: the broadcast QP and the direct
    QPs it falls back to."""
    return ({id(leader.plane.qp)}
            | {id(path.qp) for path in leader.direct.paths.values()})


def _lossy_replica_cable(fusion_on):
    """4 replicas, 64 B closed loop: a 0.1 % lossy replica cable for 2 ms,
    then a heal and an idle wait while the leader, which fell back to
    its direct QPs at the first loss, wins the switch path back (a
    retry period plus the 40 ms group rebuild); then load again."""
    fastlane.flags.set_all(True)
    fastlane.flags.flight_fusion = fusion_on
    try:
        cluster = build_cluster("p4ce", 4, value_size=64, seed=7)
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        planner = cluster.flight_planner
        rebuilds = []
        rebuild = planner._rebuild_path

        def counted(nic, qp):
            rebuilds.append((planner._epoch, qp))
            return rebuild(nic, qp)

        planner._rebuild_path = counted
        loop = ClosedLoopDriver(cluster, 64, window=16)
        loop.start()
        cluster.run_for(0.1 * MS)
        replica = next(h.node_id for h in cluster.hosts
                       if h.node_id != leader.node_id)
        injector = FaultInjector(cluster)
        before, epoch = len(rebuilds), planner._epoch
        write_qps = _write_qps(leader)
        injector.set_loss(replica, 0.001)
        cluster.run_for(2 * MS)
        lossy = rebuilds[before:]
        lossy_epochs = planner._epoch - epoch
        write_qps |= _write_qps(leader)
        injector.heal_link(replica)
        fused_at_heal = planner.flights_fused
        loop.stop()
        cluster.run_for(60 * MS)
        loop.start()
        cluster.run_for(0.3 * MS)
        loop.stop()
        return {
            "digest": digest.hexdigest(),
            "commits": loop.commits,
            "events": cluster.sim.events_executed,
            "lossy_rebuilds": len(lossy),
            "lossy_write_rebuilds": sum(1 for _, qp in lossy
                                        if id(qp) in write_qps),
            "lossy_epochs": lossy_epochs,
            # Validations of one QP within one path epoch beyond the first.
            "revalidations": len(lossy) - len({(e, id(qp)) for e, qp in lossy}),
            "fused_at_heal": fused_at_heal,
            "flights_fused": planner.flights_fused,
        }
    finally:
        fastlane.enable()


def test_failed_validation_is_remembered_until_a_change_notifies():
    """While a replica cable is lossy every write launch is declined --
    the broadcast QP's path crosses it, and the direct QPs the leader
    falls back to are unicast -- and each QP's validation, failed or not,
    is remembered until a watched change notifies the planner, instead
    of re-run at every launch: no QP (heartbeat QPs included) validates
    twice in one path epoch, and neither a lost frame nor a declined
    launch moves the epoch.  The heal and the group rebuild notify, so
    fusion resumes."""
    fused = _lossy_replica_cable(fusion_on=True)
    plain = _lossy_replica_cable(fusion_on=False)
    # The loss setting moves the epoch, and so does one QP created or
    # destroyed at the leader's NIC as it falls back; a lost frame does not.
    assert fused["lossy_epochs"] <= 2
    assert 0 < fused["lossy_write_rebuilds"] < 20
    assert fused["revalidations"] == 0
    assert fused["lossy_rebuilds"] > fused["lossy_write_rebuilds"]
    assert fused["flights_fused"] > fused["fused_at_heal"] > 0
    assert plain["flights_fused"] == 0
    for key in ("digest", "commits", "events"):
        assert fused[key] == plain[key]


def test_superfusion_batches_clean_window():
    """A clean window runs its hops as express stages -- and its digest
    matches the unfused reference."""
    batched = _run(fusion_on=True)
    plain = _run(fusion_on=False)
    assert batched["hops_replayed"] > 0
    assert plain["hops_replayed"] == 0
    _assert_identical(batched, plain)


def test_mid_window_fault_splits_batch_and_replays_tail():
    """A fault landing inside a fused window must rewrite the pending
    hops into real events at their exact timestamps.

    The digest covers every frame's wire bytes *and* timestamp, so
    equality with the unfused lane proves the rewritten tail ran at the
    same instants the slow path would have chosen; ``defusions`` proves
    the defusion (not a lucky empty heap) handled it.
    """
    batched = _run(fusion_on=True, fault_fn=_leader_link_fault, run_ns=1 * MS)
    plain = _run(fusion_on=False, fault_fn=_leader_link_fault, run_ns=1 * MS)
    assert batched["hops_replayed"] > 0
    assert batched["defusions"] >= 1
    # Fusion re-engaged after the heal.
    assert batched["fused_at_heal"] is not None
    assert batched["flights_fused"] > batched["fused_at_heal"]
    _assert_identical(batched, plain)


def test_numrecv_wrap_inside_super_batches():
    """PSN slot reuse under express stages: >256 fused flights wrap the
    NumRecv register file with no defusion and no divergence from the
    unfused lane."""
    batched = _run(fusion_on=True, run_ns=0.5 * MS)
    plain = _run(fusion_on=False, run_ns=0.5 * MS)
    assert batched["flights_fused"] > _NUMRECV_SLOTS
    assert batched["hops_replayed"] > 0
    assert batched["defusions"] == 0
    _assert_identical(batched, plain)


@pytest.mark.parametrize("value_size", [64, 4096])
def test_numrecv_slot_wrap_keeps_fusing(value_size):
    """PSN slot reuse in the gather registers is not an invalidation.

    NumRecv aggregates 256 PSNs per connection (section IV-C); once the
    fused flights have spent more PSNs than that -- 257 one-packet
    messages, or 52 five-packet 4 KiB ones -- the express gather stage
    reuses slots exactly like the real RegisterActions do, so fusion
    neither disengages nor diverges when the PSN wraps past the register
    file.
    """
    fused = _run(fusion_on=True, run_ns=0.5 * MS, value_size=value_size)
    plain = _run(fusion_on=False, run_ns=0.5 * MS, value_size=value_size)
    assert (fused["flights_fused"] * _packets_per_write(value_size)
            > _NUMRECV_SLOTS)
    assert fused["defusions"] == 0
    _assert_identical(fused, plain)


def _heap_hops(sim, planner):
    """``(stage name, real fn, real args, leg shape)`` of every
    planner-owned entry of the kernel heap, in ``(time, seq)`` order: an
    express hop is ``(t, seq, stage, (fn, args, leg))``, and defusion
    rewrites it into ``(t, seq, fn, args)``.  The leg's shape is the name
    of its switch verdict stage."""
    return [(entry[2].__name__, entry[3][0], entry[3][1],
             entry[3][2].verdict.__name__)
            for entry in sorted(sim._heap)
            if getattr(entry[2], "__self__", None) is planner]


#: (stage, leg shape) of a write's hops: scatter legs waiting for egress,
#: scatter legs past it, and legs whose replica has answered (the land
#: and the ACK leg up to its gather).
_PRE_EGRESS = {("_v_egress", "_v_scatter")}
_POST_EGRESS = {("_v_transmit", "_v_scatter"), ("_v_nic_arrive", "_v_scatter")}
_DELIVERED = {("_v_replica_write", "_v_scatter"), ("_v_emit", "_v_gather"),
              ("_v_arrive", "_v_gather"), ("_v_gather", "_v_gather")}


def _defuse_with_legs_at_every_stage(cluster, leader, planner, probe):
    """Re-seat the digest tap of one replica cable (a defusion trigger,
    and a no-op for the wire) at an instant when the pipelined window has
    scatter legs waiting for egress, legs already rewritten and on their
    way, and legs whose replica has answered."""
    sim = cluster.sim
    link = next(h.nic.port.link for h in cluster.hosts
                if h.node_id != leader.node_id)

    def defuse():
        probe["stages"] = {(name, shape)
                           for name, _, _, shape in _heap_hops(sim, planner)}
        link.tap = link.tap
        probe["pending_after"] = len(_heap_hops(sim, planner))
        # Frames and launches live in hop tuples only: with every hop
        # rewritten into its real event the planner is as it was before
        # the first flight, counters and resolved paths aside.
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
                         "_Leg"}, name
    # Fusion re-engaged after the one defusion.
    assert fused["flights_fused"] > 1000
    for key in ("digest", "commits", "events", "seqs"):
        assert fused[key] == slow[key], key


# -- Multi-packet messages ---------------------------------------------------

_WRITES = {Opcode.RDMA_WRITE_ONLY, Opcode.RDMA_WRITE_FIRST,
           Opcode.RDMA_WRITE_MIDDLE, Opcode.RDMA_WRITE_LAST}


@pytest.mark.parametrize("value_size,packets", [
    (1008, 1),     # one full PMTU: WRITE_ONLY, the boundary
    (1024, 2),     # FIRST + a 16-byte LAST
    (1025, 2),     # FIRST + LAST, unaligned tail
    (1500, 2),
    (4096, 5),     # FIRST + 3 MIDDLE + LAST
    (65536, 65),
])
def test_multi_packet_writes_fuse_and_match_references(value_size, packets):
    """A write message fuses whole at every size the NIC segments it
    into, and matches both fusion's own off-half and the all-lanes-off
    reference."""
    assert _packets_per_write(value_size) == packets
    fused = _run(fusion_on=True, value_size=value_size)
    plain = _run(fusion_on=False, value_size=value_size)
    slow = _run(fusion_on=False, value_size=value_size, other_lanes=False)
    assert fused["flights_fused"] > 0
    assert fused["fallbacks_after_warmup"] == 0
    assert fused["defusions"] == 0
    _assert_identical(fused, plain)
    for key in ("digest", "commits", "events", "seqs"):
        assert fused[key] == slow[key], key
    # The verdict caches' hits are lane state (0 with flow_cache off):
    # against the reference, the timeline is the apply instants.
    assert ([sample[0] for sample in fused["cache_hits"]]
            == [sample[0] for sample in slow["cache_hits"]])


def _uplink_writes(cluster, leader):
    """Opcodes of the WRITE frames on the leader's cable toward the
    switch, in delivery order, from the kernel heap: a real delivery
    event, or an express hop standing for one while fused."""
    port = leader.host.nic.port
    link = port.link
    up = link.direction_from(port)
    deliver = link._deliver
    sim = cluster.sim
    planner = cluster.flight_planner
    pending = []
    for entry in sim._heap:
        fn, args = entry[2], entry[3]
        if getattr(fn, "__self__", None) is planner:
            fn, args = args[0], args[1]
        if fn == deliver and args[0] is up and args[1]._upper:
            pending.append((entry[0], entry[1], args[1]._upper[0].opcode))
    return [op for _, _, op in sorted(pending) if op in _WRITES]


def _when(cluster, cond, then, step_ns=10):
    """Run ``then`` at the first ``step_ns`` tick where ``cond()`` holds.
    The ticks are kernel events in both lanes, so both count them."""
    def tick():
        if cond():
            then()
        else:
            cluster.sim.schedule(step_ns, tick)
    cluster.sim.schedule(step_ns, tick)


def _mid_message_leader_cut(cluster, leader, planner, probe):
    """Cut the leader's cable when the next WRITE frame due at the switch
    is a MIDDLE: its message's FIRST has been scattered, the rest is lost
    on the wire.  Heal before lease loss."""
    schedule = FaultSchedule(cluster)

    def cut():
        probe["uplink"] = _uplink_writes(cluster, leader)
        schedule.injector.partition_host(leader.node_id, False)

    _when(cluster,
          lambda: _uplink_writes(cluster, leader)[:1] == [
              Opcode.RDMA_WRITE_MIDDLE],
          cut)
    schedule.at_ns(0.25 * MS).heal_host(leader.node_id)
    schedule.arm()
    cluster.sim.schedule(
        0.25 * MS,
        lambda: probe.__setitem__("fused_at_heal", planner.flights_fused))


def test_leader_cut_mid_message_defuses_and_retransmits_whole_message():
    """The cut lands between a message's FIRST and LAST: the pending
    hops defuse mid-message, the lost tail heals through go-back-N from
    the work request, and fusion re-engages."""
    kwargs = dict(fault_fn=_mid_message_leader_cut, run_ns=1 * MS,
                  value_size=4096)
    fused = _run(fusion_on=True, **kwargs)
    plain = _run(fusion_on=False, **kwargs)
    uplink = fused["probe"]["uplink"]
    assert uplink == plain["probe"]["uplink"]
    # The FIRST was delivered, a MIDDLE and the LAST were still on the wire.
    assert uplink[0] is Opcode.RDMA_WRITE_MIDDLE
    assert Opcode.RDMA_WRITE_LAST in uplink
    assert fused["defusions"] >= 1
    assert fused["retransmissions"] > 0
    assert plain["retransmissions"] == fused["retransmissions"]
    assert fused["fused_at_heal"] is not None
    assert fused["flights_fused"] > fused["fused_at_heal"]
    _assert_identical(fused, plain)


def _mid_message_replica_crash(cluster, leader, planner, probe):
    """Crash a follower between the FIRST and the LAST of the message it
    is receiving (its write cursor is open)."""
    victim = next(h for h in cluster.hosts if h.node_id != leader.node_id)
    schedule = FaultSchedule(cluster)

    def open_cursor():
        return max(qp.write_cursor_remaining
                   for qp in victim.nic.qps.values())

    def crash():
        probe["cursor_remaining"] = open_cursor()
        schedule.injector.crash_host(victim.node_id)

    _when(cluster, lambda: open_cursor() > 0, crash)


def test_replica_crash_mid_message_matches_unfused_digest():
    kwargs = dict(fault_fn=_mid_message_replica_crash, run_ns=1 * MS,
                  value_size=4096)
    fused = _run(fusion_on=True, **kwargs)
    plain = _run(fusion_on=False, **kwargs)
    assert fused["probe"]["cursor_remaining"] > 0
    assert (fused["probe"]["cursor_remaining"]
            == plain["probe"]["cursor_remaining"])
    assert fused["defusions"] >= 1
    assert fused["flights_fused"] > 0
    _assert_identical(fused, plain)


# -- Heartbeat READs ----------------------------------------------------------

def _read_run(lanes, scenario):
    """A 4-replica P4CE cluster with its backup network and no client load:
    the wire carries heartbeat READs (and what the scenario sets off).
    ``lanes`` is "fused" (every lane on), "unfused" (fusion off) or
    "slow" (every lane off), or the name of the one lane turned off.  The
    verdict caches' hits of both switches are sampled every 50 us, from a
    kernel event that every lane runs alike."""
    fastlane.flags.set_all(lanes != "slow")
    if lanes == "unfused":
        fastlane.flags.flight_fusion = False
    elif lanes in fastlane._LANES:
        setattr(fastlane.flags, lanes, False)
    try:
        cluster = build_cluster("p4ce", 4, value_size=64, seed=7)
        digest = install_trace_digest(cluster)
        program = cluster.switch.program
        caches = (program._flow_cache, program._egress_cache,
                  program._egress_templates,
                  cluster.backup_switch.program._flow_cache)
        sim = cluster.sim
        cache_hits = []

        def sample():
            cache_hits.append((sim.now, *(c.hits for c in caches)))
            sim.schedule(50 * US, sample)

        sim.schedule(50 * US, sample)
        leader = cluster.await_ready()
        planner = cluster.flight_planner
        ready = planner.stats()
        probe = scenario(cluster, leader) or {}
        stats = planner.stats()
        return {
            "digest": digest.hexdigest(),
            "events": sim.events_executed,
            "seqs": sim._seq,
            "cache_hits": cache_hits,
            "probe": probe,
            "reads_fused": stats["reads_fused"],
            "reads_at_ready": ready["reads_fused"],
            "flights_fused": stats["flights_fused"],
            "defusions": stats["defusions"] - ready["defusions"],
            "fallbacks": (stats["express_fallbacks"]
                          - ready["express_fallbacks"]),
        }
    finally:
        fastlane.enable()


@functools.lru_cache(maxsize=None)
def _slow_read_run(scenario):
    """The all-lanes-off reference of ``scenario``, run once per module
    (several tests compare against the idle one)."""
    return _read_run("slow", scenario)


def _idle(cluster, leader):
    cluster.run_for(2 * MS)


def _leader_kill_then_follower_crash(cluster, leader):
    """The application of the leader dies (its NIC keeps answering
    reads), a new leader takes over; then a follower's host crashes and
    comes back with a cold NIC and reconnects."""
    injector = FaultInjector(cluster)
    injector.kill_app(leader.node_id)
    for _ in range(80):
        cluster.run_for(1 * MS)
        new_leader = cluster.leader
        if new_leader is not None:
            break
    victim = max(node_id for node_id in cluster.members
                 if node_id not in (leader.node_id,
                                    getattr(new_leader, "node_id", None)))
    injector.crash_host(victim)
    cluster.run_for(2 * MS)
    injector.revive_host(victim)
    cluster.run_for(8 * MS)
    paths = [path for member in cluster.members.values()
             for peer in member.hb.peers.values() for path in peer.paths]
    return {"new_leader": getattr(new_leader, "node_id", None),
            "victim_paths": sum(1 for member in cluster.members.values()
                                for nid, peer in member.hb.peers.items()
                                if nid == victim for _ in peer.paths),
            "paths": len(paths)}


def _lossy_heartbeat_cable(cluster, leader):
    """5 % loss on one follower's backup cable -- heartbeat READs only --
    for 3 ms, then a heal."""
    injector = FaultInjector(cluster)
    victim = next(h.node_id for h in cluster.hosts
                  if h.node_id != leader.node_id)
    injector.set_loss(victim, 0.05, backup=True)
    cluster.run_for(3 * MS)
    injector.heal_link(victim, backup=True)
    cluster.run_for(2 * MS)
    link = next(h for h in cluster.hosts
                if h.node_id == victim).backup_nic.port.link
    return {"dropped": sum(link.stats_from(end).dropped
                           for end in (link.a, link.b))}


@pytest.mark.parametrize("scenario", [
    _idle, _leader_kill_then_follower_crash, _lossy_heartbeat_cable,
], ids=["idle", "leader_kill_follower_crash", "lossy_heartbeat_cable"])
def test_fused_reads_match_both_references(scenario):
    """Heartbeat READs ride the express chain on both networks (the
    primary switch's L3 miss path and the backup L3 switch) and agree
    with fusion's own off-half and with the all-lanes-off reference on
    the wire, in events and in kernel seqs; the verdict caches' hit
    timeline matches fusion's off-half."""
    fused = _read_run("fused", scenario)
    plain = _read_run("unfused", scenario)
    slow = _slow_read_run(scenario)
    assert fused["reads_at_ready"] > 0
    assert fused["reads_fused"] > fused["reads_at_ready"]
    assert plain["reads_fused"] == slow["reads_fused"] == 0
    assert fused["probe"] == plain["probe"] == slow["probe"]
    for key in ("digest", "events", "seqs"):
        assert fused[key] == plain[key] == slow[key], key
    assert fused["cache_hits"] == plain["cache_hits"]
    assert ([sample[0] for sample in fused["cache_hits"]]
            == [sample[0] for sample in slow["cache_hits"]])
    if scenario is _idle:
        assert fused["defusions"] == 0
        assert fused["fallbacks"] == 0
    if scenario is _leader_kill_then_follower_crash:
        assert fused["probe"]["new_leader"] not in (None, 0)
        assert fused["defusions"] >= 1
    if scenario is _lossy_heartbeat_cable:
        assert fused["probe"]["dropped"] > 0


@pytest.mark.parametrize("lane", fastlane._LANES)
def test_reads_fuse_only_with_every_lane_on(lane):
    off = _read_run(lane, _idle)
    assert off["reads_fused"] == 0
    assert off["digest"] == _slow_read_run(_idle)["digest"]


@functools.lru_cache(maxsize=None)
def _unfused_read_run(scenario):
    """Fusion's own off-half of ``scenario``, run once per module."""
    return _read_run("unfused", scenario)


#: (stage, leg) of every hop a fused READ takes: the five hop stages,
#: the L3 verdict and the land, on the request and the response leg.
_READ_HOPS = [(stage, role) for role in ("request", "response")
              for stage in ("_v_emit", "_v_arrive", "_v_l3", "_v_egress",
                            "_v_transmit", "_v_nic_arrive", "land")]


def _read_hops(sim, planner):
    """``{(stage, leg role): leg}`` of the pending READ hops; a land
    stage is named "land"."""
    hops = {}
    for entry in sim._heap:
        stage = entry[2]
        if getattr(stage, "__self__", None) is not planner:
            continue
        leg = entry[3][2]
        name = "land" if stage == leg.land else stage.__name__
        role = ("request" if leg.land.__name__ == "_v_read_serve"
                else "response")
        hops[(name, role)] = leg
    return hops


def _defuse_read_at(hop):
    """Idle 2 ms, stepped 10 ns at a time: at the first step with a READ
    hop pending at ``hop``, re-seat the digest tap of that leg's sending
    cable (a defusion trigger, and a no-op for the wire).  Stepping adds
    no event, so the run matches :func:`_idle`'s."""
    def scenario(cluster, leader):
        sim = cluster.sim
        planner = cluster.flight_planner
        end = sim.now + 2 * MS
        probe = {}
        while sim.now < end and not probe:
            sim.run(until=min(sim.now + 10, end))
            leg = _read_hops(sim, planner).get(hop)
            if leg is not None:
                link = leg.src.port.link
                link.tap = link.tap
                probe["pending_after"] = len(_read_hops(sim, planner))
                probe["held"] = {
                    name: {type(item).__name__ for item in (
                        value.values() if isinstance(value, dict)
                        else [value])}
                    for name, value in vars(planner).items()}
        sim.run(until=end)
        return probe
    return scenario


@pytest.mark.parametrize("hop", _READ_HOPS,
                         ids=["-".join(hop) for hop in _READ_HOPS])
def test_read_defused_at_every_leg_stage(hop):
    """A heartbeat READ defused with a hop pending at any stage of either
    leg rewrites it into its real event and runs on through the real
    handlers: the wire, the events and the kernel seqs match fusion's
    off-half and the all-lanes-off reference, and the planner keeps no
    frame."""
    fused = _read_run("fused", _defuse_read_at(hop))
    probe = fused["probe"]
    assert probe, hop
    assert probe["pending_after"] == 0
    for name, kinds in probe["held"].items():
        assert not kinds & {"_VFrame", "_VLaunch", "Packet"}, name
    assert fused["defusions"] == 1
    for reference in (_unfused_read_run(_idle), _slow_read_run(_idle)):
        for key in ("digest", "events", "seqs"):
            assert fused[key] == reference[key], key


# -- One definition per hop ---------------------------------------------------

#: The hop effects the real handlers and the express stages share:
#: (module, owner class or None, name, what the wrapper does, reference).
#: A "time" effect returns when the hop's successor runs, and the wrapper
#: delays it by 1 ns; a "wire" effect is a wire patch, and the wrapper
#: flips a bit of the header block or tail it returns (not of its ICRC:
#: a real receiver recomputes that and would drop the frame), a "bytes"
#: effect returns a rendered frame image, and the wrapper flips a bit of
#: it; every other wrapper counts calls.
#: The reference is the all-lanes-off run, except for effects only the
#: template and flow-cache lanes reach, which are compared against
#: fusion's own off-half.
_SHARED_EFFECTS = [
    ("repro.net.link", "_Direction", "send", "time", "slow"),
    ("repro.switch.pipeline", "Switch", "_parse_ingress", "time", "slow"),
    ("repro.switch.pipeline", "Switch", "_parse_egress", "time", "slow"),
    ("repro.switch.pipeline", "Switch", "_ingress_drop", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_tx_claim", "time", "slow"),
    ("repro.rdma.nic", "RNic", "_rx_admit", "time", "slow"),
    ("repro.rdma.nic", "RNic", "_land_write", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_complete_write", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_ack_syndrome", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_read_region", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_serve_read", "count", "slow"),
    ("repro.rdma.nic", "RNic", "_requester_read_response", "count", "slow"),
    ("repro.p4ce.dataplane", "P4ceProgram", "_egress_leg", "count", "slow"),
    ("repro.p4ce.dataplane", "P4ceProgram", "_gather_ack", "count", "slow"),
    ("repro.switch.tables", "FlowVerdictCache", "hit", "count", "plain"),
    ("repro.rdma.wiretemplate", None, "scatter_patch", "wire", "plain"),
    ("repro.rdma.wiretemplate", None, "ack_patch", "wire", "plain"),
    ("repro.rdma.wiretemplate", None, "read_response_patch", "wire", "plain"),
    ("repro.net.packet", None, "with_macs", "bytes", "plain"),
]


def _wrap_effect(monkeypatch, module, owner, name, mode, calls):
    """Replace one shared effect with its perturbing wrapper wherever the
    simulator looks it up: on its class, or in every module that imports
    the function by name."""
    mod = importlib.import_module(module)
    target = getattr(mod, owner) if owner else mod
    original = getattr(target, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        result = original(*args, **kwargs)
        if mode == "time" and result is not None:
            return result + 1.0
        if mode == "wire":
            data = result[0]
            return data[:-1] + bytes((data[-1] ^ 1,)), result[1]
        if mode == "bytes":
            return result[:-1] + bytes((result[-1] ^ 1,))
        return result

    monkeypatch.setattr(target, name, wrapper)
    if owner is None:
        for other in list(sys.modules.values()):
            if (other is not mod and getattr(other, "__name__", "")
                    .startswith("repro.")
                    and getattr(other, name, None) is original):
                monkeypatch.setattr(other, name, wrapper)


@pytest.mark.parametrize("value_size", [64, 4096])
@pytest.mark.parametrize("module,owner,name,mode,reference", _SHARED_EFFECTS,
                         ids=[e[2] for e in _SHARED_EFFECTS])
def test_express_stages_call_the_shared_effects(monkeypatch, value_size,
                                                module, owner, name, mode,
                                                reference):
    """A stage is a call, not a copy: perturb one shared effect and the
    fused run still agrees with the reference on the wire, in events and
    in kernel seqs, and calls a counted effect as often -- an express
    stage (or the digest tap) with its own copy of the effect would keep
    the old timing, bytes or count, and diverge.  (A wire patch runs when
    the tap renders a virtual frame but when the real egress builds a
    real one, so its count is not compared: its bytes are.)  The seeded
    loop's heartbeat READs take the unicast chain, so its effects -- the
    responder's and requester's, the read-response patch and the MAC
    rewrite -- are perturbed too."""
    calls = [0]
    _wrap_effect(monkeypatch, module, owner, name, mode, calls)
    kwargs = dict(run_ns=0.15 * MS, value_size=value_size)
    fused = _run(fusion_on=True, **kwargs)
    fused_calls, calls[0] = calls[0], 0
    ref = _run(fusion_on=False, other_lanes=reference == "plain", **kwargs)
    assert fused["flights_fused"] > 0 and fused["commits"] > 0
    assert fused["fallbacks_after_warmup"] == 0
    assert fused_calls > 0
    if mode == "count":
        assert fused_calls == calls[0]
    for key in ("digest", "commits", "events", "seqs"):
        assert fused[key] == ref[key], key
