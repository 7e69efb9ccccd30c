"""Flight fusion's decline-to-real rule.

A launch rides the express chain or ``try_fuse`` declines it to the real
handlers; a stage that cannot prove its hop clean hands it to the real
handler.  These tests pin the three places that used to route into a
second express implementation instead: a foreign tap on a replica link,
an odd launch shape (a SEND; multi-packet SENDs and READs), and a cold
egress cache -- plus the cold ingress verdict one shape of a multi-packet
WRITE can meet on its own.  The reference in every comparison is the
all-lanes-off run.
"""

from __future__ import annotations

import pytest

from repro import fastlane, params
from repro.net.packet import Packet
from repro.rdma.headers import Bth
from repro.rdma.opcodes import Opcode
from repro.rdma.qp import WorkRequest, WrOpcode
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000


def _start(lanes_on: bool, replicas: int = 2, value_size: int = 64):
    fastlane.flags.set_all(lanes_on)
    cluster = build_cluster("p4ce", replicas, value_size=value_size, seed=7)
    digest = install_trace_digest(cluster)
    leader = cluster.await_ready()
    driver = ClosedLoopDriver(cluster, value_size, window=16)
    driver.start()
    return cluster, digest, leader, driver


def _observables(cluster, digest, driver) -> dict:
    return {"digest": digest.hexdigest(), "commits": driver.commits,
            "events": cluster.sim.events_executed}


def _heap_hops(cluster):
    """``(stage name, real fn, real args)`` of every planner-owned entry
    of the kernel heap, in ``(time, seq)`` order: an express hop is
    ``(t, seq, stage, (fn, args, ctx))``."""
    planner = cluster.flight_planner
    return [(entry[2].__name__, entry[3][0], entry[3][1])
            for entry in sorted(cluster.sim._heap)
            if getattr(entry[2], "__self__", None) is planner]


def _replica_link(cluster, leader):
    return next(h for h in cluster.hosts
                if h.node_id != leader.node_id).nic.port.link


def _foreign_tap(link, frames: list):
    """Install a plain callable on ``link``: it records what it is handed
    and forwards to the digest tap it replaces, so the run's digest stays
    comparable."""
    inner = link.tap

    def tap(src, packet):
        frames.append(type(packet))
        inner(src, packet)

    link.tap = tap


def _run_with_foreign_tap(lanes_on: bool, install_at_ns: float) -> dict:
    try:
        cluster, digest, leader, driver = _start(lanes_on)
        planner = cluster.flight_planner
        frames = []
        out = {}
        if install_at_ns:
            cluster.run_for(install_at_ns)
            # Mid-window: fused hops are in flight as virtual frames.
            out["pending_at_install"] = len(_heap_hops(cluster))
        out["fused_at_install"] = planner.flights_fused
        out["rejects_at_install"] = planner.fuse_rejects
        _foreign_tap(_replica_link(cluster, leader), frames)
        cluster.run_for(0.4 * MS)
        driver.stop()
        out.update(_observables(cluster, digest, driver))
        out.update(flights_fused=planner.flights_fused,
                   fuse_rejects=planner.fuse_rejects,
                   defusions=planner.defusions, frames=frames)
        return out
    finally:
        fastlane.enable()


@pytest.mark.parametrize("install_at_ns", [0, 0.2 * MS],
                         ids=["before", "mid-run"])
def test_foreign_tap_declines_launches(install_at_ns):
    fused = _run_with_foreign_tap(True, install_at_ns)
    slow = _run_with_foreign_tap(False, install_at_ns)
    # Every launch after the install is declined...
    assert fused["flights_fused"] == fused["fused_at_install"]
    assert fused["fuse_rejects"] > fused["rejects_at_install"]
    # ...and the tap only ever sees real packets, the same ones the
    # reference run hands it.
    assert fused["frames"] and set(fused["frames"]) == {Packet}
    assert len(fused["frames"]) == len(slow["frames"])
    if install_at_ns:
        # The path was fused until then, and the install caught virtual
        # frames in flight: they went back to the kernel as real events.
        assert fused["fused_at_install"] > 0
        assert fused["pending_at_install"] > 0
        assert fused["defusions"] >= 1
    for key in ("digest", "commits", "events"):
        assert fused[key] == slow[key], key


def _clean_leader():
    """A stopped clean fused run: the leader's broadcast path is resolved."""
    cluster, _, leader, driver = _start(True)
    cluster.run_for(0.1 * MS)
    driver.stop()
    assert cluster.flight_planner.flights_fused > 0
    return cluster, leader.host.nic, leader.plane.qp


def _assert_declined_unclaimed(cluster, nic, qp, packets) -> None:
    """``try_fuse`` declines ``packets`` and leaves ``_tx_busy_until``
    where ``RNic._tx`` expects to claim it, with no kernel seq consumed."""
    planner = cluster.flight_planner
    sim = cluster.sim
    busy, seq = nic._tx_busy_until, sim._seq
    pending = _heap_hops(cluster)
    fused, rejects = planner.flights_fused, planner.fuse_rejects
    assert planner.try_fuse(nic, qp, packets) is False
    assert planner.fuse_rejects == rejects + 1
    assert planner.flights_fused == fused
    assert nic._tx_busy_until == busy
    assert sim._seq == seq
    assert _heap_hops(cluster) == pending


def test_declined_launch_leaves_tx_pipeline_unclaimed():
    """Every probe in ``try_fuse`` precedes its first mutation: a launch
    declined on its shape finds ``_tx_busy_until`` where ``RNic._tx``
    expects to claim it, and consumes no kernel seq."""
    try:
        cluster, nic, qp = _clean_leader()
        # A SEND is not a WRITE shape virtual frames are built from.
        odd = nic._frame(
            qp, [Bth(Opcode.SEND_ONLY, qp.remote_qpn, qp.next_psn,
                     ack_req=True)], b"x")
        busy = nic._tx_busy_until
        _assert_declined_unclaimed(cluster, nic, qp, [odd])
        nic._tx(odd)
        assert nic._tx_busy_until == (max(busy, cluster.sim.now)
                                      + params.NIC_PACKET_GAP_NS)
    finally:
        fastlane.enable()


@pytest.mark.parametrize("kind", ["send", "read"])
def test_multi_packet_send_and_read_take_the_real_path(kind):
    """Only WRITE messages fuse: a three-packet SEND and a READ spanning
    four response PSNs are declined before any claim, and their launch
    puts one real ``_emit`` event per request packet on the kernel heap."""
    try:
        cluster, nic, qp = _clean_leader()
        pmtu = nic.pmtu
        if kind == "send":
            wr = WorkRequest(1, WrOpcode.SEND, data=bytes(2 * pmtu + 1))
            opcodes = [Opcode.SEND_FIRST, Opcode.SEND_MIDDLE,
                       Opcode.SEND_LAST]
        else:
            wr = WorkRequest(1, WrOpcode.RDMA_READ, length=4 * pmtu)
            opcodes = [Opcode.RDMA_READ_REQUEST]
        packets = nic._build_request(qp, wr, qp.next_psn)
        assert [p._upper[0].opcode for p in packets] == opcodes
        _assert_declined_unclaimed(cluster, nic, qp, packets)
        sim = cluster.sim
        pending = _heap_hops(cluster)
        nic._launch(qp, wr)
        assert _heap_hops(cluster) == pending
        emitted = sorted((entry[0], entry[1], entry[3][0]._upper[0].opcode)
                         for entry in sim._heap
                         if entry[2] == nic._emit and entry[3][0]._upper)
        assert [op for _, _, op in emitted][-len(opcodes):] == opcodes
    finally:
        fastlane.enable()


def _run_with_cold_egress(lanes_on: bool) -> dict:
    try:
        cluster, digest, leader, driver = _start(lanes_on, replicas=3)
        cluster.run_for(0.2 * MS)
        # Let the window drain: flights still in the pipe would defuse
        # at the epoch and warm the cache ahead of the next fused one.
        driver.stop()
        cluster.run_for(0.1 * MS)
        planner = cluster.flight_planner
        program = cluster.switch.program
        ecache = program._egress_cache
        out = {"fallbacks_before": planner.express_fallbacks,
               "fused_before": planner.flights_fused,
               "fills_before": ecache.fills}
        # What a control-plane write leaves behind once reconciled: a
        # new planner epoch and an empty egress verdict cache.  (Through
        # the real write the first flights afterwards run unfused and
        # warm the caches in ingress-then-egress order, so a fused
        # flight never meets this state on its own.)
        planner.invalidate()
        legs = len(ecache._cache)
        ecache._cache.clear()
        driver.start()
        cluster.run_for(0.3 * MS)
        driver.stop()
        out.update(_observables(cluster, digest, driver))
        out.update(legs=legs, fallbacks=planner.express_fallbacks,
                   flights_fused=planner.flights_fused, fills=ecache.fills)
        return out
    finally:
        fastlane.enable()


def test_cold_egress_cache_falls_back_to_real_egress():
    fused = _run_with_cold_egress(True)
    slow = _run_with_cold_egress(False)
    assert fused["legs"] == 3
    # The first flight after the epoch fused, met the cold cache on every
    # leg and handed each to the real _run_egress, which refilled it...
    assert fused["fallbacks"] - fused["fallbacks_before"] >= fused["legs"]
    assert fused["fills"] - fused["fills_before"] == fused["legs"]
    # ...and fusion carried on.
    assert fused["flights_fused"] > fused["fused_before"]
    for key in ("digest", "commits", "events"):
        assert fused[key] == slow[key], key


def _run_with_cold_middle_verdict(lanes_on: bool) -> dict:
    try:
        cluster, digest, leader, driver = _start(lanes_on, value_size=4096)
        cluster.run_for(0.2 * MS)
        driver.stop()
        cluster.run_for(0.1 * MS)
        planner = cluster.flight_planner
        fc = cluster.switch.program._flow_cache
        out = {"fallbacks_before": planner.express_fallbacks,
               "fused_before": planner.flights_fused,
               "fills_before": fc.fills}
        # A fresh epoch, and the ingress verdict of one message shape
        # gone: the first fused flight's FIRST finds its verdict, its
        # first MIDDLE does not.
        planner.invalidate()
        key = (leader.plane.qp.remote_qpn, Opcode.RDMA_WRITE_MIDDLE)
        out["had_verdict"] = fc._cache.pop(key, None) is not None
        driver.start()
        cluster.run_for(0.3 * MS)
        driver.stop()
        out.update(_observables(cluster, digest, driver))
        out.update(fallbacks=planner.express_fallbacks,
                   flights_fused=planner.flights_fused, fills=fc.fills,
                   has_verdict=key in fc._cache)
        return out
    finally:
        fastlane.enable()


def test_cold_middle_verdict_falls_back_to_real_ingress():
    fused = _run_with_cold_middle_verdict(True)
    slow = _run_with_cold_middle_verdict(False)
    assert fused["had_verdict"]
    # One MIDDLE met the cold (QPN, opcode) verdict and went through the
    # real _run_ingress, whose walk refilled it for the rest...
    assert fused["fallbacks"] - fused["fallbacks_before"] == 1
    assert fused["fills"] - fused["fills_before"] == 1
    assert fused["has_verdict"]
    # ...and fusion carried on.
    assert fused["flights_fused"] > fused["fused_before"]
    for key in ("digest", "commits", "events"):
        assert fused[key] == slow[key], key
