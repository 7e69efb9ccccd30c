"""Flight fusion's decline-to-real rule.

A launch rides the express chain or ``try_fuse`` declines it to the real
handlers; a stage that cannot prove its hop clean hands it to the real
handler.  These tests pin the three places that used to route into a
second express implementation instead: a foreign tap on a replica link,
an odd launch shape, and a cold egress cache.  The reference in every
comparison is the all-lanes-off run.
"""

from __future__ import annotations

import pytest

from repro import fastlane, params
from repro.net.packet import Packet
from repro.rdma.headers import Bth
from repro.rdma.opcodes import Opcode
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000


def _start(lanes_on: bool, replicas: int = 2):
    fastlane.flags.set_all(lanes_on)
    cluster = build_cluster("p4ce", replicas, value_size=64, seed=7)
    digest = install_trace_digest(cluster)
    leader = cluster.await_ready()
    driver = ClosedLoopDriver(cluster, 64, window=16)
    driver.start()
    return cluster, digest, leader, driver


def _observables(cluster, digest, driver) -> dict:
    return {"digest": digest.hexdigest(), "commits": driver.commits,
            "events": cluster.sim.events_executed}


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
            out["pending_at_install"] = len(cluster.sim._flight_queue)
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


def test_declined_launch_leaves_tx_pipeline_unclaimed():
    """Every probe in ``try_fuse`` precedes its first mutation: a launch
    declined on its shape finds ``_tx_busy_until`` where ``RNic._tx``
    expects to claim it, and consumes no kernel seq."""
    try:
        cluster, _, leader, driver = _start(True)
        cluster.run_for(0.1 * MS)
        driver.stop()
        planner = cluster.flight_planner
        assert planner.flights_fused > 0  # the path is resolved and clean
        nic = leader.host.nic
        qp = leader.plane.qp
        sim = cluster.sim
        # A SEND is not the WRITE_ONLY shape virtual frames are built from.
        odd = nic._frame(
            qp, [Bth(Opcode.SEND_ONLY, qp.remote_qpn, qp.next_psn,
                     ack_req=True)], b"x")
        busy, seq = nic._tx_busy_until, sim._seq
        pending = len(sim._flight_queue)
        fused, rejects = planner.flights_fused, planner.fuse_rejects
        assert planner.try_fuse(nic, qp, qp.next_psn, odd) is False
        assert planner.fuse_rejects == rejects + 1
        assert planner.flights_fused == fused
        assert nic._tx_busy_until == busy
        assert sim._seq == seq
        assert len(sim._flight_queue) == pending
        nic._tx(odd)
        assert nic._tx_busy_until == (max(busy, sim.now)
                                      + params.NIC_PACKET_GAP_NS)
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
        planner.on_cp_write()
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
