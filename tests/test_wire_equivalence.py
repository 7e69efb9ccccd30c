"""Wire equivalence: object-mode processing matches the packed bytes.

The simulation's hot path moves header *objects*; the codecs define the
bytes.  These tests prove the two views agree end to end: packets that
crossed the P4CE switch, when packed and re-parsed from raw bytes,
contain exactly the rewritten fields -- i.e. the switch model is a
faithful packet rewriter, not a Python-object trick.
"""

import hashlib
import struct
import sys
from collections import Counter

import pytest

from repro import fastlane, params
from repro.net import AddressAllocator, Packet
from repro.net.headers import (
    ETHERNET_FCS_BYTES, EthernetHeader, Ipv4Header, UdpHeader)
from repro.rdma import parse_roce
from repro.rdma.headers import Bth, Reth
from repro.sim import Simulator
from repro.sim.columnar import DigestTap
from repro.workloads.experiments import ClosedLoopDriver, build_cluster

sys.path.insert(0, "tests")
from test_p4ce_plane import (  # noqa: E402
    LOG_SERVICE_ID, MS, LeaderAdvert, MemberAdvert, P4ceRig)


def packed(packet):
    """``packet.pack()``, with ``wire_size`` pinned to those bytes on the
    way: for the frame as it is (a rendered frame answers from its wire
    image in O(1)) and for a thawed copy (touching a header drops the
    image, so the size comes from the header walk)."""
    raw = packet.pack()
    assert packet.wire_size == len(raw) + ETHERNET_FCS_BYTES
    thawed = packet.copy()
    assert thawed.upper is not None and thawed._wire is None
    assert thawed.wire_size == len(thawed.pack()) + ETHERNET_FCS_BYTES \
        == packet.wire_size
    return raw


def capture_frames(rig, predicate):
    """Attach taps on all switch-adjacent links, collecting packed bytes."""
    captured = []
    for host in rig.hosts:
        link = host.nic.port.link

        def tap(src, packet, _link=link):
            if predicate(src, packet):
                captured.append((src.name, packed(packet), packet))

        link.tap = tap
    return captured


class TestScatterBytes:
    def test_replica_receives_fully_rewritten_bytes(self):
        rig = P4ceRig(num_replicas=2, randomize_psn=True)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        group = next(iter(rig.cp.groups.values()))

        # Tap frames the switch transmits toward replica 1.
        replica = rig.replicas[0]
        frames = []
        link = replica.nic.port.link

        def tap(src, packet):
            if src.device is not replica.nic and packet.udp \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT:
                frames.append(packed(packet))

        link.tap = tap
        rig.leader.post_write(qp, b"wire-check", 256, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert frames, "no scattered frame captured"

        parsed = Packet.parse(frames[0])
        assert parsed.ipv4.src == rig.switch.ip
        assert parsed.ipv4.dst == replica.ip
        bth, reth, aeth, payload = parse_roce(parsed.payload)
        conn = next(c for c in group.replica_conns.values()
                    if c.ip == replica.ip)
        log = rig.logs[replica.node_id]
        # The bytes on the wire carry the *replica's* coordinates.
        assert bth.dest_qp == conn.qpn
        assert reth.r_key == log.r_key
        assert reth.virtual_address == log.addr + 256
        assert payload == b"wire-check"

    def test_leader_psn_translated_on_the_wire(self):
        rig = P4ceRig(num_replicas=2, randomize_psn=True)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        group = next(iter(rig.cp.groups.values()))
        replica = rig.replicas[0]
        conn = next(c for c in group.replica_conns.values()
                    if c.ip == replica.ip)
        leader_frames, replica_frames = [], []

        def leader_tap(src, packet):
            if src.device is rig.leader.nic and packet.udp \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT:
                leader_frames.append(packed(packet))

        def replica_tap(src, packet):
            if src.device is not replica.nic and packet.udp \
                    and packet.udp.dst_port == params.ROCE_UDP_PORT:
                replica_frames.append(packed(packet))

        rig.leader.nic.port.link.tap = leader_tap
        replica.nic.port.link.tap = replica_tap
        rig.leader.post_write(qp, b"p", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        lbth, _, _, _ = parse_roce(Packet.parse(leader_frames[0]).payload)
        rbth, _, _, _ = parse_roce(Packet.parse(replica_frames[0]).payload)
        assert rbth.psn == conn.translate_psn_to_replica(lbth.psn)
        if conn.psn_offset:
            assert rbth.psn != lbth.psn


class TestGatherBytes:
    def test_aggregated_ack_bytes_match_leader_expectations(self):
        rig = P4ceRig(num_replicas=4, randomize_psn=True)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        sent_psn = {}
        ack_frames = []

        def leader_tap(src, packet):
            if packet.udp and packet.udp.dst_port == params.ROCE_UDP_PORT:
                bth, _, _, _ = parse_roce(Packet.parse(packed(packet)).payload)
                if src.device is rig.leader.nic:
                    sent_psn["psn"] = bth.psn
                else:
                    ack_frames.append(packed(packet))

        rig.leader.nic.port.link.tap = leader_tap
        rig.leader.post_write(qp, b"gg", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert len(ack_frames) == 1, "exactly one aggregated ACK on the wire"
        parsed = Packet.parse(ack_frames[0])
        assert parsed.ipv4.src == rig.switch.ip
        assert parsed.ipv4.dst == rig.leader.ip
        bth, _, aeth, _ = parse_roce(parsed.payload)
        assert bth.psn == sent_psn["psn"]  # translated back to leader space
        assert bth.dest_qp == qp.qpn
        assert aeth is not None


class TestPackParseIdentity:
    def test_multihop_pack_parse_roundtrip(self):
        """pack() -> parse() -> pack() is a fixed point for RoCE frames."""
        rig = P4ceRig(num_replicas=2)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        frames = []

        def tap(src, packet):
            if packet.udp and packet.udp.dst_port == params.ROCE_UDP_PORT:
                frames.append(packed(packet))

        for host in rig.hosts:
            host.nic.port.link.tap = tap
        rig.leader.post_write(qp, b"idempotent", 0, advert.r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        assert frames
        for raw in frames:
            parsed = Packet.parse(raw)
            bth, reth, aeth, payload = parse_roce(parsed.payload)
            rebuilt = Packet(parsed.eth, parsed.ipv4, parsed.udp,
                             [h for h in (bth, reth, aeth) if h is not None],
                             payload, has_icrc=True)
            assert rebuilt.finalize().pack() == raw


class TestWireSize:
    def test_wire_size_is_the_packed_length_for_every_frame_kind(self,
                                                                 monkeypatch):
        """CM set-up, a scattered 2-packet write and a direct write the
        switch L3-forwards put every kind of frame on the tapped links;
        :func:`packed` checks each one."""
        kept_image = []
        rewrite_macs = Packet.rewrite_macs

        def spy(packet, src, dst):
            rewrite_macs(packet, src, dst)
            kept_image.append(packet._wire is not None)

        monkeypatch.setattr(Packet, "rewrite_macs", spy)
        rig = P4ceRig(num_replicas=2, randomize_psn=True)
        captured = capture_frames(rig, lambda src, packet: True)
        qp, cq, result = rig.create_group()
        advert = MemberAdvert.unpack(result["pd"])
        rig.leader.post_write(qp, b"w" * 1500, 0, advert.r_key)
        direct = rig.leader.create_qp(rig.leader.create_cq())
        reply = {}
        rig.leader.cm.connect(rig.replicas[0].ip, LOG_SERVICE_ID, direct,
                              LeaderAdvert(rig.leader.ip, 1).pack(),
                              lambda q, pd, err: reply.update(pd=pd))
        rig.sim.run_until(lambda: reply, timeout=50 * MS)
        rig.leader.post_write(direct, b"d" * 100, 0,
                              MemberAdvert.unpack(reply["pd"]).r_key)
        rig.sim.run(until=rig.sim.now + 2 * MS)
        switch_ports = {port.name for port in rig.switch.ports}
        rendered = {(name in switch_ports) for name, _raw, packet in captured
                    if packet._wire is not None}
        # Template-built at a NIC, rewritten at the switch (scatter,
        # gather, MAC swap with the image patched in place), and frames
        # that never carried an image (CM).
        assert rendered == {False, True}
        assert True in kept_image and False in kept_image
        assert any(packet._wire is None for _name, _raw, packet in captured)


class EagerTap:
    """The digest's definition, with nothing deferred: every frame is
    packed and hashed inside its own tap call."""

    def __init__(self, sim):
        self.sim = sim
        self.digest = hashlib.sha256()
        #: (tapped at a switch port, carries a wire image, BTH opcode).
        self.seen = Counter()

    def __call__(self, src, packet):
        icrc = packet.meta.get("icrc") or 0
        self.digest.update(packet.pack()
                           + struct.pack("!dI", self.sim.now, icrc))
        upper = packet._upper
        self.seen[(type(src.device).__name__ == "Switch",
                   packet._wire is not None,
                   upper[0].opcode.name if upper else None)] += 1

    def hexdigest(self):
        return self.digest.hexdigest()


def _tapped_run(make_tap, scenario):
    """4 KiB closed loop (four packets per write), 16 in flight, n=4,
    tapped from the first CM frame on."""
    cluster = build_cluster("p4ce", 4, value_size=4096, seed=7,
                            async_reconfig=scenario == "leader_kill")
    tap = make_tap(cluster.sim)
    for port in cluster.switch.ports:
        if port.link is not None:
            port.link.tap = tap
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, 4096, window=16)
    driver.start()
    cluster.run_for(0.3 * MS)
    if scenario == "leader_kill":
        # Asynchronous reconfiguration: the successor serves over the
        # direct plane while its switch group is being configured.
        before = driver.commits
        cluster.kill_app(0)
        assert cluster.sim.run_until(lambda: driver.commits >= before + 50,
                                     timeout=20 * MS)
    driver.stop()
    cluster.run_for(0.1 * MS)
    return cluster, tap, driver


class TestDigestTapIsASnapshot:
    """``DigestTap`` hashes each frame inside its tap call; the digest
    must be the one an eager pack-and-hash tap computes, although frames
    are rewritten in place after their tap call (the last multicast leg,
    every MAC swap)."""

    @pytest.mark.parametrize("scenario", ["switch", "leader_kill"])
    def test_agrees_with_an_eager_reference_tap(self, scenario):
        fastlane.flags.flight_fusion = False  # both sides see real frames
        try:
            cluster, eager, driver = _tapped_run(EagerTap, scenario)
            _, buffered, again = _tapped_run(DigestTap, scenario)
        finally:
            fastlane.enable()
        assert again.commits == driver.commits > 100
        assert buffered.hexdigest() == eager.hexdigest()
        seen = eager.seen
        # Image-less CM frames during set-up, MAC-rewritten heartbeat
        # reads the switch L3-forwards with their image kept.
        assert seen[(False, False, None)] and seen[(True, False, None)]
        assert seen[(True, True, "RDMA_READ_REQUEST")]
        assert seen[(True, True, "RDMA_READ_RESPONSE_ONLY")]
        writes_in = seen[(False, True, "RDMA_WRITE_LAST")]
        writes_out = seen[(True, True, "RDMA_WRITE_LAST")]
        assert seen[(False, True, "RDMA_WRITE_MIDDLE")] > writes_in  # multi-packet
        leader = cluster.leader
        if scenario == "switch":
            # One write in, four scattered legs out (the last of them
            # the ingress packet itself, rewritten).
            assert leader.node_id == 0 and leader.comm_mode == "switch"
            assert writes_out > 3 * writes_in > 0
        else:
            assert leader.node_id != 0 and leader.comm_mode == "direct"
            assert writes_out == writes_in > 0

    def test_a_frame_rewritten_after_its_tap_call_keeps_its_digest(self):
        sim = Simulator()
        tap = DigestTap(sim)
        reference = hashlib.sha256()
        alloc = AddressAllocator()
        (mac_a, ip_a), (mac_b, ip_b) = alloc.next_host(), alloc.next_host()
        frames = ((b"no image", False), (b"image and bytes", True),
                  (bytearray(b"image, mutable payload"), True))
        for i, (payload, rendered) in enumerate(frames):
            sim.run(until=(i + 1) * 100.0)
            packet = Packet(EthernetHeader(mac_a, mac_b),
                            Ipv4Header(ip_b, ip_a),
                            UdpHeader(49152, params.ROCE_UDP_PORT),
                            payload=payload, has_icrc=True).finalize()
            packet.meta["icrc"] = 0xDEADBEEF + i
            if rendered:
                raw = packet.pack()
                packet._wire = (raw[:-len(payload) - 4], raw[-4:])
            raw = packet.pack()
            reference.update(raw + struct.pack("!dI", sim.now, 0xDEADBEEF + i))
            tap(None, packet)
            # Rewritten in place right after the tap call: headers (the
            # image patched, not dropped) and a mutable payload.
            packet.rewrite_macs(mac_a, mac_b)
            assert (packet._wire is not None) == rendered
            if type(payload) is bytearray:
                payload[:5] = b"IMAGE"
            assert packet.pack() != raw
            assert tap.hexdigest() == reference.hexdigest()
