"""Unit tests for packets and links."""

import pytest

from repro import params
from repro.net import (
    EthernetHeader,
    Ipv4Address,
    Ipv4Header,
    Link,
    MacAddress,
    Packet,
    Port,
    UdpHeader,
    connect,
)
from repro.rdma.headers import Bth, Reth
from repro.rdma.opcodes import Opcode
from repro.sim import Simulator


def make_roce_packet(payload=b"x" * 64):
    eth = EthernetHeader(MacAddress(1), MacAddress(2))
    ipv4 = Ipv4Header(Ipv4Address(1), Ipv4Address(2))
    udp = UdpHeader(49152, params.ROCE_UDP_PORT)
    bth = Bth(Opcode.RDMA_WRITE_ONLY, 0x12, 7, ack_req=True)
    reth = Reth(0x1000, 0xABCD, len(payload))
    pkt = Packet(eth, ipv4, udp, [bth, reth], payload, has_icrc=True)
    pkt.finalize()
    return pkt


class TestPacket:
    def test_wire_size_is_byte_accurate(self):
        pkt = make_roce_packet(b"x" * 64)
        # 14 eth + 20 ip + 8 udp + 12 bth + 16 reth + 64 payload + 4 icrc
        # + 4 fcs
        assert pkt.wire_size == 14 + 20 + 8 + 12 + 16 + 64 + 4 + 4

    def test_finalize_sets_lengths(self):
        pkt = make_roce_packet(b"x" * 64)
        assert pkt.udp.length == 8 + 12 + 16 + 64 + 4
        assert pkt.ipv4.total_length == 20 + pkt.udp.length

    def test_pack_parse_roundtrip_l4(self):
        pkt = make_roce_packet()
        parsed = Packet.parse(pkt.pack())
        assert parsed.ipv4.src == pkt.ipv4.src
        assert parsed.udp.dst_port == params.ROCE_UDP_PORT
        # Upper headers stay as raw payload at the net layer.
        assert len(parsed.payload) == 12 + 16 + 64 + 4

    def test_copy_deep_copies_headers_shares_payload(self):
        pkt = make_roce_packet()
        clone = pkt.copy()
        clone.upper[0].psn = 99
        clone.ipv4.dst = Ipv4Address(42)
        assert pkt.upper[0].psn == 7
        assert pkt.ipv4.dst == Ipv4Address(2)
        assert clone.payload is pkt.payload

    def test_copy_carries_meta(self):
        pkt = make_roce_packet()
        pkt.meta["x"] = 1
        assert pkt.copy().meta["x"] == 1


class TestCopyOnWriteAliasing:
    """The multicast fan-out guarantee (documented in ``Packet.copy``):
    after a packet is replicated N ways, rewriting one replica's headers
    is invisible in every sibling and in the original (shared frozen
    headers, thaw on write)."""

    def test_fanout_rewrites_invisible_to_siblings(self):
        pkt = make_roce_packet()
        stamped = pkt.pack()
        replicas = [pkt.copy() for _ in range(5)]
        for i, rep in enumerate(replicas):
            rep.ipv4.dst = Ipv4Address(100 + i)
            rep.upper[0].dest_qp = 0x100 + i
            rep.upper[0].psn = 1000 + i
            rep.upper[1].virtual_address = 0x2000 + 0x10 * i
            rep.upper[1].r_key = 0xB000 + i
            rep.finalize()
        # The original saw none of the rewrites.
        assert pkt.ipv4.dst == Ipv4Address(2)
        assert pkt.upper[0].dest_qp == 0x12 and pkt.upper[0].psn == 7
        assert pkt.upper[1].virtual_address == 0x1000
        assert pkt.upper[1].r_key == 0xABCD
        assert pkt.pack() == stamped
        # Each replica kept exactly its own rewrite (no cross-talk).
        for i, rep in enumerate(replicas):
            assert rep.ipv4.dst == Ipv4Address(100 + i)
            assert rep.upper[0].dest_qp == 0x100 + i
            assert rep.upper[0].psn == 1000 + i
            assert rep.upper[1].virtual_address == 0x2000 + 0x10 * i
            assert rep.upper[1].r_key == 0xB000 + i
        assert len({rep.pack() for rep in replicas}) == len(replicas)

    def test_untouched_replica_packs_identically(self):
        pkt = make_roce_packet()
        clone = pkt.copy()
        assert clone.pack() == pkt.pack()
        assert clone.wire_size == pkt.wire_size

    def test_rewriting_original_invisible_in_replicas(self):
        pkt = make_roce_packet()
        replicas = [pkt.copy() for _ in range(3)]
        pkt.upper[0].psn = 4242
        pkt.ipv4.dst = Ipv4Address(77)
        for rep in replicas:
            assert rep.upper[0].psn == 7
            assert rep.ipv4.dst == Ipv4Address(2)

    def test_payload_replacement_does_not_alias(self):
        pkt = make_roce_packet()
        clone = pkt.copy()
        clone.payload = b"y" * 64
        clone.finalize()
        assert pkt.payload == b"x" * 64
        assert clone.payload == b"y" * 64


class Sink:
    def __init__(self):
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append((port, packet))


class TestLink:
    def test_delivery_with_serialization_and_propagation(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        link = connect(sim, pa, pb, rate_bps=100_000_000_000,
                       propagation_ns=200)
        pkt = make_roce_packet(b"x" * 64)
        pa.send(pkt)
        sim.run()
        assert len(b.received) == 1
        expected = params.serialization_ns(pkt.wire_size) + 200
        assert abs(sim.now - expected) < 1e-6

    def test_back_to_back_frames_queue_fifo(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        connect(sim, pa, pb)
        for _ in range(10):
            pa.send(make_roce_packet(b"y" * 1024))
        sim.run()
        assert len(b.received) == 10
        ser = params.serialization_ns(make_roce_packet(b"y" * 1024).wire_size)
        assert abs(sim.now - (10 * ser + params.LINK_PROPAGATION_NS)) < 1e-6

    def test_full_duplex_directions_independent(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        connect(sim, pa, pb)
        pa.send(make_roce_packet())
        pb.send(make_roce_packet())
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_down_link_drops_everything(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        link = connect(sim, pa, pb)
        link.set_down()
        pa.send(make_roce_packet())
        sim.run()
        assert b.received == []
        assert link.stats_from(pa).dropped == 1

    def test_inflight_frame_lost_when_link_goes_down(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        link = connect(sim, pa, pb)
        pa.send(make_roce_packet())
        sim.schedule(1, link.set_down)  # before arrival
        sim.run()
        assert b.received == []

    def test_byte_counters(self):
        sim = Simulator()
        a, b = Sink(), Sink()
        pa, pb = Port(a, "a"), Port(b, "b")
        link = connect(sim, pa, pb)
        pkt = make_roce_packet()
        pa.send(pkt)
        sim.run()
        stats = link.stats_from(pa)
        assert stats.frames == 1
        assert stats.bytes == pkt.wire_size

    def test_min_frame_padding_in_serialization(self):
        # A tiny frame still occupies at least 64 B + 20 B overhead.
        assert params.serialization_ns(10) == params.serialization_ns(64)

    def test_cannot_double_connect_port(self):
        sim = Simulator()
        pa, pb, pc = Port(None, "a"), Port(None, "b"), Port(None, "c")
        connect(sim, pa, pb)
        with pytest.raises(ValueError):
            connect(sim, pa, pc)

    def test_unplugged_port_send_returns_false(self):
        port = Port(None, "x")
        assert port.send(make_roce_packet()) is False
