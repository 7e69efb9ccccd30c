"""Fast-lane structure tests: rewrite templates, link delivery.

Two properties the ``repro.fastlane`` machinery must uphold:

* **Template equivalence** -- a packet emitted by patching a pre-rendered
  wire template carries exactly the bytes (and ICRC) that fully packing
  its header objects produces, for randomized rewrite fields;
* **Delivery order** -- a back-to-back burst over a link arrives in send
  order at the same timestamps with the lanes on or off (event ordering
  itself is the kernel's business: ``tests/test_sim_kernel.py``).
"""

import random

import pytest

from repro import fastlane, params
from repro.net import (
    EthernetHeader,
    Ipv4Address,
    Ipv4Header,
    MacAddress,
    Packet,
    UdpHeader,
)
from repro.rdma import wiretemplate
from repro.rdma.headers import Aeth, AtomicEth, Bth, parse_roce, Reth
from repro.rdma.icrc import compute_icrc
from repro.rdma.opcodes import Opcode
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _fastlane_on():
    """Tests toggle lanes; always leave the process fully enabled."""
    fastlane.enable()
    yield
    fastlane.enable()


def _assert_template_matches_full_pack(pkt):
    """The patched wire image and stamped ICRC must equal a from-scratch
    serialization of the very header objects the rewrite installed."""
    wire_fast = pkt.pack()
    icrc_fast = pkt.meta["icrc"]
    pkt._wire = None  # drop the template image; pack() re-serializes
    assert pkt.pack() == wire_fast
    assert compute_icrc(pkt) == icrc_fast


class TestScatterTemplateEquivalence:
    def _write_packet(self, rng, payload, flow):
        # ``flow`` holds the (src_port, ttl, identification, solicited)
        # constants of one RoCE flow: they are part of the template
        # fingerprint, so a real flow repeats them while PSN/VA/addresses
        # churn per packet.
        src_port, ttl, ident, solicited = flow
        pkt = Packet(
            EthernetHeader(MacAddress(rng.getrandbits(48)),
                           MacAddress(rng.getrandbits(48))),
            Ipv4Header(Ipv4Address(rng.getrandbits(32)),
                       Ipv4Address(rng.getrandbits(32))),
            UdpHeader(src_port, params.ROCE_UDP_PORT),
            [Bth(Opcode.RDMA_WRITE_ONLY, rng.getrandbits(24),
                 rng.getrandbits(24), ack_req=rng.random() < 0.5,
                 solicited=solicited),
             Reth(rng.getrandbits(48), rng.getrandbits(32), len(payload))],
            payload, has_icrc=True)
        pkt.ipv4.ttl = ttl
        pkt.ipv4.identification = ident
        return pkt.finalize()

    def test_randomized_fields_match_full_pack(self):
        rng = random.Random(0xC0FFEE)
        templates = {}
        src_mac = MacAddress(rng.getrandbits(48))
        src_ip = Ipv4Address(rng.getrandbits(32))
        payload = bytes(rng.getrandbits(8) for _ in range(48))
        flow = (rng.randrange(1024, 65536), rng.randrange(1, 256),
                rng.getrandbits(16), rng.random() < 0.5)
        # One (group, replica) rewrite: constants of the pair...
        pre = (MacAddress(rng.getrandbits(48)), Ipv4Address(rng.getrandbits(32)),
               rng.randrange(1024, 65536), rng.getrandbits(24),
               rng.getrandbits(24), rng.getrandbits(40), rng.getrandbits(32))
        for round_no in range(32):
            # ...exercised across many per-packet PSNs/VAs so later rounds
            # hit the template built in round one.
            pkt = self._write_packet(rng, payload, flow)
            in_bth, in_reth = pkt.upper
            in_psn, in_va = in_bth.psn, in_reth.virtual_address
            in_ack = in_bth.ack_req
            assert wiretemplate.scatter_rewrite(
                pkt, templates, pre, src_mac, src_ip)
            _assert_template_matches_full_pack(pkt)
            # The patched fields really are the rewritten ones.
            parsed = Packet.parse(pkt.pack())
            bth, reth, _aeth, _body = parse_roce(parsed.payload)
            assert parsed.eth.dst == pre[0] and parsed.eth.src == src_mac
            assert parsed.ipv4.dst == pre[1] and parsed.ipv4.src == src_ip
            assert parsed.udp.dst_port == pre[2]
            assert bth.dest_qp == pre[3]
            assert bth.psn == (in_psn + pre[4]) & 0xFFFFFF
            assert bth.ack_req == in_ack
            assert reth.virtual_address == in_va + pre[5]
            assert reth.r_key == pre[6]
        # Same flow shape throughout: one template, not one per packet.
        assert len(templates) == 1

    def test_gather_rewrite_matches_full_pack(self):
        rng = random.Random(0xACED)
        templates = {}
        src_mac = MacAddress(rng.getrandbits(48))
        src_ip = Ipv4Address(rng.getrandbits(32))
        leader = (MacAddress(rng.getrandbits(48)),
                  Ipv4Address(rng.getrandbits(32)),
                  rng.randrange(1024, 65536), rng.getrandbits(24))
        src_port = rng.randrange(1024, 65536)  # flow constant (fingerprinted)
        for round_no in range(32):
            pkt = Packet(
                EthernetHeader(MacAddress(rng.getrandbits(48)),
                               MacAddress(rng.getrandbits(48))),
                Ipv4Header(Ipv4Address(rng.getrandbits(32)),
                           Ipv4Address(rng.getrandbits(32))),
                UdpHeader(src_port, params.ROCE_UDP_PORT),
                [Bth(Opcode.ACKNOWLEDGE, rng.getrandbits(24),
                     rng.getrandbits(24)),
                 Aeth(rng.getrandbits(8), rng.getrandbits(24))],
                b"", has_icrc=True).finalize()
            leader_psn = rng.getrandbits(24)
            syndrome = rng.getrandbits(8)
            msn = pkt.upper[1].msn
            assert wiretemplate.gather_rewrite(
                pkt, templates, leader[0], leader[1], leader[2], leader[3],
                src_mac, src_ip, leader_psn, syndrome)
            _assert_template_matches_full_pack(pkt)
            parsed = Packet.parse(pkt.pack())
            bth, _reth, aeth, _body = parse_roce(parsed.payload)
            assert parsed.ipv4.dst == leader[1]
            assert bth.dest_qp == leader[3]
            assert bth.psn == leader_psn
            assert aeth.syndrome == syndrome and aeth.msn == msn
        assert len(templates) == 1

    def test_tx_frame_matches_full_pack(self):
        rng = random.Random(7)
        gateway = MacAddress(rng.getrandbits(48))
        src_mac = MacAddress(rng.getrandbits(48))
        src_ip = Ipv4Address(rng.getrandbits(32))
        dst_ip = Ipv4Address(rng.getrandbits(32))
        templates = {}
        stacks = [
            lambda: [Bth(Opcode.RDMA_WRITE_MIDDLE, rng.getrandbits(24),
                         rng.getrandbits(24))],
            lambda: [Bth(Opcode.RDMA_WRITE_ONLY, rng.getrandbits(24),
                         rng.getrandbits(24), ack_req=True),
                     Reth(rng.getrandbits(48), rng.getrandbits(32), 16)],
            lambda: [Bth(Opcode.ACKNOWLEDGE, rng.getrandbits(24),
                         rng.getrandbits(24)),
                     Aeth(rng.getrandbits(8), rng.getrandbits(24))],
        ]
        for round_no in range(24):
            upper = stacks[round_no % len(stacks)]()
            payload = bytes(rng.getrandbits(8) for _ in range(16)) \
                if round_no % 3 != 2 else b""
            pkt = wiretemplate.tx_frame(
                templates, gateway, src_mac, src_ip, dst_ip,
                rng.randrange(1024, 65536), params.ROCE_UDP_PORT,
                upper, payload)
            assert pkt is not None
            assert pkt.eth.dst == gateway and pkt.ipv4.dst == dst_ip
            _assert_template_matches_full_pack(pkt)

    def test_ack_frame_matches_tx_frame(self):
        """The pre-rendered ACK path and the generic TX-template path must
        emit byte-identical frames (the responder picks between them)."""
        rng = random.Random(0xFACE)
        gateway = MacAddress(rng.getrandbits(48))
        src_mac = MacAddress(rng.getrandbits(48))
        src_ip = Ipv4Address(rng.getrandbits(32))
        dst_ip = Ipv4Address(rng.getrandbits(32))
        src_port = rng.randrange(1024, 65536)
        dest_qp = rng.getrandbits(24)
        ack_templates, tx_templates = {}, {}
        for _ in range(16):
            psn = rng.getrandbits(24)
            syndrome = rng.getrandbits(8)
            msn = rng.getrandbits(24)
            via_ack = wiretemplate.ack_frame(
                ack_templates, gateway, src_mac, src_ip, dst_ip, src_port,
                params.ROCE_UDP_PORT, dest_qp, psn, syndrome, msn)
            via_tx = wiretemplate.tx_frame(
                tx_templates, gateway, src_mac, src_ip, dst_ip, src_port,
                params.ROCE_UDP_PORT,
                [Bth(Opcode.ACKNOWLEDGE, dest_qp, psn),
                 Aeth(syndrome, msn)], b"")
            assert via_ack.pack() == via_tx.pack()
            assert via_ack.meta["icrc"] == via_tx.meta["icrc"]
            _assert_template_matches_full_pack(via_ack)
        assert list(ack_templates) == ["ack"]

    def test_read_response_frame_matches_tx_frame(self):
        """The pre-rendered single-packet read response (the one flight
        fusion's virtual response is rendered with) and the generic
        TX-template path emit byte- and ICRC-identical frames."""
        rng = random.Random(0xBEEF)
        gateway = MacAddress(rng.getrandbits(48))
        src_mac = MacAddress(rng.getrandbits(48))
        src_ip = Ipv4Address(rng.getrandbits(32))
        dst_ip = Ipv4Address(rng.getrandbits(32))
        src_port = rng.randrange(1024, 65536)
        dest_qp = rng.getrandbits(24)
        read_templates, tx_templates = {}, {}
        for length in (0, 1, 32, 1024):
            psn = rng.getrandbits(24)
            syndrome = rng.getrandbits(8)
            msn = rng.getrandbits(24)
            payload = bytes(rng.getrandbits(8) for _ in range(length))
            via_read = wiretemplate.read_response_frame(
                read_templates, gateway, src_mac, src_ip, dst_ip, src_port,
                params.ROCE_UDP_PORT, dest_qp, psn, syndrome, msn, payload)
            via_tx = wiretemplate.tx_frame(
                tx_templates, gateway, src_mac, src_ip, dst_ip, src_port,
                params.ROCE_UDP_PORT,
                [Bth(Opcode.RDMA_READ_RESPONSE_ONLY, dest_qp, psn),
                 Aeth(syndrome, msn)], payload)
            assert via_read.pack() == via_tx.pack()
            assert via_read.meta["icrc"] == via_tx.meta["icrc"]
            assert via_read.wire_size == read_templates[("read", length)].wire
            _assert_template_matches_full_pack(via_read)

    def test_tx_frame_rejects_uncovered_extensions(self):
        upper = [Bth(Opcode.COMPARE_SWAP, 5, 9),
                 AtomicEth(0x1000, 0xAB, 1, 2)]
        assert wiretemplate.tx_frame(
            {}, MacAddress(1), MacAddress(2), Ipv4Address(3), Ipv4Address(4),
            4711, params.ROCE_UDP_PORT, upper, b"") is None


def _roce_frame(tag):
    return Packet(
        EthernetHeader(MacAddress(0x10), MacAddress(0x20)),
        Ipv4Header(Ipv4Address(0x0A000001), Ipv4Address(0x0A000002)),
        UdpHeader(49152, params.ROCE_UDP_PORT),
        [Bth(Opcode.RDMA_WRITE_ONLY, 0x12, 7), Reth(0x7000, 0xABCD, 8)],
        tag, has_icrc=True).finalize()


class TestLinkDeliveryOrdering:
    def test_link_deliveries_preserve_order_and_timing(self):
        from repro.net.link import Link, Port

        def run_lane(on):
            fastlane.flags.set_all(on)
            sim = Simulator()
            got = []

            class Sink:
                def handle_packet(self, port, packet):
                    got.append((sim.now, bytes(packet.payload)))

            a = Port(Sink(), "a")
            b = Port(Sink(), "b")
            Link(sim, a, b)
            # Back-to-back burst: serialization queues FIFO, so arrival
            # order and per-frame timestamps are fully determined.
            for i in range(8):
                assert a.send(_roce_frame(b"frame-%d" % i))
            sim.run()
            return got

        fast = run_lane(True)
        slow = run_lane(False)
        assert fast == slow
        assert [p for _, p in fast] == [b"frame-%d" % i for i in range(8)]
        times = [t for t, _ in fast]
        assert times == sorted(times) and len(set(times)) == len(times)
