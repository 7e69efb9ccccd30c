"""ICRC tests: integrity end-to-end, and why the switch must recompute it."""

import random
import struct
import sys
import zlib

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
from repro.p4ce import P4ceProgram
from repro.rdma import WcStatus, wiretemplate
from repro.rdma.headers import Aeth, AtomicEth, Bth, Reth
from repro.rdma.icrc import check_icrc, compute_icrc, header_suffix, stamp_icrc
from repro.rdma.opcodes import Opcode

sys.path.insert(0, "tests")
from test_p4ce_plane import MS, MemberAdvert, P4ceRig  # noqa: E402


def roce_packet(payload=b"data" * 16, psn=7, qp=0x12):
    pkt = Packet(
        EthernetHeader(MacAddress(1), MacAddress(2)),
        Ipv4Header(Ipv4Address(0x0A000001), Ipv4Address(0x0A000002)),
        UdpHeader(49152, params.ROCE_UDP_PORT),
        [Bth(Opcode.RDMA_WRITE_ONLY, qp, psn),
         Reth(0x7000, 0xABCD, 64)],
        payload, has_icrc=True)
    pkt.finalize()
    return pkt


class TestIcrcProperties:
    def test_stamp_then_check(self):
        pkt = roce_packet()
        stamp_icrc(pkt)
        assert check_icrc(pkt)

    def test_unstamped_packet_fails(self):
        assert not check_icrc(roce_packet())

    @pytest.mark.parametrize("mutate", [
        lambda p: setattr(p.upper[0], "psn", 8),
        lambda p: setattr(p.upper[0], "dest_qp", 0x13),
        lambda p: setattr(p.upper[1], "virtual_address", 0x7008),
        lambda p: setattr(p.upper[1], "r_key", 0xABCE),
        lambda p: setattr(p.ipv4, "dst", Ipv4Address(0x0A000003)),
        lambda p: setattr(p, "payload", b"DATA" * 16),
    ])
    def test_covered_field_change_invalidates(self, mutate):
        pkt = roce_packet()
        stamp_icrc(pkt)
        mutate(pkt)
        pkt.finalize()
        assert not check_icrc(pkt)

    @pytest.mark.parametrize("mutate", [
        lambda p: setattr(p.ipv4, "ttl", 63),
        lambda p: setattr(p.ipv4, "dscp", 4),
        lambda p: setattr(p.udp, "src_port", 50000),
        lambda p: setattr(p.eth, "dst", MacAddress(9)),
    ])
    def test_masked_field_change_preserved(self, mutate):
        """Routable fields (TTL, DSCP, MACs, UDP entropy port) are masked
        from the ICRC so plain routers never break it."""
        pkt = roce_packet()
        stamp_icrc(pkt)
        mutate(pkt)
        assert check_icrc(pkt)

    def test_copy_carries_stamp(self):
        pkt = roce_packet()
        stamp_icrc(pkt)
        assert check_icrc(pkt.copy())

    def test_deterministic(self):
        assert compute_icrc(roce_packet()) == compute_icrc(roce_packet())


def _random_roce_packet(rng: random.Random) -> Packet:
    """A randomized RoCE packet over the header shapes RC traffic uses."""
    bth = Bth(rng.choice([Opcode.RDMA_WRITE_ONLY, Opcode.RDMA_WRITE_FIRST,
                          Opcode.ACKNOWLEDGE, Opcode.SEND_ONLY]),
              rng.randrange(1 << 24), rng.randrange(1 << 24),
              ack_req=rng.random() < 0.5, solicited=rng.random() < 0.5,
              partition_key=rng.randrange(1 << 16))
    shape = rng.randrange(4)
    if shape == 0:
        upper = [bth]
    elif shape == 1:
        upper = [bth, Aeth(rng.randrange(256), rng.randrange(1 << 24))]
    elif shape == 2:
        upper = [bth, Reth(rng.randrange(1 << 48), rng.randrange(1 << 32),
                           rng.randrange(1 << 16))]
    else:
        upper = [bth, AtomicEth(rng.randrange(1 << 48), rng.randrange(1 << 32),
                                rng.randrange(1 << 64))]
    payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 257)))
    pkt = Packet(
        EthernetHeader(MacAddress(rng.randrange(1 << 48)),
                       MacAddress(rng.randrange(1 << 48))),
        Ipv4Header(Ipv4Address(rng.randrange(1 << 32)),
                   Ipv4Address(rng.randrange(1 << 32))),
        UdpHeader(49152 + rng.randrange(1024), params.ROCE_UDP_PORT),
        upper, payload, has_icrc=True)
    pkt.finalize()
    return pkt


def _reference_suffix(pkt: Packet) -> bytes:
    """The canonical covered-fields string, assembled from the address
    bytes and each covered header's own codec."""
    ipv4, udp = pkt.ipv4, pkt.udp
    return b"".join(
        [ipv4.src.to_bytes(), ipv4.dst.to_bytes(),
         struct.pack("!BHH", ipv4.protocol, udp.dst_port, udp.length)]
        + [h.pack() for h in pkt.upper if isinstance(h, (Bth, Reth, Aeth))])


def _reference_icrc(pkt: Packet) -> int:
    """The ICRC in one pass over the whole canonical string."""
    return zlib.crc32(pkt.payload + _reference_suffix(pkt)) & 0xFFFFFFFF


class TestIncrementalEqualsFull:
    """The running form (payload CRC seeding the header suffix) must agree
    bit-for-bit with one CRC over the whole canonical string."""

    def test_randomized_packets(self):
        rng = random.Random(0x1C2C)
        for _ in range(200):
            pkt = _random_roce_packet(rng)
            incremental = compute_icrc(pkt)
            # Second call exercises the cached payload CRC.
            assert compute_icrc(pkt) == incremental
            assert incremental == _reference_icrc(pkt)

    def test_randomized_rewrites(self):
        """Switch-egress-style rewrites: the cached payload CRC must
        recombine with the fresh header suffix to the full value."""
        rng = random.Random(0xE9)
        for _ in range(100):
            pkt = _random_roce_packet(rng)
            compute_icrc(pkt)  # warm the payload CRC
            bth = pkt.upper[0]
            bth.dest_qp = rng.randrange(1 << 24)
            bth.psn = rng.randrange(1 << 24)
            pkt.ipv4.dst = Ipv4Address(rng.randrange(1 << 32))
            for header in pkt.upper[1:]:
                if isinstance(header, Reth):
                    header.virtual_address = rng.randrange(1 << 48)
                    header.r_key = rng.randrange(1 << 32)
            pkt.finalize()
            assert compute_icrc(pkt) == _reference_icrc(pkt)

    def test_suffix_codecs_match_general_path(self):
        """The one-shot struct codecs for [Bth], [Bth, Aeth] and
        [Bth, Reth] must produce the same canonical bytes as the
        parts-list fallback (which AtomicEth stacks always take)."""
        rng = random.Random(0xACE)
        for _ in range(200):
            pkt = _random_roce_packet(rng)
            assert (header_suffix(pkt.ipv4, pkt.udp, pkt.upper)
                    == _reference_suffix(pkt))

    def test_masked_fields_do_not_invalidate_cached_value(self):
        pkt = roce_packet()
        stamp_icrc(pkt)
        before = compute_icrc(pkt)
        pkt.ipv4.ttl = 9
        pkt.ipv4.dscp = 11
        pkt.udp.src_port = 50123
        assert compute_icrc(pkt) == before
        assert check_icrc(pkt)

    def test_each_covered_field_invalidates(self):
        rng = random.Random(7)
        mutators = [
            lambda p: setattr(p.upper[0], "dest_qp", p.upper[0].dest_qp ^ 1),
            lambda p: setattr(p.upper[0], "psn", p.upper[0].psn ^ 1),
            lambda p: setattr(p.upper[1], "virtual_address",
                              p.upper[1].virtual_address ^ 1),
            lambda p: setattr(p.upper[1], "r_key", p.upper[1].r_key ^ 1),
            lambda p: setattr(p, "payload", b"Y" + p.payload[1:]),
        ]
        for mutate in mutators:
            pkt = roce_packet(payload=bytes(rng.randrange(256)
                                            for _ in range(64)))
            before = compute_icrc(pkt)
            mutate(pkt)
            pkt.finalize()
            assert compute_icrc(pkt) != before


class _ForgetfulProgram(P4ceProgram):
    """A P4CE program that rewrites every scattered leg's headers but
    forgets the ICRC: it puts back the value the leader stamped."""

    def on_egress(self, out_port, replication_id, packet):
        stale = packet.meta.get("icrc")
        forwarded = super().on_egress(out_port, replication_id, packet)
        if stale is not None:
            packet.meta["icrc"] = stale
        return forwarded


def _write_one(rig, value, run_ms):
    """Post one write through the rig's group; return the completions."""
    qp, cq, result = rig.create_group()
    advert = MemberAdvert.unpack(result["pd"])
    done = []
    cq.on_completion = done.append
    rig.leader.post_write(qp, value, 0, advert.r_key)
    rig.sim.run(until=rig.sim.now + run_ms * MS)
    return done


def _assert_write_dropped(rig, done, size):
    """Every replica dropped the rewritten packets at the ICRC check: no
    byte landed, and the leader's write times out."""
    assert sum(r.nic.icrc_drops for r in rig.replicas) > 0
    for region in rig.logs.values():
        assert region.read(region.addr, size) == b"\x00" * size
    assert done and done[0].status is WcStatus.RETRY_EXCEEDED


class TestSwitchMustRecompute:
    def test_p4ce_without_icrc_recompute_delivers_nothing(self):
        """The negative proof: a P4CE program that rewrites headers but
        forgets the ICRC gets every scattered write discarded by the
        replicas' NICs, and the leader's write times out."""
        rig = P4ceRig(program_class=_ForgetfulProgram)
        _assert_write_dropped(rig, _write_one(rig, b"doomed", 5), 6)

    def test_p4ce_with_recompute_passes_checks(self):
        rig = P4ceRig()
        done = _write_one(rig, b"intact", 2)
        assert done and done[0].ok
        assert all(r.nic.icrc_drops == 0 for r in rig.replicas)
        assert rig.leader.nic.icrc_drops == 0

    def test_wrong_template_icrc_is_dropped(self, monkeypatch):
        """The receivers check the template path too: a scatter leg
        stamped with a wrong template ICRC is dropped, however the
        frame was built."""
        monkeypatch.setattr(fastlane.flags, "flight_fusion", False)
        patched_icrc = wiretemplate.patched_icrc
        calls = [0]

        def flipped(*args):
            calls[0] += 1
            return patched_icrc(*args) ^ 1

        monkeypatch.setattr(wiretemplate, "patched_icrc", flipped)
        rig = P4ceRig()
        _assert_write_dropped(rig, _write_one(rig, b"forged", 5), 6)
        assert calls[0] > 0  # the legs were template-built
