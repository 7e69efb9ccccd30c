"""Scatter/gather rewrite templates: patch pre-rendered wire images.

P4CE's egress rewrites the same handful of fields into every packet of a
flow: Ethernet/IP destinations, UDP destination port, destination QP,
R_key and the per-connection PSN offset and VA base are *constants* of
the (group, replica) pair; only the PSN/AckReq word, the RETH virtual
address (scatter) or the AETH syndrome/MSN word (gather) vary per packet.
The slow path re-derives all of it per packet: thaw four copy-on-write
headers, a dozen guarded field writes, ``finalize()`` and a full ICRC
header-suffix re-pack.

A :class:`_WireTemplate` is built once per flow epoch instead.  It
pre-renders:

* the **wire image** of the rewritten header block (Ethernet + IPv4 with
  its checksum + UDP + BTH [+ RETH/AETH]) with the variable fields left
  zero;
* the matching **ICRC suffix** (the canonical covered-fields string of
  :mod:`repro.rdma.icrc`) with the same fields zeroed;
* frozen, shared Ethernet/IPv4/UDP header objects -- every leg of the
  flow points at the same three objects, protected by the packet's
  copy-on-write bits.

Emitting a leg then costs two small ``bytearray`` copies, two to four
``pack_into`` patches, one or two ``_set``-based header clones and a
``zlib.crc32`` over the ~25-41 byte suffix seeded with the cached payload
CRC.  No header thaws, no ``finalize``, no full re-pack.

A template is only valid while the flow keeps sending packets with the
same invariant fields (TTL, identification, DSCP, UDP source port,
opcode, payload length, ...).  Those fields form the template's
**fingerprint**: the per-packet lookup keys a dict of templates by the
fingerprint tuple, so a flow that alternates packet shapes (WRITE_FIRST /
MIDDLE / LAST) keeps one template per shape instead of thrashing.
Control-plane invalidation is the caller's job: the P4CE program stores
scatter template dicts in a :class:`repro.switch.tables.FlowVerdictCache`
that any egress connection table write flushes, and gather dicts on the
cached ``_GatherPre`` (which the flow cache already regenerates on any
table write).

Determinism: the patched wire image is byte-for-byte what the slow path's
``pack()`` produces, and the patched suffix is byte-for-byte what
``repro.rdma.icrc._header_suffix`` packs, so digests and ICRC values are
bit-identical with the lane on or off -- the randomized equivalence tests
and ``tests/test_fastlane_flags.py`` both pin this.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Optional, Tuple

from ..net.headers import EthernetHeader, Ipv4Header, UdpHeader, _set
from ..net.packet import ICRC_BYTES, _SH_ETH, _SH_IPV4, _SH_UDP, Packet
from .headers import (
    AETH_WORD_OFFSET,
    Aeth,
    BTH_ACKPSN_OFFSET,
    Bth,
    PSN_MASK,
    QPN_MASK,
    RETH_VA_OFFSET,
    Reth,
    _S_AETH,
    _S_BTH,
    _S_RETH,
)
from .icrc import _S_SUF_B, _S_SUF_BA, _S_SUF_BR
from .opcodes import Opcode

_OP_ACK = Opcode.ACKNOWLEDGE

# Frame offsets of the patched fields (Ethernet II + IPv4 + UDP prefix).
_BTH_OFF = EthernetHeader.SIZE + Ipv4Header.SIZE + UdpHeader.SIZE
_ACKPSN_OFF = _BTH_OFF + BTH_ACKPSN_OFFSET
_EXT_OFF = _BTH_OFF + Bth.SIZE  # RETH (scatter) or AETH (gather)

# Suffix offsets: the canonical string is <pseudo-header | BTH | ext>, so
# the AckReq|PSN word is the last BTH field and the extension follows it.
_SUF_ACKPSN_OFF = _S_SUF_B.size - 4
_SUF_EXT_OFF = _S_SUF_B.size
assert _EXT_OFF - _ACKPSN_OFF == _SUF_EXT_OFF - _SUF_ACKPSN_OFF == 4

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

_ICRC_ZEROS = b"\x00\x00\x00\x00"

# Template extension kinds (which header follows the BTH).
_EXT_NONE = 0
_EXT_RETH = 1
_EXT_AETH = 2


class _WireTemplate:
    """One pre-rendered rewrite for one flow shape (see module docstring)."""

    __slots__ = ("block", "suffix", "eth", "ipv4", "udp", "bth", "reth",
                 "upper_size", "ext")

    def __init__(self, block: bytes, suffix: bytes, eth: EthernetHeader,
                 ipv4: Ipv4Header, udp: UdpHeader, bth: Bth,
                 reth: Optional[Reth], upper_size: Tuple[int, int], ext: int):
        self.block = block
        self.suffix = suffix
        self.eth = eth
        self.ipv4 = ipv4
        self.udp = udp
        self.bth = bth
        self.reth = reth
        self.upper_size = upper_size
        self.ext = ext


def _build(packet: Packet, dst_mac, dst_ip, dst_port: int, dest_qp: int,
           r_key: int, src_mac, src_ip, ext: int) -> _WireTemplate:
    """Render the rewritten wire image of ``packet`` with the per-packet
    fields (PSN word, VA / AETH word) zeroed for patching."""
    ipv4 = packet._ipv4
    udp = packet._udp
    upper = packet._upper
    bth = upper[0]
    eth2 = EthernetHeader(dst_mac, src_mac, packet._eth.ethertype)
    ipv42 = Ipv4Header(src_ip, dst_ip, ipv4.protocol, ipv4.total_length,
                       ipv4.ttl, ipv4.identification, ipv4.dscp)
    udp2 = UdpHeader(udp.src_port, dst_port, udp.length)
    # Freeze before warming the pack caches so the cached version matches
    # the frozen counter (freeze flips its sign).
    eth2.freeze()
    ipv42.freeze()
    udp2.freeze()
    bth2 = bth.clone_rewrite(0, False)
    _set(bth2, "dest_qp", dest_qp)
    flags = 0x40 if bth.solicited else 0
    opcode = int(bth.opcode)
    pkey = bth.partition_key
    parts = [eth2.pack(), ipv42.pack(), udp2.pack(),
             _S_BTH.pack(opcode, flags, pkey, dest_qp, 0)]
    reth2: Optional[Reth] = None
    if ext == _EXT_RETH:
        reth_in = upper[1]
        reth2 = reth_in.clone_rewrite(0)
        _set(reth2, "r_key", r_key)
        parts.append(_S_RETH.pack(0, r_key, reth_in.dma_length))
        suffix = _S_SUF_BR.pack(src_ip.value, dst_ip.value, ipv4.protocol,
                                dst_port, udp.length, opcode, flags, pkey,
                                dest_qp, 0, 0, r_key, reth_in.dma_length)
        upper_size = (2, Bth.SIZE + Reth.SIZE)
    elif ext == _EXT_AETH:
        parts.append(_S_AETH.pack(0))
        suffix = _S_SUF_BA.pack(src_ip.value, dst_ip.value, ipv4.protocol,
                                dst_port, udp.length, opcode, flags, pkey,
                                dest_qp, 0, 0)
        upper_size = (2, Bth.SIZE + Aeth.SIZE)
    else:
        suffix = _S_SUF_B.pack(src_ip.value, dst_ip.value, ipv4.protocol,
                               dst_port, udp.length, opcode, flags, pkey,
                               dest_qp, 0)
        upper_size = (1, Bth.SIZE)
    return _WireTemplate(b"".join(parts), suffix, eth2, ipv42, udp2, bth2,
                         reth2, upper_size, ext)


def _install(packet: Packet, tmpl: _WireTemplate, upper: list,
             block: bytearray, suffix: bytearray, stamp: bool) -> None:
    """Point ``packet`` at the patched image and the template's headers."""
    payload = packet._payload
    cached = packet._payload_crc
    if cached is not None and cached[0] is payload:
        payload_crc = cached[1]
    else:
        payload_crc = zlib.crc32(payload)
    icrc = zlib.crc32(bytes(suffix), payload_crc) & 0xFFFFFFFF
    ipv4 = tmpl.ipv4
    udp = tmpl.udp
    packet._eth = tmpl.eth
    packet._ipv4 = ipv4
    packet._udp = udp
    packet._upper = upper
    # The lower headers alias the template: mark them shared so a write
    # through the packet properties thaws a private copy instead of
    # corrupting every other leg of the flow.  The upper clones are ours.
    packet._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    packet._upper_size = tmpl.upper_size
    packet._payload_crc = (payload, payload_crc)
    # Fresh clones sit at version 0, so the upper version-sum is 0; the
    # shape matches repro.rdma.icrc.compute_icrc's cache tuple, making the
    # receiver's check_icrc a pure cache hit.
    packet._icrc_state = (icrc, ipv4, ipv4._hver, udp, udp._hver, upper,
                          len(upper), 0, payload)
    packet._wire = (bytes(block), _ICRC_ZEROS)
    if stamp:
        packet.meta["icrc"] = icrc


def scatter_rewrite(packet: Packet, templates: Dict[tuple, _WireTemplate],
                    pre: tuple, src_mac, src_ip, stamp: bool) -> bool:
    """Egress rewrite of one multicast leg via a template.

    ``pre`` is the P4CE egress connection tuple ``(mac, ip, udp_port, qpn,
    psn_offset, va_base, r_key)``; ``templates`` is the per-replication-id
    fingerprint -> template dict (invalidated by the caller on any
    control-plane write).  Returns False on an unsupported packet shape --
    the caller falls back to the slow header-object rewrite.
    """
    upper = packet._upper
    n = len(upper)
    if n == 0 or not packet.has_icrc:
        return False
    bth = upper[0]
    if type(bth) is not Bth:
        return False
    reth = None
    if n == 2:
        reth = upper[1]
        if type(reth) is not Reth:
            return False
    elif n != 1:
        return False
    if packet._ipv4 is None or packet._udp is None:
        return False
    tmpl = scatter_template(packet, templates, scatter_fingerprint(packet),
                            pre, src_mac, src_ip)
    install_scatter(packet, tmpl, (bth.psn + pre[4]) & PSN_MASK, bth.ack_req,
                    None if reth is None else reth.virtual_address + pre[5],
                    stamp)
    return True


def install_scatter(packet: Packet, tmpl: _WireTemplate, psn: int,
                    ack_req: bool, va: Optional[int], stamp: bool) -> None:
    """Patch a copy of ``tmpl`` with one leg's PSN/AckReq word and, for a
    leg with a RETH, its virtual address (``va`` None: no RETH), and point
    ``packet`` at it."""
    ack_word = ((1 << 31) if ack_req else 0) | psn
    block = bytearray(tmpl.block)
    suffix = bytearray(tmpl.suffix)
    _U32.pack_into(block, _ACKPSN_OFF, ack_word)
    _U32.pack_into(suffix, _SUF_ACKPSN_OFF, ack_word)
    new_upper = [tmpl.bth.clone_rewrite(psn, ack_req)]
    if va is not None:
        _U64.pack_into(block, _EXT_OFF + RETH_VA_OFFSET, va)
        _U64.pack_into(suffix, _SUF_EXT_OFF, va)
        new_upper.append(tmpl.reth.clone_rewrite(va))
    _install(packet, tmpl, new_upper, block, suffix, stamp)


def gather_rewrite(packet: Packet, templates: Dict[tuple, _WireTemplate],
                   leader_mac, leader_ip, leader_port: int, leader_qpn: int,
                   src_mac, src_ip, leader_psn: int, new_syndrome: int,
                   stamp: bool) -> bool:
    """Rewrite a forwarded (aggregated) ACK toward the leader via a
    template.  Same contract as :func:`scatter_rewrite`; the per-packet
    variables are the PSN word and the AETH syndrome|MSN word."""
    upper = packet._upper
    if len(upper) != 2 or not packet.has_icrc:
        return False
    bth = upper[0]
    aeth = upper[1]
    if type(bth) is not Bth or type(aeth) is not Aeth:
        return False
    ipv4 = packet._ipv4
    udp = packet._udp
    if ipv4 is None or udp is None:
        return False
    fp = (int(bth.opcode), bth.solicited, bth.partition_key,
          packet._eth.ethertype, ipv4.protocol, ipv4.ttl,
          ipv4.identification, ipv4.dscp, udp.src_port,
          len(packet._payload))
    tmpl = templates.get(fp)
    if tmpl is None:
        tmpl = _build(packet, leader_mac, leader_ip, leader_port, leader_qpn,
                      0, src_mac, src_ip, _EXT_AETH)
        templates[fp] = tmpl
    ack_req = bth.ack_req
    ack_word = ((1 << 31) if ack_req else 0) | leader_psn
    aeth_word = (new_syndrome << 24) | aeth.msn
    block = bytearray(tmpl.block)
    suffix = bytearray(tmpl.suffix)
    _U32.pack_into(block, _ACKPSN_OFF, ack_word)
    _U32.pack_into(suffix, _SUF_ACKPSN_OFF, ack_word)
    _U32.pack_into(block, _EXT_OFF + AETH_WORD_OFFSET, aeth_word)
    _U32.pack_into(suffix, _SUF_EXT_OFF, aeth_word)
    new_upper = [tmpl.bth.clone_rewrite(leader_psn, ack_req),
                 aeth.clone_rewrite(new_syndrome, aeth.msn)]
    _install(packet, tmpl, new_upper, block, suffix, stamp)
    return True


def scatter_fingerprint(packet: Packet) -> tuple:
    """Template key of a stamped WRITE leg: ``Bth`` alone (``WRITE_MIDDLE``
    / ``WRITE_LAST``) or ``Bth`` + ``Reth`` (``WRITE_FIRST`` /
    ``WRITE_ONLY``).

    The one definition :func:`scatter_rewrite` and flight fusion's express
    egress both key the template dict with, so virtual and materialized
    legs share entries.  The leading header count is the shape
    :func:`scatter_template` renders.  The caller guarantees the shape.
    """
    upper = packet._upper
    bth = upper[0]
    n = len(upper)
    ipv4 = packet._ipv4
    udp = packet._udp
    return (n, int(bth.opcode), bth.solicited, bth.partition_key,
            packet._eth.ethertype, ipv4.protocol, ipv4.ttl,
            ipv4.identification, ipv4.dscp, udp.src_port,
            len(packet._payload), upper[1].dma_length if n == 2 else 0)


def scatter_template(packet: Packet, templates: Dict[tuple, _WireTemplate],
                     fp: tuple, pre: tuple, src_mac, src_ip) -> _WireTemplate:
    """Get-or-build the scatter template for fingerprint ``fp``.

    The lookup/build halves of :func:`scatter_rewrite`, without patching
    any packet: flight fusion resolves the template once per virtual leg and
    defers the byte patching to the digest tap (or to materialization).
    Every field ``_build`` reads is part of the fingerprint or invariant
    under the rewrite itself, so building from an already-rewritten
    launch packet yields the identical template.
    """
    tmpl = templates.get(fp)
    if tmpl is None:
        tmpl = _build(packet, pre[0], pre[1], pre[2], pre[3], pre[6],
                      src_mac, src_ip, _EXT_RETH if fp[0] == 2 else _EXT_NONE)
        templates[fp] = tmpl
    return tmpl


# ---------------------------------------------------------------------------
# NIC TX frame templates
# ---------------------------------------------------------------------------

# Suffix pseudo-header: src, dst, protocol, UDP dst port, UDP length --
# byte-identical to the address-bytes + _S_PSEUDO concatenation the slow
# suffix packs (and to the leading fields of the one-shot suffix codecs).
_S_TX_PSEUDO = struct.Struct("!IIBHH")


class _TxTemplate:
    """Pre-rendered Ethernet/IPv4/UDP prefix for one (QP, frame length).

    The RoCE headers above UDP vary per packet (PSN, VA, syndrome, ...),
    but their packed bytes double as the ICRC suffix tail -- each covered
    codec packs exactly the fields the canonical string wants, in order --
    so a TX frame is <prefix | upper packs | payload | icrc> with no
    header-object churn below the transport."""

    __slots__ = ("prefix", "pseudo", "eth", "ipv4", "udp", "gateway_mac",
                 "upper_size")

    def __init__(self, gateway_mac, src_mac, src_ip, dst_ip, src_port: int,
                 dst_port: int, upper_size: int, payload_len: int):
        udp_len = UdpHeader.SIZE + upper_size + payload_len + ICRC_BYTES
        eth = EthernetHeader(gateway_mac, src_mac)
        ipv4 = Ipv4Header(src_ip, dst_ip, total_length=Ipv4Header.SIZE + udp_len)
        udp = UdpHeader(src_port, dst_port, udp_len)
        eth.freeze()
        ipv4.freeze()
        udp.freeze()
        self.prefix = eth.pack() + ipv4.pack() + udp.pack()
        self.pseudo = _S_TX_PSEUDO.pack(src_ip.value, dst_ip.value,
                                        ipv4.protocol, dst_port, udp_len)
        self.eth = eth
        self.ipv4 = ipv4
        self.udp = udp
        self.gateway_mac = gateway_mac
        self.upper_size = upper_size


#: Per-ACK varying fields: the BTH AckReq|PSN word and the AETH word.
_S_ACK_TAIL = struct.Struct("!II")


class _AckTemplate:
    """Fully pre-rendered ACK frame for one QP (the most common frame on
    the wire: every replicated write is answered by one).

    Everything except the PSN and AETH syndrome|MSN words is a constant
    of the connection: opcode (ACKNOWLEDGE), flags, partition key and
    destination QP extend the Ethernet/IPv4/UDP prefix by the first 8
    BTH bytes, and the ICRC state over <pseudo | static BTH prefix> is
    precomputed (the payload is empty, so its seed CRC is 0).  Emitting
    an ACK is then: pack 8 bytes, one crc32 over them, one Packet."""

    __slots__ = ("base", "prefix", "state")

    def __init__(self, base: _TxTemplate, dest_qp: int):
        bth_static = _S_BTH.pack(int(_OP_ACK), 0, 0xFFFF,
                                 dest_qp & QPN_MASK, 0)[:8]
        self.base = base
        self.prefix = base.prefix + bth_static
        self.state = zlib.crc32(base.pseudo + bth_static)


def ack_template(templates: Dict[tuple, _TxTemplate], gateway_mac, src_mac,
                 src_ip, dst_ip, src_port: int, dst_port: int,
                 dest_qp: int) -> _AckTemplate:
    """Get-or-build the per-QP ACK template (``gateway_mac`` revalidated
    by identity so re-cabling rebuilds instead of lying).

    Factored out of :func:`ack_frame` so flight fusion's columnar digest tap
    can warm and reference the same template object without building a
    ``Packet`` per virtual ACK.
    """
    tmpl = templates.get("ack")
    if tmpl is None or tmpl.base.gateway_mac is not gateway_mac:
        base = _TxTemplate(gateway_mac, src_mac, src_ip, dst_ip, src_port,
                           dst_port, Bth.SIZE + Aeth.SIZE, 0)
        tmpl = _AckTemplate(base, dest_qp)
        templates["ack"] = tmpl
    return tmpl


def ack_frame(templates: Dict[tuple, _TxTemplate], gateway_mac, src_mac,
              src_ip, dst_ip, src_port: int, dst_port: int, dest_qp: int,
              psn: int, syndrome: int, msn: int) -> Packet:
    """Build an ACK via the per-QP pre-rendered frame.

    Byte- and ICRC-identical to ``tx_frame`` with ``[Bth(ACKNOWLEDGE,
    dest_qp, psn), Aeth(syndrome, msn)]`` and an empty payload -- the
    equivalence tests pin the two paths together.
    """
    tmpl = ack_template(templates, gateway_mac, src_mac, src_ip, dst_ip,
                        src_port, dst_port, dest_qp)
    tail = _S_ACK_TAIL.pack(psn & PSN_MASK,
                            (syndrome << 24) | (msn & PSN_MASK))
    icrc = zlib.crc32(tail, tmpl.state) & 0xFFFFFFFF
    upper = [Bth(_OP_ACK, dest_qp, psn), Aeth(syndrome, msn)]
    base = tmpl.base
    ipv4 = base.ipv4
    udp = base.udp
    payload = b""
    pkt = Packet(base.eth, ipv4, udp, upper, payload, has_icrc=True)
    pkt._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    pkt._upper_size = (2, Bth.SIZE + Aeth.SIZE)
    pkt._payload_crc = (payload, 0)  # zlib.crc32(b"") == 0
    pkt._icrc_state = (icrc, ipv4, ipv4._hver, udp, udp._hver, upper, 2, 0,
                       payload)
    pkt._wire = (tmpl.prefix + tail, _ICRC_ZEROS)
    pkt.meta["icrc"] = icrc
    return pkt


def tx_frame(templates: Dict[tuple, _TxTemplate], gateway_mac, src_mac,
             src_ip, dst_ip, src_port: int, dst_port: int, upper: list,
             payload: bytes) -> Optional[Packet]:
    """Build an outbound RoCE frame from a per-QP TX template.

    Returns None for header stacks with non-ICRC-covered extensions
    (atomics) -- the caller falls back to the object-build path.  The
    template is keyed by (upper size, payload length); ``gateway_mac`` is
    revalidated by identity so re-cabling rebuilds instead of lying.
    """
    # One fused pass: type-check, size, pack and version-sum together
    # (the common stacks are one or two headers; a list+join per frame
    # costs more than the unrolled concatenations).
    n = len(upper)
    if n == 2:
        h0 = upper[0]
        h1 = upper[1]
        t0 = type(h0)
        t1 = type(h1)
        if (t0 is not Bth and t0 is not Reth and t0 is not Aeth) or \
                (t1 is not Bth and t1 is not Reth and t1 is not Aeth):
            return None
        upper_size = t0.SIZE + t1.SIZE
        tail = h0.pack() + h1.pack()
        vsum = h0._hver + h1._hver
    elif n == 1:
        h0 = upper[0]
        t0 = type(h0)
        if t0 is not Bth and t0 is not Reth and t0 is not Aeth:
            return None
        upper_size = t0.SIZE
        tail = h0.pack()
        vsum = h0._hver
    else:
        upper_size = 0
        vsum = 0
        parts = []
        for h in upper:
            t = type(h)
            if t is not Bth and t is not Reth and t is not Aeth:
                return None
            upper_size += t.SIZE
            parts.append(h.pack())
            vsum += h._hver
        tail = b"".join(parts)
    key = (upper_size, len(payload))
    tmpl = templates.get(key)
    if tmpl is None or tmpl.gateway_mac is not gateway_mac:
        tmpl = _TxTemplate(gateway_mac, src_mac, src_ip, dst_ip, src_port,
                           dst_port, upper_size, len(payload))
        templates[key] = tmpl
    suffix = tmpl.pseudo + tail
    payload_crc = zlib.crc32(payload)
    icrc = zlib.crc32(suffix, payload_crc) & 0xFFFFFFFF
    ipv4 = tmpl.ipv4
    udp = tmpl.udp
    pkt = Packet(tmpl.eth, ipv4, udp, upper, payload, has_icrc=True)
    pkt._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    pkt._upper_size = (len(upper), upper_size)
    pkt._payload_crc = (payload, payload_crc)
    pkt._icrc_state = (icrc, ipv4, ipv4._hver, udp, udp._hver, upper,
                       len(upper), vsum, payload)
    pkt._wire = (tmpl.prefix + tail, _ICRC_ZEROS)
    pkt.meta["icrc"] = icrc
    return pkt
