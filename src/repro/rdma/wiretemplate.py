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
``pack_into`` patches, one or two ``_set``-based header clones and a CRC
over the ~25-41 byte suffix seeded with the cached payload CRC.  No
header thaws, no ``finalize``, no full re-pack.  The suffix and its CRC
belong to :mod:`repro.rdma.icrc`: a template renders its zeroed suffix
with ``header_suffix`` over its own header objects and patches it with
``patched_icrc``; this module knows only the frame layout.

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
``repro.rdma.icrc.header_suffix`` packs for the installed headers, so
digests and ICRC values are bit-identical with the lane on or off -- the
randomized equivalence tests and ``tests/test_fastlane_flags.py`` both
pin this, and every receiver's ``check_icrc`` recomputes the value from
the installed headers.
"""

from __future__ import annotations

import struct
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
    _S_BTH,
)
from .icrc import fold, header_suffix, patched_icrc, payload_crc, pseudo_header
from .opcodes import Opcode

_OP_ACK = Opcode.ACKNOWLEDGE

# Frame offsets of the patched fields (Ethernet II + IPv4 + UDP prefix).
_BTH_OFF = EthernetHeader.SIZE + Ipv4Header.SIZE + UdpHeader.SIZE
_ACKPSN_OFF = _BTH_OFF + BTH_ACKPSN_OFFSET
_EXT_OFF = _BTH_OFF + Bth.SIZE  # RETH (scatter) or AETH (gather)
# The varying word opens either extension, in the frame as in the suffix.
assert RETH_VA_OFFSET == AETH_WORD_OFFSET == 0

_U32 = struct.Struct("!I")

_ICRC_ZEROS = b"\x00\x00\x00\x00"

# Template extension codecs: the varying word of the header that follows
# the BTH (None: no extension).
_EXT_RETH = struct.Struct("!Q")  # virtual address
_EXT_AETH = _U32                 # syndrome|MSN


class _WireTemplate:
    """One pre-rendered rewrite for one flow shape (see module docstring)."""

    __slots__ = ("block", "suffix", "eth", "ipv4", "udp", "bth", "reth",
                 "upper_size", "ext")

    def __init__(self, block: bytes, suffix: bytes, eth: EthernetHeader,
                 ipv4: Ipv4Header, udp: UdpHeader, bth: Bth,
                 reth: Optional[Reth], upper_size: Tuple[int, int],
                 ext: Optional[struct.Struct]):
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
           r_key: int, src_mac, src_ip,
           ext: Optional[struct.Struct]) -> _WireTemplate:
    """Render the rewritten wire image of ``packet`` with the per-packet
    fields (PSN word, VA / AETH word) zeroed for patching."""
    ipv4 = packet._ipv4
    udp = packet._udp
    upper = packet._upper
    eth2 = EthernetHeader(dst_mac, src_mac, packet._eth.ethertype)
    ipv42 = Ipv4Header(src_ip, dst_ip, ipv4.protocol, ipv4.total_length,
                       ipv4.ttl, ipv4.identification, ipv4.dscp)
    udp2 = UdpHeader(udp.src_port, dst_port, udp.length)
    # Freeze before warming the pack caches so the cached version matches
    # the frozen counter (freeze flips its sign).
    eth2.freeze()
    ipv42.freeze()
    udp2.freeze()
    bth2 = upper[0].clone_rewrite(0, False)
    _set(bth2, "dest_qp", dest_qp)
    covered = [bth2]
    reth2: Optional[Reth] = None
    if ext is _EXT_RETH:
        reth2 = upper[1].clone_rewrite(0)
        _set(reth2, "r_key", r_key)
        covered.append(reth2)
    elif ext is _EXT_AETH:
        covered.append(Aeth(0, 0))
    block = b"".join([eth2.pack(), ipv42.pack(), udp2.pack()]
                     + [h.pack() for h in covered])
    upper_size = (len(covered), sum(h.SIZE for h in covered))
    return _WireTemplate(block, header_suffix(ipv42, udp2, covered), eth2,
                         ipv42, udp2, bth2, reth2, upper_size, ext)


def _install(packet: Packet, tmpl: _WireTemplate, upper: list,
             block: bytes, icrc: int) -> None:
    """Point ``packet`` at the patched image and the template's headers,
    stamped with ``icrc`` (the caller computed it off :func:`payload_crc`)."""
    packet._eth = tmpl.eth
    packet._ipv4 = tmpl.ipv4
    packet._udp = tmpl.udp
    packet._upper = upper
    # The lower headers alias the template: mark them shared so a write
    # through the packet properties thaws a private copy instead of
    # corrupting every other leg of the flow.  The upper clones are ours.
    packet._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    packet._upper_size = tmpl.upper_size
    packet._wire = (block, _ICRC_ZEROS)
    packet.meta["icrc"] = icrc


def scatter_rewrite(packet: Packet, templates: Dict[tuple, _WireTemplate],
                    pre: tuple, src_mac, src_ip) -> bool:
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
                    None if reth is None else reth.virtual_address + pre[5])
    return True


def install_scatter(packet: Packet, tmpl: _WireTemplate, psn: int,
                    ack_req: bool, va: Optional[int]) -> None:
    """Patch a copy of ``tmpl`` with one leg's PSN/AckReq word and, for a
    leg with a RETH, its virtual address (``va`` None: no RETH), and point
    ``packet`` at it."""
    block, icrc = scatter_patch(tmpl, ((1 << 31) if ack_req else 0) | psn,
                                va, payload_crc(packet))
    new_upper = [tmpl.bth.clone_rewrite(psn, ack_req)]
    if va is not None:
        new_upper.append(tmpl.reth.clone_rewrite(va))
    _install(packet, tmpl, new_upper, block, icrc)


def scatter_patch(tmpl: _WireTemplate, ack_word: int, word: Optional[int],
                  seed: int) -> Tuple[bytes, int]:
    """One leg's header block and ICRC: ``tmpl`` patched with the leg's
    AckReq|PSN word and, when the template has an extension, its varying
    ``word`` (a scatter leg's RETH virtual address, a forwarded ACK's AETH
    syndrome|MSN; None without one); ``seed`` is the payload's CRC.  The
    one definition :func:`install_scatter`, :func:`gather_rewrite` and the
    columnar digest tap share."""
    block = bytearray(tmpl.block)
    _U32.pack_into(block, _ACKPSN_OFF, ack_word)
    ext = tmpl.ext
    if ext is not None:
        ext.pack_into(block, _EXT_OFF, word)
    return bytes(block), patched_icrc(tmpl.suffix, ack_word, ext, word, seed)


def gather_rewrite(packet: Packet, templates: Dict[tuple, _WireTemplate],
                   leader_mac, leader_ip, leader_port: int, leader_qpn: int,
                   src_mac, src_ip, leader_psn: int,
                   new_syndrome: int) -> bool:
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
    block, icrc = scatter_patch(
        tmpl, ((1 << 31) if ack_req else 0) | leader_psn,
        (new_syndrome << 24) | aeth.msn, payload_crc(packet))
    new_upper = [tmpl.bth.clone_rewrite(leader_psn, ack_req),
                 aeth.clone_rewrite(new_syndrome, aeth.msn)]
    _install(packet, tmpl, new_upper, block, icrc)
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
    leaves the byte patching to the digest tap's ``absorb_scatter`` (or to
    materialization).
    Every field ``_build`` reads is part of the fingerprint or invariant
    under the rewrite itself, so building from an already-rewritten
    launch packet yields the identical template.
    """
    tmpl = templates.get(fp)
    if tmpl is None:
        tmpl = _build(packet, pre[0], pre[1], pre[2], pre[3], pre[6],
                      src_mac, src_ip, _EXT_RETH if fp[0] == 2 else None)
        templates[fp] = tmpl
    return tmpl


# ---------------------------------------------------------------------------
# NIC TX frame templates
# ---------------------------------------------------------------------------

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
        self.pseudo = pseudo_header(ipv4, udp)
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
        self.state = fold(base.pseudo + bth_static, 0)


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
    tail, icrc = ack_patch(tmpl, psn, syndrome, msn)
    upper = [Bth(_OP_ACK, dest_qp, psn), Aeth(syndrome, msn)]
    base = tmpl.base
    payload = b""
    pkt = Packet(base.eth, base.ipv4, base.udp, upper, payload, has_icrc=True)
    pkt._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    pkt._upper_size = (2, Bth.SIZE + Aeth.SIZE)
    pkt._payload_crc = (payload, 0)  # the CRC32 of b"" is 0
    pkt._wire = (tmpl.prefix + tail, _ICRC_ZEROS)
    pkt.meta["icrc"] = icrc
    return pkt


def ack_patch(tmpl: _AckTemplate, psn: int, syndrome: int,
              msn: int) -> Tuple[bytes, int]:
    """One ACK's varying tail (the BTH AckReq|PSN word and the AETH
    syndrome|MSN word) and its ICRC.  The one definition :func:`ack_frame`
    and the columnar digest tap share."""
    tail = _S_ACK_TAIL.pack(psn & PSN_MASK,
                            (syndrome << 24) | (msn & PSN_MASK))
    return tail, fold(tail, tmpl.state)


def tx_frame(templates: Dict[tuple, _TxTemplate], gateway_mac, src_mac,
             src_ip, dst_ip, src_port: int, dst_port: int, upper: list,
             payload: bytes) -> Optional[Packet]:
    """Build an outbound RoCE frame from a per-QP TX template.

    Returns None for header stacks with non-ICRC-covered extensions
    (atomics) -- the caller falls back to the object-build path.  The
    template is keyed by (upper size, payload length); ``gateway_mac`` is
    revalidated by identity so re-cabling rebuilds instead of lying.
    """
    # One fused pass: type-check, size and pack together (the common
    # stacks are one or two headers; a list+join per frame costs more
    # than the unrolled concatenations).
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
    elif n == 1:
        h0 = upper[0]
        t0 = type(h0)
        if t0 is not Bth and t0 is not Reth and t0 is not Aeth:
            return None
        upper_size = t0.SIZE
        tail = h0.pack()
    else:
        upper_size = 0
        parts = []
        for h in upper:
            t = type(h)
            if t is not Bth and t is not Reth and t is not Aeth:
                return None
            upper_size += t.SIZE
            parts.append(h.pack())
        tail = b"".join(parts)
    key = (upper_size, len(payload))
    tmpl = templates.get(key)
    if tmpl is None or tmpl.gateway_mac is not gateway_mac:
        tmpl = _TxTemplate(gateway_mac, src_mac, src_ip, dst_ip, src_port,
                           dst_port, upper_size, len(payload))
        templates[key] = tmpl
    pkt = Packet(tmpl.eth, tmpl.ipv4, tmpl.udp, upper, payload, has_icrc=True)
    pkt._shared = _SH_ETH | _SH_IPV4 | _SH_UDP
    pkt._upper_size = (len(upper), upper_size)
    pkt._wire = (tmpl.prefix + tail, _ICRC_ZEROS)
    pkt.meta["icrc"] = fold(tmpl.pseudo + tail, payload_crc(pkt))
    return pkt
