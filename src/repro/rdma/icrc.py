"""ICRC: the RoCE v2 invariant CRC.

Every RoCE packet ends with a 4-byte CRC covering the fields that do not
change in flight: the IP pseudo-header (with mutable fields like TTL
masked to ones), UDP, BTH (with the resync bit masked) and everything
above it.  The receiving NIC silently drops packets whose ICRC does not
match -- which is exactly why transparently rewriting RDMA packets in a
switch is delicate: after P4CE rewrites the destination QP, PSN, VA and
R_key, it *must* recompute the ICRC, or every replica would discard the
scattered writes.

We compute a CRC32 over a canonical byte string of the covered fields
(DESIGN.md §7 lists where it departs from the IBTA definition: payload
first, UDP source port masked, reserved regions compressed, the value
carried beside the frame bytes).  The properties that matter are
preserved:

* any change to a covered field invalidates the checksum;
* changes to masked fields (TTL, DSCP) do not;
* the switch's egress rewrite must call :func:`compute_icrc` again.

Running form
------------

The canonical string is ordered *payload first*, then the covered header
fields.  The payload is by far the largest covered region and never
changes in flight, while the switch egress rewrite touches only a few
dozen header bytes per replica.  Because ``zlib.crc32(b, crc32(a)) ==
crc32(a + b)``, the CRC over the payload is computed once, cached on the
packet (:func:`payload_crc`, keyed by payload object identity -- payload
bytes are immutable and shared across copy-on-write copies), and seeds
:func:`fold` over the short header suffix.  Nothing else is cached: every
:func:`check_icrc` re-derives the suffix from the headers the packet
carries, so a frame stamped with a wrong value is dropped.

This module is the one owner of the suffix layout.  The wire templates
(:mod:`repro.rdma.wiretemplate`) render their zeroed suffix with
:func:`header_suffix`, patch it with :func:`patched_icrc`, take the TX
pseudo-header from :func:`pseudo_header` and seed :func:`fold` with the
payload CRC; they hold no suffix codec or offset of their own.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from ..net import Packet
from .headers import Aeth, Bth, Reth

#: Header types covered by the ICRC (atomics ride in BTH+AtomicEth which
#: P4CE never rewrites in flight; matching the seed's covered set).
_COVERED = (Bth, Reth, Aeth)

#: Pseudo-header codec: IP source and destination, protocol, UDP dst
#: port, UDP length -- the covered IP/UDP scalar fields, in order.
_S_PSEUDO = struct.Struct("!IIBHH")

# One-shot codecs for the three header stacks RC traffic actually uses:
# pseudo-header + BTH (writes mid-message), + BTH/AETH (ACKs and read
# responses), + BTH/RETH (first/only writes, read requests).  Each packs
# the exact byte string the general parts-list path produces -- the field
# layouts mirror Bth._pack / Aeth._pack / Reth._pack, and the randomized
# equivalence tests pin the two paths together.
_SUF_BASE = "!IIBHHBBHII"  # ip.src, ip.dst, proto, dport, ulen | BTH fields
_S_SUF_B = struct.Struct(_SUF_BASE)
_S_SUF_BA = struct.Struct(_SUF_BASE + "I")    # + AETH word
_S_SUF_BR = struct.Struct(_SUF_BASE + "QII")  # + RETH va/rkey/len

# Suffix offsets of the two words a template patches: the canonical
# string is <pseudo-header | BTH | ext>, so the AckReq|PSN word is the
# last BTH field and the extension (RETH VA or AETH word) follows it.
_SUF_ACKPSN_OFF = _S_SUF_B.size - 4
_SUF_EXT_OFF = _S_SUF_B.size

_U32 = struct.Struct("!I")


def pseudo_header(ipv4, udp) -> bytes:
    """The covered IP/UDP fields (TTL/DSCP/checksum are mutable in flight
    and masked, represented by their absence; the UDP source port is
    entropy for ECMP-friendly middleboxes, masked likewise)."""
    return _S_PSEUDO.pack(ipv4.src.value, ipv4.dst.value, ipv4.protocol,
                          udp.dst_port, udp.length)


def header_suffix(ipv4, udp, upper: list) -> bytes:
    """Covered header fields in canonical order (hashed after the
    payload): the pseudo-header, then BTH/RETH/AETH."""
    n = len(upper)
    if n and type(upper[0]) is Bth:
        bth = upper[0]
        flags = 0x40 if bth.solicited else 0
        ack_psn = ((1 << 31) if bth.ack_req else 0) | bth.psn
        if n == 1:
            return _S_SUF_B.pack(
                ipv4.src.value, ipv4.dst.value, ipv4.protocol,
                udp.dst_port, udp.length,
                bth.opcode, flags, bth.partition_key, bth.dest_qp, ack_psn)
        if n == 2:
            second = upper[1]
            kind = type(second)
            if kind is Aeth:
                return _S_SUF_BA.pack(
                    ipv4.src.value, ipv4.dst.value, ipv4.protocol,
                    udp.dst_port, udp.length,
                    bth.opcode, flags, bth.partition_key, bth.dest_qp, ack_psn,
                    (second.syndrome << 24) | second.msn)
            if kind is Reth:
                return _S_SUF_BR.pack(
                    ipv4.src.value, ipv4.dst.value, ipv4.protocol,
                    udp.dst_port, udp.length,
                    bth.opcode, flags, bth.partition_key, bth.dest_qp, ack_psn,
                    second.virtual_address, second.r_key, second.dma_length)
    # General path: arbitrary header stacks (atomics, multi-extension).
    parts = [pseudo_header(ipv4, udp)]
    for header in upper:
        if isinstance(header, _COVERED):
            parts.append(header.pack())
    return b"".join(parts)


def fold(covered: bytes, seed: int) -> int:
    """CRC32 of ``covered`` continued from ``seed``, the CRC of what the
    canonical string holds before it (the payload, or a template's
    constant prefix)."""
    return zlib.crc32(covered, seed) & 0xFFFFFFFF


def patched_icrc(suffix: bytes, ack_word: int, ext: Optional[struct.Struct],
                 word: int, seed: int) -> int:
    """ICRC of a template suffix (its varying fields zeroed) with the
    AckReq|PSN word and, when ``ext`` is a codec, the extension's leading
    ``word`` (RETH VA or AETH syndrome|MSN) patched in; ``seed`` is the
    payload's CRC."""
    buf = bytearray(suffix)
    _U32.pack_into(buf, _SUF_ACKPSN_OFF, ack_word)
    if ext is not None:
        ext.pack_into(buf, _SUF_EXT_OFF, word)
    return zlib.crc32(buf, seed) & 0xFFFFFFFF


def compute_icrc(packet: Packet) -> int:
    """ICRC over the packet's invariant fields.

    Reads the packet's private header slots directly: computing a CRC must
    not thaw copy-on-write headers (the public accessors privatize shared
    headers because they may be written through).
    """
    ipv4 = packet._ipv4
    udp = packet._udp
    if ipv4 is None or udp is None:
        raise ValueError("not a routable RoCE packet")
    return zlib.crc32(header_suffix(ipv4, udp, packet._upper),
                      payload_crc(packet)) & 0xFFFFFFFF


def payload_crc(packet: Packet) -> int:
    """CRC32 of the packet's payload, the seed of its running-form ICRC:
    cached on the packet, valid while the payload object is the same."""
    payload = packet._payload
    cached = packet._payload_crc
    if cached is not None and cached[0] is payload:
        return cached[1]
    crc = zlib.crc32(payload)
    packet._payload_crc = (payload, crc)
    return crc


def stamp_icrc(packet: Packet) -> None:
    """Compute and attach the ICRC (sender NIC / switch egress)."""
    packet.meta["icrc"] = compute_icrc(packet)


def check_icrc(packet: Packet) -> bool:
    """Validate the attached ICRC (receiver NIC).

    A packet with no attached ICRC is treated as corrupt -- hardware
    never emits one without.
    """
    attached: Optional[int] = packet.meta.get("icrc")
    if attached is None:
        return False
    return attached == compute_icrc(packet)
