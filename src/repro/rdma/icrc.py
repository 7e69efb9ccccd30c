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
(DESIGN.md documents the simplification versus the IBTA bit-exact
polynomial coverage: the masked-field *set* matches the spec; reserved
regions are compressed).  The properties that matter are preserved:

* any change to a covered field invalidates the checksum;
* changes to masked fields (TTL, DSCP) do not;
* the switch's egress rewrite must call :func:`compute_icrc` again.

Incremental computation
-----------------------

The canonical string is ordered *payload first*, then the covered header
fields.  The payload is by far the largest covered region and never
changes in flight, while the switch egress rewrite touches only a few
dozen header bytes per replica.  Because ``zlib.crc32(b, crc32(a)) ==
crc32(a + b)``, the CRC over the payload can be computed once, cached on
the packet (keyed by payload object identity -- payload bytes are
immutable and shared across copy-on-write copies), and used to seed the
CRC over the short header suffix.  A whole-result cache validated by
header identities and version counters makes the receiver-side
``check_icrc`` of an unmodified packet a cache hit.

Both lanes -- incremental and full -- hash the same canonical string, so
they produce bit-identical values; ``tests/test_fastlane_flags.py``
asserts this by running whole workloads with the lane on and off.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from .. import fastlane
from ..net import Packet
from .headers import Aeth, Bth, Reth

#: Header types covered by the ICRC (atomics ride in BTH+AtomicEth which
#: P4CE never rewrites in flight; matching the seed's covered set).
_COVERED = (Bth, Reth, Aeth)

#: Pseudo-header codec: protocol, UDP dst port, UDP length -- the
#: concatenation of the covered IP/UDP scalar fields.
_S_PSEUDO = struct.Struct("!BHH")

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


def _header_suffix(packet: Packet, ipv4, udp) -> bytes:
    """Covered header fields in canonical order (hashed after the payload).

    The covered set: IP addresses + protocol (TTL/DSCP/checksum are
    mutable in flight and masked, represented by their absence), UDP dst
    port and length (the source port is entropy, masked like the spec's
    variant fields for ECMP-friendly middleboxes), then BTH/RETH/AETH.
    """
    upper = packet._upper
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
    parts = [
        ipv4.src.to_bytes(),
        ipv4.dst.to_bytes(),
        _S_PSEUDO.pack(ipv4.protocol, udp.dst_port, udp.length),
    ]
    for header in upper:
        if isinstance(header, _COVERED):
            parts.append(header.pack())
    return b"".join(parts)


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
    payload = packet._payload
    if not fastlane.flags.incremental_icrc:
        return zlib.crc32(payload + _header_suffix(packet, ipv4, udp)) & 0xFFFFFFFF

    upper = packet._upper
    state = packet._icrc_state
    if state is not None:
        # Raw ``_hver`` compares: freeze flips the counter's sign without
        # changing content, which reads as a miss here -- a rare, harmless
        # recompute.  Writes only ever increment the counters, so the
        # per-stack version *sum* changing is a sound invalidation signal.
        if (state[8] is payload and state[1] is ipv4 and state[3] is udp
                and state[2] == ipv4._hver and state[4] == udp._hver
                and state[5] is upper and state[6] == len(upper)):
            vsum = 0
            for h in upper:
                vsum += h._hver
            if vsum == state[7]:
                return state[0]

    cached = packet._payload_crc
    if cached is not None and cached[0] is payload:
        payload_crc = cached[1]
    else:
        payload_crc = zlib.crc32(payload)
        packet._payload_crc = (payload, payload_crc)
    value = zlib.crc32(_header_suffix(packet, ipv4, udp), payload_crc) & 0xFFFFFFFF
    vsum = 0
    for h in upper:
        vsum += h._hver
    packet._icrc_state = (
        value, ipv4, ipv4._hver, udp, udp._hver, upper, len(upper), vsum,
        payload,
    )
    return value


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
