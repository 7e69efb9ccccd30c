"""RoCE v2 transport header codecs: BTH, RETH, AETH.

Layouts follow the InfiniBand Architecture Specification (IBTA vol 1):

* **BTH** (Base Transport Header, 12 B) -- opcode, destination QP, PSN,
  AckReq bit.  Present in every RoCE packet; this is where P4CE rewrites
  the destination queue pair and PSN.
* **RETH** (RDMA Extended Transport Header, 16 B) -- virtual address,
  R_key, DMA length.  Present in the first/only packet of a write and in
  read requests; this is where P4CE rewrites VA and R_key per replica.
* **AETH** (ACK Extended Transport Header, 4 B) -- syndrome (ACK+credits
  or NAK code) and MSN.  Present in ACKs and read responses; this is what
  P4CE's gather logic counts and whose credits it aggregates.

These objects double as :class:`repro.net.packet.Packet` upper headers
(``SIZE`` / ``pack`` / ``copy``), and ``parse_roce`` reassembles a header
stack from raw UDP payload bytes -- used by the switch parser tests to
prove object-mode and bytes-mode agree.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from ..net.headers import Header, _set
from .opcodes import AETH_OPCODES, Opcode, RETH_OPCODES

PSN_MASK = 0xFFFFFF
QPN_MASK = 0xFFFFFF

# Byte offsets of the fields P4CE rewrites in flight, *within* each packed
# header.  The scatter/gather rewrite templates (repro.rdma.wiretemplate)
# patch these offsets into a pre-rendered wire image instead of re-packing
# the whole stack; the equivalence tests pin them against the codecs.
BTH_ACKPSN_OFFSET = 8   # 32-bit AckReq|PSN word (after opcode/flags/pkey/QP)
RETH_VA_OFFSET = 0      # 64-bit virtual address opens the RETH
AETH_WORD_OFFSET = 0    # the single 32-bit syndrome|MSN word

# Precompiled codecs (packed per packet on the hot path).
_S_BTH = struct.Struct("!BBHII")
_S_RETH = struct.Struct("!QII")
_S_AETH = struct.Struct("!I")
_S_ATOMIC = struct.Struct("!QIQQ")
_S_ATOMIC_ACK = struct.Struct("!Q")

# Constructors assign with ``_set`` (see repro.net.headers.Header): these
# codecs are built once per packet on the hot path, and the guarded
# __setattr__ only needs to see post-construction mutations.


class Bth(Header):
    """Base Transport Header (12 bytes)."""

    SIZE = 12
    __slots__ = ("opcode", "dest_qp", "psn", "ack_req", "solicited", "partition_key")

    def __init__(self, opcode: Opcode, dest_qp: int, psn: int,
                 ack_req: bool = False, solicited: bool = False,
                 partition_key: int = 0xFFFF):
        _set(self, "_hver", 0)
        _set(self, "_hpk", None)
        _set(self, "opcode",
             opcode if type(opcode) is Opcode else Opcode(opcode))
        _set(self, "dest_qp", dest_qp & QPN_MASK)
        _set(self, "psn", psn & PSN_MASK)
        _set(self, "ack_req", ack_req)
        _set(self, "solicited", solicited)
        _set(self, "partition_key", partition_key)

    def _pack(self) -> bytes:
        flags = 0x40 if self.solicited else 0  # SE bit | MigReq | PadCnt | TVer
        ack_psn = ((1 << 31) if self.ack_req else 0) | self.psn
        return _S_BTH.pack(int(self.opcode), flags, self.partition_key,
                           self.dest_qp, ack_psn)

    @classmethod
    def unpack(cls, data: bytes) -> "Bth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated BTH")
        opcode, flags, pkey, dest_qp, ack_psn = struct.unpack_from("!BBHII", data, 0)
        return cls(Opcode(opcode), dest_qp & QPN_MASK, ack_psn & PSN_MASK,
                   ack_req=bool(ack_psn & (1 << 31)), solicited=bool(flags & 0x40),
                   partition_key=pkey)

    def copy(self) -> "Bth":
        return Bth(self.opcode, self.dest_qp, self.psn, self.ack_req,
                   self.solicited, self.partition_key)

    def clone_rewrite(self, psn: int, ack_req: bool) -> "Bth":
        """Private copy with a rewritten PSN/AckReq word (template path).

        Skips the constructor's Opcode coercion and masking -- the source
        fields are already canonical -- and the guarded ``__setattr__``:
        the clone starts unfrozen at version 0.
        """
        b = Bth.__new__(Bth)
        _set(b, "_hver", 0)
        _set(b, "_hpk", None)
        _set(b, "opcode", self.opcode)
        _set(b, "dest_qp", self.dest_qp)
        _set(b, "psn", psn)
        _set(b, "ack_req", ack_req)
        _set(b, "solicited", self.solicited)
        _set(b, "partition_key", self.partition_key)
        return b

    def __repr__(self) -> str:
        return (f"BTH({self.opcode.name}, qp={self.dest_qp:#x}, psn={self.psn}"
                f"{', ackreq' if self.ack_req else ''})")


class Reth(Header):
    """RDMA Extended Transport Header (16 bytes): VA, R_key, DMA length."""

    SIZE = 16
    __slots__ = ("virtual_address", "r_key", "dma_length")

    def __init__(self, virtual_address: int, r_key: int, dma_length: int):
        _set(self, "_hver", 0)
        _set(self, "_hpk", None)
        _set(self, "virtual_address", virtual_address)
        _set(self, "r_key", r_key)
        _set(self, "dma_length", dma_length)

    def _pack(self) -> bytes:
        return _S_RETH.pack(self.virtual_address, self.r_key, self.dma_length)

    @classmethod
    def unpack(cls, data: bytes) -> "Reth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated RETH")
        va, rkey, length = struct.unpack_from("!QII", data, 0)
        return cls(va, rkey, length)

    def copy(self) -> "Reth":
        return Reth(self.virtual_address, self.r_key, self.dma_length)

    def clone_rewrite(self, virtual_address: int) -> "Reth":
        """Private copy with a rewritten VA (template path); R_key and DMA
        length carry over from ``self`` (the template bakes them)."""
        r = Reth.__new__(Reth)
        _set(r, "_hver", 0)
        _set(r, "_hpk", None)
        _set(r, "virtual_address", virtual_address)
        _set(r, "r_key", self.r_key)
        _set(r, "dma_length", self.dma_length)
        return r

    def __repr__(self) -> str:
        return f"RETH(va={self.virtual_address:#x}, rkey={self.r_key:#x}, len={self.dma_length})"


class Aeth(Header):
    """ACK Extended Transport Header (4 bytes): syndrome + MSN."""

    SIZE = 4
    __slots__ = ("syndrome", "msn")

    def __init__(self, syndrome: int, msn: int):
        if not 0 <= syndrome < 256:
            raise ValueError("syndrome must fit in 8 bits")
        _set(self, "_hver", 0)
        _set(self, "_hpk", None)
        _set(self, "syndrome", syndrome)
        _set(self, "msn", msn & PSN_MASK)

    def _pack(self) -> bytes:
        return _S_AETH.pack((self.syndrome << 24) | self.msn)

    @classmethod
    def unpack(cls, data: bytes) -> "Aeth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AETH")
        (word,) = struct.unpack_from("!I", data, 0)
        return cls(word >> 24, word & PSN_MASK)

    def copy(self) -> "Aeth":
        return Aeth(self.syndrome, self.msn)

    def clone_rewrite(self, syndrome: int, msn: int) -> "Aeth":
        """Private copy with a rewritten syndrome/MSN (template path).
        The caller passes canonical values (8-bit syndrome, masked MSN)."""
        a = Aeth.__new__(Aeth)
        _set(a, "_hver", 0)
        _set(a, "_hpk", None)
        _set(a, "syndrome", syndrome)
        _set(a, "msn", msn)
        return a

    def __repr__(self) -> str:
        return f"AETH(syndrome={self.syndrome:#04x}, msn={self.msn})"


class AtomicEth(Header):
    """Atomic Extended Transport Header (28 bytes): VA, R_key, operands.

    Carried by COMPARE_SWAP and FETCH_ADD requests.  For CAS,
    ``swap_or_add`` is the swap value and ``compare`` the expected value;
    for FETCH_ADD, ``swap_or_add`` is the addend and ``compare`` unused.
    """

    SIZE = 28
    __slots__ = ("virtual_address", "r_key", "swap_or_add", "compare")

    def __init__(self, virtual_address: int, r_key: int, swap_or_add: int,
                 compare: int = 0):
        _set(self, "_hver", 0)
        _set(self, "_hpk", None)
        _set(self, "virtual_address", virtual_address)
        _set(self, "r_key", r_key)
        _set(self, "swap_or_add", swap_or_add & 0xFFFFFFFFFFFFFFFF)
        _set(self, "compare", compare & 0xFFFFFFFFFFFFFFFF)

    def _pack(self) -> bytes:
        return _S_ATOMIC.pack(self.virtual_address, self.r_key,
                           self.swap_or_add, self.compare)

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicEth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AtomicETH")
        va, rkey, swap_add, compare = struct.unpack_from("!QIQQ", data, 0)
        return cls(va, rkey, swap_add, compare)

    def copy(self) -> "AtomicEth":
        return AtomicEth(self.virtual_address, self.r_key, self.swap_or_add,
                         self.compare)

    def __repr__(self) -> str:
        return (f"AtomicETH(va={self.virtual_address:#x}, rkey={self.r_key:#x}, "
                f"swap/add={self.swap_or_add}, cmp={self.compare})")


class AtomicAckEth(Header):
    """Atomic ACK Extended Transport Header (8 bytes): the original value."""

    SIZE = 8
    __slots__ = ("original",)

    def __init__(self, original: int):
        _set(self, "_hver", 0)
        _set(self, "_hpk", None)
        _set(self, "original", original & 0xFFFFFFFFFFFFFFFF)

    def _pack(self) -> bytes:
        return _S_ATOMIC_ACK.pack(self.original)

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicAckEth":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AtomicAckETH")
        (original,) = struct.unpack_from("!Q", data, 0)
        return cls(original)

    def copy(self) -> "AtomicAckEth":
        return AtomicAckEth(self.original)

    def __repr__(self) -> str:
        return f"AtomicAckETH(original={self.original})"


RoceStack = Tuple[Bth, Optional[Reth], Optional[Aeth], bytes]


def parse_roce(data: bytes, has_icrc: bool = True) -> RoceStack:
    """Parse a RoCE v2 UDP payload into (BTH, RETH?, AETH?, payload).

    The trailing 4-byte ICRC, when present, is stripped from the payload.
    """
    bth = Bth.unpack(data)
    offset = Bth.SIZE
    reth: Optional[Reth] = None
    aeth: Optional[Aeth] = None
    if bth.opcode in RETH_OPCODES:
        reth = Reth.unpack(data[offset:])
        offset += Reth.SIZE
    if bth.opcode in (Opcode.COMPARE_SWAP, Opcode.FETCH_ADD):
        offset += AtomicEth.SIZE  # decoded separately by the NIC
    if bth.opcode in AETH_OPCODES:
        aeth = Aeth.unpack(data[offset:])
        offset += Aeth.SIZE
    if bth.opcode is Opcode.ATOMIC_ACKNOWLEDGE:
        aeth = Aeth.unpack(data[offset:])
        offset += Aeth.SIZE + AtomicAckEth.SIZE
    payload = data[offset:]
    if has_icrc:
        if len(payload) < 4:
            raise ValueError("RoCE packet too short for ICRC")
        payload = payload[:-4]
    return bth, reth, aeth, bytes(payload)
