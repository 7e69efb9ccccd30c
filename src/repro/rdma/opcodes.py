"""InfiniBand/RoCE opcode and AETH syndrome definitions.

Opcode values follow the InfiniBand Architecture Specification (IBTA vol 1,
chapter 9) for the Reliable Connection (RC) service: the high 3 bits select
the transport service (RC = 0b000), the low 5 bits the operation.  P4CE's
data plane dispatches on exactly these values, so we keep them
spec-accurate.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """BTH opcodes for the RC transport."""

    SEND_FIRST = 0x00
    SEND_MIDDLE = 0x01
    SEND_LAST = 0x02
    SEND_ONLY = 0x04
    RDMA_WRITE_FIRST = 0x06
    RDMA_WRITE_MIDDLE = 0x07
    RDMA_WRITE_LAST = 0x08
    RDMA_WRITE_ONLY = 0x0A
    RDMA_READ_REQUEST = 0x0C
    RDMA_READ_RESPONSE_FIRST = 0x0D
    RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RDMA_READ_RESPONSE_LAST = 0x0F
    RDMA_READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11
    ATOMIC_ACKNOWLEDGE = 0x12
    COMPARE_SWAP = 0x13
    FETCH_ADD = 0x14


#: Opcodes that carry a RETH (the responder needs VA/R_key/length).
RETH_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_ONLY,
    Opcode.RDMA_READ_REQUEST,
})

#: Opcodes that carry an AETH (acknowledgements and read responses).
AETH_OPCODES = frozenset({
    Opcode.ACKNOWLEDGE,
    Opcode.ATOMIC_ACKNOWLEDGE,
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})

#: Write-request opcodes (any position in a multi-packet message).
WRITE_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_MIDDLE,
    Opcode.RDMA_WRITE_LAST,
    Opcode.RDMA_WRITE_ONLY,
})

#: Write packets that open a message (carry the RETH) / close it.
WRITE_HEAD_OPCODES = frozenset({Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_ONLY})
WRITE_TAIL_OPCODES = frozenset({Opcode.RDMA_WRITE_LAST, Opcode.RDMA_WRITE_ONLY})

#: Send-request opcodes (any position in a multi-packet message).
SEND_OPCODES = frozenset({
    Opcode.SEND_FIRST,
    Opcode.SEND_MIDDLE,
    Opcode.SEND_LAST,
    Opcode.SEND_ONLY,
})

#: Send packets that open a message (consume a receive) / close it.
SEND_HEAD_OPCODES = frozenset({Opcode.SEND_FIRST, Opcode.SEND_ONLY})
SEND_TAIL_OPCODES = frozenset({Opcode.SEND_LAST, Opcode.SEND_ONLY})

#: Atomic request opcodes.
ATOMIC_OPCODES = frozenset({Opcode.COMPARE_SWAP, Opcode.FETCH_ADD})

#: Message ends the responder answers with a plain ACK.
ACKED_END_OPCODES = WRITE_TAIL_OPCODES | SEND_TAIL_OPCODES

#: Opcodes that end a message (complete the request at the responder); a
#: read request is a whole message, answered with data instead of an ACK.
MESSAGE_END_OPCODES = ACKED_END_OPCODES | {Opcode.RDMA_READ_REQUEST}

#: Read-response opcodes (carry data back to the requester).
READ_RESPONSE_OPCODES = frozenset({
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_MIDDLE,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})

#: Read responses that complete the read at the requester.
READ_RESPONSE_TAIL_OPCODES = frozenset({
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})


class AethCode(enum.IntEnum):
    """Top 2 bits of the AETH syndrome field."""

    ACK = 0
    RNR_NAK = 1
    RESERVED = 2
    NAK = 3


_ACK_CODE = int(AethCode.ACK)


class NakCode(enum.IntEnum):
    """Low 5 bits of the syndrome when the code is NAK."""

    PSN_SEQUENCE_ERROR = 0
    INVALID_REQUEST = 1
    REMOTE_ACCESS_ERROR = 2
    REMOTE_OPERATIONAL_ERROR = 3
    INVALID_RD_REQUEST = 4


def make_syndrome(code: AethCode, value: int) -> int:
    """Compose the 8-bit AETH syndrome.

    For ACKs, ``value`` is the 5-bit credit count field; for NAKs it is a
    :class:`NakCode`.  (Real hardware encodes credits logarithmically; we
    keep the 5-bit field linear and saturate -- the switch's min-credit
    aggregation only needs ordering, which is preserved.)
    """
    if not 0 <= value < 32:
        raise ValueError("syndrome value must fit in 5 bits")
    return (int(code) << 6) | int(value)


def syndrome_code(syndrome: int) -> AethCode:
    return AethCode((syndrome >> 6) & 0x3)


def syndrome_value(syndrome: int) -> int:
    return syndrome & 0x1F


def is_positive_ack(syndrome: int) -> bool:
    # The code bits compared as an int: building the enum costs more
    # than the rest of a read completion's credit update.
    return (syndrome >> 6) & 0x3 == _ACK_CODE


def saturate_credits(credits: int) -> int:
    """Clamp a credit count to the 5-bit AETH field."""
    return max(0, min(31, credits))
