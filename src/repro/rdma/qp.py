"""Reliable-Connection queue pairs: state, work requests, PSN windows.

A :class:`QueuePair` holds *state only*; the protocol engine that moves
packets lives in :mod:`repro.rdma.nic`.  The split mirrors real hardware
(QP context in NIC memory, the pipeline acting on it) and keeps the state
machine independently testable.

Requester side: a send queue of :class:`WorkRequest`, a window of
:class:`OutstandingRequest` (un-ACKed, bounded by both the device limit of
16 pending requests and the peer's advertised credits), and the next PSN.
Responder side: the expected PSN, the message sequence number, and the
permission levers (``remote_write_allowed`` is the Mu/P4CE leadership
mechanism).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from .. import params
from .headers import PSN_MASK

if TYPE_CHECKING:  # pragma: no cover
    from ..net import Ipv4Address
    from .cq import CompletionQueue


def psn_add(psn: int, delta: int) -> int:
    return (psn + delta) & PSN_MASK


def psn_distance(from_psn: int, to_psn: int) -> int:
    """Forward distance in the 24-bit circular PSN space."""
    return (to_psn - from_psn) & PSN_MASK


def psn_in_window(psn: int, start: int, length: int) -> bool:
    """True if ``psn`` is within [start, start+length) modulo 2^24."""
    return psn_distance(start, psn) < length


def psn_not_before(psn: int, reference: int) -> bool:
    """True if ``psn`` is at or ahead of ``reference`` in the circular
    24-bit space (i.e. ``reference`` -> ``psn`` is a forward hop of less
    than half the space).  The canonical "is this ACK/PSN new enough?"
    comparison used by cumulative completion, NAK healing and fusion
    re-engagement."""
    return (psn - reference) & PSN_MASK < (PSN_MASK + 1) // 2


class QpState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTR = "rtr"     # ready to receive
    RTS = "rts"     # ready to send
    ERROR = "error"


class WrOpcode(enum.Enum):
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"
    SEND = "send"
    COMPARE_SWAP = "compare_swap"
    FETCH_ADD = "fetch_add"


class WorkRequest:
    """One entry of the send queue (mirrors ibv_send_wr)."""

    __slots__ = ("wr_id", "opcode", "data", "remote_va", "r_key", "length",
                 "local_va", "signaled", "compare", "swap_or_add")

    def __init__(self, wr_id: int, opcode: WrOpcode, *, data: bytes = b"",
                 remote_va: int = 0, r_key: int = 0, length: int = 0,
                 local_va: int = 0, signaled: bool = True,
                 compare: int = 0, swap_or_add: int = 0):
        self.wr_id = wr_id
        self.opcode = opcode
        self.data = data
        self.remote_va = remote_va
        self.r_key = r_key
        if opcode is WrOpcode.RDMA_READ:
            self.length = length
        elif opcode in (WrOpcode.COMPARE_SWAP, WrOpcode.FETCH_ADD):
            self.length = 8  # atomics operate on one 64-bit word
        else:
            self.length = len(data)
        self.local_va = local_va
        self.signaled = signaled
        # Atomic operands: for CAS, ``compare`` is the expected value and
        # ``swap_or_add`` the replacement; for FETCH_ADD, the addend.
        self.compare = compare
        self.swap_or_add = swap_or_add

    def __repr__(self) -> str:
        return (f"WR(id={self.wr_id}, {self.opcode.value}, len={self.length}, "
                f"va={self.remote_va:#x})")


class ReceiveRequest:
    """One posted receive buffer for two-sided SENDs."""

    __slots__ = ("wr_id", "local_va", "length")

    def __init__(self, wr_id: int, local_va: int, length: int):
        self.wr_id = wr_id
        self.local_va = local_va
        self.length = length


class OutstandingRequest:
    """A request on the wire, kept until cumulative ACK (go-back-N).

    It holds the work request and its PSN span, never the frames: a
    retransmission rebuilds them from ``wr`` (see ``RNic._build_request``),
    because a frame that left the port is the fabric's to rewrite.
    """

    __slots__ = ("wr", "first_psn", "last_psn", "is_read", "read_received",
                 "posted_at")

    def __init__(self, wr: WorkRequest, first_psn: int, last_psn: int,
                 posted_at: float):
        self.wr = wr
        self.first_psn = first_psn
        self.last_psn = last_psn
        self.is_read = wr.opcode is WrOpcode.RDMA_READ
        #: Bytes of read-response data received so far.
        self.read_received = 0
        self.posted_at = posted_at


class QueuePair:
    """RC queue-pair context."""

    def __init__(self, qpn: int, cq: "CompletionQueue",
                 max_send_wr: int = 1024,
                 max_pending: int = params.MAX_PENDING_REQUESTS):
        self.qpn = qpn
        self.cq = cq
        self.state = QpState.RESET
        self.max_send_wr = max_send_wr
        self.max_pending = max_pending

        # Peer identity (set on connect).
        self.remote_ip: Optional["Ipv4Address"] = None
        self.remote_qpn: int = 0

        # Requester state.
        self.send_queue: Deque[WorkRequest] = deque()
        self.outstanding: Deque[OutstandingRequest] = deque()
        self.next_psn: int = 0
        self.credits: int = params.INITIAL_CREDITS
        self.retry_budget: int = params.RDMA_RETRY_COUNT
        self.timeout_ns: int = params.RDMA_TIMEOUT_NS

        # Responder state.
        self.expected_psn: int = 0
        self.msn: int = 0
        self.receive_queue: Deque[ReceiveRequest] = deque()
        #: Cursor of an in-progress multi-packet inbound write.
        self.write_cursor_va: int = 0
        self.write_cursor_rkey: int = 0
        self.write_cursor_remaining: int = 0

        # Permission levers -- flipped by modify_qp during view changes.
        self.remote_write_allowed: bool = True
        self.remote_read_allowed: bool = True

        # Statistics.
        self.requests_posted = 0
        self.requests_completed = 0
        self.nak_count = 0
        self.retransmissions = 0

        #: Pre-rendered Eth/IPv4/UDP TX frame templates, keyed by
        #: (upper-header size, payload length); owned by
        #: :mod:`repro.rdma.wiretemplate`, flushed on (re)connect because
        #: the peer address is baked into the rendered bytes.
        self.tx_templates: dict = {}

    # -- state transitions ----------------------------------------------------

    def connect(self, remote_ip: "Ipv4Address", remote_qpn: int,
                initial_psn: int, expected_psn: int) -> None:
        """Move RESET -> RTS with the negotiated peer parameters.

        ``initial_psn`` seeds the PSNs of packets *we* send; the peer
        communicated ``expected_psn`` as the starting PSN of packets it
        will send to us.
        """
        self.remote_ip = remote_ip
        self.remote_qpn = remote_qpn & 0xFFFFFF
        self.next_psn = initial_psn & PSN_MASK
        self.expected_psn = expected_psn & PSN_MASK
        self.tx_templates.clear()
        self.state = QpState.RTS

    def set_error(self) -> None:
        self.state = QpState.ERROR

    @property
    def connected(self) -> bool:
        return self.state in (QpState.RTR, QpState.RTS)

    # -- window accounting ------------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self.outstanding)

    def can_issue(self) -> bool:
        """True if the window allows launching one more request."""
        return (self.state is QpState.RTS
                and len(self.outstanding) < min(self.max_pending, max(1, self.credits)))

    def oldest_unacked_psn(self) -> Optional[int]:
        if not self.outstanding:
            return None
        return self.outstanding[0].first_psn

    def __repr__(self) -> str:
        return (f"QP({self.qpn:#x}, {self.state.value}, peer={self.remote_qpn:#x}@"
                f"{self.remote_ip}, inflight={self.inflight})")
