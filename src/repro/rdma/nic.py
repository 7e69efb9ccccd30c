"""The RNIC model: a ConnectX-class RoCE v2 engine.

The NIC executes the whole RC transport without involving the host CPU --
the property Mu and P4CE are built on ("the leader's data [is] written and
acknowledged without involving the replicas' CPUs").  The host CPU pays
only to *post* work requests and to *poll* completions; everything between
(segmentation, PSN accounting, DMA, ACK/NAK generation, retransmission,
credit-based throttling) happens here on NIC time.

Timing model per packet:

* TX: the packet occupies the transmit pipeline for ``NIC_PACKET_GAP_NS``
  (message-rate limit), then leaves after ``NIC_TX_LATENCY_NS`` of
  pipeline depth; the attached link adds serialization + propagation.
* RX: symmetric, with ``NIC_RX_LATENCY_NS``.

The requester implements go-back-N with cumulative ACKs, a 16-deep pending
window (``MAX_PENDING_REQUESTS``), credit throttling from AETH, and the
4.096us x 2^x retransmission timeout.  The responder validates R_keys,
bounds and permissions (NAK ``REMOTE_ACCESS_ERROR`` otherwise -- this is
what an old leader's write hits after a view change), tracks expected PSN
(NAK ``PSN_SEQUENCE_ERROR`` on gaps), and answers reads with segmented
read responses.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .. import fastlane, params
from ..net import (
    EthernetHeader,
    Ipv4Address,
    Ipv4Header,
    MacAddress,
    Packet,
    Port,
    UdpHeader,
)
from ..sim import SeededRng, Simulator, Timer, Tracer
from ..sim.watch import Watched
from .cq import WorkCompletion
from .errors import QpStateError, SendQueueFullError, WcStatus
from .headers import Aeth, AtomicAckEth, AtomicEth, Bth, Reth
from .icrc import check_icrc, stamp_icrc
from .memory import Access, AddressSpace, MemoryRegion
from .opcodes import (
    ACKED_END_OPCODES,
    AETH_OPCODES,
    ATOMIC_OPCODES,
    AethCode,
    NakCode,
    Opcode,
    READ_RESPONSE_OPCODES,
    READ_RESPONSE_TAIL_OPCODES,
    SEND_HEAD_OPCODES,
    SEND_OPCODES,
    SEND_TAIL_OPCODES,
    WRITE_HEAD_OPCODES,
    WRITE_OPCODES,
    WRITE_TAIL_OPCODES,
    is_positive_ack,
    make_syndrome,
    saturate_credits,
    syndrome_code,
    syndrome_value,
)
from .wiretemplate import ack_frame, read_response_frame, tx_frame
from .qp import (
    OutstandingRequest,
    QpState,
    QueuePair,
    ReceiveRequest,
    WorkRequest,
    WrOpcode,
    psn_add,
    psn_distance,
    psn_not_before,
)

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host

#: Half the PSN space: distances below this mean "not after".
PSN_HALF = 1 << 23

#: Work requests that complete on their own response, never on an ACK.
_ATOMIC_WRS = (WrOpcode.COMPARE_SWAP, WrOpcode.FETCH_ADD)

#: Payloads per response packet / write packet.
def packet_count(length: int, mtu: int) -> int:
    """Number of packets a message of ``length`` bytes occupies."""
    return max(1, math.ceil(length / mtu))


UdpHandler = Callable[[Ipv4Address, int, bytes], None]


class RNic(Watched):
    """One RoCE v2 network adapter with a single 100 GbE port.  Power
    changes and QP creation or destruction notify its watchers."""

    def __init__(self, sim: Simulator, host: "Host", name: str,
                 mac: MacAddress, ip: Ipv4Address,
                 rng: Optional[SeededRng] = None,
                 tracer: Optional[Tracer] = None,
                 pmtu: int = params.ROCE_PMTU):
        self.sim = sim
        self.host = host
        self.name = name
        self.mac = mac
        self.ip = ip
        self.pmtu = pmtu
        self.port = Port(self, f"{name}.p0")
        #: MAC of the first-hop device (the switch); set when cabling.
        self.gateway_mac: MacAddress = MacAddress.broadcast()
        self._rng = rng or SeededRng(0)
        self.tracer = tracer
        self.qps: Dict[int, QueuePair] = {}
        self.udp_handlers: Dict[int, UdpHandler] = {}
        #: Called when a QP transitions to ERROR (async event channel).
        self.on_qp_error: Optional[Callable[[QueuePair, WcStatus], None]] = None
        #: Called on a PSN-sequence NAK that go-back-N cannot heal: the
        #: responder expects a PSN older than anything still outstanding.
        #: This only happens when ACKs are aggregated by a quorum (the
        #: P4CE switch): a straggler may lose a packet the quorum already
        #: acknowledged.  The application must repair it out of band --
        #: P4CE "reverts to un-accelerated communications" (section III-A).
        self.on_unhealable_nak: Optional[Callable[[QueuePair], None]] = None
        self._retx_timers: Dict[int, Timer] = {}
        self._tx_busy_until = 0.0
        self._rx_busy_until = 0.0
        self._rx_inflight = 0
        self.powered = True
        #: Per-packet RX pipeline occupancy; raising it models a slow or
        #: overloaded card (used by the credit-aggregation ablation).
        self.rx_gap_ns: float = params.NIC_PACKET_GAP_NS
        #: Input buffer depth: packets arriving beyond this backlog are
        #: dropped, as on real hardware.  The credit mechanism exists to
        #: keep requesters below this limit.
        self.rx_queue_limit: int = params.INITIAL_CREDITS * 2
        # Counters.
        self.packets_sent = 0
        self.packets_received = 0
        self.acks_sent = 0
        self.naks_sent = 0
        self.rx_dropped = 0
        self.icrc_drops = 0

    # ------------------------------------------------------------------
    # Verbs-facing surface (called via the host, which charges CPU time)
    # ------------------------------------------------------------------

    def create_qp(self, cq, max_pending: int = params.MAX_PENDING_REQUESTS) -> QueuePair:
        qpn = self._fresh_qpn()
        qp = QueuePair(qpn, cq, max_pending=max_pending)
        self.qps[qpn] = qp
        self._retx_timers[qpn] = Timer(self.sim, lambda q=qp: self._on_retx_timeout(q))
        self._changed()
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        timer = self._retx_timers.pop(qp.qpn, None)
        if timer is not None:
            timer.stop()
        self.qps.pop(qp.qpn, None)
        qp.set_error()
        self._changed()

    def fresh_psn(self) -> int:
        return self._rng.u24()

    def post_send(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Enqueue a work request (NIC side; CPU cost charged by caller)."""
        if qp.state is not QpState.RTS:
            raise QpStateError(f"QP {qp.qpn:#x} not RTS (is {qp.state.value})")
        if len(qp.send_queue) + len(qp.outstanding) >= qp.max_send_wr:
            raise SendQueueFullError(f"QP {qp.qpn:#x} send queue full")
        qp.send_queue.append(wr)
        qp.requests_posted += 1
        self._pump(qp)

    def post_receive(self, qp: QueuePair, rr: ReceiveRequest) -> None:
        qp.receive_queue.append(rr)

    # ------------------------------------------------------------------
    # Requester: launching requests
    # ------------------------------------------------------------------

    def _pump(self, qp: QueuePair) -> None:
        """Issue queued requests while the window and credits allow."""
        while qp.send_queue and qp.can_issue():
            wr = qp.send_queue.popleft()
            self._launch(qp, wr)

    def _launch(self, qp: QueuePair, wr: WorkRequest) -> None:
        first_psn = qp.next_psn
        packets = self._build_request(qp, wr, first_psn)
        # A read consumes one PSN per *response* packet.
        span = (packet_count(wr.length, self.pmtu)
                if wr.opcode is WrOpcode.RDMA_READ else len(packets))
        last_psn = psn_add(first_psn, span - 1)
        qp.next_psn = psn_add(last_psn, 1)
        qp.outstanding.append(
            OutstandingRequest(wr, first_psn, last_psn, self.sim.now))
        # Flight fusion: a write on a clean broadcast path -- every
        # packet of the message -- or a read answered by one response
        # packet on a clean L3 path is captured and replayed by the
        # planner instead of being scheduled hop by hop; everything else
        # takes the ordinary per-packet TX path.
        planner = self.sim._flight_planner
        opcode = wr.opcode
        if (planner is None
                or not (opcode is WrOpcode.RDMA_WRITE
                        or (opcode is WrOpcode.RDMA_READ and span == 1))
                or not planner.try_fuse(self, qp, packets)):
            for pkt in packets:
                self._tx(pkt)
        self._arm_retx(qp)

    def _build_request(self, qp: QueuePair, wr: WorkRequest,
                       first_psn: int) -> List[Packet]:
        """The request frames of ``wr`` from ``first_psn`` on.  Called at
        launch and again per retransmission, the way hardware re-reads
        host memory: the work request is the only thing the NIC keeps, so
        nothing the fabric rewrites in flight can come back out of it."""
        if wr.opcode is WrOpcode.RDMA_READ:
            bth = Bth(Opcode.RDMA_READ_REQUEST, qp.remote_qpn, first_psn,
                      ack_req=True)
            reth = Reth(wr.remote_va, wr.r_key, wr.length)
            return [self._frame(qp, [bth, reth], b"")]
        if wr.opcode in (WrOpcode.COMPARE_SWAP, WrOpcode.FETCH_ADD):
            opcode = (Opcode.COMPARE_SWAP if wr.opcode is WrOpcode.COMPARE_SWAP
                      else Opcode.FETCH_ADD)
            bth = Bth(opcode, qp.remote_qpn, first_psn, ack_req=True)
            atomic = AtomicEth(wr.remote_va, wr.r_key, wr.swap_or_add,
                               wr.compare)
            return [self._frame(qp, [bth, atomic], b"")]
        data = wr.data
        chunks = [data[i:i + self.pmtu] for i in range(0, len(data), self.pmtu)] or [b""]
        n = len(chunks)
        packets: List[Packet] = []
        for i, chunk in enumerate(chunks):
            if wr.opcode is WrOpcode.RDMA_WRITE:
                if n == 1:
                    opcode = Opcode.RDMA_WRITE_ONLY
                elif i == 0:
                    opcode = Opcode.RDMA_WRITE_FIRST
                elif i == n - 1:
                    opcode = Opcode.RDMA_WRITE_LAST
                else:
                    opcode = Opcode.RDMA_WRITE_MIDDLE
            else:
                if n == 1:
                    opcode = Opcode.SEND_ONLY
                elif i == 0:
                    opcode = Opcode.SEND_FIRST
                elif i == n - 1:
                    opcode = Opcode.SEND_LAST
                else:
                    opcode = Opcode.SEND_MIDDLE
            last = i == n - 1
            bth = Bth(opcode, qp.remote_qpn, psn_add(first_psn, i), ack_req=last)
            upper: List[object] = [bth]
            if opcode in WRITE_HEAD_OPCODES:
                upper.append(Reth(wr.remote_va, wr.r_key, len(data)))
            packets.append(self._frame(qp, upper, chunk))
        return packets

    def _frame(self, qp: QueuePair, upper: List[object], payload: bytes) -> Packet:
        """Wrap RoCE headers in Eth/IPv4/UDP toward the QP's peer."""
        assert qp.remote_ip is not None
        if fastlane.flags.rewrite_templates:
            pkt = tx_frame(qp.tx_templates, self.gateway_mac, self.mac,
                           self.ip, qp.remote_ip, qp.udp_sport,
                           params.ROCE_UDP_PORT, upper, payload)
            if pkt is not None:
                return pkt
            # Non-covered extension headers (atomics): object-build path.
        eth = EthernetHeader(self.gateway_mac, self.mac)
        ipv4 = Ipv4Header(self.ip, qp.remote_ip)
        udp = UdpHeader(qp.udp_sport, params.ROCE_UDP_PORT)
        pkt = Packet(eth, ipv4, udp, upper, payload, has_icrc=True)
        pkt.finalize()
        stamp_icrc(pkt)
        return pkt

    # ------------------------------------------------------------------
    # TX / RX pipelines
    # ------------------------------------------------------------------

    # The hop effects of the two pipelines (_tx_claim, _rx_admit, and the
    # responder's _land_write, _complete_write and _ack_syndrome below)
    # are shared with flight fusion's express stages: each is the one
    # definition of what a hop does to this NIC, and reads the clock as
    # ``sim._now`` (raw: they run once per frame; the kernel sets it to
    # the hop's time).

    def _tx(self, packet: Packet) -> None:
        if not self.powered:
            return
        self.sim.schedule_at_fire(self._tx_claim(), self._emit, packet)

    def _tx_claim(self) -> float:
        """Occupy the TX pipeline for one frame; returns when it leaves."""
        now = self.sim._now
        busy = self._tx_busy_until
        start = busy if busy > now else now
        finish = start + params.NIC_PACKET_GAP_NS
        self._tx_busy_until = finish
        return finish + params.NIC_TX_LATENCY_NS

    def _emit(self, packet: Packet) -> None:
        if not self.powered:
            return
        self.packets_sent += 1
        if self.tracer is not None and self.tracer.enabled:
            self._trace("tx", packet)
        self.port.send(packet)

    def handle_packet(self, port: Port, packet: Packet) -> None:
        """Link-side entry point (runs at frame arrival time).

        The RX side only ever *reads* headers, so it goes through the
        private slots (like :func:`repro.rdma.icrc.compute_icrc` does)
        instead of the thaw-on-access properties: a received packet's
        copy-on-write shares stay intact, the payload CRC cached on the
        shared payload included.  The ICRC check itself recomputes from
        the headers the packet carries (:func:`repro.rdma.icrc.check_icrc`).
        """
        if not self.powered:
            return
        ipv4 = packet._ipv4
        if ipv4 is None or ipv4.dst != self.ip:
            # Not for us; a host NIC is not a router.
            return
        ready = self._rx_admit()
        if ready is not None:
            self.sim.schedule_at_fire(ready, self._rx_process, packet)

    def _rx_admit(self) -> Optional[float]:
        """Admit one arriving frame to the RX pipeline.  Returns when it is
        processed, or None: the input buffer is full and it is dropped."""
        if self._rx_inflight >= self.rx_queue_limit:
            self.rx_dropped += 1
            return None
        now = self.sim._now
        busy = self._rx_busy_until
        start = busy if busy > now else now
        finish = start + self.rx_gap_ns
        self._rx_busy_until = finish
        self._rx_inflight += 1
        return finish + params.NIC_RX_LATENCY_NS

    def _rx_process(self, packet: Packet) -> None:
        self._rx_inflight -= 1
        if self.powered:
            self.packets_received += 1
            udp = packet._udp
            if udp is not None:
                if udp.dst_port == params.ROCE_UDP_PORT:
                    if self.tracer is not None and self.tracer.enabled:
                        self._trace("rx", packet)
                    self._roce_dispatch(packet)
                else:
                    handler = self.udp_handlers.get(udp.dst_port)
                    if handler is not None:
                        assert packet._ipv4 is not None
                        handler(packet._ipv4.src, udp.src_port, packet.payload)

    # ------------------------------------------------------------------
    # RoCE dispatch
    # ------------------------------------------------------------------

    def _roce_dispatch(self, packet: Packet) -> None:
        if not check_icrc(packet):
            # Hardware silently discards packets whose invariant CRC does
            # not match -- e.g. rewritten by a middlebox that forgot to
            # recompute it.  The requester's timeout does the rest.
            self.icrc_drops += 1
            return
        bth: Optional[Bth] = None
        reth: Optional[Reth] = None
        aeth: Optional[Aeth] = None
        atomic: Optional[AtomicEth] = None
        atomic_ack: Optional[AtomicAckEth] = None
        for header in packet._upper:  # read-only: keep COW shares intact
            kind = type(header)  # headers are final classes
            if kind is Bth:
                bth = header
            elif kind is Reth:
                reth = header
            elif kind is Aeth:
                aeth = header
            elif kind is AtomicEth:
                atomic = header
            elif kind is AtomicAckEth:
                atomic_ack = header
        if bth is None:
            return
        qp = self.qps.get(bth.dest_qp)
        if qp is None or qp.state is QpState.ERROR:
            return  # silently dropped, requester will time out
        opcode = bth.opcode
        assert packet._ipv4 is not None
        if opcode in WRITE_OPCODES:
            self._responder_write(qp, bth, reth, packet.payload)
        elif opcode is Opcode.RDMA_READ_REQUEST:
            assert reth is not None
            self._responder_read(qp, bth, reth)
        elif opcode in ATOMIC_OPCODES:
            assert atomic is not None
            self._responder_atomic(qp, bth, atomic)
        elif opcode in SEND_OPCODES:
            self._responder_send(qp, bth, packet.payload)
        elif opcode is Opcode.ACKNOWLEDGE:
            assert aeth is not None
            self._requester_ack(qp, bth, aeth)
        elif opcode is Opcode.ATOMIC_ACKNOWLEDGE:
            assert aeth is not None and atomic_ack is not None
            self._requester_atomic_response(qp, bth, aeth, atomic_ack)
        elif opcode in READ_RESPONSE_OPCODES:
            self._requester_read_response(
                qp, bth.psn, None if aeth is None else aeth.syndrome,
                packet.payload, opcode in READ_RESPONSE_TAIL_OPCODES)

    # ------------------------------------------------------------------
    # Responder side
    # ------------------------------------------------------------------

    def _advertised_credits(self) -> int:
        """Current credit count: free request buffers in this NIC."""
        return saturate_credits(params.INITIAL_CREDITS - self._rx_inflight)

    def _respond(self, qp: QueuePair, opcode: Opcode, psn: int, syndrome: int,
                 payload: bytes = b"", ack_req: bool = False) -> None:
        if not ack_req and fastlane.flags.rewrite_templates:
            # ACK/NAK frames dominate the responder's TX side, and a
            # single-packet read response is every heartbeat's answer;
            # both have a fixed header stack, so a per-QP pre-rendered
            # frame (static Eth/IPv4/UDP/BTH prefix + 8 patched bytes)
            # replaces the whole header-object build.
            if opcode is Opcode.ACKNOWLEDGE and not payload:
                self._tx(ack_frame(qp.tx_templates, self.gateway_mac,
                                   self.mac, self.ip, qp.remote_ip,
                                   qp.udp_sport, params.ROCE_UDP_PORT,
                                   qp.remote_qpn, psn, syndrome, qp.msn))
                return
            if opcode is Opcode.RDMA_READ_RESPONSE_ONLY:
                self._tx(read_response_frame(
                    qp.tx_templates, self.gateway_mac, self.mac, self.ip,
                    qp.remote_ip, qp.udp_sport, params.ROCE_UDP_PORT,
                    qp.remote_qpn, psn, syndrome, qp.msn, payload))
                return
        bth = Bth(opcode, qp.remote_qpn, psn, ack_req=ack_req)
        upper: List[object] = [bth]
        if opcode in AETH_OPCODES:
            upper.append(Aeth(syndrome, qp.msn))
        self._tx(self._frame(qp, upper, payload))

    def _send_ack(self, qp: QueuePair, psn: int) -> None:
        self._respond(qp, Opcode.ACKNOWLEDGE, psn, self._ack_syndrome())

    def _ack_syndrome(self) -> int:
        """Count one ACK sent; its AETH syndrome advertises the credits."""
        self.acks_sent += 1
        return make_syndrome(AethCode.ACK, self._advertised_credits())

    def _send_nak(self, qp: QueuePair, psn: int, code: NakCode) -> None:
        self.naks_sent += 1
        qp.nak_count += 1
        syndrome = make_syndrome(AethCode.NAK, int(code))
        self._respond(qp, Opcode.ACKNOWLEDGE, psn, syndrome)

    def _psn_check(self, qp: QueuePair, bth: Bth) -> bool:
        """Returns True when the packet is the expected next PSN.

        Duplicates (already-seen PSNs) are re-ACKed and dropped; future
        PSNs (a gap, meaning a lost packet) trigger a sequence-error NAK,
        making the requester go-back-N.
        """
        if bth.psn == qp.expected_psn:
            return True
        if psn_not_before(qp.expected_psn, bth.psn):
            # Duplicate of something already processed: re-ACK so that a
            # lost ACK does not wedge the requester.
            if bth.ack_req or bth.opcode in ACKED_END_OPCODES:
                self._send_ack(qp, bth.psn)
            return False
        self._send_nak(qp, qp.expected_psn, NakCode.PSN_SEQUENCE_ERROR)
        return False

    def _check_remote_access(self, qp: QueuePair, va: int, length: int,
                             r_key: int, access: Access) -> Optional[MemoryRegion]:
        """Validate an inbound one-sided operation.  None => NAK."""
        region = self.host.address_space.by_rkey(r_key)
        if region is None:
            return None
        if not region.contains(va, length):
            return None
        if not region.allows(access):
            return None
        if access is Access.REMOTE_WRITE and not qp.remote_write_allowed:
            return None
        if access is Access.REMOTE_READ and not qp.remote_read_allowed:
            return None
        return region

    def _responder_write(self, qp: QueuePair, bth: Bth, reth: Optional[Reth],
                         payload: bytes) -> None:
        if not self._psn_check(qp, bth):
            return
        opcode = bth.opcode
        if opcode not in WRITE_HEAD_OPCODES:
            nak = self._land_write(qp, bth.psn, None, 0, 0, payload)
        elif reth is None:
            nak = NakCode.INVALID_REQUEST
        else:
            nak = self._land_write(qp, bth.psn, reth.virtual_address,
                                   reth.r_key, reth.dma_length, payload)
        if nak is not None:
            self._send_nak(qp, bth.psn, nak)
            return
        if opcode in WRITE_TAIL_OPCODES:
            self._complete_write(qp, bth, payload)
        if bth.ack_req or opcode in WRITE_TAIL_OPCODES:
            self._send_ack(qp, bth.psn)

    def _land_write(self, qp: QueuePair, psn: int, va: Optional[int],
                    r_key: int, dma_length: int,
                    payload: bytes) -> Optional[NakCode]:
        """DMA one in-order WRITE segment.  A head (FIRST / ONLY: ``va``,
        ``r_key`` and ``dma_length`` from its RETH) opens the write cursor
        after the access check; a MIDDLE / LAST (``va`` None) continues
        it.  Returns the NAK code, with nothing changed, when the segment
        may not land."""
        length = len(payload)
        if va is not None:
            region = self._check_remote_access(qp, va, dma_length, r_key,
                                               Access.REMOTE_WRITE)
            if region is None:
                return NakCode.REMOTE_ACCESS_ERROR
            qp.write_cursor_va = va
            qp.write_cursor_rkey = r_key
            qp.write_cursor_remaining = dma_length
        elif qp.write_cursor_remaining < length:
            return NakCode.INVALID_REQUEST
        else:
            region = self.host.address_space.by_rkey(qp.write_cursor_rkey)
            if region is None:
                return NakCode.REMOTE_OPERATIONAL_ERROR
        if payload:
            region.write(qp.write_cursor_va, payload)
            qp.write_cursor_va += length
            qp.write_cursor_remaining -= length
        qp.expected_psn = psn_add(psn, 1)
        return None

    def _complete_write(self, qp: QueuePair, bth: Bth,
                        payload: bytes) -> None:
        """A WRITE message's tail landed: count it and tell the host."""
        qp.msn = psn_add(qp.msn, 1)
        self.host.notify_remote_write(qp, bth, payload)

    def _responder_read(self, qp: QueuePair, bth: Bth, reth: Reth) -> None:
        psn = bth.psn
        # A duplicate READ is executed again, as IBTA responders do: its
        # response may be what was lost, and a plain ACK completes no
        # read.  The re-read answers from the request's own PSN and leaves
        # the expected PSN and the MSN alone.
        duplicate = (psn != qp.expected_psn
                     and psn_not_before(qp.expected_psn, psn))
        if not duplicate and not self._psn_check(qp, bth):
            return
        length = reth.dma_length
        data = self._read_region(qp, reth.virtual_address, reth.r_key,
                                 length)
        if data is None:
            self._send_nak(qp, psn, NakCode.REMOTE_ACCESS_ERROR)
            return
        if duplicate:
            syndrome = make_syndrome(AethCode.ACK, self._advertised_credits())
        else:
            syndrome = self._serve_read(qp, psn, length)
        n = packet_count(length, self.pmtu)
        if n == 1:
            self._respond(qp, Opcode.RDMA_READ_RESPONSE_ONLY, psn, syndrome,
                          data)
            return
        for i in range(n):
            chunk = data[i * self.pmtu:(i + 1) * self.pmtu]
            if i == 0:
                opcode = Opcode.RDMA_READ_RESPONSE_FIRST
            elif i == n - 1:
                opcode = Opcode.RDMA_READ_RESPONSE_LAST
            else:
                opcode = Opcode.RDMA_READ_RESPONSE_MIDDLE
            self._respond(qp, opcode, psn_add(psn, i), syndrome, chunk)

    def _read_region(self, qp: QueuePair, va: int, r_key: int,
                     length: int) -> Optional[bytes]:
        """The bytes an inbound READ asks for, or None (nothing read):
        the access check failed and the request is NAKed."""
        region = self._check_remote_access(qp, va, length, r_key,
                                           Access.REMOTE_READ)
        if region is None:
            return None
        return region.read(va, length)

    def _serve_read(self, qp: QueuePair, psn: int, length: int) -> int:
        """A fresh READ was read out: advance the expected PSN past its
        response packets, count the message, and return the AETH
        syndrome its response carries."""
        qp.expected_psn = psn_add(psn, packet_count(length, self.pmtu))
        qp.msn = psn_add(qp.msn, 1)
        return make_syndrome(AethCode.ACK, self._advertised_credits())

    def _responder_atomic(self, qp: QueuePair, bth: Bth,
                          atomic: AtomicEth) -> None:
        """Execute a 64-bit CAS or fetch-and-add atomically in memory."""
        replies = qp.atomic_replies
        if bth.psn in replies and bth.psn != qp.expected_psn:
            # A duplicate of an executed atomic: its response was lost.
            # Replay it with the saved original, never execute it twice.
            self._atomic_ack(qp, bth.psn, replies[bth.psn])
            return
        if not self._psn_check(qp, bth):
            return
        if atomic.virtual_address % 8 != 0:
            self._send_nak(qp, bth.psn, NakCode.INVALID_REQUEST)
            return
        region = self._check_remote_access(qp, atomic.virtual_address, 8,
                                           atomic.r_key, Access.REMOTE_ATOMIC)
        if region is None:
            self._send_nak(qp, bth.psn, NakCode.REMOTE_ACCESS_ERROR)
            return
        original = int.from_bytes(region.read(atomic.virtual_address, 8), "big")
        if bth.opcode is Opcode.COMPARE_SWAP:
            if original == atomic.compare:
                region.write(atomic.virtual_address,
                             atomic.swap_or_add.to_bytes(8, "big"))
        else:  # FETCH_ADD
            total = (original + atomic.swap_or_add) & 0xFFFFFFFFFFFFFFFF
            region.write(atomic.virtual_address, total.to_bytes(8, "big"))
        qp.expected_psn = psn_add(bth.psn, 1)
        qp.msn = psn_add(qp.msn, 1)
        replies[bth.psn] = original
        if len(replies) > params.MAX_PENDING_REQUESTS:
            del replies[next(iter(replies))]
        self._atomic_ack(qp, bth.psn, original)

    def _atomic_ack(self, qp: QueuePair, psn: int, original: int) -> None:
        syndrome = make_syndrome(AethCode.ACK, self._advertised_credits())
        bth_out = Bth(Opcode.ATOMIC_ACKNOWLEDGE, qp.remote_qpn, psn)
        self._tx(self._frame(qp, [bth_out, Aeth(syndrome, qp.msn),
                                  AtomicAckEth(original)], b""))

    def _responder_send(self, qp: QueuePair, bth: Bth, payload: bytes) -> None:
        if not self._psn_check(qp, bth):
            return
        first = bth.opcode in SEND_HEAD_OPCODES
        last = bth.opcode in SEND_TAIL_OPCODES
        if first:
            if not qp.receive_queue:
                # Receiver Not Ready: the requester backs off and retries
                # (this is how a slow consumer throttles two-sided flows).
                self.naks_sent += 1
                qp.nak_count += 1
                syndrome = make_syndrome(AethCode.RNR_NAK, 0)
                self._respond(qp, Opcode.ACKNOWLEDGE, bth.psn, syndrome)
                return
            rr = qp.receive_queue[0]
            qp.write_cursor_va = rr.local_va
            qp.write_cursor_remaining = rr.length
        if qp.write_cursor_remaining < len(payload):
            self._send_nak(qp, bth.psn, NakCode.INVALID_REQUEST)
            return
        if payload:
            region = self.host.address_space.by_va(qp.write_cursor_va, len(payload))
            if region is None:
                self._send_nak(qp, bth.psn, NakCode.REMOTE_OPERATIONAL_ERROR)
                return
            region.write(qp.write_cursor_va, payload)
            qp.write_cursor_va += len(payload)
            qp.write_cursor_remaining -= len(payload)
        qp.expected_psn = psn_add(bth.psn, 1)
        if last:
            rr = qp.receive_queue.popleft()
            qp.msn = psn_add(qp.msn, 1)
            received = rr.length - qp.write_cursor_remaining
            qp.cq.push(WorkCompletion(rr.wr_id, WcStatus.SUCCESS, "RECV",
                                      received, qp.qpn, self.sim.now))
        if bth.ack_req or last:
            self._send_ack(qp, bth.psn)

    # ------------------------------------------------------------------
    # Requester side: ACKs, NAKs, read responses, retransmission
    # ------------------------------------------------------------------

    def _requester_ack(self, qp: QueuePair, bth: Bth, aeth: Aeth) -> None:
        code = syndrome_code(aeth.syndrome)
        if code is AethCode.ACK:
            qp.credits = syndrome_value(aeth.syndrome)
            qp.retry_budget = params.RDMA_RETRY_COUNT
            self._complete_through(qp, bth.psn)
            self._arm_retx(qp)
            self._pump(qp)
        elif code is AethCode.RNR_NAK:
            self.sim.schedule_at_fire(self.sim.now + params.RDMA_TIMEOUT_NS,
                                      self._retransmit_window, qp)
        elif code is AethCode.NAK:
            nak = NakCode(syndrome_value(aeth.syndrome))
            if nak is NakCode.PSN_SEQUENCE_ERROR:
                # The NAK carries the responder's expected PSN.  Go-back-N
                # can heal only if that PSN is still in our window.
                oldest = qp.oldest_unacked_psn()
                healable = (oldest is not None
                            and psn_not_before(bth.psn, oldest))
                if not healable and self.on_unhealable_nak is not None:
                    self.on_unhealable_nak(qp)
                    return
                qp.retransmissions += 1
                self._retransmit_window(qp)
            else:
                status = (WcStatus.REMOTE_ACCESS_ERROR
                          if nak is NakCode.REMOTE_ACCESS_ERROR
                          else WcStatus.REMOTE_OPERATIONAL_ERROR)
                self._fail_qp(qp, status)

    def _complete_through(self, qp: QueuePair, ack_psn: int) -> None:
        """Cumulative completion of all writes/sends up to ``ack_psn``."""
        while qp.outstanding:
            head = qp.outstanding[0]
            if head.is_read or head.wr.opcode in _ATOMIC_WRS:
                break  # reads and atomics complete on their responses
            if not psn_not_before(ack_psn, head.last_psn):
                break  # ack is older than this request's end
            qp.outstanding.popleft()
            qp.requests_completed += 1
            if head.wr.signaled:
                qp.cq.push(WorkCompletion(head.wr.wr_id, WcStatus.SUCCESS,
                                          head.wr.opcode.value,
                                          head.wr.length, qp.qpn, self.sim.now))

    def _requester_read_response(self, qp: QueuePair, psn: int,
                                 syndrome: Optional[int], payload: bytes,
                                 tail: bool) -> None:
        """One read-response packet (``syndrome`` None: it has no AETH;
        ``tail``: LAST / ONLY) lands: scratch write and, on the tail, the
        completion."""
        if not qp.outstanding:
            return
        head = qp.outstanding[0]
        if not head.is_read:
            return
        index = psn_distance(head.first_psn, psn)
        if index > psn_distance(head.first_psn, head.last_psn):
            return  # a stale duplicate, or a later read's response
        offset = index * self.pmtu
        if payload and head.wr.local_va:
            region = self.host.address_space.by_va(head.wr.local_va + offset, len(payload))
            if region is not None:
                region.write(head.wr.local_va + offset, payload)
        head.read_received += len(payload)
        if syndrome is not None and is_positive_ack(syndrome):
            qp.credits = syndrome_value(syndrome)
        if tail:
            qp.outstanding.popleft()
            qp.requests_completed += 1
            qp.retry_budget = params.RDMA_RETRY_COUNT
            if head.wr.signaled:
                qp.cq.push(WorkCompletion(head.wr.wr_id, WcStatus.SUCCESS,
                                          head.wr.opcode.value,
                                          head.read_received, qp.qpn, self.sim.now))
            self._arm_retx(qp)
            self._pump(qp)

    def _requester_atomic_response(self, qp: QueuePair, bth: Bth,
                                   aeth: Aeth, atomic_ack: AtomicAckEth) -> None:
        if not qp.outstanding:
            return
        head = qp.outstanding[0]
        if head.wr.opcode not in (WrOpcode.COMPARE_SWAP, WrOpcode.FETCH_ADD):
            return
        if bth.psn != head.first_psn:
            return  # stale duplicate
        qp.outstanding.popleft()
        qp.requests_completed += 1
        qp.retry_budget = params.RDMA_RETRY_COUNT
        if is_positive_ack(aeth.syndrome):
            qp.credits = syndrome_value(aeth.syndrome)
        if head.wr.local_va:
            region = self.host.address_space.by_va(head.wr.local_va, 8)
            if region is not None:
                region.write(head.wr.local_va,
                             atomic_ack.original.to_bytes(8, "big"))
        if head.wr.signaled:
            qp.cq.push(WorkCompletion(head.wr.wr_id, WcStatus.SUCCESS,
                                      head.wr.opcode.value, 8, qp.qpn,
                                      self.sim.now))
        self._arm_retx(qp)
        self._pump(qp)

    def _retransmit_window(self, qp: QueuePair) -> None:
        """Go-back-N: re-send every outstanding request, in order, as
        first built."""
        if qp.state is not QpState.RTS:
            return
        for out in qp.outstanding:
            for pkt in self._build_request(qp, out.wr, out.first_psn):
                self._tx(pkt)
        self._arm_retx(qp)

    def _on_retx_timeout(self, qp: QueuePair) -> None:
        if not qp.outstanding or qp.state is not QpState.RTS:
            return
        qp.retry_budget -= 1
        if qp.retry_budget < 0:
            self._fail_qp(qp, WcStatus.RETRY_EXCEEDED)
            return
        qp.retransmissions += 1
        self._retransmit_window(qp)

    def _arm_retx(self, qp: QueuePair) -> None:
        timer = self._retx_timers.get(qp.qpn)
        if timer is None:
            return
        if qp.outstanding:
            timer.restart(qp.timeout_ns)
        else:
            timer.stop()

    def _fail_qp(self, qp: QueuePair, status: WcStatus) -> None:
        """Move the QP to ERROR and flush everything with error CQEs."""
        if qp.state is QpState.ERROR:
            return
        qp.set_error()
        timer = self._retx_timers.get(qp.qpn)
        if timer is not None:
            timer.stop()
        first = True
        while qp.outstanding:
            out = qp.outstanding.popleft()
            st = status if first else WcStatus.WR_FLUSH_ERROR
            first = False
            qp.cq.push(WorkCompletion(out.wr.wr_id, st, out.wr.opcode.value,
                                      out.wr.length, qp.qpn, self.sim.now))
        while qp.send_queue:
            wr = qp.send_queue.popleft()
            qp.cq.push(WorkCompletion(wr.wr_id, WcStatus.WR_FLUSH_ERROR,
                                      wr.opcode.value, wr.length, qp.qpn, self.sim.now))
        if self.on_qp_error is not None:
            self.on_qp_error(qp, status)

    # ------------------------------------------------------------------
    # Raw UDP (used by the connection manager)
    # ------------------------------------------------------------------

    def send_udp(self, dst_ip: Ipv4Address, dst_port: int, payload: bytes,
                 src_port: int = 32768) -> None:
        eth = EthernetHeader(self.gateway_mac, self.mac)
        ipv4 = Ipv4Header(self.ip, dst_ip)
        udp = UdpHeader(src_port, dst_port)
        pkt = Packet(eth, ipv4, udp, [], payload)
        pkt.finalize()
        self._tx(pkt)

    def register_udp_handler(self, port: int, handler: UdpHandler) -> None:
        self.udp_handlers[port] = handler

    # ------------------------------------------------------------------

    def power_off(self) -> None:
        """Crash the NIC along with its host: drop everything."""
        self.powered = False
        self._changed()
        for timer in self._retx_timers.values():
            timer.stop()

    def power_on(self) -> None:
        """Bring the NIC back after a host crash.

        A power cycle loses all volatile card state: every QP (peers'
        stale QPNs then miss and their go-back-N timers error those QPs,
        which is exactly how the remote side learns the card rebooted),
        the retransmission timers, and the pipeline occupancy horizons.
        ``_rx_inflight`` is deliberately left alone: packets that were
        mid-pipeline at power-off still run their ``_rx_process`` events,
        which decrement it unconditionally.
        """
        if self.powered:
            return
        self.powered = True
        for timer in self._retx_timers.values():
            timer.stop()
        self._retx_timers.clear()
        self.qps.clear()
        self._tx_busy_until = 0.0
        self._rx_busy_until = 0.0
        self._changed()

    def _trace(self, event: str, packet: Packet) -> None:
        details = {"src": str(packet.ipv4.src), "dst": str(packet.ipv4.dst),
                   "bytes": packet.wire_size}
        for header in packet.upper:
            if isinstance(header, Bth):
                details["op"] = header.opcode.name
                details["qp"] = f"{header.dest_qp:#x}"
                details["psn"] = header.psn
            elif isinstance(header, Reth):
                details["va"] = f"{header.virtual_address:#x}"
                details["rkey"] = f"{header.r_key:#x}"
            elif isinstance(header, Aeth):
                details["syndrome"] = f"{header.syndrome:#04x}"
        self.tracer.record(self.name, event, **details)

    def _fresh_qpn(self) -> int:
        while True:
            qpn = self._rng.u24()
            # QPNs 0 and 1 are reserved (SMI/GSI) in InfiniBand.
            if qpn > 1 and qpn not in self.qps:
                return qpn

    def __repr__(self) -> str:
        return f"RNic({self.name}, {self.ip}, qps={len(self.qps)})"
