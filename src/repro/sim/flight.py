"""Flight fusion: the clean-path consensus round trip as one precomputed
event timeline instead of O(n) scheduled kernel events.

P4CE's whole point is that one consensus round is *one* leader request and
*one* switch-gathered response -- yet simulating it costs ``7n + 7`` kernel
events per PSN (leader TX, switch ingress, n scatter legs, n replica RX,
n ACKs, switch gather, leader RX) even when nothing interesting happens.
Fusion stops paying the kernel for that machinery on the clean path, the
same move switch-based designs (P4xos, Paxos made switch-y) make in
hardware: treat the group round trip as a single pipeline stage.

One chain, or the real handlers
-------------------------------

A launch has exactly two ways to run.  Either :meth:`FlightPlanner.try_fuse`
accepts it and it rides the express chain below, or ``try_fuse`` declines
it (flag off, tracer on, armed fault, tainted QP, no validated path, a
packet not of a stamped WRITE shape) and ``RNic._tx`` schedules it
through the real handlers -- the reference every wire digest is judged
against.  A stage is a call, not a copy: what a hop does to a device has
one definition, a small method on its owner (``_Direction.send``,
``Switch._parse_ingress``, ``RNic._land_write``, ...; docs/PERF.md §9
lists them) that the real handler and the express stage both call.
Effects read ``sim._now``, which the drain sets to the hop's time.  What
is left in a stage is its probes, its virtual frame and its successor.

A launch is a whole RDMA WRITE message, one packet per PMTU segment:
``WRITE_ONLY``, or ``WRITE_FIRST``, zero or more ``WRITE_MIDDLE`` and
``WRITE_LAST``.  ``try_fuse`` claims the TX pipeline packet by packet, as
``RNic._tx`` would, and each packet rides its own chain of hops.  A head
(FIRST / ONLY) carries the RETH and opens each replica's write cursor, a
MIDDLE or LAST continues it, and only the tail (LAST / ONLY) completes the
message and is ACKed -- so the gather stages see one ACK per message, at
any size.

1. **Hops live in a planner-owned heap** (``sim._flight_queue``) as
   ``(virtual_time, seq, real_fn, real_args, express_fn, ctx)``
   tuples.  Each push consumes the *kernel's* sequence counter at exactly
   the intra-hop points the slow lane's ``schedule_at_fire`` calls would
   have, so timestamp ties against real events resolve in slow-lane order
   -- and ``(real_fn, real_args)`` is precisely the event the slow lane
   would have scheduled, which makes de-fusion trivially exact.

2. **Interior frames are columnar.**  From the leader's TX to the gather
   threshold the ``_v_*`` stages never build the per-leg packets: each
   scatter leg and each replica ACK travels as a :class:`_VFrame` (a
   wire-template reference plus the two or three words that vary per
   frame).  That is the only thing a stage leaves out.  The invariant
   that carries fusion: **an express stage executes at its hop's
   ``(time, seq)`` turn and mutates the same cells and counters its
   real handler would** -- by calling the same effect methods, in the
   handler's order -- and hands the frame to the digest tap in wire
   order.  Nothing is staged, so every register and counter is live at
   every instant a callback can run and there is no barrier to miss.
   At the gather threshold the forwarded ACK materializes into the exact
   real ``Packet`` and the three ``_x_*`` tail stages carry it to the
   leader, where the final hop runs the *real* RX handler so the CQE ->
   commit -> next-proposal cascade schedules real events.  (Handing the
   ACK to the real ``Switch._to_egress`` instead cost ~3 % of host time
   on the 64 B closed loop: three more kernel events per flight, and a
   run split; docs/PERF.md has the pairs.)  A launch packet is the
   wire's alone once it leaves the leader (the NIC keeps the work
   request, not the frames), so the chain only reads it and every leg
   that has to become real is a copy of it.

3. **The kernel drains due hops before any later event** (see
   ``Simulator._run``, which polls the hop queue directly): a heartbeat
   or timer never observes a replica log, credit register or link
   horizon the slow lane would have already advanced.
   :meth:`FlightPlanner._drain_super` replays due hops in batched runs
   against one real-event barrier; a stage's successor goes back on the
   hop heap and is popped at its own turn, never run ahead of it.  Each
   hop credits ``events_executed``, keeping the event count
   bit-identical.

4. **A stage that cannot prove its hop clean declines it to the real
   handler** (cache miss, foreign QP state, full RX queue, PSN out of
   order): :meth:`FlightPlanner._fallback` rebuilds any virtual frame
   into its real packet and invokes the hop's real handler at the warped
   clock -- never half-applied, because every probe precedes the stage's
   first mutation.  From there the flight is ordinary kernel events.

5. **Faults defuse.**  The moment a fault injector arms (link down or
   lossy, switch or NIC power-off), a control-plane write touches any
   traversed table/register/multicast group, a tap is installed on a
   traversed link, or a NAK/retransmission taints a QP, every pending
   hop is re-materialized as an ordinary kernel event at its exact
   virtual time and original seq, and fusion stays off until the fault
   heals (taint clears at the first fresh PSN).  Gather-register slot
   wrap (``NumRecv``'s 256-slot reuse) needs no fallback at all: the
   express gather executes the same masked register-cell arithmetic as
   the real RegisterActions, so reuse is exact.

Links whose tap is not the batched :class:`~repro.sim.columnar.DigestTap`
want real frames on every hop; a path over one is not validated, so its
launches are declined.

The fused-vs-reference tests (``tests/test_flight_fusion.py``,
``tests/test_columnar_express.py``) and the digest-parity sweeps
(``tools/sweeps.py``) prove all of this end to end: identical
``events_executed``, metrics and packet-trace digests, including fault
runs where fusion disengages and re-engages mid-run.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set

from .. import fastlane, params
from ..net.headers import ETHERNET_FCS_BYTES, EthernetHeader
from ..rdma.headers import Bth, PSN_MASK, Reth
from ..rdma.icrc import payload_crc
from ..rdma.opcodes import Opcode
from ..rdma.qp import QpState
from ..rdma.wiretemplate import (
    ack_frame,
    ack_template,
    install_scatter,
    scatter_fingerprint,
    scatter_template,
)
from .columnar import DigestTap
from .kernel import Simulator
from .trace import TraceRecord, Tracer

#: Half the 24-bit PSN space, for "not before" window comparisons.
_PSN_HALF = 1 << 23

_ROCE_PORT = params.ROCE_UDP_PORT
_NUMRECV_SLOTS = params.NUMRECV_SLOTS
_OP_ACK = Opcode.ACKNOWLEDGE

#: The stamped WRITE shapes a fused flight carries: opcode -> (header
#: count, AckReq).  A head (FIRST / ONLY) is BTH + the RETH that opens the
#: replica's write cursor; a tail (LAST / ONLY) is the one packet of a
#: message that asks for an ACK and completes it.
_WRITE_SHAPES = {
    Opcode.RDMA_WRITE_ONLY: (2, True),
    Opcode.RDMA_WRITE_FIRST: (2, False),
    Opcode.RDMA_WRITE_MIDDLE: (1, False),
    Opcode.RDMA_WRITE_LAST: (1, True),
}

#: Ethernet framing bytes around the IPv4 datagram (wire-size arithmetic
#: for virtual ACK frames, matching ``Packet.wire_size``).
_ETH_WRAP = EthernetHeader.SIZE + ETHERNET_FCS_BYTES

class _FusedPath:
    """Everything the express stages need about one broadcast QP's path,
    resolved once per control-plane epoch: devices, link directions,
    caches, register cells and timing constants."""

    __slots__ = ("epoch", "nic", "nic_port", "switch", "program",
                 "leader_link", "leader_in_port", "switch_port", "dir_up",
                 "dir_down", "fc", "ecache", "numrecv_cells", "numrecv_mask",
                 "half_pipe", "legs")


class _FusedLeg:
    """One scatter/gather leg of a fused path (one replica)."""

    __slots__ = ("path", "rid", "out_port", "counters", "link", "dir_down",
                 "dir_back", "rnic", "rqp", "rqpn", "gather_key")


class _VLaunch:
    """Shared per-packet launch info for virtual scatter legs:
    everything every leg derives from one launch WRITE packet, computed
    once at scatter ingress.  ``va0`` and ``dlen`` are the RETH's, None
    for a ``WRITE_MIDDLE`` / ``WRITE_LAST``."""

    __slots__ = ("packet", "psn0", "ack_req", "va0", "dlen", "payload",
                 "payload_crc", "fp", "wire")


class _VFrame:
    """A virtual in-flight frame: the varying words of one
    scatter leg (``kind`` 0) or one replica ACK (``kind`` 1) plus a
    wire-template reference -- enough to rebuild the exact real
    ``Packet`` on demand (fallback, defusion, gather threshold) or to
    feed the columnar digest tap without ever building it.  A scatter
    leg's ``va`` is None when its frame has no RETH."""

    __slots__ = ("kind", "leg", "lau", "rewritten", "psn", "ack_word", "va",
                 "rkey", "tmpl", "syndrome", "msn", "wire", "iport")


class FlightPlanner:
    """Validates and computes fused consensus flights.

    One planner per :class:`~repro.sim.kernel.Simulator`; constructing it
    attaches the drain hook the kernel polls before executing events.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None):
        self._sim = sim
        self._tracer = tracer
        #: Global hop heap, shared with the kernel (``sim._flight_queue``):
        #: (vt, seq, real_fn, real_args, express_fn, ctx) tuples.
        self._fq: List[tuple] = sim._flight_queue
        #: Fault sources currently armed (ids of faulted devices).  Any
        #: entry disables fusion entirely.
        self._armed: Set[int] = set()
        #: QPs that saw a NAK/retransmission -> first trustworthy PSN.
        self._tainted: Dict[Any, int] = {}
        #: Resolved paths keyed by (leader nic id, qpn).
        self._paths: Dict[tuple, _FusedPath] = {}
        #: Control-plane epoch: bumped by every table/register/multicast
        #: write on a watched device; cached paths pin the epoch they were
        #: resolved against.
        self._epoch = 0
        #: Defusion generation: bumped whenever pending work materializes;
        #: ``_run_gen`` is its value when the current run began (mid-stage
        #: guard -- see _push_hop).
        self._gen = 0
        self._run_gen = -1
        # Diagnostics / attribution.
        self.flights_fused = 0
        self.hops_replayed = 0
        self.defusions = 0
        self.fuse_rejects = 0
        self.express_fallbacks = 0
        # Batched-drain telemetry.
        self.runs_fused = 0
        self.hops_batched = 0
        self.max_run_len = 0
        self.batch_splits = 0
        # Columnar telemetry; ``fastlane.columnar`` is credited at
        # _drain_super exit (materializations also happen outside drains,
        # hence the settled mark).
        self.vx_hops = 0
        self.vx_materialized = 0
        self._vx_mat_settled = 0
        sim._flight_drain = self._drain_super
        sim._flight_planner = self

    def stats(self) -> Dict[str, int]:
        """Fusion attribution for this simulator (sharded reports list
        one per shard, in shard order, to prove fusion engages at every
        G)."""
        runs = self.runs_fused
        return {
            "flights_fused": self.flights_fused,
            "hops_replayed": self.hops_replayed,
            "defusions": self.defusions,
            "fuse_rejects": self.fuse_rejects,
            "express_fallbacks": self.express_fallbacks,
            "runs_fused": runs,
            "mean_run_len": (self.hops_batched / runs) if runs else 0.0,
            "max_run_len": self.max_run_len,
            "batch_splits": self.batch_splits,
            "vx_hops": self.vx_hops,
            "vx_materialized": self.vx_materialized,
        }

    # ------------------------------------------------------------------
    # Fusion entry point (called from RNic._launch)
    # ------------------------------------------------------------------

    def try_fuse(self, nic, qp, first_psn: int, packets) -> bool:
        """Compute a write message -- its ``packets``, one per PMTU
        segment -- as a fused flight.  Returns False to decline: the
        caller then takes the ordinary per-hop TX path, i.e. the real
        handlers.  Every probe precedes the first mutation, so a declined
        launch leaves no trace (``nic._tx_busy_until`` is where
        ``RNic._tx`` expects to claim it)."""
        flags = fastlane.flags
        if (not flags.flight_fusion or self._armed
                or not flags.rewrite_templates or not flags.flow_cache):
            # Fusion layers on the template/cache lanes: the express
            # stages reproduce *their* counters and wire images, not the
            # slow header-object path's allocation pattern.
            return False
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            return False
        marker = self._tainted.get(qp)
        if marker is not None:
            # Re-engage only from the first PSN issued after recovery:
            # older PSNs may still race retransmitted duplicates.
            if ((first_psn - marker) & 0xFFFFFF) >= _PSN_HALF:
                self.fuse_rejects += 1
                return False
            del self._tainted[qp]
        path = self._resolve_path(nic, qp)
        if path is not None:
            for packet in packets:
                up = packet._upper
                bth = up[0]
                n = len(up)
                if (type(bth) is not Bth or not packet.has_icrc
                        or _WRITE_SHAPES.get(bth.opcode) != (n, bth.ack_req)
                        or (n == 2 and type(up[1]) is not Reth)):
                    path = None
                    break
        if path is None:
            # No validated path, or a packet not of a stamped WRITE shape
            # the virtual frames are built from.
            self.fuse_rejects += 1
            return False
        sim = self._sim
        fq = self._fq
        emit = nic._emit
        xfn = self._v_leader_emit
        # RNic._tx per packet, in order (powered is path-validated and
        # fault-watched): claim the TX pipeline, push the emit hop.
        for packet in packets:
            t = nic._tx_claim()
            seq = sim._seq
            sim._seq = seq + 1
            heapq.heappush(fq, (t, seq, emit, (packet,), xfn, path))
        self.flights_fused += 1
        return True

    # ------------------------------------------------------------------
    # Hop-queue plumbing
    # ------------------------------------------------------------------

    def _push_hop(self, t: float, fn, args: tuple, xfn, ctx) -> None:
        """Queue a stage's successor hop.  It consumes the kernel's
        sequence counter, so the hop gets exactly the seq the slow lane's
        ``schedule_at_fire`` would have assigned and timestamp ties --
        hop vs real event, and real events scheduled later -- resolve in
        slow-lane order; the drain then runs it at that ``(time, seq)``
        turn.  A defusion since the run began (a notify watcher in the
        replica-RX stage can defuse mid-stage) means express stages must
        not outrun the new configuration: the hop becomes a real kernel
        event."""
        sim = self._sim
        if self._gen != self._run_gen:
            sim.schedule_at_fire(t, fn, *self._real_args(args))
            return
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(self._fq, (t, seq, fn, args, xfn, ctx))

    def _real_args(self, args: tuple) -> tuple:
        """``args`` with any virtual frame rebuilt into its real packet."""
        for i, a in enumerate(args):
            if type(a) is _VFrame:
                self.vx_materialized += 1
                args = args[:i] + (self._materialize(a),) + args[i + 1:]
        return args

    def _fallback(self, entry: tuple) -> None:
        """Run a hop's real handler (at the warped clock) instead of its
        express stage.  Every express probe precedes its stage's first
        mutation, so the real handler starts from pristine state; the
        events it schedules are real kernel events with the exact seqs
        the slow lane would have consumed next.  Any virtual frame in
        the hop's args is rebuilt into its real packet first."""
        self.express_fallbacks += 1
        entry[2](*self._real_args(entry[3]))

    # ------------------------------------------------------------------
    # Drain: called by the kernel before any event at/after a due hop
    # ------------------------------------------------------------------

    def drain(self, limit: float) -> bool:
        """Replay pending hops due at or before ``limit``: the public
        name of :meth:`_drain_super`, which is what the kernel calls
        (``sim._flight_drain``).  A separate function, not an alias,
        because ``bench/trace.py`` instruments both names."""
        return self._drain_super(limit)

    def _drain_super(self, limit: float) -> bool:
        """Replay pending hops due at or before ``limit`` in batched
        **runs**, stopping early when a real kernel event becomes due
        first (timestamp ties resolve by kernel seq -- slow-lane order).
        Returns True if at least one hop ran (False tells the kernel the
        front real event genuinely goes first).

        At saturation the hop queue holds a pipelined window of
        interleaved clean flights -- tens of thousands of hops between
        real kernel events.  The real-event barrier (heap front peek,
        seq tie-break) is derived once per run, and consecutive due hops
        then execute back to back, which is exact because the barrier
        cannot move earlier while the heap is untouched.  The run splits
        -- falling back to a fresh barrier derivation -- the moment a
        hop schedules kernel work (``len(heap)`` moved: terminal commit
        cascades, express fallbacks, mid-stage defusions) or the barrier
        time is reached.  Hops tied with the barrier timestamp are left
        for the next outer iteration, where the seq comparison resolves
        the tie in slow-lane order.

        Every hop -- a stage's successor included -- is popped here at
        its own ``(time, seq)`` turn, so everything a stage reads or
        writes (busy horizons, registers, counters, the digest tap's
        buffer) is in slow-lane order at every instant.
        """
        sim = self._sim
        fq = self._fq
        if not fq:
            return False
        heap = sim._heap
        pop = heapq.heappop
        credits = 0
        vx0 = self.vx_hops
        while fq:
            entry = fq[0]
            vt = entry[0]
            if vt > limit:
                break
            if heap:
                top = heap[0]
                barrier = top[0]
                if barrier < vt or (barrier == vt and top[1] < entry[1]):
                    break
                if limit < barrier:
                    barrier = limit
            else:
                barrier = limit
            # One run: every hop strictly before ``barrier`` outruns any
            # real event while the heap stays put.
            run = 0
            hlen = len(heap)
            self._run_gen = self._gen
            while True:
                pop(fq)
                sim._now = entry[0]
                run += 1
                xfn = entry[4]
                if xfn is None:
                    # Completion hop: the real leader-RX handler runs so
                    # the CQE -> commit -> next-proposal cascade schedules
                    # real events at exact absolute times.
                    entry[2](*entry[3])
                else:
                    xfn(entry[0], entry)
                if not fq or len(heap) != hlen:
                    break
                entry = fq[0]
                if entry[0] >= barrier:
                    break
            credits += run
            self.runs_fused += 1
            self.hops_batched += run
            if run > self.max_run_len:
                self.max_run_len = run
        if credits:
            # Each hop is an event the slow lane executed.
            sim._event_count += credits
            self.hops_replayed += credits
            col = fastlane.columnar
            if self.vx_hops != vx0:
                col["runs_vectorized"] += 1
                col["hops_batched"] += self.vx_hops - vx0
            col["columnar_fallbacks"] += (self.vx_materialized
                                          - self._vx_mat_settled)
            self._vx_mat_settled = self.vx_materialized
            return True
        return False

    # ------------------------------------------------------------------
    # Invalidation: fault hooks, CP writes and NAK/retransmit taint
    # ------------------------------------------------------------------

    def on_fault(self, device: Any) -> None:
        """A traversed device faulted: disengage fusion until it heals."""
        self._armed.add(id(device))
        self._defuse_all()

    def on_heal(self, device: Any, still_faulty: bool = False) -> None:
        if not still_faulty:
            self._armed.discard(id(device))

    def on_retransmit(self, qp) -> None:
        """A NAK or timeout retransmission on ``qp``: materialize fused
        work and re-engage only from the next fresh PSN."""
        self._tainted[qp] = qp.next_psn
        self._defuse_all()

    def on_cp_write(self, source: Any = None) -> None:
        """A control-plane write on a watched table/register/multicast
        engine: every cached path is stale, and in-flight express hops
        must not outrun the new configuration."""
        self._epoch += 1
        self._gen += 1
        if self._fq:
            self._defuse_all()

    def _defuse_all(self) -> None:
        """Re-materialize every pending hop as an ordinary kernel event at
        its exact virtual time *and original kernel seq* (pushes consumed
        real seqs, so ordering against live events is preserved).  Exact
        by construction: each hop tuple carries precisely the (fn, args)
        event the slow lane would have scheduled, and all of that event's
        scheduling-time effects were applied when the hop was pushed.
        Virtual frames rebuild into real packets."""
        self._gen += 1
        fq = self._fq
        if fq:
            self.defusions += 1
            # The trigger (fault, heal, CP write, retransmit) landed
            # while a batched window was held: the batch splits here and
            # the un-executed tail below re-materializes at exact
            # timestamps.  A trigger landing *inside* a run also ends the
            # run early (the heap-length check in _drain_super).
            self.batch_splits += 1
            ordered = sorted(fq)
            fq.clear()
            # A hop's first four fields *are* the kernel's fire-and-forget
            # entry, historical seq included.
            heap = self._sim._heap
            for entry in ordered:
                heapq.heappush(heap, entry[:3] + (self._real_args(entry[3]),))
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                # Fusion never engages while tracing, but a tracer flipped
                # on mid-run (diagnostics) still sees the split: one bulk
                # emission for the whole re-materialized tail.
                tracer.emit_many([
                    TraceRecord(entry[0], "flight", "rematerialize",
                                {"seq": entry[1],
                                 "fn": getattr(entry[2], "__qualname__",
                                               repr(entry[2]))})
                    for entry in ordered])

    # ------------------------------------------------------------------
    # Express stages.  Each mirrors one real handler's observable effects
    # for the proven-clean shape -- by calling the effect methods that
    # handler calls -- and pushes the successor hop; anything else falls
    # back to the real handler before the first mutation.
    # Stage signature: (vt, entry) with entry =
    # (vt, seq, real_fn, real_args, stage, ctx).
    #
    # The chain's tail comes first: at the gather threshold the forwarded
    # ACK is a real packet, and these three stages carry it from switch
    # egress to the leader's RX pipeline.
    # ------------------------------------------------------------------

    def _x_gather_egress(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._run_egress for the forwarded ACK (rid 0 passes
        # through on_egress untouched).
        path = entry[5]
        args = entry[3]
        ack = args[2]
        path.switch.counters[args[0]].egress_runs += 1
        ack.finalize()
        self._push_hop(vt + path.half_pipe, path.switch._transmit,
                       (args[0], ack), self._x_gather_transmit, path)

    def _x_gather_transmit(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._transmit + Link.transmit (switch -> leader).
        path = entry[5]
        args = entry[3]
        ack = args[1]
        path.switch.counters[args[0]].tx_frames += 1
        link = path.leader_link
        d = path.dir_down
        t = d.send(ack.wire_size)
        tap = link._tap
        if tap is not None:
            tap(path.switch_port, ack)
        self._push_hop(t, link._deliver, (d, ack), self._x_leader_arrive,
                       path)

    def _x_leader_arrive(self, vt: float, entry: tuple) -> None:
        # Mirrors Link._deliver + RNic.handle_packet at the leader; the
        # pushed successor is the *final* hop (xfn None): the real
        # _rx_process runs the completion cascade with real events.
        path = entry[5]
        lnic = path.nic
        ready = lnic._rx_admit()
        if ready is not None:
            self._push_hop(ready, lnic._rx_process, (entry[3][1],), None,
                           None)

    # ------------------------------------------------------------------
    # Materialization and the _v_* stages: the chain from leader TX to
    # the gather threshold.  Each hop runs at the (vt, seq) turn the real
    # handler's event would have and calls the same effect methods; only
    # the interior frames differ -- they are _VFrames, never built.
    # ------------------------------------------------------------------

    def flush_columnar(self) -> None:
        """Frozen name, no caller under ``src/``: ``bench/trace.py``
        resolves it in the class ``__dict__``.  Nothing is staged any
        more -- express stages write cells and counters directly -- so
        there is nothing to land; goes when ``BOUNDARIES`` drops it."""

    def _materialize(self, vf: _VFrame):
        """Rebuild the real ``Packet`` a virtual frame stands for.  A
        scatter leg is a copy of the launch packet -- which is only ever
        read -- plus, past egress, the template install: byte- and
        ICRC-identical to the ``scatter_rewrite`` the real egress would
        have performed."""
        leg = vf.leg
        if vf.kind == 1:
            rnic = leg.rnic
            rqp = leg.rqp
            ack = ack_frame(rqp.tx_templates, rnic.gateway_mac, rnic.mac,
                            rnic.ip, rqp.remote_ip, rqp.udp_sport,
                            _ROCE_PORT, rqp.remote_qpn, vf.psn, vf.syndrome,
                            vf.msn)
            if vf.iport is not None:
                ack.meta["ingress_port"] = vf.iport
            return ack
        lau = vf.lau
        pkt = lau.packet.copy()
        pkt.meta["replication_id"] = leg.rid
        if vf.rewritten:
            install_scatter(pkt, vf.tmpl, vf.psn, lau.ack_req, vf.va)
            pkt.finalize()
        return pkt

    def _v_leader_emit(self, vt: float, entry: tuple) -> None:
        # Mirrors RNic._emit + Port.send + Link.transmit (leader ->
        # switch).  The launch frame is real (the leader's own TX); only
        # the successor chain goes columnar.
        path = entry[5]
        packet = entry[3][0]
        self.vx_hops += 1
        path.nic.packets_sent += 1
        d = path.dir_up
        link = path.leader_link
        t = d.send(packet.wire_size)
        tap = link._tap
        if tap is not None:
            tap(path.nic_port, packet)
        self._push_hop(t, link._deliver, (d, packet),
                       self._v_scatter_arrive, path)

    def _v_scatter_arrive(self, vt: float, entry: tuple) -> None:
        # Mirrors Link._deliver + Switch.handle_packet (ingress parser claim).
        path = entry[5]
        packet = entry[3][1]
        self.vx_hops += 1
        sw = path.switch
        idx = path.leader_in_port
        done = sw._parse_ingress(idx)
        packet.meta["ingress_port"] = idx
        self._push_hop(done, sw._run_ingress, (idx, packet),
                       self._v_scatter_ingress, path)

    def _v_scatter_ingress(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram scatter classification
        # (flow-cache hit, keyed by (bcast QPN, opcode) as the real
        # _classify_roce keys it: each message shape has its own verdict)
        # + the packet's own NumRecv slot reset + multicast fan-out, but
        # the fan-out pushes _VFrames: per-leg varying words are computed
        # at egress, the packets never.  The register guard reset
        # (_begin_packet) is skipped: guards are only read by
        # RegisterAction.execute, which no express stage calls, and every
        # real ingress resets them first.
        path = entry[5]
        packet = entry[3][1]
        upper = packet._upper
        bth = upper[0]
        # The verdict is a scatter one: _rebuild_path checked the tables
        # the walk reads, and any write to them flushes the cache.
        cached = path.fc.hit((bth.dest_qp, bth.opcode))
        if cached is None:
            # Cold verdict: let the real walk classify (and warm the cache
            # for the next packet of this shape).
            self._fallback(entry)
            return
        self.vx_hops += 1
        sw = path.switch
        packet.meta["packet_token"] = sw._next_packet_token
        sw._next_packet_token += 1
        path.numrecv_cells[cached[1][0] + bth.psn % _NUMRECV_SLOTS] = 0
        path.program.scattered += 1
        lau = _VLaunch()
        lau.packet = packet
        lau.psn0 = bth.psn
        lau.ack_req = bth.ack_req
        if len(upper) == 2:
            reth = upper[1]
            lau.va0 = reth.virtual_address
            lau.dlen = reth.dma_length
        else:
            lau.va0 = lau.dlen = None
        lau.payload = packet._payload
        lau.payload_crc = payload_crc(packet)
        lau.fp = scatter_fingerprint(packet)
        lau.wire = packet.wire_size
        tm = vt + path.half_pipe
        for leg in path.legs:
            vf = _VFrame()
            vf.kind = 0
            vf.leg = leg
            vf.lau = lau
            vf.rewritten = False
            out = leg.out_port
            self._push_hop(sw._parse_egress(out, tm), sw._run_egress,
                           (out, leg.rid, vf), self._v_scatter_egress, leg)

    def _v_scatter_egress(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._run_egress + P4ceProgram.on_egress for one
        # multicast leg (egress-cache hit): resolve the wire template and
        # the leg's varying words; patch nothing.
        leg = entry[5]
        path = leg.path
        args = entry[3]
        rid = args[1]
        if rid not in path.ecache._cache:
            self._fallback(entry)  # cold cache: real egress fills it
            return
        self.vx_hops += 1
        leg.counters.egress_runs += 1
        pre, templates = path.program._egress_leg(rid)
        vf = args[2]
        lau = vf.lau
        sw = path.switch
        # The template's shape (with or without RETH) is the packet's:
        # the fingerprint leads with its header count.
        tmpl = scatter_template(lau.packet, templates, lau.fp, pre,
                                sw.mac, sw.ip)
        psn = (lau.psn0 + pre[4]) & PSN_MASK
        vf.psn = psn
        vf.ack_word = ((1 << 31) if lau.ack_req else 0) | psn
        va0 = lau.va0
        vf.va = None if va0 is None else va0 + pre[5]
        vf.rkey = pre[6]
        vf.tmpl = tmpl
        vf.rewritten = True
        self._push_hop(vt + path.half_pipe, sw._transmit, (args[0], vf),
                       self._v_scatter_transmit, leg)

    def _v_scatter_transmit(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._transmit + Link.transmit (switch -> replica);
        # the frame is absorbed by the columnar digest tap.
        leg = entry[5]
        vf = entry[3][1]
        self.vx_hops += 1
        leg.counters.tx_frames += 1
        lau = vf.lau
        link = leg.link
        d = leg.dir_down
        t = d.send(lau.wire)
        tap = link._tap
        if tap is not None:
            tap.absorb_scatter(vf.tmpl, vf.ack_word, vf.va, lau.payload,
                               lau.payload_crc)
        self._push_hop(t, link._deliver, (d, vf), self._v_replica_arrive,
                       leg)

    def _v_replica_arrive(self, vt: float, entry: tuple) -> None:
        # Mirrors Link._deliver + RNic.handle_packet (RX pipeline claim).
        leg = entry[5]
        rnic = leg.rnic
        ready = rnic._rx_admit()
        if ready is None:
            return  # the leg dies here, exactly as in the slow lane
        self.vx_hops += 1
        self._push_hop(ready, rnic._rx_process, (entry[3][1],),
                       self._v_replica_rx, leg)

    def _v_replica_rx(self, vt: float, entry: tuple) -> None:
        # Mirrors RNic._rx_process + _roce_dispatch + _responder_write for the
        # leg's shape + the ACK build/TX.  The shape is one of try_fuse's
        # stamped WRITE shapes, AckReq set exactly on the tail, and the
        # ICRC check is not run: the leg's ICRC is the template patch,
        # which a real replica's check recomputes from the installed
        # headers and accepts (a fusion-off run would drop the frame and
        # diverge from the fused one otherwise).  So the probes reduce to
        # QP liveness, PSN order and _land_write's own checks, which
        # change nothing when they fail.  Any unclean answer rebuilds the
        # real packet and falls back whole.
        leg = entry[5]
        vf = entry[3][0]
        rnic = leg.rnic
        qp = rnic.qps.get(leg.rqpn)
        if (not rnic.powered or qp is None or qp.state is QpState.ERROR
                or vf.psn != qp.expected_psn):
            self._fallback(entry)
            return
        lau = vf.lau
        payload = lau.payload
        if rnic._land_write(qp, vf.psn, vf.va, vf.rkey, lau.dlen,
                            payload) is not None:
            self._fallback(entry)
            return
        self.vx_hops += 1
        rnic._rx_inflight -= 1
        rnic.packets_received += 1
        if not lau.ack_req:
            return  # FIRST / MIDDLE: no completion, no ACK
        rnic._complete_write(qp, vf.tmpl.bth.clone_rewrite(vf.psn, True),
                             payload)
        syndrome = rnic._ack_syndrome()
        atmpl = ack_template(qp.tx_templates, rnic.gateway_mac, rnic.mac,
                             rnic.ip, qp.remote_ip, qp.udp_sport,
                             _ROCE_PORT, qp.remote_qpn)
        if rnic.powered:  # a notify watcher may have crashed the host
            avf = _VFrame()
            avf.kind = 1
            avf.leg = leg
            avf.tmpl = atmpl
            avf.psn = vf.psn
            avf.syndrome = syndrome
            avf.msn = qp.msn
            avf.wire = atmpl.base.ipv4.total_length + _ETH_WRAP
            avf.iport = None
            # A watcher defusing mid-notify is _push_hop's generation branch:
            # the ACK materializes into a real kernel event.
            self._push_hop(rnic._tx_claim(), rnic._emit, (avf,),
                           self._v_ack_emit, leg)

    def _v_ack_emit(self, vt: float, entry: tuple) -> None:
        # Mirrors RNic._emit + Link.transmit (replica -> switch).
        leg = entry[5]
        avf = entry[3][0]
        self.vx_hops += 1
        leg.rnic.packets_sent += 1
        link = leg.link
        d = leg.dir_back
        t = d.send(avf.wire)
        tap = link._tap
        if tap is not None:
            tap.absorb_ack(avf.tmpl, avf.psn, avf.syndrome, avf.msn)
        self._push_hop(t, link._deliver, (d, avf), self._v_ack_arrive, leg)

    def _v_ack_arrive(self, vt: float, entry: tuple) -> None:
        # Mirrors Link._deliver + Switch.handle_packet for the ACK.
        leg = entry[5]
        avf = entry[3][1]
        self.vx_hops += 1
        sw = leg.path.switch
        idx = leg.out_port
        done = sw._parse_ingress(idx)
        avf.iport = idx
        self._push_hop(done, sw._run_ingress, (idx, avf),
                       self._v_gather_ingress, leg)

    def _v_gather_ingress(self, vt: float, entry: tuple) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram._gather (NumRecv
        # count, credit fold, forward-or-drop) on the live register cells:
        # the count runs the RegisterAction's masked arithmetic --
        # compared unmasked, as _numrecv_count returns it, so 256-slot PSN
        # wrap behaves identically -- and the rest is the real _gather_ack.
        # Virtual ACKs always carry make_syndrome(ACK, credits), so the
        # NAK branch is unreachable by construction.  At the threshold
        # the forwarded ACK materializes and rides the real-packet tail.
        leg = entry[5]
        path = leg.path
        avf = entry[3][1]
        cached = path.fc.hit(leg.gather_key)  # a gather verdict, as above
        if cached is None:
            self._fallback(entry)
            return
        self.vx_hops += 1
        sw = path.switch
        token = sw._next_packet_token
        sw._next_packet_token = token + 1
        pre = cached[1]  # _GatherPre
        leader_psn = (avf.psn - pre.psn_offset) & PSN_MASK
        cells = path.numrecv_cells
        nslot = pre.numrecv_base + leader_psn % _NUMRECV_SLOTS
        count = cells[nslot] + 1
        cells[nslot] = count & path.numrecv_mask
        prog = path.program
        minimum = prog._gather_ack(pre, leader_psn, avf.syndrome & 0x1F,
                                   count)
        if minimum is None:
            sw._ingress_drop(leg.out_port)  # surplus (or early) ACK
            return
        ack = self._materialize(avf)
        ack.meta["packet_token"] = token
        upper = ack._upper
        prog._rewrite_to_leader(ack, upper[0], upper[1], leader_psn, pre,
                                minimum)
        out = path.leader_in_port
        self._push_hop(sw._parse_egress(out, vt + path.half_pipe),
                       sw._run_egress, (out, 0, ack), self._x_gather_egress,
                       path)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _resolve_path(self, nic, qp) -> Optional[_FusedPath]:
        key = (id(nic), qp.qpn)
        path = self._paths.get(key)
        if path is not None and path.epoch == self._epoch:
            return path
        path = self._rebuild_path(nic, qp)
        if path is None:
            self._paths.pop(key, None)
        else:
            self._paths[key] = path
        return path

    def _rebuild_path(self, nic, qp) -> Optional[_FusedPath]:
        """Validate the full scatter/gather topology for one broadcast QP
        and pin every object the express stages touch.  Probes use raw
        reads (``_entries`` / ``_cache``) so validation never perturbs the
        hit/miss counters the slow lane produces."""
        if not nic.powered:
            return None
        port = nic.port
        link = port.link
        if link is None or not link.up or link._drop_probability > 0.0:
            return None
        switch_port = port.peer
        switch = switch_port.device
        program = getattr(switch, "program", None)
        bcast = getattr(program, "bcast_table", None)
        if bcast is None or not switch.powered:
            return None
        if program.ack_drop_in_egress:
            # Ablation config: surplus ACKs traverse the leader's egress
            # parser, where the express gather drops them in ingress only.
            return None
        if qp.remote_ip != switch.ip:
            return None
        entry = bcast._entries.get((qp.remote_qpn,))
        if entry is None or entry.action != "broadcast":
            return None
        copies = switch.multicast.lookup(int(entry.params["multicast_group"]))
        if copies is None:
            return None
        fc = program._flow_cache
        ecache = program._egress_cache
        if fc is None or ecache is None:
            return None
        l3 = switch.l3_table
        aggr = program.aggr_table
        econn = program.egress_conn_table
        # Reject stale caches instead of reconciling them here: a
        # reconcile would bump invalidation counters at a different
        # instant than the slow lane.  A couple of slow flights after any
        # control-plane write warm everything back up.
        if fc._dirty or ecache._dirty or program._egress_templates._dirty:
            return None
        dir_down = link.direction_from(switch_port)
        if dir_down.dst.device is not nic:
            return None
        path = _FusedPath()
        path.nic = nic
        path.nic_port = port
        path.switch = switch
        path.program = program
        path.leader_link = link
        path.leader_in_port = switch_port.index
        path.dir_up = link.direction_from(port)
        path.dir_down = dir_down
        path.switch_port = switch_port
        path.fc = fc
        path.ecache = ecache
        path.numrecv_cells = program.numrecv._cells
        path.numrecv_mask = program.numrecv.mask
        path.half_pipe = switch.pipeline_latency_ns * 0.5
        path.legs = legs = []
        ports = switch.ports
        nports = len(ports)
        watched = [nic, link, switch]
        for copy in copies:
            out = copy.egress_port
            rid = copy.replication_id
            if rid == 0 or not 0 <= out < nports:
                return None  # rid 0 would skip the egress rewrite
            eg_port = ports[out]
            rlink = eg_port.link
            if rlink is None or not rlink.up \
                    or rlink._drop_probability > 0.0:
                return None
            tap = rlink._tap
            if tap is not None and type(tap) is not DigestTap:
                # A foreign tap wants real frames, and interior frames
                # on this cable are virtual.  (Installing a tap bumps the
                # epoch, so a later one lands here too.)
                return None
            rport = rlink.other_end(eg_port)
            rnic = rport.device
            if rnic is None or not getattr(rnic, "powered", False):
                return None
            centry = econn._entries.get((rid,))
            if centry is None or centry.action != "rewrite":
                return None
            cp = centry.params
            if int(cp["udp_port"]) != _ROCE_PORT or cp["ip"] != rnic.ip:
                return None
            rqp = rnic.qps.get(int(cp["qpn"]))
            if rqp is None or rqp.remote_ip != switch.ip:
                return None
            bentry = bcast._entries.get((rqp.remote_qpn,))
            if bentry is not None and bentry.action == "broadcast":
                return None  # the walk would not classify its ACKs gather
            aentry = aggr._entries.get((rqp.remote_qpn,))
            if aentry is None or aentry.action != "gather":
                return None
            ap = aentry.params
            if int(ap["leader_port"]) != switch_port.index \
                    or ap["leader_ip"] != nic.ip:
                return None
            leg = _FusedLeg()
            leg.path = path
            leg.rid = rid
            leg.out_port = out
            leg.counters = switch.counters[out]
            leg.link = rlink
            leg.dir_down = rlink.direction_from(eg_port)
            leg.dir_back = rlink.direction_from(rport)
            leg.rnic = rnic
            leg.rqp = rqp
            leg.rqpn = rqp.qpn
            leg.gather_key = (rqp.remote_qpn, _OP_ACK)
            legs.append(leg)
            watched.append(rlink)
            watched.append(rnic)
        # Fault watches: any impairment on a traversed device disengages
        # fusion immediately; CP-write watches: any table/register/
        # multicast write invalidates every resolved path.
        for device in watched:
            device._flight_watch = self
        for table in (bcast, aggr, econn, l3):
            table._flight_watch = self
        program.numrecv._flight_watch = self
        for reg in program.credits:
            reg._flight_watch = self
        switch.multicast._flight_watch = self
        path.epoch = self._epoch
        return path
