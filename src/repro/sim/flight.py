"""Flight fusion: the clean-path consensus round trip through express
stages instead of the real per-hop handlers.

P4CE's whole point is that one consensus round is *one* leader request and
*one* switch-gathered response -- yet simulating it costs ``7n + 7`` kernel
events per PSN (leader TX, switch ingress, n scatter legs, n replica RX,
n ACKs, switch gather, leader RX) even when nothing interesting happens.
On the clean path every one of those hops is determined in advance, so
fusion keeps the events and drops the handlers' generality: each hop runs
as an express stage that builds no per-leg packet and walks no table.

One chain, or the real handlers
-------------------------------

A launch has exactly two ways to run.  Either :meth:`FlightPlanner.try_fuse`
accepts it and it rides the express chain below, or ``try_fuse`` declines
it (flag off, tracer on, no validated path, a launch not of its path's
shape) and ``RNic._tx`` schedules it through the real handlers -- the
reference every wire digest is judged against.  A stage is a call, not a
copy: what a hop does to a device has one definition, a small method on
its owner (``_Direction.send``, ``Switch._parse_ingress``,
``RNic._land_write``, ...; docs/PERF.md §9 lists them) that the real
handler and the express stage both call.  Effects read ``sim._now``,
which the kernel sets to the hop's time like any event's.  What is left
in a stage is its probes, its virtual frame and its successor.

One leg model
-------------

Every frame in P4CE takes the same path, NIC -> switch -> NIC; what
differs is the switch's verdict.  So every fused frame rides a
:class:`_Leg`, resolved once per path epoch: the sending NIC and its up
cable, the switch ingress port, the verdict stage, the egress port, the
down cable and the receiving NIC, the ``land`` stage that ends the leg
and the ``back`` leg the answer rides.  Five hop stages serve every leg
-- emit, switch arrive, egress, transmit, NIC arrive -- and only the
verdict and the land are the shape's own:

* **A broadcast write** is n scatter legs sharing the leader's up half.
  The scatter verdict fans one launch packet out to them; the egress
  resolves each leg's wire template (``P4ceProgram._egress_leg``); the
  land writes the replica log and emits the ACK onto its ``back`` leg,
  replica -> switch -> leader, whose verdict is the gather.  A launch is
  a whole RDMA WRITE message, one packet per PMTU segment
  (``WRITE_ONLY``, or ``WRITE_FIRST``, zero or more ``WRITE_MIDDLE`` and
  ``WRITE_LAST``), and each packet rides its own hops: a head carries the
  RETH and opens each replica's write cursor, and only the tail is ACKed
  -- so the gather sees one ACK per message, at any size.  At the gather threshold the
  forwarded ACK materializes into the exact real ``Packet`` and rides the
  same generic stages down to the leader, whose leg has no land: the
  final hop runs the *real* ``_rx_process``, so the CQE -> commit ->
  next-proposal cascade schedules real events.  (Handing that ACK to the
  real ``Switch._to_egress`` instead cost ~3 % of host time on the 64 B
  closed loop; docs/PERF.md has the pairs.)
* **An RDMA READ** whose response is one packet (length <= PMTU) on a QP
  whose peer is a host behind the switch -- every heartbeat -- is a
  request leg through the program's plain L3 forward, whose land serves
  the read (``RNic._read_region``, ``_serve_read``) and emits the
  response onto its ``back`` leg, whose land is the requester's
  ``_requester_read_response``.

Launch packets are the wire's alone once they leave the sender (the NIC
keeps the work request, not the frames), so the chain only reads them.

1. **A hop is a kernel event.**  It sits in the kernel heap
   (``sim._heap``) as ``(time, seq, stage, (real_fn, real_args, leg))``:
   the kernel pops it at its turn, counts it and calls ``stage(real_fn,
   real_args, leg)``.  Each push consumes the kernel's sequence counter
   at exactly the intra-hop points the slow lane's ``schedule_at_fire``
   calls would have, so ties against real events resolve in slow-lane
   order -- and ``(real_fn, real_args)`` is precisely the event the slow
   lane would have scheduled, which makes de-fusion a rewrite of the
   entry in place.

2. **Interior frames are virtual.**  A scatter leg, a replica ACK and a
   read response travel as a :class:`_VFrame` (a wire-template reference
   plus the few words that vary per frame); that is the only thing a
   stage leaves out.  The invariant that carries fusion: **an express
   stage executes at its hop's ``(time, seq)`` turn and mutates the same
   cells and counters its real handler would** -- by calling the same
   effect methods, in the handler's order -- and hands the frame to the
   digest tap in wire order (:meth:`FlightPlanner._wire_out`).  Nothing is
   staged, so every register and counter is live at every instant a
   callback can run and there is no barrier to miss.

3. **One heap orders everything.**  A stage's successor goes back on
   the kernel heap and is popped at its own turn, never run ahead of it,
   so a heartbeat or timer never observes a replica log, credit register
   or link horizon the slow lane would have already advanced.  Every hop
   is one kernel step, which keeps ``events_executed`` bit-identical and
   makes :meth:`~repro.sim.kernel.Simulator.step` and ``run_until`` stop
   where they stop in the reference.

4. **A stage that cannot prove its hop clean declines it to the real
   handler** (cache miss, foreign QP state, full RX queue, PSN out of
   order): :meth:`FlightPlanner._fallback` rebuilds any virtual frame
   into its real packet and invokes the hop's real handler at the hop's
   own turn -- never half-applied, because every probe precedes the stage's
   first mutation.  From there the flight is ordinary kernel events.

5. **One invalidation rule: the path epoch.**  Path validation watches
   (:mod:`repro.sim.watch`) every device, table, register and multicast
   engine before it reads it, and every change to one -- a fault or a
   heal, a control-plane write, a QP created or destroyed, a tap
   installed -- calls :meth:`FlightPlanner.invalidate`: every remembered
   validation is dropped, the epoch moves, and every pending hop is
   rewritten in place into the ordinary kernel event it stands for (same
   time, same seq).  Until then a validation's result is remembered per
   QP, a failure too, so fusion stays off exactly while a traversed
   device is impaired at the cost of one validation, and a change off
   every fused path costs nothing.  A retransmission calls nothing: it
   runs through the real handlers, and the stages' own probes (PSN
   order, QP state) decline any hop it disturbs.  Gather-register slot
   wrap (``NumRecv``'s 256-slot reuse) needs no fallback at all: the
   express gather executes the same masked register-cell arithmetic as
   the real RegisterActions, so reuse is exact.

Every cable a virtual frame crosses must be tapped by the
:class:`~repro.sim.columnar.DigestTap` or not at all: another tap wants
real frames, so a path over one is not validated and its launches are
declined.  Only real frames cross a broadcast leader's cable, so any tap
is allowed there.

The fused-vs-reference tests (``tests/test_flight_fusion.py``,
``tests/test_columnar_express.py``) and the digest-parity sweeps
(``tools/sweeps.py``) prove all of this end to end: identical
``events_executed``, metrics and packet-trace digests, including fault
runs where fusion disengages and re-engages mid-run.
"""


from __future__ import annotations

import heapq
from typing import Any, Dict, Optional

from .. import fastlane, params
from ..net.packet import with_macs
from ..rdma.headers import Bth, PSN_MASK, Reth
from ..rdma.icrc import fold, payload_crc
from ..rdma.opcodes import Opcode
from ..rdma.qp import QpState
from ..rdma.wiretemplate import (
    ack_frame,
    ack_template,
    install_scatter,
    read_response_frame,
    read_response_patch,
    read_response_template,
    scatter_fingerprint,
    scatter_template,
)
from .columnar import DigestTap
from .kernel import Simulator
from .trace import Tracer

_ROCE_PORT = params.ROCE_UDP_PORT
_NUMRECV_SLOTS = params.NUMRECV_SLOTS
_OP_ACK = Opcode.ACKNOWLEDGE
_OP_READ = Opcode.RDMA_READ_REQUEST

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

#: ``_rebuild_path``'s answer when only a dirty verdict cache declines;
#: never remembered, so also the planner's "no result yet".
_COLD = object()

class _Leg:
    """One NIC -> switch -> NIC leg of a validated path, resolved once per
    path epoch: the sending NIC ``src`` and QP ``sqp`` and its port, the
    up cable direction ``dir_up``, the switch ingress port ``in_port``,
    the switch's ``verdict`` stage (scatter, gather or L3 forward) and
    what it reads (``fc``, ``key``, ``cells`` / ``mask`` of NumRecv), the
    egress port ``out_port`` with its ``counters`` and its ``sw_port``,
    the down cable direction ``dir_down``, the receiving NIC ``dst`` and
    QP ``dqp``, the ``land`` stage that ends it at ``dst`` (None: the
    real ``_rx_process``), the ``back`` leg the answer rides, and the
    path epoch.  A scatter leg also carries its replication id ``rid``
    and the ``fan`` of scatter legs that share its up half."""

    __slots__ = ("epoch", "src", "sqp", "src_port", "dir_up", "switch",
                 "program", "half_pipe", "in_port", "verdict", "fc", "key",
                 "cells", "mask", "out_port", "counters", "sw_port",
                 "dir_down", "dst", "dqp", "land", "back", "rid", "fan")


class _VLaunch:
    """Shared per-packet launch info for virtual scatter legs:
    everything every leg derives from one launch WRITE packet, computed
    once at scatter ingress.  ``va0`` and ``dlen`` are the RETH's, None
    for a ``WRITE_MIDDLE`` / ``WRITE_LAST``."""

    __slots__ = ("packet", "psn0", "ack_req", "va0", "dlen", "payload",
                 "payload_crc", "fp", "wire")


class _VFrame:
    """A virtual in-flight frame: the varying words of one
    scatter leg (``kind`` 0), one replica ACK (``kind`` 1) or one
    single-packet read response (``kind`` 2) plus a wire-template
    reference -- enough to rebuild the exact real ``Packet`` on demand
    (fallback, defusion, gather threshold) or to feed the columnar digest
    tap without ever building it.  A scatter leg's ``va`` is None when its
    frame has no RETH.  A read response carries its rendered header
    ``block`` (MACs rewritten in place at the switch, ``macs`` recording
    the rewrite), ICRC and ``payload``; ``token`` is its switch packet
    token once ingress has run."""

    __slots__ = ("kind", "leg", "lau", "rewritten", "psn", "ack_word", "va",
                 "rkey", "tmpl", "syndrome", "msn", "wire", "iport",
                 "payload", "block", "icrc", "token", "macs")


class FlightPlanner:
    """Validates and computes fused consensus flights.

    One planner per :class:`~repro.sim.kernel.Simulator`; ``RNic``
    finds it as ``sim._flight_planner``.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None):
        self._sim = sim
        self._tracer = tracer
        #: Validation results by sending QP -- the path's first leg, None
        #: if declined -- until invalidate().
        self._paths: Dict[Any, Optional[_Leg]] = {}
        #: Path epoch: bumped by every :meth:`invalidate`; legs pin the
        #: epoch they were resolved against.
        self._epoch = 0
        # Diagnostics / attribution.
        #: WRITE messages fused (``bench/run.py`` divides it by commits).
        self.flights_fused = 0
        #: READs fused on a unicast L3 path.
        self.reads_fused = 0
        #: Express stages run (a stage that falls back is not counted).
        self.hops_replayed = 0
        self.defusions = 0
        self.fuse_rejects = 0
        self.express_fallbacks = 0
        #: Virtual frames rebuilt into packets (fallback or defusion).
        self.vx_materialized = 0
        sim._flight_planner = self

    def stats(self) -> Dict[str, int]:
        """Fusion attribution for this simulator (sharded reports list
        one per shard, in shard order, to prove fusion engages at every
        G).  ``runs_fused`` and ``mean_run_len`` are frozen zeros:
        ``bench/run.py`` reads them by name, and hops run one kernel
        event at a time, so there are no runs to report."""
        return {
            "flights_fused": self.flights_fused,
            "reads_fused": self.reads_fused,
            "hops_replayed": self.hops_replayed,
            "defusions": self.defusions,
            "fuse_rejects": self.fuse_rejects,
            "express_fallbacks": self.express_fallbacks,
            "runs_fused": 0,
            "mean_run_len": 0.0,
            "vx_materialized": self.vx_materialized,
        }

    # ------------------------------------------------------------------
    # Fusion entry point (called from RNic._launch)
    # ------------------------------------------------------------------

    def try_fuse(self, nic, qp, packets) -> bool:
        """Compute a launch as a fused flight: a write message -- its
        ``packets``, one per PMTU segment -- on a broadcast path, or a
        READ whose response is one packet on a unicast L3 path.  Returns
        False to decline: the caller then takes the ordinary per-hop TX
        path, i.e. the real handlers.  Every probe precedes the first
        mutation, so a declined launch leaves no trace
        (``nic._tx_busy_until`` is where ``RNic._tx`` expects to claim
        it)."""
        flags = fastlane.flags
        if (not flags.flight_fusion or not flags.rewrite_templates
                or not flags.flow_cache):
            # Fusion layers on the template/cache lanes: the express
            # stages reproduce *their* counters and wire images, not the
            # slow header-object path's allocation pattern.
            return False
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            return False
        path = self._resolve_path(nic, qp)
        read = path is not None and path.fan is None
        if read:
            # A READ on a unicast path: the request rides the wire as the
            # real launch packet; its response is one PSN, one virtual
            # frame.
            packet = packets[0]
            up = packet._upper
            bth = up[0]
            if not (len(packets) == 1 and len(up) == 2 and type(bth) is Bth
                    and bth.opcode is _OP_READ and type(up[1]) is Reth
                    and up[1].dma_length <= nic.pmtu and packet.has_icrc):
                path = None
        elif path is not None:
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
            # No validated path, or a launch not of the shape its path
            # carries (stamped WRITE segments on a broadcast path, a
            # one-response READ on a unicast one).
            self.fuse_rejects += 1
            return False
        sim = self._sim
        heap = sim._heap
        emit = nic._emit
        xfn = self._v_emit
        # RNic._tx per packet, in order (powered is path-validated and
        # fault-watched): claim the TX pipeline, push the emit hop.
        for packet in packets:
            t = nic._tx_claim()
            seq = sim._seq
            sim._seq = seq + 1
            heapq.heappush(heap, (t, seq, xfn, (emit, (packet,), path)))
        if read:
            self.reads_fused += 1
        else:
            self.flights_fused += 1
        return True

    # ------------------------------------------------------------------
    # Hop plumbing
    # ------------------------------------------------------------------

    def _push_hop(self, t: float, fn, args: tuple, xfn, leg) -> None:
        """Push a stage's successor hop onto the kernel heap.  It consumes
        the kernel's sequence counter, so the hop gets exactly the seq the
        slow lane's ``schedule_at_fire`` would have assigned and timestamp
        ties -- hop vs real event, and real events scheduled later --
        resolve in slow-lane order.  ``leg`` pins the epoch its path
        was resolved under: an invalidation since then (a notify
        watcher in the replica-RX stage can invalidate mid-stage) means
        express stages must not outrun the new configuration, so the hop
        becomes the real kernel event it stands for."""
        sim = self._sim
        if leg.epoch != self._epoch:
            sim.schedule_at_fire(t, fn, *self._real_args(args))
            return
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._heap, (t, seq, xfn, (fn, args, leg)))

    def _real_args(self, args: tuple) -> tuple:
        """``args`` with any virtual frame rebuilt into its real packet."""
        for i, a in enumerate(args):
            if type(a) is _VFrame:
                self.vx_materialized += 1
                args = args[:i] + (self._materialize(a),) + args[i + 1:]
        return args

    def _fallback(self, fn, args: tuple) -> None:
        """Run a hop's real handler instead of its express stage, at the
        hop's own turn.  Every express probe precedes its stage's first
        mutation, so the real handler starts from pristine state; the
        events it schedules are real kernel events with the exact seqs
        the slow lane would have consumed next.  Any virtual frame in
        the hop's args is rebuilt into its real packet first."""
        self.express_fallbacks += 1
        fn(*self._real_args(args))

    def drain(self, limit: float) -> bool:
        """Frozen name, no caller under ``src/``: ``bench/trace.py``
        resolves it in the class ``__dict__``.  Hops are kernel events,
        so there is nothing to drain; goes when ``BOUNDARIES`` drops it."""
        return False

    def _drain_super(self, limit: float) -> bool:
        """Frozen name, a no-op like :meth:`drain` and for the same
        reason; a separate function, because ``bench/trace.py``
        instruments both names."""
        return False

    # ------------------------------------------------------------------
    # Invalidation: the path epoch
    # ------------------------------------------------------------------

    def invalidate(self, source: Any = None) -> None:
        """A watched object changed (``source`` is it): forget every
        validation result, so each path is validated afresh at its next
        launch, bump the epoch, and rewrite every pending hop in place
        into the ordinary kernel event it stands for: ``(t, seq, stage,
        (fn, args, leg))`` becomes ``(t, seq, fn, args)``.  The key is
        unchanged, so the heap needs no re-heapify and ordering against
        live events is preserved.  Exact by
        construction: each hop carries precisely the (fn, args) event the
        slow lane would have scheduled, and all of that event's
        scheduling-time effects were applied when the hop was pushed.
        Virtual frames rebuild into real packets, in ``(time, seq)``
        order.  The bump also reaches a stage running right now, whose
        successors then go real (see _push_hop)."""
        self._paths.clear()
        self._epoch += 1
        heap = self._sim._heap
        hops = [i for i, entry in enumerate(heap)
                if getattr(entry[2], "__self__", None) is self]
        if not hops:
            return
        self.defusions += 1
        hops.sort(key=heap.__getitem__)
        for i in hops:
            t, seq, _, (fn, args, _) = heap[i]
            heap[i] = (t, seq, fn, self._real_args(args))

    # ------------------------------------------------------------------
    # Express stages.  Each mirrors one real handler's observable effects
    # for the proven-clean shape -- by calling the effect methods that
    # handler calls -- and pushes the successor hop; anything else falls
    # back to the real handler before the first mutation.
    # Stage signature: (fn, args, leg) -- the real event (fn, args) the
    # hop stands for and the leg it rides.  A stage reads the clock as
    # ``self._sim._now``.  Five hop stages serve every leg; the switch's
    # verdict and the leg's land are the shape's own.
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
        have performed.  An ACK or a read response is built from the
        sending NIC and QP of the leg it rides."""
        leg = vf.leg
        if vf.kind == 0:
            lau = vf.lau
            pkt = lau.packet.copy()
            pkt.meta["replication_id"] = leg.rid
            if vf.rewritten:
                install_scatter(pkt, vf.tmpl, vf.psn, lau.ack_req, vf.va)
                pkt.finalize()
            return pkt
        nic = leg.src
        qp = leg.sqp
        words = (qp.tx_templates, nic.gateway_mac, nic.mac, nic.ip,
                 qp.remote_ip, qp.udp_sport, _ROCE_PORT, qp.remote_qpn,
                 vf.psn, vf.syndrome, vf.msn)
        if vf.kind == 1:
            pkt = ack_frame(*words)
        else:
            pkt = read_response_frame(*words, vf.payload)
        meta = pkt.meta
        if vf.iport is not None:
            meta["ingress_port"] = vf.iport
        if vf.token is not None:
            meta["packet_token"] = vf.token
        if vf.macs is not None:
            pkt.rewrite_macs(*vf.macs)
        return pkt

    def _wire_out(self, d, port, frame) -> float:
        """``_Direction.send`` plus the cable's tap for ``frame`` leaving
        ``port`` (``Link.transmit`` on a clean cable); returns its
        arrival.  The one place a frame's kind picks its wire size and
        its tap call: a real frame is tapped as such, a virtual one as
        its template and varying words (a scatter leg, an ACK) or as its
        rendered block (a read response)."""
        tap = d.link._tap
        if type(frame) is not _VFrame:
            t = d.send(frame.wire_size)
            if tap is not None:
                tap(port, frame)
            return t
        t = d.send(frame.wire)
        if tap is not None:
            kind = frame.kind
            if kind == 0:
                lau = frame.lau
                tap.absorb_scatter(frame.tmpl, frame.ack_word, frame.va,
                                   lau.payload, lau.payload_crc)
            elif kind == 1:
                tap.absorb_ack(frame.tmpl, frame.psn, frame.syndrome,
                               frame.msn)
            else:
                tap.absorb_frame(frame.block, frame.payload, frame.icrc)
        return t

    # -- The hop stages every leg rides ---------------------------------

    def _v_emit(self, fn, args: tuple, leg) -> None:
        # Mirrors RNic._emit + Port.send + Link.transmit (NIC -> switch).
        frame = args[0]
        self.hops_replayed += 1
        leg.src.packets_sent += 1
        d = leg.dir_up
        t = self._wire_out(d, leg.src_port, frame)
        self._push_hop(t, d.link._deliver, (d, frame), self._v_arrive, leg)

    def _v_arrive(self, fn, args: tuple, leg) -> None:
        # Mirrors Link._deliver + Switch.handle_packet (ingress parser
        # claim); the successor is the leg's verdict stage.
        frame = args[1]
        self.hops_replayed += 1
        sw = leg.switch
        idx = leg.in_port
        done = sw._parse_ingress(idx)
        if type(frame) is _VFrame:
            frame.iport = idx
        else:
            frame.meta["ingress_port"] = idx
        self._push_hop(done, sw._run_ingress, (idx, frame), leg.verdict, leg)

    def _v_egress(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_egress + P4ceProgram.on_egress: unicast
        # traffic (rid 0) passes through untouched, and its finalize()
        # changes nothing -- no hop changes a frame's length.  A scatter
        # leg (egress-cache hit) resolves its wire template and varying
        # words; the frame is patched nowhere.
        rid = args[1]
        if rid and rid not in leg.program._egress_cache._cache:
            self._fallback(fn, args)  # cold cache: real egress fills it
            return
        self.hops_replayed += 1
        leg.counters.egress_runs += 1
        frame = args[2]
        sw = leg.switch
        if rid:
            pre, templates = leg.program._egress_leg(rid)
            lau = frame.lau
            # The template's shape (with or without RETH) is the
            # packet's: the fingerprint leads with its header count.
            frame.tmpl = scatter_template(lau.packet, templates, lau.fp,
                                          pre, sw.mac, sw.ip)
            frame.psn = psn = (lau.psn0 + pre[4]) & PSN_MASK
            frame.ack_word = ((1 << 31) if lau.ack_req else 0) | psn
            va0 = lau.va0
            frame.va = None if va0 is None else va0 + pre[5]
            frame.rkey = pre[6]
            frame.rewritten = True
        self._push_hop(self._sim._now + leg.half_pipe, sw._transmit,
                       (args[0], frame), self._v_transmit, leg)

    def _v_transmit(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._transmit + Link.transmit (switch -> NIC).
        frame = args[1]
        self.hops_replayed += 1
        leg.counters.tx_frames += 1
        d = leg.dir_down
        t = self._wire_out(d, leg.sw_port, frame)
        self._push_hop(t, d.link._deliver, (d, frame), self._v_nic_arrive,
                       leg)

    def _v_nic_arrive(self, fn, args: tuple, leg) -> None:
        # Mirrors Link._deliver + RNic.handle_packet (RX pipeline claim).
        # A leg without a land ends in the real _rx_process: the
        # forwarded ACK's completion cascade (CQE -> commit -> next
        # proposal) schedules real events.
        self.hops_replayed += 1
        nic = leg.dst
        ready = nic._rx_admit()
        if ready is None:
            return  # dropped at a full RX queue, as in the slow lane
        land = leg.land
        if land is None:
            self._sim.schedule_at_fire(ready, nic._rx_process, args[1])
        else:
            self._push_hop(ready, nic._rx_process, (args[1],), land, leg)

    # -- The switch's verdicts ------------------------------------------
    # Each probes its FlowVerdictCache raw (no flush, no count) and
    # declines a cold verdict, so the real walk meets
    # FlowVerdictCache.hit once, as in the slow lane; a warm one is
    # counted by hit().  The verdict is the leg's: _rebuild_path checked
    # the tables the walk reads, and any write to them flushes the
    # cache.  The register guard reset (P4ceProgram._begin_packet) is
    # skipped: guards are only read by RegisterAction.execute, which no
    # express stage calls, and every real ingress resets them first.

    def _v_scatter(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram scatter classification
        # (keyed by (bcast QPN, opcode) as the real _classify_roce keys
        # it: each message shape has its own verdict) + the packet's own
        # NumRecv slot reset + multicast fan-out, but the fan-out pushes
        # _VFrames: per-leg varying words are computed at egress, the
        # packets never.
        packet = args[1]
        upper = packet._upper
        bth = upper[0]
        fc = leg.fc
        key = (bth.dest_qp, bth.opcode)
        if fc._dirty or key not in fc._cache:
            self._fallback(fn, args)  # cold: the real walk warms it
            return
        cached = fc.hit(key)
        self.hops_replayed += 1
        sw = leg.switch
        packet.meta["packet_token"] = sw._next_packet_token
        sw._next_packet_token += 1
        leg.cells[cached[1][0] + bth.psn % _NUMRECV_SLOTS] = 0
        leg.program.scattered += 1
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
        lau.wire = wire = packet.wire_size
        tm = self._sim._now + leg.half_pipe
        for fleg in leg.fan:
            vf = _VFrame()
            vf.kind = 0
            vf.leg = fleg
            vf.lau = lau
            vf.wire = wire
            vf.rewritten = False
            out = fleg.out_port
            self._push_hop(sw._parse_egress(out, tm), sw._run_egress,
                           (out, fleg.rid, vf), self._v_egress, fleg)

    def _v_gather(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram._gather (NumRecv
        # count, credit fold, forward-or-drop) on the live register cells:
        # the count runs the RegisterAction's masked arithmetic --
        # compared unmasked, as _numrecv_count returns it, so 256-slot PSN
        # wrap behaves identically -- and the rest is the real _gather_ack.
        # Virtual ACKs always carry make_syndrome(ACK, credits), so the
        # NAK branch is unreachable by construction.  At the threshold
        # the forwarded ACK materializes and rides the leg's down half
        # as a real packet.
        fc = leg.fc
        if fc._dirty or leg.key not in fc._cache:
            self._fallback(fn, args)
            return
        pre = fc.hit(leg.key)[1]  # _GatherPre
        self.hops_replayed += 1
        avf = args[1]
        sw = leg.switch
        token = sw._next_packet_token
        sw._next_packet_token = token + 1
        leader_psn = (avf.psn - pre.psn_offset) & PSN_MASK
        cells = leg.cells
        nslot = pre.numrecv_base + leader_psn % _NUMRECV_SLOTS
        count = cells[nslot] + 1
        cells[nslot] = count & leg.mask
        prog = leg.program
        minimum = prog._gather_ack(pre, leader_psn, avf.syndrome & 0x1F,
                                   count)
        if minimum is None:
            sw._ingress_drop(leg.in_port)  # surplus (or early) ACK
            return
        avf.token = token
        ack = self._materialize(avf)
        upper = ack._upper
        prog._rewrite_to_leader(ack, upper[0], upper[1], leader_psn, pre,
                                minimum)
        out = leg.out_port
        self._push_hop(sw._parse_egress(out, self._sim._now + leg.half_pipe),
                       sw._run_egress, (out, 0, ack), self._v_egress, leg)

    def _v_l3(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_ingress + cached_l3_forward (the program's
        # plain L3 verdict, keyed ("l3", dst)) + the MAC rewrite.
        fc = leg.fc
        if fc._dirty or leg.key not in fc._cache:
            self._fallback(fn, args)
            return
        cached = fc.hit(leg.key)
        self.hops_replayed += 1
        frame = args[1]
        sw = leg.switch
        token = sw._next_packet_token
        sw._next_packet_token = token + 1
        src = sw.mac
        dst = cached[0][0]
        if type(frame) is _VFrame:
            frame.token = token
            frame.block = with_macs(frame.block, src, dst)
            frame.macs = (src, dst)
        else:
            frame.meta["packet_token"] = token
            frame.rewrite_macs(src, dst)
        out = leg.out_port
        self._push_hop(sw._parse_egress(out, self._sim._now + leg.half_pipe),
                       sw._run_egress, (out, 0, frame), self._v_egress, leg)

    # -- The lands: the NIC's effects at the end of a leg ---------------

    def _v_replica_write(self, fn, args: tuple, leg) -> None:
        # Mirrors RNic._rx_process + _roce_dispatch + _responder_write for the
        # leg's shape + the ACK build/TX.  The shape is one of try_fuse's
        # stamped WRITE shapes, AckReq set exactly on the tail, and the
        # ICRC check is not run: the leg's ICRC is the template patch,
        # which a real replica's check recomputes from the installed
        # headers and accepts (a fusion-off run would drop the frame and
        # diverge from the fused one otherwise).  The NIC's power and its
        # QP table are path state: a change to either invalidates before
        # this hop runs.  So the probes reduce to QP state, PSN order and
        # _land_write's own checks, which change nothing when they fail.
        # Any unclean answer rebuilds the real packet and falls back whole.
        vf = args[0]
        rnic = leg.dst
        qp = leg.dqp
        if qp.state is QpState.ERROR or vf.psn != qp.expected_psn:
            self._fallback(fn, args)
            return
        lau = vf.lau
        payload = lau.payload
        if rnic._land_write(qp, vf.psn, vf.va, vf.rkey, lau.dlen,
                            payload) is not None:
            self._fallback(fn, args)
            return
        self.hops_replayed += 1
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
            avf.leg = back = leg.back
            avf.tmpl = atmpl
            avf.psn = vf.psn
            avf.syndrome = syndrome
            avf.msn = qp.msn
            avf.wire = atmpl.wire
            avf.iport = avf.token = avf.macs = None
            # A watcher invalidating mid-notify is _push_hop's stale-hop
            # branch: the ACK materializes into a real kernel event.
            self._push_hop(rnic._tx_claim(), rnic._emit, (avf,),
                           self._v_emit, back)

    def _v_read_serve(self, fn, args: tuple, leg) -> None:
        # Mirrors RNic._rx_process + _roce_dispatch + _responder_read for
        # a fresh READ answered by one packet, + the response's TX claim.
        # The request is the requester's own frame, ICRC-stamped from its
        # headers, so the check is not run; the NIC's power and QP table
        # are path state.  The probes -- QP state, PSN order, one PMTU,
        # the access check -- change nothing; anything unclean (a
        # duplicate included, which the real handler re-executes) falls
        # back whole.
        packet = args[0]
        rnic = leg.dst
        qp = leg.dqp
        upper = packet._upper
        psn = upper[0].psn
        reth = upper[1]
        length = reth.dma_length
        if (qp.state is QpState.ERROR or psn != qp.expected_psn
                or length > rnic.pmtu):
            self._fallback(fn, args)
            return
        data = rnic._read_region(qp, reth.virtual_address, reth.r_key,
                                 length)
        if data is None:
            self._fallback(fn, args)  # the real handler NAKs
            return
        self.hops_replayed += 1
        rnic._rx_inflight -= 1
        rnic.packets_received += 1
        syndrome = rnic._serve_read(qp, psn, length)
        tmpl = read_response_template(qp.tx_templates, rnic.gateway_mac,
                                      rnic.mac, rnic.ip, qp.remote_ip,
                                      qp.udp_sport, _ROCE_PORT,
                                      qp.remote_qpn, length)
        vf = _VFrame()
        vf.kind = 2
        vf.leg = back = leg.back
        vf.psn = psn
        vf.syndrome = syndrome
        vf.msn = msn = qp.msn
        vf.payload = data
        vf.block, vf.icrc = read_response_patch(tmpl, psn, syndrome, msn,
                                                fold(data, 0))
        vf.wire = tmpl.wire
        vf.iport = vf.token = vf.macs = None
        self._push_hop(rnic._tx_claim(), rnic._emit, (vf,), self._v_emit,
                       back)

    def _v_read_land(self, fn, args: tuple, leg) -> None:
        # Mirrors RNic._rx_process + _roce_dispatch for the read response
        # at the requester, whose effect is the real
        # _requester_read_response.  The response's ICRC is its patch's,
        # over the words it carries, so the check is not run; the QP
        # state is the one probe.
        vf = args[0]
        qp = leg.dqp
        if qp.state is QpState.ERROR:
            self._fallback(fn, args)
            return
        self.hops_replayed += 1
        nic = leg.dst
        nic._rx_inflight -= 1
        nic.packets_received += 1
        nic._requester_read_response(qp, vf.psn, vf.syndrome, vf.payload,
                                     True)

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _resolve_path(self, nic, qp) -> Optional[_Leg]:
        """``qp``'s validated path -- its first leg -- or None, remembered
        until the next :meth:`invalidate`, except a failure on a dirty
        verdict cache, whose flush (by the declined launch's own packet)
        notifies nobody."""
        path = self._paths.get(qp, _COLD)
        if path is _COLD:
            path = self._rebuild_path(nic, qp)
            if path is _COLD:
                return None
            self._paths[qp] = path
        return path

    def _rebuild_path(self, nic, qp):
        """Validate the path of one QP and pin every object the express
        stages touch: the scatter legs of a broadcast QP (its peer is the
        switch), each with its ACK leg as ``back``, or the request leg of
        any other, whose ``back`` is the response leg.  Returns the first
        leg, None if the path does not validate, ``_COLD`` on a dirty
        verdict cache.  Each device, table and register is watched before
        it is read (cabling and QP connections are set once;
        docs/PERF.md §9).  Probes use raw reads (``_entries`` /
        ``_cache``) so validation never perturbs the hit/miss counters
        the slow lane produces."""
        nic.watch(self)
        port = nic.port
        link = port.link
        if not nic.powered or link is None or not self._cable(link, False):
            return None
        switch_port = port.peer
        switch = switch_port.device
        switch.watch(self)
        program = getattr(switch, "program", None)
        if program is None or not switch.powered:
            return None
        if qp.remote_ip != switch.ip:
            return self._read_path(nic, qp, switch, program)
        bcast = getattr(program, "bcast_table", None)
        if bcast is None:
            return None
        if program.ack_drop_in_egress:
            # Ablation config: surplus ACKs traverse the leader's egress
            # parser, where the express gather drops them in ingress only.
            return None
        aggr = program.aggr_table
        econn = program.egress_conn_table
        for state in (bcast, aggr, econn, switch.l3_table, switch.multicast,
                      program.numrecv, *program.credits):
            state.watch(self)
        entry = bcast._entries.get((qp.remote_qpn,))
        if entry is None or entry.action != "broadcast":
            return None
        copies = switch.multicast.lookup(int(entry.params["multicast_group"]))
        if copies is None:
            return None
        fc = program._flow_cache
        # Reject stale caches instead of reconciling them here: a
        # reconcile would bump invalidation counters at a different
        # instant than the slow lane.  A couple of slow flights after any
        # control-plane write warm everything back up.
        if (fc._dirty or program._egress_cache._dirty
                or program._egress_templates._dirty):
            return _COLD
        fan = []
        for copy in copies:
            rid = copy.replication_id
            if rid == 0:
                return None  # rid 0 would skip the egress rewrite
            # Only real frames cross the leader's cable: any tap will do.
            leg = self._leg(nic, qp, switch, copy.egress_port, False, True)
            if leg is None:
                return None
            rnic = leg.dst
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
            back = self._leg(rnic, rqp, switch, switch_port.index, True,
                             False)
            if back is None:
                return None
            leg.dqp = rqp
            back.dqp = qp
            leg.verdict = self._v_scatter
            back.verdict = self._v_gather
            leg.fc = back.fc = fc
            back.key = (rqp.remote_qpn, _OP_ACK)
            leg.cells = back.cells = program.numrecv._cells
            leg.mask = back.mask = program.numrecv.mask
            leg.rid = rid
            leg.fan = fan
            leg.land = self._v_replica_write
            back.land = None
            leg.back = back
            fan.append(leg)
        return fan[0] if fan else None

    def _read_path(self, nic, qp, switch, program):
        """The unicast path of ``qp``, whose peer is a host behind
        ``switch``: the request leg to the responder NIC, whose ``back``
        is the response leg, both over ``program``'s plain L3 forward.
        The responder QP must be connected back to ``qp``."""
        switch.l3_table.watch(self)
        there = self._forward_leg(nic, qp, switch, program, qp.remote_ip)
        if there is None:
            return None
        rnic = there.dst
        rqp = rnic.qps.get(qp.remote_qpn)
        if rqp is None or rqp.remote_ip != nic.ip or rqp.remote_qpn != qp.qpn:
            return None
        back = self._forward_leg(rnic, rqp, switch, program, nic.ip)
        if back is None or back.dst is not nic:
            return None
        there.dqp = rqp
        back.dqp = qp
        there.back = back
        there.fan = back.back = None
        there.land = self._v_read_serve
        back.land = self._v_read_land
        return there

    def _forward_leg(self, src, sqp, switch, program, dst_ip):
        """The leg from ``src`` along the L3 route to ``dst_ip``, whose
        verdict is the plain forward (answered by the program's
        :meth:`~repro.switch.pipeline.SwitchProgram.l3_cache`), or None.
        A read response is virtual on both of its cables."""
        fc = program.l3_cache(dst_ip)
        entry = switch.l3_table._entries.get((dst_ip.value,))
        if fc is None or entry is None or entry.action != "forward":
            return None
        leg = self._leg(src, sqp, switch, int(entry.params["port"]), True,
                        True)
        if leg is None or leg.dst.ip != dst_ip:
            return None
        leg.verdict = self._v_l3
        leg.fc = fc
        leg.key = ("l3", dst_ip.value)
        return leg

    def _leg(self, src, sqp, switch, out, virtual_up, virtual_down):
        """NIC ``src`` -> ``switch`` -> egress port ``out`` -> the NIC on
        that cable, validated and pinned (the cables and devices; each
        shape checks its own tables), or None.  ``virtual_up`` /
        ``virtual_down``: whether virtual frames cross the up / down
        cable, which then must be tapped by the ``DigestTap`` or not at
        all."""
        src.watch(self)
        if not src.powered:
            return None
        port = src.port
        up = port.link
        if up is None or not self._cable(up, virtual_up):
            return None
        in_port = up.other_end(port)
        ports = switch.ports
        if in_port.device is not switch or not 0 <= out < len(ports):
            return None
        sw_port = ports[out]
        down = sw_port.link
        if down is None or not self._cable(down, virtual_down):
            return None
        dst = down.other_end(sw_port).device
        if type(dst) is not type(src):
            return None
        dst.watch(self)
        if not dst.powered:
            return None
        leg = _Leg()
        leg.epoch = self._epoch
        leg.src = src
        leg.sqp = sqp
        leg.src_port = port
        leg.dir_up = up.direction_from(port)
        leg.switch = switch
        leg.program = switch.program
        leg.half_pipe = switch.pipeline_latency_ns * 0.5
        leg.in_port = in_port.index
        leg.out_port = out
        leg.counters = switch.counters[out]
        leg.sw_port = sw_port
        leg.dir_down = down.direction_from(sw_port)
        leg.dst = dst
        return leg

    def _cable(self, link, virtual: bool) -> bool:
        """Watch ``link``; True if it is up and lossless and, when
        ``virtual`` frames cross it, tapped by the ``DigestTap`` or not at
        all (a foreign tap wants real frames)."""
        link.watch(self)
        if not link.up or link._drop_probability > 0.0:
            return False
        tap = link._tap
        return not virtual or tap is None or type(tap) is DigestTap
