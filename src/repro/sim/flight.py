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
it (flag off, tracer on, no validated path, a packet not of a stamped
WRITE shape) and ``RNic._tx`` schedules it
through the real handlers -- the reference every wire digest is judged
against.  A stage is a call, not a copy: what a hop does to a device has
one definition, a small method on its owner (``_Direction.send``,
``Switch._parse_ingress``, ``RNic._land_write``, ...; docs/PERF.md §9
lists them) that the real handler and the express stage both call.
Effects read ``sim._now``, which the kernel sets to the hop's time like
any event's.  What is left in a stage is its probes, its virtual frame
and its successor.

A launch is a whole RDMA WRITE message, one packet per PMTU segment:
``WRITE_ONLY``, or ``WRITE_FIRST``, zero or more ``WRITE_MIDDLE`` and
``WRITE_LAST``.  ``try_fuse`` claims the TX pipeline packet by packet, as
``RNic._tx`` would, and each packet rides its own chain of hops.  A head
(FIRST / ONLY) carries the RETH and opens each replica's write cursor, a
MIDDLE or LAST continues it, and only the tail (LAST / ONLY) completes the
message and is ACKed -- so the gather stages see one ACK per message, at
any size.

1. **A hop is a kernel event.**  It sits in the kernel heap
   (``sim._heap``) as ``(time, seq, stage, (real_fn, real_args, ctx))``,
   ``ctx`` being the path or leg it rides: the kernel pops it at its
   turn, counts it and calls ``stage(real_fn, real_args, ctx)``.  Each
   push consumes the kernel's sequence counter at exactly the intra-hop
   points the slow lane's ``schedule_at_fire`` calls would have, so ties
   against real events resolve in slow-lane order -- and ``(real_fn,
   real_args)`` is precisely the event the slow lane would have
   scheduled, which makes de-fusion a rewrite of the entry in place.

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
   on the 64 B closed loop, measured when hops still ran outside the
   kernel; docs/PERF.md has the pairs.)  A launch packet is the
   wire's alone once it leaves the leader (the NIC keeps the work
   request, not the frames), so the chain only reads it and every leg
   that has to become real is a copy of it.

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

5. **One invalidation rule: the path epoch.**  A fault on a traversed
   device (cable cut or made lossy, switch or NIC power-off), a
   control-plane write to a table/register/multicast group a path reads,
   or a tap installed on a traversed link calls
   :meth:`FlightPlanner.invalidate`: the epoch moves, every pending hop is
   rewritten in place into the ordinary kernel event it stands for (same
   time, same seq), and every cached path is validated afresh at its next
   launch -- so fusion stays off exactly while a traversed device is
   impaired, and a fault off every fused path costs nothing.  A heal
   calls nothing: the fault already dropped the cached paths.  A
   retransmission calls nothing either: it runs through the real
   handlers, and the stages' own probes (PSN order, QP state) decline
   any hop it disturbs.  Gather-register slot wrap (``NumRecv``'s
   256-slot reuse) needs no fallback at all: the express gather executes
   the same masked register-cell arithmetic as the real RegisterActions,
   so reuse is exact.

Links whose tap is not the :class:`~repro.sim.columnar.DigestTap`
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
from typing import Any, Dict, Optional

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
from .trace import Tracer

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
    resolved once per path epoch: devices, link directions, caches,
    register cells and timing constants."""

    __slots__ = ("epoch", "nic", "nic_port", "switch", "program",
                 "leader_link", "leader_in_port", "switch_port", "dir_up",
                 "dir_down", "fc", "ecache", "numrecv_cells", "numrecv_mask",
                 "half_pipe", "legs")


class _FusedLeg:
    """One scatter/gather leg of a fused path (one replica).  It
    carries its path's epoch, so a stage checks either context alike."""

    __slots__ = ("epoch", "path", "rid", "out_port", "counters", "link",
                 "dir_down", "dir_back", "rnic", "rqp", "rqpn", "gather_key")


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

    One planner per :class:`~repro.sim.kernel.Simulator`; ``RNic``
    finds it as ``sim._flight_planner``.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None):
        self._sim = sim
        self._tracer = tracer
        #: Resolved paths keyed by (leader nic id, qpn).
        self._paths: Dict[tuple, _FusedPath] = {}
        #: Path epoch: bumped by every :meth:`invalidate`; paths and legs
        #: pin the epoch they were resolved against.
        self._epoch = 0
        # Diagnostics / attribution.
        self.flights_fused = 0
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
        """Compute a write message -- its ``packets``, one per PMTU
        segment -- as a fused flight.  Returns False to decline: the
        caller then takes the ordinary per-hop TX path, i.e. the real
        handlers.  Every probe precedes the first mutation, so a declined
        launch leaves no trace (``nic._tx_busy_until`` is where
        ``RNic._tx`` expects to claim it)."""
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
        heap = sim._heap
        emit = nic._emit
        xfn = self._v_leader_emit
        # RNic._tx per packet, in order (powered is path-validated and
        # fault-watched): claim the TX pipeline, push the emit hop.
        for packet in packets:
            t = nic._tx_claim()
            seq = sim._seq
            sim._seq = seq + 1
            heapq.heappush(heap, (t, seq, xfn, (emit, (packet,), path)))
        self.flights_fused += 1
        return True

    # ------------------------------------------------------------------
    # Hop plumbing
    # ------------------------------------------------------------------

    def _push_hop(self, t: float, fn, args: tuple, xfn, ctx) -> None:
        """Push a stage's successor hop onto the kernel heap.  It consumes
        the kernel's sequence counter, so the hop gets exactly the seq the
        slow lane's ``schedule_at_fire`` would have assigned and timestamp
        ties -- hop vs real event, and real events scheduled later --
        resolve in slow-lane order.  ``ctx`` (path or leg) pins the epoch
        its path was resolved under: an invalidation since then (a notify
        watcher in the replica-RX stage can invalidate mid-stage) means
        express stages must not outrun the new configuration, so the hop
        becomes the real kernel event it stands for."""
        sim = self._sim
        if ctx.epoch != self._epoch:
            sim.schedule_at_fire(t, fn, *self._real_args(args))
            return
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._heap, (t, seq, xfn, (fn, args, ctx)))

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
        """A watched device faulted (``source`` is it), a tap landed on a
        traversed link, or a control-plane write touched a watched
        table/register/multicast engine: bump the epoch, so every cached
        path is validated afresh at its next launch, and rewrite every
        pending hop in place into the ordinary kernel event it stands
        for: ``(t, seq, stage, (fn, args, ctx))`` becomes ``(t, seq, fn,
        args)``.  The key is unchanged, so the heap needs no re-heapify
        and ordering against live events is preserved.  Exact by
        construction: each hop carries precisely the (fn, args) event the
        slow lane would have scheduled, and all of that event's
        scheduling-time effects were applied when the hop was pushed.
        Virtual frames rebuild into real packets, in ``(time, seq)``
        order.  The bump also reaches a stage running right now, whose
        successors then go real (see _push_hop)."""
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
    # Stage signature: (fn, args, ctx) -- the real event (fn, args) the
    # hop stands for and the path or leg it rides.  A stage reads the
    # clock as ``self._sim._now``.
    #
    # The chain's tail comes first: at the gather threshold the forwarded
    # ACK is a real packet, and these three stages carry it from switch
    # egress to the leader's RX pipeline.
    # ------------------------------------------------------------------

    def _x_gather_egress(self, fn, args: tuple, path) -> None:
        # Mirrors Switch._run_egress for the forwarded ACK (rid 0 passes
        # through on_egress untouched).
        ack = args[2]
        self.hops_replayed += 1
        path.switch.counters[args[0]].egress_runs += 1
        ack.finalize()
        self._push_hop(self._sim._now + path.half_pipe, path.switch._transmit,
                       (args[0], ack), self._x_gather_transmit, path)

    def _x_gather_transmit(self, fn, args: tuple, path) -> None:
        # Mirrors Switch._transmit + Link.transmit (switch -> leader).
        ack = args[1]
        self.hops_replayed += 1
        path.switch.counters[args[0]].tx_frames += 1
        link = path.leader_link
        d = path.dir_down
        t = d.send(ack.wire_size)
        tap = link._tap
        if tap is not None:
            tap(path.switch_port, ack)
        self._push_hop(t, link._deliver, (d, ack), self._x_leader_arrive,
                       path)

    def _x_leader_arrive(self, fn, args: tuple, path) -> None:
        # Mirrors Link._deliver + RNic.handle_packet at the leader; the
        # successor is a real event: _rx_process runs the completion
        # cascade (CQE -> commit -> next proposal) with real events.
        self.hops_replayed += 1
        lnic = path.nic
        ready = lnic._rx_admit()
        if ready is not None:
            self._sim.schedule_at_fire(ready, lnic._rx_process, args[1])

    # ------------------------------------------------------------------
    # Materialization and the _v_* stages: the chain from leader TX to
    # the gather threshold.  Each hop runs at the (time, seq) turn the real
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

    def _v_leader_emit(self, fn, args: tuple, path) -> None:
        # Mirrors RNic._emit + Port.send + Link.transmit (leader ->
        # switch).  The launch frame is real (the leader's own TX); only
        # the successor chain goes columnar.
        packet = args[0]
        self.hops_replayed += 1
        path.nic.packets_sent += 1
        d = path.dir_up
        link = path.leader_link
        t = d.send(packet.wire_size)
        tap = link._tap
        if tap is not None:
            tap(path.nic_port, packet)
        self._push_hop(t, link._deliver, (d, packet),
                       self._v_scatter_arrive, path)

    def _v_scatter_arrive(self, fn, args: tuple, path) -> None:
        # Mirrors Link._deliver + Switch.handle_packet (ingress parser claim).
        packet = args[1]
        self.hops_replayed += 1
        sw = path.switch
        idx = path.leader_in_port
        done = sw._parse_ingress(idx)
        packet.meta["ingress_port"] = idx
        self._push_hop(done, sw._run_ingress, (idx, packet),
                       self._v_scatter_ingress, path)

    def _v_scatter_ingress(self, fn, args: tuple, path) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram scatter classification
        # (flow-cache hit, keyed by (bcast QPN, opcode) as the real
        # _classify_roce keys it: each message shape has its own verdict)
        # + the packet's own NumRecv slot reset + multicast fan-out, but
        # the fan-out pushes _VFrames: per-leg varying words are computed
        # at egress, the packets never.  The register guard reset
        # (_begin_packet) is skipped: guards are only read by
        # RegisterAction.execute, which no express stage calls, and every
        # real ingress resets them first.
        packet = args[1]
        upper = packet._upper
        bth = upper[0]
        # The verdict is a scatter one: _rebuild_path checked the tables
        # the walk reads, and any write to them flushes the cache.
        cached = path.fc.hit((bth.dest_qp, bth.opcode))
        if cached is None:
            # Cold verdict: let the real walk classify (and warm the cache
            # for the next packet of this shape).
            self._fallback(fn, args)
            return
        self.hops_replayed += 1
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
        tm = self._sim._now + path.half_pipe
        for leg in path.legs:
            vf = _VFrame()
            vf.kind = 0
            vf.leg = leg
            vf.lau = lau
            vf.rewritten = False
            out = leg.out_port
            self._push_hop(sw._parse_egress(out, tm), sw._run_egress,
                           (out, leg.rid, vf), self._v_scatter_egress, leg)

    def _v_scatter_egress(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_egress + P4ceProgram.on_egress for one
        # multicast leg (egress-cache hit): resolve the wire template and
        # the leg's varying words; patch nothing.
        path = leg.path
        rid = args[1]
        if rid not in path.ecache._cache:
            self._fallback(fn, args)  # cold cache: real egress fills it
            return
        self.hops_replayed += 1
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
        self._push_hop(self._sim._now + path.half_pipe, sw._transmit,
                       (args[0], vf), self._v_scatter_transmit, leg)

    def _v_scatter_transmit(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._transmit + Link.transmit (switch -> replica);
        # the frame is absorbed by the columnar digest tap.
        vf = args[1]
        self.hops_replayed += 1
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

    def _v_replica_arrive(self, fn, args: tuple, leg) -> None:
        # Mirrors Link._deliver + RNic.handle_packet (RX pipeline claim).
        self.hops_replayed += 1
        rnic = leg.rnic
        ready = rnic._rx_admit()
        if ready is None:
            return  # the leg dies here, exactly as in the slow lane
        self._push_hop(ready, rnic._rx_process, (args[1],),
                       self._v_replica_rx, leg)

    def _v_replica_rx(self, fn, args: tuple, leg) -> None:
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
        vf = args[0]
        rnic = leg.rnic
        qp = rnic.qps.get(leg.rqpn)
        if (not rnic.powered or qp is None or qp.state is QpState.ERROR
                or vf.psn != qp.expected_psn):
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
            avf.leg = leg
            avf.tmpl = atmpl
            avf.psn = vf.psn
            avf.syndrome = syndrome
            avf.msn = qp.msn
            avf.wire = atmpl.base.ipv4.total_length + _ETH_WRAP
            avf.iport = None
            # A watcher invalidating mid-notify is _push_hop's stale-hop
            # branch: the ACK materializes into a real kernel event.
            self._push_hop(rnic._tx_claim(), rnic._emit, (avf,),
                           self._v_ack_emit, leg)

    def _v_ack_emit(self, fn, args: tuple, leg) -> None:
        # Mirrors RNic._emit + Link.transmit (replica -> switch).
        avf = args[0]
        self.hops_replayed += 1
        leg.rnic.packets_sent += 1
        link = leg.link
        d = leg.dir_back
        t = d.send(avf.wire)
        tap = link._tap
        if tap is not None:
            tap.absorb_ack(avf.tmpl, avf.psn, avf.syndrome, avf.msn)
        self._push_hop(t, link._deliver, (d, avf), self._v_ack_arrive, leg)

    def _v_ack_arrive(self, fn, args: tuple, leg) -> None:
        # Mirrors Link._deliver + Switch.handle_packet for the ACK.
        avf = args[1]
        self.hops_replayed += 1
        sw = leg.path.switch
        idx = leg.out_port
        done = sw._parse_ingress(idx)
        avf.iport = idx
        self._push_hop(done, sw._run_ingress, (idx, avf),
                       self._v_gather_ingress, leg)

    def _v_gather_ingress(self, fn, args: tuple, leg) -> None:
        # Mirrors Switch._run_ingress + P4ceProgram._gather (NumRecv
        # count, credit fold, forward-or-drop) on the live register cells:
        # the count runs the RegisterAction's masked arithmetic --
        # compared unmasked, as _numrecv_count returns it, so 256-slot PSN
        # wrap behaves identically -- and the rest is the real _gather_ack.
        # Virtual ACKs always carry make_syndrome(ACK, credits), so the
        # NAK branch is unreachable by construction.  At the threshold
        # the forwarded ACK materializes and rides the real-packet tail.
        path = leg.path
        avf = args[1]
        cached = path.fc.hit(leg.gather_key)  # a gather verdict, as above
        if cached is None:
            self._fallback(fn, args)
            return
        self.hops_replayed += 1
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
        self._push_hop(sw._parse_egress(out, self._sim._now + path.half_pipe),
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
            leg.epoch = self._epoch
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
        # Watches: a fault on a traversed device and any table/register/
        # multicast write call invalidate().
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
