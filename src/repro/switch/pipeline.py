"""The programmable switch device: ports, parsers, pipeline, PRE, CPU port.

Follows the portable-switch-architecture shape of Fig. 1: per-port ingress
and egress **parsers** with finite packet rate ("each ingress and each
egress parser can process 121 million packets per second", section IV-D),
an **ingress** match-action pass where routing/replication decisions are
made, the **replication engine** between the gresses, and an **egress**
pass where per-copy rewriting happens.

The loaded :class:`SwitchProgram` supplies the two match-action passes;
the device supplies timing, replication, the L3 host table shared by all
programs, and the CPU port through which packets reach the control plane
(slow: ``CONTROL_PLANE_PKT_NS``).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from .. import params
from ..net import Ipv4Address, MacAddress, Packet, Port
from ..sim import Simulator, Tracer
from .multicast import MulticastCopy, MulticastEngine
from .tables import ExactMatchTable


class VerdictKind(enum.Enum):
    DROP = "drop"
    UNICAST = "unicast"
    MULTICAST = "multicast"
    TO_CPU = "to_cpu"


class IngressVerdict:
    """Outcome of the ingress pass for one packet."""

    __slots__ = ("kind", "egress_port", "group_id")

    def __init__(self, kind: VerdictKind, egress_port: int = -1, group_id: int = -1):
        self.kind = kind
        self.egress_port = egress_port
        self.group_id = group_id

    @classmethod
    def drop(cls) -> "IngressVerdict":
        return cls(VerdictKind.DROP)

    @classmethod
    def unicast(cls, egress_port: int) -> "IngressVerdict":
        return cls(VerdictKind.UNICAST, egress_port=egress_port)

    @classmethod
    def multicast(cls, group_id: int) -> "IngressVerdict":
        return cls(VerdictKind.MULTICAST, group_id=group_id)

    @classmethod
    def to_cpu(cls) -> "IngressVerdict":
        return cls(VerdictKind.TO_CPU)

    def __repr__(self) -> str:
        return f"IngressVerdict({self.kind.value})"


class SwitchProgram:
    """Base class for data-plane programs.

    ``attach`` is called once when the program is loaded and is where the
    program allocates its tables and registers.  ``on_ingress`` runs for
    every parsed packet; ``on_egress`` runs per copy after replication and
    returns False to drop the copy.
    """

    name = "base"

    def __init__(self) -> None:
        self.switch: Optional["Switch"] = None

    def attach(self, switch: "Switch") -> None:
        self.switch = switch

    def on_ingress(self, in_port: int, packet: Packet) -> IngressVerdict:
        raise NotImplementedError

    def on_egress(self, out_port: int, replication_id: int, packet: Packet) -> bool:
        return True

    def resource_budget(self):
        """Optional :class:`~repro.switch.resources.ResourceBudget`
        declaring this program's provisioning pools; the switch attaches
        it (plus its own device pools) at :meth:`Switch.load_program`."""
        return None


class PortCounters:
    __slots__ = ("rx_frames", "tx_frames", "rx_drops", "egress_runs")

    def __init__(self) -> None:
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_drops = 0
        #: Packets that occupied this port's egress parser (whether they
        #: were ultimately transmitted or dropped there) -- the quantity
        #: behind the section IV-D parser-bottleneck lesson.
        self.egress_runs = 0


class Switch:
    """A Tofino-class programmable switch."""

    #: Flight-fusion planner watching this switch (set lazily when a
    #: fused path first traverses it); power transitions must disengage
    #: fusion before taking effect.
    _flight_watch = None

    def __init__(self, sim: Simulator, name: str,
                 mac: MacAddress, ip: Ipv4Address,
                 num_ports: int = 32,
                 tracer: Optional[Tracer] = None,
                 pipeline_latency_ns: float = params.SWITCH_PIPELINE_LATENCY_NS,
                 parser_gap_ns: float = params.SWITCH_PARSER_GAP_NS):
        self.sim = sim
        self.name = name
        self.mac = mac
        self.ip = ip
        self.tracer = tracer
        self.pipeline_latency_ns = pipeline_latency_ns
        self.parser_gap_ns = parser_gap_ns
        self.ports: List[Port] = [Port(self, f"{name}.p{i}", i) for i in range(num_ports)]
        self.multicast = MulticastEngine()
        #: Host routing table shared by all programs: dst IP -> (port, mac).
        self.l3_table = ExactMatchTable("ipv4_host", ("dst_ip",), capacity=512)
        self.program: Optional[SwitchProgram] = None
        #: Control-plane receive hook: fn(ingress_port_index, packet).
        self.cpu_handler: Optional[Callable[[int, Packet], None]] = None
        self.powered = True
        #: Per-port counter rows, indexed by port number.  A flat list:
        #: the frame path (real handlers and flight fusion's express
        #: stages alike) indexes it on every hop, and the epoch-barrier
        #: readers aggregate it as one slab (:meth:`counter_totals`).
        self.counters: List[PortCounters] = [PortCounters()
                                             for _ in range(num_ports)]
        self.drops = 0
        self.to_cpu_count = 0
        self._ingress_parser_busy: List[float] = [0.0] * num_ports
        self._egress_parser_busy: List[float] = [0.0] * num_ports
        self._next_packet_token = 1
        #: Provisioning budget of the loaded program plus device pools
        #: (multicast group ids); None until a budget-declaring program
        #: is loaded.
        self.resources = None

    # ------------------------------------------------------------------
    # Program and routing management (control plane / setup)
    # ------------------------------------------------------------------

    def load_program(self, program: SwitchProgram) -> None:
        self.program = program
        program.attach(self)
        budget = program.resource_budget()
        if budget is not None:
            # The replication engine is a device resource, not a program
            # one; fold it into the same budget so one snapshot covers
            # everything provisioning can exhaust.
            budget.add_pool("multicast_group_ids", self.multicast.capacity)
        self.resources = budget

    def resource_snapshot(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Per-pool ``{used, capacity}`` of the loaded program's budget."""
        return None if self.resources is None else self.resources.snapshot()

    def add_host_route(self, ip: Ipv4Address, port_index: int, mac: MacAddress) -> None:
        self.l3_table.add_entry((ip.value,), "forward",
                                port=port_index, dst_mac=mac)

    def l3_route(self, ip: Ipv4Address) -> Optional[int]:
        entry = self.l3_table.lookup(ip.value)
        if entry.action != "forward":
            return None
        return int(entry.params["port"])

    def free_port(self) -> Port:
        """First unconnected port (cabling helper)."""
        for port in self.ports:
            if not port.connected:
                return port
        raise RuntimeError(f"{self.name}: no free ports")

    def counter_totals(self) -> List[int]:
        """Device-wide counter slab: ``[rx_frames, tx_frames, rx_drops,
        egress_runs, drops, to_cpu]`` summed over every port in one pass.

        Per-port rows are written on the frame path, totals are derived
        on demand -- current whenever it is called, mid-run included.
        The group-scaling harness compares it per shard between the
        serial and process-parallel runs of the same lanes.
        """
        rx = tx = drops = egress = 0
        for c in self.counters:
            rx += c.rx_frames
            tx += c.tx_frames
            drops += c.rx_drops
            egress += c.egress_runs
        return [rx, tx, drops, egress, self.drops, self.to_cpu_count]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def handle_packet(self, port: Port, packet: Packet) -> None:
        """Frame arrival: occupy the port's ingress parser, then ingress."""
        if not self.powered:
            return
        index = port.index
        self.counters[index].rx_frames += 1
        # Raw clock reads (sim._now) on the per-frame path: the property
        # indirection costs a visible fraction of hot-loop time.
        now = self.sim._now
        busy = self._ingress_parser_busy[index]
        start = busy if busy > now else now
        done = start + self.parser_gap_ns
        self._ingress_parser_busy[index] = done
        packet.meta["ingress_port"] = index
        self.sim.schedule_at_fire(done, self._run_ingress, index, packet)

    def _run_ingress(self, in_port: int, packet: Packet) -> None:
        if not self.powered or self.program is None:
            return
        packet.meta["packet_token"] = self._next_packet_token
        self._next_packet_token += 1
        verdict = self.program.on_ingress(in_port, packet)
        if verdict.kind is VerdictKind.DROP:
            self.drops += 1
            self.counters[in_port].rx_drops += 1
            return
        if verdict.kind is VerdictKind.TO_CPU:
            self.to_cpu_count += 1
            if self.cpu_handler is not None:
                self.sim.schedule_at_fire(
                    self.sim._now + params.CONTROL_PLANE_PKT_NS,
                    self.cpu_handler, in_port, packet)
            return
        tm_time = self.sim._now + self.pipeline_latency_ns / 2
        if verdict.kind is VerdictKind.UNICAST:
            self._to_egress(verdict.egress_port, 0, packet, tm_time)
            return
        copies = self.multicast.lookup(verdict.group_id)
        if copies is None:
            self.drops += 1
            return
        # The original packet is consumed by replication (only the copies
        # continue through the pipeline), so the last replica can reuse it
        # instead of paying for one more copy.
        last = len(copies) - 1
        for i, copy in enumerate(copies):
            replica = packet if i == last else packet.copy()
            replica.meta["replication_id"] = copy.replication_id
            self._to_egress(copy.egress_port, copy.replication_id, replica, tm_time)

    def _to_egress(self, out_port: int, replication_id: int, packet: Packet,
                   ready_time: float) -> None:
        if not 0 <= out_port < len(self.ports):
            self.drops += 1
            return
        busy = self._egress_parser_busy[out_port]
        start = busy if busy > ready_time else ready_time
        done = start + self.parser_gap_ns
        self._egress_parser_busy[out_port] = done
        self.sim.schedule_at_fire(done, self._run_egress, out_port,
                                  replication_id, packet)

    def _run_egress(self, out_port: int, replication_id: int, packet: Packet) -> None:
        if not self.powered or self.program is None:
            return
        self.counters[out_port].egress_runs += 1
        keep = self.program.on_egress(out_port, replication_id, packet)
        if not keep:
            self.drops += 1
            return
        packet.finalize()
        self.sim.schedule_at_fire(self.sim._now + self.pipeline_latency_ns / 2,
                                  self._transmit, out_port, packet)

    def _transmit(self, out_port: int, packet: Packet) -> None:
        if not self.powered:
            return
        self.counters[out_port].tx_frames += 1
        self.ports[out_port].send(packet)

    # ------------------------------------------------------------------
    # CPU (control-plane) injection path
    # ------------------------------------------------------------------

    def inject(self, packet: Packet, out_port: Optional[int] = None) -> bool:
        """Send a control-plane-crafted packet out of the data plane.

        Routes by the L3 host table when ``out_port`` is not given.
        Costs one control-plane packet delay plus the egress path.
        """
        if not self.powered:
            return False
        if out_port is None:
            assert packet.ipv4 is not None
            route = self.l3_route(packet.ipv4.dst)
            if route is None:
                return False
            out_port = route
        at = self.sim.now + params.CONTROL_PLANE_PKT_NS
        self.sim.schedule_at_fire(at, self._to_egress, out_port, 0, packet, at)
        return True

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def power_off(self) -> None:
        """Crash the switch: every packet in or out is lost."""
        self.powered = False
        watch = self._flight_watch
        if watch is not None:
            watch.on_fault(self)

    def power_on(self) -> None:
        self.powered = True
        watch = self._flight_watch
        if watch is not None:
            watch.on_heal(self)

    def __repr__(self) -> str:
        prog = self.program.name if self.program else "none"
        return f"Switch({self.name}, program={prog})"
