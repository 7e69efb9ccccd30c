"""Full-duplex point-to-point links and device ports.

A ``Port`` is a device's attachment point; a ``Link`` joins exactly two
ports.  Each direction of a link models:

* **serialization** -- the frame occupies the transmitter for
  ``(wire_size + preamble/IFG) * 8 / rate`` ns; back-to-back frames queue
  FIFO behind each other (this is what caps Mu's leader at 1/n of the link
  per replica in Fig. 5);
* **propagation** -- a fixed one-way delay;
* **faults** -- a link can be taken down (packets silently dropped, as when
  the paper powers off the switch) or given a random drop probability.

Per-direction byte/packet counters feed the goodput benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol

from .. import params
from ..sim import SeededRng, Simulator
from ..sim.watch import Watched
from .packet import Packet

# Ethernet wire constants hoisted for the per-frame _Direction.send.  These are
# physical-layer invariants, never reconfigured at runtime.
_MIN_FRAME = params.ETHERNET_MIN_FRAME_BYTES
_WIRE_OVERHEAD = params.ETHERNET_WIRE_OVERHEAD_BYTES


class PacketSink(Protocol):
    """Any device that can receive packets from one of its ports."""

    def handle_packet(self, port: "Port", packet: Packet) -> None: ...


class Port:
    """One end of a link, owned by a device."""

    __slots__ = ("device", "name", "link", "index")

    def __init__(self, device: Optional[PacketSink], name: str, index: int = 0):
        self.device = device
        self.name = name
        self.index = index
        self.link: Optional[Link] = None

    @property
    def connected(self) -> bool:
        return self.link is not None

    @property
    def peer(self) -> Optional["Port"]:
        if self.link is None:
            return None
        return self.link.other_end(self)

    def send(self, packet: Packet) -> bool:
        """Transmit a frame.  Returns False if the port is unplugged."""
        if self.link is None:
            return False
        return self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a frame arrives at this port."""
        if self.device is not None:
            self.device.handle_packet(self, packet)

    def __repr__(self) -> str:
        return f"Port({self.name})"


class DirectionStats:
    """Counters for one direction of a link."""

    __slots__ = ("frames", "bytes", "dropped")

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.dropped = 0

    def as_dict(self) -> Dict[str, int]:
        return {"frames": self.frames, "bytes": self.bytes, "dropped": self.dropped}


class _Direction:
    """Per-direction transmitter state: destination port, FIFO horizon,
    counters.  Resolved from the source port with one identity compare in
    :meth:`Link.transmit` -- the hottest call in the simulator."""

    __slots__ = ("link", "dst", "stats", "busy_until")

    def __init__(self, link: "Link", dst: Port) -> None:
        self.link = link
        self.dst = dst
        self.stats = DirectionStats()
        self.busy_until = 0.0

    def send(self, wire_size: int) -> float:
        """Serialize one frame of ``wire_size`` bytes now: queue it FIFO
        behind the frames ahead, count it, and return when it arrives at
        :attr:`dst`.  The serialization arithmetic is term for term
        :func:`params.serialization_ns`, so timing is bit-identical to
        computing it through the helper.  Flight fusion's express stages
        call this too."""
        link = self.link
        now = link._sim._now  # raw clock read; runs once per frame
        busy = self.busy_until
        start = busy if busy > now else now
        on_wire = wire_size if wire_size > _MIN_FRAME else _MIN_FRAME
        finish = start + (on_wire + _WIRE_OVERHEAD) * 8 * 1e9 / link.rate_bps
        self.busy_until = finish
        stats = self.stats
        stats.frames += 1
        stats.bytes += wire_size
        return finish + link.propagation_ns


class Link(Watched):
    """Full-duplex cable between two ports.  Cuts, heals, loss and taps
    notify its watchers."""

    def __init__(self, sim: Simulator, a: Port, b: Port,
                 rate_bps: int = params.LINK_RATE_BPS,
                 propagation_ns: float = params.LINK_PROPAGATION_NS,
                 rng: Optional[SeededRng] = None,
                 name: str = ""):
        if a.link is not None or b.link is not None:
            raise ValueError("port already connected")
        self._sim = sim
        self.a = a
        self.b = b
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.name = name or f"{a.name}<->{b.name}"
        self.up = True
        self._drop_probability = 0.0
        self._rng = rng or SeededRng(0)
        # Per-direction transmitter state (FIFO serialization queue).
        self._dir_a = _Direction(self, b)
        self._dir_b = _Direction(self, a)
        self.stats: Dict[int, DirectionStats] = {
            id(a): self._dir_a.stats, id(b): self._dir_b.stats}
        self._tap: Optional[Callable[[Port, Packet], Any]] = None
        a.link = self
        b.link = self

    def other_end(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError(f"{port!r} is not an end of {self.name}")

    def direction_from(self, src: Port) -> _Direction:
        """The transmitter state for frames leaving ``src`` (analytic
        occupancy queries; treat as read-only)."""
        if src is self.a:
            return self._dir_a
        if src is self.b:
            return self._dir_b
        raise ValueError(f"{src!r} is not an end of {self.name}")

    @property
    def tap(self) -> Optional[Callable[[Port, Packet], Any]]:
        """Optional tap called for every frame accepted for transmission
        (packet captures in tests, the wire-digest harness)."""
        return self._tap

    @tap.setter
    def tap(self, tap: Optional[Callable[[Port, Packet], Any]]) -> None:
        self._tap = tap
        self._changed()

    @property
    def drop_probability(self) -> float:
        """Per-frame loss probability (0.0 = lossless)."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, probability: float) -> None:
        self._drop_probability = probability
        self._changed()

    def transmit(self, src: Port, packet: Packet) -> bool:
        """Serialize a frame from ``src`` toward the opposite port.

        Returns True if the frame was accepted by the transmitter (it may
        still be lost in flight when the link is down or lossy -- like a
        real cable, acceptance is not delivery).

        This is the hottest per-frame call in the simulator, so the
        direction state is one identity compare away.
        """
        if src is self.a:
            d = self._dir_a
        elif src is self.b:
            d = self._dir_b
        else:
            raise ValueError(f"{src!r} is not an end of {self.name}")
        arrival = d.send(packet.wire_size)
        tap = self._tap  # private read: property is off the hot path
        if tap is not None:
            tap(src, packet)
        drop = self._drop_probability  # private read: property is off the hot path
        if not self.up or (drop > 0.0 and self._rng.chance(drop)):
            d.stats.dropped += 1
            return True
        # Fire-and-forget: no delivery handle escapes, so the kernel spends
        # one heap tuple on it and no Event object.
        self._sim.schedule_at_fire(arrival, self._deliver, d, packet)
        return True

    def _deliver(self, d: "_Direction", packet: Packet) -> None:
        if not self.up:
            # The link went down while the frame was in flight.
            d.stats.dropped += 1
            return
        dst = d.dst
        device = dst.device
        if device is not None:
            device.handle_packet(dst, packet)

    # -- fault injection ------------------------------------------------------

    def set_down(self) -> None:
        """Cut the cable: all frames (queued and future) are lost."""
        self.up = False
        self._changed()

    def set_up(self) -> None:
        self.up = True
        self._changed()

    def stats_from(self, port: Port) -> DirectionStats:
        return self.stats[id(port)]

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.rate_bps / 1e9:.0f} Gbit/s)"
