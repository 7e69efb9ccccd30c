"""The packet object passed through the simulated network.

A ``Packet`` is a parsed header stack (Ethernet / IPv4 / UDP) plus a list
of upper-layer headers (the RoCE headers, owned by :mod:`repro.rdma`) and a
payload.  Components mutate header *objects*; ``pack()`` produces the exact
byte representation, and ``wire_size`` is always byte-accurate because it
is derived from the same header sizes the codecs use.

``meta`` is simulation-side bookkeeping (ingress port, multicast replica
id, ...) and does not exist on the wire; nothing in ``meta`` may carry
protocol-visible information.

Copy-on-write
-------------

``copy()`` is what the switch replication engine calls once per multicast
replica.  Instead of deep-copying the header stack it *freezes* the shared
headers (see :class:`repro.net.headers.Header`) and hands out a clone that
references them; the first access to a header slot through the packet
(``packet.eth``, ``packet.upper``, ...) thaws a private copy.  Rewriting
replica *i*'s headers therefore can never alias replica *j* or the
original, while replicas whose headers are never touched pay nothing.
Holding a direct header reference across ``copy()`` and writing through
it raises :class:`~repro.net.headers.FrozenHeaderError` instead of
silently corrupting the other replicas.  The same sharing carries the
rewrite-template engine's frozen template headers
(:mod:`repro.rdma.wiretemplate`), so it runs under every fast-lane
setting.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol

from .headers import ETHERNET_FCS_BYTES, EthernetHeader, Ipv4Header, UdpHeader

#: RoCE invariant CRC trailer size in bytes.
ICRC_BYTES = 4

#: Bits of ``Packet._shared`` marking which slots still alias another packet.
_SH_ETH = 1
_SH_IPV4 = 2
_SH_UDP = 4
_SH_UPPER = 8
_SH_ALL = _SH_ETH | _SH_IPV4 | _SH_UDP | _SH_UPPER


class UpperHeader(Protocol):
    """Anything stackable above UDP: must know its size and byte codec."""

    SIZE: int

    def pack(self) -> bytes: ...
    def copy(self) -> "UpperHeader": ...
    def freeze(self) -> None: ...


class Packet:
    """One Ethernet frame in flight."""

    __slots__ = ("_eth", "_ipv4", "_udp", "_upper", "_payload", "has_icrc",
                 "meta", "_shared", "_upper_size", "_payload_crc", "_wire")

    def __init__(self, eth: EthernetHeader, ipv4: Optional[Ipv4Header] = None,
                 udp: Optional[UdpHeader] = None,
                 upper: Optional[List[UpperHeader]] = None,
                 payload: bytes = b"", has_icrc: bool = False):
        self._eth = eth
        self._ipv4 = ipv4
        self._udp = udp
        self._upper: List[UpperHeader] = upper if upper is not None else []
        self._payload = payload
        self.has_icrc = has_icrc
        self.meta: Dict[str, Any] = {}
        #: Copy-on-write bookkeeping: which slots alias another packet.
        self._shared = 0
        #: ``(len(upper), size)`` cache for :attr:`upper_size`.
        self._upper_size: Optional[tuple] = None
        #: ``(payload_object, crc32)`` cache, the seed of the running-form
        #: ICRC (:func:`repro.rdma.icrc.payload_crc`).
        self._payload_crc: Optional[tuple] = None
        #: ``(header_block, trailer)`` pre-serialized wire cache, set by the
        #: rewrite-template engine.  Valid as long as no header slot is
        #: touched (every header property access clears it); the payload is
        #: joined live, so payload swaps do not invalidate it.  Both parts
        #: are immutable ``bytes``, and a rewrite installs a new tuple of
        #: new parts rather than patching these: copy-on-write clones share
        #: the tuple, so a rewrite of one must not reach the other.
        self._wire: Optional[tuple] = None

    # -- copy-on-write accessors ----------------------------------------------

    # Every header accessor (read or write) drops the pre-serialized wire
    # cache: handing out a header object means its fields may change, and
    # the cache must never outlive the bytes it mirrors.

    @property
    def eth(self) -> EthernetHeader:
        self._wire = None
        if self._shared & _SH_ETH:
            self._shared &= ~_SH_ETH
            self._eth = self._eth.copy()
        return self._eth

    @eth.setter
    def eth(self, value: EthernetHeader) -> None:
        self._wire = None
        self._shared &= ~_SH_ETH
        self._eth = value

    @property
    def ipv4(self) -> Optional[Ipv4Header]:
        self._wire = None
        if self._shared & _SH_IPV4:
            self._shared &= ~_SH_IPV4
            if self._ipv4 is not None:
                self._ipv4 = self._ipv4.copy()
        return self._ipv4

    @ipv4.setter
    def ipv4(self, value: Optional[Ipv4Header]) -> None:
        self._wire = None
        self._shared &= ~_SH_IPV4
        self._ipv4 = value

    @property
    def udp(self) -> Optional[UdpHeader]:
        self._wire = None
        if self._shared & _SH_UDP:
            self._shared &= ~_SH_UDP
            if self._udp is not None:
                self._udp = self._udp.copy()
        return self._udp

    @udp.setter
    def udp(self, value: Optional[UdpHeader]) -> None:
        self._wire = None
        self._shared &= ~_SH_UDP
        self._udp = value

    @property
    def upper(self) -> List[UpperHeader]:
        self._wire = None
        if self._shared & _SH_UPPER:
            self._shared &= ~_SH_UPPER
            self._upper = [h.copy() for h in self._upper]
        return self._upper

    @upper.setter
    def upper(self, value: List[UpperHeader]) -> None:
        self._wire = None
        self._shared &= ~_SH_UPPER
        self._upper = value
        self._upper_size = None

    @property
    def payload(self) -> bytes:
        return self._payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._payload = value
        self._payload_crc = None

    # -- sizes ----------------------------------------------------------------

    @property
    def upper_size(self) -> int:
        upper = self._upper
        cached = self._upper_size
        if cached is not None and cached[0] == len(upper):
            return cached[1]
        size = sum(h.SIZE for h in upper)
        self._upper_size = (len(upper), size)
        return size

    @property
    def l3_size(self) -> int:
        """Bytes from the IPv4 header to the end of the payload/ICRC."""
        size = len(self._payload) + self.upper_size
        if self.has_icrc:
            size += ICRC_BYTES
        if self._udp is not None:
            size += UdpHeader.SIZE
        if self._ipv4 is not None:
            size += Ipv4Header.SIZE
        return size

    @property
    def wire_size(self) -> int:
        """Frame size on the wire: MAC header + payload stack + FCS.

        Preamble and inter-frame gap are accounted by the link model, not
        here, because they are not part of the frame.
        """
        wire = self._wire
        if wire is not None:
            # A rendered frame knows its size: the image is what pack()
            # joins (ICRC in the trailer), so no header walk is needed.
            return (len(wire[0]) + len(self._payload) + len(wire[1])
                    + ETHERNET_FCS_BYTES)
        return EthernetHeader.SIZE + self.l3_size + ETHERNET_FCS_BYTES

    # -- length fix-up and serialization ---------------------------------------

    def finalize(self) -> "Packet":
        """Recompute the IPv4/UDP length fields from the current stack.

        Must be called after any change to the upper headers or payload and
        before :meth:`pack` (the switch egress calls it after rewriting).
        """
        body = len(self._payload) + self.upper_size + (ICRC_BYTES if self.has_icrc else 0)
        if self._udp is not None:
            # Compare through the private slot first: thawing (and wire-
            # cache invalidation) is only needed when a length actually
            # changes, and on the hot path it almost never does.
            length = UdpHeader.SIZE + body
            if self._udp.length != length:
                self.udp.length = length  # property thaws before writing
            body += UdpHeader.SIZE
        if self._ipv4 is not None:
            total = Ipv4Header.SIZE + body
            if self._ipv4.total_length != total:
                self.ipv4.total_length = total
        return self

    def rewrite_macs(self, src, dst) -> None:
        """L2 forwarding rewrite that keeps a rendered wire image alive.

        A plain MAC swap touches only the first 12 bytes of the frame, so
        when the rewrite-template engine has left a pre-serialized block
        on the packet it is patched in place instead of being discarded.
        The Ethernet header object is replaced wholesale (never mutated):
        it may be a frozen template header shared with other frames.
        """
        eth = self._eth
        if eth.src is src and eth.dst is dst:
            return
        self._eth = EthernetHeader(dst, src, eth.ethertype)
        self._shared &= ~_SH_ETH
        wire = self._wire
        if wire is not None:
            self._wire = (dst._b + src._b + wire[0][12:], wire[1])

    def pack(self) -> bytes:
        """Serialize to wire bytes (without preamble/IFG/FCS)."""
        wire = self._wire
        if wire is not None:
            return wire[0] + self._payload + wire[1]
        parts = [self._eth.pack()]
        if self._ipv4 is not None:
            parts.append(self._ipv4.pack())
        if self._udp is not None:
            parts.append(self._udp.pack())
        for header in self._upper:
            parts.append(header.pack())
        parts.append(self._payload)
        if self.has_icrc:
            parts.append(b"\x00" * ICRC_BYTES)  # ICRC value modelled separately
        return b"".join(parts)

    @classmethod
    def parse(cls, data: bytes) -> "Packet":
        """Parse Ethernet/IPv4/UDP; upper layers stay in ``payload``.

        The RoCE codecs in :mod:`repro.rdma.headers` take over from the UDP
        payload; this keeps the net layer independent of RDMA.  Parsing is
        zero-copy until the tail: headers are unpacked through a
        ``memoryview`` so each layer reads its own bytes instead of
        re-slicing (and re-copying) the whole remainder of the frame.
        """
        view = memoryview(data)
        eth = EthernetHeader.unpack(view)
        offset = EthernetHeader.SIZE
        ipv4: Optional[Ipv4Header] = None
        udp: Optional[UdpHeader] = None
        if eth.ethertype == 0x0800:
            ipv4 = Ipv4Header.unpack(view[offset:])
            offset += Ipv4Header.SIZE
            if ipv4.protocol == 17:
                udp = UdpHeader.unpack(view[offset:])
                offset += UdpHeader.SIZE
        return cls(eth, ipv4, udp, payload=bytes(view[offset:]))

    # -- duplication ------------------------------------------------------------

    def copy(self) -> "Packet":
        """Copy-on-write duplicate: headers are shared (frozen) until first
        access through either packet; the (immutable) payload bytes are
        always shared.

        This is what the switch replication engine does: each egress copy
        gets private headers -- materialized lazily -- so per-replica
        rewriting cannot alias.
        """
        self._eth.freeze()
        if self._ipv4 is not None:
            self._ipv4.freeze()
        if self._udp is not None:
            self._udp.freeze()
        for header in self._upper:
            header.freeze()
        clone = Packet(self._eth, self._ipv4, self._udp, self._upper,
                       self._payload, self.has_icrc)
        clone._shared = _SH_ALL
        self._shared = _SH_ALL
        clone.meta = dict(self.meta)
        clone._upper_size = self._upper_size
        clone._payload_crc = self._payload_crc
        clone._wire = self._wire
        return clone

    def fanout_copy(self) -> "Packet":
        """Delegate to :meth:`copy`, which every caller uses directly.
        Kept only because the frozen ``bench/trace.py`` BOUNDARIES looks
        the name up in the class ``__dict__``."""
        return self.copy()

    def __repr__(self) -> str:
        stack = [type(h).__name__ for h in self._upper]
        return (f"Packet(eth={self._eth!r}, ipv4={self._ipv4!r}, udp={self._udp!r}, "
                f"upper={stack}, payload={len(self._payload)}B)")
