"""The replicated log: entry encoding, recycling, consumption scan.

"Each server participating in the protocol keeps a log of values.  The
leader appends data to its own as well as the replicas' logs.  Both the
leader and the replicas consume the content of their own logs,
asynchronously." (section III)

Layout: a log is a registered memory region filled with back-to-back
entries::

    +--------------------------+----------------+--------------------+
    | lap(16b) | length(48b)   | epoch   (u64)  | payload (length B) |
    +--------------------------+----------------+--------------------+

padded to 8-byte alignment.  A reader knows an entry is present when the
header is non-zero *and its lap tag matches the reader's current lap* --
the lap tag is what makes the region recyclable: after the writer wraps
to offset 0, stale bytes from the previous lap carry the old tag and are
ignored.  The wrap itself is a 16-byte **wrap marker** (length field all
ones) that the writer appends, replicates like any entry, and that makes
readers jump to offset 0 and bump their lap.

Offsets exposed to the rest of the system are *logical* (monotonically
increasing, ``lap * usable + physical``); ``physical()`` maps them into
the region.  Because an entry never straddles the wrap, every logical
entry occupies one contiguous physical range -- which is what the single
RDMA write per entry (and the switch's ``VA + o`` rewrite) relies on.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from .. import params
from ..rdma.memory import MemoryRegion

ENTRY_HEADER = struct.Struct("!QQ")
assert ENTRY_HEADER.size == params.LOG_ENTRY_HEADER_BYTES

#: Bits of the first header word holding the biased payload length.
LENGTH_BITS = 48
LENGTH_MASK = (1 << LENGTH_BITS) - 1
#: Length-field value marking a wrap marker.
WRAP_LENGTH = LENGTH_MASK
LAP_MASK = 0xFFFF


def _tag(lap: int, biased_length: int) -> int:
    return ((lap & LAP_MASK) << LENGTH_BITS) | (biased_length & LENGTH_MASK)


def encode_entry(payload: bytes, epoch: int, lap: int = 0) -> bytes:
    """Wire format of one log entry, padded to 8-byte alignment.

    The length field stores ``len(payload) + 1`` so that a present entry
    is never all-zeroes -- without the bias, a zero-length entry written
    in lap 0 would be indistinguishable from untouched memory and wedge
    the readers behind it.
    """
    if len(payload) + 1 >= WRAP_LENGTH:
        raise ValueError("payload too large for the length field")
    raw = ENTRY_HEADER.pack(_tag(lap, len(payload) + 1), epoch) + payload
    pad = (-len(raw)) % 8
    return raw + b"\x00" * pad


def encode_wrap_marker(lap: int) -> bytes:
    """The 16-byte marker that sends readers back to offset 0."""
    return ENTRY_HEADER.pack(_tag(lap, WRAP_LENGTH), 0)


def entry_size(payload_len: int) -> int:
    """Bytes an entry with the given payload occupies in the log."""
    raw = ENTRY_HEADER.size + payload_len
    return raw + (-raw) % 8


class LogEntry:
    """One decoded entry."""

    __slots__ = ("offset", "epoch", "payload", "next_offset")

    def __init__(self, offset: int, epoch: int, payload: bytes, next_offset: int):
        #: Logical offset of the entry header.
        self.offset = offset
        self.epoch = epoch
        self.payload = payload
        self.next_offset = next_offset

    def __repr__(self) -> str:
        return (f"LogEntry(off={self.offset}, epoch={self.epoch}, "
                f"len={len(self.payload)})")


class Segment:
    """One physically-contiguous byte range to replicate."""

    __slots__ = ("physical_offset", "data", "logical_offset")

    def __init__(self, physical_offset: int, data: bytes, logical_offset: int):
        self.physical_offset = physical_offset
        self.data = data
        self.logical_offset = logical_offset


class Log:
    """A recyclable log living in a registered memory region."""

    def __init__(self, region: MemoryRegion):
        self.region = region
        #: Logical append/consume cursor (monotonic).
        self.next_offset = 0
        #: Bytes per lap (a wrap marker must always fit at the end).
        #: Fixed at registration time; cached because the cursor math on
        #: the replication hot path reads it several times per entry.
        self.usable = region.length - ENTRY_HEADER.size

    @property
    def capacity(self) -> int:
        return self.region.length

    @property
    def base_va(self) -> int:
        return self.region.addr

    def lap_of(self, logical: int) -> int:
        return logical // self.usable

    def physical(self, logical: int) -> int:
        return logical % self.usable

    # -- writer side --------------------------------------------------------------

    def append_local(self, payload: bytes, epoch: int) -> Tuple[int, List[Segment]]:
        """Append locally; returns (logical offset, segments to replicate).

        Usually one segment (the entry).  When the entry does not fit in
        the current lap, a wrap-marker segment precedes it.
        """
        segments: List[Segment] = []
        size = entry_size(len(payload))
        if size > self.usable:
            raise ValueError("entry larger than the log")
        lap = self.lap_of(self.next_offset)
        physical = self.physical(self.next_offset)
        if physical + size > self.usable:
            marker = encode_wrap_marker(lap)
            self.region.write(self.base_va + physical, marker)
            segments.append(Segment(physical, marker, self.next_offset))
            # Jump to the start of the next lap.
            self.next_offset = (lap + 1) * self.usable
            lap += 1
            physical = 0
        encoded = encode_entry(payload, epoch, lap)
        offset = self.next_offset
        self.region.write(self.base_va + physical, encoded)
        segments.append(Segment(physical, encoded, offset))
        self.next_offset = offset + len(encoded)
        return offset, segments

    # -- reader side ----------------------------------------------------------------

    def peek(self, logical: int) -> Optional[LogEntry]:
        """Decode the entry at the logical offset if one is present.

        Returns the entry; transparently follows wrap markers.  Returns
        None when the next entry has not arrived yet.
        """
        # Decode straight from the backing store: the cursor math keeps
        # every read inside the region (usable = length - header), so
        # MemoryRegion.read's bounds checks would be pure overhead on this
        # path; a slice of the buffer is already ``bytes``.
        usable = self.usable
        buffer = self.region.buffer
        for _ in range(2):  # at most one wrap hop
            lap = logical // usable
            physical = logical % usable
            word, epoch = ENTRY_HEADER.unpack_from(buffer, physical)
            if (word >> LENGTH_BITS) != (lap & LAP_MASK):
                return None  # stale bytes from a previous lap, or empty
            biased = word & LENGTH_MASK
            if biased == WRAP_LENGTH:
                logical = (lap + 1) * usable
                continue
            if biased == 0:
                return None  # untouched memory within the current lap
            length = biased - 1
            size = entry_size(length)
            if physical + size > usable:
                return None
            start = physical + ENTRY_HEADER.size
            return LogEntry(logical, epoch, buffer[start:start + length],
                            logical + size)
        return None

    def consume(self) -> Iterator[LogEntry]:
        """Yield (and advance past) every entry ready at the cursor."""
        while True:
            entry = self.peek(self.next_offset)
            if entry is None:
                # The cursor may sit on a wrap marker with nothing after
                # it yet; peek() already followed it, so check directly.
                self._follow_wrap()
                return
            self.next_offset = entry.next_offset
            yield entry

    def _follow_wrap(self) -> None:
        lap = self.lap_of(self.next_offset)
        physical = self.physical(self.next_offset)
        word, _epoch = ENTRY_HEADER.unpack_from(self.region.buffer, physical)
        if (word >> LENGTH_BITS) == (lap & LAP_MASK) \
                and (word & LENGTH_MASK) == WRAP_LENGTH:
            self.next_offset = (lap + 1) * self.usable

    def rescan(self) -> int:
        """Rebuild the cursor by scanning forward from its current lap.

        Used by a new leader: its consume cursor is valid (it was applying
        entries); scanning forward finds everything the old leader wrote
        that is not yet consumed.
        """
        while True:
            entry = self.peek(self.next_offset)
            if entry is None:
                before = self.next_offset
                self._follow_wrap()
                if self.next_offset == before:
                    break
                continue
            self.next_offset = entry.next_offset
        return self.next_offset

    # -- raw access (view-change suffix adoption) -----------------------------------

    def read_raw(self, logical: int, length: int) -> bytes:
        """Raw bytes of the logical range (may span the wrap)."""
        out = []
        while length > 0:
            physical = self.physical(logical)
            chunk = min(length, self.usable - physical)
            out.append(self.region.read(self.base_va + physical, chunk))
            logical += chunk
            length -= chunk
        return b"".join(out)

    def write_raw(self, logical: int, data: bytes) -> None:
        while data:
            physical = self.physical(logical)
            chunk = min(len(data), self.usable - physical)
            self.region.write(self.base_va + physical, data[:chunk])
            logical += chunk
            data = data[chunk:]

    def raw_segments(self, logical: int, length: int) -> List[Segment]:
        """Physically-contiguous segments covering a logical range."""
        segments: List[Segment] = []
        while length > 0:
            physical = self.physical(logical)
            chunk = min(length, self.usable - physical)
            segments.append(Segment(physical,
                                    self.region.read(self.base_va + physical, chunk),
                                    logical))
            logical += chunk
            length -= chunk
        return segments

    def __repr__(self) -> str:
        return f"Log(next={self.next_offset}, cap={self.capacity})"


# -- control region ----------------------------------------------------------------
#
# Every machine exposes a tiny REMOTE_READ region next to its log:
#
#     +-----------------+--------------------+----------------+------------------+
#     | heartbeat (u64) | log next_off (u64) | last epoch(u64)| granted_to (u64) |
#     +-----------------+--------------------+----------------+------------------+
#
# Peers read it for liveness (heartbeat, section III) and during view
# changes: the descriptor says how far this machine's log extends
# (logical offset), and ``granted_to`` publishes which machine currently
# holds write permission here -- a new leader waits until a majority
# publishes *its* id before issuing its first write, so the take-over
# needs no reconnection.

CONTROL_REGION = struct.Struct("!QQQQ")
CONTROL_REGION_BYTES = CONTROL_REGION.size
HEARTBEAT_OFFSET = 0
DESCRIPTOR_OFFSET = 8
EPOCH_OFFSET = 16
GRANTED_OFFSET = 24

#: ``granted_to`` value meaning "no machine holds write permission".
GRANTED_NONE = (1 << 64) - 1


def pack_control(heartbeat: int, next_offset: int, epoch: int,
                 granted_to: int = GRANTED_NONE) -> bytes:
    return CONTROL_REGION.pack(heartbeat, next_offset, epoch, granted_to)


def unpack_control(data: bytes) -> Tuple[int, int, int, int]:
    """Returns (heartbeat, log next_offset, last epoch, granted_to)."""
    return CONTROL_REGION.unpack(data[:CONTROL_REGION_BYTES])
