"""Batched wire-digest tap for flight fusion's columnar express stages.

The fidelity digest (:func:`repro.workloads.experiments.install_trace_digest`)
hashes every frame every link accepts, in order, as ``frame bytes +
pack("!dI", now, icrc)``.  The real handlers feed it one real
``Packet`` at a time.  The virtual express stages never build those
packets -- so the tap itself becomes columnar: virtual frames are
*absorbed* as small tuples (template reference + the two or three varying
words), buffered in exact wire order alongside eagerly-packed real
frames, and rendered in batches at flush time.

SHA-256 is a stream: ``update(a); update(b)`` equals ``update(a + b)``,
so feeding one contiguous buffer per batch -- with every frame's bytes at
the offset its turn in the order dictates -- produces the bit-identical
hexdigest the per-frame path produces.

Rendering has two lanes of its own:

* **numpy** (when :data:`repro.switch.registers.NUMPY`): per template,
  all its frames in the batch render as one 2-D ``uint8`` matrix -- the
  pre-rendered template block broadcast across rows, the varying columns
  (PSN/AckReq word, VA, AETH word, timestamp, ICRC) patched via
  big-endian views -- and the ICRC column is computed *without hashing a
  single row*, by the affine CRC32 identities of
  :func:`repro.rdma.icrc.crc_patch_table` /
  :func:`repro.rdma.icrc.crc_seed_tables`: template-constant base CRC
  XOR seed-transfer of the payload CRC XOR per-byte patch deltas of the
  rewritten words, all table lookups with fancy indexing.  Rows then
  scatter into the batch buffer at their recorded offsets.

* **scalar** (``REPRO_NO_NUMPY=1``): each buffered frame renders
  individually with ``pack_into`` patches and a direct ``zlib.crc32``
  over the patched ICRC suffix -- the reference computation.  The CI
  digest-parity matrix therefore pins the affine table algebra against
  ``zlib`` bit for bit on every workload.

The backend is consulted *at flush time* so tests can flip
``registers.NUMPY`` and re-render the same absorbed stream both ways.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import struct
import zlib
from typing import Any, List

from .. import fastlane
from ..rdma.icrc import crc_patch_table, crc_seed_tables
from ..rdma.wiretemplate import (
    _ACKPSN_OFF,
    _EXT_OFF,
    _ICRC_ZEROS,
    _S_ACK_TAIL,
    _SUF_ACKPSN_OFF,
    _SUF_EXT_OFF,
    _U32,
    _U64,
)
from ..rdma.headers import RETH_VA_OFFSET
from ..switch import registers

#: Frame offset of the 8-byte RETH virtual address inside a scatter block.
_VA_OFF = _EXT_OFF + RETH_VA_OFFSET

#: Per-frame digest trailer: ``pack("!dI", sim.now, icrc)``.
_S_META = struct.Struct("!dI")
_META_BYTES = _S_META.size

#: Absorbed-event kinds (first tuple element).  Every event carries its
#: virtual timestamp at index 1: flight fusion's inline chaining executes a
#: flight's successor stages ahead of other flights' earlier-time hops,
#: so the buffer is no longer append-ordered -- a stable sort on the
#: timestamp at render time restores the exact wire chronology (ties
#: keep append order, which matches the slow lane's seq order for the
#: only systematic ties: a flight's symmetric per-replica legs).
_EV_RAW = 0      # (kind, now, blob)                  -- pre-packed real frame
_EV_SCATTER = 1  # (kind, now, tmpl, ack_word, va, payload, payload_crc)
_EV_ACK = 2      # (kind, now, tmpl, psn_word, aeth_word)

#: Flush when this many events are buffered (bounds peak memory; has no
#: observable effect -- SHA-256 streams).
_FLUSH_LIMIT = 4096

#: Sort key: event timestamp (tuple slot 1 across all three layouts).
_ev_time = operator.itemgetter(1)


class _ScatterPlan:
    """Cached per-template rendering plan for scatter (WRITE) frames."""

    __slots__ = ("block", "block_arr", "payload_len", "width", "base",
                 "seed_tables", "patch_shift_tables", "suffix_len",
                 "np_tables")

    def __init__(self, tmpl):
        block = tmpl.block
        suffix = tmpl.suffix
        slen = len(suffix)
        self.block = block
        self.block_arr = None  # numpy row prototype, built lazily
        # Payload length is a template fingerprint constant: the suffix
        # embeds the UDP length, so every frame emitted through this
        # template carries the same payload size.
        self.suffix_len = slen
        self.payload_len = None  # fixed by the first absorbed frame
        self.width = None
        # Varying suffix fields are zero in the immutable template, so
        # crc32(suffix) is the affine base for every frame's ICRC.
        self.base = zlib.crc32(suffix)
        self.seed_tables = crc_seed_tables(slen)
        # (tables, shift) per rewritten suffix byte: 4 ack-word bytes at
        # _SUF_ACKPSN_OFF, 8 VA bytes at _SUF_EXT_OFF, big-endian.
        self.patch_shift_tables = (
            [(crc_patch_table(slen - 1 - (_SUF_ACKPSN_OFF + j)), 8 * (3 - j))
             for j in range(4)],
            [(crc_patch_table(slen - 1 - (_SUF_EXT_OFF + j)), 8 * (7 - j))
             for j in range(8)],
        )
        self.np_tables = None  # numpy copies of the tables, built lazily


class _AckPlan:
    """Cached per-template rendering plan for aggregated-ACK frames."""

    __slots__ = ("prefix", "prefix_arr", "width", "base", "tail_tables",
                 "np_tables")

    def __init__(self, tmpl):
        self.prefix = tmpl.prefix
        self.prefix_arr = None
        self.width = len(tmpl.prefix) + 8 + len(_ICRC_ZEROS) + _META_BYTES
        # The hashed message is just the 8-byte tail seeded with the
        # template's precomputed <pseudo | static BTH> CRC state; patch
        # deltas are seed-independent.
        self.base = zlib.crc32(bytes(8), tmpl.state) & 0xFFFFFFFF
        # (tables, shift) per tail byte: psn word then aeth word, BE.
        self.tail_tables = (
            [(crc_patch_table(7 - j), 8 * (3 - j)) for j in range(4)],
            [(crc_patch_table(3 - j), 8 * (3 - j)) for j in range(4)],
        )
        self.np_tables = None


class DigestTap:
    """Link tap + virtual-frame absorber producing the fidelity digest.

    Installed on every link by ``install_trace_digest``.  Real frames
    arrive through :meth:`__call__` (the plain tap protocol) and are
    packed eagerly; flight fusion's virtual frames arrive through
    :meth:`absorb_scatter` / :meth:`absorb_ack` as tuples.  One ordered
    event buffer preserves exact wire order across both, and
    :meth:`flush` renders it into a single contiguous ``update``.
    Duck-types the ``hashlib`` digest: callers only use ``hexdigest()``.
    """

    def __init__(self, sim, digest=None):
        self.sim = sim
        self.digest = digest if digest is not None else hashlib.sha256()
        self._events: List[Any] = []
        self._plans: dict = {}  # template object -> _ScatterPlan | _AckPlan
        #: While a batched drain is open the planner holds limit-triggered
        #: flushes: earlier-time absorbs may still be pending in the hop
        #: queue, and a flush boundary must never split an out-of-order
        #: window (SHA-256 streams, so only the order is at stake).
        self.hold = False

    # -- absorption ------------------------------------------------------------

    def __call__(self, src, packet) -> None:
        """Plain link-tap protocol: pack a real frame now (its headers may
        be rewritten in place right after transmission)."""
        icrc = packet.meta.get("icrc")
        now = self.sim._now
        self._events.append((
            _EV_RAW, now,
            packet.pack() + _S_META.pack(now, 0 if icrc is None else icrc)))
        if len(self._events) >= _FLUSH_LIMIT and not self.hold:
            self.flush()

    def absorb_scatter(self, tmpl, ack_word: int, va: int, payload: bytes,
                       payload_crc: int, now: float) -> None:
        """Buffer one virtual scattered-WRITE frame (template + varying
        words), byte-equivalent to tapping the ``scatter_rewrite`` output."""
        self._events.append((_EV_SCATTER, now, tmpl, ack_word, va, payload,
                             payload_crc))
        if len(self._events) >= _FLUSH_LIMIT and not self.hold:
            self.flush()

    def absorb_ack(self, tmpl, psn_word: int, aeth_word: int,
                   now: float) -> None:
        """Buffer one virtual replica ACK (template + the two tail words),
        byte-equivalent to tapping the ``ack_frame`` output."""
        self._events.append((_EV_ACK, now, tmpl, psn_word, aeth_word))
        if len(self._events) >= _FLUSH_LIMIT and not self.hold:
            self.flush()

    # -- rendering -------------------------------------------------------------

    def _plan(self, kind: int, tmpl):
        plan = self._plans.get(tmpl)
        if plan is None:
            plan = _ScatterPlan(tmpl) if kind == _EV_SCATTER else _AckPlan(tmpl)
            self._plans[tmpl] = plan
        return plan

    def flush(self) -> None:
        """Render the buffered events, in wire order, into one update."""
        events = self._events
        if not events:
            return
        self._events = []
        events.sort(key=_ev_time)
        self._emit(events)

    def flush_safe(self, safe_time: float) -> None:
        """Render only the events that are final-ordered: everything
        strictly before ``safe_time`` (the earliest instant any pending
        hop or kernel event could still absorb or tap a frame).  Called
        by the planner at batched-drain exit when the buffer is over the
        limit; the unsafe suffix stays buffered."""
        events = self._events
        if not events:
            return
        events.sort(key=_ev_time)
        split = bisect.bisect_left(events, safe_time, key=_ev_time)
        if not split:
            return
        self._events = events[split:]
        del events[split:]
        self._emit(events)

    def _emit(self, events) -> None:
        virtual = sum(1 for ev in events if ev[0] != _EV_RAW)
        if virtual:
            fastlane.columnar["frames_bulk_hashed"] += virtual
        fastlane.columnar["digest_flushes"] += 1
        if registers.NUMPY and virtual:
            self.digest.update(self._render_numpy(events))
        else:
            self.digest.update(self._render_scalar(events))

    def _render_scalar(self, events) -> bytes:
        """Reference renderer: per-frame patches + direct ``zlib.crc32``."""
        pack_meta = _S_META.pack
        parts = []
        append = parts.append
        for ev in events:
            kind = ev[0]
            if kind == _EV_RAW:
                append(ev[2])
            elif kind == _EV_SCATTER:
                _, now, tmpl, ack_word, va, payload, payload_crc = ev
                block = bytearray(tmpl.block)
                suffix = bytearray(tmpl.suffix)
                _U32.pack_into(block, _ACKPSN_OFF, ack_word)
                _U32.pack_into(suffix, _SUF_ACKPSN_OFF, ack_word)
                _U64.pack_into(block, _VA_OFF, va)
                _U64.pack_into(suffix, _SUF_EXT_OFF, va)
                icrc = zlib.crc32(bytes(suffix), payload_crc) & 0xFFFFFFFF
                append(bytes(block))
                append(payload)
                append(_ICRC_ZEROS)
                append(pack_meta(now, icrc))
            else:
                _, now, tmpl, psn_word, aeth_word = ev
                tail = _S_ACK_TAIL.pack(psn_word, aeth_word)
                icrc = zlib.crc32(tail, tmpl.state) & 0xFFFFFFFF
                append(tmpl.prefix)
                append(tail)
                append(_ICRC_ZEROS)
                append(pack_meta(now, icrc))
        return b"".join(parts)

    def _render_numpy(self, events) -> memoryview:
        """Vectorized renderer: one 2-D render + affine ICRCs per template
        group, rows scattered into the batch buffer at their wire offsets."""
        np = registers._np
        # Pass 1: assign each event its offset in the output buffer and
        # group the virtual frames by (kind, template).
        groups: dict = {}  # plan -> (kind, [offsets], [events])
        raw: List[Any] = []  # (offset, blob)
        offset = 0
        for ev in events:
            kind = ev[0]
            if kind == _EV_RAW:
                blob = ev[2]
                raw.append((offset, blob))
                offset += len(blob)
                continue
            plan = self._plan(kind, ev[2])
            if kind == _EV_SCATTER and plan.width is None:
                plan.payload_len = len(ev[5])
                plan.width = (len(plan.block) + plan.payload_len
                              + len(_ICRC_ZEROS) + _META_BYTES)
            entry = groups.get(plan)
            if entry is None:
                entry = groups[plan] = (kind, [], [])
            entry[1].append(offset)
            entry[2].append(ev)
            offset += plan.width
        out = np.empty(offset, dtype=np.uint8)
        for plan, (kind, offs, evs) in groups.items():
            n = len(evs)
            rows = (self._scatter_rows(np, plan, evs, n) if kind == _EV_SCATTER
                    else self._ack_rows(np, plan, evs, n))
            idx = (np.asarray(offs, dtype=np.int64)[:, None]
                   + np.arange(plan.width, dtype=np.int64)[None, :])
            out[idx.ravel()] = rows.ravel()
        buf = memoryview(out.data).cast("B")
        for off, blob in raw:
            buf[off:off + len(blob)] = blob
        return buf

    def _scatter_rows(self, np, plan, evs, n):
        blen = len(plan.block)
        plen = plan.payload_len
        proto = plan.block_arr
        if proto is None:
            proto = plan.block_arr = np.frombuffer(plan.block, dtype=np.uint8)
        rows = np.empty((n, plan.width), dtype=np.uint8)
        rows[:, :blen] = proto
        rows[:, blen:blen + plen] = np.frombuffer(
            b"".join(ev[5] for ev in evs), dtype=np.uint8).reshape(n, plen)
        rows[:, blen + plen:blen + plen + 4] = 0
        ack_words = np.fromiter((ev[3] for ev in evs), dtype=np.uint32,
                                count=n)
        vas = np.fromiter((ev[4] for ev in evs), dtype=np.uint64, count=n)
        rows[:, _ACKPSN_OFF:_ACKPSN_OFF + 4] = \
            ack_words.astype(">u4").view(np.uint8).reshape(n, 4)
        rows[:, _VA_OFF:_VA_OFF + 8] = \
            vas.astype(">u8").view(np.uint8).reshape(n, 8)
        # Affine ICRC: template base ^ payload-CRC seed transfer ^ patch
        # deltas of the two rewritten fields -- pure table lookups.
        tabs = plan.np_tables
        if tabs is None:
            ack_tables, va_tables = plan.patch_shift_tables
            tabs = plan.np_tables = (
                [np.asarray(t, dtype=np.uint32) for t in plan.seed_tables],
                [(np.asarray(t, dtype=np.uint32), np.uint32(s))
                 for t, s in ack_tables],
                [(np.asarray(t, dtype=np.uint32), np.uint64(s))
                 for t, s in va_tables],
            )
        seeds = np.fromiter((ev[6] for ev in evs), dtype=np.uint32, count=n)
        icrc = np.full(n, plan.base, dtype=np.uint32)
        for j, table in enumerate(tabs[0]):
            icrc ^= table[(seeds >> np.uint32(8 * j)) & np.uint32(0xFF)]
        for table, shift in tabs[1]:
            icrc ^= table[(ack_words >> shift) & np.uint32(0xFF)]
        for table, shift in tabs[2]:
            icrc ^= table[(vas >> shift).astype(np.uint32) & np.uint32(0xFF)]
        meta = blen + plen + 4
        nows = np.fromiter((ev[1] for ev in evs), dtype=np.float64, count=n)
        rows[:, meta:meta + 8] = nows.astype(">f8").view(np.uint8).reshape(n, 8)
        rows[:, meta + 8:meta + 12] = \
            icrc.astype(">u4").view(np.uint8).reshape(n, 4)
        return rows

    def _ack_rows(self, np, plan, evs, n):
        prefix = plan.prefix
        plen = len(prefix)
        proto = plan.prefix_arr
        if proto is None:
            proto = plan.prefix_arr = np.frombuffer(prefix, dtype=np.uint8)
        rows = np.empty((n, plan.width), dtype=np.uint8)
        rows[:, :plen] = proto
        psn_words = np.fromiter((ev[3] for ev in evs), dtype=np.uint32,
                                count=n)
        aeth_words = np.fromiter((ev[4] for ev in evs), dtype=np.uint32,
                                 count=n)
        rows[:, plen:plen + 4] = \
            psn_words.astype(">u4").view(np.uint8).reshape(n, 4)
        rows[:, plen + 4:plen + 8] = \
            aeth_words.astype(">u4").view(np.uint8).reshape(n, 4)
        rows[:, plen + 8:plen + 12] = 0
        tabs = plan.np_tables
        if tabs is None:
            psn_tables, aeth_tables = plan.tail_tables
            tabs = plan.np_tables = tuple(
                [(np.asarray(t, dtype=np.uint32), np.uint32(s))
                 for t, s in half]
                for half in (psn_tables, aeth_tables))
        icrc = np.full(n, plan.base, dtype=np.uint32)
        for table, shift in tabs[0]:
            icrc ^= table[(psn_words >> shift) & np.uint32(0xFF)]
        for table, shift in tabs[1]:
            icrc ^= table[(aeth_words >> shift) & np.uint32(0xFF)]
        meta = plen + 12
        nows = np.fromiter((ev[1] for ev in evs), dtype=np.float64, count=n)
        rows[:, meta:meta + 8] = nows.astype(">f8").view(np.uint8).reshape(n, 8)
        rows[:, meta + 8:meta + 12] = \
            icrc.astype(">u4").view(np.uint8).reshape(n, 4)
        return rows

    # -- digest protocol -------------------------------------------------------

    def hexdigest(self) -> str:
        """Flush pending frames and return the stream digest so far."""
        self.flush()
        return self.digest.hexdigest()
