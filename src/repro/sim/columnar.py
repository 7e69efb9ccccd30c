"""Wire-digest tap, including flight fusion's virtual frames.

The fidelity digest (:func:`repro.workloads.experiments.install_trace_digest`)
hashes every frame every link accepts, in order, as ``frame bytes +
pack("!dI", now, icrc)``.  The real handlers feed it one real
``Packet`` at a time through the plain tap protocol.  The virtual
express stages never build those packets, so they hand the tap the
frame's template and its two or three varying words instead, and the
tap renders the frame through the patch its real twin is built with
(:func:`~repro.rdma.wiretemplate.scatter_patch` seeded with the payload
CRC the launch already computed, or
:func:`~repro.rdma.wiretemplate.ack_patch`): one definition of a fused
frame's bytes and ICRC.  A virtual read response crosses two cables, so
its stage renders it once through
:func:`~repro.rdma.wiretemplate.read_response_patch` and the tap hashes
the rendered block (:meth:`DigestTap.absorb_frame`).

Every frame is hashed inside its own tap call and nothing is kept
between calls.  The planner runs every fused hop at its ``(time, seq)``
turn, so tap-call order is wire order; and a frame whose headers are
rewritten in place right after transmission has already been hashed.
"""

from __future__ import annotations

import hashlib
import struct

from .. import fastlane
from ..rdma.wiretemplate import _ICRC_ZEROS, ack_patch, scatter_patch

#: Per-frame digest trailer: ``pack("!dI", sim.now, icrc)``.
_S_META = struct.Struct("!dI")


class DigestTap:
    """Link tap + virtual-frame absorber producing the fidelity digest.

    Installed on every link by ``install_trace_digest``.  Real frames
    arrive through :meth:`__call__` (the plain tap protocol), flight
    fusion's virtual frames through :meth:`absorb_scatter` /
    :meth:`absorb_ack`.  Duck-types the ``hashlib`` digest: callers only
    use ``hexdigest()``.
    """

    def __init__(self, sim, digest=None):
        self.sim = sim
        self.digest = digest if digest is not None else hashlib.sha256()

    def __call__(self, src, packet) -> None:
        """Plain link-tap protocol: hash one real frame."""
        self.digest.update(packet.pack() + _S_META.pack(
            self.sim._now, packet.meta.get("icrc") or 0))

    def absorb_scatter(self, tmpl, ack_word: int, va, payload: bytes,
                       payload_crc: int) -> None:
        """Hash one virtual scattered-WRITE frame (template + varying
        words; ``va`` is None for a frame without a RETH), byte-equal to
        tapping the ``scatter_rewrite`` output."""
        block, icrc = scatter_patch(tmpl, ack_word, va, payload_crc)
        fastlane.columnar["frames_bulk_hashed"] += 1
        self.digest.update(b"".join((block, payload, _ICRC_ZEROS,
                                     _S_META.pack(self.sim._now, icrc))))

    def absorb_ack(self, tmpl, psn: int, syndrome: int, msn: int) -> None:
        """Hash one virtual replica ACK (template + the varying fields),
        byte-equal to tapping the ``ack_frame`` output."""
        tail, icrc = ack_patch(tmpl, psn, syndrome, msn)
        fastlane.columnar["frames_bulk_hashed"] += 1
        self.digest.update(b"".join((tmpl.prefix, tail, _ICRC_ZEROS,
                                     _S_META.pack(self.sim._now, icrc))))

    def absorb_frame(self, block: bytes, payload: bytes, icrc: int) -> None:
        """Hash one virtual frame its stage has already rendered (a read
        response: header block from ``read_response_patch``, MACs
        rewritten at the switch), byte-equal to tapping the packet."""
        fastlane.columnar["frames_bulk_hashed"] += 1
        self.digest.update(b"".join((block, payload, _ICRC_ZEROS,
                                     _S_META.pack(self.sim._now, icrc))))

    def flush(self) -> None:
        """Frozen name, a no-op: nothing is pending between tap calls.
        ``bench/trace.py`` resolves it in the class ``__dict__``; goes
        when ``BOUNDARIES`` drops it."""

    def flush_safe(self, safe_time: float) -> None:
        """Frozen name, a no-op, as :meth:`flush`."""

    def hexdigest(self) -> str:
        return self.digest.hexdigest()
