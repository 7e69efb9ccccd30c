"""Fast-lane switches for the per-packet hot path.

The simulator's behaviour (every byte, every timestamp, every metric) is
identical with the fast lanes on or off; the flags exist so that
``tools/bench_sim.py`` can *prove* it by running the same workload both
ways and comparing ``events_executed`` and the packet-trace digest.

The lanes (the ``_LANES`` tuple below is the list), mirroring the
optimisations described in ``docs/PERF.md``:

``cow_packets``
    :meth:`repro.net.packet.Packet.copy` shares frozen headers instead of
    eagerly deep-copying the stack (thaw-on-write).

``incremental_icrc``
    :func:`repro.rdma.icrc.compute_icrc` caches the CRC over the invariant
    payload and recombines it with the small rewritten header prefix using
    ``zlib.crc32``'s running form, plus a whole-result cache validated by
    header version counters.

``flow_cache``
    The switch programs memoize their ingress match-action verdict keyed
    on the parsed flow tuple, invalidated by control-plane table versions
    (:class:`repro.switch.tables.FlowVerdictCache`).

``rewrite_templates``
    The switch egress scatter rewrite, the gather forward rewrite and the
    NIC transmit framer emit packets by patching pre-rendered wire-image
    templates (:mod:`repro.rdma.wiretemplate`) -- a ``bytearray`` copy
    plus two or three ``struct.pack_into`` patches per leg -- instead of
    thawing and rewriting header objects, re-running ``finalize`` and
    re-serializing the whole stack.  Templates are re-rendered when the
    control-plane tables change (flow epoch) or the flow's constant
    fields drift.

``object_pools``
    ``Packet`` shells for switch fan-out copies are recycled through a
    bounded freelist instead of being allocated per leg.

``hot_reads``
    The replicated-log reader (:meth:`repro.consensus.log.Log.peek` and
    the wrap-marker probe) decodes entries straight out of the region's
    backing ``bytearray`` with ``unpack_from`` instead of going through
    :meth:`repro.rdma.memory.MemoryRegion.read` (which bounds-checks and
    copies a ``bytes`` slice per call).  The reads are in-bounds by
    construction -- the cursor arithmetic already guarantees it -- and
    decode the same bytes, so consumed entries are bit-identical.

``flight_fusion``
    Clean-path consensus flights (single-packet write on a healthy
    broadcast path) are computed hop by hop in a planner-owned timeline
    instead of costing one kernel event per hop (:mod:`repro.sim.flight`).
    The kernel polls the hop queue directly and the planner drains it in
    batched **runs** -- consecutive due hops execute back to back, in
    exact ``(time, seq)`` order, against one precomputed real-event
    barrier.  The interior per-leg frames of a flight -- the scattered
    replica writes and their ACKs -- are never materialized as ``Packet``
    objects: virtual express stages advance the same timeline (identical
    timestamps, sequence numbers, busy horizons) while staging register
    deltas, port-counter increments and cache bumps in per-path columns
    that flush as slab operations, and the wire-digest tap renders each
    batch of virtual frames from pre-rendered templates and feeds
    SHA-256 one contiguous buffer in exact frame order
    (:mod:`repro.sim.columnar`).  Only the forwarded ACK and the terminal
    leader-completion hop are real.  There is one express chain: a
    launch the planner cannot prove clean is declined to the real
    handlers, and a stage that cannot prove its hop clean falls back to
    the real handler at the warped clock.  Faults, control-plane writes,
    NAKs and retransmissions materialize pending hops back into ordinary
    events and disable fusion until recovery.  The switch registers the
    express stages touch (NumRecv PSN slabs, per-replica credit windows)
    are backed by numpy arrays when numpy is importable, with a
    pure-python scalar fallback otherwise
    (:mod:`repro.switch.registers`).

All lanes default to on.  ``REPRO_FASTLANE=off`` (or ``0``/``false``)
disables all of them for a process; ``enable()`` / ``disable()`` flip them
at runtime (takes effect for packets processed afterwards -- benchmarks
construct a fresh cluster per lane setting anyway).  The event kernel has
no lane: every setting runs the same :class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

import os

#: The seven lane flags.
_LANES = ("cow_packets", "incremental_icrc", "flow_cache",
          "rewrite_templates", "object_pools", "hot_reads",
          "flight_fusion")


class _Flags:
    __slots__ = _LANES

    def __init__(self) -> None:
        on = os.environ.get("REPRO_FASTLANE", "on").strip().lower() not in (
            "off", "0", "false", "no")
        self.set_all(on)

    def set_all(self, on: bool) -> None:
        for lane in _LANES:
            setattr(self, lane, on)

    def as_dict(self) -> dict:
        return {lane: getattr(self, lane) for lane in _LANES}


#: Process-wide fast-lane switches.  Import the module and read
#: ``fastlane.flags.<lane>`` (not ``from ... import flags``-then-rebind).
flags = _Flags()


#: Process-wide columnar telemetry of flight fusion, aggregated across
#: planners and digest taps.  ``runs_vectorized`` counts drains that
#: executed at least one virtual hop, ``hops_batched`` the virtual hops
#: themselves,
#: ``columnar_fallbacks`` virtual frames materialized back into packets
#: (defusion or unclean probes), ``frames_bulk_hashed`` frames absorbed
#: through the batched digest tap, and ``digest_flushes`` the contiguous
#: buffers handed to SHA-256.  Benchmarks call :func:`reset_columnar`
#: before a run so the numbers they embed are per-run.
columnar = {
    "runs_vectorized": 0,
    "hops_batched": 0,
    "columnar_fallbacks": 0,
    "frames_bulk_hashed": 0,
    "digest_flushes": 0,
}


def reset_columnar() -> None:
    """Zero the process-wide columnar telemetry counters."""
    for key in columnar:
        columnar[key] = 0


def enable() -> None:
    """Turn every fast lane on."""
    flags.set_all(True)


def disable() -> None:
    """Turn every fast lane off (seed-equivalent slow path)."""
    flags.set_all(False)


def stats() -> dict:
    """Runtime lane report: flag states plus vectorized-backend status.

    ``numpy_available`` says whether the array backend could be used at
    all (numpy importable and not vetoed by ``REPRO_NO_NUMPY``);
    ``vectorized`` says whether registers would actually run on it for
    clusters built right now.  Benchmarks embed this dict in their
    results so a digest produced by the scalar fallback is
    distinguishable from one produced by the array path.
    """
    from .switch import registers

    return {
        "lanes": flags.as_dict(),
        "numpy_available": registers.NUMPY,
        "vectorized": bool(registers.NUMPY and flags.flight_fusion),
        "columnar": dict(columnar),
    }
