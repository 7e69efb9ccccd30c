"""Fast-lane switches for the per-packet hot path.

The simulator's behaviour (every byte, every timestamp, every metric) is
identical with the fast lanes on or off; the flags exist so that the
tests, ``tools/sweeps.py`` and ``bench/run.py`` can *prove* it by running
the same workload both ways and comparing ``events_executed`` and the
packet-trace digest.

A flag exists only where its off-half is a *different algorithm* for
something observable, so that the all-off run is a reference the fast
path is judged against.  The lanes (the ``_LANES`` tuple below is the
list), mirroring the optimisations described in ``docs/PERF.md``:

``incremental_icrc``
    :func:`repro.rdma.icrc.compute_icrc` caches the CRC over the invariant
    payload and recombines it with the small rewritten header prefix using
    ``zlib.crc32``'s running form, plus a whole-result cache validated by
    header version counters.  Off: every call hashes the full canonical
    string.

``flow_cache``
    The switch programs memoize their ingress match-action verdict keyed
    on the parsed flow tuple, invalidated by every control-plane table
    write (:class:`repro.switch.tables.FlowVerdictCache`).  Off: every packet
    walks the tables.

``rewrite_templates``
    The switch egress scatter rewrite, the gather forward rewrite and the
    NIC transmit framer emit packets by patching pre-rendered wire-image
    templates (:mod:`repro.rdma.wiretemplate`) -- a ``bytearray`` copy
    plus two or three ``struct.pack_into`` patches per leg -- instead of
    thawing and rewriting header objects, re-running ``finalize`` and
    re-serializing the whole stack.  Templates are re-rendered when the
    control-plane tables change (flow epoch) or the flow's constant
    fields drift.  Off: header objects are rewritten and re-serialized.

``flight_fusion``
    Clean-path consensus flights (a write message of any size -- every
    PMTU segment of it -- on a healthy broadcast path) are computed hop
    by hop in a planner-owned timeline
    instead of costing one kernel event per hop (:mod:`repro.sim.flight`).
    The kernel polls the hop queue directly and the planner drains it in
    batched **runs** -- consecutive due hops execute back to back, in
    exact ``(time, seq)`` order, against one precomputed real-event
    barrier.  The interior per-leg frames of a flight -- the scattered
    replica writes and their ACKs -- are never materialized as ``Packet``
    objects: each virtual express stage runs at its hop's ``(time, seq)``
    turn and calls the effect methods its real handler calls (one
    definition per hop: the link's serialization claim, the parser and
    NIC pipeline claims, the responder's write, the verdict-cache replay,
    the gather tally), so every register cell, counter and busy horizon
    is current at any instant a callback can run; the wire-digest tap
    renders each batch of virtual frames with the real frames' template
    patches and feeds SHA-256 one contiguous buffer in exact frame order
    (:mod:`repro.sim.columnar`).  Only the forwarded ACK and the
    terminal leader-completion hop are real.  There is one express
    chain: a launch the planner cannot prove clean is declined to the
    real handlers, and a stage that cannot prove its hop clean falls
    back to the real handler at the warped clock.
    Faults, control-plane writes, NAKs and retransmissions materialize
    pending hops back into ordinary events and disable fusion until
    recovery.  Off: every hop is a kernel event through the real handlers.

Copy-on-write packet copies (:mod:`repro.net.packet`) and the direct
replicated-log decode (:meth:`repro.consensus.log.Log.peek`) were lanes
once; their off-halves ran the same algorithm with a different copy
strategy, so nothing observable could differ and they now run
unconditionally (``docs/PERF.md``, "Retired flags").

All lanes default to on.  ``REPRO_FASTLANE=off`` (or ``0``/``false``)
disables all of them for a process; ``enable()`` / ``disable()`` flip them
at runtime (takes effect for packets processed afterwards -- benchmarks
construct a fresh cluster per lane setting anyway).  The event kernel has
no lane: every setting runs the same :class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

import os

#: The four lane flags.
_LANES = ("incremental_icrc", "flow_cache", "rewrite_templates",
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
#: themselves, ``columnar_fallbacks`` virtual frames materialized back
#: into packets (defusion or unclean probes) -- those three are settled
#: by the planner at the end of each drain -- ``frames_bulk_hashed``
#: frames absorbed through the batched digest tap, and ``digest_flushes``
#: the contiguous buffers handed to SHA-256.  Benchmarks call
#: :func:`reset_columnar` before a run so the numbers they embed are
#: per-run.
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
    """Turn every fast lane off (the reference path)."""
    flags.set_all(False)


def stats() -> dict:
    """Runtime lane report: flag states plus the columnar telemetry.
    Benchmarks embed this dict in their results."""
    return {
        "lanes": flags.as_dict(),
        "columnar": dict(columnar),
    }
