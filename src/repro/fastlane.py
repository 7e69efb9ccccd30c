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
    PMTU segment of it -- on a healthy broadcast path) run as express
    stages instead of the real per-hop handlers (:mod:`repro.sim.flight`).
    Each hop is still one kernel event, at the ``(time, seq)`` its real
    event would have had: an express stage is a fire-and-forget heap
    entry that carries the real event it stands for.  The interior
    per-leg frames of a flight -- the scattered replica writes and their
    ACKs -- are never materialized as ``Packet`` objects: each express
    stage calls the effect methods its real handler calls (one
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
    back to the real handler at its own turn.
    One rule invalidates it, the path epoch: a fault on a traversed
    device, a control-plane write to a table/register/multicast group a
    path reads, or a tap on a traversed link bumps it, rewrites pending
    hops in place into the ordinary events they stand for and makes
    every path re-validate at its next launch, so fusion stays off only
    while a traversed device is impaired.  Off: every hop runs through
    the real handlers.

Copy-on-write packet copies (:mod:`repro.net.packet`), the direct
replicated-log decode (:meth:`repro.consensus.log.Log.peek`) and the
running-form ICRC (:mod:`repro.rdma.icrc`) were lanes once; their
off-halves ran the same algorithm with a different copy strategy or a
different grouping of the same CRC, so nothing observable could differ
and they now run unconditionally (``docs/PERF.md``, "Retired flags").

All lanes default to on.  ``REPRO_FASTLANE=off`` (or ``0``/``false``)
disables all of them for a process; ``enable()`` / ``disable()`` flip them
at runtime (takes effect for packets processed afterwards -- benchmarks
construct a fresh cluster per lane setting anyway).  The event kernel has
no lane: every setting runs the same :class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

import os

#: The three lane flags.
_LANES = ("flow_cache", "rewrite_templates", "flight_fusion")


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
#: digest taps: ``frames_bulk_hashed`` counts virtual frames the digest
#: tap hashed from their templates.  ``hops_batched`` and
#: ``digest_flushes`` are frozen zeros that ``bench/run.py`` reads by
#: name (hops run one kernel event at a time, and the tap hashes each
#: frame at its tap call: there are no batches and no buffers;
#: ``FlightPlanner.stats()`` counts express stages and virtual frames
#: materialized).  Benchmarks call :func:`reset_columnar` before a run so
#: the numbers they embed are per-run.
columnar = {
    "hops_batched": 0,
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
