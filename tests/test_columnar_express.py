"""Flight fusion's columnar express chain: fidelity, property-based.

Hypothesis draws random run shapes -- closed-loop window depth, doorbell
batching on/off, and an optional mid-run link fault at a random time
with a random outage -- and each drawn scenario runs twice:

* **fused** -- the full fast stack, flight fusion batching clean runs
  into column operations and bulk-hashing the wire digest;
* **slow** -- all lanes off, every hop a kernel event through the real
  handlers: the reference.

Both must agree on every observable: the SHA-256 wire-trace digest
(bytes + ICRC + timestamp of every frame on every link), the commit and
executed-event counts, the final register slabs (NumRecv and the credit
registers, cell for cell), and the *counter timeline*.  The timeline is
sampled at every ``run_for`` barrier and -- because commit and apply
callbacks are where SMR code runs -- from every member's ``on_apply``
*inside* the run: the clock, the switch counter slab, every link's frame
and byte totals in both directions, every NIC's packet counters, the
program's scatter/gather counters, the match-action tables' hit/miss
pairs and the register slabs.  An express stage that ran ahead of its
turn, or wrote anywhere but where its real handler writes, is caught at
the first sample that differs, not just at the end.  (The verdict
caches' own ``hits`` are lane state -- zero with ``flow_cache`` off --
so their fused-vs-unfused timeline lives in ``tests/test_flight_fusion``.)
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastlane
from repro.faults.injector import FaultSchedule
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000

#: run_for slice length: short enough that several barriers land inside
#: the run, long enough to keep the matrix fast.
_SLICE_NS = 0.1 * MS
_SLICES = 4


def _register_slabs(cluster):
    """A copy of every stateful-register cell."""
    program = cluster.switch.program
    return [list(reg._cells) for reg in (program.numrecv, *program.credits)]


def _observe(cluster):
    """Everything a callback can read about the data path, right now.
    The register slabs go in as hashes: thousands of samples are kept."""
    switch = cluster.switch
    program = switch.program
    links = [port.link for port in switch.ports if port.link is not None]
    nics = [host.nic for host in cluster.hosts]
    tables = (switch.l3_table, program.bcast_table, program.aggr_table,
              program.egress_conn_table)
    return (
        cluster.sim.now,
        switch.counter_totals(),
        [(s.frames, s.bytes) for link in links
         for s in (link.stats_from(link.a), link.stats_from(link.b))],
        [(n.packets_sent, n.packets_received, n.acks_sent) for n in nics],
        (program.scattered, program.gathered_acks, program.forwarded_acks,
         program.dropped_acks),
        [(t.hits, t.misses) for t in tables],
        [hash(tuple(cells)) for cells in _register_slabs(cluster)],
    )


def _run(lane: str, *, batching: bool, window: int, fault_at_ns,
         fault_outage_ns) -> dict:
    """One seeded run of the drawn scenario under one lane setting."""
    fastlane.flags.set_all(lane == "fused")
    fastlane.reset_columnar()
    try:
        cluster = build_cluster("p4ce", 2, value_size=64, seed=7,
                                batching=batching)
        # The DigestTap (not a bare hash closure): fusion only engages
        # when every tap on the path can absorb virtual frames; a
        # foreign tap demands real frames and the path is declined.
        digest = install_trace_digest(cluster)
        leader = cluster.await_ready()
        timeline = []

        def on_apply(member, epoch, payload):
            timeline.append(_observe(cluster))

        for member in cluster.members.values():
            member.on_apply = on_apply
        driver = ClosedLoopDriver(cluster, 64, window=window)
        driver.start()
        if fault_at_ns is not None:
            schedule = FaultSchedule(cluster)
            schedule.at_ns(fault_at_ns).partition_host(leader.node_id, False)
            schedule.at_ns(fault_at_ns + fault_outage_ns).heal_host(
                leader.node_id)
            schedule.arm()
        for _ in range(_SLICES):
            cluster.run_for(_SLICE_NS)
            timeline.append(_observe(cluster))
        driver.stop()
        return {
            "digest": digest.hexdigest(),
            "commits": driver.commits,
            "events": cluster.sim.events_executed,
            "timeline": timeline,
            "slabs": _register_slabs(cluster),
            "hops_batched": fastlane.columnar["hops_batched"],
        }
    finally:
        fastlane.enable()


_scenarios = st.fixed_dictionaries({
    "batching": st.booleans(),
    "window": st.sampled_from((1, 4, 32, 128)),
    # None -> a clean run; otherwise cut the leader's primary cable at a
    # random time and heal it after a random outage, so defusion, the
    # slow-path recovery, and re-engagement land at arbitrary points of
    # the fused window (including mid-drain fallbacks).
    "fault": st.one_of(
        st.none(),
        st.tuples(st.integers(50_000, 250_000),
                  st.integers(20_000, 120_000))),
})


@settings(max_examples=6, deadline=None)
@given(scenario=_scenarios)
def test_fused_matches_reference(scenario):
    fault = scenario["fault"]
    kwargs = dict(batching=scenario["batching"],
                  window=scenario["window"],
                  fault_at_ns=None if fault is None else fault[0],
                  fault_outage_ns=None if fault is None else fault[1])
    fused = _run("fused", **kwargs)
    slow = _run("slow", **kwargs)
    for key in ("digest", "commits", "events", "slabs"):
        assert fused[key] == slow[key], key
    assert len(fused["timeline"]) == len(slow["timeline"])
    for n, (a, b) in enumerate(zip(fused["timeline"], slow["timeline"])):
        assert a == b, f"timeline sample {n} of {len(slow['timeline'])}"
    if fault is None and scenario["window"] >= 32:
        # A deep clean run must actually exercise the columnar kernels,
        # or the equalities above prove nothing about them (shallow
        # windows may never pipeline enough flights for the drain to
        # form a batchable run).
        assert fused["hops_batched"] > 0
        assert slow["hops_batched"] == 0
