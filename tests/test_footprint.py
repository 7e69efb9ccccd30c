"""Nothing is paid for until it is used: registered memory is resident
only where it was touched, numpy is imported only by a batch sample, and
a completed fused flight leaves nothing for the cycle collector.  And
nothing is kept twice: a committed value is one record, shared by every
member that applied it."""

from __future__ import annotations

import gc

from repro import fastlane
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000

_CONSENSUS_CHILD = """
import json, resource, sys
import repro.workloads.experiments as experiments

def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

before = peak_mib()
cluster = experiments.build_cluster("p4ce", 4)
grown = peak_mib() - before
cluster.await_ready()
committed = []
for i in range(100):
    cluster.propose(i.to_bytes(8, "big") * 8, committed.append)
cluster.run_for(2_000_000)
print(json.dumps({"grown_mib": grown, "committed": len(committed),
                  "numpy_loaded": "numpy" in sys.modules}))
"""


def test_consensus_path_loads_no_numpy_and_registers_lazily(run_child):
    """Five 16 MiB logs are registered by ``build_cluster``; none of
    their pages is resident until written."""
    child = run_child(_CONSENSUS_CHILD)
    assert child["committed"] == 100
    assert not child["numpy_loaded"]
    assert child["grown_mib"] < 8


def _saturated_window(lanes_on: bool) -> dict:
    """A 0.5 ms window of the 64 B closed loop at 128 in flight (n=4),
    cycle collector off, as ``bench/run.py`` measures."""
    fastlane.flags.set_all(lanes_on)
    cluster = build_cluster("p4ce", 4, value_size=64, seed=7)
    digest = install_trace_digest(cluster)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, 64, window=128)
    driver.start()
    cluster.run_for(0.1 * MS)
    gc.collect()
    gc.disable()
    try:
        cluster.run_for(0.5 * MS)
        garbage = gc.collect()
    finally:
        gc.enable()
    driver.stop()
    return {"garbage": garbage, "commits": driver.commits,
            "digest": digest.hexdigest(),
            "fused": cluster.flight_planner.stats()["flights_fused"]}


def test_fused_flights_leave_no_cyclic_garbage():
    try:
        fused = _saturated_window(True)
        reference = _saturated_window(False)
    finally:
        fastlane.enable()
    assert fused["fused"] > 1000 and reference["fused"] == 0
    assert fused["garbage"] == 0
    assert (fused["digest"], fused["commits"]) \
        == (reference["digest"], reference["commits"])


def test_every_member_applies_the_same_record_object():
    """4 KiB closed loop, 16 in flight, 0.5 ms, n=4: sharing cannot be
    seen through ``applied`` except by identity."""
    cluster = build_cluster("p4ce", 4, value_size=4096, seed=7)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, 4096, window=16)
    driver.start()
    cluster.run_for(0.5 * MS)
    driver.stop()
    cluster.run_for(0.1 * MS)
    applied = [member.applied for member in cluster.members.values()]
    assert len(applied) == 5 and driver.commits > 1000
    assert {len(records) for records in applied} == {driver.commits}
    for records in zip(*applied):
        first = records[0]
        assert all(record is first for record in records)
        assert cluster.applied_records[first] is first
        assert type(first) is tuple and type(first[2]) is bytes \
            and len(first[2]) == 4096


_GOODPUT_CHILD = """
import json, resource
import repro.workloads.experiments as experiments

def peak_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

# A 1 MiB log wraps every 255 entries, so the warm-up touches every page
# of all five and the window's growth is heap alone.
cluster = experiments.build_cluster("p4ce", 4, value_size=4096, seed=7,
                                    log_bytes=1 << 20)
cluster.await_ready()
driver = experiments.ClosedLoopDriver(cluster, 4096, window=16)
driver.start()
cluster.run_for(200_000)
before, commits = peak_bytes(), driver.commits
cluster.run_for(500_000)
print(json.dumps({"grown": peak_bytes() - before,
                  "commits": driver.commits - commits}))
"""


def test_a_committed_value_is_resident_once(run_child):
    """Peak RSS grows by about one payload per commit, not one per
    member (the parent: 4-5 payloads per commit)."""
    child = run_child(_GOODPUT_CHILD)
    assert child["commits"] > 1000
    assert child["grown"] < 2 * 4096 * child["commits"]
