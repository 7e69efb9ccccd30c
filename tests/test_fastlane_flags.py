"""Every remaining fast-lane flag is a reference comparison.

* each flag off *alone* leaves the whole observable run -- wire digest,
  executed events, commits -- equal to the all-on and all-off runs (the
  other suites only compare all-on against all-off, or isolate
  ``flight_fusion``);
* register values reach the wire and the requester as plain ``int``;
* ``fastlane._LANES`` and the flags the source actually reads agree.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro import fastlane
from repro.rdma.nic import RNic
from repro.switch.registers import RegisterAction
from repro.workloads.experiments import (
    ClosedLoopDriver, build_cluster, install_trace_digest)

MS = 1_000_000


@pytest.fixture(autouse=True)
def _lanes_on():
    yield
    fastlane.enable()


def _run(off=(), value_size: int = 64) -> dict:
    """One seeded 0.3 ms P4CE n=2 closed-loop run with the lanes named in
    ``off`` switched off and every other lane on."""
    fastlane.enable()
    for lane in off:
        setattr(fastlane.flags, lane, False)
    cluster = build_cluster("p4ce", 2, value_size=value_size, seed=7)
    digest = install_trace_digest(cluster)
    cluster.await_ready()
    driver = ClosedLoopDriver(cluster, value_size, window=16)
    driver.start()
    cluster.run_for(0.3 * MS)
    driver.stop()
    return {
        "digest": digest.hexdigest(),
        "events": cluster.sim.events_executed,
        "commits": driver.commits,
        "flights_fused": cluster.flight_planner.stats()["flights_fused"],
    }


def _observable(run: dict) -> tuple:
    return run["digest"], run["events"], run["commits"]


@pytest.fixture(scope="module")
def all_on():
    return _run()


def test_all_on_fuses_and_matches_all_off(all_on):
    all_off = _run(off=fastlane._LANES)
    assert all_on["flights_fused"] > 0
    assert all_off["flights_fused"] == 0
    assert _observable(all_off) == _observable(all_on)


@pytest.mark.parametrize("lane", fastlane._LANES)
def test_single_flag_off_matches_reference(lane, all_on):
    run = _run(off=(lane,))
    assert _observable(run) == _observable(all_on)
    # try_fuse's dependency rule: the express stages replay template
    # patches and cached verdicts, so fusion needs both lanes (and itself).
    assert (run["flights_fused"] > 0) == (lane == "incremental_icrc")


def test_register_values_stay_plain_ints(monkeypatch):
    syndromes, outputs = [], []
    requester_ack = RNic._requester_ack
    execute = RegisterAction.execute

    def spy_ack(self, qp, bth, aeth):
        syndromes.append(type(aeth.syndrome))
        return requester_ack(self, qp, bth, aeth)

    def spy_execute(self, index, argument=None):
        output = execute(self, index, argument)
        outputs.append(type(output))
        return output

    monkeypatch.setattr(RNic, "_requester_ack", spy_ack)
    monkeypatch.setattr(RegisterAction, "execute", spy_execute)
    # Fusion off: every scatter and gather runs the real RegisterActions.
    run = _run(off=("flight_fusion",), value_size=4096)
    assert run["flights_fused"] == 0 and run["commits"] > 0
    assert syndromes and set(syndromes) == {int}
    assert outputs and set(outputs) == {int}


def test_lanes_tuple_matches_flags_read_in_source():
    read = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        # Attribute reads only: ``flags.set_all(...)`` is a call.
        read.update(re.findall(r"\bflags\.([a-z_]+)\b(?!\()",
                               path.read_text()))
    assert read == set(fastlane._LANES)
