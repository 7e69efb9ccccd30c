"""Tests of the benchmark's own machinery: ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths``: these check the yardstick, not the
simulator.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import run  # noqa: E402  (puts src/ on sys.path)
from bench.trace import BOUNDARIES, LAYERS, Tracer  # noqa: E402
from bench.workloads import WORKLOADS, fault_plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def advance(ns):
        clock.now += ns

    leaf = tracer.wrap(lambda: advance(7), "rdma.icrc", "leaf")

    def middle_body():
        advance(10)
        leaf()
        advance(5)
        leaf()
    middle = tracer.wrap(middle_body, "net.link", "middle")

    def root_body():
        advance(100)
        middle()
        advance(1)
        middle()
    root = tracer.wrap(root_body, "sim.kernel", "root")

    advance(1_000)      # outside any span: belongs to nobody
    root()
    totals = tracer.layer_totals()
    assert totals["rdma.icrc"]["calls"] == 4
    assert totals["rdma.icrc"]["self_ns"] == 4 * 7
    assert totals["net.link"]["calls"] == 2
    assert totals["net.link"]["total_ns"] == 2 * (10 + 7 + 5 + 7)
    assert totals["net.link"]["self_ns"] == 2 * (10 + 5)
    assert totals["sim.kernel"]["self_ns"] == 100 + 1
    assert totals["net.link"]["by_parent"] == {
        "sim.kernel": {"calls": 2, "total_ns": 58, "self_ns": 30}}
    # Self times of all layers add up to the outermost spans exactly.
    assert sum(t["self_ns"] for t in totals.values()) == tracer.root_ns() == 159
    spans = tracer.raw_spans()
    assert [s["name"] for s in spans] == ["root", "middle", "leaf", "leaf",
                                          "middle", "leaf", "leaf"]
    assert [s["parent"] for s in spans] == [-1, 0, 1, 1, 0, 4, 4]
    assert spans[0]["start_ns"] == 0 and spans[0]["end_ns"] == 159


def test_generator_spans_cover_the_generator_not_its_consumer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def produce():
        for _ in range(3):
            clock.now += 4
            yield clock.now
    wrapped = tracer.wrap(produce, "consensus.log", "produce")
    for _ in wrapped():
        clock.now += 100            # consumer's work between items
    totals = tracer.layer_totals()["consensus.log"]
    assert totals["self_ns"] == 3 * 4
    assert totals["calls"] == 4     # three items and the final StopIteration


def test_calibration_kernel_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in calib.py"
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "hashlib", "heapq", "struct", "time",
                        "zlib"}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from bench import calib; calib.sample(100); "
         "print(any(m == 'repro' or m.startswith('repro.') "
         "for m in sys.modules))", str(ROOT)],
        capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "False"


def test_wrappers_change_no_output_and_uninstall_restores_everything():
    spec = WORKLOADS["p4ce_rate_64B"]
    plain = run.run_session(spec, 7, 0.2, warmup_ms=0.2, timed=False)
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        assert len({(id(owner), attr) for owner, attr, _ in patched}) \
            == len(patched)
        wrapped_functions = sum(len(v) for v in BOUNDARIES.values())
        assert len(patched) >= wrapped_functions
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original
        traced = run.run_session(spec, 7, 0.2, warmup_ms=0.2, timed=False,
                                 tracer=tracer)
    finally:
        tracer.uninstall()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original
    assert tracer.patched == []
    assert run.same_outputs(plain, traced) == []
    assert plain["events_executed"] > 0 and len(plain["digest"]) == 64
    assert tracer.spans_recorded > 0
    assert tracer.layer_totals()["sim.kernel"]["calls"] == run.SLICES


def test_emitted_names_match_the_contract():
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert workloads == list(WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["why"] == WORKLOADS[workload["name"]].why

    # What a run actually emits, on the cheapest workload.
    spec = WORKLOADS["mu_rate_64B"]
    untraced = run.run_session(spec, 7, 0.2, warmup_ms=0.2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_session(spec, 7, 0.2, warmup_ms=0.2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert list(run.end_to_end_metrics(
        untraced, [untraced["host"]["setup_s"]])) == end_to_end
    metrics = run.per_layer_metrics(untraced, traced, tracer)
    # A model output that does not apply is left out, not reported as 0:
    # 0.2 ms of Mu is too few commits for a p99.
    assert set(per_layer) - set(metrics) == {"model.sim_commit_latency_p99_us"}
    assert set(metrics) <= set(per_layer)
    assert run.ledger_gap(metrics, traced) < 0.02
    for layer in LAYERS:
        assert f"{layer}.calls_per_sim_ms" in metrics


def test_host_cost_counts_every_slice():
    record = {"window_ms": 2.0,
              "host": {"slice_wall_s": [1.0, 1.0, 6.0],
                       "calib_s": [0.5, 0.5, 1.5, 2.5]}}
    # 1/0.5 + 1/1.0 + 6/2.0: the one expensive slice is a third of it.
    assert run.host_cost(record) == (2.0 + 1.0 + 3.0) / 2.0


def test_proposals_left_waiting_count_as_failed():
    # A window that closes inside the outage: the leader dies at +1.525 ms
    # and nobody takes the proposals due after that before the drain ends.
    spec = WORKLOADS["p4ce_failover_light"]
    record = run.run_session(spec, 7, 5.0, warmup_ms=0.2, timed=False)
    model = record["model"]
    assert record["refused"] > 0
    assert model["proposals_committed"] < model["proposals_due"]
    assert 0.5 < model["failed_ops_share"] < 1.0
    assert model["sim_rejoin_ms"] is None
    assert run.check_outputs(spec, record, nominal=True) != []


def test_compare_calls_any_model_difference_worse():
    from bench import compare
    stats = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    def result(commits, rejoin=None):
        model = {"sim_commits_per_s": commits}
        if rejoin is not None:
            model["sim_rejoin_ms"] = rejoin
        return {"seed": 7, "seconds": 11, "workloads": {"w": {
            "digest": "d", "model": model,
            "end_to_end": {m: stats for m in compare.HOST_METRICS}}}}
    def verdicts(a, b):
        return {row[1]: row[5] for row in compare.compare(a, b)}
    assert set(verdicts(result(5.0), result(5.0)).values()) == {"ok"}
    # "Better" is still a change of fidelity; so is a metric appearing.
    assert verdicts(result(5.0), result(6.0))["sim_commits_per_s"] == "worse"
    assert verdicts(result(5.0), result(5.0, 42.0))["sim_rejoin_ms"] == "worse"


def test_fault_plan_shortens_to_the_leader_kill():
    assert [a for _, a in fault_plan(200.0)] == [
        "kill_leader", "kill_follower", "restart_follower"]
    assert fault_plan(200.0)[0][0] == 5.025
    assert fault_plan(15.0) == [(4.525, "kill_leader")]
    assert fault_plan(1.0) == [(0.325, "kill_leader")]
