#!/usr/bin/env python3
"""The repository benchmark: host cost per simulated millisecond, exact
model outputs and a per-layer ledger, on four workloads.

Two ways to run it, both from the root of a checkout:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process -- what the PR driver calls.
    Prints every metric by name and, as the last line, one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
    metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
    ``--trace 1``.

``python3 bench/run.py --seed 7``
    The full protocol: every (workload, repeat) in a fresh child process,
    one at a time, workloads interleaved round-robin, then one traced and
    one all-lanes-off reference child per workload; prints medians and
    quartiles of everything, checks that simulated outputs and wire
    digests are bit-equal across repeats and lanes, and writes
    ``bench/out/result.json`` for ``bench/compare.py``.  ``--smoke`` does
    the same with one repeat and sub-millisecond windows, for checking the
    plumbing, never for numbers.

See bench/README.md for what each metric means and which layer should
move it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("bench/run.py: no simulator to measure: src/repro is missing "
             f"under {ROOT}")
# Run as a script, sys.path[0] is bench/ itself, where trace.py would
# shadow the standard library's ``trace``: import through the root.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

_t0 = time.perf_counter()
from repro import fastlane  # noqa: E402
from repro.workloads.experiments import (  # noqa: E402
    build_cluster, install_trace_digest)
IMPORT_S = time.perf_counter() - _t0

from bench import calib  # noqa: E402
from bench.trace import LAYERS, Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    DRAIN_MS, MODEL_METRICS, MS, NOMINAL_SECONDS, REPLICAS, WARMUP_MS,
    WORKLOADS, FaultDriver, LoadClient, simulated_metrics, window_ms_for)

#: The measured window runs as this many equal slices of simulated time
#: with a calibration sample before, between and after them.  Every lane
#: and the reference run use the same slice boundaries.
SLICES = 128
#: Cluster set-ups timed per end-to-end run, spread over it: the parity
#: check's, the measured session's, and the rest after the window.
#: ``setup_s`` is the import plus their median.
SETUP_SAMPLES = 5
#: Runs of each workload in the full protocol.
REPEATS = 5
#: In-run parity check: fast and all-lanes-off runs of the same workload
#: on a window this long (simulated ms), after a 0.2 ms warm-up.
PARITY_WINDOW_MS = {"closed": 0.3, "open": 1.0}
PARITY_WARMUP_MS = 0.2
#: Smoke windows: ``--seconds`` that keeps closed-loop windows under 1 ms;
#: and calibration samples an eighth as long, for the 90 s it has.
SMOKE_SECONDS = 0.35
SMOKE_CALIB_ITERATIONS = calib.ITERATIONS // 8

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


# -- one cluster life -----------------------------------------------------------


def _links(cluster):
    for switch in (cluster.switch, cluster.backup_switch):
        if switch is None:
            continue
        for port in switch.ports:
            if port.link is not None:
                yield port.link


def snapshot(cluster) -> dict:
    """Cumulative counters from the surfaces the simulator already has."""
    flight = cluster.flight_planner.stats()
    frames = wire_bytes = drops = 0
    for link in _links(cluster):
        for end in (link.a, link.b):
            stats = link.stats_from(end)
            frames += stats.frames
            wire_bytes += stats.bytes
            drops += stats.dropped
    switch_rx = switch_to_cpu = 0
    for switch in (cluster.switch, cluster.backup_switch):
        if switch is not None:
            totals = switch.counter_totals()
            switch_rx += totals[0]
            switch_to_cpu += totals[5]
    nics = [nic for host in cluster.hosts
            for nic in (host.nic, host.backup_nic) if nic is not None]
    members = cluster.members.values()
    program = cluster.program
    fired = cluster.sim.component_counts
    return {
        "events": cluster.sim.events_executed,
        "flights_fused": flight["flights_fused"],
        "hops_replayed": flight["hops_replayed"],
        "runs_fused": flight["runs_fused"],
        "hops_in_runs": round(flight["mean_run_len"] * flight["runs_fused"]),
        "defusions": flight["defusions"],
        "express_fallbacks": flight["express_fallbacks"],
        **{"columnar_" + k: v
           for k, v in fastlane.stats()["columnar"].items()},
        "timer_fires": (fired.get("Timer._fire", 0)
                        + fired.get("PeriodicTimer._fire", 0)),
        "link_frames": frames,
        "link_bytes": wire_bytes,
        "link_drops": drops,
        "retransmits": sum(qp.retransmissions for nic in nics
                           for qp in nic.qps.values()),
        "switch_rx": switch_rx,
        "cpu_packets": switch_to_cpu,
        "acks_gathered": program.gathered_acks,
        "acks_dropped": program.dropped_acks,
        "elections": sum(m.stats.view_changes for m in members),
        "mode_switches": sum(m.stats.switch_failures
                             + m.stats.switch_recoveries for m in members),
        "heartbeat_ticks": sum(m.hb.counter for m in members),
        "gc_collections": sum(s["collections"] for s in gc.get_stats()),
    }


def set_up(spec, seed: int) -> tuple:
    """(cluster, wire-digest tap, seconds it took): what ``setup_s`` times
    after the import."""
    gc.collect()
    t0 = time.perf_counter()
    cluster = build_cluster(spec.protocol, REPLICAS,
                            value_size=spec.value_size, seed=seed)
    tap = install_trace_digest(cluster)
    cluster.await_ready()
    return cluster, tap, time.perf_counter() - t0


def run_session(spec, seed: int, window_ms: float, *, lanes: bool = True,
                warmup_ms: float = WARMUP_MS, timed: bool = True,
                calib_iterations: int = calib.ITERATIONS,
                tracer: Tracer = None) -> dict:
    """Build a cluster, warm up, run the window, drain; return the record.

    ``timed`` brackets the window's slices with calibration samples of
    ``calib_iterations``; ``tracer`` (already installed) records spans
    during the window only.
    """
    fastlane.flags.set_all(lanes)
    fastlane.reset_columnar()
    try:
        cluster, tap, setup_s = set_up(spec, seed)
        sim = cluster.sim
        client = LoadClient(cluster, spec, seed)
        faults = FaultDriver(cluster, window_ms) if spec.faults else None
        client.start()
        cluster.run_for(warmup_ms * MS)

        t_open = sim.now
        window_ns = window_ms * MS
        if faults is not None:
            faults.arm(t_open)
        if tracer is not None:
            sim.profile_components = True   # counts timer fires by name
        gc.collect()
        gc.disable()
        before = snapshot(cluster)
        calib_s = [calib.sample(calib_iterations)] if timed else []
        slice_wall, slice_events = [], []
        window_cpu_s = 0.0
        for i in range(SLICES):
            target = t_open + window_ns * (i + 1) / SLICES
            events0 = sim.events_executed
            if tracer is not None:
                tracer.enabled = True
            w0, c0 = time.perf_counter(), time.process_time()
            cluster.run_for(target - sim.now)
            slice_wall.append(time.perf_counter() - w0)
            window_cpu_s += time.process_time() - c0
            if tracer is not None:
                tracer.enabled = False
            slice_events.append(sim.events_executed - events0)
            if timed:
                calib_s.append(calib.sample(calib_iterations))
        t_close = sim.now
        after = snapshot(cluster)
        gc.enable()
        sim.profile_components = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        client.stop()
        cluster.run_for(DRAIN_MS * MS)
        model = simulated_metrics(
            spec, client, t_open, t_close,
            None if faults is None else faults.rejoin_ms)
        return {
            "workload": spec.name, "seed": seed, "lanes": lanes,
            "window_ms": window_ms, "warmup_ms": warmup_ms,
            "model": model,
            "digest": tap.hexdigest(),
            "events_executed": after["events"] - before["events"],
            "payload_mismatches": client.mismatched,
            "refused": client.refused,
            "fault_journal": ([] if faults is None
                              else faults.injector.journal_dicts()),
            "counters": {k: after[k] - before[k] for k in after},
            "host": {
                "import_s": IMPORT_S, "setup_s": setup_s,
                "slice_wall_s": slice_wall, "slice_events": slice_events,
                "window_cpu_s": window_cpu_s,
                "calib_s": calib_s, "peak_rss_mb": peak_rss_mb,
            },
        }
    finally:
        gc.enable()
        fastlane.enable()


def host_cost(record: dict) -> float:
    """Calibrated host cost per simulated ms: every slice's wall time in
    units of the mean of the two calibration samples around it, summed
    over the window.  Every slice counts, so a phase that covers a few
    slices (an election, a rejoin) moves the number by its share."""
    host = record["host"]
    calibs = host["calib_s"]
    return sum(wall / ((calibs[i] + calibs[i + 1]) / 2)
               for i, wall in enumerate(host["slice_wall_s"])
               ) / record["window_ms"]


# -- checks ---------------------------------------------------------------------


def same_outputs(a: dict, b: dict) -> list:
    """Differences between two runs that must agree bit for bit."""
    problems = []
    for key in ("digest", "events_executed"):
        if a[key] != b[key]:
            problems.append(f"{key}: {a[key]!r} != {b[key]!r}")
    for key, value in a["model"].items():
        if b["model"][key] != value:
            problems.append(f"{key}: {value!r} != {b['model'][key]!r}")
    return problems


def check_parity(spec, seed: int) -> tuple:
    """Fast lanes vs all lanes off on a short window of the same shape:
    (problems, seconds the fast session's set-up took)."""
    window_ms = PARITY_WINDOW_MS[spec.loop]
    fast, slow = (run_session(spec, seed, window_ms, lanes=lanes,
                              warmup_ms=PARITY_WARMUP_MS, timed=False)
                  for lanes in (True, False))
    return ([f"fast lanes vs reference on a {window_ms} ms window: {p}"
             for p in same_outputs(fast, slow)], fast["host"]["setup_s"])


def check_outputs(spec, record: dict, nominal: bool) -> list:
    """What must hold of one run's own outputs."""
    problems = []
    model = record["model"]
    if record["payload_mismatches"]:
        problems.append(f"{record['payload_mismatches']} commits carried a "
                        "payload other than the one proposed")
    if not model["window_commits"]:
        problems.append("no commit inside the window")
    if spec.loop == "closed" and model["failed_ops_share"] != 0:
        problems.append(f"failed_ops_share {model['failed_ops_share']} != 0 "
                        "on a closed loop")
    # The open loop may lose what is in flight at a dying leader, no more;
    # a window cut short closes inside the outage, with proposals waiting.
    if nominal and model["failed_ops_share"] >= 0.01:
        problems.append(f"failed_ops_share {model['failed_ops_share']} "
                        ">= 0.01")
    # Shortened windows are for plumbing: the headline figures need the
    # nominal ones (the failover one needs the whole fault schedule).
    if nominal and model["paper_error_pct"] > spec.paper_tolerance_pct:
        problems.append(
            f"paper_error_pct {model['paper_error_pct']:.2f} > "
            f"{spec.paper_tolerance_pct} ({spec.paper_metric} = "
            f"{model[spec.paper_metric]:.6g} vs {spec.paper_source})")
    return problems


# -- metrics --------------------------------------------------------------------


def end_to_end_metrics(record: dict, setup_samples: list) -> dict:
    host = record["host"]
    return {
        "setup_s": host["import_s"] + statistics.median(setup_samples),
        "host_cost_per_sim_ms": host_cost(record),
        "peak_rss_mb": host["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(untraced: dict, traced: dict, tracer: Tracer) -> dict:
    """The ledger: span counts and self times from the traced window,
    counters from the traced window (they are exact, so either would do),
    host-time numbers from the untraced one."""
    sim_ms = traced["window_ms"]
    out = {}
    layers = tracer.layer_totals()
    for layer in LAYERS:
        out[f"{layer}.calls_per_sim_ms"] = layers[layer]["calls"] / sim_ms
        out[f"{layer}.self_ms_per_sim_ms"] = (layers[layer]["self_ns"] / 1e6
                                              / sim_ms)
    c = traced["counters"]
    commits = traced["model"]["window_commits"]
    wall = sum(untraced["host"]["slice_wall_s"])
    traced_wall = sum(traced["host"]["slice_wall_s"])
    out.update({
        "sim.kernel.events_per_commit": _ratio(c["events"], commits),
        "sim.kernel.events_per_host_s": untraced["events_executed"] / wall,
        "sim.flight.fused_share": _ratio(c["flights_fused"], commits),
        "sim.flight.mean_run_len": _ratio(c["hops_in_runs"], c["runs_fused"]),
        "sim.flight.defusions": c["defusions"],
        "sim.flight.express_fallbacks": c["express_fallbacks"],
        "sim.columnar.hops_batched_share": _ratio(
            c["columnar_hops_batched"], c["hops_replayed"]),
        "sim.columnar.frames_bulk_hashed_share": _ratio(
            c["columnar_frames_bulk_hashed"], c["link_frames"]),
        "sim.columnar.digest_flushes": c["columnar_digest_flushes"],
        "sim.timers.fires_per_sim_ms": c["timer_fires"] / sim_ms,
        "net.link.frames_per_commit": _ratio(c["link_frames"], commits),
        "net.link.wire_bytes_per_commit": _ratio(c["link_bytes"], commits),
        "net.link.drops": c["link_drops"],
        "rdma.nic.retransmits": c["retransmits"],
        "switch.pipeline.packets_per_commit": _ratio(c["switch_rx"], commits),
        "p4ce.dataplane.acks_absorbed_share": _ratio(
            c["acks_dropped"], c["acks_gathered"]),
        "p4ce.controlplane.cpu_packets": c["cpu_packets"],
        "consensus.member.elections": c["elections"],
        "consensus.member.mode_switches": c["mode_switches"],
        "consensus.heartbeat.ticks_per_sim_ms": c["heartbeat_ticks"] / sim_ms,
        "run.wall_s": wall,
        "run.cpu_s": untraced["host"]["window_cpu_s"],
        "run.calib_s": statistics.median(untraced["host"]["calib_s"]),
        "run.host_s_per_sim_ms": wall / untraced["window_ms"],
        "run.untraced_ms_per_sim_ms": (traced_wall * 1e3
                                       - tracer.root_ns() / 1e6) / sim_ms,
        "run.trace_overhead_ratio": host_cost(traced) / host_cost(untraced),
        "run.gc_collections": untraced["counters"]["gc_collections"],
    })
    # The model's outputs that apply to every workload ride along, so the
    # driver's record of a traced run holds them too.
    for name in MODEL_METRICS:
        value = traced["model"][name]
        if "model." + name in PER_LAYER and value is not None:
            out["model." + name] = value
    return out


def ledger_gap(metrics: dict, traced: dict) -> float:
    """|self times + untraced - traced window| as a share of the window."""
    sim_ms = traced["window_ms"]
    window_ms = sum(traced["host"]["slice_wall_s"]) * 1e3
    covered = sum(metrics[f"{layer}.self_ms_per_sim_ms"] for layer in LAYERS)
    covered += metrics["run.untraced_ms_per_sim_ms"]
    return abs(covered * sim_ms - window_ms) / window_ms


def write_trace(spec, tracer: Tracer, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{spec.name}.json"
    path.write_text(json.dumps({
        "workload": spec.name,
        "spans_recorded": tracer.spans_recorded,
        "layers": tracer.layer_totals(),
        "metrics": metrics,
        "spans": tracer.raw_spans(),
    }))
    return path


# -- one run (what the driver calls) --------------------------------------------


def run_once(args) -> int:
    spec = WORKLOADS[args.workload]
    window_ms = window_ms_for(spec, args.seconds)
    nominal = args.seconds == NOMINAL_SECONDS
    calib.sample()  # first touch of the kernel's code and data
    iterations = SMOKE_CALIB_ITERATIONS if args.smoke else calib.ITERATIONS
    detail = {"workload": spec.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}

    if args.reference:
        # Untimed, all lanes off, whole window: the orchestrator compares
        # its outputs with the fast runs'.
        record = run_session(spec, args.seed, window_ms, lanes=False,
                             timed=False)
        problems = check_outputs(spec, record, nominal)
        metrics, specs = {}, {}
    elif args.trace:
        untraced = run_session(spec, args.seed, window_ms,
                               calib_iterations=iterations)
        tracer = Tracer()
        tracer.install()
        try:
            record = run_session(spec, args.seed, window_ms,
                                 calib_iterations=iterations, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics, specs = per_layer_metrics(untraced, record, tracer), PER_LAYER
        problems = check_outputs(spec, record, nominal)
        problems += [f"traced vs untraced window: {p}"
                     for p in same_outputs(untraced, record)]
        gap = ledger_gap(metrics, record)
        if gap > 0.02:
            problems.append(f"ledger does not add up: self times + untraced "
                            f"miss the traced window by {gap:.1%}")
        detail["untraced"] = untraced
        detail["trace_file"] = str(write_trace(spec, tracer, metrics)
                                   .relative_to(ROOT))
    else:
        # Set-ups are timed before and after the window, so that a slow
        # spell of the box does not catch them all.
        parity_problems, parity_setup_s = check_parity(spec, args.seed)
        record = run_session(spec, args.seed, window_ms,
                             calib_iterations=iterations)
        setup_samples = [parity_setup_s, record["host"]["setup_s"]]
        while not args.smoke and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(set_up(spec, args.seed)[2])
        detail["setup_samples_s"] = setup_samples
        metrics = end_to_end_metrics(record, setup_samples)
        specs = END_TO_END
        problems = check_outputs(spec, record, nominal) + parity_problems

    model = record["model"]
    print(f"[{spec.name}] seed {args.seed}, {window_ms} simulated ms, "
          f"trace {args.trace}{', reference lanes' if args.reference else ''}")
    for name, unit in MODEL_METRICS.items():
        if model[name] is not None:
            print(f"  {name} = {model[name]} {unit}")
    print(f"  latency_samples = {model['latency_samples']}  "
          f"events_executed = {record['events_executed']}  "
          f"digest = {record['digest'][:16]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {specs[name]['unit']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    detail.update(record=record, metrics=metrics, problems=problems)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": model["proposals_due"],
        "failed": model["proposals_due"] - model["proposals_committed"],
        "metrics": {name: {"value": value, "unit": specs[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0


# -- the full protocol ----------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           tag: str, *extra: str) -> dict:
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"run_{workload}_{tag}.json"
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--detail", str(detail), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"child failed ({done.returncode}): "
                         f"{' '.join(command)}\n{done.stdout}")
    result = json.loads(detail.read_text())
    result["summary"] = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    return result


def quartiles(values: list) -> list:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def orchestrate(args) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    repeats = 1 if args.smoke else REPEATS
    extra = ("--smoke",) if args.smoke else ()
    names = list(WORKLOADS)
    runs = {name: [] for name in names}
    failures = []
    t_start = time.perf_counter()

    for repeat in range(repeats):
        for name in names:   # A B C D A B C D: drift hits every workload alike
            print(f"[{time.perf_counter() - t_start:6.0f}s] {name} "
                  f"repeat {repeat + 1}/{repeats}", flush=True)
            runs[name].append(_child(name, args.seed, seconds, 0,
                                     f"r{repeat}", *extra))
    traced = {}
    for name in names:
        print(f"[{time.perf_counter() - t_start:6.0f}s] {name} traced",
              flush=True)
        traced[name] = _child(name, args.seed, seconds, 1, "traced", *extra)
    reference = {}
    if not args.smoke:   # smoke keeps the in-run short-window parity only
        for name in names:
            print(f"[{time.perf_counter() - t_start:6.0f}s] {name} "
                  f"reference lanes", flush=True)
            reference[name] = _child(name, args.seed, seconds, 0,
                                     "reference", "--reference")

    result = {"seed": args.seed, "seconds": seconds, "repeats": repeats,
              "smoke": args.smoke, "workloads": {}}
    for name in names:
        first = runs[name][0]["record"]
        for run in runs[name] + [traced[name]] + (
                [reference[name]] if name in reference else []):
            failures += [f"{name}: {p}" for p in run["problems"]]
        for other in runs[name][1:]:
            failures += [f"{name}: varies across repeats: {p}"
                         for p in same_outputs(first, other["record"])]
        failures += [f"{name}: traced run: {p}" for p in
                     same_outputs(first, traced[name]["record"])]
        if name in reference:
            failures += [f"{name}: all-lanes-off reference: {p}" for p in
                         same_outputs(first, reference[name]["record"])]
        end_to_end = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric] for run in runs[name]]
            q1, median, q3 = quartiles(values)
            end_to_end[metric] = {"median": median, "q1": q1, "q3": q3,
                                  "values": values}
        result["workloads"][name] = {
            "window_ms": first["window_ms"],
            "digest": first["digest"],
            "events_executed": first["events_executed"],
            "latency_samples": first["model"]["latency_samples"],
            "attempted": first["model"]["proposals_due"],
            "failed": (first["model"]["proposals_due"]
                       - first["model"]["proposals_committed"]),
            "end_to_end": end_to_end,
            "model": {metric: first["model"][metric]
                      for metric in MODEL_METRICS
                      if first["model"][metric] is not None},
            "per_layer": traced[name]["metrics"],
            "trace_file": traced[name]["trace_file"],
        }

    for name, entry in result["workloads"].items():
        print(f"\n{name}  ({entry['window_ms']} simulated ms, "
              f"{entry['latency_samples']} latency samples, "
              f"digest {entry['digest'][:16]})")
        for metric, stats in entry["end_to_end"].items():
            spec = END_TO_END[metric]
            spread = _ratio(stats["q3"] - stats["q1"], stats["median"])
            print(f"  {metric:28s} {stats['median']:12.6g} {spec['unit']:14s}"
                  f" IQR {spread:6.1%} of median   ({spec['better']} is "
                  f"better, bound {spec['bound']})")
        for metric, value in entry["model"].items():
            print(f"  {metric:28s} {value:12.6g} {MODEL_METRICS[metric]:14s}"
                  f" (exact, bound 0)")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:44s} {value:14.6g} {PER_LAYER[metric]['unit']}")
    result["failures"] = failures
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {args.out} in {time.perf_counter() - t_start:.0f} s; "
          f"{'FAILED' if failures else 'all checks passed'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload once, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="host seconds the window is sized for on the "
                             "reference box (scales the simulated window)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full record here")
    parser.add_argument("--reference", action="store_true",
                        help="with --workload: all lanes off, untimed")
    parser.add_argument("--smoke", action="store_true",
                        help="one repeat, sub-ms windows, no extra set-ups")
    parser.add_argument("--out", default=str(OUT / "result.json"),
                        help="without --workload: where the result goes")
    args = parser.parse_args(argv)
    if args.workload:
        return run_once(args)
    return orchestrate(args)


if __name__ == "__main__":
    raise SystemExit(main())
