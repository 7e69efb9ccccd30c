#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base, B the candidate.  One row per (workload, end-to-end
metric) with both medians and quartiles, the ratio B/A, and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  either set's inter-quartile range is wider than the bound,
                so the comparison cannot tell

Host-time metrics take their bound from BENCHMARK.json.  The model's
outputs (``sim_*``, ``failed_ops_share``, ``paper_error_pct``) are exact
and have bound 0: any difference, in either direction, is a change of
fidelity and reads ``worse``; so does an output one side has and the
other lacks.  With equal seeds and window lengths the wire digests must
be equal too.  Exits non-zero if any row is ``worse`` (``unresolved`` rows
are reported, not fatal).  Smoke results carry no numbers and are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HOST_METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative: it improved)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def host_row(a: dict, b: dict, spec: dict) -> tuple:
    bound = spec["bound"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    worse_by = worsening(a["median"], b["median"], spec["better"])
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    def cell(s):
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
    return (cell(a), cell(b), f"{b['median'] / a['median']:.3f}x of "
            f"{a['median']:.5g}", verdict)


def model_row(a, b) -> tuple:
    """``a``/``b``: the exact value, or None where that side lacks it."""
    if a is None or b is None:
        return (str(a), str(b), "n/a", "worse")
    ratio = f"{b / a:.6g}x of {a:.6g}" if a else f"{b:.6g} vs 0"
    return (f"{a:.9g}", f"{b:.9g}", ratio, "ok" if a == b else "worse")


def compare(a: dict, b: dict) -> list:
    """[(workload, metric, A, B, ratio, verdict)]."""
    rows = []
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append((name, "(workload)", "present", "missing", "n/a",
                         "worse"))
            continue
        for metric, spec in HOST_METRICS.items():
            rows.append((name, metric) + host_row(
                wa["end_to_end"][metric], wb["end_to_end"][metric], spec))
        for metric in list(wa["model"]) + [m for m in wb["model"]
                                           if m not in wa["model"]]:
            rows.append((name, metric) + model_row(
                wa["model"].get(metric), wb["model"].get(metric)))
        if same_inputs:
            equal = wa["digest"] == wb["digest"]
            rows.append((name, "wire_digest", wa["digest"][:12],
                         wb["digest"][:12], "n/a",
                         "ok" if equal else "worse"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if a["smoke"] or b["smoke"]:
        print("compare.py: a --smoke result is for plumbing, not for numbers")
        return 2
    rows = compare(a, b)
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "B/A", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    counts = {v: sum(r[5] == v for r in rows)
              for v in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
