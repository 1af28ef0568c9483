"""Compare two ``latest.json`` files of the perf benchmark against its bounds.

``python3 benchmarks/perf/compare.py A.json B.json`` treats A as the parent
(or the first of two A/A sets) and B as the change; both are sets of the
whole protocol on the same ``--seed``.  For every gated metric and every
workload — one row per workload, no combined score — it prints how far B is
*worse* than A as a share of A, next to the metric's bound:

``ok``          B is no worse than A by more than the bound
``unresolved``  both files report a ``noise_share`` above the bound for that
                workload, so a timing difference of that size cannot be told
                from noise; neither a pass nor a breach
``BREACH``      B is worse than A by more than the bound

Exits non-zero if any row is a breach.

The bounds here (``GATES``) are the protocol's: best of R repeats, both sets
on one seed, so outcomes compare exactly and clocks to a few percent.  The
bounds in ``BENCHMARK.json`` judge something coarser — single 10 s runs on
ten different seeds — and are wider for it; see README, "Two sets of bounds".
"""

from __future__ import annotations

import json
import pathlib
import sys

#: name, unit, better, bound (share of the parent) and, where a metric is too
#: small for a share to mean anything, ``floor``: an absolute worsening that
#: is always allowed.
GATES = [
    {"name": "orders_per_s", "unit": "orders/s", "better": "higher", "bound": 0.10},
    {"name": "decide_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "decide_peak_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
    {"name": "mean_xdt_s", "unit": "s", "better": "lower", "bound": 0.01},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15, "floor": 0.05},
]

#: metrics read off the wall clock: best-of over repeats, and the only ones
#: noise can excuse
CLOCKED = frozenset({"orders_per_s", "decide_p50_ms", "decide_peak_ms", "setup_s"})


def worsening(better: str, parent: float, change: float) -> float:
    """How far ``change`` is worse than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else (0.0 if delta <= 0 else float("inf"))


def verdict(gate: dict, parent: float, change: float, noise_a: float,
            noise_b: float) -> str:
    worse = worsening(gate["better"], parent, change)
    if worse <= gate["bound"] or abs(change - parent) <= gate.get("floor", 0.0):
        return "ok"
    if gate["name"] in CLOCKED and min(noise_a, noise_b) > gate["bound"]:
        return "unresolved"
    return "BREACH"


def compare(gates: list[dict], parent: dict, change: dict) -> list[dict]:
    """One row per (workload, gated metric) present in both reports."""
    rows = []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            continue
        for gate in gates:
            va = a["end_to_end"][gate["name"]]["value"]
            vb = b["end_to_end"][gate["name"]]["value"]
            rows.append({
                "workload": name, "metric": gate["name"], "unit": gate["unit"],
                "parent": va, "change": vb, "bound": gate["bound"],
                "worse_by": worsening(gate["better"], va, vb),
                "verdict": verdict(gate, va, vb, a["noise_share"], b["noise_share"]),
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
                      for path in argv)
    if (parent["day"], parent["seed"]) != (change["day"], change["seed"]):
        print("the sets ran on different seeds: no bound applies across seeds")
        return 2
    rows = compare(GATES, parent, change)
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            a, b = parent["workloads"][workload], change["workloads"][workload]
            same = "identical" if a["fingerprint"] == b["fingerprint"] else "DIFFERENT"
            print(f"\n{workload}: fingerprints {same}; noise_share "
                  f"{a['noise_share']:.3f} / {b['noise_share']:.3f}")
        print(f"  {row['metric']:18s} {row['parent']:>12.5g} -> {row['change']:>12.5g} "
              f"{row['unit']:9s} worse by {row['worse_by']:+8.2%}  "
              f"(bound {row['bound']:.0%})  {row['verdict']}")
    breaches = sum(row["verdict"] == "BREACH" for row in rows)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {breaches} breach(es), {unresolved} unresolved")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
