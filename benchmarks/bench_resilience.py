"""Microbenchmark for the PR 9 resilience layer (``repro.resilience``).

Measures graceful degradation on the 300-node smoke city:

* **identity** — attaching an inert resilience manager (huge budget, top
  rungs pinned, no faults) must keep the run fingerprint-identical to a
  run without any manager, and costs near-zero overhead;
* **rung_quality** — one full simulation pinned at each ladder rung pair
  (``scipy+hub_labels`` → ``hungarian+dijkstra`` →
  ``greedy_approx+bounded_hop_approx``): wall time, XDT, rejections, and
  the shadow-sampled quality delta per rung.  Gates: hungarian reproduces
  the scipy fingerprint bit for bit, and the greedy rung's matching
  objective stays within 10% of exact;
* **degradation** — a scipy-scoped slowdown fault plus a latency budget:
  the controller must demote within a handful of windows of the first
  blown one, sustain ≥2x the throughput of the same faulted run pinned to
  the exact backend, and climb back to the top rung once the fault window
  closes.

Results go to ``BENCH_PR9.json`` (repo root by default).  Run::

    PYTHONPATH=src python benchmarks/bench_resilience.py          # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import pathlib
import time

from _bench_utils import REPO_ROOT, write_bench_json

from repro.core.foodmatch import FoodMatchPolicy
from repro.experiments.executor import result_fingerprint
from repro.experiments.sweeps import DEGRADATION_RUNGS
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.orders.costs import CostModel
from repro.resilience.manager import build_resilience
from repro.sim.engine import SimulationConfig, simulate
from repro.workload.city import CityProfile
from repro.workload.generator import generate_scenario

DEFAULT_OUT = REPO_ROOT / "BENCH_PR9.json"

#: The 300-node smoke city the acceptance gates run on.
BENCH_PROFILE = CityProfile(
    name="Bench300",
    network_factory=lambda: random_geometric_city(num_nodes=300, seed=17),
    num_restaurants=30,
    num_vehicles=36,
    orders_per_day=900,
    mean_prep_minutes=9.0,
    accumulation_window=120.0,
)

#: Injected per-matching-call stall on the exact backend (seconds).  Sized
#: well above the budget so a faulted exact window is unambiguously blown.
FAULT_STALL = 3.0
#: Window latency budget the controller defends (seconds).  The smoke
#: city's natural decide time is ~0.1s p50 / ~0.22s max per window, so an
#: unfaulted window sits comfortably inside the budget (and inside the
#: recovery band at ``RECOVERY_MARGIN`` of it), while a stalled one blows it.
BUDGET = 0.45
RECOVERY_MARGIN = 0.8


def build_workload(smoke: bool):
    start_hour, end_hour = (12, 13) if smoke else (11, 14)
    scenario = generate_scenario(BENCH_PROFILE, seed=11,
                                 start_hour=start_hour, end_hour=end_hour)
    config = SimulationConfig(
        delta=BENCH_PROFILE.accumulation_window,
        start=start_hour * 3600, end=end_hour * 3600)
    return scenario, config


def run_once(scenario, config, resilience=None):
    oracle = DistanceOracle(scenario.network)
    oracle.refresh()  # the label build is set-up, not timed
    cost_model = CostModel(oracle)
    policy = FoodMatchPolicy(cost_model)
    t0 = time.perf_counter()
    result = simulate(scenario, policy, cost_model, config,
                      resilience=resilience)
    return result, time.perf_counter() - t0


def bench_identity(scenario, config):
    """Inert manager: identical fingerprint, near-zero overhead."""
    plain, plain_wall = run_once(scenario, config)
    plain_fp = result_fingerprint(plain)
    inert, inert_wall = run_once(
        scenario, config,
        resilience=build_resilience(matching_backend="scipy",
                                    path_backend="hub_labels",
                                    latency_budget=1e9))
    inert_fp = result_fingerprint(inert)
    assert inert_fp == plain_fp, (
        "IDENTITY GATE: inert resilience manager changed the run "
        f"({inert_fp} != {plain_fp})")
    return {
        "workload": f"{scenario.name}, foodmatch, inert manager "
                    "(pinned top rungs, budget 1e9)",
        "identical_fingerprint": True,
        "fingerprint": plain_fp,
        "plain_wall_seconds": plain_wall,
        "managed_wall_seconds": inert_wall,
        "overhead_pct": 100.0 * (inert_wall - plain_wall) / plain_wall,
    }, plain_fp


def bench_rung_quality(scenario, config, plain_fp):
    """One pinned run per rung pair: wall time and quality given up."""
    rows = {}
    for matching, path in DEGRADATION_RUNGS:
        manager = build_resilience(matching_backend=matching,
                                   path_backend=path,
                                   quality_sample_every=1)
        result, wall = run_once(scenario, config, resilience=manager)
        snap = result.resilience
        quality = snap["quality"]
        rows[f"{matching}+{path}"] = {
            "wall_seconds": wall,
            "fingerprint": result_fingerprint(result),
            "mean_xdt_seconds": result.mean_xdt_seconds(),
            "rejections": len(result.rejected_orders),
            "matching_calls": snap["matching"]["calls"][matching],
            "matching_delta_pct": quality["matching_delta_pct"],
            "path_mean_stretch": quality["path_mean_stretch"],
        }
    exact = rows["scipy+hub_labels"]
    assert exact["fingerprint"] == plain_fp, (
        "IDENTITY GATE: pinned top rungs diverged from the plain run")
    greedy = rows["greedy_approx+bounded_hop_approx"]
    assert greedy["matching_delta_pct"] <= 10.0, (
        "QUALITY GATE: greedy matching objective "
        f"{greedy['matching_delta_pct']:.2f}% worse than exact (>10%)")
    return {
        "workload": f"{scenario.name}, foodmatch, pinned per rung pair, "
                    "quality shadow-sampled every call",
        "rungs": rows,
        "greedy_within_10pct": True,
    }


def bench_degradation(scenario, config):
    """Faulted exact vs controller-managed: latency bought, quality spent."""
    fault_start = config.start
    fault_end = config.start + 0.4 * (config.end - config.start)
    faults = [{"kind": "slowdown", "target": "matching", "rung": "scipy",
               "seconds": FAULT_STALL, "start": fault_start,
               "end": fault_end}]

    # Reference: the same fault with no controller — every matching call
    # stalls on the pinned exact backend for the whole fault window.
    pinned = build_resilience(matching_backend="scipy", faults=faults)
    pinned_result, pinned_wall = run_once(scenario, config, resilience=pinned)
    assert pinned_result.resilience["matching"]["demotions"] == 0

    # Asymmetric posture: quick to demote (2 blown windows), slow to try
    # the exact backend again (6 healthy ones, no cooldown) — the cooldown
    # would also delay re-demotion, and every extra window spent probing a
    # still-faulted rung costs a full stall.
    controlled = build_resilience(latency_budget=BUDGET, faults=faults,
                                  demote_after=2, recover_after=6,
                                  cooldown_windows=0,
                                  recovery_margin=RECOVERY_MARGIN)
    result, wall = run_once(scenario, config, resilience=controlled)
    snap = result.resilience
    events = snap["controller"]["events"]
    demotes = [e for e in events if e["kind"] == "demote"]
    recovers = [e for e in events if e["kind"] == "recover"]

    assert demotes, "DEGRADATION GATE: fault never demoted the ladder"
    windows_in_fault = (fault_end - fault_start) / config.delta
    assert demotes[0]["window"] <= windows_in_fault, (
        "DEGRADATION GATE: first demotion landed after the fault window")
    assert recovers, "RECOVERY GATE: controller never climbed back"
    assert snap["matching"]["current"] == "scipy", (
        "RECOVERY GATE: matching ladder did not return to the top rung "
        f"(ended on {snap['matching']['current']})")
    ratio = pinned_wall / wall
    assert ratio >= 2.0, (
        f"THROUGHPUT GATE: controller bought only {ratio:.2f}x over the "
        "faulted exact run (<2x)")
    return {
        "workload": f"{scenario.name}, foodmatch, {FAULT_STALL}s scipy "
                    f"stall over 40% of the horizon, budget {BUDGET}s",
        "faulted_exact_wall_seconds": pinned_wall,
        "controlled_wall_seconds": wall,
        "throughput_ratio": ratio,
        "first_demote_window": demotes[0]["window"],
        "demotions": len(demotes),
        "recoveries": len(recovers),
        "recovered_to_top_rung": True,
        "matching_quality_delta_pct":
            snap["quality"]["matching_delta_pct"],
        "fault_trips": snap["faults"]["trips"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: one lunch hour")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    scenario, config = build_workload(args.smoke)
    identity, plain_fp = bench_identity(scenario, config)
    print(f"identity: fingerprint {plain_fp}, "
          f"overhead {identity['overhead_pct']:+.1f}%")

    quality = bench_rung_quality(scenario, config, plain_fp)
    for name, row in quality["rungs"].items():
        print(f"rung {name}: {row['wall_seconds']:.2f}s wall, "
              f"delta {row['matching_delta_pct']:+.2f}%, "
              f"stretch {row['path_mean_stretch']:.3f}x")

    degradation = bench_degradation(scenario, config)
    print(f"degradation: {degradation['throughput_ratio']:.1f}x over faulted "
          f"exact, first demote at window "
          f"{degradation['first_demote_window']}, "
          f"{degradation['demotions']} demotions / "
          f"{degradation['recoveries']} recoveries")

    kernels = {"identity": identity, "rung_quality": quality,
               "degradation": degradation}
    write_bench_json(args.out, "repro.resilience graceful degradation",
                     args.smoke, kernels, network=scenario.network)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
