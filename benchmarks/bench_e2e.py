"""End-to-end benchmark for the PR 4/PR 5 execution layers.

Two kernels, both asserting exactness *before* any timing:

``parallel_sweep``
    A 12-cell sweep (two policies x two traffic intensities x three
    replicate seeds, replicates spawned hierarchically via
    :func:`repro.seeding.spawn_seed`) executed through
    :mod:`repro.experiments.executor` serially (``--jobs 1``) and with four
    workers (``--jobs 4``).  Every cell's scenario is materialised before
    either timer starts, and the parallel leg runs first, so both legs start
    from the same process state (forked workers cannot warm the serial
    leg's caches).  Per-cell fingerprints must match between the two runs —
    the bit-identity guarantee of the executor — before the wall-clock
    comparison is recorded.  The achievable speedup is bounded by the
    machine (``environment.cpu_count`` is stamped into the payload; on a
    single-core container the parallel run can only break even), so the
    smoke gate enforces identity everywhere but conditions the speedup gate
    on available cores.

``event_density``
    The PR 5 continuous-time event core.  Exactness first: a traffic+fleet
    scenario whose timelines are snapped onto the window grid must replay
    **bit-identically** under ``event_resolution="window"`` and
    ``"continuous"`` (the golden invariant of the event clock).  Then the
    engine is timed at several sub-window event densities (events per
    simulated hour): windows/sec of continuous mode at density 0 / low /
    high, plus the window-mode baseline, each the best of at least five
    runs, with the window and zero-event continuous legs taking turns at
    running first.  The smoke gate requires the zero-event continuous
    engine within 15% of window mode — the event clock must be free when
    nothing fires.

The engine's window hot path has one implementation; its exactness is
pinned by the fingerprint and property tests under ``tests/``, not here.

PR 4 kernels go to ``BENCH_PR4.json``, the event-density dimension to
``BENCH_PR5.json`` (repo root by default; with ``--out X.json`` alone the
latter goes next to it, as ``X_pr5.json``).  Run::

    PYTHONPATH=src python benchmarks/bench_e2e.py          # full
    PYTHONPATH=src python benchmarks/bench_e2e.py --smoke  # CI smoke
"""

from __future__ import annotations

import argparse
import os
import pathlib
import time

from _bench_utils import REPO_ROOT, write_bench_json

from repro.core.foodmatch import FoodMatchPolicy
from repro.experiments.executor import (
    ExperimentCell,
    register_profile,
    result_fingerprint,
    run_cells,
)
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    clear_cache,
    materialize,
)
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.orders.costs import CostModel
from repro.seeding import spawn_seed
from repro.sim.clock import align_scenario_events
from repro.sim.engine import SimulationConfig, simulate
from repro.workload.city import CityProfile
from repro.workload.generator import generate_scenario

DEFAULT_OUT = REPO_ROOT / "BENCH_PR4.json"
DEFAULT_OUT_PR5 = REPO_ROOT / "BENCH_PR5.json"


def _bench_network():
    """Module-level factory (picklable by reference in executor workers)."""
    return random_geometric_city(num_nodes=240, seed=23)


#: The city the end-to-end gates run on: big enough that a window does real
#: batching, matching and movement work, small enough for CI smoke mode.
BENCH_PROFILE = CityProfile(
    name="BenchE2E",
    network_factory=_bench_network,
    num_restaurants=24,
    num_vehicles=30,
    orders_per_day=800,
    mean_prep_minutes=9.0,
    accumulation_window=120.0,
)


# --------------------------------------------------------------------------- #
# kernel 1: process-parallel sweep vs the serial loop
# --------------------------------------------------------------------------- #
def _sweep_cells(scale: float, base_seed: int, replicates: int,
                 ) -> list[ExperimentCell]:
    """The 12-cell grid: 2 policies x 2 traffic intensities x replicates."""
    cells: list[ExperimentCell] = []
    for policy in ("foodmatch", "greedy"):
        for traffic in ("none", "light"):
            for replicate in range(replicates):
                seed = spawn_seed(base_seed, policy, traffic, replicate)
                setting = ExperimentSetting(
                    profile=BENCH_PROFILE, scale=scale, start_hour=12,
                    end_hour=13, seed=seed, traffic=traffic)
                cells.append(ExperimentCell(
                    setting, PolicySpec.of(policy),
                    tag=(policy, traffic, replicate)))
    return cells


def bench_parallel_sweep(scale: float, base_seed: int, jobs: int = 4,
                         replicates: int = 3) -> dict:
    """Wall-clock of one sweep grid at ``--jobs 1`` vs ``--jobs N``.

    Bit-identity of every cell is asserted before the timing is reported.
    Both legs do the same work: every cell's scenario (and its hub labels)
    is materialised before either timer starts — the forked workers inherit
    them, which is the executor's documented memory model, and the serial
    loop reads the same cache.  The parallel leg runs first: its workers
    leave this process untouched, so the serial leg starts from the state
    they forked from, not from caches a serial run warmed for them.
    """
    register_profile(BENCH_PROFILE)
    cells = _sweep_cells(scale, base_seed, replicates)

    clear_cache()
    for cell in cells:
        materialize(cell.setting)

    parallel_start = time.perf_counter()
    parallel = run_cells(cells, jobs=jobs)
    parallel_seconds = time.perf_counter() - parallel_start

    serial_start = time.perf_counter()
    serial = run_cells(cells, jobs=1)
    serial_seconds = time.perf_counter() - serial_start

    failures = [outcome.error for outcome in serial + parallel if not outcome.ok]
    assert not failures, f"sweep cells failed: {failures[0]}"
    serial_prints = [result_fingerprint(outcome.result) for outcome in serial]
    parallel_prints = [result_fingerprint(outcome.result) for outcome in parallel]
    assert serial_prints == parallel_prints, (
        "parallel sweep output diverged from the serial run")
    return {
        "workload": (f"{len(cells)}-cell sweep on {BENCH_PROFILE.name} "
                     f"(scale {scale}): 2 policies x 2 traffic intensities "
                     f"x {replicates} replicate seeds, lunch hour"),
        "exactness": "per-cell fingerprints identical between jobs=1 and "
                     f"jobs={jobs}",
        "jobs": jobs,
        "cells": len(cells),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "new_ops_per_sec": len(cells) / parallel_seconds,
        "seed_ops_per_sec": len(cells) / serial_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "cpu_count": os.cpu_count(),
        "note": ("speedup is bounded by available cores; on a single-CPU "
                 "container the parallel run can at best break even"),
    }


# --------------------------------------------------------------------------- #
# kernel 2: continuous-time event core vs the window-quantized engine (PR 5)
# --------------------------------------------------------------------------- #
def _run_resolution(scenario, resolution: str, start_hour: int, end_hour: int,
                    ) -> tuple[str, float, int]:
    """One full simulation at an event resolution; (fingerprint, secs, windows)."""
    oracle = DistanceOracle(scenario.network)
    oracle.refresh()  # the label build is set-up, not timed
    cost_model = CostModel(oracle)
    policy = FoodMatchPolicy(cost_model)
    config = SimulationConfig(delta=BENCH_PROFILE.accumulation_window,
                              start=start_hour * 3600.0, end=end_hour * 3600.0,
                              event_resolution=resolution)
    start = time.perf_counter()
    result = simulate(scenario, policy, cost_model, config)
    elapsed = time.perf_counter() - start
    return result_fingerprint(result), elapsed, len(result.windows)


def bench_event_density(seed: int, repeats: int, start_hour: int = 12,
                        end_hour: int = 13) -> dict:
    """Continuous-mode windows/sec across sub-window event densities.

    Identity is asserted before any timing: a boundary-aligned traffic+fleet
    timeline must replay bit-identically under both event resolutions.
    Every leg keeps its best of ``repeats`` runs; the window leg and the
    zero-event continuous leg (the pair the overhead compares) swap which
    runs first from one repeat to the next, so neither always pays for
    running on a cold process.
    """
    delta = BENCH_PROFILE.accumulation_window
    aligned = align_scenario_events(
        generate_scenario(BENCH_PROFILE, seed=seed, start_hour=start_hour,
                          end_hour=end_hour, traffic="light", fleet="full"),
        delta=delta, anchor=start_hour * 3600.0)
    window_print, _, _ = _run_resolution(aligned, "window", start_hour, end_hour)
    continuous_print, _, _ = _run_resolution(aligned, "continuous",
                                             start_hour, end_hour)
    assert window_print == continuous_print, (
        "continuous engine diverged from window mode on a boundary-aligned "
        f"timeline ({continuous_print} != {window_print})")

    densities = {"zero": 0.0, "low": 1.0, "high": 6.0}
    scenarios = {name: generate_scenario(BENCH_PROFILE, seed=seed,
                                         start_hour=start_hour,
                                         end_hour=end_hour, traffic=density)
                 for name, density in densities.items()}
    windows = 0
    window_best = float("inf")
    continuous_best = dict.fromkeys(densities, float("inf"))
    for repeat in range(repeats):
        legs = [("window", "zero"), ("continuous", "zero")]
        if repeat % 2:
            legs.reverse()
        legs += [("continuous", name) for name in densities if name != "zero"]
        for resolution, name in legs:
            _, elapsed, windows = _run_resolution(scenarios[name], resolution,
                                                  start_hour, end_hour)
            if resolution == "window":
                window_best = min(window_best, elapsed)
            else:
                continuous_best[name] = min(continuous_best[name], elapsed)
    window_wps = windows / window_best
    continuous_wps = {name: windows / best
                      for name, best in continuous_best.items()}
    return {
        "workload": (f"{BENCH_PROFILE.name}: {windows} windows of "
                     f"{delta:.0f}s, FoodMatch "
                     f"({start_hour}:00-{end_hour}:00), sub-window traffic "
                     f"event densities {sorted(densities.values())}/hour"),
        "exactness": ("window vs continuous bit-identity asserted on a "
                      "boundary-aligned traffic+fleet timeline"),
        "event_densities": densities,
        "window_windows_per_sec": window_wps,
        "continuous_windows_per_sec": continuous_wps,
        "new_ops_per_sec": continuous_wps["zero"],
        "seed_ops_per_sec": window_wps,
        "zero_event_overhead_pct": 100.0 * (1.0 - continuous_wps["zero"]
                                            / window_wps),
        "speedup": continuous_wps["zero"] / window_wps,
    }


def run(smoke: bool = False, out_path: pathlib.Path = DEFAULT_OUT,
        out_path_pr5: pathlib.Path = DEFAULT_OUT_PR5) -> dict:
    if smoke:
        results = {
            "parallel_sweep": bench_parallel_sweep(scale=0.5, base_seed=29,
                                                   jobs=4, replicates=3),
        }
        density = bench_event_density(seed=31, repeats=6)
    else:
        results = {
            "parallel_sweep": bench_parallel_sweep(scale=1.0, base_seed=29,
                                                   jobs=4, replicates=3),
        }
        density = bench_event_density(seed=31, repeats=6, end_hour=14)
    bench_net = _bench_network()
    payload = write_bench_json(
        out_path, "PR4 process-parallel experiment executor", smoke, results,
        network=bench_net)
    payload_pr5 = write_bench_json(
        out_path_pr5, ("PR5 continuous-time event core: sub-window "
                       "traffic/fleet dynamics on the event clock"), smoke,
        {"event_density": density}, network=bench_net)
    payload["pr5"] = payload_pr5
    return payload


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast workloads for CI")
    parser.add_argument("--out", type=pathlib.Path,
                        help=f"where to write the PR4 JSON results (default: {DEFAULT_OUT})")
    parser.add_argument("--out-pr5", type=pathlib.Path,
                        help="where to write the PR5 event-density results (default: "
                             "<stem>_pr5.json next to --out when that is given, "
                             f"else {DEFAULT_OUT_PR5})")
    args = parser.parse_args(argv)
    if args.out_pr5 is None:
        # A run told where to write must not touch the tracked snapshot either.
        args.out_pr5 = (DEFAULT_OUT_PR5 if args.out is None
                        else args.out.with_name(f"{args.out.stem}_pr5.json"))
    if args.out is None:
        args.out = DEFAULT_OUT
    return args


def main() -> None:
    args = parse_args()
    payload = run(smoke=args.smoke, out_path=args.out,
                  out_path_pr5=args.out_pr5)
    sweep = payload["kernels"]["parallel_sweep"]
    density = payload["pr5"]["kernels"]["event_density"]
    print(f"parallel_sweep: {sweep['speedup']:.2f}x at --jobs {sweep['jobs']} "
          f"({sweep['parallel_seconds']:.2f}s vs {sweep['serial_seconds']:.2f}s "
          f"serial, {sweep['cpu_count']} CPUs) — {sweep['workload']}")
    continuous = ", ".join(
        f"{name}={wps:.2f}"
        for name, wps in density["continuous_windows_per_sec"].items())
    print(f"event_density: continuous windows/s [{continuous}] vs window-mode "
          f"{density['window_windows_per_sec']:.2f} "
          f"({density['zero_event_overhead_pct']:+.1f}% zero-event overhead) "
          f"— {density['workload']}")
    print(f"wrote {args.out} and {args.out_pr5}")


if __name__ == "__main__":
    main()
