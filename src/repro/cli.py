"""Command-line interface for the FoodMatch reproduction.

Five subcommands cover the common workflows without writing any Python:

``python -m repro simulate``
    Run one policy on one city profile and print (optionally save) the
    evaluation metrics.
``python -m repro compare``
    Run several policies on the same workload and print a comparison table.
``python -m repro figure``
    Regenerate one of the paper's tables/figures by name and print its data.
``python -m repro serve``
    Host one city's dispatch engine as an always-on asyncio service
    (:mod:`repro.service`): deterministic simulated-clock replay or
    wall-clock pacing, with checkpoint (``--checkpoint-out``) and resume
    (``--restore``).
``python -m repro loadgen``
    Drive a simulated-clock service over the recorded order stream as fast
    as possible and report sustained orders/sec, decide p50/p99 and the
    backpressure counters.

Examples::

    python -m repro simulate --city CityA --policy foodmatch --scale 0.3 \
        --start-hour 12 --end-hour 13 --traffic heavy --fleet full \
        --event-resolution continuous
    python -m repro compare --city CityB --policies foodmatch greedy km \
        --scale 0.1 --vehicle-fraction 0.4 --jobs 4
    python -m repro figure --name fig8abc_eta_sweep --jobs 4
    python -m repro serve --city CityA --scale 0.1 --stop-after-windows 4 \
        --checkpoint-out /tmp/ckpt.json
    python -m repro serve --restore /tmp/ckpt.json
    python -m repro loadgen --city CityA --scale 0.1 --json /tmp/load.json

``--jobs N`` fans the independent cells of a comparison / figure / sweep
out across N worker processes (see :mod:`repro.experiments.executor`); the
output is bit-identical to the serial default.

``simulate``, ``compare``, ``serve`` and ``loadgen`` convert SIGINT/SIGTERM
into a clean shutdown: a one-line summary on stderr, any ``--trace-out``
file flushed as valid (header-only) trace JSONL, exit code ``128+signum``.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro import obs
from repro.experiments import figures
from repro.experiments.executor import set_default_jobs
from repro.experiments.reporting import (
    format_cache_report,
    format_metric_comparison,
    format_telemetry_report,
    format_trace_rollup,
)
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    available_policies,
    run_policy_comparison,
    run_setting,
)
from repro.core.matching import MATCHING_RUNGS
from repro.network.approx_paths import PATH_RUNGS
from repro.obs.trace import merge_traces, rollup, write_trace_jsonl
from repro.sim.engine import EVENT_RESOLUTIONS
from repro.workload.city import CITY_PROFILES
from repro.workload.generator import FLEET_MODES, TRAFFIC_INTENSITIES

_FIGURE_FUNCTIONS = {
    "table2": figures.table2_dataset_summary,
    "fig4a_percentile_ranks": figures.fig4a_percentile_ranks,
    "fig6a_order_vehicle_ratio": figures.fig6a_order_vehicle_ratio,
    "fig6b_vs_reyes": figures.fig6b_vs_reyes,
    "fig6cde_vs_greedy": figures.fig6cde_vs_greedy,
    "fig6fgh_scalability": figures.fig6fgh_scalability,
    "fig6h_single_window_scaling": figures.fig6h_single_window_scaling,
    "fig6ijk_improvement_by_slot": figures.fig6ijk_improvement_by_slot,
    "fig7a_ablation": figures.fig7a_ablation,
    "fig7bcde_vehicle_sweep": figures.fig7bcde_vehicle_sweep,
    "fig8abc_eta_sweep": figures.fig8abc_eta_sweep,
    "fig8defg_delta_sweep": figures.fig8defg_delta_sweep,
    "fig8hijk_k_sweep": figures.fig8hijk_k_sweep,
    "fig9_gamma_sweep": figures.fig9_gamma_sweep,
    "traffic_robustness": figures.traffic_robustness,
    "event_density": figures.event_density,
    "fleet_robustness": figures.fleet_robustness,
    "degradation_ladder": figures.degradation_ladder,
}

_COMPARE_METRICS = ("xdt_hours_per_day", "orders_per_km", "waiting_hours_per_day",
                    "rejection_rate", "mean_decision_seconds", "overflow_pct")

#: Subcommands that trade the default KeyboardInterrupt for a clean shutdown.
_SIGNAL_COMMANDS = frozenset({"simulate", "compare", "serve", "loadgen"})


class GracefulExit(Exception):
    """Raised by the SIGINT/SIGTERM handler to unwind the command cleanly."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _install_signal_handlers() -> None:
    import signal

    def _handler(signum: int, frame: object) -> None:
        raise GracefulExit(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _handler)


def _graceful_exit(args: argparse.Namespace, exc: GracefulExit) -> int:
    """Shut the interrupted command down: flush traces, summarise, exit nonzero."""
    import signal

    name = signal.Signals(exc.signum).name
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        try:
            count = write_trace_jsonl(
                trace_out, [],
                header={"command": args.command, "interrupted_by": name})
            print(f"flushed trace JSONL ({count} events) to {trace_out}",
                  file=sys.stderr)
        except OSError as io_exc:
            print(f"could not flush trace JSONL to {trace_out}: {io_exc}",
                  file=sys.stderr)
    print(f"repro {args.command}: interrupted by {name}; "
          "stopped cleanly before completion", file=sys.stderr)
    return 128 + int(exc.signum)


def _traffic_level(text: str):
    """Parse ``--traffic``: a named intensity or a numeric event density."""
    if text in TRAFFIC_INTENSITIES:
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected one of {sorted(TRAFFIC_INTENSITIES)} or a numeric "
            f"events-per-hour density, got {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            "event density must be a finite non-negative number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FoodMatch reproduction: simulate food-delivery assignment policies.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_jobs_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for experiment cells (policies, "
                              "sweep values, folds); 1 = serial, parallel output "
                              "is bit-identical (default: 1)")
        sub.add_argument("--log-level", default=None, metavar="LEVEL",
                         help="enable structured logging on the 'repro' logger "
                              "at this level (debug, info, warning, ...); "
                              "silent by default")

    def add_obs_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--obs", choices=list(obs.OBS_MODES), default="off",
                         help="observability: 'summary' aggregates per-phase "
                              "latency histograms (p50/p99), 'trace' also keeps "
                              "the full span tree for --trace-out; 'off' "
                              "(default) is the zero-overhead no-op path")
        sub.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the span tree as trace JSONL (one event "
                              "per line); requires --obs trace")

    def add_setting_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--city", choices=sorted(CITY_PROFILES), default="CityA",
                         help="city profile to simulate (default: CityA)")
        sub.add_argument("--scale", type=float, default=0.2,
                         help="workload scale factor (default: 0.2)")
        sub.add_argument("--start-hour", type=int, default=12,
                         help="first simulated hour (default: 12)")
        sub.add_argument("--end-hour", type=int, default=13,
                         help="end of the simulated horizon (default: 13)")
        sub.add_argument("--delta", type=float, default=None,
                         help="accumulation window in seconds (default: city profile)")
        sub.add_argument("--vehicle-fraction", type=float, default=1.0,
                         help="fraction of the fleet made available (default: 1.0)")
        sub.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
        sub.add_argument("--traffic", type=_traffic_level, default="none",
                         metavar="LEVEL",
                         help="dynamic-traffic intensity: incidents, closures and "
                              "zonal slowdowns replayed during the simulation — "
                              f"one of {sorted(TRAFFIC_INTENSITIES)} ('severe' "
                              "fully severs half its closures) or a numeric "
                              "events-per-hour density (default: none)")
        sub.add_argument("--event-resolution", choices=list(EVENT_RESOLUTIONS),
                         default="window",
                         help="when traffic/fleet events take effect: 'window' "
                              "quantizes them to accumulation-window boundaries, "
                              "'continuous' applies them at their exact "
                              "timestamps via the event clock (default: window)")
        sub.add_argument("--fleet", choices=list(FLEET_MODES), default="none",
                         help="driver-lifecycle realism: 'shifts' adds "
                              "login/logout/break schedules, 'full' adds surge "
                              "onboarding, zonal drains, stochastic offer "
                              "rejection, kitchen delays and idle repositioning "
                              "(default: none)")
        sub.add_argument("--matching-backend", choices=list(MATCHING_RUNGS),
                         default=None,
                         help="pin the matching ladder's starting rung "
                              "(default: top rung; plain kernels when no "
                              "resilience flag is set)")
        sub.add_argument("--path-backend", choices=list(PATH_RUNGS),
                         default=None,
                         help="pin the shortest-path ladder's starting rung "
                              "(default: top rung)")
        sub.add_argument("--latency-budget", type=float, default=None,
                         metavar="SECONDS",
                         help="per-window decision-latency budget; enables "
                              "the degradation controller, which demotes "
                              "backends after repeated blown windows and "
                              "recovers with hysteresis (default: disabled)")
        sub.add_argument("--faults", default=None, metavar="PLAN",
                         help="fault-injection plan: JSON text or a path to a "
                              "JSON file of fault specs (kernel slowdowns, "
                              "backend errors); seeded and deterministic "
                              "(default: none)")

    simulate = subparsers.add_parser("simulate", help="run one policy on one city")
    add_setting_arguments(simulate)
    add_jobs_argument(simulate)
    add_obs_arguments(simulate)
    simulate.add_argument("--policy", choices=available_policies(), default="foodmatch")
    simulate.add_argument("--save-json", default=None, metavar="PATH",
                          help="write the full result (summary + per-order records) as JSON")
    simulate.add_argument("--save-csv", default=None, metavar="PATH",
                          help="write the per-order records as CSV")

    compare = subparsers.add_parser("compare", help="run several policies on one workload")
    add_setting_arguments(compare)
    add_jobs_argument(compare)
    add_obs_arguments(compare)
    compare.add_argument("--policies", nargs="+", choices=available_policies(),
                         default=["foodmatch", "greedy", "km"])

    figure = subparsers.add_parser("figure", help="regenerate one table/figure of the paper")
    add_jobs_argument(figure)
    figure.add_argument("--name", choices=sorted(_FIGURE_FUNCTIONS), required=True)
    figure.add_argument("--list", action="store_true", help="list available figures and exit")

    def add_backpressure_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--queue-capacity", type=int, default=1024, metavar="N",
                         help="bound of the ingest queue (default: 1024)")
        sub.add_argument("--high-water", type=int, default=None, metavar="N",
                         help="queue depth at which admission defers/sheds "
                              "(default: 80%% of capacity)")
        sub.add_argument("--p99-budget", type=float, default=None, metavar="SECONDS",
                         help="rolling decide-latency p99 budget; exceeding it "
                              "trips backpressure (default: disabled)")
        sub.add_argument("--backpressure-policy", choices=("defer", "shed"),
                         default="defer",
                         help="defer = lossless (producers park on the queue), "
                              "shed = lossy rejection; shedding breaks the "
                              "fingerprint-identity contract (default: defer)")

    serve = subparsers.add_parser(
        "serve", help="host one city's dispatch engine as an asyncio service")
    add_setting_arguments(serve)
    add_jobs_argument(serve)
    add_backpressure_arguments(serve)
    serve.add_argument("--policy", choices=available_policies(),
                       default="foodmatch")
    serve.add_argument("--clock", choices=("simulated", "wall"),
                       default="simulated",
                       help="simulated = watermark-gated deterministic replay, "
                            "fingerprint-identical to batch mode; wall = "
                            "windows paced against real time (default: "
                            "simulated)")
    serve.add_argument("--rate", type=float, default=60.0, metavar="X",
                       help="wall-clock speed-up: simulated seconds per real "
                            "second (default: 60)")
    serve.add_argument("--stop-after-windows", type=int, default=None,
                       metavar="N",
                       help="pause the loop once N total windows have been "
                            "stepped instead of running to the horizon "
                            "(checkpoint-and-resume)")
    serve.add_argument("--checkpoint-out", default=None, metavar="PATH",
                       help="write a checkpoint JSON when the loop pauses "
                            "before the horizon")
    serve.add_argument("--restore", default=None, metavar="PATH",
                       help="resume from a checkpoint file; the workload "
                            "flags are ignored (the scenario, policy and "
                            "engine state are embedded)")

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a simulated-clock service as fast as possible "
                        "and report sustained throughput")
    add_setting_arguments(loadgen)
    add_jobs_argument(loadgen)
    add_backpressure_arguments(loadgen)
    loadgen.add_argument("--policy", choices=available_policies(),
                         default="foodmatch")
    loadgen.add_argument("--json", default=None, metavar="PATH",
                         help="write the loadgen report as JSON")

    return parser


def _setting_from_args(args: argparse.Namespace) -> ExperimentSetting:
    # The setting carries the fault plan as text, parsed only when a run
    # starts; parse it now so that a bad plan is a one-line usage error.
    _resilience_from_args(args)
    return ExperimentSetting(
        profile=CITY_PROFILES[args.city],
        scale=args.scale,
        start_hour=args.start_hour,
        end_hour=args.end_hour,
        delta=args.delta,
        vehicle_fraction=args.vehicle_fraction,
        seed=args.seed,
        traffic=args.traffic,
        fleet=args.fleet,
        event_resolution=args.event_resolution,
        matching_backend=args.matching_backend,
        path_backend=args.path_backend,
        latency_budget=args.latency_budget,
        faults=args.faults,
    )


def _command_simulate(args: argparse.Namespace) -> int:
    setting = _setting_from_args(args)
    result = run_setting(setting, PolicySpec.of(args.policy))
    print(f"{args.policy} on {args.city} "
          f"({args.start_hour}:00-{args.end_hour}:00, scale {args.scale})")
    for key, value in result.summary().items():
        print(f"  {key:<26} {value:.4f}")
    if result.cache_stats:
        print(format_cache_report(result.cache_stats))
    if result.resilience is not None:
        _print_resilience(result.resilience, indent="  ")
    if result.telemetry is not None:
        print(format_telemetry_report(result.telemetry))
    if args.trace_out:
        telemetry = result.telemetry
        count = write_trace_jsonl(args.trace_out, telemetry.spans,
                                  header=telemetry.header())
        print(f"wrote trace JSONL ({count} events) to {args.trace_out}")
    if args.save_json:
        from repro.workload.io import save_result_json

        save_result_json(result, args.save_json)
        print(f"wrote JSON result to {args.save_json}")
    if args.save_csv:
        from repro.workload.io import save_result_csv

        save_result_csv(result, args.save_csv)
        print(f"wrote per-order CSV to {args.save_csv}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    setting = _setting_from_args(args)
    specs = [PolicySpec.of(name) for name in args.policies]
    results = run_policy_comparison(setting, specs)
    summaries = {name: result.summary() for name, result in results.items()}
    print(format_metric_comparison(
        summaries, _COMPARE_METRICS,
        title=f"Policy comparison on {args.city} "
              f"({args.start_hour}:00-{args.end_hour}:00, scale {args.scale})"))
    telemetries = [result.telemetry for result in results.values()
                   if result.telemetry is not None]
    for telemetry in telemetries:
        print(format_telemetry_report(telemetry))
    if args.trace_out or any(t.spans for t in telemetries):
        # One campaign trace: every policy run is a cell, spans stamped with
        # their cell index (exactly what the executor's merge produces).
        merged = merge_traces([t.spans for t in telemetries],
                              cells=[t.header() for t in telemetries])
        if merged:
            print(format_trace_rollup(rollup(merged),
                                      title="campaign trace rollup (self time)"))
        if args.trace_out:
            count = write_trace_jsonl(args.trace_out, merged,
                                      header={"campaign": args.city,
                                              "cells": len(telemetries)})
            print(f"wrote trace JSONL ({count} events) to {args.trace_out}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    result = _FIGURE_FUNCTIONS[args.name]()
    print(f"[{result.figure_id}] {result.description}")
    print(result.rendered)
    return 0


def _backpressure_from_args(args: argparse.Namespace):
    from repro.service import BackpressureConfig

    try:
        return BackpressureConfig(
            queue_capacity=args.queue_capacity,
            high_water=args.high_water,
            decide_p99_budget=args.p99_budget,
            policy=args.backpressure_policy)
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _resilience_from_args(args: argparse.Namespace):
    from repro.resilience import build_resilience

    try:
        return build_resilience(
            matching_backend=args.matching_backend,
            path_backend=args.path_backend,
            latency_budget=args.latency_budget,
            faults=args.faults,
            seed=args.seed)
    except (ValueError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _print_resilience(snapshot: dict, indent: str = "  ") -> None:
    """Render a ResilienceManager snapshot as stats lines."""
    matching = snapshot["matching"]
    path = snapshot["path"]
    quality = snapshot["quality"]
    print(f"{indent}ladder rungs             "
          f"matching={matching['current']} path={path['current']}")
    print(f"{indent}demotions/recoveries     "
          f"{matching['demotions'] + path['demotions']}"
          f"/{matching['recoveries'] + path['recoveries']}")
    if quality["matching_samples"] or quality["path_samples"]:
        print(f"{indent}quality given up         "
              f"matching {quality['matching_delta_pct']:+.2f}% objective, "
              f"path stretch {quality['path_mean_stretch']:.3f}x")
    controller = snapshot.get("controller")
    if controller and controller.get("enabled"):
        print(f"{indent}controller               "
              f"budget {controller['latency_budget']}s, "
              f"{len(controller.get('events', []))} events")
    faults = snapshot.get("faults")
    if faults is not None:
        print(f"{indent}faults                   "
              f"{faults['declared']} declared, {faults['trips']} trips, "
              f"{len(faults['active'])} active")


def _print_service_stats(stats: dict) -> None:
    backpressure = stats["backpressure"]
    print(f"  windows stepped          {stats['windows']}")
    print(f"  orders seen              {stats['orders_seen']}")
    print(f"  admitted/deferred/shed   {backpressure['admitted']}"
          f"/{backpressure['deferred']}/{backpressure['shed']}")
    if backpressure.get("degradation_holds"):
        print(f"  degradation holds        "
              f"{backpressure['degradation_holds']}")
    print(f"  late rejections          {stats['late_rejections']}")
    decide = stats["decide_seconds"]
    if decide["count"]:
        print(f"  decide p50/p99 (s)       "
              f"{decide['p50']:.4f}/{decide['p99']:.4f}")
    resilience = stats.get("resilience")
    if resilience is not None:
        _print_resilience(resilience)


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.executor import result_fingerprint
    from repro.experiments.runner import materialize, setting_config
    from repro.service import (
        DispatchService,
        WallClock,
        recorded_stream,
        remaining_orders,
        replay_orders_wall,
        serve_recorded,
    )

    backpressure = _backpressure_from_args(args)
    resilience = _resilience_from_args(args)
    if args.restore:
        service = DispatchService.from_checkpoint(
            args.restore, backpressure=backpressure, resilience=resilience)
        origin = f"checkpoint {args.restore}"
    else:
        setting = _setting_from_args(args)
        scenario, oracle = materialize(setting)
        # The cached oracle may carry a repair_fraction override from an
        # earlier run_setting in this process; serve never sets one.
        oracle.__dict__.pop("repair_fraction", None)
        service = DispatchService(
            scenario, args.policy, config=setting_config(setting),
            oracle=oracle, backpressure=backpressure, resilience=resilience)
        origin = f"{args.city} scale {args.scale}"
    config = service.engine.config
    if args.clock == "wall":
        service.set_clock(WallClock(config.start, rate=args.rate))

    async def _serve():
        if args.clock == "wall":
            stream = remaining_orders(
                service, recorded_stream(service.engine.scenario, config))
            feeder = asyncio.create_task(replay_orders_wall(service, stream))
            try:
                return await service.run(max_windows=args.stop_after_windows)
            finally:
                feeder.cancel()
                try:
                    await feeder
                except asyncio.CancelledError:
                    pass
        return await serve_recorded(service,
                                    max_windows=args.stop_after_windows)

    result = asyncio.run(_serve())
    print(f"repro serve: {origin}, policy {service.engine.policy.name}, "
          f"{args.clock} clock")
    _print_service_stats(service.stats())
    if result is not None:
        print(f"  result fingerprint       {result_fingerprint(result)}")
        for key, value in result.summary().items():
            print(f"  {key:<24} {value:.4f}")
    else:
        print("  paused before the horizon completed")
        if args.checkpoint_out:
            service.checkpoint(args.checkpoint_out)
            print(f"  wrote checkpoint to {args.checkpoint_out}")
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import pathlib
    import time

    from repro.experiments.executor import result_fingerprint
    from repro.experiments.runner import materialize, setting_config
    from repro.service import DispatchService, serve_recorded

    backpressure = _backpressure_from_args(args)
    setting = _setting_from_args(args)
    scenario, oracle = materialize(setting)
    oracle.__dict__.pop("repair_fraction", None)
    service = DispatchService(
        scenario, args.policy, config=setting_config(setting), oracle=oracle,
        backpressure=backpressure, resilience=_resilience_from_args(args))
    started = time.perf_counter()
    result = asyncio.run(serve_recorded(service))
    elapsed = time.perf_counter() - started
    stats = service.stats()
    counters = stats["backpressure"]
    rate = counters["admitted"] / elapsed if elapsed > 0 else float("inf")
    report = {
        "city": args.city,
        "policy": args.policy,
        "scale": args.scale,
        "orders_submitted": counters["submitted"],
        "orders_admitted": counters["admitted"],
        "deferred": counters["deferred"],
        "shed": counters["shed"],
        "late_rejections": stats["late_rejections"],
        "windows": stats["windows"],
        "elapsed_seconds": elapsed,
        "orders_per_second": rate,
        "decide_seconds": stats["decide_seconds"],
        "fingerprint": (result_fingerprint(result)
                        if result is not None else None),
    }
    print(f"repro loadgen: {counters['admitted']} orders in {elapsed:.2f}s "
          f"-> {rate:.1f} orders/sec sustained")
    _print_service_stats(stats)
    if report["fingerprint"] is not None:
        print(f"  result fingerprint       {report['fingerprint']}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2) + "\n",
                                           encoding="utf-8")
        print(f"wrote loadgen report to {args.json}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    set_default_jobs(args.jobs)
    if args.log_level is not None:
        try:
            obs.configure_logging(args.log_level)
        except ValueError as exc:
            parser.error(str(exc))
    obs_mode = getattr(args, "obs", "off")
    if getattr(args, "trace_out", None) and obs_mode != "trace":
        parser.error("--trace-out requires --obs trace")
    obs.set_mode(obs_mode)
    if args.command in _SIGNAL_COMMANDS:
        _install_signal_handlers()
    try:
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "figure":
            return _command_figure(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "loadgen":
            return _command_loadgen(args)
    except GracefulExit as exc:
        return _graceful_exit(args, exc)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
