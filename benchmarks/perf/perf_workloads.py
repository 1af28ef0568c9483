"""The five fixed workloads, one measured run of a workload, and its checks.

A *run* (:func:`measure`) is what ``run.py --workload NAME`` executes in its
own process: set the world up several times (``setup_s``), then replay the
same scenario pass after pass, each on a world and engine set up afresh,
until ``seconds`` have elapsed, check every pass, and reduce the passes to
metrics.  Timed passes use only public entry points; with ``trace=True``
every other pass runs under :class:`perf_trace.Tracer`, which is imported
only then.

Every pass of a run does bit-identical work (asserted through
``result_fingerprint`` and the exact counters), so wall-clock noise is
one-sided and the reductions are minima: the per-window decision series is
the per-window-index minimum over passes before any percentile is taken, and
throughput divides by the wall rebuilt from those minima.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.experiments.executor import result_fingerprint
from repro.experiments.runner import build_policy
from repro.network.distance_oracle import DistanceOracle
from repro.orders.costs import CostModel
from repro.resilience.manager import build_resilience
from repro.seeding import spawn_seed
from repro.service.loop import DispatchService, serve_recorded
from repro.sim.engine import SimulationConfig, Simulator
from repro.workload.city import CITY_A, CITY_B, CityProfile, metro_profile
from repro.workload.generator import generate_scenario

#: The benchmark's set-up runs this many times before a run's first pass and
#: once more before every further pass; ``setup_s`` is the median of them all.
SETUP_REPEATS = 5

#: Horizon of every workload under ``--smoke`` (the tier-1 test), in minutes.
SMOKE_MINUTES = 6

#: Every workload's order intake opens at noon.
START_HOUR = 12

#: ``seed`` redraws the arrival times of this many seconds at the end of intake.
TAIL_SECONDS = 180.0


@dataclass(frozen=True)
class Workload:
    """One fixed operating point.  ``name`` is a stable identifier."""

    name: str
    why: str
    profile: CityProfile = field(repr=False)
    policy: str
    minutes: int
    delta: float
    traffic: str = "none"
    fleet: str = "none"
    event_resolution: str = "window"
    #: host the engine in ``DispatchService`` and checkpoint/restore halfway
    service: bool = False
    #: windows simulated after order intake closes, so that an offer a driver
    #: declines in the last intake window can still be re-matched
    cooldown_windows: int = 0

    def definition(self) -> dict:
        """The workload as plain data (README, ``latest.json``)."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name != "profile"}
        out.update(city=self.profile.name, vehicles=self.profile.num_vehicles,
                   restaurants=self.profile.num_restaurants,
                   orders_per_day=self.profile.orders_per_day,
                   start_hour=START_HOUR, tail_seconds=TAIL_SECONDS)
        return out


#: CityB at half scale: the issue's full-size CityB lunch costs ~10 s a pass
#: on the reference host, and a run must fit >= 3 passes in ~10 s.
_CITY_B = CITY_B.scaled(0.5)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cityb_lunch",
        why="Headline city at the hot operating point: sparsified FoodGraph "
            "and batching together, route planner dominant.",
        profile=_CITY_B, policy="foodmatch", minutes=30, delta=180.0),
    Workload(
        name="scarce_fleet",
        why="Same order stream with under a quarter of the fleet: the regime "
            "batching exists for; planner reached through merge_cost.",
        profile=_CITY_B.with_vehicles(40), policy="foodmatch", minutes=30,
        delta=180.0),
    Workload(
        name="km_dense",
        why="Same stream under the KM baseline: full quadratic FoodGraph and "
            "dense matching, bypassing batching, BFS and the explorer.",
        profile=_CITY_B, policy="km", minutes=60, delta=180.0),
    Workload(
        name="metro_dynamic",
        why="900-node metro with heavy traffic, full fleet dynamics and the "
            "continuous event clock: the only workload where network works "
            "hard and set-up is not trivial.",
        profile=metro_profile(rows=30, cols=30, name="Metro900",
                              orders_per_thousand_nodes=1200.0),
        policy="foodmatch", minutes=15, cooldown_windows=5, delta=180.0,
        traffic="heavy", fleet="full", event_resolution="continuous"),
    Workload(
        name="service_replay",
        why="Many cheap one-minute windows hosted by DispatchService with an "
            "inert resilience manager and a mid-run checkpoint/restore: "
            "per-window fixed costs are as visible as they get.",
        profile=CITY_A, policy="foodmatch", minutes=60, delta=60.0,
        service=True),
)}


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
@dataclass
class World:
    workload: Workload
    scenario: object
    config: SimulationConfig


def build_world(workload: Workload, day: int, seed: int, smoke: bool = False,
                span=nullcontext) -> World:
    """Network, the scenario of ``day`` and the ``seed``-drawn tail of its orders.

    ``day`` is the seed handed to ``generate_scenario``: it draws the whole
    day (restaurants, fleet, every order).  ``seed`` only redraws when the
    orders of the intake's last ``TAIL_SECONDS`` were placed.
    """
    minutes = min(workload.minutes, SMOKE_MINUTES) if smoke else workload.minutes
    start = START_HOUR * 3600.0
    intake_end = start + minutes * 60.0
    cooldown = min(workload.cooldown_windows, 1) if smoke else workload.cooldown_windows
    config = SimulationConfig(
        delta=workload.delta, start=start, end=intake_end + cooldown * workload.delta,
        event_resolution=workload.event_resolution)
    with span("network.graph_build"):
        network = workload.profile.network_factory()
    with span("workload.generate"):
        scenario = generate_scenario(
            workload.profile, seed=day, start_hour=START_HOUR,
            end_hour=START_HOUR + -(-minutes // 60),
            traffic=workload.traffic, fleet=workload.fleet, network=network)
        scenario = redraw_tail(scenario, seed, config, intake_end)
    return World(workload, scenario, config)


def redraw_tail(scenario, seed: int, config: SimulationConfig, intake_end: float):
    """Close order intake at ``intake_end`` and redraw its tail's arrival times.

    ``seed`` redraws, uniformly within its own accumulation window, when each
    order of the intake's last ``TAIL_SECONDS`` was placed.  Window
    membership is kept, so every window before the tail is the same for
    every seed and only the tail's decisions (and the drain) differ.  The
    tail is all ``seed`` may touch in a run whose metrics are compared across
    seeds: the closed assignment loop amplifies *any* earlier change — a
    fresh day, or +-1 s of jitter on every order — into swings of exact work
    (plan calls, no clock involved) beyond every bound within a few windows
    (see README, "What the seed draws").
    """
    rng = random.Random(spawn_seed(seed, "tail-arrivals"))
    tail_start = intake_end - TAIL_SECONDS
    orders = []
    for order in scenario.orders:
        if order.placed_at >= intake_end:
            continue
        if order.placed_at >= tail_start:
            window = (order.placed_at - config.start) // config.delta
            window_start = config.start + window * config.delta
            order = dataclasses.replace(
                order, placed_at=window_start + rng.random() * (config.delta - 1e-3))
        orders.append(order)
    orders.sort(key=lambda o: (o.placed_at, o.order_id))
    return dataclasses.replace(scenario, orders=orders)


def new_engine(world: World, span=nullcontext):
    """A cold engine: fresh oracle, caches, cost model, policy, vehicles."""
    workload = world.workload
    with span("network.oracle_build"):
        oracle = DistanceOracle(world.scenario.network)
    if workload.service:
        return DispatchService(
            world.scenario, workload.policy, config=world.config, oracle=oracle,
            resilience=build_resilience(latency_budget=workload.delta))
    cost_model = CostModel(oracle)
    return Simulator(world.scenario, build_policy(workload.policy, cost_model),
                     cost_model, world.config)


# --------------------------------------------------------------------------- #
# one pass
# --------------------------------------------------------------------------- #
@dataclass
class Pass:
    wall: float
    result: object
    fingerprint: str
    #: counters the program keeps itself; identical in every pass of a run
    exact: dict[str, float]
    checkpoint_bytes: int = 0

    @property
    def decisions(self) -> list[float]:
        return [w.decision_seconds for w in self.result.windows]


def _engine_counters(engines: list[Simulator]) -> dict[str, float]:
    out = {"network.point_queries": 0, "network.path_queries": 0,
           "network.sssp_runs": 0, "orders.plan_calls": 0,
           "network.label_bytes": 0, "resilience.demotions": 0}
    hits = misses = 0
    for engine in engines:
        oracle = engine.cost_model.oracle
        caches = oracle.cache_info()
        out["network.point_queries"] += oracle.query_count
        out["network.path_queries"] += caches["path"]["hits"] + caches["path"]["misses"]
        out["network.sssp_runs"] += oracle.sssp_runs
        out["orders.plan_calls"] += engine.cost_model.plan_calls
        hits += caches["point"]["hits"]
        misses += caches["point"]["misses"]
        index = oracle.index_info()
        out["network.label_bytes"] = max(out["network.label_bytes"],
                                         index["bytes"] if index else 0)
        if engine.resilience is not None:
            out["resilience.demotions"] += engine.resilience.telemetry_meta()["demotions"]
    out["network.point_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def run_pass(world: World, engine, span=nullcontext) -> Pass:
    """Replay the scenario once on a cold engine (closed loop, one client).

    The service workload pauses halfway, round-trips a checkpoint through
    JSON text and resumes on the restored service; only the two serving
    legs count towards ``wall``.
    """
    checkpoint_bytes = 0
    began = time.perf_counter()
    if not world.workload.service:
        result = engine.run()
        wall = time.perf_counter() - began
        engines = [engine]
    else:
        windows = int((world.config.end - world.config.start) // world.config.delta)
        paused = asyncio.run(serve_recorded(engine, max_windows=windows // 2))
        wall = time.perf_counter() - began
        if paused is not None:
            raise RuntimeError("service ran past its pause point")
        with span("service.checkpoint"):
            document = json.dumps(engine.checkpoint())
        checkpoint_bytes = len(document)
        with span("service.restore"):
            restored = DispatchService.from_checkpoint(
                json.loads(document),
                resilience=build_resilience(latency_budget=world.workload.delta))
        began = time.perf_counter()
        result = asyncio.run(serve_recorded(restored))
        wall += time.perf_counter() - began
        engines = [engine.engine, restored.engine]
    exact = _engine_counters(engines)
    # Traffic overrides live on the shared network; the next cold oracle
    # must be built over pristine weights.
    for used in engines:
        used.cost_model.oracle.reset_traffic_state()
    exact.update({
        "workload.orders": result.num_orders,
        "sim.windows": len(result.windows),
        "sim.delivered": len(result.delivered_orders),
        "fleet.declined_offers": result.total_declined_offers(),
    })
    return Pass(wall, result, result_fingerprint(result), exact, checkpoint_bytes)


# --------------------------------------------------------------------------- #
# checks and reductions (pure)
# --------------------------------------------------------------------------- #
def check_outcomes(result, placed_ids) -> list[str]:
    """Order conservation: one outcome per placed order, delivered xor rejected."""
    failures = []
    placed = sorted(placed_ids)
    if sorted(result.outcomes) != placed:
        failures.append(f"outcomes cover {len(result.outcomes)} orders, "
                        f"{len(placed)} were placed")
    delivered = rejected = 0
    for order_id, outcome in result.outcomes.items():
        if outcome.delivered == outcome.rejected:
            state = "both" if outcome.delivered else "neither"
            failures.append(f"order {order_id} is {state} delivered and rejected")
        delivered += outcome.delivered
        rejected += outcome.rejected
        if outcome.delivered and outcome.xdt < 0:
            failures.append(f"order {order_id} has negative XDT {outcome.xdt}")
    if delivered + rejected != len(placed):
        failures.append(f"delivered {delivered} + rejected {rejected} != "
                        f"placed {len(placed)}")
    return failures


def check_passes(passes: list[Pass]) -> list[str]:
    """Every pass of a run did the same work and produced the same outcome."""
    first = passes[0]
    failures = []
    for idx, other in enumerate(passes[1:], start=2):
        if other.fingerprint != first.fingerprint:
            failures.append(f"pass {idx} fingerprint {other.fingerprint[:12]} != "
                            f"pass 1 {first.fingerprint[:12]}")
        failures.extend(f"pass {idx} count {key}={other.exact[key]} != pass 1 {value}"
                        for key, value in first.exact.items()
                        if other.exact[key] != value)
    return failures


def denoised_windows(decision_series: list[list[float]]) -> list[float]:
    """Per-window-index minimum over passes (window k repeats bit-identically)."""
    return [min(samples) for samples in zip(*decision_series, strict=True)]


def noise_share(walls: list[float]) -> float:
    """(median wall - min wall) / min wall: how settled the passes were."""
    return (statistics.median(walls) - min(walls)) / min(walls)


def denoised_wall(passes: list[Pass]) -> float:
    """The pass as fast as each of its parts was ever seen.

    Sum of the de-noised window decisions plus the smallest remainder (wall
    minus decisions: vehicle movement, ingest, traffic repair, the service
    loop) any pass showed.  Applies the per-window minimum to throughput too;
    the minimum of whole-pass walls lets one slow window spoil a pass.
    """
    windows = denoised_windows([p.decisions for p in passes])
    return sum(windows) + min(p.wall - sum(p.decisions) for p in passes)


def end_to_end_metrics(passes: list[Pass], setups: list[float]) -> dict[str, dict]:
    best = denoised_wall(passes)
    result = passes[0].result
    windows = denoised_windows([p.decisions for p in passes])
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "orders_per_s": {"value": result.num_orders / best, "unit": "orders/s"},
        "decide_p50_ms": {"value": statistics.median(windows) * 1e3, "unit": "ms"},
        "decide_peak_ms": {"value": max(windows) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
        "mean_delivery_min": {"value": result.mean_delivery_minutes(), "unit": "min"},
        "delivered_share": {"value": len(result.delivered_orders) / result.num_orders,
                            "unit": "ratio"},
    }


# --------------------------------------------------------------------------- #
# per-layer metrics from a traced pass
# --------------------------------------------------------------------------- #
#: Per-layer metrics that are not clock readings but still do not repeat
#: exactly; every other ``count``/yield metric does (``"exact": true`` in
#: ``latest.json``) and may carry a claim on its own.
INEXACT_COUNTS = frozenset({"service.checkpoint_bytes",
                            "service.overhead_vs_batch_share", "trace.overhead_share",
                            "trace.unattributed_share", "trace.noise_share"})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(best: Pass, spans: list[tuple], counts: dict, setup_spans: list[tuple],
                  overhead: float, service_overhead: float,
                  noise: float) -> tuple[dict[str, dict], list[str]]:
    """Reduce the fastest traced pass to the per-layer metrics, and check it.

    ``overhead`` (traced against untraced passes of the same run),
    ``service_overhead`` (service against batch wall) and ``noise`` (the
    less settled of the two kinds of pass) are comparisons between passes
    the caller made.
    """
    from perf_trace import child_overrun, layer_totals, root_seconds

    totals = layer_totals(spans)
    setup = layer_totals(setup_spans)

    def busy(name, source=totals):
        return source.get(name, {}).get("busy", 0.0)

    def self_s(name):
        return totals.get(name, {}).get("self", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    exact = best.exact
    merge_calls = counts.get("CostModel.merge_cost", 0)
    evaluations = counts.get("core.foodgraph_cost_evaluations", 0)
    edges = counts.get("core.foodgraph_edges", 0)
    attributed = root_seconds(spans) - busy("service.checkpoint") - busy("service.restore")
    seconds = {
        "workload.generate_s": busy("workload.generate", setup),
        "network.graph_build_s": busy("network.graph_build", setup),
        "network.oracle_build_s": busy("network.oracle_build", setup),
        "network.block_query_s": busy("network.block_query"),
        "network.traffic_update_s": busy("network.traffic_update"),
        "orders.marginal_cost_s": busy("orders.marginal_cost"),
        "orders.make_batch_s": busy("orders.make_batch"),
        "core.assign_s": busy("core.assign"),
        "core.assign_self_s": self_s("core.assign"),
        "core.batching_s": busy("core.batching"),
        "core.batching_self_s": self_s("core.batching"),
        "core.foodgraph_s": busy("core.foodgraph"),
        "core.foodgraph_self_s": self_s("core.foodgraph"),
        "core.matching_s": busy("core.matching"),
        "sim.step_window_s": busy("sim.step_window"),
        "sim.step_self_s": self_s("sim.step_window"),
        "sim.finalize_s": busy("sim.finalize"),
        "traffic.advance_s": busy("traffic.advance"),
        "fleet.advance_s": busy("fleet.advance"),
        "fleet.screen_offers_s": busy("fleet.screen_offers"),
        "fleet.reposition_s": busy("fleet.reposition"),
        "service.run_s": busy("service.run"),
        "service.loop_self_s": self_s("service.run"),
        "service.checkpoint_s": busy("service.checkpoint"),
        "service.restore_s": busy("service.restore"),
        "resilience.hooks_s": busy("resilience.hooks"),
        "resilience.ladder_matching_s": busy("resilience.ladder_matching"),
        "trace.wall_s": best.wall,
    }
    numbers = {
        "workload.orders": exact["workload.orders"],
        "network.label_bytes": exact["network.label_bytes"],
        "network.block_query_calls": calls("network.block_query"),
        "network.point_queries": exact["network.point_queries"],
        "network.path_queries": exact["network.path_queries"],
        "network.sssp_runs": exact["network.sssp_runs"],
        "network.traffic_update_calls": calls("network.traffic_update"),
        "network.label_repairs": counts.get("network.label_repairs", 0),
        "network.label_rebuilds": counts.get("network.label_rebuilds", 0),
        "network.traffic_mutated_edges": counts.get("network.traffic_mutated_edges", 0),
        "orders.marginal_cost_calls": calls("orders.marginal_cost"),
        "orders.make_batch_calls": calls("orders.make_batch"),
        "orders.merge_cost_calls": merge_calls,
        "orders.plan_calls": exact["orders.plan_calls"],
        "core.batch_merges": counts.get("core.batch_merges", 0),
        "core.foodgraph_cost_evaluations": evaluations,
        "core.foodgraph_nodes_expanded": counts.get("core.foodgraph_nodes_expanded", 0),
        "core.foodgraph_edges": edges,
        "core.matched_pairs": counts.get("core.matched_pairs", 0),
        "sim.windows": exact["sim.windows"],
        "traffic.advance_calls": calls("traffic.advance"),
        "fleet.declined_offers": exact["fleet.declined_offers"],
        "service.submit_calls": counts.get("DispatchService.submit_order", 0),
        "service.checkpoint_bytes": best.checkpoint_bytes,
        "resilience.demotions": exact["resilience.demotions"],
        "trace.spans": len(spans),
    }
    ratios = {
        "network.point_cache_hit_ratio": exact["network.point_cache_hit_ratio"],
        "core.batch_merge_yield": _ratio(numbers["core.batch_merges"], merge_calls),
        "core.foodgraph_edge_yield": _ratio(edges, evaluations),
        "core.match_yield": _ratio(numbers["core.matched_pairs"], edges),
        "service.overhead_vs_batch_share": service_overhead,
        "trace.overhead_share": overhead,
        "trace.unattributed_share": (best.wall - attributed) / best.wall,
        "trace.noise_share": noise,
    }
    metrics = {name: {"value": value, "unit": "s"} for name, value in seconds.items()}
    metrics.update({name: {"value": value, "unit": "count"}
                    for name, value in numbers.items()})
    metrics.update({name: {"value": value, "unit": "ratio"}
                    for name, value in ratios.items()})
    metrics["sim.windows_per_s"] = {"value": exact["sim.windows"] / best.wall, "unit": "1/s"}
    metrics["sim.mean_xdt_s"] = {"value": best.result.mean_xdt_seconds(), "unit": "s"}

    failures = []
    decided = sum(best.decisions)
    assign = seconds["core.assign_s"]
    if abs(decided - assign) > 0.02 * max(decided, assign):
        failures.append(f"sum(decision_seconds)={decided:.4f}s and core.assign_s="
                        f"{assign:.4f}s differ by more than 2%")
    overrun = child_overrun(spans)
    if overrun is not None:
        failures.append(f"children of a {overrun} span outlast it")
    if ratios["trace.unattributed_share"] > 0.05:
        failures.append(f"unattributed time is "
                        f"{ratios['trace.unattributed_share']:.1%} of the traced pass")
    return metrics, failures


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
@dataclass
class Run:
    metrics: dict[str, dict]
    failures: list[str]
    attempted: int
    failed: int
    detail: dict
    spans: list[tuple] = field(default_factory=list)


def _traced_pass(world: World, engine=None):
    """One pass under a tracer of its own: ``(pass, spans, harvested counts)``."""
    from perf_trace import Tracer

    with Tracer() as tracer:
        current = run_pass(world, engine or new_engine(world), tracer.span)
    return current, tracer.spans, dict(tracer.counts)


def measure(name: str, day: int, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Run:
    """One run of one workload; see the module docstring."""
    workload = WORKLOADS[name]
    setups: list[float] = []

    def set_up():
        began = time.perf_counter()
        world = build_world(workload, day, seed, smoke)
        engine = new_engine(world)
        setups.append(time.perf_counter() - began)
        return world, engine

    for _ in range(1 if smoke else SETUP_REPEATS):
        world, engine = set_up()
    failures: list[str] = []

    batch = None
    if workload.service:
        # Reference computation: the service must reproduce batch run().
        batch_world = World(dataclasses.replace(workload, service=False),
                            world.scenario, world.config)
        batch = run_pass(batch_world, new_engine(batch_world))

    deadline = time.perf_counter() + seconds
    passes = [run_pass(world, engine)]
    pace = passes[0].wall
    spans: list[tuple] = []
    if not trace:
        # A pass starts only if half of it still fits.  Each is set up from
        # scratch, so that the set-up samples are spread over the whole run:
        # five in the first 0.3 s share one hiccup of the host.
        while time.perf_counter() + 0.5 * pace < deadline:
            passes.append(run_pass(*set_up()))
        metrics = end_to_end_metrics(passes, setups)
    else:
        from perf_trace import Tracer

        with Tracer() as tracer:
            traced_world = build_world(workload, day, seed, smoke, tracer.span)
            traced_engine = new_engine(traced_world, tracer.span)
        # Untraced and traced passes alternate, so both see the same minutes
        # of the host and the overhead compares equally many of each.
        recorded = [_traced_pass(traced_world, traced_engine)]
        while len(recorded) < (1 if smoke else 2) or time.perf_counter() + pace < deadline:
            passes.append(run_pass(world, new_engine(world)))
            recorded.append(_traced_pass(traced_world))
        if any(counts != recorded[0][2] for _, _, counts in recorded):
            failures.append("harvested counts differ between traced passes")
        traced = [entry[0] for entry in recorded]
        best, spans, counts = min(recorded, key=lambda entry: entry[0].wall)
        metrics, trace_failures = layer_metrics(
            best, spans, counts, tracer.spans,
            overhead=denoised_wall(traced) / denoised_wall(passes) - 1.0,
            service_overhead=(min(p.wall for p in passes) / batch.wall - 1.0
                              if batch else 0.0),
            noise=max(noise_share([p.wall for p in passes]),
                      noise_share([p.wall for p in traced])))
        failures += trace_failures
        passes += traced

    first = passes[0]
    failures += check_passes(passes)
    failures += check_outcomes(first.result, [
        o.order_id for o in world.scenario.orders
        if world.config.start <= o.placed_at < world.config.end])
    if batch is not None:
        if batch.fingerprint != first.fingerprint:
            failures.append("service replay fingerprint differs from batch "
                            "Simulator.run() on the same scenario")
        if first.exact["resilience.demotions"]:
            failures.append("the inert resilience manager demoted a ladder")
    walls = [p.wall for p in passes]
    orders = first.result.num_orders
    failed = orders - len(first.result.delivered_orders)
    detail = {
        "workload": name, "day": day, "seed": seed, "trace": trace,
        "passes": len(passes), "walls_s": walls, "noise_share": noise_share(walls),
        "fingerprint": first.fingerprint, "exact": first.exact,
        "mean_xdt_s": first.result.mean_xdt_seconds(), "failed_share": failed / orders,
        "windows": len(first.result.windows), "failures": failures,
    }
    return Run(metrics, failures, attempted=orders, failed=failed,
               detail=detail, spans=spans)
