"""Build and run experiment settings: scenario + policy + simulator.

The runner translates an :class:`ExperimentSetting` — city profile, scale,
simulated hours, accumulation window, fleet fraction — plus a
:class:`PolicySpec` into a finished
:class:`~repro.sim.metrics.SimulationResult`.  Scenario construction and the
distance oracle are cached per setting so that comparing several policies on
the same workload (the typical experiment) pays the setup cost once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.core.greedy import GreedyPolicy
from repro.core.km_baseline import KMPolicy
from repro.core.policy import AssignmentPolicy
from repro.core.reyes import ReyesPolicy
from repro.network.distance_oracle import DistanceOracle
from repro.network.graph import SECONDS_PER_HOUR
from repro.obs.log import get_logger
from repro.orders.costs import CostModel
from repro.resilience.manager import build_resilience
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.metrics import SimulationResult
from repro.workload.city import CityProfile
from repro.workload.generator import Scenario, generate_scenario

_log = get_logger("experiments.runner")


@dataclass(frozen=True)
class PolicySpec:
    """A named policy plus its constructor keyword arguments."""

    name: str
    options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **options) -> PolicySpec:
        return cls(name, tuple(sorted(options.items())))

    def options_dict(self) -> dict[str, object]:
        return dict(self.options)


@dataclass(frozen=True)
class ExperimentSetting:
    """Everything needed to materialise one simulated day.

    Attributes
    ----------
    profile:
        City profile (or its name, resolved against ``CITY_PROFILES``).
    scale:
        Workload scale factor applied to the profile (orders, vehicles,
        restaurants).  Benchmarks use small scales so the full harness runs
        in minutes.
    start_hour, end_hour:
        Simulated portion of the day.  The defaults cover the lunch peak,
        which is where the paper's per-slot figures show the interesting
        behaviour.
    delta:
        Accumulation window Δ in seconds; ``None`` uses the profile default.
    vehicle_fraction:
        Fraction of the (scaled) fleet made available (Fig. 7 sweeps this).
    seed:
        Workload seed; experiments average over several seeds.
    traffic:
        Dynamic-traffic intensity (``"none"``, ``"light"``, ``"heavy"`` or
        ``"severe"`` — which fully severs half its closures), or a numeric
        events-per-hour density (the ``event_density`` sweep's knob);
        non-``"none"`` settings generate an event timeline the simulator
        replays through a :class:`~repro.traffic.TrafficController`.
    fleet:
        Driver-lifecycle mode (``"none"``, ``"shifts"`` or ``"full"``);
        non-``"none"`` settings generate a fleet plan (shift schedules,
        supply events, behaviour model) the simulator replays through a
        :class:`~repro.fleet.FleetController`.  ``"none"`` is bit-for-bit
        the static always-online fleet of earlier revisions.
    repair_fraction:
        Optional override of
        :attr:`DistanceOracle.repair_fraction
        <repro.network.distance_oracle.DistanceOracle.repair_fraction>` for
        this setting's cached oracle — the fraction of hub labels that may
        be incrementally repaired before a traffic update falls back to a
        full index rebuild.  Long heavy-traffic sweeps raise it to keep the
        shared oracle on the scoped-repair path.
    event_resolution:
        ``"window"`` (default) applies traffic/fleet events at window
        boundaries only; ``"continuous"`` drains them at their exact
        timestamps through the event clock (:mod:`repro.sim.clock`).
    matching_backend, path_backend:
        Pin the resilience ladders' starting rung (``None`` = top rung,
        plain un-laddered kernels when every resilience knob is unset) —
        see :mod:`repro.resilience`.
    latency_budget:
        Per-window decision-latency budget in seconds; enables the
        degradation controller.  ``None`` disables it.
    faults:
        Fault plan for :class:`~repro.resilience.FaultInjector` as JSON
        text or a file path (kept as a string so the setting stays
        hashable and picklable for executor workers).
    """

    profile: CityProfile
    scale: float = 0.25
    start_hour: int = 12
    end_hour: int = 14
    delta: float | None = None
    vehicle_fraction: float = 1.0
    seed: int = 0
    traffic: str | float = "none"
    fleet: str = "none"
    repair_fraction: float | None = None
    event_resolution: str = "window"
    matching_backend: str | None = None
    path_backend: str | None = None
    latency_budget: float | None = None
    faults: str | None = None

    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else self.profile.accumulation_window

    def with_seed(self, seed: int) -> ExperimentSetting:
        return replace(self, seed=seed)


def available_policies() -> list[str]:
    """Names accepted by :func:`build_policy`."""
    return ["foodmatch", "greedy", "km", "reyes",
            "foodmatch-br", "foodmatch-br-bfs", "foodmatch-br-bfs-a"]


def build_policy(name: str, cost_model: CostModel, **options) -> AssignmentPolicy:
    """Instantiate a policy by name.

    The three ``foodmatch-*`` variants correspond to the ablation layers of
    Fig. 7(a): batching & reshuffling only, plus best-first search, plus
    angular distance (which equals full FoodMatch).
    """
    key = name.lower()
    if key == "greedy":
        return GreedyPolicy(cost_model, **options)
    if key == "km":
        return KMPolicy(cost_model, **options)
    if key == "reyes":
        return ReyesPolicy(cost_model, **options)
    if key == "foodmatch":
        return FoodMatchPolicy(cost_model, FoodMatchConfig(**options))
    if key == "foodmatch-br":
        config = FoodMatchConfig(use_bfs=False, use_angular=False, **options)
        return FoodMatchPolicy(cost_model, config)
    if key == "foodmatch-br-bfs":
        config = FoodMatchConfig(use_angular=False, **options)
        return FoodMatchPolicy(cost_model, config)
    if key == "foodmatch-br-bfs-a":
        return FoodMatchPolicy(cost_model, FoodMatchConfig(**options))
    raise ValueError(f"unknown policy {name!r}; known: {available_policies()}")


# --------------------------------------------------------------------------- #
# scenario / oracle caching
# --------------------------------------------------------------------------- #
_SCENARIO_CACHE: dict[tuple, tuple[Scenario, DistanceOracle]] = {}

def _setting_key(setting: ExperimentSetting) -> tuple:
    # Deliberately excludes the run-time knobs (repair_fraction,
    # event_resolution, and the resilience fields) — they change how a run
    # executes, not which scenario/oracle pair it executes against, so
    # settings differing only in those share one cached materialisation.
    return (setting.profile.name, round(setting.scale, 6), setting.start_hour,
            setting.end_hour, round(setting.vehicle_fraction, 6), setting.seed,
            setting.traffic, setting.fleet)


def materialize(setting: ExperimentSetting) -> tuple[Scenario, DistanceOracle]:
    """Build (or fetch from cache) the scenario and distance oracle of a setting."""
    key = _setting_key(setting)
    cached = _SCENARIO_CACHE.get(key)
    if cached is not None:
        return cached
    profile = setting.profile.scaled(setting.scale)
    if setting.vehicle_fraction != 1.0:
        reduced = max(1, round(profile.num_vehicles * setting.vehicle_fraction))
        profile = profile.with_vehicles(reduced)
    _log.debug("materialising %s scale=%s hours=%d-%d seed=%d traffic=%s "
               "fleet=%s", setting.profile.name, setting.scale,
               setting.start_hour, setting.end_hour, setting.seed,
               setting.traffic, setting.fleet)
    scenario = generate_scenario(profile, seed=setting.seed,
                                 start_hour=setting.start_hour,
                                 end_hour=setting.end_hour,
                                 traffic=setting.traffic,
                                 fleet=setting.fleet)
    oracle = DistanceOracle(scenario.network)
    # Build the labels here, so no caller's timer pays for the first build.
    oracle.refresh()
    _SCENARIO_CACHE[key] = (scenario, oracle)
    return scenario, oracle


def clear_cache() -> None:
    """Drop all cached scenarios (used by tests that tune cache behaviour)."""
    _SCENARIO_CACHE.clear()


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
def setting_config(setting: ExperimentSetting) -> SimulationConfig:
    """The :class:`SimulationConfig` a setting's run derives: its window
    length, simulated hours and event resolution."""
    return SimulationConfig(
        delta=setting.resolved_delta(),
        start=setting.start_hour * SECONDS_PER_HOUR,
        end=setting.end_hour * SECONDS_PER_HOUR,
        event_resolution=setting.event_resolution,
    )


def run_setting(setting: ExperimentSetting, policy_spec: PolicySpec,
                ) -> SimulationResult:
    """Run one policy on one materialised setting and return its result."""
    scenario, oracle = materialize(setting)
    if setting.repair_fraction is not None:
        oracle.repair_fraction = setting.repair_fraction
    else:
        # The oracle is cached and shared; drop any instance override a
        # previous run with an explicit repair_fraction left behind so this
        # run sees the documented class default again.
        oracle.__dict__.pop("repair_fraction", None)
    cost_model = CostModel(oracle)
    policy = build_policy(policy_spec.name, cost_model, **policy_spec.options_dict())
    resilience = build_resilience(
        matching_backend=setting.matching_backend,
        path_backend=setting.path_backend,
        latency_budget=setting.latency_budget,
        faults=setting.faults,
        seed=setting.seed,
    )
    return simulate(scenario, policy, cost_model, setting_config(setting),
                    resilience=resilience)


def run_averaged(setting: ExperimentSetting, policy_spec: PolicySpec,
                 seeds: Sequence[int],
                 jobs: int | None = None) -> list[SimulationResult]:
    """Run a policy over several workload seeds (cross-validation analogue).

    ``jobs`` fans the seeds out over the process-pool executor
    (:mod:`repro.experiments.executor`); ``None`` uses the session default
    (1 = serial).  Both paths run each seed as an executor cell — which
    resets a previously traffic-mutated cached oracle to its bit-pristine
    state first — so parallel output is bit-identical to serial.
    """
    from repro.experiments.executor import ExperimentCell, run_cells

    cells = [ExperimentCell(setting.with_seed(seed), policy_spec, tag=seed)
             for seed in seeds]
    return [cell_result.require()
            for cell_result in run_cells(cells, jobs=jobs)]


def run_policy_comparison(setting: ExperimentSetting,
                          policy_specs: Sequence[PolicySpec],
                          jobs: int | None = None,
                          ) -> dict[str, SimulationResult]:
    """Run several policies on the *same* workload and return results by name.

    The policies share one cached scenario and distance oracle; before every
    run the oracle's traffic state is reset (overrides cleared through the
    exact repair path, cumulative repair accounting and memoised caches
    dropped) so each policy replays the timeline from the same pristine
    state — including the first one, which would otherwise inherit whatever
    overrides an earlier run of the same cached setting left applied at its
    end of day.  Long heavy-traffic comparisons therefore no longer
    accumulate repairs until they drift into periodic full index rebuilds.

    With ``jobs > 1`` (or a session default set through
    :func:`repro.experiments.executor.set_default_jobs`) the policies fan
    out over worker processes instead; each worker applies the same
    pristine-state reset, so the results are bit-identical to the serial
    loop.
    """
    from repro.experiments.executor import ExperimentCell, resolve_jobs, run_cells

    if resolve_jobs(jobs) > 1:
        cells = [ExperimentCell(setting, spec) for spec in policy_specs]
        return {cell_result.cell.policy.name: cell_result.require()
                for cell_result in run_cells(cells, jobs=jobs)}
    results: dict[str, SimulationResult] = {}
    _, oracle = materialize(setting)
    for spec in policy_specs:
        oracle.reset_traffic_state()
        results[spec.name] = run_setting(setting, spec)
    return results


def improvement_percent(baseline: float, candidate: float, higher_is_better: bool = False,
                        ) -> float:
    """Relative improvement of ``candidate`` over ``baseline`` (Eq. 9)."""
    if baseline == 0:
        return 0.0
    if higher_is_better:
        return 100.0 * (candidate - baseline) / baseline
    return 100.0 * (baseline - candidate) / baseline


__all__ = [
    "PolicySpec",
    "ExperimentSetting",
    "available_policies",
    "build_policy",
    "materialize",
    "clear_cache",
    "setting_config",
    "run_setting",
    "run_averaged",
    "run_policy_comparison",
    "improvement_percent",
]
