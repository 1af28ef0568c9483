"""FoodMatch reproduction: batching and matching for food delivery in dynamic road networks.

This package reproduces the system described in "Batching and Matching for
Food Delivery in Dynamic Road Networks" (Joshi et al., ICDE 2021).  The
public API is organised by layer:

* :mod:`repro.network` — time-dependent road networks, shortest paths, hub
  labels, geometry and synthetic city generators.
* :mod:`repro.orders` — orders, vehicles, batches, route plans and costs.
* :mod:`repro.workload` — synthetic order/vehicle workloads mirroring the
  paper's Swiggy and GrubHub datasets.
* :mod:`repro.core` — the FoodMatch algorithm and the Greedy, vanilla
  Kuhn–Munkres and Reyes et al. baselines.
* :mod:`repro.sim` — the accumulation-window day simulator and metrics.
* :mod:`repro.traffic` — dynamic-traffic events (incidents, closures, zonal
  rush hours) replayed live with incremental distance-index repair.
* :mod:`repro.fleet` — driver-lifecycle dynamics (shift schedules, surge
  onboarding and zonal drains, stochastic offer rejection, kitchen delays,
  idle repositioning).
* :mod:`repro.experiments` — runners, parameter sweeps and per-figure
  reproduction harnesses.
* :mod:`repro.service` — the engine rehosted as an always-on asyncio
  dispatch service: clock drivers, checkpoint/restore and backpressure.

Quickstart::

    from repro import quickstart
    result = quickstart()
    print(result.summary())
"""

from repro.network import DistanceOracle, RoadNetwork, grid_city
from repro.orders import Batch, CostModel, Order, Vehicle
from repro.workload import CITY_A, CITY_B, CITY_C, GRUBHUB, generate_scenario
from repro.core import (
    FoodMatchConfig,
    FoodMatchPolicy,
    GreedyPolicy,
    KMPolicy,
    ReyesPolicy,
)
from repro.sim import SimulationConfig, SimulationResult, simulate
from repro.traffic import TrafficController, TrafficEvent, TrafficTimeline
from repro.fleet import (
    DriverBehavior,
    FleetController,
    FleetEvent,
    FleetPlan,
    FleetTimeline,
    ShiftSchedule,
)

__version__ = "1.6.0"


def quickstart(seed: int = 0):
    """Run a small end-to-end FoodMatch simulation and return its result.

    Generates a scaled-down City A lunch-hour workload, runs the full
    FoodMatch pipeline on it and returns the
    :class:`~repro.sim.metrics.SimulationResult`.
    """
    profile = CITY_A.scaled(0.4)
    scenario = generate_scenario(profile, seed=seed, start_hour=12, end_hour=13)
    oracle = DistanceOracle(scenario.network)
    cost_model = CostModel(oracle)
    policy = FoodMatchPolicy(cost_model)
    config = SimulationConfig(delta=profile.accumulation_window,
                              start=12 * 3600.0, end=13 * 3600.0)
    return simulate(scenario, policy, cost_model, config)


__all__ = [
    "RoadNetwork",
    "DistanceOracle",
    "grid_city",
    "Order",
    "Vehicle",
    "Batch",
    "CostModel",
    "CITY_A",
    "CITY_B",
    "CITY_C",
    "GRUBHUB",
    "generate_scenario",
    "FoodMatchConfig",
    "FoodMatchPolicy",
    "GreedyPolicy",
    "KMPolicy",
    "ReyesPolicy",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "TrafficEvent",
    "TrafficTimeline",
    "TrafficController",
    "ShiftSchedule",
    "FleetEvent",
    "FleetTimeline",
    "FleetPlan",
    "DriverBehavior",
    "FleetController",
    "quickstart",
    "__version__",
]
