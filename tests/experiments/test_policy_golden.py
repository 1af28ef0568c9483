"""Golden fingerprints of every policy on one full CityA lunch hour.

Each policy runs CityA, seed 3, 12:00-13:00 on the default distance oracle,
and its :func:`~repro.experiments.executor.result_fingerprint` must keep the
prefix pinned below.  The fingerprint hashes every order outcome, window
record and vehicle total, so a change that claims to move no decision —
another search path, another distance source for the same travel times —
is held to that claim for the baselines too, not only for the FoodMatch
workloads of the perf yardstick.
"""

import functools

import pytest

from repro.experiments.executor import result_fingerprint
from repro.experiments.runner import build_policy
from repro.network.distance_oracle import DistanceOracle
from repro.orders.costs import CostModel
from repro.sim.engine import SimulationConfig, simulate
from repro.workload.city import CITY_A
from repro.workload.generator import generate_scenario

GOLDEN = {
    "greedy": "af8594b83da0",
    "reyes": "a0bea9cf7bc1",
    "foodmatch": "f89ee6d8ba7a",
    "km": "4baeff85b8e9",
}


@functools.cache
def _scenario():
    return generate_scenario(CITY_A, seed=3, start_hour=12, end_hour=13)


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_lunch_hour_fingerprint_is_pinned(policy):
    scenario = _scenario()
    cost_model = CostModel(DistanceOracle(scenario.network))
    result = simulate(scenario, build_policy(policy, cost_model), cost_model,
                      SimulationConfig(start=12 * 3600.0, end=13 * 3600.0))
    assert result_fingerprint(result)[:12] == GOLDEN[policy]
