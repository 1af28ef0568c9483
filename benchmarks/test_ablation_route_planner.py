"""Design-choice ablation: exhaustive vs cheapest-insertion route planning.

The paper enumerates every valid stop permutation because MAXO = 3 keeps the
search tiny; the library also ships a cheapest-insertion planner that scales
to larger batches (a "batches of size 3 or more" extension).  This ablation
measures the quality gap and the speed gap between the two planners on
batches at the paper's MAXO as well as beyond it.
"""

import random

import pytest

from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import grid_city
from repro.network.graph import TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import best_route_plan, insertion_route_plan


@pytest.fixture(scope="module")
def planner_tools():
    network = grid_city(rows=8, cols=8, profile=TimeProfile.flat(), seed=17)
    oracle = DistanceOracle(network, method="hub_label")
    oracle.refresh()  # build the labels before any planner is timed
    model = CostModel(oracle)
    rng = random.Random(11)
    nodes = network.nodes
    instances = []
    for idx in range(20):
        orders = [Order(order_id=idx * 10 + j, restaurant_node=rng.choice(nodes),
                        customer_node=rng.choice(nodes), placed_at=0.0, prep_time=0.0)
                  for j in range(3)]
        instances.append(orders)
    return oracle, model, instances


def test_ablation_exhaustive_planner(benchmark, planner_tools):
    oracle, model, instances = planner_tools

    def run():
        return [best_route_plan(orders, 0, 0.0, oracle.distance, model.sdt).cost
                for orders in instances]

    costs = benchmark(run)
    assert all(cost >= 0.0 for cost in costs)


def test_ablation_insertion_planner(benchmark, planner_tools):
    oracle, model, instances = planner_tools

    def run():
        return [insertion_route_plan(orders, 0, 0.0, oracle.distance, model.sdt).cost
                for orders in instances]

    heuristic_costs = benchmark(run)
    exact_costs = [best_route_plan(orders, 0, 0.0, oracle.distance, model.sdt).cost
                   for orders in instances]
    # The heuristic can never beat the optimum and stays within a modest gap
    # on MAXO-sized batches (quality of the design choice, not just speed).
    for heuristic, exact in zip(heuristic_costs, exact_costs, strict=True):
        assert heuristic >= exact - 1e-9
    total_exact = sum(exact_costs)
    total_heuristic = sum(heuristic_costs)
    assert total_heuristic <= total_exact * 1.3 + 300.0
