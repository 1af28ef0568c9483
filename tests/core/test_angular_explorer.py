"""Equivalence tests: CSR angular explorer vs the dict-based reference.

:class:`~repro.core.angular.VehicleSensitiveExplorer` must yield the exact
``(node, blended_cost)`` expansion sequence of ``BestFirstExplorer`` driven
by the :func:`~repro.core.angular.vehicle_sensitive_weight` closure — node
for node, float for float — including distance ties and moving vehicles
whose angular term is non-trivial.  The sparsified FoodGraph builder rides
on this equivalence, and must build the graph of the one-pair-at-a-time
loop kept in ``sequential_foodgraph``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angular import (
    VehicleSensitiveExplorer,
    blended_time_terms,
    vehicle_sensitive_weight,
)
from repro.core.foodgraph import build_sparsified_foodgraph
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.shortest_path import BestFirstExplorer
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import RouteStop
from repro.orders.vehicle import Vehicle
from sequential_foodgraph import build_sequentially


def _vehicle_at(network, node: int, destination=None) -> Vehicle:
    vehicle = Vehicle(vehicle_id=1, node=node)
    if destination is not None:
        order = Order(order_id=1, restaurant_node=destination,
                      customer_node=destination, placed_at=0.0, items=1,
                      prep_time=300.0)
        vehicle.stop_queue = [RouteStop(destination, order, True)]
    return vehicle


class TestExplorerEquivalence:
    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=30, deadline=None)
    def test_expansion_sequence_identical(self, seed):
        rng = random.Random(seed)
        network = random_geometric_city(num_nodes=40, seed=seed % 6)
        nodes = network.nodes
        source = rng.choice(nodes)
        destination = rng.choice([None, rng.choice(nodes)])
        gamma = rng.choice([0.0, 0.3, 0.5, 0.9, 1.0])
        now = rng.uniform(0.0, 86_400.0)
        vehicle = _vehicle_at(network, source, destination)

        fast = VehicleSensitiveExplorer(network, vehicle, now, gamma)
        reference = BestFirstExplorer(
            network, source,
            weight=vehicle_sensitive_weight(network, vehicle, now, gamma), t=now)
        fast_sequence = list(fast)
        reference_sequence = list(reference)
        assert fast_sequence == reference_sequence
        assert fast.visited_count == reference.visited_count

    def test_shared_time_terms_match_private_ones(self):
        network = random_geometric_city(num_nodes=30, seed=3)
        vehicle = _vehicle_at(network, network.nodes[0], network.nodes[5])
        shared = blended_time_terms(network, 43_000.0)
        with_shared = list(VehicleSensitiveExplorer(
            network, vehicle, 43_000.0, 0.5, time_terms=shared))
        without = list(VehicleSensitiveExplorer(network, vehicle, 43_000.0, 0.5))
        assert with_shared == without


class TestSparsifiedBuilderEquivalence:
    def test_graph_identical_to_the_sequential_loop(self):
        rng = random.Random(11)
        network = random_geometric_city(num_nodes=50, seed=11)
        oracle = DistanceOracle(network)
        cost_model = CostModel(oracle)
        nodes = network.nodes
        orders = [Order(order_id=i, restaurant_node=rng.choice(nodes),
                        customer_node=rng.choice(nodes),
                        placed_at=100.0 * i, items=1, prep_time=300.0)
                  for i in range(6)]
        batches = [cost_model.make_batch([order], 700.0) for order in orders]
        vehicles = [Vehicle(vehicle_id=i, node=rng.choice(nodes))
                    for i in range(5)]
        for use_angular in (False, True):
            fast = build_sparsified_foodgraph(
                batches, vehicles, cost_model, 700.0, k=3,
                use_angular=use_angular)
            slow = build_sequentially(
                batches, vehicles, cost_model, 700.0, k=3,
                use_angular=use_angular)
            assert set(fast.edges) == set(slow.edges)
            for key in fast.edges:
                assert fast.edges[key][0] == slow.edges[key][0]
            assert fast.nodes_expanded == slow.nodes_expanded
            assert fast.cost_evaluations == slow.cost_evaluations
