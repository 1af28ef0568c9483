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
    node_geometry,
    vehicle_sensitive_weight,
)
from repro.core.foodgraph import build_sparsified_foodgraph
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.geometry import angular_distance_from_heading, bearing
from repro.network.shortest_path import BestFirstExplorer
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import RouteStop
from repro.orders.vehicle import Vehicle
from sequential_foodgraph import build_sequentially, edges_in_order


def _vehicle_at(network, node: int, destination=None) -> Vehicle:
    vehicle = Vehicle(vehicle_id=1, node=node)
    if destination is not None:
        order = Order(order_id=1, restaurant_node=destination,
                      customer_node=destination, placed_at=0.0, items=1,
                      prep_time=300.0)
        vehicle.stop_queue = [RouteStop(destination, order, True)]
    return vehicle


def _with_twin(network):
    """``network`` plus a node at node 0's coordinate, joined to it: a vehicle
    on either of the two sees the other at its own position (angular term 0)."""
    twin = max(network.nodes) + 1
    network.add_node(twin, *network.coord(network.nodes[0]))
    network.add_road(network.nodes[0], twin, 30.0)
    return network


class TestExplorerEquivalence:
    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=30, deadline=None)
    def test_expansion_sequence_identical(self, seed):
        rng = random.Random(seed)
        network = _with_twin(random_geometric_city(num_nodes=40, seed=seed % 6))
        nodes = network.nodes
        source = rng.choice(nodes[:1] + nodes[-1:] + nodes)
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
            assert dict(edges_in_order(fast)) == dict(edges_in_order(slow))
            assert fast.nodes_expanded == slow.nodes_expanded
            assert fast.cost_evaluations == slow.cost_evaluations


class TestHoistedTrig:
    """The explorer's inlined angular term is the geometry module's, bit for bit.

    The explorer computes each head node's term at most once, into a list
    its generator frame keeps; a search that settled every node but has not
    been resumed past the last one still holds that list.
    """

    def test_every_term_equals_angular_distance_from_heading(self):
        network = _with_twin(random_geometric_city(num_nodes=60, seed=4))
        csr = network.csr()
        geometry = node_geometry(network)
        rng = random.Random(4)
        checked = zeros = 0
        for source in network.nodes:
            vehicle = _vehicle_at(network, source, rng.choice(network.nodes))
            explorer = VehicleSensitiveExplorer(network, vehicle, 43_000.0, 0.5,
                                                geometry=geometry)
            for settled, _ in enumerate(explorer, start=1):
                if settled == csr.num_nodes:
                    break
            terms = explorer._iterator.gi_frame.f_locals["angular"]
            destination = network.coord(vehicle.next_destination)
            location = network.coord(source)
            heading = None if destination == location else bearing(location, destination)
            for index, term in enumerate(terms):
                if term is None:
                    continue
                candidate = network.coord(csr.node_ids[index])
                expected = (0.0 if heading is None else
                            angular_distance_from_heading(heading, location, candidate))
                assert repr(term) == repr(expected), (source, csr.node_ids[index])
                checked += 1
                zeros += heading is not None and candidate == location
        assert checked > 50 * len(network.nodes)
        assert zeros >= 1
