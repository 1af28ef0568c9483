"""Tests for FoodGraph construction (full and sparsified) and matching."""

import gc

import numpy as np
import pytest

from repro.core.foodgraph import (
    FoodGraph,
    build_full_foodgraph,
    build_sparsified_foodgraph,
    solve_matching,
)
from repro.network.distance_oracle import DistanceOracle
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.workload.city import CITY_B
from repro.workload.generator import generate_scenario


def grid_order(order_id, restaurant, customer, prep=0.0):
    return Order(order_id=order_id, restaurant_node=restaurant, customer_node=customer,
                 placed_at=0.0, prep_time=prep)


@pytest.fixture()
def sample_batches(cost_model):
    orders = [grid_order(1, 0, 6), grid_order(2, 14, 20), grid_order(3, 35, 29)]
    return [cost_model.make_batch([order], 0.0) for order in orders]


@pytest.fixture()
def sample_vehicles():
    return [Vehicle(vehicle_id=1, node=1), Vehicle(vehicle_id=2, node=13),
            Vehicle(vehicle_id=3, node=34)]


class TestFullFoodGraph:
    def test_every_feasible_pair_has_edge(self, cost_model, sample_batches, sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        assert graph.edge_count == len(sample_batches) * len(sample_vehicles)
        assert graph.cost_evaluations == 9

    def test_edge_weights_are_marginal_costs(self, cost_model, sample_batches, sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        expected, _ = cost_model.marginal_cost(sample_batches[0].orders,
                                               sample_vehicles[0], 0.0)
        assert graph.weight(0, 0) == pytest.approx(expected)

    def test_infeasible_pair_gets_omega(self, cost_model, sample_batches):
        full_vehicle = Vehicle(vehicle_id=9, node=0, max_orders=0)
        graph = build_full_foodgraph(sample_batches, [full_vehicle], cost_model, 0.0)
        assert all(graph.weight(b, 0) == graph.omega for b in range(len(sample_batches)))

    def test_distant_pair_beyond_first_mile_bound_gets_omega(self, cost_model,
                                                             sample_batches,
                                                             sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0,
                                     max_first_mile=1.0)
        # No vehicle starts exactly at a batch's first pickup node, so every
        # pair exceeds a 1-second first-mile bound.
        assert graph.edge_count == 0

    def test_cost_matrix_shape(self, cost_model, sample_batches, sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        matrix = graph.cost_matrix()
        assert len(matrix) == 3 and len(matrix[0]) == 3

    def test_plan_available_for_finite_edges(self, cost_model, sample_batches,
                                             sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        assert graph.plan(0, 0) is not None
        assert graph.plan(0, 0).stops


class TestSparsifiedFoodGraph:
    def test_degree_bounded_by_k(self, cost_model, sample_batches, sample_vehicles):
        graph = build_sparsified_foodgraph(sample_batches, sample_vehicles, cost_model,
                                           0.0, k=1)
        for v_idx in range(len(sample_vehicles)):
            assert graph.vehicle_degree(v_idx) <= 1

    def test_k_large_recovers_full_graph_weights(self, cost_model, sample_batches,
                                                 sample_vehicles):
        sparsified = build_sparsified_foodgraph(sample_batches, sample_vehicles,
                                                cost_model, 0.0, k=10)
        full = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        for b in range(len(sample_batches)):
            for v in range(len(sample_vehicles)):
                assert sparsified.weight(b, v) == pytest.approx(full.weight(b, v))

    def test_lemma1_edges_only_to_nearest_batches(self, cost_model, sample_batches,
                                                  sample_vehicles):
        """Lemma 1: a finite edge implies the batch is among the k nearest."""
        k = 1
        graph = build_sparsified_foodgraph(sample_batches, sample_vehicles, cost_model,
                                           0.0, k=k)
        oracle = cost_model.oracle
        for b_idx, v_idx in zip(graph.batch_idx.tolist(), graph.vehicle_idx.tolist(),
                                strict=True):
            vehicle = sample_vehicles[v_idx]
            distances = sorted(
                oracle.distance(vehicle.node, batch.first_pickup_node, 0.0)
                for batch in sample_batches)
            connected = oracle.distance(vehicle.node,
                                        sample_batches[b_idx].first_pickup_node, 0.0)
            assert connected <= distances[k - 1] + 1e-9

    def test_rejects_non_positive_k(self, cost_model, sample_batches, sample_vehicles):
        with pytest.raises(ValueError):
            build_sparsified_foodgraph(sample_batches, sample_vehicles, cost_model,
                                       0.0, k=0)

    def test_fewer_cost_evaluations_than_full(self, cost_model, sample_batches,
                                              sample_vehicles):
        sparsified = build_sparsified_foodgraph(sample_batches, sample_vehicles,
                                                cost_model, 0.0, k=1)
        full = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        assert sparsified.cost_evaluations < full.cost_evaluations

    def test_angular_variant_still_bounded_by_k(self, cost_model, sample_batches,
                                                sample_vehicles):
        graph = build_sparsified_foodgraph(sample_batches, sample_vehicles, cost_model,
                                           0.0, k=2, use_angular=True, gamma=0.5)
        for v_idx in range(len(sample_vehicles)):
            assert graph.vehicle_degree(v_idx) <= 2

    def test_max_expansions_caps_search(self, cost_model, sample_batches, sample_vehicles):
        graph = build_sparsified_foodgraph(sample_batches, sample_vehicles, cost_model,
                                           0.0, k=3, max_expansions=1)
        assert graph.nodes_expanded == len(sample_vehicles)


class TestVehicleDegree:
    @staticmethod
    def graph(*edges):
        """A FoodGraph over four batches and four vehicles with these edges."""
        pairs = np.array(edges, dtype=np.intp).reshape(len(edges), 2)
        return FoodGraph([None] * 4, [None] * 4, omega=1.0, batch_idx=pairs[:, 0],
                         vehicle_idx=pairs[:, 1], weights=np.full(len(edges), 0.5))

    def test_counts_only_the_vehicles_own_edges(self):
        graph = self.graph((0, 0), (1, 0), (2, 1))
        assert [graph.vehicle_degree(v) for v in range(4)] == [2, 1, 0, 0]
        assert graph.edge_count == 3

    def test_same_edge_count_different_vehicle(self):
        # Two graphs of one edge each: the degree follows the edge, not the
        # number of edges.
        assert self.graph((0, 0)).vehicle_degree(0) == 1
        moved = self.graph((2, 2))
        assert moved.vehicle_degree(0) == 0
        assert moved.vehicle_degree(2) == 1
        assert self.graph().vehicle_degree(0) == 0

    def test_builders_give_each_pair_at_most_one_edge(self, cost_model, sample_batches,
                                                      sample_vehicles):
        # A pair is one edge, so a degree is a number of distinct batches.
        for graph in (build_full_foodgraph(sample_batches, sample_vehicles,
                                           cost_model, 0.0),
                      build_sparsified_foodgraph(sample_batches, sample_vehicles,
                                                 cost_model, 0.0, k=2)):
            pairs = set(zip(graph.batch_idx.tolist(), graph.vehicle_idx.tolist(),
                            strict=True))
            assert len(pairs) == graph.edge_count
            for v_idx in range(len(sample_vehicles)):
                assert graph.vehicle_degree(v_idx) == len(
                    {b for b, v in pairs if v == v_idx})

    def test_weight_and_plan_read_the_arrays(self, cost_model, sample_batches,
                                             sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        matrix = graph.cost_matrix()
        for b_idx, v_idx, weight in zip(graph.batch_idx.tolist(),
                                        graph.vehicle_idx.tolist(),
                                        graph.weights.tolist(), strict=True):
            assert graph.weight(b_idx, v_idx) == weight == matrix[b_idx][v_idx]
            _, plan = cost_model.marginal_cost(sample_batches[b_idx].orders,
                                               sample_vehicles[v_idx], 0.0)
            assert graph.plan(b_idx, v_idx).stops == plan.stops
        assert self.graph((0, 0)).weight(1, 1) == 1.0
        assert self.graph((0, 0)).plan(1, 1) is None


class TestSolveMatching:
    def test_each_batch_and_vehicle_used_at_most_once(self, cost_model, sample_batches,
                                                      sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        matches = solve_matching(graph)
        batch_ids = [b for b, *_ in matches]
        vehicle_ids = [v for _, v, *_ in matches]
        assert len(set(batch_ids)) == len(batch_ids)
        assert len(set(vehicle_ids)) == len(vehicle_ids)

    def test_assigns_every_batch_when_feasible(self, cost_model, sample_batches,
                                               sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        assert len(solve_matching(graph)) == 3

    def test_nearby_pairs_preferred(self, cost_model, sample_batches, sample_vehicles):
        graph = build_full_foodgraph(sample_batches, sample_vehicles, cost_model, 0.0)
        matches = {b: v for b, v, *_ in solve_matching(graph)}
        # Batch 0 starts at node 0, vehicle 1 is at node 1 (adjacent); batch 2
        # starts at node 35, vehicle 3 is at node 34.  The optimal matching
        # pairs them up.
        assert matches[0] == 0
        assert matches[2] == 2

    def test_omega_only_pairs_left_unassigned(self, cost_model, sample_batches):
        far_vehicle = Vehicle(vehicle_id=5, node=35, max_orders=0)
        graph = build_full_foodgraph(sample_batches, [far_vehicle], cost_model, 0.0)
        assert solve_matching(graph) == []

    def test_empty_graph(self, cost_model):
        graph = build_full_foodgraph([], [], cost_model, 0.0)
        assert solve_matching(graph) == []


class TestNoObjectPerEdge:
    """A window's edges stay arrays from discovery to matching.

    Nearly every vehicle of a CityB window gets an edge to every batch, so
    anything a build keeps per edge outnumbers what it keeps per vehicle,
    batch and match many times over.  The objects the cyclic collector
    tracks that outlive a build and its matching are counted with the
    collector off, so none is freed before it is counted.
    """

    def test_surviving_objects_do_not_grow_with_the_edges(self):
        scenario = generate_scenario(CITY_B.scaled(0.5), seed=1, start_hour=12,
                                     end_hour=13)
        model = CostModel(DistanceOracle(scenario.network))
        now = 12 * 3600.0 + 600.0
        orders = scenario.orders_between(12 * 3600.0, now)
        batches = model.make_batches([[order] for order in orders], now)
        vehicles = scenario.fresh_vehicles()

        def window():
            graph = build_sparsified_foodgraph(batches, vehicles, model, now,
                                               k=len(batches), use_angular=True)
            return graph, solve_matching(graph)

        window()  # lazily built network and oracle state is not the window's
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            graph, matches = window()
        finally:
            gc.enable()
        gc.collect()
        survivors = len(gc.get_objects()) - before
        assert graph.edge_count >= 10 * (len(vehicles) + len(batches))
        assert matches
        assert survivors <= 3 * (len(vehicles) + len(batches) + len(matches)), \
            (survivors, graph.edge_count)
