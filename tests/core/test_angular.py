"""Tests for the vehicle-sensitive (angular-distance blended) edge weights."""

import pytest

from repro.core.angular import travel_time_weight, vehicle_sensitive_weight
from repro.network.geometry import angular_distance
from repro.orders.order import Order
from repro.orders.route_plan import PlanEvaluation, RoutePlan, RouteStop
from repro.orders.vehicle import Vehicle


def vehicle_heading_to(node, at_node=0):
    """A vehicle positioned at ``at_node`` whose next stop is ``node``."""
    order = Order(order_id=1, restaurant_node=node, customer_node=node, placed_at=0.0)
    plan = RoutePlan((RouteStop(node, order, True),), at_node, 0.0,
                     PlanEvaluation(0.0, {}, {}, 0.0, 0.0, 0.0))
    vehicle = Vehicle(vehicle_id=1, node=at_node)
    vehicle.assign([order], plan)
    return vehicle


class TestTravelTimeWeight:
    def test_equals_edge_time(self, small_grid):
        weight = travel_time_weight(small_grid, 0.0)
        assert weight(0, 1) == small_grid.edge_time(0, 1, 0.0)


class TestVehicleSensitiveWeight:
    def test_gamma_out_of_range_rejected(self, small_grid, make_vehicle):
        with pytest.raises(ValueError):
            vehicle_sensitive_weight(small_grid, make_vehicle(node=0), 0.0, gamma=1.5)

    def test_idle_vehicle_reduces_to_scaled_travel_time(self, small_grid, make_vehicle):
        vehicle = make_vehicle(node=0)
        weight = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=0.5)
        max_beta = small_grid.max_edge_time(0.0)
        expected = 0.5 * small_grid.edge_time(0, 1, 0.0) / max_beta
        assert weight(0, 1) == pytest.approx(expected)

    def test_gamma_zero_is_pure_travel_time_ordering(self, small_grid):
        # The vehicle at node 0 (grid corner) heads toward node 35 (opposite
        # corner); gamma=0 must ignore that direction entirely.
        vehicle = vehicle_heading_to(35, at_node=0)
        weight = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=0.0)
        max_beta = small_grid.max_edge_time(0.0)
        assert weight(0, 1) == pytest.approx(small_grid.edge_time(0, 1, 0.0) / max_beta)

    def test_gamma_one_is_pure_angular(self, small_grid):
        # Node layout: 0 is a corner, 1 is east of it, 6 is north of it (row
        # major 6x6 grid).  A vehicle heading east should prefer the east
        # neighbour under a pure angular weight.
        vehicle = vehicle_heading_to(5, at_node=0)   # node 5 is due east
        weight = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=1.0)
        toward = weight(0, 1)    # east neighbour
        away = weight(0, 6)      # north neighbour (perpendicular)
        assert toward < away

    def test_blend_between_extremes(self, small_grid):
        vehicle = vehicle_heading_to(5, at_node=0)
        pure_time = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=0.0)(0, 6)
        pure_ang = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=1.0)(0, 6)
        blended = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=0.5)(0, 6)
        low, high = sorted([pure_time, pure_ang])
        assert low - 1e-9 <= blended <= high + 1e-9

    def test_weights_are_non_negative(self, small_grid):
        vehicle = vehicle_heading_to(35, at_node=14)
        weight = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=0.7)
        for u, v, _ in small_grid.edges():
            assert weight(u, v) >= 0.0

    def test_direction_changes_preference(self, small_grid):
        # Heading east favours the east neighbour; heading north favours the
        # north neighbour (same start node, same gamma).
        east = vehicle_heading_to(5, at_node=0)
        north = vehicle_heading_to(30, at_node=0)
        w_east = vehicle_sensitive_weight(small_grid, east, 0.0, gamma=1.0)
        w_north = vehicle_sensitive_weight(small_grid, north, 0.0, gamma=1.0)
        assert w_east(0, 1) < w_east(0, 6)
        assert w_north(0, 6) < w_north(0, 1)

    def test_gamma_one_is_angular_distance_bit_for_bit(self, small_grid):
        # The closure takes the vehicle's bearing once, not once per edge;
        # gamma=1 exposes the angular term unblended.  Destination 14 is the
        # vehicle's own node: direction-less, every term zero.
        coord = small_grid.coord
        for destination in (35, 5, 14):
            vehicle = vehicle_heading_to(destination, at_node=14)
            weight = vehicle_sensitive_weight(small_grid, vehicle, 0.0, gamma=1.0)
            for u, v, _ in small_grid.edges():
                assert weight(u, v) == angular_distance(
                    coord(14), coord(destination), coord(v))
