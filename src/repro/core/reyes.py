"""The Reyes et al. baseline (Sec. I-A and V-C of the paper).

Reyes et al. solve the meal delivery routing problem with two simplifying
assumptions the paper criticises:

* travel times come from the **haversine** distance between coordinates
  (divided by an assumed average speed), not from the road network, and
* two orders may be **batched only when they come from the same restaurant**.

This policy reproduces those decision rules: same-restaurant orders arriving
in the same accumulation window are grouped (up to MAXO / MAXI), candidate
costs are estimated with haversine travel times, and the window is solved as
a minimum-weight matching.  Crucially the *decisions* use haversine estimates
but the *execution* happens on the real road network — the returned route
plans are network plans — which is precisely why the strategy loses so much
ground in Fig. 6(b).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.foodgraph import DEFAULT_MAX_FIRST_MILE, DEFAULT_OMEGA
from repro.core.matching import minimum_weight_matching
from repro.core.policy import Assignment, AssignmentPolicy
from repro.network.geometry import haversine_distance
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle

INFINITY = math.inf


class ReyesPolicy(AssignmentPolicy):
    """Haversine-based matching with same-restaurant-only batching.

    Parameters
    ----------
    cost_model:
        Used only to produce executable network route plans for the chosen
        assignments and to check feasibility; never for decision costs.
    assumed_speed_kmph:
        Speed used to convert haversine kilometres into seconds for the
        decision-time cost estimates.
    """

    name = "reyes"
    reshuffle = False

    def __init__(self, cost_model: CostModel, assumed_speed_kmph: float = 25.0,
                 omega: float = DEFAULT_OMEGA,
                 max_first_mile: float = DEFAULT_MAX_FIRST_MILE,
                 max_orders: int = 3, max_items: int = 10) -> None:
        self._cost_model = cost_model
        self._speed = assumed_speed_kmph
        self._omega = omega
        self._max_first_mile = max_first_mile
        self._max_orders = max_orders
        self._max_items = max_items

    # ------------------------------------------------------------------ #
    # haversine cost estimates
    # ------------------------------------------------------------------ #
    def _travel_seconds(self, node_a: int, node_b: int) -> float:
        network = self._cost_model.oracle.network
        km = haversine_distance(network.coord(node_a), network.coord(node_b))
        return 3600.0 * km / self._speed

    def _group_cost(self, group: Sequence[Order], vehicle: Vehicle, now: float) -> float:
        """Estimated extra delivery time of serving a same-restaurant group.

        The vehicle drives to the (single) restaurant, waits for the slowest
        preparation, then visits the customers greedily by nearest-next —
        the simple insertion heuristic used by the baseline.
        """
        restaurant = group[0].restaurant_node
        first_mile = self._travel_seconds(vehicle.node, restaurant)
        arrival = now + first_mile
        clock = max(arrival, max(order.ready_at for order in group))
        location = restaurant
        remaining = list(group)
        total_xdt = 0.0
        while remaining:
            nxt = min(remaining, key=lambda o: self._travel_seconds(location, o.customer_node))
            clock += self._travel_seconds(location, nxt.customer_node)
            location = nxt.customer_node
            direct = self._travel_seconds(nxt.restaurant_node, nxt.customer_node)
            sdt = nxt.prep_time + direct
            total_xdt += max(0.0, (clock - nxt.placed_at) - sdt)
            remaining.remove(nxt)
        return total_xdt

    # ------------------------------------------------------------------ #
    def _build_groups(self, orders: Sequence[Order]) -> list[tuple[Order, ...]]:
        """Group same-restaurant orders (the only batching Reyes allows)."""
        by_restaurant: dict[tuple[int | None, int], list[Order]] = {}
        for order in orders:
            key = (order.restaurant_id, order.restaurant_node)
            by_restaurant.setdefault(key, []).append(order)
        groups: list[tuple[Order, ...]] = []
        for members in by_restaurant.values():
            members.sort(key=lambda o: o.placed_at)
            current: list[Order] = []
            items = 0
            for order in members:
                if current and (len(current) >= self._max_orders
                                or items + order.items > self._max_items):
                    groups.append(tuple(current))
                    current, items = [], 0
                current.append(order)
                items += order.items
            if current:
                groups.append(tuple(current))
        return groups

    # ------------------------------------------------------------------ #
    def assign(self, orders: Sequence[Order], vehicles: Sequence[Vehicle],
               now: float) -> list[Assignment]:
        candidates = self.eligible_vehicles(vehicles, now)
        if not orders or not candidates:
            return []
        groups = self._build_groups(orders)

        matrix: list[list[float]] = []
        for group in groups:
            row = []
            for vehicle in candidates:
                if not vehicle.can_accept(group) or vehicle.order_count > 0:
                    # Reyes assigns at most one group per courier per window
                    # and does not mix with previously assigned work.
                    row.append(INFINITY)
                    continue
                estimate = self._group_cost(group, vehicle, now)
                row.append(min(estimate, self._omega))
            matrix.append(row)

        pairs = [(group_idx, vehicle_idx)
                 for group_idx, vehicle_idx in minimum_weight_matching(matrix)
                 if matrix[group_idx][vehicle_idx] < self._omega]
        # Execution happens on the real road network: one bulk search plans
        # the matched pairs, on a table over just their groups and vehicles.
        matched = range(len(pairs))
        costs, plan_of = self._cost_model.marginal_costs(
            [groups[group_idx] for group_idx, _ in pairs],
            [candidates[vehicle_idx] for _, vehicle_idx in pairs], matched, matched, now)
        assignments: list[Assignment] = []
        for i, (group_idx, vehicle_idx) in enumerate(pairs):
            cost = costs[i].item()
            if cost == INFINITY:
                continue
            group = groups[group_idx]
            vehicle = candidates[vehicle_idx]
            first_mile = self._cost_model.oracle.distance(
                vehicle.node, group[0].restaurant_node, now)
            if first_mile > self._max_first_mile:
                continue
            assignments.append(Assignment(vehicle=vehicle, orders=group,
                                          plan=plan_of(i), weight=cost))
        return assignments


__all__ = ["ReyesPolicy"]
