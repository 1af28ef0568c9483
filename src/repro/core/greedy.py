"""The Greedy baseline (Sec. III of the paper).

Greedy repeatedly picks the unassigned order / vehicle pair with the minimum
marginal cost and commits it, until no feasible pair remains.  It is locally
optimal per decision but, as the paper's Example 5 shows, can be globally
suboptimal — and its cost recomputation per committed pair makes it the
slowest strategy in the scalability experiments (Fig. 6(f)-(h)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.foodgraph import DEFAULT_MAX_FIRST_MILE, DEFAULT_OMEGA
from repro.core.policy import Assignment, AssignmentPolicy
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import RoutePlan
from repro.orders.vehicle import Vehicle

INFINITY = math.inf


class GreedyPolicy(AssignmentPolicy):
    """Iterative minimum-marginal-cost assignment.

    Parameters
    ----------
    cost_model:
        Shared cost model providing marginal costs.
    omega:
        Rejection penalty Ω; pairs whose marginal cost reaches Ω are treated
        as infeasible.
    max_first_mile:
        Upper bound on the vehicle-to-restaurant travel time (the 45-minute
        delivery guarantee); beyond it a pair is infeasible.
    """

    name = "greedy"
    reshuffle = False

    def __init__(self, cost_model: CostModel, omega: float = DEFAULT_OMEGA,
                 max_first_mile: float = DEFAULT_MAX_FIRST_MILE) -> None:
        self._cost_model = cost_model
        self._omega = omega
        self._max_first_mile = max_first_mile

    def assign(self, orders: Sequence[Order], vehicles: Sequence[Vehicle],
               now: float) -> list[Assignment]:
        candidates = self.eligible_vehicles(vehicles, now)
        if not orders or not candidates:
            return []
        # One planning table (and Cost(v, O_v) memo) for the whole window,
        # dropped when assign returns or raises.
        with self._cost_model.planning_scope(orders, candidates):
            return self._assign(orders, candidates, now)

    def _assign(self, orders: Sequence[Order], candidates: list[Vehicle],
                now: float) -> list[Assignment]:
        pool: dict[int, Order] = {order.order_id: order for order in orders}
        # Tentative orders committed to each vehicle within this window.  The
        # vehicles themselves are not mutated; marginal costs are evaluated
        # against (existing assignment ∪ tentative set).
        tentative: dict[int, list[Order]] = {v.vehicle_id: [] for v in candidates}
        plans: dict[int, RoutePlan] = {}
        vehicle_by_id: dict[int, Vehicle] = {v.vehicle_id: v for v in candidates}

        # First-mile feasibility is a pure vehicle x restaurant cross product,
        # so it is one block of the window's planning table instead of a
        # point query per pair; the matrix serves every later refresh round
        # too (first miles do not depend on the tentative sets).
        pool_orders = list(pool.values())
        first_miles = self._cost_model.distance_matrix(
            [vehicle.node for vehicle in candidates],
            [order.restaurant_node for order in pool_orders], now)
        first_mile_of: dict[tuple[int, int], float] = {}
        for v_idx, vehicle in enumerate(candidates):
            row = first_miles[v_idx]
            for o_idx, order in enumerate(pool_orders):
                first_mile_of[(order.order_id, vehicle.vehicle_id)] = float(row[o_idx])

        # Marginal costs only change for the vehicle chosen in the previous
        # round, so the first round evaluates all pairs and later rounds only
        # refresh that vehicle's column (the recomputation scheme of Sec. III).
        pair_cost: dict[tuple[int, int], tuple[float, RoutePlan | None]] = {}
        for order in pool.values():
            for vehicle in candidates:
                pair_cost[(order.order_id, vehicle.vehicle_id)] = self._pair_cost(
                    order, vehicle, tentative[vehicle.vehicle_id], now,
                    first_mile_of[(order.order_id, vehicle.vehicle_id)])

        while pool:
            best: tuple[float, int, int, RoutePlan] | None = None
            for order in pool.values():
                for vehicle in candidates:
                    cost, plan = pair_cost[(order.order_id, vehicle.vehicle_id)]
                    if plan is None:
                        continue
                    key = (cost, order.order_id, vehicle.vehicle_id)
                    if best is None or key < (best[0], best[1], best[2]):
                        best = (cost, order.order_id, vehicle.vehicle_id, plan)
            if best is None:
                break
            _, order_id, vehicle_id, plan = best
            tentative[vehicle_id].append(pool.pop(order_id))
            plans[vehicle_id] = plan
            chosen = vehicle_by_id[vehicle_id]
            for order in pool.values():
                pair_cost[(order.order_id, vehicle_id)] = self._pair_cost(
                    order, chosen, tentative[vehicle_id], now,
                    first_mile_of[(order.order_id, vehicle_id)])

        assignments: list[Assignment] = []
        for vehicle_id, added in tentative.items():
            if not added:
                continue
            assignments.append(Assignment(
                vehicle=vehicle_by_id[vehicle_id],
                orders=tuple(added),
                plan=plans[vehicle_id],
                weight=plans[vehicle_id].cost,
            ))
        return assignments

    # ------------------------------------------------------------------ #
    def _pair_cost(self, order: Order, vehicle: Vehicle, already_added: list[Order],
                   now: float, first_mile: float) -> tuple[float, RoutePlan | None]:
        """Marginal cost of adding ``order`` on top of the tentative set.

        ``first_mile`` is the vehicle-to-restaurant travel time, from the
        window's first-mile matrix.
        """
        prospective = already_added + [order]
        if not vehicle.can_accept(prospective):
            return INFINITY, None
        if first_mile > self._max_first_mile:
            return INFINITY, None
        plan_with = self._cost_model.plan_for_vehicle(vehicle, prospective, now)
        if plan_with.cost == INFINITY:
            return INFINITY, None
        plan_without = self._cost_model.plan_for_vehicle(vehicle, already_added, now)
        marginal = plan_with.cost - plan_without.cost
        if marginal >= self._omega:
            return INFINITY, None
        return marginal, plan_with


__all__ = ["GreedyPolicy"]
