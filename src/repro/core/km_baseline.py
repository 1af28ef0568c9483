"""Vanilla Kuhn–Munkres baseline (Sec. IV-A without the optimisations).

KM frames each accumulation window as a minimum-weight perfect matching
between *individual orders* and vehicles on the full, quadratically built
FoodGraph.  It improves on Greedy by optimising the window globally, but it
cannot batch two orders from the same window onto one vehicle, does not
reshuffle, and pays the full bipartite-construction cost — which is exactly
what the paper's ablation (Fig. 7(a)) and scalability figures isolate.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.foodgraph import (
    DEFAULT_MAX_FIRST_MILE,
    DEFAULT_OMEGA,
    build_full_foodgraph,
    solve_matching,
)
from repro.core.policy import Assignment, AssignmentPolicy
from repro.obs.trace import current_tracer
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle


class KMPolicy(AssignmentPolicy):
    """Minimum-weight matching of single orders on the full FoodGraph."""

    name = "km"
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
        # The phase spans FoodMatchPolicy opens (no-ops with obs off).
        tracer = current_tracer()
        with self._cost_model.planning_scope(orders, candidates):
            with tracer.span("policy.batching"):
                batches = self._cost_model.make_batches(
                    [[order] for order in orders], now)
            with tracer.span("policy.foodgraph"):
                graph = build_full_foodgraph(batches, candidates, self._cost_model,
                                             now, omega=self._omega,
                                             max_first_mile=self._max_first_mile)
            with tracer.span("policy.matching"):
                matches = solve_matching(graph)
            return [Assignment(
                vehicle=candidates[vehicle_idx],
                orders=graph.batches[batch_idx].orders,
                plan=plan,
                weight=weight,
            ) for batch_idx, vehicle_idx, plan, weight in matches]


__all__ = ["KMPolicy"]
