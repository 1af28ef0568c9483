"""Alg. 2 one pair at a time: the oracle the sparsified FoodGraph builder is
tested against.

:func:`build_sparsified_foodgraph` explores in optimistic rounds, shares one
best-first search among the vehicles that agree on what an explorer reads,
reuses settle records across windows and evaluates each round's pairs in
one bulk call.  None of that may change what it builds: the evaluated
pairs, the edges in insertion order, ``cost_evaluations`` and
``nodes_expanded`` must be those of the plain loop below — one dict-based
best-first search per vehicle, one first-mile point query and one
:meth:`CostModel.marginal_cost` per discovered pair, stop at degree ``k``.
The loop keeps its edges in a dict of its own (:class:`SequentialGraph`);
:func:`edges_in_order` reads either graph's edges in insertion order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.angular import vehicle_sensitive_weight
from repro.core.foodgraph import DEFAULT_MAX_FIRST_MILE, DEFAULT_OMEGA, FoodGraph
from repro.network.shortest_path import BestFirstExplorer
from repro.orders.batch import Batch
from repro.orders.costs import CostModel
from repro.orders.route_plan import RoutePlan
from repro.orders.vehicle import Vehicle


@dataclass
class SequentialGraph:
    """The loop's FoodGraph: ``edges[(batch_idx, vehicle_idx)] = (weight, plan)``."""

    batches: list[Batch]
    vehicles: list[Vehicle]
    omega: float
    edges: dict[tuple[int, int], tuple[float, RoutePlan]] = field(default_factory=dict)
    cost_evaluations: int = 0
    nodes_expanded: int = 0
    searches: int = 0

    def plan(self, batch_idx: int, vehicle_idx: int) -> RoutePlan | None:
        edge = self.edges.get((batch_idx, vehicle_idx))
        return edge[1] if edge is not None else None

    def vehicle_degree(self, vehicle_idx: int) -> int:
        return sum(v_idx == vehicle_idx for _, v_idx in self.edges)


def edges_in_order(graph: FoodGraph | SequentialGraph,
                   ) -> list[tuple[tuple[int, int], float]]:
    """``((batch_idx, vehicle_idx), weight)`` of every edge, as inserted."""
    if isinstance(graph, SequentialGraph):
        return [(key, weight) for key, (weight, _) in graph.edges.items()]
    return list(zip(zip(graph.batch_idx.tolist(), graph.vehicle_idx.tolist(), strict=True),
                    graph.weights.tolist(), strict=True))


def pair_weight(batch: Batch, vehicle: Vehicle, cost_model: CostModel, now: float,
                omega: float, max_first_mile: float) -> tuple[float, RoutePlan | None]:
    """Marginal cost of one batch-vehicle pair, clamped to Ω where required."""
    first_mile = cost_model.oracle.distance(vehicle.node, batch.first_pickup_node, now)
    if first_mile > max_first_mile:
        return omega, None
    weight, plan = cost_model.marginal_cost(batch.orders, vehicle, now)
    if plan is None or weight == math.inf:
        return omega, None
    return min(weight, omega), plan


def build_sequentially(batches: Sequence[Batch], vehicles: Sequence[Vehicle],
                       cost_model: CostModel, now: float, k: int,
                       omega: float = DEFAULT_OMEGA,
                       max_first_mile: float = DEFAULT_MAX_FIRST_MILE,
                       use_angular: bool = False, gamma: float = 0.5,
                       max_expansions: int | None = None) -> SequentialGraph:
    """The sparsified FoodGraph, vehicle by vehicle and pair by pair."""
    graph = SequentialGraph(list(batches), list(vehicles), omega=omega)
    network = cost_model.oracle.network
    start_index: dict[int, list[int]] = {}
    for b_idx, batch in enumerate(graph.batches):
        start_index.setdefault(batch.first_pickup_node, []).append(b_idx)
    expansion_cap = max_expansions if max_expansions is not None else network.num_nodes
    for v_idx, vehicle in enumerate(graph.vehicles):
        blend = (vehicle_sensitive_weight(network, vehicle, now, gamma)
                 if use_angular else None)
        explorer = BestFirstExplorer(network, vehicle.node, weight=blend, t=now)
        expanded = 0
        # Each node is settled at most once, so every (batch, vehicle) pair
        # is evaluated at most once and a local counter tracks the vehicle's
        # degree exactly.
        degree = 0
        for node, _ in explorer:
            expanded += 1
            for b_idx in start_index.get(node, ()):
                weight, plan = pair_weight(graph.batches[b_idx], vehicle, cost_model,
                                           now, graph.omega, max_first_mile)
                graph.cost_evaluations += 1
                if plan is not None and weight < graph.omega:
                    graph.edges[(b_idx, v_idx)] = (weight, plan)
                    degree += 1
            if degree >= k or expanded >= expansion_cap:
                break
        graph.nodes_expanded += expanded
    return graph
