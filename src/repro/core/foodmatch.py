"""The FOODMATCH policy: batching + sparsified matching + angular distance (Sec. IV).

Per accumulation window FoodMatch runs the full pipeline of Fig. 5:

1. cluster the unassigned orders into batches (Alg. 1),
2. build the sparsified FoodGraph with a best-first search from every
   vehicle (Alg. 2), ordering the exploration by the angular-distance blend
   of Eq. 8,
3. solve minimum-weight matching with Kuhn–Munkres, dropping Ω-only matches,
4. leave unmatched batches for the next window (combined with reshuffling,
   which the simulator performs by releasing not-yet-picked-up orders).

Every optimisation can be toggled independently through
:class:`FoodMatchConfig`, which is how the ablation experiment (Fig. 7(a))
builds its B&R / B&R+BFS / B&R+BFS+A variants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from collections.abc import Sequence

from repro.core.batching import BatchingConfig, cluster_orders
from repro.core.foodgraph import (
    DEFAULT_MAX_FIRST_MILE,
    DEFAULT_OMEGA,
    FoodGraph,
    SettleMemo,
    build_full_foodgraph,
    build_sparsified_foodgraph,
    solve_matching,
)
from repro.core.policy import Assignment, AssignmentPolicy
from repro.obs.trace import current_tracer
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle


@dataclass(frozen=True)
class FoodMatchConfig:
    """Tunable parameters and optimisation toggles of FoodMatch.

    Attributes
    ----------
    eta:
        Batching quality cutoff η in seconds (Sec. IV-B2; default 60 s).
    gamma:
        Weighting factor γ between angular distance and travel time (Eq. 8;
        default 0.5).
    k:
        Explicit per-vehicle degree bound in the sparsified FoodGraph,
        clamped to ``[1, number of batches]``.  When ``None`` the bound is
        derived from ``k_ratio_factor`` as ``k_ratio_factor * |O(l)| /
        |V(l)|`` (the paper uses a factor of 200), clamped to ``[k_min,
        number of batches]``.
    k_ratio_factor, k_min:
        See ``k``.
    omega:
        Rejection penalty Ω in seconds (default 7200).
    max_first_mile:
        Feasibility bound on the vehicle-to-first-pickup travel time
        (the 45-minute guarantee; default 2700 s).
    use_batching, use_bfs, use_angular, use_reshuffling:
        Optimisation toggles for the ablation study.  Disabling ``use_bfs``
        builds the full quadratic FoodGraph; disabling ``use_batching``
        matches individual orders.
    max_orders, max_items:
        MAXO and MAXI capacity constants.
    """

    eta: float = 60.0
    gamma: float = 0.5
    k: int | None = None
    k_ratio_factor: float = 200.0
    k_min: int = 3
    omega: float = DEFAULT_OMEGA
    max_first_mile: float = DEFAULT_MAX_FIRST_MILE
    use_batching: bool = True
    use_bfs: bool = True
    use_angular: bool = True
    use_reshuffling: bool = True
    max_orders: int = 3
    max_items: int = 10

    def batching_config(self) -> BatchingConfig:
        return BatchingConfig(eta=self.eta, max_orders=self.max_orders,
                              max_items=self.max_items)

    def variant(self, **changes) -> FoodMatchConfig:
        """Return a modified copy (used by the ablation benchmarks)."""
        return replace(self, **changes)


class FoodMatchPolicy(AssignmentPolicy):
    """The full FOODMATCH pipeline with configurable optimisations."""

    def __init__(self, cost_model: CostModel,
                 config: FoodMatchConfig | None = None) -> None:
        self._cost_model = cost_model
        self.config = config or FoodMatchConfig()
        self.reshuffle = self.config.use_reshuffling
        self.name = self._derive_name()
        # Diagnostics accumulated across windows (ablation / scalability).
        self.total_cost_evaluations = 0
        self.total_nodes_expanded = 0
        self.total_batches_formed = 0
        # Best-first settle records, read again by the next window whose
        # searches have the same inputs (see build_sparsified_foodgraph).
        self._settle_memo = SettleMemo()

    def _derive_name(self) -> str:
        cfg = self.config
        if cfg.use_batching and cfg.use_bfs and cfg.use_angular and cfg.use_reshuffling:
            return "foodmatch"
        parts = ["km"]
        if cfg.use_batching or cfg.use_reshuffling:
            parts.append("b&r")
        if cfg.use_bfs:
            parts.append("bfs")
        if cfg.use_angular:
            parts.append("angular")
        return "+".join(parts)

    # ------------------------------------------------------------------ #
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
        cfg = self.config
        tracer = current_tracer()
        effort_before = (asdict(self._cost_model.search_stats)
                         if tracer.enabled else None)

        with tracer.span("policy.batching"):
            if cfg.use_batching:
                batches, stats = cluster_orders(orders, self._cost_model, now,
                                                cfg.batching_config())
                self.total_batches_formed += stats.final_batches
            else:
                batches = self._cost_model.make_batches(
                    [[order] for order in orders], now)
                self.total_batches_formed += len(batches)

        with tracer.span("policy.foodgraph"):
            if cfg.use_bfs:
                k = self._degree_bound(len(orders), len(candidates), len(batches))
                graph = build_sparsified_foodgraph(
                    batches, candidates, self._cost_model, now, k,
                    omega=cfg.omega, max_first_mile=cfg.max_first_mile,
                    use_angular=cfg.use_angular, gamma=cfg.gamma,
                    memo=self._settle_memo)
            else:
                graph = build_full_foodgraph(batches, candidates,
                                             self._cost_model, now,
                                             omega=cfg.omega,
                                             max_first_mile=cfg.max_first_mile)
        self.total_cost_evaluations += graph.cost_evaluations
        self.total_nodes_expanded += graph.nodes_expanded
        if effort_before is not None:
            self._record_search_effort(tracer.registry, effort_before, graph)

        with tracer.span("policy.matching"):
            matches = solve_matching(graph)
        return [Assignment(
            vehicle=candidates[vehicle_idx],
            orders=graph.batches[batch_idx].orders,
            plan=plan,
            weight=weight,
        ) for batch_idx, vehicle_idx, plan, weight in matches]

    def _record_search_effort(self, registry, before: dict[str, int],
                              graph: FoodGraph) -> None:
        """One sample per window of each search-effort counter (obs on only)."""
        stats = self._cost_model.search_stats
        effort = {name: getattr(stats, name) - start for name, start in before.items()}
        effort["foodgraph_rounds"] = graph.rounds
        effort["foodgraph_searches"] = graph.searches
        effort["foodgraph_searches_reused"] = graph.searches_reused
        for name, value in effort.items():
            registry.histogram(f"search.{name}", low=1.0, high=1e9).record(value)

    # ------------------------------------------------------------------ #
    def _degree_bound(self, num_orders: int, num_vehicles: int, num_batches: int) -> int:
        """The per-vehicle degree bound k of Alg. 2 (Sec. V-B parameterisation)."""
        cfg = self.config
        if cfg.k is not None:
            return max(1, min(cfg.k, num_batches))
        ratio = num_orders / max(1, num_vehicles)
        k = int(math.ceil(cfg.k_ratio_factor * ratio))
        return max(cfg.k_min, min(k, max(1, num_batches)))


__all__ = ["FoodMatchConfig", "FoodMatchPolicy"]
