"""FoodGraph construction: the bipartite batch/vehicle assignment graph (Sec. IV-A, IV-C).

The FoodGraph has the order batches on one side, the available vehicles on
the other, and edge weights equal to the marginal cost of assigning a batch
to a vehicle (Eq. 7), with the rejection penalty Ω standing in for forbidden
or prohibitively distant pairs.  Two constructions are provided:

* :func:`build_full_foodgraph` — the quadratic construction that computes the
  true marginal cost of every batch-vehicle pair; this is what the vanilla KM
  baseline uses.
* :func:`build_sparsified_foodgraph` — Alg. 2: a best-first search from each
  vehicle over the road network adds true-cost edges only to the ``k``
  closest batch start nodes; everything else is implicitly Ω.  The search
  order can use either plain travel time or the angular-distance blend of
  Eq. 8.

A :class:`FoodGraph` keeps its edges as parallel arrays, not a Python object
each, from discovery to matching.  :func:`solve_matching` runs Kuhn–Munkres
on them and drops matches that only exist through Ω edges (those orders stay
unassigned and roll into the next accumulation window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.angular import (
    VehicleSensitiveExplorer,
    blended_time_terms,
    node_geometry,
    vehicle_sensitive_weight,
)
from repro.core.matching import sparse_minimum_weight_matching
from repro.network.shortest_path import BestFirstExplorer
from repro.obs.trace import current_tracer
from repro.resilience.context import current_ladders
from repro.orders.batch import Batch
from repro.orders.costs import CostModel
from repro.orders.route_plan import RoutePlan
from repro.orders.vehicle import Vehicle

#: Default rejection penalty Ω: 7200 seconds (2 hours), as in Sec. V-B.
DEFAULT_OMEGA = 7200.0

#: Default bound on the vehicle-to-first-pickup travel time: 45 minutes, the
#: delivery-time guarantee used by Swiggy (Sec. V-B).
DEFAULT_MAX_FIRST_MILE = 2700.0


def _no_edges() -> np.ndarray:
    return np.empty(0, dtype=np.intp)


@dataclass
class FoodGraph:
    """A (possibly sparsified) bipartite assignment graph.

    Edge ``i`` joins batch ``batch_idx[i]`` to vehicle ``vehicle_idx[i]`` at
    ``weights[i]``, in the order the builder found them, one per pair at
    most; a pair without an edge weighs Ω and has no route plan.  Plans are
    built only when read (:meth:`plan`): edge ``i`` is pair ``plan_local[i]``
    of bulk evaluation ``plan_round[i]``, whose ``plan_of`` entry builds it.
    """

    batches: list[Batch]
    vehicles: list[Vehicle]
    omega: float = DEFAULT_OMEGA
    batch_idx: np.ndarray = field(default_factory=_no_edges)
    vehicle_idx: np.ndarray = field(default_factory=_no_edges)
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    plan_round: np.ndarray = field(default_factory=_no_edges)
    plan_local: np.ndarray = field(default_factory=_no_edges)
    plan_of: list[Callable[[int], RoutePlan]] = field(default_factory=list)
    #: number of true marginal-cost evaluations performed (efficiency metric)
    cost_evaluations: int = 0
    #: number of road-network nodes expanded by best-first search
    nodes_expanded: int = 0
    #: explore-then-evaluate rounds of the sparsified construction (0 for the
    #: full graph)
    rounds: int = 0
    #: best-first searches the sparsified construction read: one per
    #: distinct (node, next destination) among the vehicles, so at most one
    #: per vehicle (0 for the full graph); each one's settle record stays in
    #: the build's :class:`SettleMemo` for the next build
    searches: int = 0
    #: those of :attr:`searches` that read a settle record an earlier build
    #: left in its :class:`SettleMemo`, searching only past its end
    searches_reused: int = 0

    def _edges_at(self, batch_idx, vehicle_idx) -> np.ndarray:
        """The edge of each ``(batch_idx[i], vehicle_idx[i])``, -1 where none."""
        at = np.full((len(self.batches), len(self.vehicles)), -1, dtype=np.intp)
        at[self.batch_idx, self.vehicle_idx] = np.arange(self.edge_count)
        return at[batch_idx, vehicle_idx]

    def _plan(self, edge: int) -> RoutePlan:
        return self.plan_of[self.plan_round[edge]](self.plan_local[edge].item())

    def weight(self, batch_idx: int, vehicle_idx: int) -> float:
        """Edge weight, Ω when the pair has no edge."""
        edge = self._edges_at(batch_idx, vehicle_idx)
        return self.weights[edge].item() if edge >= 0 else self.omega

    def plan(self, batch_idx: int, vehicle_idx: int) -> RoutePlan | None:
        """The edge's route plan (built on first read), ``None`` at Ω."""
        edge = self._edges_at(batch_idx, vehicle_idx)
        return self._plan(edge) if edge >= 0 else None

    def cost_matrix(self) -> list[list[float]]:
        """Dense batch-by-vehicle cost matrix (diagnostics / reference solver).

        The production matching path never materialises this — see
        :func:`solve_matching` — but tests and the exactness benchmarks still
        compare against the dense formulation.
        """
        matrix = np.full((len(self.batches), len(self.vehicles)), self.omega,
                         dtype=np.float64)
        matrix[self.batch_idx, self.vehicle_idx] = self.weights
        return matrix.tolist()

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    def vehicle_degree(self, vehicle_idx: int) -> int:
        """Number of finite-weight edges incident to a vehicle."""
        return int(np.count_nonzero(self.vehicle_idx == vehicle_idx))


def _evaluate_pairs(graph: FoodGraph, cost_model: CostModel, now: float,
                    b_idx: np.ndarray, v_idx: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, Callable[[int], RoutePlan]]:
    """Marginal costs of the pairs ``(b_idx[i], v_idx[i])``, in one bulk call.

    The pairs have passed the first-mile bound already.  Returns the
    indices ``i`` of the pairs that become edges (the others stay at Ω),
    their weights, and the function building pair ``i``'s route plan on
    demand (a :attr:`FoodGraph.plan_of` entry).
    """
    weights, plan_of = cost_model.marginal_costs(
        [batch.orders for batch in graph.batches], graph.vehicles, b_idx, v_idx, now)
    kept = np.flatnonzero(weights < graph.omega)
    return kept, weights[kept], plan_of


def build_full_foodgraph(batches: Sequence[Batch], vehicles: Sequence[Vehicle],
                         cost_model: CostModel, now: float,
                         omega: float = DEFAULT_OMEGA,
                         max_first_mile: float = DEFAULT_MAX_FIRST_MILE) -> FoodGraph:
    """Quadratic FoodGraph construction: every batch-vehicle pair is evaluated.

    The first-mile feasibility checks for all ``|V| x |B|`` pairs come off
    the window's planning table (one block of static distances, see
    :meth:`CostModel.planning_scope`), and every pair within the bound is
    planned in one bulk :meth:`CostModel.marginal_costs` call.
    """
    graph = FoodGraph(list(batches), list(vehicles), omega=omega)
    if not graph.batches or not graph.vehicles:
        return graph
    with cost_model.planning_scope(
            (order for batch in graph.batches for order in batch.orders),
            graph.vehicles):
        first_miles = cost_model.distance_matrix(
            [vehicle.node for vehicle in graph.vehicles],
            [batch.first_pickup_node for batch in graph.batches], now)
        # Batch-major, the order the edges are kept in.
        b_idx, v_idx = np.nonzero((first_miles <= max_first_mile).T)
        kept, graph.weights, plan_of = _evaluate_pairs(graph, cost_model, now,
                                                       b_idx, v_idx)
    graph.batch_idx, graph.vehicle_idx = b_idx[kept], v_idx[kept]
    graph.plan_round, graph.plan_local = np.zeros_like(kept), kept
    graph.plan_of = [plan_of]
    graph.cost_evaluations = len(graph.batches) * len(graph.vehicles)
    return graph


def build_sparsified_foodgraph(batches: Sequence[Batch], vehicles: Sequence[Vehicle],
                               cost_model: CostModel, now: float, k: int,
                               omega: float = DEFAULT_OMEGA,
                               max_first_mile: float = DEFAULT_MAX_FIRST_MILE,
                               use_angular: bool = False,
                               gamma: float = 0.5,
                               max_expansions: int | None = None,
                               memo: SettleMemo | None = None) -> FoodGraph:
    """Sparsified FoodGraph construction via best-first search (Alg. 2).

    For every vehicle a best-first search expands road-network nodes in
    ascending blended-weight order; whenever an expanded node is the first
    pick-up node of one or more batches, true-cost edges to those batches are
    added.  The search stops once the vehicle has ``k`` incident edges (or
    the network is exhausted / ``max_expansions`` nodes were expanded).

    ``use_angular`` switches the exploration order from plain travel time to
    the vehicle-sensitive weight of Eq. 8 with the given ``gamma``.

    **Optimistic rounds.**  Alg. 2 as written evaluates one pair at a time
    and stops a vehicle's search the moment its degree reaches ``k``.
    Whether a discovered pair becomes an edge is only known once its
    marginal cost is, and marginal costs are far cheaper in bulk.  So each
    round lets every unfinished vehicle explore until the pairs it has
    *discovered* within the first-mile bound, counted as if all of them
    succeeded, reach ``k``; then all of the round's pairs are evaluated in
    one bulk call, and only the vehicles whose *successful* degree is still
    below ``k`` explore on in the next round.  This evaluates exactly the
    pairs the one-pair-at-a-time loop does: successes never outnumber
    discoveries, so a vehicle is only ever paused at a node where that loop
    had not stopped earlier, and after the bulk evaluation its exact degree
    decides, as it does in the loop, whether the search goes on from that
    very node.  The evaluated set, ``cost_evaluations`` and
    ``nodes_expanded`` are therefore identical.  Each round's pairs are
    recorded as two index lists, not a tuple each, and once all rounds are
    done the edge arrays are put vehicle by vehicle in discovery order,
    which is the loop's insertion order.  The loop itself is kept as a
    test oracle (``tests/core/sequential_foodgraph.py``).
    Exploration runs on the CSR adjacency
    (:class:`~repro.core.angular.VehicleSensitiveExplorer`) and the
    first-mile values come off the window's planning table.

    **One search per (node, next destination).**  Vehicles that agree on
    all an explorer reads of them share one search (:class:`_SharedSearch`)
    and walk its settle record each at their own pace.
    :attr:`FoodGraph.searches` counts them.

    **Settle records outlive the call** (``memo``).  A search's settle order
    depends on its key and on the weights, not on the batches, so the
    records go into ``memo`` and the next call whose vehicles have the same
    keys reads them instead of searching again: it walks the recorded order
    against its own batch start nodes and runs the explorer only past it.
    :class:`SettleMemo` says when a record is still valid;
    :attr:`FoodGraph.searches_reused` counts the searches that read one.
    Without a ``memo`` the call starts from an empty one.  Either way the
    graph and every counter are what a fresh search would give.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    graph = FoodGraph(list(batches), list(vehicles), omega=omega)
    network = cost_model.oracle.network

    # Index batches by the node at which their route plan starts (V_Pi).
    start_index: dict[int, list[int]] = {}
    for b_idx, batch in enumerate(graph.batches):
        start_index.setdefault(batch.first_pickup_node, []).append(b_idx)

    expansion_cap = max_expansions if max_expansions is not None else network.num_nodes
    if not graph.batches or not graph.vehicles:
        return graph

    time_terms = geometry = None
    if use_angular:
        time_terms = blended_time_terms(network, now)
        geometry = node_geometry(network)

    def explorer_for(vehicle: Vehicle):
        if time_terms is not None and vehicle.node in network.csr().index_of:
            return VehicleSensitiveExplorer(network, vehicle, now, gamma,
                                            time_terms=time_terms, geometry=geometry)
        # Plain travel-time ordering needs no per-edge callable (the CSR
        # array kernel inside BestFirstExplorer expands on static weights);
        # an angular search from a node the CSR does not know takes the
        # reference closure.
        weight = (vehicle_sensitive_weight(network, vehicle, now, gamma)
                  if use_angular else None)
        return BestFirstExplorer(network, vehicle.node, weight=weight, t=now)

    # Vehicles still searching, each on the search of its group.
    memo = memo if memo is not None else SettleMemo()
    recorded = memo.valid_records(network, now, gamma, use_angular, expansion_cap)
    searches: dict[object, _SharedSearch] = {}
    searching: dict[int, _SharedSearch] = {}
    for v_idx, vehicle in enumerate(graph.vehicles):
        key = ((vehicle.node, vehicle.next_destination) if use_angular
               else vehicle.node)
        search = searches.get(key)
        if search is None:
            record = recorded.get(key)
            if record is None:
                record = _SettleRecord(explorer_for(vehicle))
            else:
                graph.searches_reused += 1
            search = searches[key] = _SharedSearch(record)
        searching[v_idx] = search
    memo.records = {key: search.record for key, search in searches.items()}
    graph.searches = len(searches)

    tracer = current_tracer()
    with cost_model.planning_scope(
            (order for batch in graph.batches for order in batch.orders),
            graph.vehicles):
        within = (cost_model.distance_matrix(
            [vehicle.node for vehicle in graph.vehicles],
            [batch.first_pickup_node for batch in graph.batches], now)
            <= max_first_mile).tolist()
        # Per vehicle: how many of its search's start nodes it has read, and
        # how many nodes Alg. 2 has expanded for it.
        cursor = [0] * len(graph.vehicles)
        expanded = [0] * len(graph.vehicles)
        # A vehicle's successful degree so far, and the edges of every round:
        # batch, vehicle, weight, round and index in the round's evaluation.
        degree = [0] * len(graph.vehicles)
        found: list[tuple[np.ndarray, ...]] = []
        while searching:
            graph.rounds += 1
            pair_b: list[int] = []
            pair_v: list[int] = []
            with tracer.span("foodgraph.explore"):
                for v_idx, search in list(searching.items()):
                    near = within[v_idx]
                    hoped = degree[v_idx]
                    starts = search.starts
                    at = cursor[v_idx]
                    while True:
                        if at == len(starts) and not search.settle_to_next_start(
                                start_index, expansion_cap):
                            # Cap hit or network exhausted: no further round.
                            expanded[v_idx] = search.settled
                            del searching[v_idx]
                            break
                        count, b_idxs = starts[at]
                        at += 1
                        graph.cost_evaluations += len(b_idxs)
                        for b_idx in b_idxs:
                            if near[b_idx]:
                                pair_b.append(b_idx)
                                pair_v.append(v_idx)
                                hoped += 1
                        if hoped >= k or count >= expansion_cap:
                            expanded[v_idx] = count
                            if count >= expansion_cap:
                                del searching[v_idx]
                            break
                    cursor[v_idx] = at
            with tracer.span("foodgraph.plan"):
                discovered_b = np.array(pair_b, dtype=np.intp)
                discovered_v = np.array(pair_v, dtype=np.intp)
                kept, weights, plan_of = _evaluate_pairs(graph, cost_model, now,
                                                         discovered_b, discovered_v)
            found.append((discovered_b[kept], discovered_v[kept], weights,
                          np.full(len(kept), len(graph.plan_of)), kept))
            graph.plan_of.append(plan_of)
            degree = (np.bincount(discovered_v[kept], minlength=len(degree))
                      + degree).tolist()
            for v_idx in [v_idx for v_idx in searching if degree[v_idx] >= k]:
                del searching[v_idx]
    graph.nodes_expanded = sum(expanded)
    # Vehicle by vehicle, each one's edges in discovery order.
    columns = [np.concatenate(column) for column in zip(*found, strict=True)]
    by_vehicle = np.argsort(columns[1], kind="stable")
    (graph.batch_idx, graph.vehicle_idx, graph.weights, graph.plan_round,
     graph.plan_local) = (column[by_vehicle] for column in columns)
    return graph


class SettleMemo:
    """Best-first settle records kept from one sparsified build to the next.

    A record (:class:`_SettleRecord`) is keyed like the search it records.
    Its settle order is valid as long as the weights the explorer read are
    the same, so the memo remembers what they were computed from: the
    network (by identity), its :attr:`~repro.network.graph.RoadNetwork.mutation_epoch`,
    the congestion multiplier of the time slot, ``gamma``, whether the
    angular blend is on, and the expansion cap a record stops at.  A build
    whose token differs drops every record before it starts a search, and
    each build keeps only the records its own vehicles used.
    :class:`~repro.core.foodmatch.FoodMatchPolicy` keeps one memo for its
    lifetime; nothing checkpoints it or ships it to workers.
    """

    __slots__ = ("network", "token", "records")

    def __init__(self) -> None:
        self.network = None
        self.token: tuple | None = None
        self.records: dict[object, _SettleRecord] = {}

    def valid_records(self, network, now: float, gamma: float, use_angular: bool,
                      expansion_cap: int) -> dict[object, _SettleRecord]:
        """The records a build with these inputs may read (none once an
        input changed)."""
        token = (network.mutation_epoch, network.profile.multiplier(now), gamma,
                 use_angular, expansion_cap)
        if self.network is not network or self.token != token:
            self.network = network
            self.token = token
            self.records = {}
        return self.records


class _SettleRecord:
    """The nodes one best-first search has settled, in settle order, and the
    explorer that settles the next ones (``None`` once the network is
    exhausted or the expansion cap is reached, freeing its state)."""

    __slots__ = ("order", "explorer")

    def __init__(self, explorer) -> None:
        self.order: list[int] = []
        self.explorer = explorer


class _SharedSearch:
    """One build's reading of a settle record, shared by every vehicle of
    its group.

    All an explorer reads of a vehicle is its node and, under the angular
    blend, its next destination: vehicles that agree on those settle the
    same nodes in the same order.  What Alg. 2 needs of that order is only
    where this build's batch start nodes sit in it, so that is what is
    read off — ``starts[i] = (nodes settled up to and including the i-th
    start node, the batches starting there)`` — once, by whichever member
    gets there first; every member then reads ``starts`` with a cursor of
    its own.  The recorded order is walked by lookups alone, and the
    explorer only ever runs past it as far as the farthest member asks,
    which is Alg. 2's early stop.
    """

    __slots__ = ("record", "starts", "settled")

    def __init__(self, record: _SettleRecord) -> None:
        self.record = record
        self.starts: list[tuple[int, list[int]]] = []
        self.settled = 0

    def settle_to_next_start(self, start_index: dict[int, list[int]],
                             expansion_cap: int) -> bool:
        """Read (and if need be search) on until one more start node is found.

        ``False`` once there is none left to find: the network is exhausted
        or ``expansion_cap`` nodes are settled (:attr:`settled` then is what
        a vehicle reading to the end has expanded).
        """
        record = self.record
        order = record.order
        settled = self.settled
        end = min(len(order), expansion_cap)
        while settled < end:
            node = order[settled]
            settled += 1
            b_idxs = start_index.get(node)
            if b_idxs is not None:
                self.settled = settled
                self.starts.append((settled, b_idxs))
                return True
        explorer = record.explorer
        if explorer is not None and settled < expansion_cap:
            append = order.append
            for node, _ in explorer:
                append(node)
                settled += 1
                b_idxs = start_index.get(node)
                if b_idxs is not None:
                    if settled >= expansion_cap:
                        record.explorer = None
                    self.settled = settled
                    self.starts.append((settled, b_idxs))
                    return True
                if settled >= expansion_cap:
                    record.explorer = None
                    break
            else:
                record.explorer = None
        self.settled = settled
        return False


def solve_matching(graph: FoodGraph) -> list[tuple[int, int, RoutePlan, float]]:
    """Minimum-weight matching on a FoodGraph.

    Returns a list of ``(batch_idx, vehicle_idx, route_plan, weight)`` for
    every matched pair whose weight is strictly below Ω — pairs matched only
    through the rejection penalty are treated as "leave unassigned".

    The solve runs on the graph's edge arrays only
    (:func:`~repro.core.matching.sparse_minimum_weight_matching`): for a
    sparsified FoodGraph with degree bound ``k`` this avoids materialising
    the dense Ω-filled ``|B| x |V|`` matrix entirely, while provably
    producing a matching with the same total cost.  Only the matched
    pairs' route plans are built.

    When a resilience ladder registry is active (``use_ladders``), the solve
    goes through it instead: the registry picks the backend rung, honours
    injected faults, and degrades-and-retries on backend failure.
    """
    if not graph.batches or not graph.vehicles:
        return []
    ladders = current_ladders()
    solve = (ladders.solve_matching if ladders is not None
             else sparse_minimum_weight_matching)
    pairs = solve(len(graph.batches), len(graph.vehicles), graph.batch_idx,
                  graph.vehicle_idx, graph.weights, graph.omega)
    edges = graph._edges_at(*np.array(pairs, dtype=np.intp).reshape(-1, 2).T).tolist()
    return [(b_idx, v_idx, graph._plan(edge), weight)
            for (b_idx, v_idx), edge, weight in zip(pairs, edges, graph.weights[edges].tolist(),
                                                    strict=True)
            if weight < graph.omega]


__all__ = [
    "FoodGraph",
    "build_full_foodgraph",
    "build_sparsified_foodgraph",
    "solve_matching",
    "SettleMemo",
    "DEFAULT_OMEGA",
    "DEFAULT_MAX_FIRST_MILE",
]
