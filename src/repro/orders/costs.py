"""Cost model: EDT, SDT, XDT, batch costs and marginal costs.

This module turns the paper's cost definitions into one reusable object,
:class:`CostModel`, that every assignment policy shares:

* ``SDT(o) = o^p + SP(o^r, o^c, o^t)`` (Def. 6), memoised per order;
* ``EDT(o, v)`` / ``XDT(o, v)`` for a single order-vehicle pair (Defs. 5, 7);
* ``Cost(v, O)`` — the total XDT of a vehicle's quickest route plan (Eq. 4);
* ``mCost(pi, v)`` — the marginal cost of adding a batch to a vehicle
  (Def. 9 generalised to batches, Eq. 7);
* batch construction and batch-merge costs (Eq. 5) used by Alg. 1.

All travel times come from a :class:`~repro.network.DistanceOracle`, so the
choice of shortest-path backend is orthogonal to the cost definitions.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.network.distance_oracle import DistanceOracle
from repro.obs.trace import current_tracer
from repro.orders.batch import Batch
from repro.orders.order import Order
from repro.orders.route_plan import (
    SCALAR_SCAN_ROWS,
    PlanningTable,
    PlanRequest,
    RoutePlan,
    best_route_plan,
    insertion_route_plan,
    permutation_rows,
    prefix_steps,
    request_rows,
    route_plan_kernel,
    scan_route_plan,
)
from repro.orders.vehicle import Vehicle

INFINITY = math.inf

#: Above this many stops the exhaustive permutation search is replaced by the
#: cheapest-insertion heuristic when the planner is set to ``"auto"``.
_AUTO_EXHAUSTIVE_STOP_LIMIT = 8


def shortest_delivery_time(order: Order, oracle: DistanceOracle) -> float:
    """``SDT(o)``: preparation time plus direct restaurant-to-customer time."""
    direct = oracle.distance(order.restaurant_node, order.customer_node, order.placed_at)
    return order.prep_time + direct


@dataclass
class SearchStats:
    """Cumulative route-plan search effort of a :class:`CostModel`.

    Bare ints next to :attr:`CostModel.plan_calls`; the engine folds per-run
    deltas into the run telemetry and the policies record per-window deltas.
    """

    #: calls of the array kernel (one per plan shape per bulk search)
    kernel_passes: int = 0
    #: requests x valid permutations those passes decided between
    kernel_rows: int = 0
    #: requests x prefix-tree nodes those passes walked: the stops evaluated,
    #: where walking every permutation alone takes ``kernel_rows`` x stops
    kernel_steps: int = 0
    #: marginal costs whose ``Cost(v, O_v)`` came from the window's memo
    base_plans_reused: int = 0


def _padded(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Ragged lists of order slots as the rows of one matrix, padded with ``-1``."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    matrix = np.full((len(rows), int(lengths.max(initial=0))), -1, dtype=np.intp)
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = list(
        itertools.chain.from_iterable(rows))
    return matrix


def _first_minima(cost: np.ndarray, finish: np.ndarray, spans: Sequence[int],
                  ) -> list[int]:
    """Per run of ``spans[i]`` consecutive requests (none empty): the index
    of the first one attaining the run's minimum of ``(cost, finish)``."""
    if not spans:
        return []
    begins = np.cumsum([0, *spans[:-1]])
    contender = cost == np.repeat(np.minimum.reduceat(cost, begins), spans)
    finish = np.where(contender, finish, INFINITY)
    contender &= finish == np.repeat(np.minimum.reduceat(finish, begins), spans)
    return np.minimum.reduceat(
        np.where(contender, np.arange(len(cost)), len(cost)), begins).tolist()


class _Search:
    """Outcome of one bulk search: costs up front, route plans on demand.

    ``cost``, ``finish`` and ``winner`` (each request's winning permutation
    row, for the requests a kernel pass decided) are arrays indexed by
    request; ``request_of`` builds a request's :class:`PlanRequest` of its
    slot row, for a scalar planner or when its route plan is read.
    """

    __slots__ = ("cost", "finish", "winner", "table", "_plans", "_request_of")

    def __init__(self, request_of: Callable[[int], PlanRequest], count: int,
                 table: PlanningTable) -> None:
        self._request_of = request_of
        self.cost = np.zeros(count)
        self.finish = np.zeros(count)
        self.winner = np.zeros(count, dtype=np.intp)
        #: what :meth:`plan` replays a winning row on
        self.table = table
        self._plans: dict[int, RoutePlan] = {}

    def set_plan(self, i: int, plan: RoutePlan) -> None:
        self._plans[i] = plan
        self.cost[i] = plan.cost
        self.finish[i] = plan.evaluation.finish_time

    def plan(self, i: int) -> RoutePlan:
        plan = self._plans.get(i)
        if plan is None:
            plan = self._plans[i] = self.table.route_plan(self._request_of(i),
                                                          self.winner[i])
        return plan


class CostModel:
    """Shared cost computations over a distance oracle.

    The model memoises per-order shortest delivery times and exposes every
    cost the policies need.  It is deliberately stateless with respect to the
    assignment process itself — policies and the simulator own all mutable
    state.

    **Planning scope.**  The one exception is :meth:`planning_scope`, which a
    policy enters at the top of ``assign`` and leaves on exit: for its
    duration the model holds one :class:`~repro.orders.route_plan.PlanningTable`
    — a single static distance block over the window's node universe (the
    eligible vehicles' nodes and the restaurant/customer nodes of the pool
    orders and of the orders those vehicles carry) — that serves every leg,
    first-mile check and batching gap check of the window, plus a memo of
    ``Cost(v, O_v)`` per vehicle.  Nothing outlives the ``with`` block, and
    traffic updates only happen between windows, so the table needs no
    invalidation: a plan requested after ``apply_traffic_updates`` is
    served by a table built after it, or by the oracle itself.

    Route plans are searched in bulk (:meth:`make_batches`,
    :meth:`merge_costs`, :meth:`marginal_costs` and their single-request
    forms): each call enters a planning scope itself — the caller's, when
    that covers it — and every request of the call is a row of the table's
    order slots from start to finish (:meth:`_search_rows`); all rows of
    one plan shape go through one pass of the array kernel.  A
    :class:`~repro.orders.route_plan.PlanRequest` object is built of a row
    only where a scalar planner takes it and when somebody reads its route
    plan.  :meth:`plan_for_vehicle` and :meth:`vehicle_cost` plan one lone
    request (:meth:`_search`): a request too small for the kernel is
    scanned in Python instead, chosen by its permutation count.
    """

    def __init__(self, oracle: DistanceOracle, planner: str = "auto") -> None:
        """Create a cost model over a distance oracle.

        ``planner`` selects how quickest route plans are computed:
        ``"exhaustive"`` enumerates every valid stop permutation (the paper's
        approach, exact for MAXO <= 3), ``"insertion"`` uses the cheapest-
        insertion heuristic (supports large batches, near-optimal for small
        ones), and ``"auto"`` (default) is exhaustive up to 8 stops and
        insertion beyond.
        """
        if planner not in {"auto", "exhaustive", "insertion"}:
            raise ValueError(f"unknown planner {planner!r}")
        self._oracle = oracle
        self._planner = planner
        self._sdt_cache: dict[int, float] = {}
        self._table: PlanningTable | None = None
        #: ``Cost(v, O_v)`` by ``(vehicle_id, now)``; lives and dies with the scope
        self._base_costs: dict[tuple[int, float], float] | None = None
        #: Route plans searched over the model's lifetime.  A bare int (not a
        #: registry counter) because the increment sits on the planning hot
        #: path; the engine folds per-run deltas into the run telemetry
        #: alongside the oracle counters.
        self.plan_calls = 0
        self.search_stats = SearchStats()

    @property
    def oracle(self) -> DistanceOracle:
        return self._oracle

    @property
    def planner(self) -> str:
        return self._planner

    # ------------------------------------------------------------------ #
    # the window-scoped planning context
    # ------------------------------------------------------------------ #
    @contextmanager
    def planning_scope(self, orders: Iterable[Order],
                       vehicles: Sequence[Vehicle] = ()) -> Iterator[None]:
        """Hold one planning table over ``orders`` and ``vehicles`` for the block.

        The universe is the vehicles' nodes plus both nodes of every given
        order and of every order a vehicle carries.  Vehicles must not be
        mutated inside the block (policies never do): their ``Cost(v, O_v)``
        is memoised per scope.  Entering a scope inside one that already
        covers the universe reuses it, so the bulk searches and the builders
        scope themselves and still share the table ``assign`` opened.
        """
        orders = list(itertools.chain(
            orders, (order for vehicle in vehicles
                     for order in vehicle.assigned.values())))
        start_nodes = [vehicle.node for vehicle in vehicles]
        outer = self._table
        if outer is not None and outer.covers(orders, start_nodes):
            yield
            return
        saved = (outer, self._base_costs)
        self._table = PlanningTable(self._oracle, orders, start_nodes, self.sdt)
        self._base_costs = {}
        try:
            yield
        finally:
            self._table, self._base_costs = saved

    def distance(self, source: int, target: int, t: float) -> float:
        """``SP(source, target, t)``, off the planning table when it has both nodes."""
        table = self._table
        if table is not None and source in table.index and target in table.index:
            return table.distance(source, target, t)
        return self._oracle.distance(source, target, t)

    def distance_matrix(self, sources: Sequence[int], targets: Sequence[int],
                        t: float) -> np.ndarray:
        """Cross-product travel times, off the planning table when it has the nodes."""
        table = self._table
        if table is None or not table.covers((), itertools.chain(sources, targets)):
            return self._oracle.distance_matrix(sources, targets, t)
        return table.distance_matrix(sources, targets, t)

    # ------------------------------------------------------------------ #
    # route-plan search
    # ------------------------------------------------------------------ #
    def _plan_alone(self, request: PlanRequest, distance) -> RoutePlan | None:
        """The plan of a request no kernel pass can take, ``None`` if one can:
        requests for the insertion heuristic and for exhaustive plans beyond
        the auto limit (whose permutation matrix would not fit) are planned
        one by one."""
        new_orders, start_node, start_time, onboard = request
        stop_count = 2 * len(new_orders) + len(onboard)
        if self._planner == "insertion" or (
                self._planner == "auto" and stop_count > _AUTO_EXHAUSTIVE_STOP_LIMIT):
            return insertion_route_plan(new_orders, start_node, start_time, distance,
                                        self.sdt, onboard_orders=onboard)
        if stop_count > _AUTO_EXHAUSTIVE_STOP_LIMIT:
            return best_route_plan(new_orders, start_node, start_time, distance,
                                   self.sdt, onboard_orders=onboard)
        return None

    def _kernel_pass(self, table: PlanningTable, new: np.ndarray, onboard: np.ndarray,
                     start: np.ndarray, start_time: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass of the array kernel over same-shape slot rows, accounted
        for: summary mode only counts (:attr:`search_stats`), trace mode adds
        one ``cost.route_plan`` latency sample."""
        tracer = current_tracer()
        began = time.perf_counter() if tracer.keep_records else 0.0
        result = route_plan_kernel(table, new, onboard, start, start_time)
        if tracer.keep_records:
            tracer.observe("cost.route_plan", time.perf_counter() - began)
        shape = (new.shape[1], onboard.shape[1])
        stats = self.search_stats
        stats.kernel_passes += 1
        stats.kernel_rows += permutation_rows(shape) * len(start)
        stats.kernel_steps += prefix_steps(shape) * len(start)
        return result

    def _search(self, request: PlanRequest) -> RoutePlan:
        """The quickest route plan of one lone request.

        A request only a scalar planner takes (:meth:`_plan_alone`) goes to
        it.  One of at most :data:`~repro.orders.route_plan.SCALAR_SCAN_ROWS`
        permutations (Greedy's pairs, the engine's replans) is scanned in
        Python, which finishes before the kernel has set up; a larger one
        takes one kernel pass, on the open planning table or on a table of
        its own.  Distances come off the open table if there is one, else
        from the oracle.
        """
        self.plan_calls += 1
        table = self._table
        distance = table.distance if table is not None else self._oracle.distance
        plan = self._plan_alone(request, distance)
        if plan is None and permutation_rows(request.shape) <= SCALAR_SCAN_ROWS:
            plan = scan_route_plan(request, distance, self.sdt)
        if plan is None:
            if table is None:
                table = PlanningTable(self._oracle,
                                      request.new_orders + request.onboard_orders,
                                      (request.start_node,), self.sdt)
            winner, _, _ = self._kernel_pass(table, *request_rows([request], table))
            plan = table.route_plan(request, winner.item())
        return plan

    def _search_rows(self, table: PlanningTable, new: np.ndarray, onboard: np.ndarray,
                     start: np.ndarray, now: float) -> _Search:
        """Search the quickest route plan of every request, given as rows of
        the table's order slots.

        Request ``r`` plans the orders of ``new[r]`` (to pick up and drop
        off) and of ``onboard[r]`` (to drop off) from the node of index
        ``start[r]`` at time ``now``; rows shorter than the matrix is wide
        end in ``-1``.  Requests only a scalar planner takes
        (:meth:`_plan_alone`) are planned one by one; the rest take one
        kernel pass per plan shape — unless all of them together come to no
        more than :data:`~repro.orders.route_plan.SCALAR_SCAN_ROWS`
        permutations, which are scanned in Python.  A :class:`PlanRequest`
        is only built of a row that a scalar planner or the Python scan
        takes — and of the rows whose route plan is read.
        """
        count = len(start)
        self.plan_calls += count
        num_new, num_onboard = (new >= 0).sum(axis=1), (onboard >= 0).sum(axis=1)

        def request_of(i: int) -> PlanRequest:
            return table.request(new[i, :num_new[i]].tolist(),
                                 onboard[i, :num_onboard[i]].tolist(),
                                 start[i], now)

        search = _Search(request_of, count, table)
        if self._planner == "insertion":
            alone = np.arange(count)
        else:
            alone = np.flatnonzero(2 * num_new + num_onboard
                                   > _AUTO_EXHAUSTIVE_STOP_LIMIT)
        for i in alone.tolist():
            search.set_plan(i, self._plan_alone(request_of(i), table.distance))
        if len(alone) == count:
            return search
        # (An exhaustive plan has at most eight stops, so the two counts of a
        # shape fit one code.)
        code = num_new * 16 + num_onboard
        code[alone] = -1
        groups = [(divmod(c, 16), np.flatnonzero(code == c))
                  for c in np.unique(code).tolist() if c >= 0]
        if count - len(alone) <= SCALAR_SCAN_ROWS and sum(
                permutation_rows(shape) * len(members)
                for shape, members in groups) <= SCALAR_SCAN_ROWS:
            for _, members in groups:
                for i in members.tolist():
                    search.set_plan(i, scan_route_plan(request_of(i), table.distance,
                                                       self.sdt))
            return search
        for (width, carried), members in groups:
            winner, cost, finish = self._kernel_pass(
                table, new[members, :width], onboard[members, :carried],
                start[members], np.full(len(members), now))
            search.winner[members] = winner
            search.cost[members] = cost
            search.finish[members] = finish
        return search

    # ------------------------------------------------------------------ #
    # basic quantities
    # ------------------------------------------------------------------ #
    def sdt(self, order: Order) -> float:
        """Memoised shortest delivery time of an order (Def. 6)."""
        cached = self._sdt_cache.get(order.order_id)
        if cached is None:
            cached = shortest_delivery_time(order, self._oracle)
            self._sdt_cache[order.order_id] = cached
        return cached

    def prefetch_sdt(self, orders: Sequence[Order]) -> None:
        """Warm the SDT memo for a batch of orders with one paired kernel call.

        The simulation engine calls this at every window boundary with the
        orders that arrived during the window, replacing one point query per
        order with a single :meth:`DistanceOracle.static_distances` batch.
        Each order's direct restaurant-to-customer distance is scaled by the
        congestion multiplier of its own placement time, performing exactly
        the float operations of :func:`shortest_delivery_time`.
        """
        missing = [order for order in orders
                   if order.order_id not in self._sdt_cache]
        if not missing:
            return
        statics = self._oracle.static_distances(
            [order.restaurant_node for order in missing],
            [order.customer_node for order in missing])
        multiplier = self._oracle.network.profile.multiplier
        cache = self._sdt_cache
        for order, static in zip(missing, statics.tolist(), strict=True):
            cache[order.order_id] = (
                order.prep_time + static * multiplier(order.placed_at))

    def first_mile(self, order: Order, vehicle_node: int, now: float) -> float:
        """Direct travel time from a vehicle's location to the restaurant."""
        return self._oracle.distance(vehicle_node, order.restaurant_node, now)

    def last_mile(self, order: Order, now: float) -> float:
        """Direct travel time from the restaurant to the customer."""
        return self._oracle.distance(order.restaurant_node, order.customer_node, now)

    def expected_delivery_time(self, order: Order, vehicle_node: int, now: float) -> float:
        """``EDT(o, v)`` for a vehicle serving only this order (Eq. 2).

        The assignment-time term is the time the order has already waited
        when the decision is made (``now - o^t``).
        """
        first = self.first_mile(order, vehicle_node, now)
        last = self.last_mile(order, now)
        waited = order.waiting_since(now)
        return max(waited + first, order.prep_time) + last

    def extra_delivery_time(self, order: Order, vehicle_node: int, now: float) -> float:
        """``XDT(o, v) = EDT(o, v) - SDT(o)`` (Def. 7), clamped at zero."""
        return max(0.0, self.expected_delivery_time(order, vehicle_node, now) - self.sdt(order))

    # ------------------------------------------------------------------ #
    # route plans and vehicle costs
    # ------------------------------------------------------------------ #
    @staticmethod
    def _vehicle_request(vehicle: Vehicle, new_orders: Sequence[Order],
                         now: float) -> PlanRequest:
        """Orders already on board only need drop-offs; pending (assigned but
        not picked-up) orders and the new orders need both stops."""
        return PlanRequest(tuple(vehicle.pending_orders()) + tuple(new_orders),
                           vehicle.node, now, tuple(vehicle.onboard_orders()))

    def plan_for_vehicle(self, vehicle: Vehicle, new_orders: Sequence[Order],
                         now: float) -> RoutePlan:
        """Quickest route plan for a vehicle after adding ``new_orders``."""
        return self._search(self._vehicle_request(vehicle, new_orders, now))

    def vehicle_cost(self, vehicle: Vehicle, extra_orders: Sequence[Order],
                     now: float) -> float:
        """``Cost(v, O_v^t ∪ extra_orders)`` (Eq. 4)."""
        return self._search(self._vehicle_request(vehicle, extra_orders, now)).cost

    def marginal_costs(self, order_sets: Sequence[Sequence[Order]],
                       vehicles: Sequence[Vehicle], set_idx: Sequence[int],
                       vehicle_idx: Sequence[int], now: float,
                       ) -> tuple[np.ndarray, Callable[[int], RoutePlan]]:
        """``mCost(pi, v)`` (Eq. 7) of many pairs of an order set and a vehicle.

        Pair ``i`` offers ``order_sets[set_idx[i]]`` to
        ``vehicles[vehicle_idx[i]]``.  Returns the marginal cost of every
        pair — ``inf`` when the capacity constraints of Def. 4 are violated
        or some location is unreachable from the vehicle — and a function
        giving, on demand, the route plan that realises the finite cost of
        pair ``i`` (a FoodGraph wants every weight but only the plans of the
        pairs it ends up matching).  All "with" plans go through one bulk
        search, then the "without" plans of the vehicles the scope's memo
        lacks through another, so a vehicle's "without" plan is searched
        once per window however many batches it is offered.

        No pair becomes a Python object: every vehicle and every order set
        is read once, into rows of the table's order slots, Def. 4 is one
        array comparison, and an accepted pair's request is the vehicle's
        pending row followed by the set's row.
        """
        set_idx = np.asarray(set_idx, dtype=np.intp)
        vehicle_idx = np.asarray(vehicle_idx, dtype=np.intp)
        with self.planning_scope(itertools.chain.from_iterable(order_sets), vehicles):
            table, memo = self._table, self._base_costs
            slot, index = table.slot, table.index
            sets = _padded([[slot[order.order_id] for order in orders]
                            for orders in order_sets])
            set_size = np.array([len(orders) for orders in order_sets])
            set_items = np.array([sum(order.items for order in orders)
                                  for orders in order_sets])
            pending = _padded([[slot[order.order_id] for order in vehicle.pending_orders()]
                               for vehicle in vehicles])
            onboard = _padded([[slot[order.order_id] for order in vehicle.onboard_orders()]
                               for vehicle in vehicles])
            node = np.array([index[vehicle.node] for vehicle in vehicles], dtype=np.intp)
            room = np.array([(vehicle.max_orders - vehicle.order_count,
                              vehicle.max_items - vehicle.item_load)
                             for vehicle in vehicles]).reshape(len(vehicles), 2)
            accepted = np.flatnonzero((set_size[set_idx] <= room[vehicle_idx, 0])
                                      & (set_items[set_idx] <= room[vehicle_idx, 1]))
            s, v = set_idx[accepted], vehicle_idx[accepted]
            # The vehicle's pending row, then the set's: a stable sort of the
            # padding to the end closes the gap a short pending row leaves.
            new = np.concatenate((pending[v], sets[s]), axis=1)
            new = np.take_along_axis(new, np.argsort(new < 0, axis=1, kind="stable"),
                                     axis=1)
            search = self._search_rows(table, new, onboard[v], node[v], now)
            reachable = np.flatnonzero(search.cost != INFINITY)
            v = v[reachable]
            # Cost(v, O_v) of the vehicles the scope's memo lacks, in one search.
            keys = {j: (vehicles[j].vehicle_id, now) for j in dict.fromkeys(v.tolist())}
            missing = np.array([j for j, key in keys.items() if key not in memo],
                               dtype=np.intp)
            self.search_stats.base_plans_reused += len(v) - len(missing)
            if len(missing):
                found = self._search_rows(table, pending[missing], onboard[missing],
                                          node[missing], now)
                memo.update(zip((keys[j] for j in missing.tolist()), found.cost.tolist(),
                                strict=True))
            base = np.zeros(len(vehicles))
            base[list(keys)] = [memo[key] for key in keys.values()]
        weights = np.full(len(set_idx), INFINITY)
        weights[accepted[reachable]] = search.cost[reachable] - base[v]
        return weights, lambda i: search.plan(int(np.searchsorted(accepted, i)))

    def marginal_cost(self, orders: Sequence[Order], vehicle: Vehicle, now: float,
                      ) -> tuple[float, RoutePlan | None]:
        """``mCost(pi, v)`` (Eq. 7) and the route plan realising it.

        Returns ``(inf, None)`` when the capacity constraints of Def. 4 are
        violated or when some location is unreachable from the vehicle.
        """
        weights, plan_of = self.marginal_costs([orders], [vehicle], [0], [0], now)
        weight = weights.item()
        return weight, (plan_of(0) if weight != INFINITY else None)

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def _search_batches(self, order_sets: Sequence[Sequence[Order]], now: float,
                        ) -> tuple[list[float], Callable[[int], Batch]]:
        """Per order set: its batch cost now, and the batch itself on demand.

        The paper evaluates a batch with a virtual vehicle whose initial
        location is the first stop of the batch's optimal route plan
        (Sec. IV-B1); we realise this by trying each member restaurant as
        the virtual start and keeping the cheapest resulting plan.  Every
        start of every set is one request of a single bulk search: one copy
        of the set's row of order slots.
        """
        members = [tuple(sorted(orders, key=lambda o: o.order_id))
                   for orders in order_sets]
        # Set iteration order decides ties between starts, as it always has.
        starts = [list({order.restaurant_node for order in ordered})
                  for ordered in members]
        with self.planning_scope(itertools.chain.from_iterable(members)):
            table = self._table
            slot, index = table.slot, table.index
            sets = _padded([[slot[order.order_id] for order in ordered]
                            for ordered in members])
            of_set = np.repeat(np.arange(len(members)), [len(nodes) for nodes in starts])
            search = self._search_rows(
                table, sets[of_set], np.empty((len(of_set), 0), dtype=np.intp),
                np.array([index[start] for nodes in starts for start in nodes],
                         dtype=np.intp), now)
        best = _first_minima(search.cost, search.finish,
                             [len(nodes) for nodes in starts])
        return (search.cost[best].tolist(),
                lambda i: Batch(members[i], search.plan(best[i])))

    def make_batches(self, order_sets: Sequence[Sequence[Order]],
                     now: float) -> list[Batch]:
        """One batch per order set, each with its quickest internal route plan."""
        _, batch_of = self._search_batches(order_sets, now)
        return [batch_of(i) for i in range(len(order_sets))]

    def make_batch(self, orders: Sequence[Order], now: float) -> Batch:
        """Build a batch with the quickest internal route plan (Sec. IV-B1)."""
        return self.make_batches([orders], now)[0]

    def merge_costs(self, pairs: Sequence[tuple[Batch, Batch]], now: float,
                    ) -> tuple[list[float], Callable[[int], Batch]]:
        """Order-graph edge weights ``w_ij`` (Eq. 5) of many batch pairs at once.

        ``w_ij = Cost(v_ij, pi_i ∪ pi_j) - Cost(v_i, pi_i) - Cost(v_j, pi_j)``;
        Theorem 2 guarantees the value is non-negative.  Returns the weights
        and a function giving the merged batch of pair ``i`` on demand
        (clustering weighs every candidate merge but performs few).
        """
        costs, merged_of = self._search_batches(
            [left.orders + right.orders for left, right in pairs], now)
        return ([max(0.0, cost - (left.cost + right.cost))
                 for (left, right), cost in zip(pairs, costs, strict=True)],
                merged_of)

    def merge_cost(self, left: Batch, right: Batch, now: float) -> tuple[float, Batch]:
        """Edge weight ``w_ij`` of the order graph (Eq. 5) and the merged batch."""
        (weight,), merged_of = self.merge_costs([(left, right)], now)
        return weight, merged_of(0)


__all__ = ["CostModel", "SearchStats", "shortest_delivery_time"]
