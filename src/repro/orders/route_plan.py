"""Route plans: quickest permutations of pick-up and drop-off stops (Def. 3).

A vehicle carrying the order set ``O_v^t`` follows the *quickest route plan*:
the permutation of pick-up and drop-off nodes, with every pick-up preceding
its drop-off, that minimises total extra delivery time.  Because the paper
caps the number of simultaneous orders at ``MAXO`` (3 for Swiggy), exhaustive
enumeration of the at most ``(2 * MAXO)!``-ish valid interleavings is cheap,
and that is exactly what :func:`best_route_plan` does.

Evaluation of a candidate plan walks the stop sequence with a clock:

* travelling between consecutive stops costs the quickest-path time from the
  distance oracle,
* arriving at a restaurant before the food is ready forces the vehicle to
  wait until ``order.ready_at`` (this waiting is the WT metric of the
  evaluation),
* an order's delivery time is the clock value when its customer stop is
  reached, and its XDT is that delivery time minus its shortest delivery
  time (Defs. 6-7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.orders.order import Order

INFINITY = math.inf


@dataclass(frozen=True)
class RouteStop:
    """One stop of a route plan: a pick-up or drop-off for a specific order."""

    node: int
    order: Order
    is_pickup: bool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "pickup" if self.is_pickup else "dropoff"
        return f"RouteStop({kind} o{self.order.order_id}@{self.node})"


@dataclass
class PlanEvaluation:
    """The outcome of simulating one stop sequence.

    Attributes
    ----------
    total_xdt:
        Sum of extra delivery times over all orders in the plan (Eq. 4).
    delivery_times:
        Absolute timestamp at which each order is dropped off.
    pickup_times:
        Absolute timestamp at which each order is picked up.
    waiting_time:
        Total time the vehicle spends idling at restaurants waiting for food.
    travel_time:
        Total driving time along the plan (excludes waiting).
    finish_time:
        Clock value after the final stop.
    """

    total_xdt: float
    delivery_times: dict[int, float]
    pickup_times: dict[int, float]
    waiting_time: float
    travel_time: float
    finish_time: float


@dataclass
class RoutePlan:
    """A fully evaluated quickest route plan for a vehicle/order set."""

    stops: tuple[RouteStop, ...]
    start_node: int
    start_time: float
    evaluation: PlanEvaluation

    @property
    def cost(self) -> float:
        """``Cost(v, O)``: total extra delivery time of the plan (Eq. 4)."""
        return self.evaluation.total_xdt

    @property
    def is_empty(self) -> bool:
        return not self.stops

    @property
    def first_node(self) -> int | None:
        """First stop node (``pi[1]^r`` when the plan starts with a pick-up)."""
        return self.stops[0].node if self.stops else None

    @property
    def first_pickup_order(self) -> Order | None:
        """The first order to be picked up along the plan (``pi[1]``)."""
        for stop in self.stops:
            if stop.is_pickup:
                return stop.order
        return None

    def orders(self) -> list[Order]:
        """Distinct orders referenced by the plan, in first-appearance order."""
        seen: dict[int, Order] = {}
        for stop in self.stops:
            seen.setdefault(stop.order.order_id, stop.order)
        return list(seen.values())

    def node_sequence(self) -> list[int]:
        """The stop nodes in visiting order (with the start node prepended)."""
        return [self.start_node] + [stop.node for stop in self.stops]

    def __len__(self) -> int:
        return len(self.stops)


def _base_stops(new_orders: Sequence[Order],
                onboard_orders: Sequence[Order]) -> list[RouteStop]:
    """Stops in base layout: [pickup_0, dropoff_0, ..., onboard drop-offs...]."""
    stops: list[RouteStop] = []
    for order in new_orders:
        stops.append(RouteStop(order.restaurant_node, order, True))
        stops.append(RouteStop(order.customer_node, order, False))
    stops.extend(RouteStop(order.customer_node, order, False)
                 for order in onboard_orders)
    return stops


def enumerate_route_plans(new_orders: Sequence[Order],
                          onboard_orders: Sequence[Order] = ()) -> Iterator[tuple[RouteStop, ...]]:
    """Yield every valid stop sequence for the given orders.

    ``new_orders`` still need both a pick-up and a drop-off; ``onboard_orders``
    have already been picked up, so only their drop-off stop appears.  A
    sequence is valid when each pick-up precedes the corresponding drop-off.
    """
    stops = _base_stops(new_orders, onboard_orders)
    if not stops:
        yield ()
        return
    for perm in itertools.permutations(stops):
        picked: set = set()
        valid = True
        for stop in perm:
            if stop.is_pickup:
                picked.add(stop.order.order_id)
            elif stop.order.order_id not in picked and any(
                    s.is_pickup and s.order.order_id == stop.order.order_id for s in stops):
                valid = False
                break
        if valid:
            yield perm


def evaluate_plan(stops: Sequence[RouteStop], start_node: int, start_time: float,
                  distance, sdt_lookup) -> PlanEvaluation:
    """Walk a stop sequence and compute its cost components.

    Parameters
    ----------
    distance:
        Callable ``distance(u, v, t) -> seconds`` (typically
        :meth:`repro.network.DistanceOracle.distance`).
    sdt_lookup:
        Callable ``sdt_lookup(order) -> seconds`` returning the shortest
        delivery time of the order (Def. 6); memoised by the cost model.
    """
    clock = start_time
    location = start_node
    waiting = 0.0
    travel = 0.0
    pickups: dict[int, float] = {}
    deliveries: dict[int, float] = {}
    total_xdt = 0.0
    for stop in stops:
        leg = distance(location, stop.node, clock)
        if leg == INFINITY:
            return PlanEvaluation(INFINITY, {}, {}, 0.0, 0.0, INFINITY)
        clock += leg
        travel += leg
        location = stop.node
        if stop.is_pickup:
            ready = stop.order.ready_at
            if clock < ready:
                waiting += ready - clock
                clock = ready
            pickups[stop.order.order_id] = clock
        else:
            deliveries[stop.order.order_id] = clock
            xdt = (clock - stop.order.placed_at) - sdt_lookup(stop.order)
            total_xdt += max(0.0, xdt)
    return PlanEvaluation(total_xdt, deliveries, pickups, waiting, travel, clock)


def best_route_plan(new_orders: Sequence[Order], start_node: int, start_time: float,
                    distance, sdt_lookup,
                    onboard_orders: Sequence[Order] = ()) -> RoutePlan:
    """Return the quickest route plan for the given order sets.

    All valid permutations are evaluated and the one with the lowest total
    extra delivery time is returned (ties broken by earlier finish time,
    then by the permutation order for determinism).  With no orders at all
    the returned plan is empty with zero cost.
    """
    best_stops: tuple[RouteStop, ...] = ()
    best_eval: PlanEvaluation | None = None
    for stops in enumerate_route_plans(new_orders, onboard_orders):
        evaluation = evaluate_plan(stops, start_node, start_time, distance, sdt_lookup)
        if best_eval is None:
            best_stops, best_eval = stops, evaluation
            continue
        if (evaluation.total_xdt, evaluation.finish_time) < (best_eval.total_xdt,
                                                             best_eval.finish_time):
            best_stops, best_eval = stops, evaluation
    if best_eval is None:
        best_eval = PlanEvaluation(0.0, {}, {}, 0.0, 0.0, start_time)
    return RoutePlan(best_stops, start_node, start_time, best_eval)


# --------------------------------------------------------------------------- #
# bulk exhaustive search
# --------------------------------------------------------------------------- #
#: Upper bound on the rows (requests x valid permutations) one array pass of
#: :func:`route_plan_kernel` walks; longer request lists are cut into chunks
#: of whole requests.  A constant rather than an option: it only
#: bounds the kernel's temporaries (a dozen float64 arrays of this many
#: elements, ~1.5 MiB) and never changes a result, and throughput on the
#: benchmark workloads is flat from 4k to 256k rows, so there is nothing to
#: tune.
KERNEL_ROW_BUDGET = 1 << 14

#: A request list whose permutations add up to at most this many rows is
#: scanned in Python (:func:`scan_route_plan`): one lone request of up to
#: four stops has at most 24 valid permutations, fewer than the array
#: kernel's fixed set-up cost pays for.
SCALAR_SCAN_ROWS = 24


class PlanRequest(NamedTuple):
    """One quickest-route-plan search (the arguments of :func:`best_route_plan`)."""

    new_orders: tuple[Order, ...]
    start_node: int
    start_time: float
    onboard_orders: tuple[Order, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_new, num_onboard)``: what the valid permutations depend on."""
        return len(self.new_orders), len(self.onboard_orders)


# Valid stop-sequence patterns per (num_new_orders, num_onboard_orders): the
# stops list is always laid out [pickup_0, dropoff_0, pickup_1, dropoff_1, ...,
# onboard dropoffs...], so the set of valid permutations (every pickup before
# its dropoff) depends only on the two counts.  Cached as an index matrix in
# the exact order `itertools.permutations` produces, which is what makes the
# bulk search tie-break identically to the scalar scan.
_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _valid_permutations(num_new: int, num_onboard: int) -> np.ndarray:
    """Index matrix of all valid stop sequences for the given counts."""
    key = (num_new, num_onboard)
    cached = _PERM_CACHE.get(key)
    if cached is not None:
        return cached
    size = 2 * num_new + num_onboard
    sequences = list(itertools.permutations(range(size)))
    perms = np.array(sequences, dtype=np.int64).reshape(len(sequences), size)
    positions = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    positions[rows, perms] = np.arange(size)[None, :]
    valid = np.ones(len(perms), dtype=bool)
    for order_idx in range(num_new):
        valid &= positions[:, 2 * order_idx] < positions[:, 2 * order_idx + 1]
    cached = perms[valid]
    _PERM_CACHE[key] = cached
    return cached


def permutation_rows(shape: tuple[int, int]) -> int:
    """Number of valid stop sequences of a plan shape (rows per request)."""
    return len(_valid_permutations(*shape))


class PrefixLevel(NamedTuple):
    """The distinct valid stop-sequence prefixes of one length, as index arrays.

    Prefix ``i`` of the level is prefix ``parent[i]`` of the level before
    (the empty prefix, 0, for the first level) followed by base-layout stop
    ``stop[i]``; ``leg[i]`` addresses the leg into that stop in a request's
    ``(size + 1) * size`` leg table (origin-major, origin 0 being the start
    node and origin ``j + 1`` stop ``j``).
    """

    parent: np.ndarray
    stop: np.ndarray
    leg: np.ndarray


# The valid permutations of a shape as a tree of shared prefixes: walking it
# level by level evaluates every stop of every distinct prefix once instead of
# once per permutation that starts with it.
_PREFIX_CACHE: dict[tuple[int, int], list[PrefixLevel]] = {}


def _prefix_levels(num_new: int, num_onboard: int) -> list[PrefixLevel]:
    """The shape's prefix tree, one :class:`PrefixLevel` per stop position.

    Prefixes are numbered by first appearance in the permutation matrix, so
    prefix ``i`` of the last level is row ``i`` of
    :func:`_valid_permutations`.
    """
    key = (num_new, num_onboard)
    cached = _PREFIX_CACHE.get(key)
    if cached is not None:
        return cached
    perms = _valid_permutations(num_new, num_onboard)
    size = perms.shape[1]
    levels: list[PrefixLevel] = []
    prefix_of_row = np.zeros(len(perms), dtype=np.intp)
    origin_of_row = np.zeros(len(perms), dtype=np.intp)
    for pos in range(size):
        stop_of_row = perms[:, pos]
        _, first, inverse = np.unique(prefix_of_row * size + stop_of_row,
                                      return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        number = np.empty_like(by_appearance)
        number[by_appearance] = np.arange(len(by_appearance))
        rows = first[by_appearance]
        levels.append(PrefixLevel(prefix_of_row[rows], stop_of_row[rows],
                                  origin_of_row[rows] * size + stop_of_row[rows]))
        prefix_of_row = number[inverse]
        origin_of_row = stop_of_row + 1
    _PREFIX_CACHE[key] = levels
    return levels


def prefix_steps(shape: tuple[int, int]) -> int:
    """Number of nodes of a plan shape's prefix tree (stops walked per request)."""
    return sum(len(level.stop) for level in _prefix_levels(*shape))


class PlanningTable:
    """What the bulk search gathers from: legs and stop attributes, as arrays.

    One :meth:`DistanceOracle.static_distance_matrix` block over ``nodes``
    holds the static travel time of every leg any plan over ``orders`` from
    any of the ``start_nodes`` can contain; the per-order arrays hold what
    :func:`evaluate_plan` reads off a stop (node, ready time, placement
    time, shortest delivery time).  Orders are addressed by ``order_id``,
    the identity :class:`~repro.orders.order.Order` itself compares by.

    The table is a snapshot of the oracle at construction: whoever keeps one
    across a traffic update reads stale legs.  :class:`CostModel` therefore
    only ever holds one for the duration of a single ``assign`` call.
    """

    def __init__(self, oracle, orders: Iterable[Order],
                 start_nodes: Iterable[int], sdt_lookup) -> None:
        orders = list({order.order_id: order for order in orders}.values())
        nodes = list(dict.fromkeys(itertools.chain(
            (node for order in orders
             for node in (order.restaurant_node, order.customer_node)),
            start_nodes)))
        #: slot -> order and node index -> node, the inverses of ``slot`` / ``index``
        self.orders = orders
        self.nodes = nodes
        self.index: dict[int, int] = {node: i for i, node in enumerate(nodes)}
        self.static = oracle.static_distance_matrix(nodes, nodes)
        self._rows: list[list[float]] | None = None
        profile = oracle.network.profile
        self._multiplier = profile.multiplier
        self.multipliers = np.asarray(profile.multipliers, dtype=np.float64)
        self.sdt_lookup = sdt_lookup
        index = self.index
        self.slot: dict[int, int] = {order.order_id: i
                                     for i, order in enumerate(orders)}
        self.pickup_node = np.array([index[o.restaurant_node] for o in orders],
                                    dtype=np.intp)
        self.dropoff_node = np.array([index[o.customer_node] for o in orders],
                                     dtype=np.intp)
        self.ready = np.array([o.ready_at for o in orders], dtype=np.float64)
        self.placed = np.array([o.placed_at for o in orders], dtype=np.float64)
        self.sdt = np.array([sdt_lookup(o) for o in orders], dtype=np.float64)
        # Stops are immutable, so every plan over an order shares these two.
        self.pickup_stop = [RouteStop(o.restaurant_node, o, True) for o in orders]
        self.dropoff_stop = [RouteStop(o.customer_node, o, False) for o in orders]

    def covers(self, orders: Iterable[Order], start_nodes: Iterable[int]) -> bool:
        """Whether every plan over these orders and starts reads only this table."""
        return (all(order.order_id in self.slot for order in orders)
                and all(node in self.index for node in start_nodes))

    def static_distance(self, u: int, v: int) -> float:
        """Static (profile-free) travel time between two of the table's nodes."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self.static.tolist()
        return rows[self.index[u]][self.index[v]]

    def distance(self, u: int, v: int, t: float) -> float:
        """``SP(u, v, t)`` — float for float what ``DistanceOracle.distance`` returns."""
        return self.static_distance(u, v) * self._multiplier(t)

    def distance_matrix(self, sources: Sequence[int], targets: Sequence[int],
                        t: float) -> np.ndarray:
        """Cross-product travel times — element for element what
        ``DistanceOracle.distance_matrix`` returns."""
        index = self.index
        block = self.static[np.ix_([index[node] for node in sources],
                                   [index[node] for node in targets])]
        return block * self._multiplier(t)

    def request(self, new: Sequence[int], onboard: Sequence[int], start: int,
                start_time: float) -> PlanRequest:
        """The :class:`PlanRequest` a row of order slots and a node index stand for."""
        orders = self.orders
        return PlanRequest(tuple(orders[i] for i in new), self.nodes[start],
                           start_time, tuple(orders[i] for i in onboard))

    def stops(self, request: PlanRequest) -> list[RouteStop]:
        """The request's stops in base layout (what a permutation row indexes)."""
        slot = self.slot
        stops: list[RouteStop] = []
        for order in request.new_orders:
            i = slot[order.order_id]
            stops.append(self.pickup_stop[i])
            stops.append(self.dropoff_stop[i])
        stops.extend(self.dropoff_stop[slot[order.order_id]]
                     for order in request.onboard_orders)
        return stops

    def route_plan(self, request: PlanRequest, winner: int) -> RoutePlan:
        """The fully evaluated plan of one request's winning permutation row.

        Re-walks only that one stop sequence with :func:`evaluate_plan`, so
        the :class:`PlanEvaluation` is the scalar scan's, bit for bit.
        """
        base = self.stops(request)
        perm = _valid_permutations(*request.shape)[winner].tolist()
        stops = tuple(base[i] for i in perm)
        evaluation = evaluate_plan(stops, request.start_node, request.start_time,
                                   self.distance, self.sdt_lookup)
        return RoutePlan(stops, request.start_node, request.start_time, evaluation)


def route_plan_kernel(table: PlanningTable, new: np.ndarray, onboard: np.ndarray,
                      start: np.ndarray, start_time: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-kernel equivalent of :func:`best_route_plan` for R same-shape requests.

    A request is a row of order slots of ``table``: ``new[r]`` the orders
    still to be picked up, ``onboard[r]`` those already on board, ``start[r]``
    the index of its start node in the table and ``start_time[r]`` its clock.

    The walk goes down the shape's prefix tree (:func:`_prefix_levels`) one
    stop position at a time, in a stop-major layout: one row per distinct
    prefix, one column per request, so taking a level's rows by parent prefix
    or by stop copies whole rows.  A prefix shared by many permutations is
    walked once, and since the last level is the permutation matrix itself
    every permutation ends up with the clock and XDT sum it gets when walked
    alone: each element goes through the identical IEEE operations in the
    identical order as in :func:`evaluate_plan`: ``clock + leg *
    multiplier``; the wait until the food is ready, which at a drop-off is
    "ready" at ``-inf`` and so waits for nothing; ``max(0, (clock - placed)
    - sdt)`` summed onto ``+0.0`` in stop order, which at a pick-up is
    "placed" at ``+inf`` and so adds ``0.0``.  Each request's winner is the first
    permutation (in ``itertools.permutations`` order) attaining the
    lexicographic minimum of ``(total_xdt, finish_time)`` — exactly the plan
    the scalar scan keeps.  Requests are walked in chunks of at most
    :data:`KERNEL_ROW_BUDGET` permutations.

    Returns ``(winner, total_xdt, finish_time)``, one entry per request;
    ``winner`` is a row of the shape's permutation matrix, which
    :meth:`PlanningTable.route_plan` turns into the :class:`RoutePlan`.  The
    property tests compare the result with the scalar scan per request.
    """
    count = len(start)
    num_new, num_onboard = new.shape[1], onboard.shape[1]
    size = 2 * num_new + num_onboard
    winner = np.zeros(count, dtype=np.intp)
    best_xdt = np.zeros(count, dtype=np.float64)
    best_finish = np.array(start_time, dtype=np.float64)
    if size == 0:
        return winner, best_xdt, best_finish

    levels = _prefix_levels(num_new, num_onboard)
    pickups = slice(0, 2 * num_new, 2)
    # Per-stop attributes in base layout, stop-major: (S, R).
    order_of_stop = np.empty((size, count), dtype=np.intp)
    order_of_stop[pickups] = order_of_stop[1:2 * num_new:2] = new.T
    order_of_stop[2 * num_new:] = onboard.T
    nodes = table.dropoff_node[order_of_stop]
    nodes[pickups] = table.pickup_node[new.T]
    ready = np.full((size, count), -INFINITY)
    ready[pickups] = table.ready[new.T]
    placed = table.placed[order_of_stop]
    placed[pickups] = INFINITY
    sdt = table.sdt[order_of_stop]
    origins = np.concatenate((start[None, :], nodes))
    static, multipliers = table.static, table.multipliers

    step = max(1, KERNEL_ROW_BUDGET // len(levels[-1].stop))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        legs = static[origins[:, None, lo:hi], nodes[None, :, lo:hi]].reshape(
            (size + 1) * size, hi - lo)
        clock = best_finish[None, lo:hi]
        total_xdt = np.zeros_like(clock)
        for parent, stop, leg in levels:
            # Slot multiplier of each prefix's clock (finite clocks only;
            # prefixes that already hit an unreachable leg stay at infinity
            # and are forced to the scalar sentinel below).
            finite = np.isfinite(clock)
            slots = (np.where(finite, clock, 0.0) // 3600.0).astype(np.int64) % 24
            clock = clock[parent] + legs[leg] * multipliers[slots][parent]
            clock = np.maximum(clock, ready[stop, lo:hi])
            # inf - inf (a pick-up's placement time against an unreachable
            # prefix's clock or an unreachable order's SDT) is NaN where the
            # sentinel below overwrites anyway.
            with np.errstate(invalid="ignore"):
                total_xdt = total_xdt[parent] + np.maximum(
                    0.0, (clock - placed[stop, lo:hi]) - sdt[stop, lo:hi])
        invalid = ~np.isfinite(clock)
        if invalid.any():
            # The scalar evaluation short-circuits an unreachable leg to an
            # all-infinite evaluation regardless of the XDT accumulated so far.
            total_xdt = np.where(invalid, INFINITY, total_xdt)
            clock = np.where(invalid, INFINITY, clock)
        # First permutation attaining the lexicographic minimum of (xdt,
        # finish): identical to the scalar scan's keep-first-strictly-smaller
        # rule (argmax returns the first True of a column).
        xdt_min = total_xdt.min(axis=0)
        contenders = total_xdt == xdt_min
        finish_min = np.where(contenders, clock, INFINITY).min(axis=0)
        winner[lo:hi] = (contenders & (clock == finish_min)).argmax(axis=0)
        best_xdt[lo:hi] = xdt_min
        best_finish[lo:hi] = finish_min
    return winner, best_xdt, best_finish


def request_rows(requests: Sequence[PlanRequest], table: PlanningTable,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Same-shape requests as the ``(new, onboard, start, start_time)`` slot
    rows :func:`route_plan_kernel` takes."""
    slot, index = table.slot, table.index
    num_new, num_onboard = requests[0].shape
    return (np.array([[slot[o.order_id] for o in r.new_orders] for r in requests],
                     dtype=np.intp).reshape(len(requests), num_new),
            np.array([[slot[o.order_id] for o in r.onboard_orders] for r in requests],
                     dtype=np.intp).reshape(len(requests), num_onboard),
            np.array([index[r.start_node] for r in requests], dtype=np.intp),
            np.array([r.start_time for r in requests], dtype=np.float64))


def scan_route_plan(request: PlanRequest, distance, sdt_lookup) -> RoutePlan:
    """:func:`best_route_plan` for one small request, on the cached patterns.

    Same scan, same :func:`evaluate_plan`, same keep-first-strictly-smaller
    rule; only the enumeration differs — the valid index patterns are cached
    per shape instead of filtered out of ``itertools.permutations`` per call.
    """
    base = _base_stops(request.new_orders, request.onboard_orders)
    best_stops: tuple[RouteStop, ...] = ()
    best_eval: PlanEvaluation | None = None
    for perm in _valid_permutations(*request.shape).tolist():
        stops = tuple(base[i] for i in perm)
        evaluation = evaluate_plan(stops, request.start_node, request.start_time,
                                   distance, sdt_lookup)
        if best_eval is None or (evaluation.total_xdt, evaluation.finish_time) < (
                best_eval.total_xdt, best_eval.finish_time):
            best_stops, best_eval = stops, evaluation
    return RoutePlan(best_stops, request.start_node, request.start_time, best_eval)


def insertion_route_plan(new_orders: Sequence[Order], start_node: int, start_time: float,
                         distance, sdt_lookup,
                         onboard_orders: Sequence[Order] = ()) -> RoutePlan:
    """Cheapest-insertion route plan for larger batches.

    The paper caps MAXO at 3, which keeps exhaustive enumeration cheap; its
    batching section nevertheless emphasises supporting "batches of size 3 or
    more".  This heuristic supports that extension: orders are inserted one
    at a time (oldest first), each at the pick-up/drop-off position pair that
    minimises the plan's total extra delivery time.  Complexity is
    ``O(n^2)`` plan positions per order instead of factorial, at the cost of
    optimality.  For small batches it frequently finds the optimal plan; the
    test suite compares it against :func:`best_route_plan`.
    """
    stops: list[RouteStop] = [RouteStop(order.customer_node, order, False)
                              for order in onboard_orders]
    for order in sorted(new_orders, key=lambda o: (o.placed_at, o.order_id)):
        pickup = RouteStop(order.restaurant_node, order, True)
        dropoff = RouteStop(order.customer_node, order, False)
        best_sequence: list[RouteStop] | None = None
        best_key: tuple[float, float] | None = None
        for i in range(len(stops) + 1):
            for j in range(i, len(stops) + 1):
                candidate = list(stops)
                candidate.insert(i, pickup)
                candidate.insert(j + 1, dropoff)
                evaluation = evaluate_plan(candidate, start_node, start_time,
                                           distance, sdt_lookup)
                key = (evaluation.total_xdt, evaluation.finish_time)
                if best_key is None or key < best_key:
                    best_key = key
                    best_sequence = candidate
        stops = best_sequence if best_sequence is not None else stops
    evaluation = evaluate_plan(stops, start_node, start_time, distance, sdt_lookup)
    return RoutePlan(tuple(stops), start_node, start_time, evaluation)


__all__ = [
    "RouteStop",
    "RoutePlan",
    "PlanEvaluation",
    "enumerate_route_plans",
    "evaluate_plan",
    "best_route_plan",
    "PlanRequest",
    "PlanningTable",
    "route_plan_kernel",
    "request_rows",
    "scan_route_plan",
    "permutation_rows",
    "prefix_steps",
    "KERNEL_ROW_BUDGET",
    "SCALAR_SCAN_ROWS",
    "insertion_route_plan",
]
