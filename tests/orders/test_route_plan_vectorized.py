"""Equivalence tests: bulk route-plan search vs the scalar permutation scan.

:func:`~repro.orders.route_plan.route_plan_kernel` (fed here by
:func:`~repro.orders.route_plan.request_rows`) must pick, for every request
of a same-shape list, the exact plan
:func:`~repro.orders.route_plan.best_route_plan` returns — the same stop
sequence (including enumeration-order tie-breaking) and a bit-identical
evaluation — over random order sets, onboard orders and congestion
profiles; and :class:`~repro.orders.costs.CostModel`, which scans a small
lone request in Python and sends a larger one through the kernel, must do
so for every vehicle it plans, in a planning scope or out of one.  The
kernel walks each shape's valid permutations as a tree of shared prefixes,
so the tree itself is checked against the permutation matrix first.
"""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.graph import TimeProfile
from repro.orders import route_plan
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.orders.route_plan import (
    PlanningTable,
    PlanRequest,
    best_route_plan,
    permutation_rows,
    prefix_steps,
    request_rows,
    route_plan_kernel,
    scan_route_plan,
)

#: A node nothing leads to and that leads nowhere: every leg touching it is
#: unreachable.
ISLAND = 9_999


@functools.cache
def _oracle(seed: int) -> DistanceOracle:
    network = random_geometric_city(num_nodes=40, seed=seed)
    network.profile = TimeProfile.urban_peaks()
    network.add_node(ISLAND, 0.0, 0.0)
    return DistanceOracle(network)


def _orders(rng: random.Random, nodes, count: int, base_id: int = 0):
    return [Order(order_id=base_id + i,
                  restaurant_node=rng.choice(nodes),
                  customer_node=rng.choice(nodes),
                  placed_at=rng.uniform(0.0, 80_000.0),
                  items=1 + rng.randrange(3),
                  prep_time=rng.uniform(120.0, 1200.0))
            for i in range(count)]


def _requests(rng: random.Random, nodes, count: int) -> list[PlanRequest]:
    """Mixed shapes, 0-8 stops: onboard-only plans, repeated nodes, ties, islands."""
    requests = []
    for r in range(count):
        pool = nodes
        kind = rng.randrange(6)
        if kind == 0:
            pool = nodes[:3]                     # few nodes: repeated stops
        elif kind == 1:
            pool = [rng.choice(nodes)]           # one node: every permutation ties
        elif kind == 2:
            pool = nodes + [ISLAND] * 8          # likely an unreachable leg
        num_new = rng.randrange(0, 5)
        num_onboard = rng.randrange(0, 9 - 2 * num_new) if rng.random() < 0.7 else 0
        new = _orders(rng, pool, num_new, base_id=100 * r)
        onboard = _orders(rng, pool, min(num_onboard, 4), base_id=100 * r + 50)
        if kind == 1:
            # Identical timings on one node: exact (total_xdt, finish) ties.
            new = [Order(o.order_id, o.restaurant_node, o.customer_node,
                         placed_at=1000.0, prep_time=300.0) for o in new]
        requests.append(PlanRequest(tuple(new), rng.choice(pool),
                                    rng.uniform(0.0, 80_000.0), tuple(onboard)))
    return requests


def _assert_same_plan(fast, scalar):
    assert fast.stops == scalar.stops
    assert fast.start_node == scalar.start_node
    assert fast.start_time == scalar.start_time
    assert fast.evaluation.total_xdt == scalar.evaluation.total_xdt
    assert fast.evaluation.finish_time == scalar.evaluation.finish_time
    assert fast.evaluation.waiting_time == scalar.evaluation.waiting_time
    assert fast.evaluation.travel_time == scalar.evaluation.travel_time
    assert fast.evaluation.delivery_times == scalar.evaluation.delivery_times
    assert fast.evaluation.pickup_times == scalar.evaluation.pickup_times


def _reference(request: PlanRequest, oracle, sdt_lookup):
    return best_route_plan(request.new_orders, request.start_node,
                           request.start_time, oracle.distance, sdt_lookup,
                           onboard_orders=request.onboard_orders)


SHAPES = [(num_new, num_onboard) for num_new in range(5)
          for num_onboard in range(9 - 2 * num_new)]


class TestPrefixTree:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_levels_are_the_distinct_prefixes_of_the_valid_permutations(self, shape):
        perms = route_plan._valid_permutations(*shape).tolist()
        levels = route_plan._prefix_levels(*shape)
        assert len(levels) == 2 * shape[0] + shape[1]
        prefixes = [()]
        for length, (parent, stop, leg) in enumerate(levels, start=1):
            assert len(parent) == len(stop) == len(leg)
            previous, prefixes = prefixes, [
                prefixes[i] + (j,) for i, j in zip(parent.tolist(), stop.tolist(),
                                                   strict=True)]
            assert len(set(prefixes)) == len(prefixes)
            assert set(prefixes) == {tuple(perm[:length]) for perm in perms}
            # The leg into a prefix's last stop: from the start node (origin
            # 0) or from the stop before it (origin j + 1), origin-major.
            size = len(levels)
            assert leg.tolist() == [
                (previous[i][-1] + 1 if previous[i] else 0) * size + j
                for i, j in zip(parent.tolist(), stop.tolist(), strict=True)]
        if levels:
            assert prefixes == [tuple(perm) for perm in perms]
        assert prefix_steps(shape) == sum(len(level.stop) for level in levels)

    def test_shared_prefixes_are_walked_once(self):
        # What the tree buys: stops evaluated per request, against walking
        # every permutation alone.
        assert (prefix_steps((3, 0)), 6 * permutation_rows((3, 0))) == (270, 540)
        assert (prefix_steps((4, 0)), 8 * permutation_rows((4, 0))) == (7_364, 20_160)


def _winner_row(request: PlanRequest, plan) -> int:
    """The row of the shape's permutation matrix that ``plan`` follows."""
    base = route_plan._base_stops(request.new_orders, request.onboard_orders)
    perm = [base.index(stop) for stop in plan.stops]
    return route_plan._valid_permutations(*request.shape).tolist().index(perm)


class TestArrayKernel:
    """:func:`route_plan_kernel` on slot rows vs :func:`scan_route_plan` per request."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shape=st.sampled_from([shape for shape in SHAPES if 0 < sum(shape) <= 4
                                  and 2 * shape[0] + shape[1] <= 6]),
           hour=st.sampled_from([6.0, 11.0, 12.0, 18.0, 23.0, 24.0, 30.0]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scan_bit_for_bit(self, seed, shape, hour):
        rng = random.Random(seed)
        oracle = _oracle(seed % 4)
        nodes = [node for node in oracle.network.nodes if node != ISLAND]
        # Some runs with an unreachable node in the table (the sentinel path).
        pool = nodes + [ISLAND] * rng.choice((0, 0, 3))
        # Clocks start within twenty minutes of an hour boundary the peak
        # profile changes its multiplier at (or not: 6, 18), on either side
        # of it and past midnight; plans cross it.
        boundary = hour * 3600.0
        orders = [Order(order_id=i, restaurant_node=rng.choice(pool),
                        customer_node=rng.choice(pool),
                        placed_at=max(0.0, boundary - rng.uniform(0.0, 2400.0)),
                        # Ready long before the vehicle can be there, or long
                        # after: both sides of every wait.
                        prep_time=rng.choice((0.0, 300.0, 1500.0, 4000.0)))
                  for i in range(40)]
        sdt = {order.order_id: rng.uniform(100.0, 2000.0) for order in orders}
        if rng.random() < 0.2:
            sdt[rng.randrange(40)] = math.inf

        def sdt_lookup(order):
            return sdt[order.order_id]

        requests = []
        for _ in range(rng.randrange(4, 11)):
            chosen = rng.sample(orders, sum(shape))
            requests.append(PlanRequest(
                tuple(chosen[:shape[0]]), rng.choice(nodes),
                boundary + rng.uniform(-1200.0, 1200.0), tuple(chosen[shape[0]:])))
        table = PlanningTable(oracle, orders, nodes, sdt_lookup)
        new, onboard, start, start_time = request_rows(requests, table)
        assert new.shape == (len(requests), shape[0])
        assert onboard.shape == (len(requests), shape[1])
        with pytest.MonkeyPatch.context() as patch:
            # More requests than one chunk holds.
            patch.setattr(route_plan, "KERNEL_ROW_BUDGET",
                          3 * permutation_rows(shape) + 1)
            winner, cost, finish = route_plan_kernel(table, new, onboard, start,
                                                     start_time)
        assert cost.dtype == finish.dtype == np.float64
        for i, request in enumerate(requests):
            scalar = scan_route_plan(request, oracle.distance, sdt_lookup)
            assert (cost[i], finish[i]) == (scalar.evaluation.total_xdt,
                                            scalar.evaluation.finish_time)
            assert winner[i] == _winner_row(request, scalar)
            assert table.request(new[i], onboard[i], start[i],
                                 start_time[i]) == request
            _assert_same_plan(table.route_plan(request, winner[i]), scalar)

    def test_empty_shape_costs_nothing_and_finishes_at_once(self):
        oracle = _oracle(0)
        table = PlanningTable(oracle, [], oracle.network.nodes[:2], lambda order: 0.0)
        none = np.empty((2, 0), dtype=np.intp)
        winner, cost, finish = route_plan_kernel(
            table, none, none, np.array([0, 1]), np.array([10.0, 90_000.0]))
        assert (winner.tolist(), cost.tolist(), finish.tolist()) == (
            [0, 0], [0.0, 0.0], [10.0, 90_000.0])


class TestVectorizedRoutePlan:
    @given(seed=st.integers(min_value=0, max_value=4_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_scan(self, seed):
        rng = random.Random(seed)
        oracle = _oracle(seed % 4)
        nodes = [node for node in oracle.network.nodes if node != ISLAND]
        requests = _requests(rng, nodes, rng.randrange(1, 12))
        sdt = {order.order_id: rng.uniform(300.0, 3000.0)
               for r in requests for order in r.new_orders + r.onboard_orders}

        def sdt_lookup(order):
            return sdt[order.order_id]

        table = PlanningTable(
            oracle, (o for r in requests for o in r.new_orders + r.onboard_orders),
            (r.start_node for r in requests), sdt_lookup)
        by_shape: dict[tuple[int, int], list[PlanRequest]] = {}
        for request in requests:
            by_shape.setdefault(request.shape, []).append(request)
        for group in by_shape.values():
            winner, cost, finish = route_plan_kernel(table, *request_rows(group, table))
            for request, w, c, f in zip(group, winner.tolist(), cost.tolist(),
                                        finish.tolist(), strict=True):
                scalar = _reference(request, oracle, sdt_lookup)
                assert (c, f) == (scalar.evaluation.total_xdt,
                                  scalar.evaluation.finish_time)
                _assert_same_plan(table.route_plan(request, w), scalar)

    def test_unreachable_leg_is_infinite_and_keeps_the_first_permutation(self):
        oracle = _oracle(0)
        nodes = oracle.network.nodes
        orders = (Order(1, nodes[0], ISLAND, placed_at=0.0),
                  Order(2, nodes[1], nodes[2], placed_at=0.0))
        request = PlanRequest(orders, nodes[3], 500.0)
        table = PlanningTable(oracle, orders, [nodes[3]], lambda order: 600.0)
        winner, cost, finish = route_plan_kernel(table, *request_rows([request], table))
        assert (winner[0], cost[0], finish[0]) == (0, math.inf, math.inf)
        _assert_same_plan(table.route_plan(request, 0),
                          _reference(request, oracle, lambda order: 600.0))

    def test_list_crossing_the_row_chunk_boundary(self):
        rng = random.Random(5)
        oracle = _oracle(2)
        nodes = [node for node in oracle.network.nodes if node != ISLAND]
        requests = [PlanRequest(tuple(_orders(rng, nodes, 2, base_id=10 * i)),
                                rng.choice(nodes), 40_000.0 + i,
                                tuple(_orders(rng, nodes, 1, base_id=10 * i + 5)))
                    for i in range(1200)]
        rows = permutation_rows((2, 1)) * len(requests)
        assert rows > 2 * route_plan.KERNEL_ROW_BUDGET, "list no longer spans chunks"
        model = CostModel(oracle)
        table = PlanningTable(
            oracle, (o for r in requests for o in r.new_orders + r.onboard_orders),
            (r.start_node for r in requests), model.sdt)
        winner, _, _ = route_plan_kernel(table, *request_rows(requests, table))
        for request, w in zip(requests[::37], winner.tolist()[::37], strict=True):
            _assert_same_plan(table.route_plan(request, w),
                              _reference(request, oracle, model.sdt))

    @given(seed=st.integers(min_value=0, max_value=4_000))
    @settings(max_examples=60, deadline=None)
    def test_small_scan_matches_scalar_scan(self, seed):
        rng = random.Random(seed)
        oracle = _oracle(seed % 4)
        nodes = [node for node in oracle.network.nodes if node != ISLAND]
        request, = _requests(rng, nodes, 1)
        model = CostModel(oracle)
        _assert_same_plan(scan_route_plan(request, oracle.distance, model.sdt),
                          _reference(request, oracle, model.sdt))

    @given(seed=st.integers(min_value=0, max_value=4_000))
    @settings(max_examples=40, deadline=None)
    def test_cost_model_routes_large_plans_through_kernel(self, seed):
        # Lone requests of at most SCALAR_SCAN_ROWS permutations are scanned
        # in Python and larger ones take one kernel pass — on the open
        # planning table, or on a table of their own outside any scope —
        # and either way plan_for_vehicle and vehicle_cost answer Def. 3.
        rng = random.Random(seed)
        oracle = _oracle(seed % 4)
        nodes = [node for node in oracle.network.nodes if node != ISLAND]
        requests = _requests(rng, nodes, rng.choice((1, 2, 9)))
        # One lone request on either side of the scan bound, whatever the mix.
        small, large = _orders(rng, nodes, 2, 5_000), _orders(rng, nodes, 3, 5_050)
        requests += [PlanRequest(tuple(small), rng.choice(nodes), 40_000.0),
                     PlanRequest(tuple(large[:2]), rng.choice(nodes), 41_000.0,
                                 (large[2],))]
        model = CostModel(oracle)
        vehicles, extras = [], []
        for i, request in enumerate(requests):
            # The first new orders wait on the vehicle (pending, the lowest
            # order ids, so they lead its request); the rest are offered.
            carried = rng.randrange(len(request.new_orders) + 1)
            vehicle = Vehicle(vehicle_id=i, node=request.start_node,
                              max_orders=20, max_items=100)
            held = request.new_orders[:carried] + request.onboard_orders
            if held:
                vehicle.assign(held, best_route_plan((), vehicle.node, 0.0,
                                                     oracle.distance, model.sdt))
            for order in request.onboard_orders:
                vehicle.mark_picked_up(order.order_id)
            vehicles.append(vehicle)
            extras.append(request.new_orders[carried:])

        def plan_all():
            for request, vehicle, extra in zip(requests, vehicles, extras, strict=True):
                passes = model.search_stats.kernel_passes
                plan = model.plan_for_vehicle(vehicle, extra, request.start_time)
                cost = model.vehicle_cost(vehicle, extra, request.start_time)
                expected = _reference(request, oracle, model.sdt)
                _assert_same_plan(plan, expected)
                assert cost == expected.cost
                large = permutation_rows(request.shape) > route_plan.SCALAR_SCAN_ROWS
                assert model.search_stats.kernel_passes == passes + 2 * large

        plan_all()
        assert model._table is None
        with model.planning_scope((o for r in requests for o in r.new_orders), vehicles):
            table = model._table
            plan_all()
            assert model._table is table
        assert model.plan_calls == 4 * len(requests)
        assert {permutation_rows(r.shape) > route_plan.SCALAR_SCAN_ROWS
                for r in requests[-2:]} == {False, True}
