"""Tests for the assignment policies: Greedy, KM, Reyes and FoodMatch."""

import pytest

from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.core.greedy import GreedyPolicy
from repro.core.km_baseline import KMPolicy
from repro.core.policy import Assignment
from repro.core.reyes import ReyesPolicy
from repro.orders.order import Order
from repro.orders.route_plan import PlanEvaluation, RoutePlan, RouteStop
from repro.orders.vehicle import Vehicle


def grid_order(order_id, restaurant, customer, prep=0.0, items=1, restaurant_id=None):
    return Order(order_id=order_id, restaurant_node=restaurant, customer_node=customer,
                 placed_at=0.0, prep_time=prep, items=items, restaurant_id=restaurant_id)


def fleet(*nodes):
    return [Vehicle(vehicle_id=i, node=node) for i, node in enumerate(nodes)]


def assert_valid_assignments(assignments, orders, vehicles):
    """Common invariants every policy must satisfy."""
    assigned_order_ids = [o.order_id for a in assignments for o in a.orders]
    assert len(assigned_order_ids) == len(set(assigned_order_ids)), "order assigned twice"
    assert set(assigned_order_ids) <= {o.order_id for o in orders}
    used_vehicles = [a.vehicle.vehicle_id for a in assignments]
    assert len(used_vehicles) == len(set(used_vehicles)), "vehicle used twice"
    for assignment in assignments:
        assert assignment.vehicle in vehicles
        assert assignment.vehicle.can_accept(assignment.orders)
        assert assignment.plan is not None


@pytest.fixture()
def simple_orders():
    return [grid_order(1, 0, 6), grid_order(2, 14, 20), grid_order(3, 35, 29)]


@pytest.fixture()
def simple_vehicles():
    return fleet(1, 13, 34)


ALL_POLICIES = ["greedy", "km", "reyes", "foodmatch"]


def build(name, cost_model):
    return {
        "greedy": lambda: GreedyPolicy(cost_model),
        "km": lambda: KMPolicy(cost_model),
        "reyes": lambda: ReyesPolicy(cost_model),
        "foodmatch": lambda: FoodMatchPolicy(cost_model),
    }[name]()


class TestCommonInvariants:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_assignments_are_valid(self, name, cost_model, simple_orders, simple_vehicles):
        policy = build(name, cost_model)
        assignments = policy.assign(simple_orders, simple_vehicles, 0.0)
        assert_valid_assignments(assignments, simple_orders, simple_vehicles)
        assert len(assignments) >= 1

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_no_orders_or_vehicles(self, name, cost_model, simple_orders, simple_vehicles):
        policy = build(name, cost_model)
        assert policy.assign([], simple_vehicles, 0.0) == []
        assert policy.assign(simple_orders, [], 0.0) == []

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_off_duty_vehicles_ignored(self, name, cost_model, simple_orders):
        off_duty = [Vehicle(vehicle_id=9, node=0, shift_start=50_000.0)]
        policy = build(name, cost_model)
        assert policy.assign(simple_orders, off_duty, 0.0) == []

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_full_vehicles_ignored(self, name, cost_model, simple_orders):
        full = Vehicle(vehicle_id=9, node=0, max_orders=0)
        policy = build(name, cost_model)
        assert policy.assign(simple_orders, [full], 0.0) == []

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_policies_do_not_mutate_vehicles(self, name, cost_model, simple_orders,
                                             simple_vehicles):
        policy = build(name, cost_model)
        policy.assign(simple_orders, simple_vehicles, 0.0)
        for vehicle in simple_vehicles:
            assert vehicle.order_count == 0
            assert vehicle.route is None


class TestGreedy:
    def test_assigns_nearest_vehicle_in_trivial_case(self, cost_model):
        orders = [grid_order(1, 0, 6)]
        vehicles = fleet(1, 35)
        assignments = GreedyPolicy(cost_model).assign(orders, vehicles, 0.0)
        assert len(assignments) == 1
        assert assignments[0].vehicle.vehicle_id == 0

    def test_assigns_multiple_orders_to_one_vehicle_when_scarce(self, cost_model):
        orders = [grid_order(1, 0, 6), grid_order(2, 1, 7)]
        vehicles = fleet(2)
        assignments = GreedyPolicy(cost_model).assign(orders, vehicles, 0.0)
        assert len(assignments) == 1
        assert len(assignments[0].orders) == 2

    def test_respects_first_mile_bound(self, cost_model):
        orders = [grid_order(1, 35, 29)]
        vehicles = fleet(0)
        policy = GreedyPolicy(cost_model, max_first_mile=10.0)
        assert policy.assign(orders, vehicles, 0.0) == []

    def test_weight_equals_plan_cost(self, cost_model, simple_orders, simple_vehicles):
        assignments = GreedyPolicy(cost_model).assign(simple_orders, simple_vehicles, 0.0)
        for a in assignments:
            assert a.weight == pytest.approx(a.plan.cost)


class TestKM:
    def test_one_order_per_vehicle(self, cost_model, simple_orders, simple_vehicles):
        assignments = KMPolicy(cost_model).assign(simple_orders, simple_vehicles, 0.0)
        assert all(len(a.orders) == 1 for a in assignments)

    def test_total_cost_not_worse_than_greedy(self, cost_model, simple_orders,
                                              simple_vehicles):
        km_total = sum(a.weight for a in KMPolicy(cost_model).assign(
            simple_orders, simple_vehicles, 0.0))
        greedy_total = sum(a.weight for a in GreedyPolicy(cost_model).assign(
            simple_orders, simple_vehicles, 0.0))
        assert km_total <= greedy_total + 1e-9

    def test_leaves_excess_orders_unassigned(self, cost_model):
        orders = [grid_order(i, i, i + 6) for i in range(1, 5)]
        vehicles = fleet(0, 1)
        assignments = KMPolicy(cost_model).assign(orders, vehicles, 0.0)
        assert len(assignments) <= 2


class TestReyes:
    def test_batches_only_same_restaurant(self, cost_model):
        orders = [grid_order(1, 0, 6, restaurant_id=7), grid_order(2, 0, 12, restaurant_id=7),
                  grid_order(3, 14, 20, restaurant_id=8)]
        vehicles = fleet(1, 13, 25)
        assignments = ReyesPolicy(cost_model).assign(orders, vehicles, 0.0)
        for assignment in assignments:
            restaurant_ids = {o.restaurant_id for o in assignment.orders}
            assert len(restaurant_ids) == 1

    def test_groups_capped_by_max_orders(self, cost_model):
        orders = [grid_order(i, 0, 6 + i, restaurant_id=3) for i in range(5)]
        vehicles = fleet(1, 2, 7)
        policy = ReyesPolicy(cost_model, max_orders=3)
        assignments = policy.assign(orders, vehicles, 0.0)
        assert all(len(a.orders) <= 3 for a in assignments)

    def test_does_not_stack_on_busy_vehicles(self, cost_model):
        busy = Vehicle(vehicle_id=0, node=1)
        order = grid_order(99, 7, 13)
        plan = RoutePlan((RouteStop(7, order, True), RouteStop(13, order, False)), 1, 0.0,
                         PlanEvaluation(0.0, {}, {}, 0.0, 0.0, 0.0))
        busy.assign([order], plan)
        assignments = ReyesPolicy(cost_model).assign([grid_order(1, 0, 6)], [busy], 0.0)
        assert assignments == []


class TestFoodMatch:
    def test_batches_clustered_orders_onto_one_vehicle(self, cost_model):
        orders = [grid_order(1, 0, 6), grid_order(2, 0, 12)]
        vehicles = fleet(1, 35)
        policy = FoodMatchPolicy(cost_model, FoodMatchConfig(eta=600.0))
        assignments = policy.assign(orders, vehicles, 0.0)
        assert len(assignments) == 1
        assert len(assignments[0].orders) == 2

    def test_batching_disabled_gives_single_order_assignments(self, cost_model,
                                                              simple_orders,
                                                              simple_vehicles):
        policy = FoodMatchPolicy(cost_model, FoodMatchConfig(use_batching=False))
        assignments = policy.assign(simple_orders, simple_vehicles, 0.0)
        assert all(len(a.orders) == 1 for a in assignments)

    def test_explicit_k_limits_cost_evaluations(self, cost_model, simple_orders,
                                                simple_vehicles):
        bounded = FoodMatchPolicy(cost_model, FoodMatchConfig(k=1,
                                                              use_batching=False))
        unbounded = FoodMatchPolicy(cost_model, FoodMatchConfig(use_bfs=False,
                                                                use_batching=False))
        bounded.assign(simple_orders, simple_vehicles, 0.0)
        unbounded.assign(simple_orders, simple_vehicles, 0.0)
        assert bounded.total_cost_evaluations < unbounded.total_cost_evaluations

    def test_explicit_k_below_k_min_bounds_the_graph(self, cost_model,
                                                     simple_orders,
                                                     simple_vehicles):
        # k = 1 and k = 2 sit below the default k_min = 3; each must still
        # do less bounded-search work than the next larger k.
        evaluations = []
        for k in (1, 2, 3):
            policy = FoodMatchPolicy(cost_model, FoodMatchConfig(
                k=k, use_batching=False, use_angular=False))
            policy.assign(simple_orders, simple_vehicles, 0.0)
            evaluations.append(policy.total_cost_evaluations)
        assert evaluations[0] < evaluations[2]
        assert evaluations == sorted(evaluations)

    @pytest.mark.parametrize("k,num_batches,expected", [
        (1, 5, 1),     # below k_min: kept, not raised to 3
        (2, 5, 2),
        (3, 5, 3),
        (8, 4, 4),     # above |B|: clamped to the batch count
        (2, 1, 1),
        (1, 0, 1),     # an empty window still gets a positive bound
    ])
    def test_explicit_k_degree_bound(self, cost_model, k, num_batches, expected):
        policy = FoodMatchPolicy(cost_model, FoodMatchConfig(k=k))
        assert policy._degree_bound(10, 4, num_batches) == expected

    @pytest.mark.parametrize("num_orders,num_vehicles,num_batches,expected", [
        (1, 1000, 10, 3),      # ceil(200 * 0.001) = 1, raised to k_min
        (100, 10, 50, 50),     # 2000, clamped to |B|
        (0, 0, 0, 3),          # nothing to bound: k_min
    ])
    def test_derived_degree_bound_keeps_k_min_clamp(self, cost_model, num_orders,
                                                    num_vehicles, num_batches,
                                                    expected):
        policy = FoodMatchPolicy(cost_model)
        assert policy._degree_bound(num_orders, num_vehicles, num_batches) == expected

    def test_policy_name_reflects_configuration(self, cost_model):
        assert FoodMatchPolicy(cost_model).name == "foodmatch"
        ablated = FoodMatchPolicy(cost_model, FoodMatchConfig(use_bfs=False,
                                                              use_angular=False))
        assert "b&r" in ablated.name

    def test_reshuffle_flag_follows_config(self, cost_model):
        assert FoodMatchPolicy(cost_model).reshuffle
        assert not FoodMatchPolicy(cost_model,
                                   FoodMatchConfig(use_reshuffling=False)).reshuffle

    def test_config_variant(self):
        config = FoodMatchConfig()
        changed = config.variant(eta=120.0, use_angular=False)
        assert changed.eta == 120.0
        assert not changed.use_angular
        assert config.eta == 60.0

    def test_total_cost_not_worse_than_greedy_under_scarcity(self, cost_model):
        orders = [grid_order(1, 0, 6), grid_order(2, 1, 7), grid_order(3, 2, 8),
                  grid_order(4, 30, 24)]
        vehicles = fleet(3, 31)
        fm = FoodMatchPolicy(cost_model, FoodMatchConfig(eta=600.0))
        fm_assignments = fm.assign(orders, vehicles, 0.0)
        fm_orders = sum(len(a.orders) for a in fm_assignments)
        greedy_orders = sum(len(a.orders) for a in GreedyPolicy(cost_model).assign(
            orders, vehicles, 0.0))
        # With two vehicles and four orders, batching must serve at least as
        # many orders as greedy's capacity-limited assignment.
        assert fm_orders >= greedy_orders


class TestAssignmentDataclass:
    def test_requires_orders(self, cost_model, simple_vehicles):
        plan = RoutePlan((), 0, 0.0, PlanEvaluation(0.0, {}, {}, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Assignment(vehicle=simple_vehicles[0], orders=(), plan=plan)
