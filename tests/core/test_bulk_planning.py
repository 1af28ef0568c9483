"""Bulk planning must be the per-pair pipeline, decision for decision.

Four equivalences and one lifetime guarantee:

* :meth:`CostModel.marginal_costs`, :meth:`CostModel.make_batches` and
  :meth:`CostModel.merge_costs` plan on rows of order slots, in the
  caller's planning scope or one of their own; they answer what Def. 3,
  Def. 4 and Eq. 7 answer, scanned pair by pair, order set by order set and
  merge by merge over the oracle, ties between a batch's starts included;
* the round-based :func:`build_sparsified_foodgraph` evaluates exactly the
  pairs the sequential loop (``sequential_foodgraph``) does — same edges in the
  same insertion order, same ``cost_evaluations`` and ``nodes_expanded`` —
  also when refusals force a vehicle through a second round;
* :func:`cluster_orders`, which weighs all of a batch's merges in one bulk
  search, performs the merges of the one-``merge_cost``-per-pair loop it
  replaced (kept below as the reference);
* the window's planning table is gone once ``assign`` returns or raises —
  FoodMatch's, KM's, Greedy's and Reyes's — and a plan requested after a
  traffic update reads post-update distances;
* no explorer of a FoodGraph build survives it.

The fleets of the first equivalence include *stacks* — vehicles standing on
one node, idle or bound for one common restaurant — which the builder serves
with one best-first search per ``(node, next destination)``.
"""

import collections
import dataclasses
import gc
import heapq
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import foodgraph as foodgraph_module
from repro.core.batching import BatchingConfig, cluster_orders
from repro.core.foodgraph import build_sparsified_foodgraph
from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.core.greedy import GreedyPolicy
from repro.core.km_baseline import KMPolicy
from repro.core.reyes import ReyesPolicy
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.graph import TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import best_route_plan, insertion_route_plan
from repro.orders.vehicle import Vehicle
from sequential_foodgraph import build_sequentially, edges_in_order

NOW = 45_000.0


def _oracle(seed: int) -> DistanceOracle:
    network = random_geometric_city(num_nodes=40, seed=seed)
    network.profile = TimeProfile.urban_peaks()
    return DistanceOracle(network, method="hub_label")


def _orders(rng: random.Random, nodes, count: int, base_id: int):
    return [Order(order_id=base_id + i,
                  restaurant_node=rng.choice(nodes),
                  customer_node=rng.choice(nodes),
                  placed_at=NOW - rng.uniform(0.0, 900.0),
                  items=1 + rng.randrange(4),
                  prep_time=rng.uniform(120.0, 900.0))
            for i in range(count)]


def _loaded_vehicles(rng: random.Random, nodes, model: CostModel, count: int):
    """Vehicles carrying 0-2 orders (some on board): MAXO/MAXI refusals happen."""
    vehicles = []
    for v in range(count):
        vehicle = Vehicle(vehicle_id=v, node=rng.choice(nodes))
        carried = _orders(rng, nodes, rng.randrange(0, 3), base_id=1000 + 10 * v)
        if carried:
            vehicle.assign(carried, model.plan_for_vehicle(vehicle, carried, NOW))
            if rng.random() < 0.5:
                vehicle.mark_picked_up(carried[0].order_id)
        vehicles.append(vehicle)
    return vehicles


def _stacked_vehicles(rng: random.Random, nodes, model: CostModel, batches,
                      first_id: int):
    """Two stacks of vehicles, each waiting where some batch starts: idle
    members, and members bound for the stack's one restaurant.  They differ
    in what they carry and may carry, so a stack's members fill up — or give
    up — in different rounds of the search they share."""
    vehicles = []
    for _ in range(2):
        node = rng.choice(batches).first_pickup_node
        restaurant = rng.choice(nodes)
        for member in range(rng.randrange(4, 7)):
            vehicle = Vehicle(vehicle_id=first_id + len(vehicles), node=node,
                              max_orders=rng.choice((1, 2, 3)),
                              max_items=rng.choice((3, 6, 10)))
            if member % 2:
                # Every carried order is picked up at ``restaurant``, so that
                # is where the vehicle's plan starts, whatever else differs.
                carried = [dataclasses.replace(order, restaurant_node=restaurant)
                           for order in _orders(
                               rng, nodes, rng.randrange(1, min(2, vehicle.max_orders) + 1),
                               base_id=1000 + 10 * vehicle.vehicle_id)]
                vehicle.assign(carried, model.plan_for_vehicle(vehicle, carried, NOW))
            vehicles.append(vehicle)
    return vehicles


def _search_key(vehicle: Vehicle, use_angular: bool):
    """All a best-first explorer reads of a vehicle."""
    return ((vehicle.node, vehicle.next_destination) if use_angular
            else vehicle.node)


def _edges_in_order(graph):
    """Edges as inserted: key, weight and the plan's stops and evaluation."""
    out = []
    for key, weight in edges_in_order(graph):
        plan = graph.plan(*key)
        out.append((key, weight, plan.stops, plan.evaluation))
    return out


# --------------------------------------------------------------------------- #
# (a) slot rows vs one scalar search per pair / order set / merge
# --------------------------------------------------------------------------- #
def _mixed_fleet(rng: random.Random, nodes, model: CostModel):
    """Idle, pending-only, onboard-only, mixed and full vehicles; tight item
    caps; and one roomy enough for plans of more than eight stops, which
    only the scalar planners take."""
    fleet = []
    for v, (carried, picked_up, max_orders, max_items) in enumerate([
            (0, 0, 3, 10), (0, 0, 3, 2), (1, 0, 3, 10), (2, 0, 3, 10),
            (1, 1, 3, 10), (2, 2, 3, 10), (2, 1, 3, 10), (2, 1, 3, 6),
            (3, 1, 3, 10), (3, 1, 5, 30), (3, 3, 5, 30)]):
        vehicle = Vehicle(vehicle_id=v, node=rng.choice(nodes),
                          max_orders=max_orders, max_items=max_items)
        orders = _orders(rng, nodes, carried, base_id=1000 + 10 * v)
        if orders:
            vehicle.assign(orders, model.plan_for_vehicle(vehicle, orders, NOW))
            for order in rng.sample(orders, picked_up):
                vehicle.mark_picked_up(order.order_id)
        fleet.append(vehicle)
    rng.shuffle(fleet)
    return fleet


def _effort(model: CostModel):
    stats = model.search_stats
    return (model.plan_calls, stats.base_plans_reused)


def _plan_by_definition(model: CostModel, oracle, new_orders, start_node,
                        onboard_orders=()):
    """Def. 3 read off the oracle: every valid permutation scanned (the
    insertion heuristic where the model's planner calls for it)."""
    stops = 2 * len(new_orders) + len(onboard_orders)
    planner = (insertion_route_plan if model.planner == "insertion"
               or (model.planner == "auto" and stops > 8) else best_route_plan)
    return planner(tuple(new_orders), start_node, NOW, oracle.distance, model.sdt,
                   onboard_orders=tuple(onboard_orders))


def _marginal_cost_by_definition(model: CostModel, oracle, orders, vehicle):
    """Eq. 7 and Def. 4 as the paper states them: ``inf`` for a pair the
    vehicle cannot accept or cannot serve, else the "with" plan's cost less
    the "without" plan's."""
    if not vehicle.can_accept(orders):
        return math.inf, None
    pending, onboard = vehicle.pending_orders(), vehicle.onboard_orders()
    with_plan = _plan_by_definition(model, oracle, pending + list(orders),
                                    vehicle.node, onboard)
    if with_plan.cost == math.inf:
        return math.inf, None
    without = _plan_by_definition(model, oracle, pending, vehicle.node, onboard)
    return with_plan.cost - without.cost, with_plan


class TestIndexedMarginalCosts:
    @given(seed=st.integers(min_value=0, max_value=5_000),
           planner=st.sampled_from(["auto", "auto", "insertion"]))
    @settings(max_examples=30, deadline=None)
    def test_equals_one_marginal_cost_per_pair(self, seed, planner):
        rng = random.Random(seed)
        oracle = _oracle(seed % 5)
        nodes = oracle.network.nodes
        model = CostModel(oracle, planner=planner)
        pool = _orders(rng, nodes, 9, base_id=0)
        order_sets = [pool[0:1], pool[1:2], pool[2:4], pool[4:6], pool[6:9]]
        vehicles = _mixed_fleet(rng, nodes, model)
        # Some pairs twice, in no particular order; a call of 80 pairs offers
        # every pair at least once, so it always has refusals, acceptances
        # and plans of more than four orders.
        combos = list(itertools.product(range(len(order_sets)), range(len(vehicles))))
        k = rng.choice((1, 7, 80))
        pairs = (rng.choices(combos, k=k) if k < len(combos)
                 else combos + rng.choices(combos, k=k - len(combos)))
        rng.shuffle(pairs)
        set_idx, vehicle_idx = zip(*pairs, strict=True)
        expected = [_marginal_cost_by_definition(model, oracle, order_sets[s],
                                                 vehicles[v]) for s, v in pairs]

        before = _effort(model)
        with model.planning_scope(pool, vehicles):
            assert model._table is not None
            weights, plan_of = model.marginal_costs(order_sets, vehicles, set_idx,
                                                    vehicle_idx, NOW)
            spent = tuple(after - start for after, start in
                          zip(_effort(model), before, strict=True))
            before = _effort(model)
            again, _ = model.marginal_costs(order_sets, vehicles, set_idx,
                                            vehicle_idx, NOW)
            spent_again = tuple(after - start for after, start in
                                zip(_effort(model), before, strict=True))
        # One "with" search per accepted pair, one "without" search per
        # vehicle some reachable pair offered to; the scope's memo serves
        # the rest, and every "without" plan of a second call.
        accepted = sum(vehicles[v].can_accept(order_sets[s]) for s, v in pairs)
        served = [v for (_, v), (weight, _) in zip(pairs, expected, strict=True)
                  if weight != math.inf]
        assert spent == (accepted + len(set(served)), len(served) - len(set(served)))
        assert spent_again == (accepted, len(served))
        assert again.tolist() == weights.tolist()
        # The same call with no scope open enters one of its own.
        alone = CostModel(oracle, planner=planner)
        listed, listed_plan_of = alone.marginal_costs(order_sets, vehicles, set_idx,
                                                      vehicle_idx, NOW)
        assert alone._table is None and alone._base_costs is None
        assert _effort(alone) == spent
        assert weights.tolist() == listed.tolist() == [weight for weight, _ in expected]
        refused = 0
        for i, ((s, v), (_, plan)) in enumerate(zip(pairs, expected, strict=True)):
            refused += not vehicles[v].can_accept(order_sets[s])
            if plan is not None:
                for found in (plan_of(i), listed_plan_of(i)):
                    assert (found.stops, found.start_node, found.start_time,
                            found.evaluation) == (
                        plan.stops, plan.start_node, plan.start_time, plan.evaluation)
        if len(pairs) == 80:
            assert 0 < refused < 80
            assert any(len(order_sets[s]) + vehicles[v].order_count > 4
                       and vehicles[v].can_accept(order_sets[s]) for s, v in pairs)

    def test_no_pair_is_an_empty_call(self):
        oracle = _oracle(0)
        model = CostModel(oracle)
        vehicle = Vehicle(vehicle_id=0, node=oracle.network.nodes[0])
        with model.planning_scope([], [vehicle]):
            weights, _ = model.marginal_costs([], [vehicle], [], [], NOW)
        assert weights.tolist() == [] and model.plan_calls == 0


def _batch_reference(orders, oracle, sdt_lookup):
    """``make_batch`` as the paper words it: every member restaurant as the
    virtual start, each searched alone, the first cheapest kept."""
    ordered = tuple(sorted(orders, key=lambda o: o.order_id))
    plans = [best_route_plan(ordered, start, NOW, oracle.distance, sdt_lookup)
             for start in {order.restaurant_node for order in ordered}]
    keys = [(plan.cost, plan.evaluation.finish_time) for plan in plans]
    return plans[keys.index(min(keys))], keys


def _slow_kitchens(rng: random.Random, nodes, count: int, base_id: int):
    """Orders ready at one common time long after any vehicle can be there:
    whichever restaurant a batch's plan starts from, it waits there, so its
    starts tie in both cost and finish."""
    return [dataclasses.replace(order, placed_at=NOW - 60.0, prep_time=7200.0)
            for order in _orders(rng, nodes, count, base_id)]


class TestBulkBatches:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_batches_and_merges_equal_their_one_at_a_time_forms(self, seed):
        rng = random.Random(seed)
        oracle = _oracle(seed % 5)
        nodes = oracle.network.nodes[:rng.choice((5, 40))]
        model = CostModel(oracle)
        pool = (_orders(rng, nodes, 8, base_id=0)
                + _slow_kitchens(rng, nodes, 6, base_id=100))
        rng.shuffle(pool)
        order_sets = [pool[i:i + size] for i, size in zip(
            range(0, len(pool), 2), itertools.cycle((1, 2)), strict=False)]
        with model.planning_scope(pool):
            batches = model.make_batches(order_sets, NOW)
            # (The reference enumerates every permutation: three orders at most.)
            pairs = [(left, right) for left, right in itertools.combinations(batches, 2)
                     if left.size + right.size <= 3]
            weights, merged_of = model.merge_costs(pairs, NOW)
            assert model.merge_costs([], NOW)[0] == []
        for batch, orders in zip(batches, order_sets, strict=True):
            plan, _ = _batch_reference(orders, oracle, model.sdt)
            assert batch.orders == tuple(sorted(orders))
            assert (batch.plan.stops, batch.plan.start_node, batch.plan.evaluation) == (
                plan.stops, plan.start_node, plan.evaluation)
        for i, (left, right) in enumerate(pairs):
            plan, _ = _batch_reference(left.orders + right.orders, oracle, model.sdt)
            assert weights[i] == max(0.0, plan.cost - (left.cost + right.cost))
            merged = merged_of(i)
            assert merged.orders == tuple(sorted(left.orders + right.orders))
            assert (merged.plan.stops, merged.plan.start_node,
                    merged.plan.evaluation) == (plan.stops, plan.start_node,
                                                plan.evaluation)
            # Computed once per batch, and the right value.
            assert merged.items == sum(order.items for order in merged.orders)
            assert merged.first_pickup_node == next(
                stop.node for stop in plan.stops if stop.is_pickup)
            assert vars(merged).keys() >= {"items", "first_pickup_node"}

    def test_starts_really_tie(self):
        # The property above only pins down which start wins a tie if some
        # of its batches have one: two starts attaining the minimum.
        ties = 0
        for seed in range(20):
            rng = random.Random(seed)
            oracle = _oracle(seed % 5)
            model = CostModel(oracle)
            orders = _slow_kitchens(rng, oracle.network.nodes, 3, base_id=0)
            plan, keys = _batch_reference(orders, oracle, model.sdt)
            if keys.count(min(keys)) > 1 and min(keys)[0] != math.inf:
                ties += 1
                with model.planning_scope(orders):
                    batch, = model.make_batches([orders], NOW)
                assert batch.plan.start_node == plan.start_node
        assert ties >= 10


# --------------------------------------------------------------------------- #
# (b) optimistic rounds vs the sequential loop
# --------------------------------------------------------------------------- #
def _build_both(seed: int):
    rng = random.Random(seed)
    oracle = _oracle(seed % 5)
    nodes = oracle.network.nodes
    model = CostModel(oracle)
    pool = _orders(rng, nodes, rng.randrange(4, 18), base_id=0)
    batches = model.make_batches(
        [pool[i:i + size] for i, size in zip(
            range(0, len(pool), 2), itertools.cycle((1, 2)), strict=False)], NOW)
    vehicles = _loaded_vehicles(rng, nodes, model, rng.randrange(2, 7))
    vehicles += _stacked_vehicles(rng, nodes, model, batches,
                                  first_id=len(vehicles))
    rng.shuffle(vehicles)
    options = dict(
        k=rng.choice((1, 2, 3)),
        # Ω cut-offs are only known once a pair is planned: together with the
        # capacity refusals they are what sends a vehicle into a second round.
        omega=rng.choice((400.0, 1500.0, 7200.0)),
        max_first_mile=rng.choice((300.0, 900.0, 2700.0)),
        use_angular=rng.random() < 0.5,
        # (The network has 40 nodes.)
        max_expansions=rng.choice((None, 25, 8)))
    fast = build_sparsified_foodgraph(batches, vehicles, model, NOW, **options)
    slow = build_sequentially(batches, vehicles, CostModel(oracle), NOW, **options)
    return fast, slow, options


class TestOptimisticRounds:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_same_graph_as_the_sequential_loop(self, seed):
        fast, slow, options = _build_both(seed)
        assert _edges_in_order(fast) == _edges_in_order(slow)
        assert fast.cost_evaluations == slow.cost_evaluations
        assert fast.nodes_expanded == slow.nodes_expanded
        for v_idx in range(len(fast.vehicles)):
            assert fast.vehicle_degree(v_idx) == slow.vehicle_degree(v_idx)
        # One search per distinct (node, next destination), not per vehicle.
        assert fast.searches == len({_search_key(vehicle, options["use_angular"])
                                     for vehicle in fast.vehicles})
        assert fast.searches < len(fast.vehicles)
        assert slow.searches == 0

    def test_refusals_really_force_second_rounds(self):
        # The property above is only worth its name if some of its examples
        # go past round one.
        rounds = [_build_both(seed)[0].rounds for seed in range(40)]
        assert max(rounds) >= 3
        assert sum(r >= 2 for r in rounds) >= 10

    def test_members_of_one_search_really_part_ways(self, monkeypatch):
        # ... and sharing a search is only put to the test if the vehicles
        # reading one stop at different places in it.  Vehicles on one node
        # are within the first-mile bound of the same batches, so they
        # stopped at different places iff they had different numbers of
        # pairs evaluated.
        evaluate = foodgraph_module._evaluate_pairs
        evaluated = collections.Counter()

        def spy(graph, cost_model, now, b_idx, v_idx):
            evaluated.update(v_idx.tolist())
            return evaluate(graph, cost_model, now, b_idx, v_idx)

        monkeypatch.setattr(foodgraph_module, "_evaluate_pairs", spy)
        parted = 0
        for seed in range(40):
            evaluated.clear()
            fast, _, options = _build_both(seed)
            stops: dict = {}
            for v_idx, vehicle in enumerate(fast.vehicles):
                stops.setdefault(_search_key(vehicle, options["use_angular"]),
                                 set()).add(evaluated[v_idx])
            parted += any(len(counts) > 1 for counts in stops.values())
        assert parted >= 10

    def test_no_explorer_survives_the_build(self, monkeypatch):
        born = []

        class Tracked(foodgraph_module.VehicleSensitiveExplorer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                born.append(weakref.ref(self))

        monkeypatch.setattr(foodgraph_module, "VehicleSensitiveExplorer", Tracked)
        rng = random.Random(3)
        oracle = _oracle(3)
        nodes = oracle.network.nodes
        model = CostModel(oracle)
        batches = model.make_batches([[o] for o in _orders(rng, nodes, 8, 0)], NOW)
        vehicles = _loaded_vehicles(rng, nodes, model, 6)
        gc.disable()  # reference counting alone must free them
        try:
            graph = build_sparsified_foodgraph(batches, vehicles, model, NOW, k=2,
                                               use_angular=True)
            assert born and graph.edge_count
            assert all(ref() is None for ref in born)
        finally:
            gc.enable()


# --------------------------------------------------------------------------- #
# (c) bulk clustering vs one merge_cost per pair
# --------------------------------------------------------------------------- #
def _cluster_per_pair(orders, model: CostModel, now: float, config: BatchingConfig):
    """Alg. 1 as it ran before bulk planning: the reference loop."""
    batches = {idx: model.make_batch([order], now) for idx, order in enumerate(orders)}

    def average():
        return sum(b.cost for b in batches.values()) / len(batches)

    trace = [average()]
    counter = itertools.count()
    heap = []

    def push_edges(key, others):
        batch = batches[key]
        for other_key in others:
            other = batches.get(other_key)
            if other is None or other_key == key:
                continue
            if (batch.size + other.size > config.max_orders
                    or batch.items + other.items > config.max_items):
                continue
            if config.max_pair_distance is not None and model.oracle.distance(
                    batch.first_pickup_node, other.first_pickup_node,
                    now) > config.max_pair_distance:
                continue
            weight, merged = model.merge_cost(batch, other, now)
            heapq.heappush(heap, (weight, next(counter), key, other_key, merged))

    keys = list(batches)
    for pos, key in enumerate(keys):
        push_edges(key, keys[pos + 1:])
    next_key = len(batches)
    while heap and average() <= config.eta:
        _, _, key_i, key_j, merged = heapq.heappop(heap)
        if key_i not in batches or key_j not in batches:
            continue
        del batches[key_i], batches[key_j]
        batches[next_key] = merged
        trace.append(average())
        push_edges(next_key, list(batches))
        next_key += 1
    return list(batches.values()), trace


class TestBulkClustering:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_same_merges_as_the_per_pair_loop(self, seed):
        rng = random.Random(seed)
        oracle = _oracle(seed % 5)
        nodes = oracle.network.nodes[:rng.choice((6, 40))]
        orders = _orders(rng, nodes, rng.randrange(2, 14), base_id=0)
        config = BatchingConfig(eta=rng.choice((30.0, 120.0, 600.0)),
                                max_orders=rng.choice((2, 3, 4)),
                                max_items=rng.choice((4, 10)),
                                max_pair_distance=rng.choice((None, 400.0)))
        batches, stats = cluster_orders(orders, CostModel(oracle), NOW, config)
        expected, trace = _cluster_per_pair(
            orders, CostModel(oracle), NOW, config)
        assert [b.order_ids for b in batches] == [b.order_ids for b in expected]
        assert [(b.plan.stops, b.plan.evaluation) for b in batches] == [
            (b.plan.stops, b.plan.evaluation) for b in expected]
        assert stats.avg_cost_trace == trace
        assert stats.merges == len(trace) - 1


# --------------------------------------------------------------------------- #
# (d) the planning table's lifetime
# --------------------------------------------------------------------------- #
def _window(seed: int = 11):
    rng = random.Random(seed)
    oracle = _oracle(seed % 5)
    nodes = oracle.network.nodes
    model = CostModel(oracle)
    return (oracle, model, _orders(rng, nodes, 9, base_id=0),
            _loaded_vehicles(rng, nodes, model, 5))


@pytest.mark.parametrize("make_policy, planned_by", [
    (lambda model: FoodMatchPolicy(model), "marginal_costs"),
    (lambda model: FoodMatchPolicy(model, FoodMatchConfig(use_bfs=False,
                                                          use_batching=False)),
     "marginal_costs"),
    (lambda model: KMPolicy(model), "marginal_costs"),
    (lambda model: GreedyPolicy(model), "plan_for_vehicle"),
    (lambda model: ReyesPolicy(model), "_search_rows"),
], ids=["foodmatch", "foodmatch-unbatched-full-graph", "km", "greedy", "reyes"])
class TestPlanningTableLifetime:
    """``planned_by`` is the cost-model method the policy plans through,
    inside a planning scope.  Reyes opens no window scope: its one
    ``marginal_costs`` call per window, over the matched pairs only, scopes
    itself around the search."""

    def test_table_lives_exactly_as_long_as_assign(self, monkeypatch, make_policy,
                                                   planned_by):
        _, model, orders, vehicles = _window()
        seen = []
        plan = getattr(CostModel, planned_by)

        def spy(self, *args, **kwargs):
            seen.append(weakref.ref(self._table))
            return plan(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, planned_by, spy)
        policy = make_policy(model)
        gc.disable()
        try:
            assignments = policy.assign(orders, vehicles, NOW)
            assert assignments and seen
            assert model._table is None and model._base_costs is None
            assert seen[0]() is None, "something kept the planning table alive"
        finally:
            gc.enable()

    def test_table_is_dropped_when_assign_raises(self, monkeypatch, make_policy,
                                                 planned_by):
        _, model, orders, vehicles = _window()

        def boom(*args, **kwargs):
            assert model._table is not None
            raise RuntimeError("boom")

        monkeypatch.setattr(CostModel, planned_by, boom)
        with pytest.raises(RuntimeError, match="boom"):
            make_policy(model).assign(orders, vehicles, NOW)
        assert model._table is None and model._base_costs is None

    def test_plans_after_a_traffic_update_read_updated_distances(self, make_policy,
                                                                 planned_by):
        oracle, model, orders, vehicles = _window()
        before = make_policy(model).assign(orders, vehicles, NOW)
        # A model that never planned before the update, only memoised the
        # SDTs (fixed at an order's first sight) the way ``model`` did.
        fresh = CostModel(oracle)
        for order in orders + [o for v in vehicles for o in v.assigned.values()]:
            fresh.sdt(order)
        try:
            # Slow every road out of the busiest pick-up node tenfold.
            hub = orders[0].restaurant_node
            stats = oracle.apply_traffic_updates(
                {(hub, v): 10.0 for v, _ in oracle.network.neighbors(hub)})
            assert stats.mutated_edges
            after = make_policy(model).assign(orders, vehicles, NOW)
            assert after
            # Each plan is the quickest plan (Def. 3) of what its vehicle
            # carries plus what it was given, over post-update distances, and
            # each weight is that plan's cost (Greedy) or its Eq. 7 marginal
            # cost (the matching policies).
            for assignment in after:
                vehicle = assignment.vehicle
                assert vehicle.can_accept(assignment.orders)
                expected = _plan_by_definition(
                    model, oracle, vehicle.pending_orders() + list(assignment.orders),
                    vehicle.node, vehicle.onboard_orders())
                assert (assignment.plan.stops, assignment.plan.evaluation) == (
                    expected.stops, expected.evaluation)
                if planned_by == "plan_for_vehicle":
                    assert assignment.weight == expected.cost
                else:
                    assert assignment.weight == _marginal_cost_by_definition(
                        model, oracle, assignment.orders, vehicle)[0]
            # Who gets what is what a model with no pre-update state decides.
            assert [(a.vehicle.vehicle_id, a.orders, a.weight, a.plan.evaluation)
                    for a in after] == [
                (a.vehicle.vehicle_id, a.orders, a.weight, a.plan.evaluation)
                for a in make_policy(fresh).assign(orders, vehicles, NOW)]
            assert [a.plan.evaluation for a in after] != [
                a.plan.evaluation for a in before]
            weight, plan = model.marginal_cost([orders[0]], vehicles[0], NOW)
            expected_weight, expected_plan = _marginal_cost_by_definition(
                model, oracle, [orders[0]], vehicles[0])
            assert (weight, plan.evaluation) == (expected_weight,
                                                 expected_plan.evaluation)
        finally:
            oracle.reset_traffic_state()
