"""Settle records carried across FoodGraph builds change the work, not the graph.

:func:`build_sparsified_foodgraph` keeps each best-first search's settle
order in a :class:`SettleMemo`, and a later build whose search has the same
key under the same weights reads that order instead of searching again.
Checked here:

* a run of consecutive windows through one memo builds, window by window,
  what a fresh build does — edges in insertion order, weights, plans,
  ``cost_evaluations``, ``nodes_expanded``, ``rounds`` and ``searches`` —
  while vehicles move or stay put, batch sets change, traffic updates land,
  the congestion slot changes, the expansion cap binds, the angular blend
  is on or off, and vehicles share a search;
* the memo drops its records exactly when an input of the settle order
  changed, and keeps only what the last build used;
* a search that runs to its end frees its explorer;
* repeating a window settles no new node (through the policy's memo).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import foodgraph as foodgraph_module
from repro.core.foodgraph import SettleMemo, build_sparsified_foodgraph
from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.graph import TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from sequential_foodgraph import edges_in_order

#: 11:50; under ``urban_peaks`` the multiplier steps from 1.0 to 1.35 at noon.
MORNING = 42_600.0
NOON = 43_200.0
NUM_NODES = 40


def _model(seed: int) -> CostModel:
    network = random_geometric_city(num_nodes=NUM_NODES, seed=seed)
    network.profile = TimeProfile.urban_peaks()
    return CostModel(DistanceOracle(network, method="hub_label"))


def _orders(rng: random.Random, nodes, count: int, base_id: int, now: float):
    return [Order(order_id=base_id + i,
                  restaurant_node=rng.choice(nodes),
                  customer_node=rng.choice(nodes),
                  placed_at=now - rng.uniform(0.0, 600.0),
                  items=1 + rng.randrange(3),
                  prep_time=rng.uniform(120.0, 900.0))
            for i in range(count)]


class _Fleet:
    """Vehicles as (node, carried orders), rebuilt for every window.

    Half of them carry an order, so under the angular blend their search
    key has a destination; the first two always stand on one node with the
    same load, so they share one search.
    """

    def __init__(self, rng: random.Random, nodes, size: int, now: float) -> None:
        self.rng = rng
        self.nodes = nodes
        self.specs = []
        for v in range(size):
            carried = (_orders(rng, nodes, 1, base_id=10_000 + 10 * v, now=now)
                       if v % 2 else [])
            self.specs.append([rng.choice(nodes), carried])
        self.specs[1] = [self.specs[0][0], self.specs[0][1]]

    def move(self, share: float) -> None:
        for spec in self.specs[1:]:
            if self.rng.random() < share:
                spec[0] = self.rng.choice(self.nodes)
        self.specs[1][0] = self.specs[0][0]

    def vehicles(self, model: CostModel, now: float) -> list[Vehicle]:
        vehicles = []
        for v, (node, carried) in enumerate(self.specs):
            vehicle = Vehicle(vehicle_id=v, node=node)
            if carried:
                vehicle.assign(carried, model.plan_for_vehicle(vehicle, carried, now))
            vehicles.append(vehicle)
        return vehicles


def _edges_in_order(graph):
    """Edges as inserted: key, weight and the plan's stops and evaluation."""
    out = []
    for key, weight in edges_in_order(graph):
        plan = graph.plan(*key)
        out.append((key, weight, plan.stops, plan.evaluation))
    return out


def _assert_same_build(carried, fresh) -> None:
    assert _edges_in_order(carried) == _edges_in_order(fresh)
    for name in ("cost_evaluations", "nodes_expanded", "rounds", "searches"):
        assert getattr(carried, name) == getattr(fresh, name), name
    assert fresh.searches_reused == 0


def _track_explorers(monkeypatch) -> list:
    """Every explorer the builder makes from now on (kept alive here)."""
    born = []
    for name in ("VehicleSensitiveExplorer", "BestFirstExplorer"):
        original = getattr(foodgraph_module, name)

        class Tracked(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                born.append(self)

        monkeypatch.setattr(foodgraph_module, name, Tracked)
    return born


def _settles(born) -> int:
    return sum(explorer.visited_count for explorer in born)


def _run_windows(seed: int) -> list[int]:
    """Six consecutive windows through one memo, each checked against a
    fresh build; returns each window's ``searches_reused``."""
    rng = random.Random(seed)
    model = _model(seed % 5)
    oracle = model.oracle
    nodes = oracle.network.nodes
    options = dict(k=rng.choice((1, 2, 4)),
                   max_first_mile=rng.choice((600.0, 2700.0)),
                   use_angular=rng.random() < 0.5,
                   max_expansions=rng.choice((None, 25, 8)))
    now = MORNING
    fleet = _Fleet(rng, nodes, rng.randrange(3, 8), now)
    pool = _orders(rng, nodes, rng.randrange(3, 10), base_id=0, now=now)
    memo = SettleMemo()
    reused = []
    for window in range(6):
        vehicles = fleet.vehicles(model, now)
        batches = model.make_batches([[order] for order in pool], now)
        carried = build_sparsified_foodgraph(batches, vehicles, model, now,
                                             memo=memo, **options)
        fresh = build_sparsified_foodgraph(batches, vehicles, model, now, **options)
        _assert_same_build(carried, fresh)
        reused.append(carried.searches_reused)
        # The next window: some orders roll over, new ones arrive, some
        # vehicles move, and sometimes traffic or the clock's hour moves.
        pool = [order for order in pool if rng.random() < 0.5] + _orders(
            rng, nodes, rng.randrange(1, 6), base_id=100 * (window + 1), now=now)
        fleet.move(rng.choice((0.0, 0.3)))
        event = rng.random()
        if event < 0.2:
            u = rng.choice(nodes)
            v = next(iter(oracle.network.neighbors(u)))[0]
            oracle.apply_traffic_updates({(u, v): rng.choice((2.5, 0.5))})
        elif event < 0.4 and now < NOON:
            now = NOON + 60.0
        else:
            now += 60.0
    return reused


class TestConsecutiveWindows:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_every_window_is_the_fresh_build(self, seed):
        assert _run_windows(seed)[0] == 0

    def test_the_windows_do_read_earlier_records(self):
        # The property is only worth its name if its windows both read
        # records and start over.
        reused = [count for seed in range(8) for count in _run_windows(seed)]
        assert sum(reused) >= 20
        assert sum(count == 0 for count in reused) >= 8


class TestValidity:
    def _window(self):
        rng = random.Random(7)
        model = _model(2)
        nodes = model.oracle.network.nodes
        fleet = _Fleet(rng, nodes, 6, MORNING)
        batches = model.make_batches(
            [[order] for order in _orders(rng, nodes, 8, base_id=0, now=MORNING)], MORNING)
        return model, fleet, batches

    def test_records_are_dropped_exactly_when_an_input_changes(self):
        model, fleet, batches = self._window()
        memo = SettleMemo()

        def build(now, **options):
            vehicles = fleet.vehicles(model, now)
            options = {"k": 3, "use_angular": True} | options
            carried = build_sparsified_foodgraph(batches, vehicles, model, now,
                                                 memo=memo, **options)
            _assert_same_build(carried, build_sparsified_foodgraph(
                batches, vehicles, model, now, **options))
            return carried

        first = build(MORNING)
        assert first.searches == 5 and first.searches_reused == 0  # two share
        # Same hour, same weights: every search reads its record, and goes
        # on past its end when more batches are wanted.
        assert build(MORNING + 60.0).searches_reused == 5
        assert build(MORNING + 60.0, k=len(batches) + 1).searches_reused == 5
        # A traffic update bumps the network's mutation epoch.
        u = model.oracle.network.nodes[0]
        v = next(iter(model.oracle.network.neighbors(u)))[0]
        model.oracle.apply_traffic_updates({(u, v): 3.0})
        assert build(MORNING + 120.0).searches_reused == 0
        assert build(MORNING + 180.0).searches_reused == 5
        # Noon: the congestion multiplier changes.
        assert build(NOON).searches_reused == 0
        assert build(NOON + 60.0).searches_reused == 5
        # Every other input of the token.
        assert build(NOON + 60.0, gamma=0.3).searches_reused == 0
        assert build(NOON + 60.0, gamma=0.3, use_angular=False).searches_reused == 0
        assert build(NOON + 60.0, gamma=0.3, use_angular=False).searches_reused == 5
        assert build(NOON + 60.0, gamma=0.3, use_angular=False,
                     max_expansions=8).searches_reused == 0
        # Two vehicles move: the other searches are still read.
        fleet.specs[2][0] = fleet.specs[4][0] = model.oracle.network.nodes[-1]
        assert build(NOON + 60.0, gamma=0.3, use_angular=False,
                     max_expansions=8).searches_reused == 3
        # Another network, even one equal to this one, starts over.
        other = _model(2)
        vehicles = fleet.vehicles(other, NOON)
        graph = build_sparsified_foodgraph(batches, vehicles, other, NOON + 60.0, k=3,
                                           gamma=0.3, max_expansions=8, memo=memo)
        assert graph.searches_reused == 0

    def test_only_the_last_builds_records_are_kept(self):
        model, fleet, batches = self._window()
        memo = SettleMemo()
        build_sparsified_foodgraph(batches, fleet.vehicles(model, MORNING), model,
                                   MORNING, k=3, memo=memo)
        assert len(memo.records) == 5
        fleet.move(1.0)
        vehicles = fleet.vehicles(model, MORNING)
        build_sparsified_foodgraph(batches, vehicles[:3], model, MORNING, k=3, memo=memo)
        assert set(memo.records) == {vehicle.node for vehicle in vehicles[:3]}

    def test_a_search_run_to_its_end_frees_its_explorer(self):
        model, fleet, batches = self._window()
        for cap in (None, 8):
            memo = SettleMemo()
            # More batches wanted than exist: every search runs to its end.
            build_sparsified_foodgraph(batches, fleet.vehicles(model, MORNING), model,
                                       MORNING, k=len(batches) + 1, use_angular=True,
                                       max_expansions=cap, memo=memo)
            for record in memo.records.values():
                assert record.explorer is None
                assert len(record.order) == (cap or NUM_NODES)


class TestRepeatedWindow:
    def test_an_identical_window_settles_no_new_node(self, monkeypatch):
        born = _track_explorers(monkeypatch)
        rng = random.Random(5)
        model = _model(2)
        nodes = model.oracle.network.nodes
        fleet = _Fleet(rng, nodes, 6, MORNING)
        orders = _orders(rng, nodes, 8, base_id=0, now=MORNING)
        policy = FoodMatchPolicy(model, FoodMatchConfig(k=3))
        first = policy.assign(orders, fleet.vehicles(model, MORNING), MORNING)
        settled = _settles(born)
        assert first and settled > 0
        again = policy.assign(orders, fleet.vehicles(model, MORNING), MORNING)
        assert _settles(born) == settled
        assert [(a.vehicle.vehicle_id, a.weight) for a in again] == \
            [(a.vehicle.vehicle_id, a.weight) for a in first]
