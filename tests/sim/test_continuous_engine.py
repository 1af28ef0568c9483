"""Continuous-time engine invariants (PR 5).

Three properties anchor the event-clock refactor:

* **Boundary-aligned golden identity** — any timeline whose change points
  all lie on window boundaries drains zero sub-window events, so
  ``event_resolution="continuous"`` reproduces the window-mode engine bit
  for bit (fingerprints over every order outcome, window record and vehicle
  total), across traffic and fleet modes.
* **Split conservation** — stopping a metered walk at arbitrary
  intermediate boundaries (the event drain does this at every epoch) and
  resuming reproduces the unsplit walk float for float: same clock, same
  position, same distance accounting.
* **Severing semantics** — a road that fully closes under a moving vehicle
  (severed closure) takes effect at its true epoch in continuous mode: the
  vehicle stops at the cut, waits in place, and resumes the moment the road
  reopens — where the window-quantized engine lets it ghost through a road
  that closed mid-window.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.core.greedy import GreedyPolicy
from repro.experiments.executor import result_fingerprint
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.graph import RoadNetwork, TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.sim.advance import PathWalker
from repro.sim.clock import align_scenario_events
from repro.sim.engine import SimulationConfig, simulate
from repro.traffic.events import TrafficEvent, TrafficTimeline
from repro.workload.city import CITY_PROFILES, CityProfile
from repro.workload.generator import Scenario, generate_scenario


def _run(scenario, resolution, policy="foodmatch", delta=120.0,
         start=12 * 3600.0, end=13 * 3600.0):
    oracle = DistanceOracle(scenario.network)
    cost_model = CostModel(oracle)
    if policy == "foodmatch":
        built = FoodMatchPolicy(cost_model, FoodMatchConfig())
    else:
        built = GreedyPolicy(cost_model)
    config = SimulationConfig(delta=delta, start=start, end=end,
                              event_resolution=resolution)
    return simulate(scenario, built, cost_model, config)


class TestBoundaryAlignedGoldenIdentity:
    @pytest.mark.parametrize("traffic,fleet", [("light", "none"),
                                               ("none", "full"),
                                               ("heavy", "full")])
    def test_aligned_timeline_reproduces_window_engine(self, traffic, fleet):
        profile = CITY_PROFILES["CityA"].scaled(0.1)
        scenario = generate_scenario(profile, seed=5, start_hour=12,
                                     end_hour=13, traffic=traffic, fleet=fleet)
        aligned = align_scenario_events(scenario, delta=120.0,
                                        anchor=12 * 3600.0)
        fingerprints = {resolution: result_fingerprint(_run(aligned, resolution))
                        for resolution in ("window", "continuous")}
        assert fingerprints["window"] == fingerprints["continuous"]

    @pytest.mark.parametrize("seed", [1, 4, 11])
    def test_any_aligned_seed_reproduces_window_engine(self, seed):
        profile = CITY_PROFILES["CityA"].scaled(0.08)
        scenario = generate_scenario(profile, seed=seed, start_hour=12,
                                     end_hour=13, traffic="light",
                                     fleet="shifts")
        aligned = align_scenario_events(scenario, delta=180.0,
                                        anchor=12 * 3600.0)
        window = _run(aligned, "window", policy="greedy", delta=180.0)
        continuous = _run(aligned, "continuous", policy="greedy", delta=180.0)
        assert result_fingerprint(window) == result_fingerprint(continuous)

    def test_event_free_scenario_is_identical_in_both_modes(self):
        profile = CITY_PROFILES["CityA"].scaled(0.1)
        scenario = generate_scenario(profile, seed=5, start_hour=12,
                                     end_hour=13)
        assert result_fingerprint(_run(scenario, "window")) == \
            result_fingerprint(_run(scenario, "continuous"))

    def test_unaligned_heavy_timeline_actually_diverges(self):
        # Sanity check that continuous mode is not a no-op: mid-window
        # events must be able to change outcomes.
        profile = CITY_PROFILES["CityA"].scaled(0.15)
        scenario = generate_scenario(profile, seed=3, start_hour=12,
                                     end_hour=13, traffic="heavy",
                                     fleet="full")
        assert result_fingerprint(_run(scenario, "window", delta=180.0)) != \
            result_fingerprint(_run(scenario, "continuous", delta=180.0))


class TestSplitConservation:
    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_walk_split_at_arbitrary_epochs_conserves_metering(self, seed):
        rng = random.Random(seed)
        network = random_geometric_city(num_nodes=60, seed=seed % 5)
        network.profile = TimeProfile.urban_peaks()
        oracle = DistanceOracle(network)
        walker = PathWalker(oracle)
        nodes = network.nodes
        source, dest = rng.choice(nodes), rng.choice(nodes)
        clock = rng.uniform(0.0, 82_000.0)
        until = clock + rng.uniform(0.0, 4_000.0)
        breakpoints = sorted(rng.uniform(clock, until)
                             for _ in range(rng.randrange(1, 4)))

        whole = Vehicle(vehicle_id=1, node=source)
        clock_whole = walker.walk(whole, dest, clock, until)

        split = Vehicle(vehicle_id=2, node=source)
        clock_split = clock
        for boundary in [*breakpoints, until]:
            clock_split = walker.walk(split, dest, clock_split, boundary)

        assert clock_split == clock_whole
        assert split.node == whole.node
        assert split.distance_travelled_km == whole.distance_travelled_km
        assert split.km_by_load == whole.km_by_load


# --------------------------------------------------------------------------- #
# severed closures in the engine
# --------------------------------------------------------------------------- #
def line_network(num_nodes=6, edge_seconds=60.0):
    """A single east-west street: 0 - 1 - ... - n-1, flat profile."""
    network = RoadNetwork(TimeProfile.flat())
    for node in range(num_nodes):
        network.add_node(node, 0.0, 0.01 * node)
    for node in range(num_nodes - 1):
        network.add_road(node, node + 1, edge_seconds)
    return network


def line_scenario(traffic):
    network = line_network()
    profile = CityProfile(name="Line", network_factory=lambda: network,
                          num_restaurants=1, num_vehicles=1, orders_per_day=1,
                          mean_prep_minutes=1.0)
    order = Order(order_id=0, restaurant_node=0, customer_node=5,
                  placed_at=30.0, prep_time=60.0, items=1)
    vehicle = Vehicle(vehicle_id=0, node=0)
    return Scenario(profile=profile, network=network, restaurants=[],
                    orders=[order], vehicles=[vehicle], seed=0,
                    traffic=traffic)


def severed_bridge_timeline(start=400.0, end=1000.0):
    return TrafficTimeline((
        TrafficEvent(0, "closure", start, end, factor=math.inf,
                     edges=((2, 3), (3, 2))),))


class TestSeveredClosureInEngine:
    """One order 0 -> 5, one vehicle at 0, the street severed at node 2|3.

    Δ = 300: the policy assigns at t=300, the vehicle picks up immediately
    (food ready at 90) and starts the five 60-second edges toward node 5.
    The closure severs (2, 3) at t=400 — mid-window, while the vehicle is
    mid-edge between 1 and 2 — and lifts at t=1000.
    """

    def test_continuous_mode_stops_at_the_cut_and_resumes_on_reopen(self):
        scenario = line_scenario(severed_bridge_timeline())
        oracle = DistanceOracle(scenario.network, method="hub_label")
        cost_model = CostModel(oracle)
        config = SimulationConfig(delta=300.0, start=0.0, end=1800.0,
                                  event_resolution="continuous")
        result = simulate(scenario, GreedyPolicy(cost_model), cost_model,
                          config)
        outcome = result.outcomes[0]
        # Edge-atomic: the edge 1->2 entered at 360 completes at 420; the
        # vehicle then waits at node 2 until the road reopens at 1000 and
        # drives the remaining three edges: 1000 + 180 = 1180.
        assert outcome.picked_up_at == pytest.approx(300.0)
        assert outcome.delivered_at == pytest.approx(1180.0)

    def test_window_mode_ghosts_through_the_mid_window_closure(self):
        # The motivating defect: quantized to boundaries, the 400s closure
        # is first observed at t=600 — after the vehicle already crossed.
        scenario = line_scenario(severed_bridge_timeline())
        oracle = DistanceOracle(scenario.network, method="hub_label")
        cost_model = CostModel(oracle)
        config = SimulationConfig(delta=300.0, start=0.0, end=1800.0,
                                  event_resolution="window")
        result = simulate(scenario, GreedyPolicy(cost_model), cost_model,
                          config)
        assert result.outcomes[0].delivered_at == pytest.approx(600.0)

    def test_unreachable_customer_is_never_assigned_while_severed(self):
        # Severed before the decision epoch: the only path to the customer
        # is cut when the policy runs, so the order must stay unassigned
        # (marginal cost is infinite) until the road reopens.
        scenario = line_scenario(severed_bridge_timeline(start=100.0,
                                                         end=900.0))
        oracle = DistanceOracle(scenario.network, method="hub_label")
        cost_model = CostModel(oracle)
        config = SimulationConfig(delta=300.0, start=0.0, end=1800.0,
                                  event_resolution="continuous")
        result = simulate(scenario, GreedyPolicy(cost_model), cost_model,
                          config)
        outcome = result.outcomes[0]
        assert outcome.assigned_at is not None
        assert outcome.assigned_at >= 900.0
        assert outcome.delivered
