"""Simulator behaviour when edge weights change mid-simulation."""

import pytest

from repro import obs
from repro.core.greedy import GreedyPolicy
from repro.network import distance_oracle
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import grid_city
from repro.network.graph import TimeProfile
from repro.network.hub_labeling import BUILD_WORK_COUNTERS
from repro.network.shortest_path import dijkstra
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.sim.engine import SimulationConfig, Simulator, simulate
from repro.traffic.events import TrafficEvent, TrafficTimeline
from repro.workload.city import CITY_A, CityProfile
from repro.workload.generator import Scenario, generate_scenario


def flat_grid():
    return grid_city(rows=6, cols=6, block_km=0.5, diagonal_fraction=0.0,
                     congested_fraction=0.0, profile=TimeProfile.flat(), seed=3)


def manual_scenario(orders, vehicles, network=None, traffic=None):
    network = network or flat_grid()
    profile = CityProfile(name="Manual", network_factory=lambda: network,
                          num_restaurants=1, num_vehicles=len(vehicles),
                          orders_per_day=len(orders), mean_prep_minutes=5.0)
    return Scenario(profile=profile, network=network, restaurants=[],
                    orders=list(orders), vehicles=list(vehicles), seed=0,
                    traffic=traffic or TrafficTimeline.empty())


def order_at(order_id, restaurant, customer, placed_at, prep=60.0, items=1):
    return Order(order_id=order_id, restaurant_node=restaurant, customer_node=customer,
                 placed_at=placed_at, prep_time=prep, items=items)


def run_with_traffic(traffic, end=3600.0, delta=300.0):
    network = flat_grid()
    orders = [order_at(i, restaurant=7, customer=28, placed_at=60.0 + 240.0 * i)
              for i in range(6)]
    vehicles = [Vehicle(vehicle_id=0, node=0), Vehicle(vehicle_id=1, node=35)]
    scenario = manual_scenario(orders, vehicles, network=network, traffic=traffic)
    oracle = DistanceOracle(network, method="hub_label")
    cost_model = CostModel(oracle)
    policy = GreedyPolicy(cost_model)
    config = SimulationConfig(delta=delta, start=0.0, end=end)
    simulator = Simulator(scenario, policy, cost_model, config)
    result = simulator.run()
    return result, simulator, network, oracle


def everywhere_incident(start, end, network, factor=3.0):
    edges = tuple((u, v) for u, v, _ in network.edges())
    return TrafficEvent(0, "incident", start, end, factor=factor, edges=edges)


class TestSimulationUnderTraffic:
    def test_controller_attached_and_advanced(self):
        network = flat_grid()
        timeline = TrafficTimeline((
            TrafficEvent(0, "incident", 600.0, 1200.0, factor=2.5,
                         edges=((0, 1), (1, 0))),))
        result, simulator, network, _ = run_with_traffic(timeline)
        assert simulator.traffic is not None
        assert simulator.traffic.log.advances > 0
        assert simulator.traffic.log.changed_edges >= 2
        # the final advance was past the event's end: overrides cleared
        assert network.edge_overrides() == {}
        assert result.summary()["orders"] == 6

    def test_outcome_timestamps_stay_monotonic_under_mutations(self):
        network = flat_grid()
        edges = tuple((u, v) for u, v, _ in network.edges())[:20]
        timeline = TrafficTimeline((
            TrafficEvent(0, "incident", 300.0, 900.0, factor=4.0, edges=edges),
            TrafficEvent(1, "closure", 600.0, 1500.0, edges=edges[:4]),
        ))
        result, _, _, _ = run_with_traffic(timeline)
        for outcome in result.outcomes.values():
            if outcome.delivered_at is not None:
                assert outcome.picked_up_at is not None
                assert outcome.assigned_at is not None
                # delivered-time monotonicity: the lifecycle never runs backwards
                assert outcome.assigned_at >= outcome.order.placed_at
                assert outcome.picked_up_at >= outcome.assigned_at
                assert outcome.delivered_at >= outcome.picked_up_at

    def test_no_stale_cached_paths_after_mutation(self):
        network = flat_grid()
        timeline = TrafficTimeline((everywhere_incident(300.0, 3600.0, network),))
        _, simulator, network, oracle = run_with_traffic(timeline, end=1200.0)
        # after the run the incident is still active: every oracle answer must
        # reflect the mutated weights, not pre-incident cached values
        assert network.edge_overrides(), "incident still in force"
        for s, t in [(0, 35), (7, 28), (3, 31), (14, 22)]:
            assert oracle.distance(s, t, 0.0) == pytest.approx(
                dijkstra(network, s, t, 0.0), rel=1e-9)
            path = oracle.path(s, t)
            length = sum(network.edge_time(a, b, 0.0)
                         for a, b in zip(path, path[1:], strict=False))
            assert length == pytest.approx(dijkstra(network, s, t, 0.0), rel=1e-9)

    def test_network_wide_incident_slows_deliveries(self):
        quiet, _, _, _ = run_with_traffic(TrafficTimeline.empty())
        jammed, _, _, _ = run_with_traffic(
            TrafficTimeline((everywhere_incident(0.0, 86400.0, flat_grid()),)))
        quiet_summary = quiet.summary()
        jammed_summary = jammed.summary()
        assert quiet_summary["delivered"] > 0
        # tripling every traversal time cannot improve the delivered XDT
        assert jammed_summary["xdt_hours_per_day"] >= \
            quiet_summary["xdt_hours_per_day"]

    def test_labels_built_once_per_window_that_needs_them(self):
        # Every street slows down from the horizon's start and again later:
        # four all-node updates, each a rebuild decision, in four windows.
        network = flat_grid()
        timeline = TrafficTimeline((everywhere_incident(0.0, 900.0, network),
                                    everywhere_incident(1500.0, 2100.0, network)))
        orders = [order_at(i, restaurant=7, customer=28, placed_at=60.0 + 240.0 * i)
                  for i in range(6)]
        scenario = manual_scenario(orders, [Vehicle(vehicle_id=0, node=0)],
                                   network=network, traffic=timeline)
        oracle = DistanceOracle(network, method="hub_label")
        cost_model = CostModel(oracle)
        simulator = Simulator(scenario, GreedyPolicy(cost_model), cost_model,
                              SimulationConfig(delta=300.0, start=0.0, end=3600.0))
        assert oracle.label_builds == 0  # the first update would discard it
        builds = []
        for start in range(0, 3600, 300):
            simulator.step_window(float(start), start + 300.0)
            builds.append(oracle.label_builds)
        assert builds == [1, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 4]
        log = simulator.traffic.log
        assert log.rebuilds == log.label_builds == 4
        assert log.repairs == log.label_repairs_run == log.label_repairs_superseded == 0

    def test_build_work_is_summed_over_builds_and_folded(self, monkeypatch):
        # Same four-rebuild timeline; the oracle sums what each build did
        # and the run's telemetry carries the sums as traffic.* counters.
        network = flat_grid()
        timeline = TrafficTimeline((everywhere_incident(0.0, 900.0, network),
                                    everywhere_incident(1500.0, 2100.0, network)))
        orders = [order_at(i, restaurant=7, customer=28, placed_at=60.0 + 240.0 * i)
                  for i in range(6)]
        scenario = manual_scenario(orders, [Vehicle(vehicle_id=0, node=0)],
                                   network=network, traffic=timeline)
        built = []
        real = distance_oracle.HubLabelIndex

        def recording(*args, **kwargs):
            index = real(*args, **kwargs)
            built.append(index.build_work)
            return index

        monkeypatch.setattr(distance_oracle, "HubLabelIndex", recording)
        oracle = DistanceOracle(network, method="hub_label")
        cost_model = CostModel(oracle)
        obs.set_mode("summary")
        try:
            result = Simulator(scenario, GreedyPolicy(cost_model), cost_model,
                               SimulationConfig(delta=300.0, start=0.0,
                                                end=3600.0)).run()
        finally:
            obs.set_mode("off")
        assert len(built) == oracle.label_builds == 4
        counters = result.telemetry.counters
        for name in BUILD_WORK_COUNTERS:
            total = sum(work[name] for work in built)
            assert getattr(oracle, f"label_{name}") == total
            assert counters[f"traffic.label_{name}"] == total
        assert counters["traffic.label_levels"] > 0
        assert counters["traffic.label_witness_searches"] > 0

    def test_labels_built_once_at_construction_without_traffic(self):
        network = flat_grid()
        oracle = DistanceOracle(network, method="hub_label")
        cost_model = CostModel(oracle)
        orders = [order_at(i, restaurant=7, customer=28, placed_at=60.0 + 240.0 * i)
                  for i in range(6)]
        simulator = Simulator(manual_scenario(orders, [Vehicle(vehicle_id=0, node=0)],
                                              network=network),
                              GreedyPolicy(cost_model), cost_model,
                              SimulationConfig(delta=300.0, start=0.0, end=3600.0))
        assert oracle.label_builds == 1
        simulator.run()
        assert oracle.label_builds == 1

    def test_finalize_reports_queued_label_work_without_running_it(self):
        network = flat_grid()
        oracle = DistanceOracle(network, method="hub_label")
        cost_model = CostModel(oracle)
        orders = [order_at(i, restaurant=7, customer=28, placed_at=60.0 + 240.0 * i)
                  for i in range(6)]
        simulator = Simulator(manual_scenario(orders, [Vehicle(vehicle_id=0, node=0)],
                                              network=network),
                              GreedyPolicy(cost_model), cost_model,
                              SimulationConfig(delta=300.0, start=0.0, end=3600.0))
        for start in range(0, 3600, 300):
            simulator.step_window(float(start), start + 300.0)
        # Updates after the last window: nothing reads the labels again.
        assert oracle.apply_traffic_updates({(0, 1): 2.0}).strategy == "repair"
        everything = {(u, v): 2.0 for u, v, _ in network.edges()}
        assert oracle.apply_traffic_updates(everything).strategy == "rebuild"
        result = simulator.finalize()
        assert result.cache_stats["hub_labels"]["pending"] == 1
        assert oracle.index_info()["pending"] == 1
        assert oracle.label_builds == 1  # the one at construction
        assert oracle.label_repairs_run == 0

    def test_generated_scenario_timeline_runs_end_to_end(self):
        scenario = generate_scenario(CITY_A.scaled(0.2), seed=6,
                                     start_hour=12, end_hour=13,
                                     traffic="heavy")
        assert scenario.traffic, "heavy intensity must generate events"
        oracle = DistanceOracle(scenario.network)
        cost_model = CostModel(oracle)
        config = SimulationConfig(delta=180.0, start=12 * 3600.0, end=13 * 3600.0)
        result = simulate(scenario, GreedyPolicy(cost_model), cost_model, config)
        summary = result.summary()
        assert summary["delivered"] + summary["rejected"] <= summary["orders"] \
            or summary["orders"] == 0
