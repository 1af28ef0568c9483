"""Tests for the traffic controller's override lifecycle."""

import pytest

from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import grid_city
from repro.network.graph import TimeProfile
from repro.traffic.controller import TrafficController
from repro.traffic.events import TrafficEvent, TrafficTimeline


def flat_grid():
    return grid_city(rows=5, cols=5, block_km=0.5, diagonal_fraction=0.0,
                     congested_fraction=0.0, profile=TimeProfile.flat(), seed=3)


def make_controller(events, network=None, method="dijkstra"):
    network = network or flat_grid()
    oracle = DistanceOracle(network, method=method)
    return TrafficController(oracle, TrafficTimeline(tuple(events))), network


class TestControllerLifecycle:
    def test_event_applies_and_clears(self):
        event = TrafficEvent(0, "incident", 100.0, 200.0, factor=2.0,
                             edges=((0, 1),))
        controller, net = make_controller([event])
        base = net.edge_time(0, 1, 0.0)

        controller.advance(50.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(base)
        controller.advance(150.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(2.0 * base)
        controller.advance(250.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(base)
        assert net.edge_overrides() == {}

    def test_overlapping_events_compose_multiplicatively(self):
        a = TrafficEvent(0, "incident", 0.0, 300.0, factor=2.0, edges=((0, 1),))
        b = TrafficEvent(1, "weather", 100.0, 400.0, factor=1.5, edges=((0, 1),))
        controller, net = make_controller([a, b])
        base = net.edge_time(0, 1, 0.0)

        controller.advance(50.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(2.0 * base)
        controller.advance(150.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(3.0 * base)
        controller.advance(350.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(1.5 * base)
        controller.advance(450.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(base)

    def test_opens_on_weight_change_is_a_pure_read(self):
        event = TrafficEvent(0, "incident", 100.0, 200.0, factor=2.0,
                             edges=((0, 1),))
        controller, net = make_controller([event])
        assert not controller.opens_on_weight_change(50.0)
        assert controller.opens_on_weight_change(150.0)
        assert net.edge_overrides() == {} and controller.time is None
        controller.advance(150.0)
        assert not controller.opens_on_weight_change(150.0)
        assert controller.opens_on_weight_change(250.0)  # the clear

    def test_log_mirrors_the_oracles_label_work(self):
        event = TrafficEvent(0, "incident", 100.0, 200.0, factor=2.0,
                             edges=((0, 1),))
        controller, _ = make_controller([event], method="hub_label")
        controller.advance(150.0)
        assert controller.log.repairs == 1
        assert controller.log.label_repairs_run == 0  # queued, not read yet
        controller.oracle.refresh()
        assert controller.log.label_builds == 1  # the pristine labels
        assert controller.log.label_repairs_run == 1

    def test_advance_is_idempotent(self):
        event = TrafficEvent(0, "incident", 0.0, 300.0, factor=2.0, edges=((0, 1),))
        controller, _ = make_controller([event])
        first = controller.advance(100.0)
        assert first.mutated_edges == 1
        again = controller.advance(100.0)
        assert again.strategy == "noop"
        assert controller.time == 100.0

    def test_clock_jump_backwards_recovers(self):
        event = TrafficEvent(0, "incident", 100.0, 200.0, factor=2.0,
                             edges=((0, 1),))
        controller, net = make_controller([event])
        base = net.edge_time(0, 1, 0.0)
        controller.advance(150.0)
        controller.advance(50.0)
        assert net.edge_time(0, 1, 0.0) == pytest.approx(base)

    def test_fresh_controller_adopts_residual_overrides(self):
        event = TrafficEvent(0, "incident", 0.0, 300.0, factor=2.0, edges=((0, 1),))
        controller, net = make_controller([event])
        controller.advance(100.0)
        assert net.edge_overrides(), "precondition: override applied"

        # A new controller over the same network (e.g. a second simulation on
        # a cached scenario) must reconcile, not double-apply.
        replacement = TrafficController(controller.oracle,
                                        TrafficTimeline((event,)))
        stats = replacement.advance(100.0)
        assert stats.strategy == "noop"
        replacement.advance(400.0)
        assert net.edge_overrides() == {}

    def test_log_accumulates(self):
        event = TrafficEvent(0, "incident", 100.0, 200.0, factor=2.0,
                             edges=((0, 1),))
        controller, _ = make_controller([event])
        controller.advance(0.0)
        controller.advance(150.0)
        controller.advance(250.0)
        assert controller.log.advances == 3
        assert controller.log.changed_edges == 2  # one apply + one clear

    def test_duplicate_event_ids_keep_distinct_scopes(self):
        # event_id is not validated unique; the scope cache must not confuse
        # two events that happen to share one.
        a = TrafficEvent(0, "incident", 0.0, 300.0, factor=2.0, edges=((0, 1),))
        b = TrafficEvent(0, "closure", 0.0, 300.0, edges=((1, 2),))
        controller, net = make_controller([a, b])
        controller.advance(0.0)
        overrides = net.edge_overrides()
        assert overrides[(0, 1)] == pytest.approx(2.0)
        assert overrides[(1, 2)] == pytest.approx(b.factor)
        controller.advance(400.0)
        assert net.edge_overrides() == {}

    def test_zonal_event_touches_many_edges(self):
        net = flat_grid()
        center = net.nodes[12]
        radius = net.edge_time(0, 1, 0.0) * 1.1
        event = TrafficEvent(0, "rush_hour", 0.0, 100.0, factor=1.5,
                             zone_center=center, zone_radius_seconds=radius)
        controller, _ = make_controller([event], network=net)
        stats = controller.advance(0.0)
        assert stats.mutated_edges >= 2
        assert all(f == pytest.approx(1.5) for f in net.edge_overrides().values())
        controller.advance(200.0)
        assert net.edge_overrides() == {}
