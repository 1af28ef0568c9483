"""Tests for order outcomes, window records and the evaluation metrics."""

import pytest

from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.sim.metrics import OrderOutcome, SimulationResult, WindowRecord


def outcome(order_id=1, placed=0.0, sdt=600.0, delivered=None, rejected=False,
            picked=None, wait=0.0):
    order = Order(order_id=order_id, restaurant_node=0, customer_node=1,
                  placed_at=placed, prep_time=300.0)
    return OrderOutcome(order=order, sdt=sdt, delivered_at=delivered,
                        rejected=rejected, picked_up_at=picked, wait_seconds=wait)


def simple_result(outcomes=None, windows=None, vehicles=None, simulated=3600.0,
                  delta=180.0):
    return SimulationResult(policy_name="test", city_name="CityX", delta=delta,
                            outcomes=outcomes or {}, windows=windows or [],
                            vehicles=vehicles or [], simulated_seconds=simulated)


class TestOrderOutcome:
    def test_xdt_of_delivered_order(self):
        o = outcome(placed=100.0, sdt=500.0, delivered=700.0)
        assert o.delivery_duration == 600.0
        assert o.xdt == pytest.approx(100.0)

    def test_xdt_clamped_at_zero(self):
        o = outcome(placed=0.0, sdt=1000.0, delivered=500.0)
        assert o.xdt == 0.0

    def test_undelivered_has_no_xdt(self):
        o = outcome()
        assert o.xdt is None
        assert not o.delivered


class TestWindowRecord:
    def test_slot_and_overflow(self):
        record = WindowRecord(start=13 * 3600.0, end=13 * 3600.0 + 180.0, num_orders=5,
                              num_vehicles=3, num_assigned_orders=4, decision_seconds=200.0)
        assert record.slot == 13
        assert record.overflown
        assert record.overflown_within(250.0) is False
        assert record.overflown_within(0.1)

    def test_not_overflown_when_fast(self):
        record = WindowRecord(start=0.0, end=180.0, num_orders=1, num_vehicles=1,
                              num_assigned_orders=1, decision_seconds=0.5)
        assert not record.overflown


class TestOrderMetrics:
    def test_rejection_rate(self):
        outcomes = {1: outcome(1, delivered=900.0), 2: outcome(2, rejected=True)}
        assert simple_result(outcomes).rejection_rate == pytest.approx(0.5)

    def test_rejection_rate_empty(self):
        assert simple_result().rejection_rate == 0.0

    def test_total_xdt_and_objective(self):
        outcomes = {1: outcome(1, placed=0.0, sdt=300.0, delivered=400.0),
                    2: outcome(2, rejected=True)}
        result = simple_result(outcomes)
        assert result.total_xdt_seconds() == pytest.approx(100.0)
        assert result.total_xdt_seconds(include_rejection_penalty=True) == pytest.approx(
            100.0 + result.omega)

    def test_xdt_hours_per_day_scales_by_horizon(self):
        outcomes = {1: outcome(1, placed=0.0, sdt=300.0, delivered=3900.0)}
        one_hour = simple_result(outcomes, simulated=3600.0)
        full_day = simple_result(outcomes, simulated=86400.0)
        assert one_hour.xdt_hours_per_day() == pytest.approx(24 * full_day.xdt_hours_per_day())
        assert full_day.xdt_hours_per_day() == pytest.approx(3600.0 / 3600.0)

    def test_mean_metrics(self):
        outcomes = {1: outcome(1, placed=0.0, sdt=300.0, delivered=600.0),
                    2: outcome(2, placed=0.0, sdt=300.0, delivered=900.0)}
        result = simple_result(outcomes)
        assert result.mean_xdt_seconds() == pytest.approx(450.0)
        assert result.mean_delivery_minutes() == pytest.approx(12.5)


class TestVehicleMetrics:
    def test_orders_per_km_matches_paper_formula(self):
        """Reproduces the worked example of Sec. V-B (metric definition).

        A vehicle drives 6 km and 5 km while picking up two orders (0 then 1
        on board), then 8 km with both on board and 5 km with one left:
        average orders per km = (0*6 + 1*5 + 2*8 + 1*5) / 24 = 1.083.
        """
        vehicle = Vehicle(vehicle_id=1, node=0)
        vehicle.km_by_load = {0: 6.0, 1: 10.0, 2: 8.0}
        vehicle.distance_travelled_km = 24.0
        result = simple_result(vehicles=[vehicle])
        assert result.orders_per_km() == pytest.approx((0 * 6 + 1 * 10 + 2 * 8) / 24.0)
        assert result.total_distance_km() == pytest.approx(24.0)

    def test_orders_per_km_zero_without_distance(self):
        assert simple_result(vehicles=[Vehicle(vehicle_id=1, node=0)]).orders_per_km() == 0.0

    def test_waiting_hours_per_day(self):
        vehicle = Vehicle(vehicle_id=1, node=0)
        vehicle.waiting_seconds = 1800.0
        result = simple_result(vehicles=[vehicle], simulated=3600.0)
        assert result.waiting_hours_per_day() == pytest.approx(1800.0 * 24 / 3600.0)


class TestWindowMetrics:
    def _windows(self):
        return [
            WindowRecord(start=12 * 3600.0, end=12 * 3600.0 + 180, num_orders=3,
                         num_vehicles=2, num_assigned_orders=3, decision_seconds=200.0),
            WindowRecord(start=15 * 3600.0, end=15 * 3600.0 + 180, num_orders=1,
                         num_vehicles=2, num_assigned_orders=1, decision_seconds=0.2),
        ]

    def test_overflow_percentage_default_budget(self):
        result = simple_result(windows=self._windows())
        assert result.overflow_percentage() == pytest.approx(50.0)

    def test_overflow_percentage_with_custom_budget(self):
        result = simple_result(windows=self._windows())
        assert result.overflow_percentage(budget=0.1) == pytest.approx(100.0)
        assert result.overflow_percentage(budget=300.0) == pytest.approx(0.0)

    def test_overflow_percentage_peak_slots_only(self):
        result = simple_result(windows=self._windows())
        assert result.overflow_percentage(slots=[12]) == pytest.approx(100.0)
        assert result.overflow_percentage(slots=[15]) == pytest.approx(0.0)

    def test_decision_time_aggregates(self):
        result = simple_result(windows=self._windows())
        assert result.mean_decision_seconds() == pytest.approx(100.1)
        assert result.total_decision_seconds() == pytest.approx(200.2)

    def test_empty_windows(self):
        result = simple_result()
        assert result.overflow_percentage() == 0.0
        assert result.mean_decision_seconds() == 0.0


class TestBreakdownsAndSummary:
    def test_xdt_by_slot_groups_by_placement_hour(self):
        outcomes = {
            1: outcome(1, placed=12 * 3600.0, sdt=100.0, delivered=12 * 3600.0 + 400.0),
            2: outcome(2, placed=13 * 3600.0, sdt=100.0, delivered=13 * 3600.0 + 200.0),
        }
        by_slot = simple_result(outcomes).xdt_by_slot()
        assert by_slot[12] == pytest.approx(300.0)
        assert by_slot[13] == pytest.approx(100.0)

    def test_waiting_by_slot_uses_recorded_wait(self):
        outcomes = {1: outcome(1, delivered=900.0, picked=13 * 3600.0, wait=120.0)}
        assert simple_result(outcomes).waiting_by_slot()[13] == pytest.approx(120.0)

    def test_summary_contains_all_keys(self):
        summary = simple_result().summary()
        for key in ("orders", "delivered", "rejected", "xdt_hours_per_day",
                    "orders_per_km", "waiting_hours_per_day", "overflow_pct",
                    "rejection_rate", "mean_decision_seconds"):
            assert key in summary

    def test_repr_is_a_summary_of_constant_size(self):
        # asyncio formats a finished task's result when ``asyncio.run``
        # returns, so a served run pays for this repr; it must not grow
        # with the day.
        small = simple_result({1: outcome(1)}, vehicles=[Vehicle(vehicle_id=1, node=0)])
        outcomes = {i: outcome(i, delivered=900.0) for i in range(1, 501)}
        windows = [WindowRecord(start=180.0 * i, end=180.0 * (i + 1), num_orders=1,
                                num_vehicles=1, num_assigned_orders=1,
                                decision_seconds=0.1) for i in range(100)]
        vehicles = [Vehicle(vehicle_id=i, node=0) for i in range(200)]
        large = simple_result(outcomes, windows, vehicles)
        assert repr(large) == ("SimulationResult(policy_name='test', city_name='CityX', "
                               "orders=500, windows=100, vehicles=200)")
        assert len(repr(large)) - len(repr(small)) < 10
