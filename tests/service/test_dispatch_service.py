"""Tests for the always-on dispatch service.

The load-bearing guarantee is the determinism contract: a simulated-clock
service fed the scenario's recorded order stream is
``result_fingerprint``-identical to batch ``Simulator.run()`` on the same
scenario/policy/config.  Everything else — admission receipts, order
status, backpressure counters, run guards — is checked around it.
"""

import asyncio

import pytest

from repro.experiments.executor import result_fingerprint
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    materialize,
    run_setting,
    setting_config,
)
from repro.orders.order import Order
from repro.service import (
    BackpressureConfig,
    DispatchService,
    ServiceClosed,
    ServiceError,
    SimulatedClock,
    WallClock,
    recorded_stream,
    replay_orders,
    serve_recorded,
)
from repro.workload.city import CITY_PROFILES

SMALL = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.1,
                          start_hour=12, end_hour=13, seed=3)
BUSY = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.2,
                         start_hour=12, end_hour=13, seed=1,
                         traffic="light", fleet="full")


def make_service(setting, policy="foodmatch", **kwargs):
    scenario, oracle = materialize(setting)
    oracle.__dict__.pop("repair_fraction", None)
    return DispatchService(scenario, policy, config=setting_config(setting),
                          oracle=oracle, **kwargs)


def batch_fingerprint(setting, policy="foodmatch"):
    return result_fingerprint(run_setting(setting, PolicySpec(policy, ())))


class TestDeterminismContract:
    def test_recorded_replay_matches_batch(self):
        service = make_service(SMALL)
        result = asyncio.run(serve_recorded(service))
        assert result is not None
        assert result_fingerprint(result) == batch_fingerprint(SMALL)
        assert service.result is result

    def test_recorded_replay_matches_batch_with_traffic_and_fleet(self):
        service = make_service(BUSY)
        result = asyncio.run(serve_recorded(service))
        assert result_fingerprint(result) == batch_fingerprint(BUSY)

    def test_deferred_admissions_stay_lossless(self):
        # A tiny queue forces producers through the defer path; the replay
        # must still be fingerprint-identical because deferral only slows
        # admission, never drops it.
        service = make_service(
            BUSY, backpressure=BackpressureConfig(queue_capacity=1))
        result = asyncio.run(serve_recorded(service))
        assert result_fingerprint(result) == batch_fingerprint(BUSY)
        counters = service.stats()["backpressure"]
        assert counters["admitted"] == counters["submitted"]
        assert counters["shed"] == 0

    def test_pause_and_resume_in_process_matches_batch(self):
        service = make_service(SMALL)
        paused = asyncio.run(serve_recorded(service, max_windows=3))
        assert paused is None
        assert len(service.engine.window_records) == 3
        assert not service.engine.finalized
        result = asyncio.run(serve_recorded(service))
        assert result_fingerprint(result) == batch_fingerprint(SMALL)


class TestAdmissionAndStatus:
    def test_receipts_and_lifecycle(self):
        service = make_service(SMALL)
        orders = recorded_stream(service.engine.scenario,
                                 service.engine.config)
        assert orders, "scenario should have at least one order"

        async def scenario():
            receipt = await service.submit_order(orders[0])
            assert receipt.admitted
            assert receipt.status == "accepted"
            assert service.order_status(orders[0].order_id).state == "submitted"
            assert service.order_status(10**9).state == "unknown"
            # Drive the rest of the horizon under the watermark contract.
            await replay_orders(service, orders[1:])
            return await service.run()

        result = asyncio.run(scenario())
        assert result is not None
        final = service.order_status(orders[0].order_id)
        assert final.state in {"delivered", "rejected"}

    def test_shed_policy_drops_over_high_water(self):
        service = make_service(
            SMALL, backpressure=BackpressureConfig(
                queue_capacity=4, high_water=1, policy="shed"))
        orders = recorded_stream(service.engine.scenario,
                                 service.engine.config)

        async def scenario():
            receipts = [await service.submit_order(o) for o in orders[:4]]
            return receipts

        receipts = asyncio.run(scenario())
        statuses = [r.status for r in receipts]
        assert statuses[0] == "accepted"      # depth 0: below high water
        assert "shed" in statuses[1:]         # depth >= 1 trips the shed
        counters = service._backpressure
        assert counters.shed == statuses.count("shed")
        assert counters.admitted + counters.shed == counters.submitted

    def test_stopped_service_refuses_orders(self):
        service = make_service(SMALL)
        service.request_stop()
        order = recorded_stream(service.engine.scenario,
                                service.engine.config)[0]
        with pytest.raises(ServiceClosed):
            asyncio.run(service.submit_order(order))

    def test_late_arrival_is_counted_not_raised(self):
        service = make_service(SMALL)
        paused = asyncio.run(serve_recorded(service, max_windows=2))
        assert paused is None  # mid-horizon: ingestion passed two boundaries
        late = Order(order_id=10**6, restaurant_node=0, customer_node=1,
                     placed_at=float(service.engine.config.start), items=1,
                     prep_time=60.0)
        service._submit_to_engine(late)
        assert service.stats()["late_rejections"] == 1


class TestGuards:
    def test_run_rejects_concurrent_entry(self):
        service = make_service(SMALL)

        async def scenario():
            first = asyncio.create_task(service.run())
            await asyncio.sleep(0)  # let the first run claim the loop
            with pytest.raises(ServiceError, match="already running"):
                await service.run()
            service.request_stop()
            return await first

        assert asyncio.run(scenario()) is None

    def test_run_rejects_finalized_horizon(self):
        service = make_service(SMALL)
        assert asyncio.run(serve_recorded(service)) is not None
        with pytest.raises(ServiceError, match="finalized"):
            asyncio.run(service.run())

    def test_set_clock_rejected_while_running(self):
        service = make_service(SMALL)

        async def scenario():
            task = asyncio.create_task(service.run())
            await asyncio.sleep(0)
            with pytest.raises(ServiceError, match="running"):
                service.set_clock(SimulatedClock())
            service.request_stop()
            await task

        asyncio.run(scenario())
        # After the loop exits the clock may be swapped again.
        service.set_clock(WallClock(service.engine.config.start, rate=60.0))

    def test_stats_shape(self):
        service = make_service(SMALL)
        stats = service.stats()
        for key in ("scenario", "policy", "clock", "windows", "orders_seen",
                    "queue_depth", "late_rejections", "decide_seconds",
                    "backpressure"):
            assert key in stats
        assert stats["windows"] == 0
        assert stats["backpressure"]["policy"] == "defer"
