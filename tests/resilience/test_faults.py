"""Tests for the seeded fault-injection harness."""

import json
import math

import pytest

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)


class TestFaultSpec:
    def test_validates_kind(self):
        for kind in ("meteor", "kill_worker"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultSpec(kind=kind, target="matching")

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_accepts_every_declared_kind(self, kind):
        for target in ("matching", "path"):
            assert FaultSpec(kind=kind, target=target).kind == kind

    def test_validates_backend_target(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="slowdown", target="cityA")

    def test_validates_window(self):
        with pytest.raises(ValueError, match="precedes"):
            FaultSpec(kind="slowdown", target="matching", start=5.0, end=1.0)

    def test_active_window_half_open(self):
        spec = FaultSpec(kind="slowdown", target="matching",
                         start=10.0, end=20.0)
        assert not spec.active_at(9.9)
        assert spec.active_at(10.0)
        assert not spec.active_at(20.0)

    def test_as_dict_roundtrips_infinite_end(self):
        spec = FaultSpec(kind="slowdown", target="matching", seconds=0.5)
        assert spec.as_dict()["end"] == "inf"
        again = FaultPlan.parse([spec.as_dict()]).specs[0]
        assert math.isinf(again.end)


class TestFaultPlanParse:
    def test_parses_json_text(self):
        text = json.dumps([{"kind": "slowdown", "target": "matching",
                            "seconds": 0.1}])
        plan = FaultPlan.parse(text)
        assert len(plan.specs) == 1
        assert plan.specs[0].seconds == 0.1

    def test_parses_wrapped_mapping(self):
        plan = FaultPlan.parse({"faults": [
            {"kind": "backend_error", "target": "path", "rung": "hub_labels"}]})
        assert plan.specs[0].rung == "hub_labels"

    def test_parses_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "slowdown", "target": "path", "start": 5.0}]}))
        plan = FaultPlan.parse(str(path))
        assert plan.specs[0].target == "path"

    def test_rejects_a_plan_naming_an_unknown_kind(self):
        text = json.dumps([{"kind": "slowdown", "target": "matching"},
                           {"kind": "kill_worker", "target": "cityA"}])
        with pytest.raises(ValueError, match="unknown fault kind 'kill_worker'"):
            FaultPlan.parse(text)

    def test_none_and_empty_are_falsy(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("[]")
        assert FaultPlan.parse([FaultSpec(kind="slowdown",
                                          target="matching")])


class TestFaultInjector:
    def test_slowdown_respects_window_and_rung(self):
        plan = FaultPlan((FaultSpec(kind="slowdown", target="matching",
                                    rung="scipy", seconds=0.5,
                                    start=100.0, end=200.0),))
        injector = FaultInjector(plan)
        injector.advance(50.0)
        assert injector.slowdown_seconds("matching", "scipy") == 0.0
        injector.advance(150.0)
        assert injector.slowdown_seconds("matching", "scipy") == 0.5
        # The demoted rung escapes the fault: that is the whole point.
        assert injector.slowdown_seconds("matching", "greedy_approx") == 0.0
        assert injector.slowdown_seconds("path", "hub_labels") == 0.0
        injector.advance(200.0)
        assert injector.slowdown_seconds("matching", "scipy") == 0.0

    def test_rungless_slowdown_hits_every_rung(self):
        plan = FaultPlan((FaultSpec(kind="slowdown", target="path",
                                    seconds=0.25),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        assert injector.slowdown_seconds("path", "hub_labels") == 0.25
        assert injector.slowdown_seconds("path", "bounded_hop_approx") == 0.25

    def test_jitter_is_seeded(self):
        plan = FaultPlan((FaultSpec(kind="slowdown", target="matching",
                                    seconds=0.1, jitter=0.05),))
        a = FaultInjector(plan, seed=7)
        b = FaultInjector(plan, seed=7)
        a.advance(0.0)
        b.advance(0.0)
        draws_a = [a.slowdown_seconds("matching", None) for _ in range(5)]
        draws_b = [b.slowdown_seconds("matching", None) for _ in range(5)]
        assert draws_a == draws_b
        assert len(set(draws_a)) > 1  # jitter actually varies

    def test_check_raise(self):
        plan = FaultPlan((FaultSpec(kind="backend_error", target="matching",
                                    rung="scipy", mode="raise"),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        with pytest.raises(InjectedFault):
            injector.check_raise("matching", "scipy")
        injector.check_raise("matching", "hungarian")  # other rung is fine

    def test_rung_blocked_modes(self):
        plan = FaultPlan((
            FaultSpec(kind="backend_error", target="path",
                      rung="hub_labels", mode="import"),
            FaultSpec(kind="backend_error", target="matching",
                      rung="scipy", mode="raise"),
        ))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        assert injector.rung_blocked("path", "hub_labels") == "import"
        assert injector.rung_blocked("matching", "scipy") == "raise"
        assert injector.rung_blocked("path", "dijkstra") is None

    def test_snapshot(self):
        plan = FaultPlan((FaultSpec(kind="slowdown", target="matching",
                                    seconds=0.01),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        injector.sleep("matching", "scipy")
        snap = injector.snapshot()
        assert snap["declared"] == 1
        assert snap["trips"] == 1
        assert len(snap["active"]) == 1
