"""Tests for the backend ladders and their registry.

The ladder's two notions of "where we are" (controller position vs
effective rung) must move independently, transitions must be counted in
exactly one place (``select``), and the registry's degrade-and-retry must
distinguish backend failures (retry one rung down) from input errors
(re-raise immediately).
"""

import pytest

import repro.core.matching as matching
from repro.core.matching import MATCHING_RUNGS, MatchingError
from repro.resilience import current_ladders, use_ladders
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.ladder import BackendLadder, LadderRegistry

#: A 2x2 instance as ``(rows, cols, weights)`` edge arrays.
EDGES = ([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 4.0, 4.0, 2.0])

#: Registry tests that assert the top rung is *selected* need the real
#: scipy backend importable (the CI no-scipy job runs without it).
requires_scipy = pytest.mark.skipif(
    matching._linear_sum_assignment is None,
    reason="needs the scipy rung importable")


class TestBackendLadder:
    def test_selects_top_rung_by_default(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        assert ladder.select() == "scipy"
        assert ladder.current == "scipy"
        assert ladder.demotions == 0

    def test_pin_sets_floor_and_position(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS, start="hungarian")
        assert ladder.select() == "hungarian"
        # A pin is a recovery ceiling, not a suggestion.
        assert not ladder.step_up()

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="unknown matching rung"):
            BackendLadder("matching", MATCHING_RUNGS, start="quantum")

    def test_unavailable_rung_skipped_and_counted(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        ladder.select()
        ladder.mark_unavailable("scipy", "gone")
        assert ladder.select() == "hungarian"
        assert ladder.demotions == 1
        # Re-selecting the same effective rung is not a second demotion.
        assert ladder.select() == "hungarian"
        assert ladder.demotions == 1

    def test_availability_recovery_counted(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        ladder.mark_unavailable("scipy", "gone")
        ladder.select()
        ladder.mark_available("scipy")
        assert ladder.select() == "scipy"
        assert ladder.recoveries == 1
        assert [e["event"] for e in ladder.history] == ["demotion", "recovery"]

    def test_step_down_and_up(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        assert ladder.step_down()
        assert ladder.select() == "hungarian"
        assert ladder.step_down()
        assert not ladder.step_down()  # already at the bottom
        assert ladder.step_up()
        assert ladder.step_up()
        assert not ladder.step_up()  # back at the floor
        assert ladder.select() == "scipy"

    def test_step_up_refuses_unavailable_rung(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        ladder.step_down()
        ladder.step_down()
        ladder.mark_unavailable("hungarian", "gone")
        assert ladder.step_up()  # skips hungarian, lands on scipy
        assert ladder.rungs[ladder.position] == "scipy"

    def test_all_rungs_unavailable_raises(self):
        ladder = BackendLadder("matching", MATCHING_RUNGS)
        for rung in MATCHING_RUNGS:
            ladder.mark_unavailable(rung, "gone")
        with pytest.raises(RuntimeError, match="no available matching"):
            ladder.select()


class TestLadderRegistry:
    @requires_scipy
    def test_solve_matching_top_rung(self):
        registry = LadderRegistry()
        pairs = registry.solve_matching(2, 2, *EDGES, 10.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        assert registry.matching.calls["scipy"] == 1

    def test_matching_error_not_retried(self):
        registry = LadderRegistry()
        bad = ([0], [0], [float("nan")])
        with pytest.raises(MatchingError, match=r"batch 0, vehicle 0"):
            registry.solve_matching(1, 1, *bad, 10.0)
        # No rung was burned: the input was the problem.
        assert registry.matching.failures["scipy"] == 0

    @requires_scipy
    def test_raise_mode_fault_degrades_and_sticks(self):
        plan = FaultPlan((FaultSpec(kind="backend_error", target="matching",
                                    rung="scipy", mode="raise"),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        registry = LadderRegistry(injector=injector)
        pairs = registry.solve_matching(2, 2, *EDGES, 10.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        assert registry.matching.current == "hungarian"
        assert registry.matching.failures["scipy"] == 1
        # The failure sticks: the next call degrades at selection time
        # instead of paying another exception.
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.failures["scipy"] == 1

    @requires_scipy
    def test_sticky_failure_clears_with_fault_window(self):
        plan = FaultPlan((FaultSpec(kind="backend_error", target="matching",
                                    rung="scipy", mode="raise", end=100.0),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        registry = LadderRegistry(injector=injector)
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.current == "hungarian"
        injector.advance(100.0)  # the fault window closed
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.current == "scipy"
        assert registry.matching.recoveries == 1

    def test_quality_sampling_on_degraded_rung(self):
        registry = LadderRegistry(matching_start="greedy_approx",
                                  quality_sample_every=1)
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching_quality_samples == 1
        # Greedy finds the optimal matching on this instance.
        assert registry.matching_quality_delta_pct == pytest.approx(0.0)

    @requires_scipy
    def test_snapshot_shape(self):
        registry = LadderRegistry()
        registry.solve_matching(2, 2, *EDGES, 10.0)
        snap = registry.snapshot()
        assert snap["matching"]["current"] == "scipy"
        assert snap["matching"]["calls"]["scipy"] == 1
        assert snap["quality"]["matching_samples"] == 0
        assert "faults" not in snap  # no injector attached

    @requires_scipy
    def test_fold_into_is_idempotent(self):
        from repro.obs.metrics import MetricsRegistry

        registry = LadderRegistry()
        registry.solve_matching(2, 2, *EDGES, 10.0)
        metrics = MetricsRegistry()
        registry.fold_into(metrics)
        registry.fold_into(metrics)
        calls = metrics.counter("resilience.calls", ladder="matching",
                                rung="scipy")
        assert calls.value == 1.0


class TestLadderContext:
    def test_default_is_none(self):
        assert current_ladders() is None

    def test_use_ladders_scopes_the_registry(self):
        registry = LadderRegistry()
        with use_ladders(registry):
            assert current_ladders() is registry
        assert current_ladders() is None
