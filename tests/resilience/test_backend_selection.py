"""Mock-driven backend selection: what runs when scipy is not there.

Patches the matching module's scipy handle away (the same seam the import
guard populates) and forces further rungs to fail, asserting the ladder
walks ``scipy -> hungarian -> greedy_approx`` and the counters record each
demotion and recovery.
"""

import pytest

import repro.core.matching as matching
from repro.core.matching import (
    MatchingBackendUnavailable,
    matching_backend_available,
    minimum_weight_matching,
    sparse_minimum_weight_matching,
)
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.ladder import LadderRegistry

#: A 2x2 instance as ``(rows, cols, weights)`` edge arrays.
EDGES = ([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 4.0, 4.0, 2.0])

requires_scipy = pytest.mark.skipif(
    matching._linear_sum_assignment is None,
    reason="needs the scipy rung importable")


@pytest.fixture()
def no_scipy(monkeypatch):
    """Simulate an environment where scipy failed to import."""
    monkeypatch.setattr(matching, "_linear_sum_assignment", None)


class TestBackendAvailability:
    def test_scipy_available_tracks_import(self, no_scipy):
        assert not matching_backend_available("scipy")
        assert matching_backend_available("hungarian")
        assert matching_backend_available("greedy_approx")

    def test_unknown_backend_never_available(self):
        assert not matching_backend_available("quantum")

    def test_explicit_scipy_without_scipy_raises(self, no_scipy):
        with pytest.raises(MatchingBackendUnavailable):
            minimum_weight_matching([[1.0]], backend="scipy")

    def test_unknown_backend_raises(self):
        with pytest.raises(MatchingBackendUnavailable):
            minimum_weight_matching([[1.0]], backend="quantum")

    def test_default_falls_back_to_hungarian(self, no_scipy):
        # No backend requested: the solver silently uses the pure-python
        # hungarian path, exactly as before the ladder existed.
        assert sorted(minimum_weight_matching([[2.0, 1.0], [1.0, 2.0]])) \
            == [(0, 1), (1, 0)]


class TestLadderSelection:
    def test_hungarian_selected_when_scipy_missing(self, no_scipy):
        registry = LadderRegistry()
        pairs = registry.solve_matching(2, 2, *EDGES, 10.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        assert registry.matching.current == "hungarian"
        assert registry.matching.demotions == 1
        assert registry.matching.calls["hungarian"] == 1
        assert registry.matching.calls["scipy"] == 0
        assert registry.matching.snapshot()["unavailable"]["scipy"] \
            == "backend not importable"

    def test_greedy_selected_when_hungarian_also_fails(self, no_scipy):
        plan = FaultPlan((FaultSpec(kind="backend_error", target="matching",
                                    rung="hungarian", mode="import"),))
        injector = FaultInjector(plan)
        injector.advance(0.0)
        registry = LadderRegistry(injector=injector)
        pairs = registry.solve_matching(2, 2, *EDGES, 10.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        assert registry.matching.current == "greedy_approx"
        assert registry.matching.demotions == 1  # one two-rung transition

    @requires_scipy
    def test_recovery_when_scipy_returns(self, monkeypatch):
        registry = LadderRegistry()
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.current == "scipy"
        monkeypatch.setattr(matching, "_linear_sum_assignment", None)
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.current == "hungarian"
        monkeypatch.undo()
        registry.solve_matching(2, 2, *EDGES, 10.0)
        assert registry.matching.current == "scipy"
        assert registry.matching.demotions == 1
        assert registry.matching.recoveries == 1

    def test_rungs_agree_on_the_result(self, no_scipy):
        # hungarian must reproduce scipy's optimum bit for bit; sparse
        # greedy happens to as well on this instance.
        for backend in (None, "hungarian", "greedy_approx"):
            pairs = sparse_minimum_weight_matching(2, 2, *EDGES, 10.0,
                                                   backend=backend)
            assert sorted(pairs) == [(0, 0), (1, 1)], backend
