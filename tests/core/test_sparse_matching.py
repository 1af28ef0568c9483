"""Property tests for the sparse-aware matching path and backend selection.

The sparse solver must produce a matching whose *total objective* (finite
edge weights plus Ω for every unmatched smaller-side member) is identical to
solving the dense Ω-filled matrix, on arbitrary random sparse instances —
including rows/columns with no finite edge at all.  The scipy fast path and
the in-repo Hungarian fallback must agree as well; the fallback is forced by
monkeypatching the backend handle to ``None``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.matching as matching
from repro.core.matching import (
    MATCHING_BACKEND,
    matching_cost,
    minimum_weight_matching,
    sparse_minimum_weight_matching,
)

OMEGA = 7200.0


def arrays(edges):
    """``{(row, col): weight}`` as the ``(rows, cols, weights)`` edge arrays."""
    return [r for r, _ in edges], [c for _, c in edges], list(edges.values())


def random_sparse_instance(seed: int):
    rng = random.Random(seed)
    rows = rng.randint(1, 7)
    cols = rng.randint(1, 7)
    edges = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.45:
                edges[(r, c)] = rng.uniform(0.0, OMEGA * 0.99)
    return rows, cols, edges


def dense_objective(rows, cols, edges):
    """Objective of the seed path: dense Ω-filled matrix through the solver."""
    matrix = [[edges.get((r, c), OMEGA) for c in range(cols)] for r in range(rows)]
    pairs = minimum_weight_matching(matrix)
    return matching_cost(matrix, pairs)


def sparse_objective(rows, cols, pairs, edges):
    """Finite weights of the sparse matching plus Ω per unmatched member."""
    total = sum(edges[pair] for pair in pairs)
    return total + OMEGA * (min(rows, cols) - len(pairs))


class TestSparseMatchesDense:
    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=120, deadline=None)
    def test_total_cost_identical_to_dense(self, seed):
        rows, cols, edges = random_sparse_instance(seed)
        pairs = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA)
        assert sparse_objective(rows, cols, pairs, edges) == pytest.approx(
            dense_objective(rows, cols, edges), rel=1e-9, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=60, deadline=None)
    def test_pairs_are_a_matching_on_finite_edges(self, seed):
        rows, cols, edges = random_sparse_instance(seed)
        pairs = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA)
        assert len({r for r, _ in pairs}) == len(pairs)
        assert len({c for _, c in pairs}) == len(pairs)
        for pair in pairs:
            assert pair in edges

    def test_over_omega_edge_loses_to_opting_out(self):
        # A spare column exists, so the dense formulation matches the row at
        # Ω elsewhere; the explicit over-Ω edge must not be returned.
        pairs = sparse_minimum_weight_matching(1, 2, *arrays({(0, 0): OMEGA + 100.0}), OMEGA)
        assert pairs == []

    def test_over_omega_edge_forced_when_no_spare_column(self):
        # Square instance with no escape column: the dense formulation is
        # forced onto the explicit edge, so the sparse path must be too.
        pairs = sparse_minimum_weight_matching(1, 1, *arrays({(0, 0): OMEGA + 100.0}), OMEGA)
        assert pairs == [(0, 0)]

    @given(seed=st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=80, deadline=None)
    def test_total_cost_identical_to_dense_with_over_omega_edges(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        edges = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.5:
                    edges[(r, c)] = rng.uniform(0.0, OMEGA * 2.0)
        matrix = [[edges.get((r, c), OMEGA) for c in range(cols)]
                  for r in range(rows)]
        dense_pairs = minimum_weight_matching(matrix)
        dense_total = matching_cost(matrix, dense_pairs)
        pairs = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA)
        total = sum(edges[p] for p in pairs) + OMEGA * (min(rows, cols) - len(pairs))
        assert total == pytest.approx(dense_total, rel=1e-9, abs=1e-9)

    def test_empty_inputs(self):
        assert sparse_minimum_weight_matching(0, 5, *arrays({}), OMEGA) == []
        assert sparse_minimum_weight_matching(5, 0, *arrays({}), OMEGA) == []
        assert sparse_minimum_weight_matching(3, 3, *arrays({}), OMEGA) == []

    def test_tall_instance_transposes(self):
        edges = {(0, 0): 1.0, (3, 1): 2.0}
        pairs = sparse_minimum_weight_matching(4, 2, *arrays(edges), OMEGA)
        assert sorted(pairs) == [(0, 0), (3, 1)]

    def test_opting_out_beats_expensive_edge(self):
        # Both rows want column 0; the loser's only alternative edge is
        # worse than Ω... which cannot happen by construction, so use a
        # near-Ω edge: the solver must still prefer it over Ω itself.
        edges = {(0, 0): 1.0, (1, 0): 2.0, (1, 1): OMEGA * 0.999}
        pairs = sparse_minimum_weight_matching(2, 2, *arrays(edges), OMEGA)
        assert sparse_objective(2, 2, pairs, edges) == pytest.approx(
            dense_objective(2, 2, edges), rel=1e-12)


class TestBackendFallback:
    def test_backend_constant_reflects_scipy_presence(self):
        assert MATCHING_BACKEND in {"scipy", "hungarian"}
        assert (matching._linear_sum_assignment is not None) == (
            MATCHING_BACKEND == "scipy")

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_forced_hungarian_matches_scipy_path(self, seed):
        rows, cols, edges = random_sparse_instance(seed)
        with_backend = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA)
        saved = matching._linear_sum_assignment
        matching._linear_sum_assignment = None
        try:
            fallback = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA)
        finally:
            matching._linear_sum_assignment = saved
        assert sparse_objective(rows, cols, fallback, edges) == pytest.approx(
            sparse_objective(rows, cols, with_backend, edges), rel=1e-9, abs=1e-9)

    def test_forced_hungarian_dense_with_forbidden_entries(self, monkeypatch):
        cost = [[math.inf, 1.0, 3.0], [2.0, math.inf, math.inf]]
        expected = minimum_weight_matching(cost)
        monkeypatch.setattr(matching, "_linear_sum_assignment", None)
        fallback = minimum_weight_matching(cost)
        assert matching_cost(cost, fallback) == pytest.approx(
            matching_cost(cost, expected))

    @given(data=st.data(),
           rows=st.integers(min_value=1, max_value=6),
           cols=st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_forced_hungarian_on_rectangular_with_infs(self, data, rows, cols):
        finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                           allow_infinity=False)
        cell = st.one_of(st.just(math.inf), finite)
        cost = [[data.draw(cell) for _ in range(cols)] for _ in range(rows)]
        expected = minimum_weight_matching(cost)
        saved = matching._linear_sum_assignment
        matching._linear_sum_assignment = None
        try:
            fallback = minimum_weight_matching(cost)
        finally:
            matching._linear_sum_assignment = saved
        assert matching_cost(cost, fallback) == pytest.approx(
            matching_cost(cost, expected), rel=1e-9, abs=1e-9)


@st.composite
def sparse_instances(draw):
    """Rectangular instances either way round, at most one edge per cell,
    weights with ties and on both sides of Ω."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                          unique=True, min_size=1, max_size=rows * cols))
    weight = st.one_of(st.sampled_from([1.0, 2.0, OMEGA, OMEGA + 1.0]),
                       st.floats(min_value=0.0, max_value=2.0 * OMEGA))
    weights = draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))
    order = draw(st.permutations(range(len(cells))))
    return rows, cols, cells, weights, order


def rungs():
    names = ["hungarian", "greedy_approx"]
    return ["scipy", *names] if matching._linear_sum_assignment is not None else names


class TestEdgeOrderDoesNotMatter:
    @given(instance=sparse_instances())
    @settings(max_examples=150, deadline=None)
    def test_every_rung_returns_the_same_pairs(self, instance):
        rows, cols, cells, weights, order = instance
        edges = dict(zip(cells, weights, strict=True))
        permuted = dict((cells[i], weights[i]) for i in order)
        matrix = [[edges.get((r, c), OMEGA) for c in range(cols)] for r in range(rows)]
        dense = matching_cost(matrix, minimum_weight_matching(matrix))
        for rung in rungs():
            pairs = sparse_minimum_weight_matching(rows, cols, *arrays(edges), OMEGA,
                                                   backend=rung)
            assert sparse_minimum_weight_matching(rows, cols, *arrays(permuted), OMEGA,
                                                  backend=rung) == pairs
            if rung != "greedy_approx":
                assert sparse_objective(rows, cols, pairs, edges) == pytest.approx(
                    dense, rel=1e-9, abs=1e-9)

    @given(instance=sparse_instances(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nan_names_the_first_offending_cell(self, instance, data):
        rows, cols, cells, weights, order = instance
        bad = data.draw(st.sets(st.sampled_from(range(len(cells))), min_size=1))
        weights = [math.nan if i in bad else w for i, w in enumerate(weights)]
        cells, weights = [cells[i] for i in order], [weights[i] for i in order]
        first = next(cell for cell, w in zip(cells, weights, strict=True) if w != w)
        for rung in rungs():
            with pytest.raises(matching.MatchingError) as info:
                sparse_minimum_weight_matching(rows, cols, [r for r, _ in cells],
                                               [c for _, c in cells], weights, OMEGA,
                                               backend=rung)
            assert (info.value.row, info.value.col) == first
