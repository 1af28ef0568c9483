"""Tests for the matching kernel's new rungs and error reporting."""

import pytest

from repro.core.matching import (
    MatchingError,
    greedy_assignment,
    minimum_weight_matching,
    sparse_matching_objective,
    sparse_minimum_weight_matching,
)


def arrays(edges):
    """``{(row, col): weight}`` as the ``(rows, cols, weights)`` edge arrays."""
    return [r for r, _ in edges], [c for _, c in edges], list(edges.values())


class TestMatchingErrorCells:
    def test_dense_nan_names_the_cell(self):
        cost = [[1.0, 2.0], [3.0, float("nan")]]
        with pytest.raises(MatchingError, match=r"row 1, col 1") as info:
            minimum_weight_matching(cost)
        assert info.value.row == 1
        assert info.value.col == 1

    def test_sparse_nan_names_batch_and_vehicle(self):
        edges = {(0, 0): 1.0, (2, 5): float("nan")}
        with pytest.raises(MatchingError,
                           match=r"batch 2, vehicle 5") as info:
            sparse_minimum_weight_matching(3, 6, *arrays(edges), 10.0)
        assert info.value.row == 2
        assert info.value.col == 5

    def test_matching_error_is_a_value_error(self):
        # Call sites that caught ValueError before the named subclass
        # existed keep working.
        assert issubclass(MatchingError, ValueError)


class TestGreedyAssignment:
    def test_matches_smaller_side_completely(self):
        matrix = [[3.0, 1.0, 2.0], [2.0, 4.0, 1.0]]
        pairs = greedy_assignment(matrix)
        assert len(pairs) == 2
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == 2 and len(set(cols)) == 2

    def test_takes_cheapest_cells_first(self):
        matrix = [[1.0, 10.0], [10.0, 2.0]]
        assert sorted(greedy_assignment(matrix)) == [(0, 0), (1, 1)]

    def test_deterministic_tie_break(self):
        matrix = [[1.0, 1.0], [1.0, 1.0]]
        assert sorted(greedy_assignment(matrix)) == [(0, 0), (1, 1)]

    def test_greedy_can_be_suboptimal_but_bounded(self):
        # Classic greedy trap: taking the cheapest cell (0,0)=1 forces the
        # expensive (1,1)=8; exact pairs the diagonal-free cells for 2+3.
        matrix = [[1.0, 2.0], [3.0, 8.0]]
        greedy = greedy_assignment(matrix)
        exact = minimum_weight_matching(matrix, backend="hungarian")
        greedy_cost = sum(matrix[r][c] for r, c in greedy)
        exact_cost = sum(matrix[r][c] for r, c in exact)
        assert greedy_cost == 9.0
        assert exact_cost == 5.0
        # 2-approximation on this family: never worse than twice exact.
        assert greedy_cost <= 2 * exact_cost

    def test_sparse_greedy_omega_cutoff(self):
        # The only edge is costlier than the unmatched penalty: greedy must
        # leave it unmatched, exactly like the dense Ω formulation would.
        edges = {(0, 0): 50.0}
        pairs = sparse_minimum_weight_matching(1, 1, *arrays(edges), 10.0,
                                               backend="greedy_approx")
        assert pairs == []

    def test_sparse_greedy_matches_exact_on_easy_instance(self):
        edges = {(0, 1): 1.0, (1, 0): 1.0, (0, 0): 5.0, (1, 1): 5.0}
        greedy = sparse_minimum_weight_matching(2, 2, *arrays(edges), 10.0,
                                                backend="greedy_approx")
        exact = sparse_minimum_weight_matching(2, 2, *arrays(edges), 10.0)
        assert sorted(greedy) == sorted(exact) == [(0, 1), (1, 0)]


class TestSparseObjective:
    def test_counts_unmatched_penalty(self):
        edges = {(0, 0): 3.0}
        # Two potential assignments, one made: objective = 3 + Ω.
        assert sparse_matching_objective(2, 2, *arrays(edges), 10.0, [(0, 0)]) == 13.0

    def test_empty_matching_pays_full_penalty(self):
        assert sparse_matching_objective(3, 2, *arrays({}), 10.0, []) == 20.0

    def test_exact_never_worse_than_greedy(self):
        # Objective parity: both rungs scored on the same Ω-filled scale.
        edges = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 8.0}
        exact = sparse_minimum_weight_matching(2, 2, *arrays(edges), 100.0)
        greedy = sparse_minimum_weight_matching(2, 2, *arrays(edges), 100.0,
                                                backend="greedy_approx")
        exact_obj = sparse_matching_objective(2, 2, *arrays(edges), 100.0, exact)
        greedy_obj = sparse_matching_objective(2, 2, *arrays(edges), 100.0, greedy)
        assert exact_obj <= greedy_obj

    def test_fully_matched_pays_no_penalty(self):
        edges = {(0, 0): 1.0}
        assert sparse_matching_objective(1, 1, *arrays(edges), 10.0, [(0, 0)]) == 1.0
