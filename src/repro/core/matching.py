"""Minimum-weight bipartite matching via the Kuhn–Munkres algorithm.

FoodMatch solves the order-to-vehicle assignment of every accumulation window
as a minimum-weight perfect matching on the FoodGraph (Sec. IV-A).  This
module implements the Hungarian algorithm with potentials (the rectangular
extension of Bourgeois & Lassalle the paper cites) from scratch:

* :func:`hungarian` — the low-level solver on a dense cost matrix with
  ``rows <= cols``; O(rows^2 * cols).
* :func:`minimum_weight_matching` — the user-facing wrapper: accepts any
  rectangular matrix (lists or numpy), treats ``inf`` entries as forbidden,
  and returns the matched ``(row, col)`` pairs.
* :func:`sparse_minimum_weight_matching` — the sparsified-FoodGraph entry
  point: solves the "missing entries cost Ω" assignment problem on the
  finite-edge subgraph only, given as parallel ``(rows, cols, weights)``
  edge arrays, never materialising the dense Ω-filled matrix.

Backend selection happens at import time: when SciPy is importable, dense
subproblems are handed to ``scipy.optimize.linear_sum_assignment`` (a C
implementation of the same algorithm); otherwise the in-repo
:func:`hungarian` solves them.  ``MATCHING_BACKEND`` records the choice, and
tests force the fallback by monkeypatching ``_linear_sum_assignment`` to
``None``.  Correctness of the from-scratch solver is still cross-checked
against SciPy in the test suite, including on random matrices via hypothesis.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

try:  # pragma: no cover - exercised via the backend-forcing tests
    from scipy.optimize import linear_sum_assignment as _linear_sum_assignment
except ImportError:  # pragma: no cover
    _linear_sum_assignment = None

#: Which dense assignment backend was selected at import time.
MATCHING_BACKEND = "scipy" if _linear_sum_assignment is not None else "hungarian"

#: The matching backend ladder, best rung first.  ``scipy`` and ``hungarian``
#: are exact solvers; ``greedy_approx`` trades bounded regret for speed (the
#: degraded rung the latency-budget controller falls to under load).
MATCHING_RUNGS = ("scipy", "hungarian", "greedy_approx")

INFINITY = math.inf


class MatchingError(ValueError):
    """Invalid matching input, naming the offending ``(row, col)`` cell.

    ``row``/``col`` are indices into the *caller's* matrix orientation —
    for FoodGraph solves that is ``(batch, vehicle)``.
    """

    def __init__(self, message: str, row: int | None = None,
                 col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class MatchingBackendUnavailable(RuntimeError):
    """A specific backend rung was requested but cannot run here."""


def matching_backend_available(name: str) -> bool:
    """Whether the named matching rung can serve calls right now.

    Checked at call time (not import time) so tests that monkeypatch
    ``_linear_sum_assignment`` away see the ladder react immediately.
    """
    if name == "scipy":
        return _linear_sum_assignment is not None
    return name in MATCHING_RUNGS

# Forbidden (infinite-cost) entries are replaced by this finite sentinel so
# the potentials stay finite; it must dominate any realistic edge weight but
# stay far from float overflow when summed across a matching.
_FORBIDDEN_COST = 1e15


def hungarian(cost: Sequence[Sequence[float]]) -> list[int]:
    """Solve the assignment problem for a dense matrix with ``rows <= cols``.

    Returns ``assignment`` where ``assignment[row] = col``.  Every row is
    assigned (the matching is perfect on the smaller side), which mirrors the
    constraint ``sum x_{o,v} = min(|U1|, |U2|)`` of the paper's formulation.
    """
    n = len(cost)
    if n == 0:
        return []
    m = len(cost[0])
    if n > m:
        raise ValueError("hungarian() requires rows <= cols; transpose first")

    # Potentials and matching arrays use 1-based indexing, the classical
    # formulation of the algorithm.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)   # match[col] = row currently assigned to col
    way = [0] * (m + 1)

    for row in range(1, n + 1):
        match[0] = row
        col0 = 0
        minv = [INFINITY] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[col0] = True
            row0 = match[col0]
            delta = INFINITY
            col1 = -1
            for col in range(1, m + 1):
                if used[col]:
                    continue
                cur = cost[row0 - 1][col - 1] - u[row0] - v[col]
                if cur < minv[col]:
                    minv[col] = cur
                    way[col] = col0
                if minv[col] < delta:
                    delta = minv[col]
                    col1 = col
            for col in range(m + 1):
                if used[col]:
                    u[match[col]] += delta
                    v[col] -= delta
                else:
                    minv[col] -= delta
            col0 = col1
            if match[col0] == 0:
                break
        while col0:
            col1 = way[col0]
            match[col0] = match[col1]
            col0 = col1

    assignment = [-1] * n
    for col in range(1, m + 1):
        if match[col] > 0:
            assignment[match[col] - 1] = col - 1
    return assignment


def greedy_assignment(matrix: Sequence[Sequence[float]] | np.ndarray) -> list[tuple[int, int]]:
    """Bounded-regret greedy assignment on a dense finite matrix.

    Takes cells in ascending weight order (ties broken by ``(row, col)`` so
    the result is deterministic), accepting a cell whenever both its row and
    column are still free.  The matching is perfect on the smaller side, built
    in ``O(R*C log(R*C))`` with no augmenting paths — the fast approximate
    rung of :data:`MATCHING_RUNGS`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        return []
    rows, cols = matrix.shape
    cells = np.divmod(np.argsort(matrix, axis=None, kind="stable"), cols)
    target = min(rows, cols)
    row_free = [True] * rows
    col_free = [True] * cols
    pairs: list[tuple[int, int]] = []
    for r, c in zip(*(side.tolist() for side in cells), strict=True):
        if row_free[r] and col_free[c]:
            row_free[r] = False
            col_free[c] = False
            pairs.append((r, c))
            if len(pairs) == target:
                break
    return pairs


def _solve_dense(matrix: np.ndarray, backend: str | None = None) -> list[tuple[int, int]]:
    """Solve a finite rectangular assignment problem, perfect on the smaller side.

    With ``backend=None`` (the default) dispatches to SciPy's
    ``linear_sum_assignment`` when it was importable, otherwise to the in-repo
    :func:`hungarian` (transposing as required, on lists).  An explicit
    ``backend`` pins one rung of :data:`MATCHING_RUNGS` and raises
    :class:`MatchingBackendUnavailable` if that rung cannot run.
    Returns ``(row, col)`` pairs.
    """
    if matrix.size == 0:
        return []
    if backend is not None and backend not in MATCHING_RUNGS:
        raise MatchingBackendUnavailable(f"unknown matching backend {backend!r}")
    if backend == "greedy_approx":
        return greedy_assignment(matrix)
    if backend == "scipy" or backend is None and _linear_sum_assignment is not None:
        if _linear_sum_assignment is None:
            raise MatchingBackendUnavailable("scipy backend requested but "
                                             "scipy.optimize is not importable")
        row_ind, col_ind = _linear_sum_assignment(matrix)
        return list(zip(row_ind.tolist(), col_ind.tolist(), strict=True))
    if matrix.shape[0] > matrix.shape[1]:
        return [(row, col) for col, row in enumerate(hungarian(matrix.T.tolist()))
                if row >= 0]
    return [(row, col) for row, col in enumerate(hungarian(matrix.tolist())) if col >= 0]


def minimum_weight_matching(cost: Sequence[Sequence[float]] | np.ndarray,
                            forbid_infinite: bool = True,
                            backend: str | None = None) -> list[tuple[int, int]]:
    """Minimum-weight matching of a rectangular cost matrix.

    Parameters
    ----------
    cost:
        A ``rows x cols`` matrix (nested sequences or a numpy array).  Entries
        of ``math.inf`` mark forbidden pairs.
    forbid_infinite:
        When true (default), pairs whose cost is infinite are removed from the
        returned matching even if the solver had to use them to complete a
        perfect matching on the smaller side.
    backend:
        ``None`` (auto: scipy if importable, else the in-repo Hungarian) or
        one rung of :data:`MATCHING_RUNGS`.

    Returns
    -------
    list of ``(row, col)`` pairs, at most ``min(rows, cols)`` of them.
    """
    matrix = np.array(cost, dtype=np.float64)  # a ragged matrix raises here
    if matrix.size == 0:
        return []
    if matrix.ndim != 2:
        raise ValueError("cost matrix must be rectangular")
    nan = np.argwhere(np.isnan(matrix))
    if len(nan):
        row, col = nan[0].tolist()
        raise MatchingError(f"cost matrix contains NaN at (row {row}, col {col})",
                            row=row, col=col)
    forbidden = matrix == INFINITY
    matrix[forbidden] = _FORBIDDEN_COST
    return [(row, col) for row, col in _solve_dense(matrix, backend=backend)
            if not (forbid_infinite and forbidden[row, col])]


def _greedy_sparse(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                   omega: float) -> list[tuple[int, int]]:
    """Greedy rung for the sparse formulation: take finite edges in weight
    order while both endpoints are free.  Edges costing Ω or more are never
    taken (the Ω opt-out dominates them), matching the pairs the dense
    formulation would drop anyway.  Runs directly on the edge arrays —
    ``O(E log E)`` with no dense reduction at all, which is where the
    degraded rung buys its latency back.

    A single length-2 augmentation pass then rescues rows the greedy order
    stranded (their every column taken by another row that had a free
    alternative).  Each rescue swaps one Ω penalty for two finite edges, so
    on Ω-dominated instances it closes most of the gap to the exact
    objective while staying ``O(U * k^2)`` for ``U`` stranded rows under a
    degree bound ``k`` — no full augmenting-path search.
    """
    edges = dict(zip(zip(rows.tolist(), cols.tolist(), strict=True), weights.tolist(),
                     strict=True))
    # Ascending (weight, row, col), the edges costing Ω or more left out.
    taken = np.flatnonzero(weights < omega)
    taken = taken[np.lexsort((cols[taken], rows[taken], weights[taken]))]
    row_match: dict[int, int] = {}
    col_match: dict[int, int] = {}
    adjacency: dict[int, list[tuple[float, int]]] = {}
    for weight, r, c in zip(weights[taken].tolist(), rows[taken].tolist(),
                            cols[taken].tolist(), strict=True):
        adjacency.setdefault(r, []).append((weight, c))
        if r in row_match or c in col_match:
            continue
        row_match[r] = c
        col_match[c] = r
    for r in adjacency:
        if r in row_match:
            continue
        best = None  # (delta, c, partner, c2)
        for weight, c in adjacency[r]:
            partner = col_match[c]
            displaced = edges[(partner, c)]
            for weight2, c2 in adjacency.get(partner, ()):
                if c2 in col_match:
                    continue
                # Swap gain vs leaving r unmatched: pay (w + w2), stop
                # paying (displaced + Ω).
                delta = weight + weight2 - displaced - omega
                if delta < 0 and (best is None or delta < best[0]):
                    best = (delta, c, partner, c2)
                break  # adjacency is weight-sorted: first free col is best
        if best is not None:
            _, c, partner, c2 = best
            row_match[partner] = c2
            col_match[c2] = partner
            row_match[r] = c
            col_match[c] = r
    _improve_sparse(edges, omega, row_match, col_match, adjacency)
    return sorted(row_match.items())


#: 2-exchange passes the sparse greedy runs after seeding (see
#: :func:`_improve_sparse`).  Each pass is ``O(k^2)`` over matched pairs;
#: convergence is typically reached in 2-3 passes.
_GREEDY_IMPROVE_PASSES = 8


def _improve_sparse(edges: Mapping[tuple[int, int], float], omega: float,
                    row_match: dict[int, int], col_match: dict[int, int],
                    adjacency: Mapping[int, list[tuple[float, int]]]) -> None:
    """Polish a greedy seed with bounded 2-exchange local search, in place.

    Two moves, applied until a pass finds no improvement (or the pass cap
    hits): *relocate* a row to a cheaper free column, and *swap* the columns
    of two matched rows when the crossed costs are cheaper.  Missing edges
    price at Ω, so a move never fabricates an assignment the dense Ω-filled
    formulation would not offer.  This is what pulls the greedy rung's
    objective from cheapest-first's ~20% gap to within a few percent of the
    exact solvers, while staying ``O(passes * k^2)`` — still far below the
    cubic exact solve it stands in for.
    """
    def cost(r: int, c: int) -> float:
        return edges.get((r, c), omega)

    for _ in range(_GREEDY_IMPROVE_PASSES):
        improved = False
        # Relocate: a matched row moves to a cheaper free column.
        for r, c in list(row_match.items()):
            current = cost(r, c)
            for weight, c2 in adjacency.get(r, ()):
                if weight >= current:
                    break  # weight-sorted: nothing cheaper remains
                if c2 not in col_match:
                    del col_match[c]
                    row_match[r] = c2
                    col_match[c2] = r
                    improved = True
                    break
        # Swap: two matched rows trade columns when the cross is cheaper.
        matched = list(row_match.items())
        for i, (r1, c1) in enumerate(matched):
            for r2, c2 in matched[i + 1:]:
                c1 = row_match[r1]  # may have moved earlier this pass
                c2 = row_match[r2]
                delta = (cost(r1, c2) + cost(r2, c1)
                         - cost(r1, c1) - cost(r2, c2))
                if delta < -1e-12:
                    row_match[r1], row_match[r2] = c2, c1
                    col_match[c1], col_match[c2] = r2, r1
                    improved = True
        if not improved:
            break


def _ranks(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(index, return_inverse=True)`` for indices in ``[0, size)``,
    by a mask and a running count instead of a sort: a small window's
    matching otherwise spends more on ``np.unique`` than on the solve."""
    touched = np.zeros(size, dtype=bool)
    touched[index] = True
    return np.flatnonzero(touched), np.cumsum(touched)[index] - 1


def sparse_minimum_weight_matching(num_rows: int, num_cols: int,
                                   rows: ArrayLike, cols: ArrayLike,
                                   weights: ArrayLike, omega: float,
                                   backend: str | None = None) -> list[tuple[int, int]]:
    """Assignment on a sparse bipartite graph where missing pairs cost Ω.

    Edge ``i`` joins row ``rows[i]`` (in ``[0, num_rows)``) to column
    ``cols[i]`` (in ``[0, num_cols)``) at ``weights[i]``, at most one edge
    per cell, in any order: the result does not depend on it.  Semantically
    identical to running :func:`minimum_weight_matching` on the dense
    ``num_rows x num_cols`` matrix of the edge weights, Ω elsewhere, and
    keeping only the matched pairs that are edges — but without ever
    materialising that matrix.  The reduction: rows (after transposing so
    rows are the smaller side) that have no edge can only ever pay Ω, so
    they are dropped up front; the rest are matched against the columns
    actually touched by edges, plus one Ω-cost "opt-out" dummy column for
    every *untouched* real column (capped at the row count — a dummy per
    untouched column mirrors exactly the Ω-assignments the dense formulation
    offers, which matters when an explicit edge costs more than Ω and no
    spare column exists to escape to).  Matching a row to an untouched real
    column and matching it to a dummy both cost exactly Ω, so the reduced
    optimum equals the dense optimum, while the solver only sees an
    ``R' x (C' + min(R', num_cols - C'))`` matrix with ``R' <= number of
    rows with edges`` and ``C' <= number of edges``.

    For a sparsified FoodGraph with per-vehicle degree bound ``k`` this turns
    the per-window solve from ``O(B^2 V)`` on the Ω-filled matrix into a
    solve on the finite-edge subgraph only.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    if num_rows == 0 or num_cols == 0 or not len(weights):
        return []
    nan = np.flatnonzero(np.isnan(weights))
    if len(nan):  # before any transpose, so the error names the caller's
        # (batch, vehicle) cell, not a flipped one
        r, c = rows[nan[0]].item(), cols[nan[0]].item()
        raise MatchingError(f"cost matrix contains NaN at (batch {r}, vehicle {c})",
                            row=r, col=c)
    if backend == "greedy_approx":
        return _greedy_sparse(rows, cols, weights, omega)
    transposed = num_rows > num_cols
    if transposed:
        num_rows, num_cols, rows, cols = num_cols, num_rows, cols, rows

    finite_rows, row_pos = _ranks(rows, num_rows)
    finite_cols, col_pos = _ranks(cols, num_cols)
    num_real = len(finite_cols)
    num_dummy = min(len(finite_rows), num_cols - num_real)
    matrix = np.full((len(finite_rows), num_real + num_dummy), omega, dtype=np.float64)
    matrix[row_pos, col_pos] = weights
    is_edge = np.zeros((len(finite_rows), num_real), dtype=bool)
    is_edge[row_pos, col_pos] = True

    pairs: list[tuple[int, int]] = []
    for i, j in _solve_dense(matrix, backend=backend):
        # A dummy column is the opt-out: the row stays unassigned (Ω).
        if j < num_real and is_edge[i, j]:
            row, col = finite_rows[i].item(), finite_cols[j].item()
            pairs.append((col, row) if transposed else (row, col))
    return pairs


def matching_cost(cost: Sequence[Sequence[float]],
                  pairs: Sequence[tuple[int, int]]) -> float:
    """Total weight of a matching (helper for tests and diagnostics)."""
    return sum(cost[r][c] for r, c in pairs)


def sparse_matching_objective(num_rows: int, num_cols: int,
                              rows: ArrayLike, cols: ArrayLike,
                              weights: ArrayLike, omega: float,
                              pairs: Sequence[tuple[int, int]]) -> float:
    """Objective value of a sparse matching under the Ω-filled formulation.

    Every one of the ``min(num_rows, num_cols)`` potential assignments that a
    matching (of edges) leaves unmade pays Ω, so exact and approximate rungs
    compare on the same scale (helper for the resilience quality counters
    and tests).
    """
    keys = np.asarray(rows, dtype=np.intp) * num_cols + np.asarray(cols, dtype=np.intp)
    order = np.argsort(keys)
    matched = order[np.searchsorted(keys, [r * num_cols + c for r, c in pairs], sorter=order)]
    total = sum(np.asarray(weights, dtype=np.float64)[matched].tolist())
    return total + omega * (min(num_rows, num_cols) - len(pairs))


__all__ = [
    "hungarian",
    "greedy_assignment",
    "minimum_weight_matching",
    "sparse_minimum_weight_matching",
    "sparse_matching_objective",
    "matching_cost",
    "matching_backend_available",
    "MatchingError",
    "MatchingBackendUnavailable",
    "MATCHING_BACKEND",
    "MATCHING_RUNGS",
]
