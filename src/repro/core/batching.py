"""Batching by iterative clustering of the order graph (Alg. 1, Sec. IV-B).

Orders that can be delivered together without long detours are merged into
batches before matching.  The procedure operates on the *order graph*: every
node is a batch (initially a single order) and the weight of the edge between
two batches is the extra delivery time incurred by serving their union with a
single vehicle (Eq. 5).  At each iteration the minimum-weight edge is merged,
subject to the MAXO / MAXI capacity constraints, until either

* the average batch cost (Eq. 6) exceeds the quality threshold ``eta``, or
* no feasible merge remains.

Theorem 2 of the paper shows the average batch cost is monotonically
non-decreasing under merges, which both guarantees termination and is
property-tested in this repository.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from collections.abc import Sequence

from repro.obs.trace import current_tracer
from repro.orders.batch import Batch
from repro.orders.costs import CostModel
from repro.orders.order import Order

INFINITY = math.inf


@dataclass(frozen=True)
class BatchingConfig:
    """Parameters of the iterative clustering procedure.

    Attributes
    ----------
    eta:
        Quality cutoff in seconds: clustering stops when the average batch
        cost exceeds this value (60 s in the paper's default setting).
    max_orders:
        ``MAXO`` — the largest batch size (3 in the paper).
    max_items:
        ``MAXI`` — the largest total item count per batch (10 in the paper).
    max_pair_distance:
        Optional pruning radius in seconds: order-graph edges are only
        created between batches whose first pick-up nodes are within this
        travel time of each other.  ``None`` (default) reproduces the paper's
        complete order graph; experiments on larger instances may set it to
        keep the quadratic edge construction in check.
    """

    eta: float = 60.0
    max_orders: int = 3
    max_items: int = 10
    max_pair_distance: float | None = None


@dataclass
class BatchingStats:
    """Diagnostics of one clustering run (used by tests and ablations)."""

    initial_batches: int = 0
    merges: int = 0
    final_batches: int = 0
    final_avg_cost: float = 0.0
    avg_cost_trace: list[float] = None

    def __post_init__(self) -> None:
        if self.avg_cost_trace is None:
            self.avg_cost_trace = []


def _average_cost(batches: dict[int, Batch]) -> float:
    """``AvgCost`` of Eq. 6: mean internal cost over the current batches."""
    if not batches:
        return 0.0
    return sum(batch.cost for batch in batches.values()) / len(batches)


def _mergeable(left: Batch, right: Batch, config: BatchingConfig) -> bool:
    if left.size + right.size > config.max_orders:
        return False
    return left.items + right.items <= config.max_items


def cluster_orders(orders: Sequence[Order], cost_model: CostModel, now: float,
                   config: BatchingConfig | None = None,
                   ) -> tuple[list[Batch], BatchingStats]:
    """Cluster unassigned orders into batches (Alg. 1).

    Parameters
    ----------
    orders:
        The unassigned orders ``O(l)`` of the current accumulation window.
    cost_model:
        Shared cost model; batch and merge costs come from it.
    now:
        Current timestamp (end of the accumulation window).
    config:
        Clustering parameters; defaults to the paper's settings.

    Returns
    -------
    (batches, stats):
        The final batches (covering every input order exactly once) and the
        run diagnostics, including the AvgCost trace whose monotonicity is
        asserted in tests.
    """
    config = config or BatchingConfig()
    # One planning table for the whole clustering (the window's own when
    # ``assign`` already opened a scope covering these orders).
    with cost_model.planning_scope(orders):
        return _cluster(list(orders), cost_model, now, config)


def _cluster(orders: list[Order], cost_model: CostModel, now: float,
             config: BatchingConfig) -> tuple[list[Batch], BatchingStats]:
    stats = BatchingStats()
    batches: dict[int, Batch] = dict(enumerate(
        cost_model.make_batches([[order] for order in orders], now)))
    stats.initial_batches = len(batches)
    stats.avg_cost_trace.append(_average_cost(batches))

    if len(batches) <= 1 or config.max_orders < 2:
        stats.final_batches = len(batches)
        stats.final_avg_cost = _average_cost(batches)
        return list(batches.values()), stats

    counter = itertools.count()
    next_key = len(batches)
    # (weight, tie-break, key_i, key_j, merged batch on demand: function, index)
    heap: list[tuple] = []
    tracer = current_tracer()

    def push_edges(pairs: list[tuple[int, int]]) -> None:
        """Compute and enqueue the order-graph edges of ``(key, other_key)`` pairs.

        All eligible merges are planned in one bulk search; edges enter the
        heap in pair order, so the tie-breaking counter is the per-pair
        loop's.
        """
        eligible = []
        for key, other_key in pairs:
            batch, other = batches[key], batches[other_key]
            if not _mergeable(batch, other, config):
                continue
            if config.max_pair_distance is not None and cost_model.distance(
                    batch.first_pickup_node, other.first_pickup_node,
                    now) > config.max_pair_distance:
                continue
            eligible.append((key, other_key))
        with tracer.span("batching.plan"):
            weights, merged_of = cost_model.merge_costs(
                [(batches[key], batches[other_key]) for key, other_key in eligible],
                now)
        for i, (key, other_key) in enumerate(eligible):
            heapq.heappush(heap, (weights[i], next(counter), key, other_key,
                                  merged_of, i))

    keys = list(batches.keys())
    push_edges([(key, other_key) for pos, key in enumerate(keys)
                for other_key in keys[pos + 1:]])

    while heap:
        if _average_cost(batches) > config.eta:
            break
        _, _, key_i, key_j, merged_of, i = heapq.heappop(heap)
        if key_i not in batches or key_j not in batches:
            continue  # stale edge: one endpoint was merged away earlier
        del batches[key_i]
        del batches[key_j]
        merged_key = next_key
        next_key += 1
        others = list(batches.keys())
        batches[merged_key] = merged_of(i)
        stats.merges += 1
        stats.avg_cost_trace.append(_average_cost(batches))
        if stats.avg_cost_trace[-1] > config.eta:
            break  # η stop: the merged batch's edges would never be read
        push_edges([(merged_key, other_key) for other_key in others])

    stats.final_batches = len(batches)
    stats.final_avg_cost = _average_cost(batches)
    return list(batches.values()), stats


__all__ = ["BatchingConfig", "BatchingStats", "cluster_orders"]
