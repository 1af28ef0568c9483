"""Tests for order-graph batching (Alg. 1) and its monotonicity guarantee."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingConfig, cluster_orders
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import grid_city
from repro.network.graph import TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order


def grid_order(order_id, restaurant, customer, items=1, prep=0.0, placed_at=0.0):
    return Order(order_id=order_id, restaurant_node=restaurant, customer_node=customer,
                 placed_at=placed_at, items=items, prep_time=prep)


@pytest.fixture(scope="module")
def batch_model():
    network = grid_city(rows=6, cols=6, block_km=0.5, diagonal_fraction=0.0,
                        congested_fraction=0.0, profile=TimeProfile.flat(), seed=3)
    return CostModel(DistanceOracle(network, method="hub_label"))


def clustered_orders():
    """Six orders forming two obvious spatial clusters on the 6x6 grid."""
    return [
        grid_order(1, 0, 1), grid_order(2, 0, 6), grid_order(3, 1, 7),
        grid_order(4, 35, 34), grid_order(5, 35, 29), grid_order(6, 34, 28),
    ]


def _count_merge_cost_calls(cost_model, monkeypatch) -> list[int]:
    """Record the pair count of every bulk ``merge_costs`` call."""
    calls: list[int] = []
    original = cost_model.merge_costs

    def counted(pairs, now):
        calls.append(len(pairs))
        return original(pairs, now)

    monkeypatch.setattr(cost_model, "merge_costs", counted)
    return calls


class TestPartitionProperties:
    def test_every_order_in_exactly_one_batch(self, batch_model):
        orders = clustered_orders()
        batches, _ = cluster_orders(orders, batch_model, 0.0)
        seen = [o.order_id for batch in batches for o in batch.orders]
        assert sorted(seen) == sorted(o.order_id for o in orders)

    def test_respects_max_orders(self, batch_model):
        orders = clustered_orders()
        config = BatchingConfig(eta=1e9, max_orders=2)
        batches, _ = cluster_orders(orders, batch_model, 0.0, config)
        assert all(batch.size <= 2 for batch in batches)

    def test_respects_max_items(self, batch_model):
        orders = [grid_order(i, 0, 1 + i, items=3) for i in range(4)]
        config = BatchingConfig(eta=1e9, max_orders=4, max_items=6)
        batches, _ = cluster_orders(orders, batch_model, 0.0, config)
        assert all(batch.items <= 6 for batch in batches)

    def test_empty_input(self, batch_model):
        batches, stats = cluster_orders([], batch_model, 0.0)
        assert batches == []
        assert stats.merges == 0

    def test_single_order(self, batch_model):
        batches, stats = cluster_orders([grid_order(1, 0, 5)], batch_model, 0.0)
        assert len(batches) == 1
        assert stats.initial_batches == 1

    def test_max_orders_one_disables_batching(self, batch_model):
        orders = clustered_orders()
        config = BatchingConfig(max_orders=1)
        batches, stats = cluster_orders(orders, batch_model, 0.0, config)
        assert len(batches) == len(orders)
        assert stats.merges == 0


class TestStoppingCriterion:
    def test_generous_eta_merges_clustered_orders(self, batch_model):
        orders = clustered_orders()
        config = BatchingConfig(eta=600.0, max_orders=3)
        batches, stats = cluster_orders(orders, batch_model, 0.0, config)
        assert stats.merges > 0
        assert len(batches) < len(orders)

    def test_zero_eta_with_costly_merges_stops_early(self, batch_model):
        # Orders at opposite grid corners: any merge is expensive, and with
        # eta=0 the very first merge that raises AvgCost above zero ends it.
        orders = [grid_order(1, 0, 1, prep=0.0), grid_order(2, 35, 34, prep=0.0),
                  grid_order(3, 5, 4, prep=0.0)]
        config = BatchingConfig(eta=0.0)
        batches, stats = cluster_orders(orders, batch_model, 0.0, config)
        assert stats.merges <= 1

    def test_larger_eta_never_yields_more_batches(self, batch_model):
        orders = clustered_orders()
        strict, _ = cluster_orders(orders, batch_model, 0.0, BatchingConfig(eta=10.0))
        loose, _ = cluster_orders(orders, batch_model, 0.0, BatchingConfig(eta=900.0))
        assert len(loose) <= len(strict)

    @pytest.mark.parametrize("eta", [10.0, 50.0, 200.0])
    def test_merge_crossing_eta_is_the_last_and_plans_nothing(self, batch_model,
                                                              monkeypatch, eta):
        # The trace of clustered_orders() at max_orders=3 reads 0, 16.4,
        # 40.9, 109.1, 245.5: each eta is crossed by a later merge.
        calls = _count_merge_cost_calls(batch_model, monkeypatch)
        config = BatchingConfig(eta=eta, max_orders=3)
        _, stats = cluster_orders(clustered_orders(), batch_model, 0.0, config)
        trace = stats.avg_cost_trace
        assert stats.merges > 0 and trace[-1] > eta
        assert all(cost <= eta for cost in trace[:-1])
        # One bulk plan for the initial order graph, one per merge that left
        # AvgCost within eta; none for the merge that crossed it.
        assert len(calls) == stats.merges

    def test_every_merge_within_eta_plans_its_edges(self, batch_model, monkeypatch):
        calls = _count_merge_cost_calls(batch_model, monkeypatch)
        config = BatchingConfig(eta=1e9, max_orders=3)
        _, stats = cluster_orders(clustered_orders(), batch_model, 0.0, config)
        assert stats.merges == 4
        assert len(calls) == stats.merges + 1

    def test_initial_cost_above_eta_merges_nothing(self, batch_model, monkeypatch):
        calls = _count_merge_cost_calls(batch_model, monkeypatch)
        orders = [grid_order(1, 0, 1, prep=600.0), grid_order(2, 35, 34, prep=600.0)]
        batches, stats = cluster_orders(orders, batch_model, 0.0,
                                        BatchingConfig(eta=60.0))
        assert stats.merges == 0 and len(batches) == 2
        assert len(calls) == 1

    def test_pair_distance_pruning_limits_merges(self, batch_model):
        # All restaurants at distinct nodes: a 1-second pruning radius leaves
        # no order-graph edges at all, so no merges can happen.
        orders = [grid_order(1, 0, 6), grid_order(2, 5, 11), grid_order(3, 30, 24),
                  grid_order(4, 35, 29)]
        pruned_cfg = BatchingConfig(eta=1e9, max_pair_distance=1.0)
        pruned, stats = cluster_orders(orders, batch_model, 0.0, pruned_cfg)
        assert stats.merges == 0
        assert len(pruned) == len(orders)


class TestMonotonicity:
    def test_avg_cost_trace_is_monotone(self, batch_model):
        orders = clustered_orders()
        _, stats = cluster_orders(orders, batch_model, 0.0, BatchingConfig(eta=1e9))
        trace = stats.avg_cost_trace
        assert all(later >= earlier - 1e-9
                   for earlier, later in zip(trace, trace[1:], strict=False))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_avg_cost_monotone_on_random_instances(self, batch_model, seed, count):
        rng = random.Random(seed)
        nodes = list(range(36))
        orders = [grid_order(i, rng.choice(nodes), rng.choice(nodes),
                             prep=rng.uniform(0, 600))
                  for i in range(count)]
        _, stats = cluster_orders(orders, batch_model, 0.0, BatchingConfig(eta=1e9))
        trace = stats.avg_cost_trace
        assert all(later >= earlier - 1e-6
                   for earlier, later in zip(trace, trace[1:], strict=False))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_partition_property_on_random_instances(self, batch_model, seed):
        rng = random.Random(seed)
        nodes = list(range(36))
        orders = [grid_order(i, rng.choice(nodes), rng.choice(nodes))
                  for i in range(rng.randint(1, 9))]
        batches, _ = cluster_orders(orders, batch_model, 0.0)
        seen = sorted(o.order_id for b in batches for o in b.orders)
        assert seen == sorted(o.order_id for o in orders)
        assert all(b.size <= 3 for b in batches)


class TestBatchQuality:
    def test_nearby_orders_batched_before_distant_ones(self, batch_model):
        near_a = grid_order(1, 0, 1)
        near_b = grid_order(2, 0, 2)
        far = grid_order(3, 35, 34)
        config = BatchingConfig(eta=200.0, max_orders=2)
        batches, _ = cluster_orders([near_a, near_b, far], batch_model, 0.0, config)
        by_size = sorted(batches, key=lambda b: b.size, reverse=True)
        assert by_size[0].order_ids == (1, 2)

    def test_stats_bookkeeping(self, batch_model):
        orders = clustered_orders()
        batches, stats = cluster_orders(orders, batch_model, 0.0, BatchingConfig(eta=600.0))
        assert stats.initial_batches == len(orders)
        assert stats.final_batches == len(batches)
        assert stats.merges == len(orders) - len(batches)
