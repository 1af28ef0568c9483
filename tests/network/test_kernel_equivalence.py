"""Property tests: array kernels agree exactly with the pure-Python references.

The CSR Dijkstra variants, the array-backed hub-label index and the batched
oracle APIs must return *identical* distances (within 1e-9) to the original
dict/heap implementations on arbitrary random directed graphs, including
unreachable pairs.  These are the exactness guards for the PR 1 performance
kernels.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network._dict_hub_labels import DictHubLabelIndex
from repro.network.distance_oracle import DistanceOracle, LRUCache
from repro.network.graph import RoadNetwork, TimeProfile
from repro.network.hub_labeling import HubLabelIndex
from repro.network.shortest_path import (
    BestFirstExplorer,
    dijkstra,
    dijkstra_all,
    dijkstra_all_reference,
    dijkstra_all_reverse,
    dijkstra_reference,
)


def random_directed_network(seed: int, max_nodes: int = 25) -> RoadNetwork:
    """A random directed graph — not necessarily connected or symmetric —
    with up to three edges severed by an infinite-weight override."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    net = RoadNetwork(TimeProfile.flat())
    for i in range(n):
        net.add_node(i, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    num_edges = rng.randint(0, 4 * n)
    for _ in range(num_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            net.add_edge(u, v, rng.uniform(0.5, 500.0),
                         multiplier=rng.choice([1.0, 1.0, rng.uniform(0.5, 3.0)]))
    edges = [(u, v) for u, v, _ in net.edges()]
    for u, v in rng.sample(edges, min(len(edges), rng.randint(0, 3))):
        net.set_edge_override(u, v, math.inf)
    return net


def assert_same_distance(fast: float, reference: float) -> None:
    if math.isinf(reference):
        assert math.isinf(fast)
    else:
        assert fast == pytest.approx(reference, rel=1e-9, abs=1e-9)


class TestArrayDijkstraEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_point_to_point_matches_reference(self, seed):
        net = random_directed_network(seed)
        rng = random.Random(seed + 1)
        for _ in range(5):
            s, t = rng.randrange(net.num_nodes), rng.randrange(net.num_nodes)
            assert_same_distance(dijkstra(net, s, t), dijkstra_reference(net, s, t))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_sssp_matches_reference(self, seed):
        net = random_directed_network(seed)
        src = random.Random(seed + 2).randrange(net.num_nodes)
        fast = dijkstra_all(net, src)
        reference = dijkstra_all_reference(net, src)
        assert set(fast) == set(reference)
        for node, expected in reference.items():
            assert fast[node] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_reverse_sssp_matches_forward_on_transpose(self, seed):
        net = random_directed_network(seed)
        target = random.Random(seed + 3).randrange(net.num_nodes)
        reverse = dijkstra_all_reverse(net, target)
        for node, d in reverse.items():
            assert_same_distance(d, dijkstra_reference(net, node, target))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_explorer_settle_costs_match_reference_sssp(self, seed):
        net = random_directed_network(seed)
        src = random.Random(seed + 4).randrange(net.num_nodes)
        settled = dict(iter(BestFirstExplorer(net, src)))
        reference = dijkstra_all_reference(net, src)
        assert set(settled) == set(reference)
        for node, expected in reference.items():
            assert settled[node] == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestHubLabelEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_array_index_matches_dict_index(self, seed):
        net = random_directed_network(seed, max_nodes=18)
        fast = HubLabelIndex(net)
        reference = DictHubLabelIndex(net)
        for s in net.nodes:
            for t in net.nodes:
                assert_same_distance(fast.query(s, t), reference.query(s, t))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_batched_queries_match_single_queries(self, seed):
        net = random_directed_network(seed, max_nodes=18)
        index = HubLabelIndex(net)
        nodes = net.nodes
        rng = random.Random(seed + 5)
        sources = [rng.choice(nodes) for _ in range(30)]
        targets = [rng.choice(nodes) for _ in range(30)]
        paired = index.query_many(sources, targets)
        for value, (s, t) in zip(paired, zip(sources, targets, strict=True),
                                 strict=True):
            assert_same_distance(value, index.query(s, t))
        block = index.query_block(sources[:8], targets[:8])
        for i, s in enumerate(sources[:8]):
            for j, t in enumerate(targets[:8]):
                assert_same_distance(block[i, j], index.query(s, t))


class TestOracleBatchedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_batched_apis_match_point_queries(self, seed):
        net = random_directed_network(seed, max_nodes=15)
        rng = random.Random(seed + 6)
        t = rng.uniform(0.0, 86_400.0)
        for method in ("hub_label", "dijkstra"):
            oracle = DistanceOracle(net, method=method)
            nodes = net.nodes
            sources = [rng.choice(nodes) for _ in range(12)]
            targets = [rng.choice(nodes) for _ in range(12)]
            paired = oracle.distances(sources, targets, t)
            block = oracle.distance_matrix(sources[:5], targets[:5], t)
            for value, (s, tg) in zip(paired, zip(sources, targets, strict=True),
                                      strict=True):
                assert_same_distance(value, oracle.distance(s, tg, t))
            for i, s in enumerate(sources[:5]):
                for j, tg in enumerate(targets[:5]):
                    assert_same_distance(block[i, j], oracle.distance(s, tg, t))


class TestUnknownNodeContract:
    """The array kernels must preserve the dict-based behavior for nodes
    that were never added to the network (no KeyError leaks)."""

    def test_dijkstra_returns_infinity(self, small_grid):
        assert math.isinf(dijkstra(small_grid, 999, 0))
        assert math.isinf(dijkstra(small_grid, 0, 999))

    def test_sssp_settles_only_the_unknown_source(self, small_grid):
        assert dijkstra_all(small_grid, 999) == {999: 0.0}
        assert dijkstra_all_reverse(small_grid, 999) == {999: 0.0}

    def test_explorer_yields_only_the_unknown_source(self, small_grid):
        explorer = BestFirstExplorer(small_grid, 999)
        assert next(explorer) == (999, 0.0)
        with pytest.raises(StopIteration):
            next(explorer)

    def test_dijkstra_oracle_backend_matches_hub_label_backend(self, small_grid):
        for method in ("hub_label", "dijkstra"):
            oracle = DistanceOracle(small_grid, method=method)
            assert math.isinf(oracle.distance(999, 0))

    def test_batched_label_queries_return_infinity(self, small_grid):
        index = HubLabelIndex(small_grid)
        paired = index.query_many([999, 0, 999], [0, 999, 999])
        assert math.isinf(paired[0]) and math.isinf(paired[1])
        assert paired[2] == 0.0  # same unknown id is still a self-pair
        block = index.query_block([999, 0], [0, 999, 888])
        assert math.isinf(block[0, 0]) and math.isinf(block[1, 1])
        # Two *distinct* unknown ids must not alias through the sentinel.
        assert math.isinf(block[0, 2])
        oracle = DistanceOracle(small_grid, method="hub_label")
        assert math.isinf(oracle.distance_matrix([0], [999])[0, 0])
        assert math.isinf(oracle.distances([999], [0])[0])

    def test_query_block_chunking_stays_exact(self):
        from repro.network.generators import grid_city

        net = grid_city(rows=5, cols=5, profile=TimeProfile.flat(), seed=4)
        index = HubLabelIndex(net)
        index._DENSE_BLOCK_ENTRIES = 64  # force many tiny target chunks
        nodes = net.nodes
        block = index.query_block(nodes[:9], nodes[7:])
        for i, s in enumerate(nodes[:9]):
            for j, t in enumerate(nodes[7:]):
                assert_same_distance(block[i, j], index.query(s, t))


class TestLRUCache:
    def test_capacity_is_enforced(self):
        cache = LRUCache(3)
        for i in range(5):
            cache.put(i, i * 10)
        assert len(cache) == 3
        assert 0 not in cache and 1 not in cache
        assert cache.get(4) == 40

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", not the freshly used "a"
        assert "a" in cache and "b" not in cache

    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        cache.reset_counters()
        assert cache.info()["hits"] == 0

    def test_oracle_exposes_cache_info(self, small_grid):
        oracle = DistanceOracle(small_grid, method="hub_label", point_cache_size=8)
        oracle.distance(0, 5, 0.0)
        oracle.distance(0, 5, 0.0)
        info = oracle.cache_info()
        assert info["point"]["hits"] >= 1
        assert info["point"]["capacity"] == 8
        oracle.reset_counters()
        assert oracle.query_count == 0
        assert oracle.cache_info()["point"]["hits"] == 0
