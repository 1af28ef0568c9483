"""Exactness tests for the engine's window hot path.

:class:`~repro.sim.advance.PathWalker`, the engine's array-metered vehicle
walker, must move a vehicle exactly as the per-edge loop below does — one
``edge_time`` call, one haversine and one ``record_leg`` per edge.  The
property test drives both over random paths, clocks and window boundaries
(including congestion-slot crossings, where the multiplier changes
mid-walk).  The SDTs the engine prefetches for a window's arrivals must be
the per-order point queries' bit for bit.  Whole runs are pinned by their
fingerprints (:class:`TestEngineCorpus`), and the result's cache counters
are checked.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.foodmatch import FoodMatchPolicy
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import random_geometric_city
from repro.network.geometry import haversine_distance
from repro.network.graph import TimeProfile
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.sim.advance import PathWalker
from repro.sim.engine import SimulationConfig, simulate
from repro.workload.city import CITY_PROFILES
from repro.workload.generator import generate_scenario

from repro.experiments.executor import result_fingerprint


def walk_per_edge(oracle: DistanceOracle, vehicle: Vehicle, dest: int,
                  clock: float, until: float) -> float:
    """:meth:`PathWalker.walk`, one edge at a time: the oracle it must match."""
    network = oracle.network
    path = oracle.path_or_none(vehicle.node, dest, clock)
    if path is None:
        # Severed off: wait in place for the road to reopen.
        return until
    for u, v in zip(path, path[1:], strict=False):
        if clock >= until:
            break
        travel = network.edge_time(u, v, clock)
        km = haversine_distance(network.coord(u), network.coord(v))
        vehicle.record_leg(km)
        clock += travel
        vehicle.node = v
    return clock


def _city(seed: int):
    network = random_geometric_city(num_nodes=60, seed=seed)
    # A peaked profile so walks that cross hour boundaries change multiplier.
    network.profile = TimeProfile.urban_peaks()
    return network


@functools.cache
def _walk_fixture(net_seed: int):
    """(walker, its oracle, nodes) over one random peaked city."""
    network = _city(net_seed)
    oracle = DistanceOracle(network)
    return PathWalker(oracle), oracle, network.nodes


def _vehicle_state(vehicle: Vehicle):
    return (vehicle.node, vehicle.distance_travelled_km,
            tuple(sorted(vehicle.km_by_load.items())))


class TestVectorizedAdvancement:
    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_the_per_edge_loop(self, seed):
        rng = random.Random(seed)
        walker, oracle, nodes = _walk_fixture(seed % 5)
        for _ in range(4):
            source, dest = rng.choice(nodes), rng.choice(nodes)
            # Clocks near hour boundaries exercise mid-walk slot changes.
            clock = rng.choice([rng.uniform(0, 86_000),
                                rng.randrange(1, 24) * 3600.0 - rng.uniform(0, 120)])
            until = clock + rng.choice([0.0, 5.0, 60.0, 600.0, 4000.0])
            vec = Vehicle(vehicle_id=1, node=source)
            ref = Vehicle(vehicle_id=2, node=source)
            clock_vec = walker.walk(vec, dest, clock, until)
            clock_ref = walk_per_edge(oracle, ref, dest, clock, until)
            assert clock_vec == clock_ref
            assert _vehicle_state(vec) == _vehicle_state(ref)

    def test_segment_cache_invalidated_on_mutation(self):
        network = _city(1)
        oracle = DistanceOracle(network)
        walker = PathWalker(oracle)
        nodes = network.nodes
        source, dest = nodes[0], nodes[-1]
        _, times_before, _ = walker.segments(source, dest)
        edges = list(network.edges())
        u, v, _ = edges[0]
        oracle.apply_traffic_updates({(u, v): 4.0})
        _, times_after, _ = walker.segments(source, dest)
        # The cached arrays were rebuilt against the patched weights (the
        # path itself may or may not change; the times must be re-read).
        assert walker._epoch == network.mutation_epoch
        assert times_after is not times_before


class TestSdtPrefetch:
    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_prefetched_sdt_equals_the_point_query(self, seed):
        rng = random.Random(seed)
        _, oracle, nodes = _walk_fixture(seed % 5)
        # Placement times across the day: each SDT is scaled by the
        # congestion multiplier of its own slot.
        orders = [Order(order_id=i, restaurant_node=rng.choice(nodes),
                        customer_node=rng.choice(nodes),
                        placed_at=rng.uniform(0.0, 86_000.0), items=1,
                        prep_time=rng.uniform(60.0, 900.0))
                  for i in range(rng.randrange(1, 12))]
        prefetched = CostModel(oracle)
        prefetched.prefetch_sdt(orders)
        queried = CostModel(oracle)
        assert ([prefetched.sdt(order) for order in orders]
                == [queried.sdt(order) for order in orders])


class TestRecordLegs:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50, deadline=None)
    def test_record_legs_equals_scalar_loop(self, seed):
        rng = random.Random(seed)
        kms = [rng.uniform(0.0, 3.0) * 10 ** rng.randrange(-3, 3)
               for _ in range(rng.randrange(0, 20))]
        bulk = Vehicle(vehicle_id=1, node=0)
        loop = Vehicle(vehicle_id=2, node=0)
        start = rng.uniform(0.0, 500.0)
        bulk.distance_travelled_km = loop.distance_travelled_km = start
        bulk.record_legs(kms)
        for km in kms:
            loop.record_leg(km)
        assert bulk.distance_travelled_km == loop.distance_travelled_km
        assert bulk.km_by_load == loop.km_by_load


class TestEngineCorpus:
    """FoodMatch on CityA x0.5, seed 5, 12-13 h, delta = 120 s (31 orders).

    The prefixes were recorded while the engine still had its per-edge
    window path (un-prefetched SDTs, the per-edge walker, the sequential
    FoodGraph builder), which produced the same fingerprints.  Heavy traffic
    moves the fingerprint, so the traffic case checks the walker on
    re-weighted roads too (light traffic leaves this hour's fingerprint
    unmoved, so it is not the case here).
    """

    @pytest.mark.parametrize("traffic,fleet,prefix", [
        ("none", "none", "7622120304a0"),
        ("heavy", "none", "ec7da12f6210"),
        ("none", "full", "2deeeaa719bd"),
    ])
    def test_fingerprint_is_pinned(self, traffic, fleet, prefix):
        scenario = generate_scenario(CITY_PROFILES["CityA"].scaled(0.5), seed=5,
                                     start_hour=12, end_hour=13,
                                     traffic=traffic, fleet=fleet)
        cost_model = CostModel(DistanceOracle(scenario.network))
        config = SimulationConfig(delta=120.0, start=12 * 3600.0,
                                  end=13 * 3600.0)
        result = simulate(scenario, FoodMatchPolicy(cost_model), cost_model,
                          config)
        assert result_fingerprint(result)[:12] == prefix


class TestCacheStatsSurfacing:
    def test_result_carries_cache_counters(self):
        profile = CITY_PROFILES["CityA"].scaled(0.08)
        scenario = generate_scenario(profile, seed=2, start_hour=12, end_hour=13)
        oracle = DistanceOracle(scenario.network)
        cost_model = CostModel(oracle)
        result = simulate(scenario, FoodMatchPolicy(cost_model), cost_model,
                          SimulationConfig(delta=120.0, start=12 * 3600.0,
                                           end=13 * 3600.0))
        assert set(result.cache_stats) == {"point", "path", "sssp", "hub_labels"}
        for name, stats in result.cache_stats.items():
            if name == "hub_labels":
                assert set(stats) == {"entries", "bytes", "pending"}
                assert stats["entries"] > 0 and stats["bytes"] > 0
                assert stats["pending"] == 0
                continue
            assert set(stats) == {"hits", "misses", "size", "capacity"}
            assert stats["hits"] >= 0 and stats["misses"] >= 0
        assert result.total_cache_hits() + result.total_cache_misses() > 0
        summary = result.summary()
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0
        assert summary["cache_hits"] == float(result.total_cache_hits())
        assert summary["cache_misses"] == float(result.total_cache_misses())

    def test_counters_are_per_run_not_cumulative(self):
        profile = CITY_PROFILES["CityA"].scaled(0.08)
        scenario = generate_scenario(profile, seed=2, start_hour=12, end_hour=13)
        oracle = DistanceOracle(scenario.network)

        def run_once():
            cost_model = CostModel(oracle)
            return simulate(scenario, FoodMatchPolicy(cost_model), cost_model,
                            SimulationConfig(delta=120.0, start=12 * 3600.0,
                                             end=13 * 3600.0))

        first = run_once()
        second = run_once()
        # A shared oracle accumulates counters across runs; each result must
        # report only its own window of activity (the second, cache-warm run
        # cannot report fewer lookups than zero nor inherit the first run's).
        for name in ("point", "path", "sssp"):
            assert second.cache_stats[name]["hits"] >= 0
            assert second.cache_stats[name]["misses"] >= 0
        total_info = oracle.cache_info()
        for name in ("point", "path", "sssp"):
            assert (first.cache_stats[name]["hits"]
                    + second.cache_stats[name]["hits"]
                    <= total_info[name]["hits"])
