"""Design-choice ablation: hub-label index vs memoised Dijkstra distance oracle.

The paper indexes shortest-path queries with hierarchical hub labels [18];
this ablation quantifies what that buys on the reproduction's networks by
timing a mixed query workload against both oracle backends and checking that
they agree exactly.
"""

import random

import pytest

from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import radial_city
from repro.network.graph import SECONDS_PER_HOUR


@pytest.fixture(scope="module")
def oracle_workload():
    network = radial_city(rings=6, spokes=14, seed=23)
    rng = random.Random(5)
    nodes = network.nodes
    queries = [(rng.choice(nodes), rng.choice(nodes),
                rng.choice([9, 13, 20]) * SECONDS_PER_HOUR)
               for _ in range(3000)]
    return network, queries


def test_ablation_hub_label_oracle(benchmark, oracle_workload):
    network, queries = oracle_workload
    oracle = DistanceOracle(network, method="hub_label")
    oracle.refresh()  # time the queries, not the first read's label build

    def run():
        return [oracle.distance(u, v, t) for u, v, t in queries]

    distances = benchmark(run)
    assert all(d >= 0.0 for d in distances)


def test_ablation_dijkstra_oracle(benchmark, oracle_workload):
    network, queries = oracle_workload
    oracle = DistanceOracle(network, method="dijkstra")

    def run():
        return [oracle.distance(u, v, t) for u, v, t in queries]

    distances = benchmark(run)
    hub = DistanceOracle(network, method="hub_label")
    reference = [hub.distance(u, v, t) for u, v, t in queries]
    # Both backends must agree exactly; only their cost differs.
    for fast, exact in zip(distances, reference, strict=True):
        assert fast == pytest.approx(exact, rel=1e-9, abs=1e-6)
