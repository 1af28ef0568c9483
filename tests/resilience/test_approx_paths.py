"""Tests for the approximate shortest-path rung (landmarks + bounded hops).

The degraded contract: estimates are admissible *upper* bounds (stretch
>= 1), exact inside the bounded-Dijkstra ball, and deterministic under a
fixed seed.
"""

import pytest

from repro.network.approx_paths import (
    BoundedHopEstimator,
    LandmarkEstimator,
    path_backend_available,
)
from repro.network.distance_oracle import DistanceOracle


@pytest.fixture(scope="module")
def grid(small_grid):
    return small_grid


@pytest.fixture(scope="module")
def exact(grid):
    oracle = DistanceOracle(grid, method="hub_label")
    return lambda s, t: oracle.distance(s, t)


def sample_pairs(grid, count=60, seed=11):
    import random

    nodes = grid.nodes
    rng = random.Random(seed)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


class TestPathBackendAvailable:
    def test_rungs(self, grid):
        oracle = DistanceOracle(grid, method="hub_label")
        assert path_backend_available("hub_labels", oracle)
        assert path_backend_available("dijkstra", oracle)
        assert path_backend_available("bounded_hop_approx", oracle)
        assert not path_backend_available("teleport", oracle)

    def test_hub_labels_needs_an_index(self, grid):
        oracle = DistanceOracle(grid, method="dijkstra")
        assert not path_backend_available("hub_labels", oracle)
        assert path_backend_available("dijkstra", oracle)


class TestLandmarkEstimator:
    def test_upper_bound_and_stretch(self, grid, exact):
        estimator = LandmarkEstimator(grid, num_landmarks=6, seed=0)
        slack = 1e-9
        for s, t in sample_pairs(grid):
            est = estimator.estimate(s, t)
            true = exact(s, t)
            assert est >= true - slack, (s, t)

    def test_identity_is_zero(self, grid):
        estimator = LandmarkEstimator(grid, num_landmarks=4, seed=0)
        node = grid.nodes[0]
        assert estimator.estimate(node, node) == 0.0

    def test_deterministic_under_seed(self, grid):
        a = LandmarkEstimator(grid, num_landmarks=4, seed=3)
        b = LandmarkEstimator(grid, num_landmarks=4, seed=3)
        assert a.landmarks == b.landmarks


class TestBoundedHopEstimator:
    def test_exact_when_ball_covers_graph(self, grid, exact):
        # max_settled >= node count: every query resolves in the exact
        # near field and the stretch is identically 1.
        estimator = BoundedHopEstimator(grid, max_settled=10_000,
                                        num_landmarks=4, seed=0)
        for s, t in sample_pairs(grid, count=25):
            assert estimator.estimate(s, t) == pytest.approx(exact(s, t))

    def test_admissible_when_ball_is_tiny(self, grid, exact):
        estimator = BoundedHopEstimator(grid, max_settled=4,
                                        num_landmarks=6, seed=0)
        slack = 1e-9
        for s, t in sample_pairs(grid):
            assert estimator.estimate(s, t) >= exact(s, t) - slack

    def test_tree_cache_is_bounded(self, grid):
        estimator = BoundedHopEstimator(grid, max_settled=8,
                                        num_landmarks=2, seed=0,
                                        tree_cache_size=3)
        nodes = grid.nodes
        for s in nodes[:10]:
            estimator.estimate(s, nodes[-1])
        assert len(estimator._trees) == 3

    def test_refresh_after_mutation_sees_new_weights(self, grid):
        estimator = BoundedHopEstimator(grid, max_settled=10_000,
                                        num_landmarks=2, seed=0)
        s, t, _weight = next(iter(grid.edges()))
        before = estimator.estimate(s, t)
        csr = grid.csr()
        # Patch the edge's static weight in place, exactly as the traffic
        # controller does, and confirm the refreshed estimator sees it.
        position = next(j for j in range(csr.indptr_list[csr.index_of[s]],
                                         csr.indptr_list[csr.index_of[s] + 1])
                        if csr.indices_list[j] == csr.index_of[t])
        original = csr.weights_list[position]
        try:
            csr.patch_weight(position, original * 100.0)
            estimator.refresh_after_mutation()
            after = estimator.estimate(s, t)
            assert after >= before
            assert after != pytest.approx(before) or before == 0.0
        finally:
            csr.patch_weight(position, original)
            estimator.refresh_after_mutation()
