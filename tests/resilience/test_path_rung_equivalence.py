"""Every path rung of :class:`DistanceOracle` answers like its own backend.

One fixed sequence of point, paired and block queries — with repeats, so
both the point cache and the approximate rung's cache serve hits — runs
with the path ladder pinned to each rung in turn:

* the exact rungs answer bit for bit like a ladder-free oracle of the same
  backend (``method="hub_label"`` for ``hub_labels``, ``method="dijkstra"``
  for ``dijkstra``), including a hub-label oracle forced onto its trees;
* the approximate rung answers like a fresh :class:`BoundedHopEstimator`,
  except that a pair already in the point cache comes back exact, and its
  estimates never enter the point cache.

The query, cache and ladder counters are pinned too: folding the rungs into
one query path per shape must not move a single hit, miss or tree search,
and a point query counts its point-cache miss like a paired query does.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.network.approx_paths import BoundedHopEstimator
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import grid_city
from repro.resilience import use_ladders
from repro.resilience.ladder import LadderRegistry

APPROX = "bounded_hop_approx"

#: ``(oracle method, pinned rung)``: each exact rung on its own backend, the
#: tree rung forced onto a hub-label oracle, and the approximate rung over
#: both backends (its shadow samples resolve on the backend's exact rung).
CASES = [
    ("hub_label", "hub_labels"),
    ("dijkstra", "dijkstra"),
    ("hub_label", "dijkstra"),
    ("hub_label", APPROX),
    ("dijkstra", APPROX),
]

#: The counters each case leaves behind, recorded before the rung dispatch
#: was folded into one body per query shape.  On the approximate rung a
#: point query counts a point-cache miss exactly like a paired query does:
#: the five point queries that estimate add five misses.
EXPECTED_COUNTERS = {
    ("hub_label", "hub_labels"): {
        "query_count": 115, "batch_query_count": 7, "sssp_runs": 0,
        "calls": 15, "stretch_samples": 0, "mean_stretch": 1.0,
        "cache": {"point": {"hits": 33, "misses": 13, "size": 12, "capacity": 131072},
                  "path": {"hits": 0, "misses": 0, "size": 0, "capacity": 16384},
                  "sssp": {"hits": 0, "misses": 0, "size": 0, "capacity": 1024}}},
    ("dijkstra", "dijkstra"): {
        "query_count": 115, "batch_query_count": 7, "sssp_runs": 13,
        "calls": 15, "stretch_samples": 0, "mean_stretch": 1.0,
        "cache": {"point": {"hits": 33, "misses": 13, "size": 12, "capacity": 131072},
                  "path": {"hits": 0, "misses": 0, "size": 0, "capacity": 16384},
                  "sssp": {"hits": 14, "misses": 13, "size": 13, "capacity": 1024}}},
    ("hub_label", "dijkstra"): {
        "query_count": 115, "batch_query_count": 7, "sssp_runs": 13,
        "calls": 15, "stretch_samples": 0, "mean_stretch": 1.0,
        "cache": {"point": {"hits": 33, "misses": 13, "size": 12, "capacity": 131072},
                  "path": {"hits": 0, "misses": 0, "size": 0, "capacity": 16384},
                  "sssp": {"hits": 14, "misses": 13, "size": 13, "capacity": 1024}}},
    ("hub_label", APPROX): {
        "query_count": 115, "batch_query_count": 7, "sssp_runs": 0,
        "calls": 15, "stretch_samples": 2, "mean_stretch": 1.0003945096554976,
        "cache": {"point": {"hits": 15, "misses": 31, "size": 5, "capacity": 131072},
                  "path": {"hits": 0, "misses": 0, "size": 0, "capacity": 16384},
                  "sssp": {"hits": 0, "misses": 0, "size": 0, "capacity": 1024},
                  "approx": {"hits": 18, "misses": 8, "size": 7, "capacity": 131072}}},
    ("dijkstra", APPROX): {
        "query_count": 115, "batch_query_count": 7, "sssp_runs": 7,
        "calls": 15, "stretch_samples": 2, "mean_stretch": 1.0003945096554974,
        "cache": {"point": {"hits": 15, "misses": 31, "size": 5, "capacity": 131072},
                  "path": {"hits": 0, "misses": 0, "size": 0, "capacity": 16384},
                  "sssp": {"hits": 0, "misses": 7, "size": 7, "capacity": 1024},
                  "approx": {"hits": 18, "misses": 8, "size": 7, "capacity": 131072}}},
}


@pytest.fixture(scope="module")
def network():
    # More nodes than the approximate rung's settle bound (256), so far
    # pairs fall back to the landmark bound and differ from the exact answer.
    return grid_city(rows=18, cols=18, seed=5)


@pytest.fixture(scope="module")
def queries(network):
    nodes = network.nodes
    rng = random.Random(17)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(12)]
    # Corner to corner: far outside any settle-bounded ball.
    pairs[:3] = [(nodes[0], nodes[-1]), (nodes[-1], nodes[0]),
                 (nodes[17], nodes[-18])]
    primed = pairs[:5]
    return pairs, primed


def prime(oracle, primed, registry):
    """Put exact answers for ``primed`` into the oracle's point cache."""
    with use_ladders(registry):
        oracle.static_distances([s for s, _ in primed], [t for _, t in primed])


def run_queries(oracle, pairs, registry):
    """The fixed sequence; ``(kind, sources, targets, t, answer)`` per query.

    ``t`` is ``None`` for the static (unscaled) entry points.
    """
    src = [s for s, _ in pairs]
    tgt = [t for _, t in pairs]
    out = []
    with use_ladders(registry):
        out.extend(("point", [s], [t], 0.0, oracle.distance(s, t))
                   for s, t in pairs[2:8] + [pairs[6], pairs[1], (src[3], src[3])])
        out.append(("point", [src[9]], [tgt[9]], 45000.0,
                    oracle.distance(src[9], tgt[9], 45000.0)))
        paired_src = src[:11] + [src[4], src[10]]
        paired_tgt = tgt[:11] + [src[4], tgt[10]]
        out.append(("pairs", paired_src, paired_tgt, None,
                    oracle.static_distances(paired_src, paired_tgt)))
        out.append(("pairs", paired_src, paired_tgt, 45000.0,
                    oracle.distances(paired_src, paired_tgt, 45000.0)))
        block_src = src[:4] + [tgt[5]]
        block_tgt = tgt[2:7]
        out.append(("block", block_src, block_tgt, None,
                    oracle.static_distance_matrix(block_src, block_tgt)))
        out.append(("block", block_src, block_tgt, 45000.0,
                    oracle.distance_matrix(block_src, block_tgt, 45000.0)))
        out.append(("pairs", src[4:], tgt[4:], 0.0,
                    oracle.distances(src[4:], tgt[4:])))
        out.append(("block", src[8:], tgt[8:], None,
                    oracle.static_distance_matrix(src[8:], tgt[8:])))
    return out


def exact_rung(method):
    return "hub_labels" if method == "hub_label" else "dijkstra"


def counters(oracle, registry, rung):
    return {"query_count": oracle.query_count,
            "batch_query_count": oracle.batch_query_count,
            "sssp_runs": oracle.sssp_runs,
            "calls": registry.path.calls[rung],
            "stretch_samples": registry.path_stretch_samples,
            "mean_stretch": registry.path_mean_stretch,
            "cache": oracle.cache_info()}


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize(("method", "rung"), CASES)
def test_rung_answers_and_counters(network, queries, method, rung):
    pairs, primed = queries
    oracle = DistanceOracle(network, method=method)
    registry = LadderRegistry(path_start=rung, quality_sample_every=3)
    prime_registry = LadderRegistry(
        path_start=exact_rung(method) if rung == APPROX else rung)
    prime(oracle, primed, prime_registry)
    point_size = oracle.cache_info()["point"]["size"]
    got = run_queries(oracle, pairs, registry)

    if rung != APPROX:
        reference = DistanceOracle(
            network, method="hub_label" if rung == "hub_labels" else "dijkstra")
        prime(reference, primed, None)
        want = run_queries(reference, pairs, None)
        for (_, _, _, _, answer), (_, _, _, _, expected) in zip(got, want,
                                                               strict=True):
            assert_same_bits(answer, expected)
    else:
        exact = DistanceOracle(network, method=method)
        cached = dict(zip(primed, exact.static_distances(
            [s for s, _ in primed], [t for _, t in primed]).tolist(),
            strict=True))
        estimator = BoundedHopEstimator(network)
        assert any(estimator.estimate(s, t) != value
                   for (s, t), value in cached.items())
        for kind, srcs, tgts, t, answer in got:
            scale = 1.0 if t is None else network.profile.multiplier(t)
            if kind == "block":
                expected = np.array([[estimator.estimate(s, tg) for tg in tgts]
                                     for s in srcs]) * scale
            else:
                static = [0.0 if s == tg else cached.get(
                    (s, tg), estimator.estimate(s, tg))
                    for s, tg in zip(srcs, tgts, strict=True)]
                expected = (static[0] * scale if kind == "point"
                            else np.array(static) * scale)
            assert_same_bits(answer, expected)
        # Estimates never enter the point cache.
        assert oracle.cache_info()["point"]["size"] == point_size

    assert counters(oracle, registry, rung) == EXPECTED_COUNTERS[(method, rung)]
