"""Microbenchmark for the PR 1 performance kernels.

Measures the array-backed hot-path kernels against the seed pure-Python
implementations they replaced and writes machine-readable results to
``BENCH_PR1.json`` (repo root by default):

* **hub_label_build** — pruned-landmark-labeling index construction
  (:class:`~repro.network.hub_labeling.HubLabelIndex` on CSR arrays with the
  sampled-betweenness hub order) vs the seed per-node-dict builder.
* **hub_label_query** — 10k static distance queries in the accumulation-
  window block shape (every vehicle x every batch start node), answered by
  the vectorised ``query_block`` kernel vs a seed dict-merge query loop.
* **matching_window** — one sparsified FoodGraph matching window solved on
  the finite-edge subgraph (scipy backend when available) vs the seed dense
  Ω-filled Hungarian.

Run::

    PYTHONPATH=src python benchmarks/bench_kernel.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke  # CI smoke

Exactness is asserted inline: every kernel's results are compared against
the seed implementation before any timing is reported.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import random
import time

import numpy as np
from _bench_utils import REPO_ROOT, graph_info, write_bench_json

import repro.core.matching as matching
from repro.core.matching import (
    MATCHING_BACKEND,
    matching_cost,
    minimum_weight_matching,
    sparse_matching_objective,
    sparse_minimum_weight_matching,
)
from repro.network._dict_hub_labels import DictHubLabelIndex
from repro.network.generators import random_geometric_city
from repro.network.hub_labeling import HubLabelIndex

DEFAULT_OUT = REPO_ROOT / "BENCH_PR1.json"
OMEGA = 7200.0


def _best_time(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_hub_label_build(num_nodes: int, repeats: int) -> dict:
    net = random_geometric_city(num_nodes=num_nodes, seed=7)
    net.csr()
    net.csr(reverse=True)  # charge CSR construction to the first timed build
    new_time = _best_time(lambda: HubLabelIndex(net), repeats)
    seed_time = _best_time(lambda: DictHubLabelIndex(net), repeats)
    return {
        "workload": f"pruned landmark labeling on a {num_nodes}-node geometric city",
        "graph": graph_info(net, HubLabelIndex(net)),
        "new_ops_per_sec": 1.0 / new_time,
        "seed_ops_per_sec": 1.0 / seed_time,
        "speedup": seed_time / new_time,
    }


def bench_hub_label_query(num_nodes: int, num_sources: int, num_targets: int,
                          repeats: int) -> dict:
    net = random_geometric_city(num_nodes=num_nodes, seed=7)
    new = HubLabelIndex(net)
    seed = DictHubLabelIndex(net)
    rng = random.Random(1)
    sources = rng.sample(net.nodes, num_sources)
    targets = rng.sample(net.nodes, num_targets)
    queries = num_sources * num_targets

    block = new.query_block(sources, targets)
    for i, s in enumerate(sources):  # exactness guard before timing
        for j, t in enumerate(targets):
            expected = seed.query(s, t)
            got = block[i, j]
            assert (math.isinf(got) and math.isinf(expected)) or \
                abs(got - expected) <= 1e-9, (s, t, got, expected)

    new_time = _best_time(lambda: new.query_block(sources, targets), repeats)
    seed_time = _best_time(
        lambda: [seed.query(s, t) for s in sources for t in targets], repeats)
    return {
        "workload": (f"{queries} static SP queries, window block shape "
                     f"({num_sources} sources x {num_targets} targets, "
                     f"{num_nodes}-node city)"),
        "graph": graph_info(net, new),
        "new_ops_per_sec": queries / new_time,
        "seed_ops_per_sec": queries / seed_time,
        "speedup": seed_time / new_time,
    }


def bench_matching_window(num_batches: int, num_vehicles: int, degree: int,
                          repeats: int) -> dict:
    rng = random.Random(3)
    rows, cols, weights = [], [], []
    for b in range(num_batches):
        for v in rng.sample(range(num_vehicles), degree):
            rows.append(b)
            cols.append(v)
            weights.append(rng.uniform(30.0, OMEGA * 0.5))
    edges = (np.array(rows), np.array(cols), np.array(weights))
    dense = np.full((num_batches, num_vehicles), OMEGA)
    dense[edges[0], edges[1]] = edges[2]
    dense = dense.tolist()

    def seed_solve():
        # The seed path: dense Ω-filled matrix through the in-repo Hungarian.
        saved = matching._linear_sum_assignment
        matching._linear_sum_assignment = None
        try:
            return minimum_weight_matching(dense)
        finally:
            matching._linear_sum_assignment = saved

    def new_solve():
        return sparse_minimum_weight_matching(num_batches, num_vehicles, *edges, OMEGA)

    smaller = min(num_batches, num_vehicles)
    seed_pairs = [p for p in seed_solve() if dense[p[0]][p[1]] < OMEGA]
    seed_obj = (matching_cost(dense, seed_pairs)
                + OMEGA * (smaller - len(seed_pairs)))
    new_obj = sparse_matching_objective(num_batches, num_vehicles, *edges, OMEGA,
                                        new_solve())
    assert abs(seed_obj - new_obj) <= 1e-6 * max(1.0, abs(seed_obj)), \
        (seed_obj, new_obj)

    new_time = _best_time(new_solve, repeats)
    seed_time = _best_time(seed_solve, max(1, repeats // 2))
    return {
        "workload": (f"one window: {num_batches} batches x {num_vehicles} vehicles, "
                     f"{degree} finite edges per batch (backend: {MATCHING_BACKEND})"),
        "new_ops_per_sec": 1.0 / new_time,
        "seed_ops_per_sec": 1.0 / seed_time,
        "speedup": seed_time / new_time,
    }


def run(smoke: bool = False, out_path: pathlib.Path = DEFAULT_OUT) -> dict:
    if smoke:
        results = {
            "hub_label_build": bench_hub_label_build(num_nodes=120, repeats=2),
            "hub_label_query": bench_hub_label_query(num_nodes=120, num_sources=40,
                                                     num_targets=40, repeats=3),
            "matching_window": bench_matching_window(num_batches=15, num_vehicles=80,
                                                     degree=4, repeats=3),
        }
    else:
        results = {
            "hub_label_build": bench_hub_label_build(num_nodes=400, repeats=3),
            "hub_label_query": bench_hub_label_query(num_nodes=400, num_sources=100,
                                                     num_targets=100, repeats=5),
            "matching_window": bench_matching_window(num_batches=40, num_vehicles=300,
                                                     degree=5, repeats=5),
        }
    return write_bench_json(
        out_path, "PR1 array-backed distance kernel + sparse-aware matching",
        smoke, results, matching_backend=MATCHING_BACKEND)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast workloads for CI")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write the JSON results")
    args = parser.parse_args()
    payload = run(smoke=args.smoke, out_path=args.out)
    for name, result in payload["kernels"].items():
        print(f"{name}: {result['speedup']:.1f}x "
              f"({result['new_ops_per_sec']:.1f} vs {result['seed_ops_per_sec']:.1f} ops/s) "
              f"— {result['workload']}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
