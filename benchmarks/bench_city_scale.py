"""City-scale benchmark for the PR 6 kernels (``BENCH_PR6.json``).

Measures the three PR 6 kernels on a metro-grid city (50k+ nodes in full
mode, a 5k-node grid for the CI smoke gate):

* **hub_label_build** — contraction-ordered hierarchy build
  (:class:`~repro.network.hub_labeling.HubLabelIndex` with
  ``order_strategy="contraction"``: simulated CH contraction plus the
  top-down pruned label derivation) vs the PR 5 sampled-betweenness
  ordering with the pruned-Dijkstra builder.
* **pruned_repair** — a localised multi-edge incident applied through
  :meth:`DistanceOracle.apply_traffic_updates` (exact affected sets +
  pruned label repair) vs a from-scratch index rebuild, plus the
  post-repair batched-query latency relative to a fresh build.
* **shared_memory** — N concurrently attached workers reading one
  :func:`~repro.network.shared.pack_network` segment vs N workers
  materialising private copies; reports summed proportional-set-size
  (PSS) deltas from ``/proc/self/smaps_rollup``, which split shared pages
  across mappers — the honest "memory per extra worker" figure.

Exactness is asserted before any timing: the contraction index is checked
against Dijkstra ground truth, repaired labels against a from-scratch
rebuild, and every shared-memory worker's query block against the owner's.

PR 10 adds a ``--kernel-tier`` mode (``BENCH_PR10.json``): the same metro
grid grown past 100k nodes (``--nodes 120k``), timing the contraction
build, bounded-Dijkstra witness throughput, incremental repair,
``query_block`` and explorer window throughput once per available kernel
backend (python always; numba when importable).  Cross-backend
``result_fingerprint`` identity is asserted before every timer; on a
numba-less host the numba series is recorded as ``null`` rather than
faked.

Run::

    PYTHONPATH=src python benchmarks/bench_city_scale.py          # full, 50k+
    PYTHONPATH=src python benchmarks/bench_city_scale.py --smoke  # CI, 5k
    PYTHONPATH=src python benchmarks/bench_city_scale.py --kernel-tier \
        --nodes 120k                                              # BENCH_PR10
"""

from __future__ import annotations

import argparse
import itertools
import math
import multiprocessing
import os
import pathlib
import pickle
import random
import time

from _bench_utils import REPO_ROOT, graph_info, write_bench_json

from repro.network import kernels
from repro.network.distance_oracle import DistanceOracle, _changed_nodes
from repro.network.generators import metro_grid
from repro.network.graph import TimeProfile
from repro.network.hub_labeling import HubLabelIndex
from repro.network.shared import attach_network, pack_network
from repro.network.shortest_path import (
    BestFirstExplorer,
    _csr_dijkstra_all,
    dijkstra_all,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_PR6.json"
KERNEL_TIER_OUT = REPO_ROOT / "BENCH_PR10.json"
INFINITY = math.inf


def _metro(rows: int, cols: int):
    # Flat profile so hub-label distances equal dijkstra_all(..., t=0.0)
    # ground truth without a multiplier.
    return metro_grid(rows=rows, cols=cols, profile=TimeProfile.flat(), seed=6)


def _best_time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_close(got: float, want: float, context) -> None:
    assert (math.isinf(got) and math.isinf(want)) or \
        abs(got - want) <= 1e-9 * max(1.0, abs(want)), (context, got, want)


def bench_hub_label_build(rows: int, cols: int, repeats: int) -> dict:
    network = _metro(rows, cols)
    network.csr()
    network.csr(reverse=True)  # charge CSR assembly to neither timed build
    contraction = HubLabelIndex(network, order_strategy="contraction")

    # Exactness before timing: sampled Dijkstra ground truth.
    rng = random.Random(0)
    for source in rng.sample(network.nodes, 3):
        truth = dijkstra_all(network, source, t=0.0)
        for target in rng.sample(network.nodes, 80):
            _assert_close(contraction.query(source, target),
                          truth.get(target, math.inf), (source, target))

    new_time = _best_time(
        lambda: HubLabelIndex(network, order_strategy="contraction"), repeats)
    seed_time = _best_time(
        lambda: HubLabelIndex(network, order_strategy="betweenness"), repeats)
    betweenness = HubLabelIndex(network, order_strategy="betweenness")
    return {
        "workload": (f"hub-label build on a {network.num_nodes}-node metro grid: "
                     f"contraction hierarchy vs PR 5 sampled-betweenness order"),
        "graph": graph_info(network, contraction),
        "betweenness_label_entries": betweenness.total_label_entries,
        "new_ops_per_sec": 1.0 / new_time,
        "seed_ops_per_sec": 1.0 / seed_time,
        "speedup": seed_time / new_time,
    }


def _localized_incident(network, rng: random.Random, num_edges: int,
                        probes: int, factor: float) -> dict:
    """A multi-edge incident whose affected-node fan-out stays small.

    Probes random edges with one before/after SSSP pair per endpoint (the
    exact affected-set derivation the oracle uses) and keeps the
    ``num_edges`` with the smallest fan-out — the side-street incident the
    incremental repair path is built for.  Grid arterials fan out to
    thousands of nodes; side streets to a handful.
    """
    csr = network.csr()
    rcsr = network.csr(reverse=True)
    index_of = csr.index_of
    edges = [(u, v) for u, v, _ in network.edges()]
    scored = []
    for u, v in rng.sample(edges, min(probes, len(edges))):
        head, tail = index_of[v], index_of[u]
        old_to_head = _csr_dijkstra_all(rcsr, head)
        old_from_tail = _csr_dijkstra_all(csr, tail)
        network.set_edge_override(u, v, factor)
        fanout = (len(_changed_nodes(old_to_head, _csr_dijkstra_all(rcsr, head)))
                  + len(_changed_nodes(old_from_tail, _csr_dijkstra_all(csr, tail))))
        network.set_edge_override(u, v, 1.0)
        scored.append((fanout, (u, v)))
    scored.sort()
    return {edge: factor for _, edge in scored[:num_edges]}


def bench_pruned_repair(rows: int, cols: int, repeats: int,
                        num_edges: int) -> dict:
    network = _metro(rows, cols)
    index = HubLabelIndex(network)
    rng = random.Random(4)
    changes = _localized_incident(network, rng, num_edges=num_edges,
                                  probes=48, factor=2.5)
    nodes = network.nodes
    sources = rng.sample(nodes, 40)
    targets = rng.sample(nodes, 40)
    pair_s = [s for s in sources for _ in targets]
    pair_t = [t for _ in sources for t in targets]

    # Exactness before timing: repaired labels == from-scratch rebuild.
    oracle = DistanceOracle(network, hub_index=index)
    stats = oracle.apply_traffic_updates(dict(changes))
    assert stats.strategy == "repair", stats
    rebuilt = HubLabelIndex(network)  # overrides applied -> post-incident truth
    repaired_block = oracle.hub_index.query_many(pair_s, pair_t)
    rebuilt_block = rebuilt.query_many(pair_s, pair_t)
    for got, want, s, t in zip(repaired_block, rebuilt_block, pair_s, pair_t):
        _assert_close(got, want, (s, t))

    # Post-repair batched-query latency vs the pristine fresh build (the
    # acceptance bound: repaired labels must stay within 1.5x).
    repaired_query = _best_time(
        lambda: oracle.hub_index.query_many(pair_s, pair_t), 5)
    oracle.reset_traffic_state()
    fresh_query = _best_time(lambda: index.query_many(pair_s, pair_t), 5)
    ratio = repaired_query / fresh_query
    assert ratio <= 1.5, f"post-repair query latency {ratio:.2f}x fresh build"

    repair_time = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        stats = oracle.apply_traffic_updates(dict(changes))
        oracle.refresh()  # the repair runs at the oracle's next read
        repair_time = min(repair_time, time.perf_counter() - start)
        assert stats.strategy == "repair", stats
        oracle.reset_traffic_state()  # O(1) snapshot restore between repeats

    for edge, factor in changes.items():
        network.set_edge_override(*edge, factor)
    rebuild_time = _best_time(lambda: HubLabelIndex(network), repeats)
    for edge in changes:
        network.set_edge_override(*edge, 1.0)

    return {
        "workload": (f"localised {len(changes)}-edge incident (2.5x) on a "
                     f"{network.num_nodes}-node metro grid, "
                     f"{stats.affected_sources}+{stats.affected_targets} "
                     f"affected labels; scoped repair vs full rebuild"),
        "graph": graph_info(network, index),
        "affected_sources": stats.affected_sources,
        "affected_targets": stats.affected_targets,
        "post_repair_query_ratio": ratio,
        "new_ops_per_sec": 1.0 / repair_time,
        "seed_ops_per_sec": 1.0 / rebuild_time,
        "speedup": rebuild_time / repair_time,
    }


def _pss_bytes() -> int:
    with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    return 0


def _shm_worker(mode: str, payload, sources, targets, expected,
                barrier, queue) -> None:
    import numpy as np
    # Workers are spawned, not forked: a forked child COW-copies parent
    # pages just by touching inherited refcounts, which buries the
    # segment-sized signal under megabytes of noise.  A spawned worker owns
    # only its interpreter, and the baseline below excludes even that.
    barrier.wait()
    before = _pss_bytes()
    if mode == "shared":
        _, attached_index = attach_network(payload)
        got = attached_index.query_block(sources, targets)
    else:
        _, copied_index = pickle.loads(payload)
        got = copied_index.query_block(sources, targets)
    assert np.array_equal(got, expected)  # exactness in every worker
    barrier.wait()  # all workers mapped concurrently: PSS splits shared pages
    queue.put(_pss_bytes() - before)
    barrier.wait()  # hold the mapping until every sibling has measured


def _measure_workers(mode: str, payload, sources, targets, expected,
                     jobs: int) -> int:
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(jobs + 1)
    queue = ctx.Queue()
    workers = [ctx.Process(target=_shm_worker,
                           args=(mode, payload, sources, targets, expected,
                                 barrier, queue))
               for _ in range(jobs)]
    for worker in workers:
        worker.start()
    barrier.wait()  # all alive: baselines are stable
    barrier.wait()  # all mapped and measured
    total = sum(queue.get() for _ in workers)
    barrier.wait()
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0, f"{mode} worker failed"
    return total


def bench_shared_memory(rows: int, cols: int,
                        jobs_list: tuple[int, ...] = (1, 2, 4)) -> dict:
    network = _metro(rows, cols)
    index = HubLabelIndex(network)
    rng = random.Random(8)
    sources = rng.sample(network.nodes, 30)
    targets = rng.sample(network.nodes, 30)
    expected = index.query_block(sources, targets)
    blob = pickle.dumps((network, index))

    pack = pack_network(network, index)
    per_jobs = {}
    try:
        for jobs in jobs_list:
            shared = _measure_workers("shared", pack.name, sources, targets,
                                      expected, jobs)
            copied = _measure_workers("copied", blob, sources, targets,
                                      expected, jobs)
            per_jobs[str(jobs)] = {
                "shared_pss_delta_bytes": shared,
                "copied_pss_delta_bytes": copied,
            }
        segment_bytes = pack.size
    finally:
        pack.dispose()

    low, high = str(jobs_list[0]), str(jobs_list[-1])
    shared_scaling = (per_jobs[high]["shared_pss_delta_bytes"]
                      / max(1, per_jobs[low]["shared_pss_delta_bytes"]))
    memory_ratio = (per_jobs[high]["copied_pss_delta_bytes"]
                    / max(1, per_jobs[high]["shared_pss_delta_bytes"]))
    return {
        "workload": (f"{jobs_list[-1]} workers attaching one shared segment vs "
                     f"private per-worker copies "
                     f"({network.num_nodes}-node metro grid)"),
        "graph": graph_info(network, index),
        "segment_bytes": segment_bytes,
        "per_jobs": per_jobs,
        # Total worker memory growing sublinearly in N is the point of the
        # shared segment: shared pages divide across mappers, copies do not.
        "shared_scaling": shared_scaling,
        "memory_ratio": memory_ratio,
        # Speedup here is a memory ratio, kept under the common key so the
        # bench report loop prints something meaningful.
        "new_ops_per_sec": 1.0,
        "seed_ops_per_sec": 1.0 / max(memory_ratio, 1e-9),
        "speedup": memory_ratio,
    }


# --------------------------------------------------------------------------- #
# PR 10 kernel tier: python-vs-numba backend series (BENCH_PR10.json)
# --------------------------------------------------------------------------- #

def _parse_nodes(text: str) -> int:
    t = text.strip().lower()
    return int(float(t[:-1]) * 1000) if t.endswith("k") else int(t)


def _available_backends() -> list[str]:
    """python always; numba only when ``auto`` actually resolves to it."""
    resolved = kernels.set_kernel_backend("auto")
    return ["python", "numba"] if resolved == "numba" else ["python"]


def _assert_identical(fingerprints: dict[str, str], context: str) -> None:
    values = set(fingerprints.values())
    assert len(values) <= 1, \
        f"{context}: cross-backend fingerprint mismatch across {sorted(fingerprints)}"


def _series(seconds: dict[str, float], units: int = 1) -> dict:
    """Per-backend timing block with the numba-vs-python speedup (or null)."""
    py = seconds["python"]
    nb = seconds.get("numba")
    return {
        "python_seconds": py,
        "numba_seconds": nb,
        "python_ops_per_sec": units / py,
        "numba_ops_per_sec": (units / nb) if nb else None,
        "speedup": (py / nb) if nb else None,
    }


def _adjacency_maps(network):
    """The contraction loop's initial adjacency dicts (see ``_contract``)."""
    csr = network.csr()
    n = csr.num_nodes
    indptr, indices, weights = csr.indptr_list, csr.indices_list, csr.weights_list
    adj_out: list[dict[int, float]] = [{} for _ in range(n)]
    adj_in: list[dict[int, float]] = [{} for _ in range(n)]
    for u in range(n):
        for j in range(indptr[u], indptr[u + 1]):
            v, w = indices[j], weights[j]
            if v == u or w == INFINITY:
                continue
            old = adj_out[u].get(v)
            if old is None or w < old:
                adj_out[u][v] = w
                adj_in[v][u] = w
    return adj_out, adj_in


def _witness_calls(adj_out, adj_in, samples: int, rng: random.Random):
    """Sampled witness-search invocations in the exact ``_contract`` shape."""
    calls = []
    candidates = rng.sample(range(len(adj_out)), min(4 * samples, len(adj_out)))
    for u in candidates:
        in_nbrs = sorted(adj_in[u].items())
        out_nbrs = sorted(adj_out[u].items())
        if not in_nbrs or not out_nbrs:
            continue
        a, wa = in_nbrs[0]
        tgt_nodes, tgt_vias = [], []
        for b, wb in out_nbrs:
            if b != a:
                tgt_nodes.append(b)
                tgt_vias.append(wa + wb)
        if not tgt_nodes:
            continue
        calls.append((a, u, tgt_nodes, tgt_vias, max(tgt_vias) + 1e-12))
        if len(calls) >= samples:
            break
    return calls


def bench_kernel_tier(num_nodes: int, repeats: int,
                      min_build_speedup: float = 0.0,
                      min_witness_speedup: float = 0.0) -> dict:
    side = max(2, round(math.sqrt(num_nodes)))
    network = _metro(side, side)
    network.csr()
    network.csr(reverse=True)
    backends = _available_backends()
    rng = random.Random(10)
    all_nodes = network.nodes
    results: dict[str, dict] = {}

    def measure(name, workload, fingerprint_fn, timed_fn, units=1):
        """Fingerprint every backend, assert identity, THEN time each."""
        prints = {}
        for backend in backends:
            kernels.set_kernel_backend(backend)
            prints[backend] = fingerprint_fn()
        _assert_identical(prints, name)
        seconds = {}
        for backend in backends:
            kernels.set_kernel_backend(backend)
            seconds[backend] = _best_time(timed_fn, repeats)
        results[name] = {
            "workload": workload,
            "fingerprint_identical": True,
            **_series(seconds, units),
        }

    # --- contraction-ordered build -------------------------------------- #
    q_src = rng.sample(all_nodes, 100)
    q_tgt = rng.sample(all_nodes, 100)
    built: dict[str, HubLabelIndex] = {}

    def build_fingerprint():
        index = HubLabelIndex(network, order_strategy="contraction")
        built[kernels.kernel_backend()] = index
        return repr((index.total_label_entries, index.hub_order[:50],
                     index.query_many(q_src, q_tgt).tolist()))

    measure("contraction_build",
            f"contraction-ordered hub-label build, {network.num_nodes}-node "
            f"metro grid",
            build_fingerprint,
            lambda: HubLabelIndex(network, order_strategy="contraction"))

    # --- bounded-Dijkstra witness throughput ---------------------------- #
    adj_out, adj_in = _adjacency_maps(network)
    calls = _witness_calls(adj_out, adj_in, samples=3000, rng=rng)
    n = network.num_nodes

    def witness_pass():
        ws = kernels.contraction_workspace(n, adj_out)
        return [ws.witness(a, u, tgts, vias, cutoff, 100)
                for a, u, tgts, vias, cutoff in calls]

    measure("witness_search",
            f"{len(calls)} bounded witness Dijkstras (settle cap 100) on the "
            f"uncontracted adjacency",
            lambda: repr(witness_pass()),
            witness_pass, units=len(calls))

    # --- batched query_block -------------------------------------------- #
    blk_src = rng.sample(all_nodes, 200)
    blk_tgt = rng.sample(all_nodes, 200)

    measure("query_block",
            "200x200 query_block on the built index",
            lambda: repr(built[kernels.kernel_backend()]
                         .query_block(blk_src, blk_tgt).tolist()),
            lambda: built[kernels.kernel_backend()].query_block(blk_src, blk_tgt))

    # --- explorer window throughput ------------------------------------- #
    window_srcs = rng.sample(all_nodes, 64)

    def window_pass():
        return [list(itertools.islice(BestFirstExplorer(network, src), 64))
                for src in window_srcs]

    measure("window_throughput",
            f"{len(window_srcs)} best-first vehicle-search windows "
            f"(64 settles each)",
            lambda: repr(window_pass()),
            window_pass, units=len(window_srcs))

    # --- incremental repair ---------------------------------------------- #
    changes = _localized_incident(network, rng, num_edges=3, probes=16,
                                  factor=2.5)
    csr = network.csr()
    rcsr = network.csr(reverse=True)
    index_of = csr.index_of
    affected_out: set[int] = set()
    affected_in: set[int] = set()
    node_ids = csr.node_ids
    for (u, v), factor in changes.items():
        head, tail = index_of[v], index_of[u]
        old_to_head = _csr_dijkstra_all(rcsr, head)
        old_from_tail = _csr_dijkstra_all(csr, tail)
        network.set_edge_override(u, v, factor)
        affected_out |= {node_ids[i] for i in _changed_nodes(
            old_to_head, _csr_dijkstra_all(rcsr, head))}
        affected_in |= {node_ids[i] for i in _changed_nodes(
            old_from_tail, _csr_dijkstra_all(csr, tail))}

    def repair_fingerprint():
        index = built[kernels.kernel_backend()]
        index.repair(affected_out, affected_in)
        return repr(index.query_many(q_src, q_tgt).tolist())

    measure("pruned_repair",
            f"{len(changes)}-edge localised incident, "
            f"{len(affected_out)}+{len(affected_in)} affected labels",
            repair_fingerprint,
            lambda: built[kernels.kernel_backend()].repair(affected_out,
                                                           affected_in))
    for edge in changes:
        network.set_edge_override(*edge, 1.0)

    # Gate (CI smoke): the whole point of the compiled tier.
    if "numba" in backends:
        build_speedup = results["contraction_build"]["speedup"]
        witness_speedup = results["witness_search"]["speedup"]
        assert build_speedup >= min_build_speedup, \
            f"build speedup {build_speedup:.2f}x < {min_build_speedup}x gate"
        assert witness_speedup >= min_witness_speedup, \
            f"witness speedup {witness_speedup:.2f}x < {min_witness_speedup}x gate"

    kernels.set_kernel_backend("auto")
    return {"network": network, "index": built[backends[-1]],
            "backends": backends, "results": results}


def run_kernel_tier(nodes_text: str, repeats: int, out_path: pathlib.Path,
                    min_build_speedup: float,
                    min_witness_speedup: float) -> dict:
    num_nodes = _parse_nodes(nodes_text)
    tier = bench_kernel_tier(num_nodes, repeats,
                             min_build_speedup=min_build_speedup,
                             min_witness_speedup=min_witness_speedup)
    return write_bench_json(
        out_path,
        "PR10 compiled kernel tier: optional-JIT Dijkstra/witness/merge-join "
        "inner loops, python-vs-numba series on a metro grid",
        num_nodes < 100_000, tier["results"],
        network=tier["network"], index=tier["index"],
        kernel_backends=tier["backends"])


def run(smoke: bool = False, out_path: pathlib.Path = DEFAULT_OUT) -> dict:
    if smoke:
        results = {
            "hub_label_build": bench_hub_label_build(rows=71, cols=71, repeats=2),
            "pruned_repair": bench_pruned_repair(rows=71, cols=71, repeats=2,
                                                 num_edges=3),
            "shared_memory": bench_shared_memory(rows=50, cols=50),
        }
    else:
        results = {
            "hub_label_build": bench_hub_label_build(rows=226, cols=226, repeats=1),
            "pruned_repair": bench_pruned_repair(rows=226, cols=226, repeats=1,
                                                 num_edges=4),
            "shared_memory": bench_shared_memory(rows=120, cols=120),
        }
    return write_bench_json(
        out_path, "PR6 city-scale kernels: contraction-ordered hub labels, "
        "pruned incremental repair, shared-memory CSR", smoke, results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="5k-node city for CI; full mode runs 50k+ nodes")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="where to write the JSON results")
    parser.add_argument("--kernel-tier", action="store_true",
                        help="run the PR 10 python-vs-numba kernel series "
                             "instead of the PR 6 suite (BENCH_PR10.json)")
    parser.add_argument("--nodes", default="120k", metavar="N",
                        help="kernel-tier grid size, e.g. 120k or 5041 "
                             "(default: 120k)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per kernel (default: 1 full, "
                             "2 under 100k nodes)")
    parser.add_argument("--min-build-speedup", type=float, default=0.0,
                        help="fail unless numba build speedup reaches this "
                             "(CI gate; ignored without numba)")
    parser.add_argument("--min-witness-speedup", type=float, default=0.0,
                        help="fail unless numba witness throughput speedup "
                             "reaches this (CI gate; ignored without numba)")
    args = parser.parse_args()
    if args.kernel_tier:
        out = args.out or KERNEL_TIER_OUT
        repeats = args.repeats or (2 if _parse_nodes(args.nodes) < 100_000
                                   else 1)
        payload = run_kernel_tier(args.nodes, repeats, out,
                                  args.min_build_speedup,
                                  args.min_witness_speedup)
        for name, result in payload["kernels"].items():
            speedup = (f"{result['speedup']:.1f}x numba"
                       if result["speedup"] else "python only")
            print(f"{name}: {speedup} "
                  f"(python {result['python_seconds']:.3f}s) "
                  f"— {result['workload']}")
        print(f"wrote {out}")
        return
    out = args.out or DEFAULT_OUT
    payload = run(smoke=args.smoke, out_path=out)
    for name, result in payload["kernels"].items():
        print(f"{name}: {result['speedup']:.1f}x "
              f"({result['new_ops_per_sec']:.1f} vs {result['seed_ops_per_sec']:.1f} ops/s) "
              f"— {result['workload']}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
