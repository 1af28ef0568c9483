"""Array graph kernels: the network hot loops, one python/numpy implementation.

The profile of every city-scale run concentrates in a handful of inner
loops — full/cutoff SSSP, point-to-point and path Dijkstras, bounded
witness Dijkstras during contraction, and the pruned-label sweep of a
build.  This module holds each of them as a standalone kernel over the
flat CSR arrays of :class:`~repro.network.graph.CSRGraph`, extracted
verbatim from :mod:`repro.network.shortest_path` /
:mod:`repro.network.hub_labeling`, whose wrappers keep the historical
names every caller imports.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

import numpy as np

INFINITY = math.inf


def kernel_backend() -> str:
    # Constant provenance stamp: benchmarks/perf/run.py records it per run.
    return "python"


def numba_version() -> str | None:
    """The installed numba version, or ``None`` — without importing numba."""
    try:
        from importlib import metadata
        return metadata.version("numba")
    except Exception:
        return None


# --------------------------------------------------------------------------- #
# Dijkstra family (python references extracted from shortest_path.py)
# --------------------------------------------------------------------------- #
def _sssp(indptr, indices, weights, n, src, cutoff):
    """Reference full/cutoff SSSP (the PR 1 ``_csr_dijkstra_all`` loop,
    returning settle-ordered parallel lists instead of a dict)."""
    dist = [INFINITY] * n
    dist[src] = 0.0
    seen = [False] * n
    nodes: list[int] = []
    dists: list[float] = []
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if seen[node]:
            continue
        if cutoff is not None and d > cutoff:
            break
        seen[node] = True
        nodes.append(node)
        dists.append(d)
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if cutoff is not None and nd > cutoff:
                # Already past the cutoff: it could never settle, so pushing
                # it would be pure heap churn (the PR 10 witness-profile fix).
                continue
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return nodes, dists


def sssp_settled(csr, src: int, cutoff: float | None = None
                 ) -> tuple[list[int], list[float]]:
    """Full/cutoff SSSP over ``csr``; settle-ordered ``(nodes, dists)`` lists.

    ``dict(zip(*sssp_settled(...)))`` reproduces the historical
    ``_csr_dijkstra_all`` mapping exactly (settled nodes are unique and
    dicts preserve insertion order).
    """
    return _sssp(csr.indptr_list, csr.indices_list, csr.weights_list,
                 csr.num_nodes, src, cutoff)


def _p2p(indptr, indices, weights, n, src, dst):
    """Reference point-to-point Dijkstra (``_csr_dijkstra_to_target``)."""
    dist = [INFINITY] * n
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node == dst:
            return d
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return INFINITY


def point_to_point(csr, src: int, dst: int) -> float:
    """Static-weight point-to-point distance over ``csr`` (inf when cut)."""
    return _p2p(csr.indptr_list, csr.indices_list, csr.weights_list,
                csr.num_nodes, src, dst)


def _path(indptr, indices, weights, n, src, dst):
    """Reference Dijkstra with parent tracking (``_csr_shortest_path``)."""
    dist = [INFINITY] * n
    parent = [-1] * n
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node == dst:
            break
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if nd < dist[nbr]:
                dist[nbr] = nd
                parent[nbr] = node
                push(heap, (nd, nbr))
    if dist[dst] == INFINITY:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path_indices(csr, src: int, dst: int) -> list[int] | None:
    """Index path of a shortest ``src -> dst`` route, or ``None`` when cut."""
    return _path(csr.indptr_list, csr.indices_list, csr.weights_list,
                 csr.num_nodes, src, dst)


# --------------------------------------------------------------------------- #
# contraction witness searches
# --------------------------------------------------------------------------- #
class ContractionWorkspace:
    """Reusable witness-search state for one simulated contraction.

    Shares the contraction's ``adj_out`` dict-of-dicts, which the
    contraction updates in place as it inserts shortcuts and removes
    nodes, and replaces the historical per-call ``dist`` dict / ``seen``
    set with stamp-versioned preallocated buffers (same heap tuples and
    ``found`` lists, no per-call allocation).
    """

    def __init__(self, n: int, adj_out: list[dict[int, float]]) -> None:
        self._adj_out = adj_out
        self._stamp = 0
        self._dist = [INFINITY] * n
        self._dstamp = [-1] * n
        self._sstamp = [-1] * n
        #: witness searches run, and nodes they settled
        self.searches = 0
        self.settles = 0

    def witness(self, source: int, banned: int, tgt_nodes: Sequence[int],
                tgt_vias: Sequence[float], cutoff: float,
                settle_cap: int) -> list[bool]:
        """Bounded Dijkstra from ``source`` avoiding ``banned``.

        ``found[i]`` reports whether a witness path to ``tgt_nodes[i]`` no
        longer than ``tgt_vias[i] + 1e-12`` was certified within ``cutoff``
        and ``settle_cap`` settles; unfound targets need a shortcut.

        The search stops, and stops pushing, at the largest
        ``tgt_vias[i] + 1e-12`` among targets not yet found (capped by
        ``cutoff``) instead of at ``cutoff`` itself.  Every pop up to that
        bound is the pop of a search run to ``cutoff`` — a pruned push lies
        past the bound, and the bound never grows — and no later pop can
        satisfy an unfound target's ``d <= via + 1e-12``, so ``found`` is
        the same list, with or without a binding ``settle_cap``; only the
        wasted settles go.
        """
        self.searches += 1
        # Extracted from HubLabelIndex._contract's per-in-neighbour witness
        # Dijkstra (PR 6); per-call dict/set state replaced by the shared
        # stamped buffers.
        adj_out = self._adj_out
        dist = self._dist
        dstamp = self._dstamp
        sstamp = self._sstamp
        self._stamp += 1
        sid = self._stamp
        pos: dict[int, int] = {}
        for i, b in enumerate(tgt_nodes):
            pos[b] = i
        found = [False] * len(tgt_nodes)
        remaining = len(tgt_nodes)
        # No pop past the largest ``via + 1e-12`` of an unfound target can
        # find one, so that (capped by ``cutoff``) ends the search; it only
        # shrinks as targets are found.
        bound = min(cutoff, max(tgt_vias) + 1e-12) if remaining else cutoff
        dist[source] = 0.0
        dstamp[source] = sid
        heap: list[tuple[float, int]] = [(0.0, source)]
        budget = settle_cap
        while heap and remaining and budget:
            d, x = heapq.heappop(heap)
            if sstamp[x] == sid:
                continue
            sstamp[x] = sid
            budget -= 1
            if d > bound:
                break
            i = pos.get(x)
            if i is not None and not found[i] and d <= tgt_vias[i] + 1e-12:
                found[i] = True
                remaining -= 1
                if not remaining:
                    break
                if tgt_vias[i] + 1e-12 >= bound:
                    bound = min(cutoff, max(
                        [v for v, f in zip(tgt_vias, found, strict=True) if not f]) + 1e-12)
            for y, w in adj_out[x].items():
                if y == banned or sstamp[y] == sid:
                    continue
                nd = d + w
                if nd <= bound and (dstamp[y] != sid or nd < dist[y]):
                    dist[y] = nd
                    dstamp[y] = sid
                    heapq.heappush(heap, (nd, y))
        self.settles += settle_cap - budget
        return found


# --------------------------------------------------------------------------- #
# pruned landmark labeling (build)
# --------------------------------------------------------------------------- #
def _pruned_search(csr, hub, rank, search_id, hub_ranks, hub_dists,
                   label_ranks, label_dists, dist, stamp, settled, scratch):
    """One pruned Dijkstra from ``hub`` (extracted ``_pruned_search``).

    On the forward pass (``csr`` = out-edges) the settled nodes extend
    their *in*-labels and pruning consults the hub's *out*-label; the
    backward pass is symmetric.  ``hub_ranks``/``hub_dists`` is the hub's
    own already-built label on the pruning side, scattered into the dense
    ``scratch`` array for O(1) lookups.
    """
    for r, d in zip(hub_ranks, hub_dists, strict=True):
        scratch[r] = d
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    dist[hub] = 0.0
    stamp[hub] = search_id
    heap: list[tuple[float, int]] = [(0.0, hub)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if settled[node] == search_id:
            continue
        settled[node] = search_id
        if node != hub:
            # query(hub, node) via the labels built so far: prune when an
            # earlier hub already certifies a distance <= d.
            best = INFINITY
            for r, dv in zip(label_ranks[node], label_dists[node], strict=True):
                cand = scratch[r] + dv
                if cand < best:
                    best = cand
            if best <= d:
                continue
        label_ranks[node].append(rank)
        label_dists[node].append(d)
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            if settled[nbr] == search_id:
                continue
            nd = d + weights[j]
            if nd == INFINITY:
                # Severed edge (infinite weight): the neighbour is not
                # reachable this way; pushing it would only be popped and
                # pruned later, so skip it outright.
                continue
            if stamp[nbr] != search_id or nd < dist[nbr]:
                dist[nbr] = nd
                stamp[nbr] = search_id
                push(heap, (nd, nbr))
    for r in hub_ranks:
        scratch[r] = INFINITY


def _flatten_labels(ranks, dists):
    """Flatten per-node label lists into CSR-style arrays (with sentinel).

    The returned indptr carries one extra slot past ``num_nodes``: it
    backs the "unknown node" sentinel index, whose empty label range makes
    batched queries touching it resolve to infinity like the scalar path.
    """
    n = len(ranks)
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum([len(lst) for lst in ranks], out=indptr[1:n + 1])
    indptr[n + 1] = indptr[n]
    total = int(indptr[n])
    flat_ranks = np.empty(total, dtype=np.int64)
    flat_dists = np.empty(total, dtype=np.float64)
    pos = 0
    for r_list, d_list in zip(ranks, dists, strict=True):
        nxt = pos + len(r_list)
        flat_ranks[pos:nxt] = r_list
        flat_dists[pos:nxt] = d_list
        pos = nxt
    return indptr, flat_ranks, flat_dists


def pruned_labeling(csr, rcsr, order_idx: Sequence[int]):
    """Build the full 2-hop cover for ``order_idx`` (node indices, rank order).

    Returns ``(out_indptr, out_ranks, out_dists, in_indptr, in_ranks,
    in_dists)`` in the exact flat layout :class:`HubLabelIndex` stores.
    """
    # Extracted from HubLabelIndex._build: one forward and one backward
    # pruned search per hub, over preallocated stamp-versioned buffers.
    n = csr.num_nodes
    out_ranks: list[list[int]] = [[] for _ in range(n)]
    out_dists: list[list[float]] = [[] for _ in range(n)]
    in_ranks: list[list[int]] = [[] for _ in range(n)]
    in_dists: list[list[float]] = [[] for _ in range(n)]
    dist = [INFINITY] * n
    stamp = [-1] * n
    settled = [-1] * n
    scratch = [INFINITY] * n  # dense hub-label scratch, indexed by rank
    for rank, hub in enumerate(order_idx):
        _pruned_search(csr, hub, rank, 2 * rank,
                       out_ranks[hub], out_dists[hub],
                       in_ranks, in_dists,
                       dist, stamp, settled, scratch)
        _pruned_search(rcsr, hub, rank, 2 * rank + 1,
                       in_ranks[hub], in_dists[hub],
                       out_ranks, out_dists,
                       dist, stamp, settled, scratch)
    return (*_flatten_labels(out_ranks, out_dists),
            *_flatten_labels(in_ranks, in_dists))


__all__ = [
    "sssp_settled",
    "point_to_point",
    "shortest_path_indices",
    "ContractionWorkspace",
    "pruned_labeling",
    "INFINITY",
]
