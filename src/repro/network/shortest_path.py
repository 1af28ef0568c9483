"""Shortest-path primitives on the time-dependent road network.

The paper needs three flavours of search:

* point-to-point quickest path queries ``SP(u, v, t)`` (used everywhere —
  route plans, marginal costs, first/last mile),
* full single-source searches (used to build the hub-label index and the
  workload statistics), and
* *best-first exploration* from a vehicle's location that yields road-network
  nodes in ascending (possibly angular-distance-blended) cost order, which is
  the engine behind the sparsified FoodGraph construction (Alg. 2).

All searches treat the traversal time of an edge as fixed for the duration of
one query at the query timestamp ``t`` (the same simplification the paper
makes inside an accumulation window).

Two implementations coexist:

* **Array kernels** — the default.  They run on the network's cached CSR
  adjacency (:meth:`RoadNetwork.csr`): flat ``indptr``/``indices``/``weights``
  lists with a preallocated distance buffer, no per-node dict lookups and no
  per-edge closure calls.  Because the congestion profile scales every edge
  uniformly within a time slot, the kernels search on static weights and
  scale distances by the slot multiplier once at the end.
* **Reference implementations** (``*_reference``) — the original dict/heap
  code.  They accept arbitrary per-edge ``weight`` callables (needed by the
  angular-distance blend, whose weights are vehicle-specific and cannot be
  expressed as a uniform scaling) and serve as the ground truth for the
  kernel-equivalence property tests.

Public entry points dispatch automatically: a custom ``weight`` routes to the
reference implementation, everything else runs on the array kernels.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator

from repro.network import kernels as _kernels
from repro.network.graph import RoadNetwork

INFINITY = math.inf

WeightFunction = Callable[[int, int], float]


def _edge_weight_fn(network: RoadNetwork, t: float) -> WeightFunction:
    """Return a closure giving ``beta((u, v), t)`` for the query timestamp."""
    return lambda u, v: network.edge_time(u, v, t)


# --------------------------------------------------------------------------- #
# array kernels (CSR, static weights, uniform time-slot scaling)
#
# The loop bodies live in repro.network.kernels; these wrappers keep the
# historical names and signatures every caller imports.
# --------------------------------------------------------------------------- #
def _csr_dijkstra_to_target(csr, src: int, dst: int) -> float:
    """Static-weight point-to-point Dijkstra on flat CSR arrays."""
    return _kernels.point_to_point(csr, src, dst)


def _csr_dijkstra_all(csr, src: int, cutoff: float | None = None) -> dict[int, float]:
    """Static-weight SSSP on flat CSR arrays; returns ``{node_index: dist}``.

    The mapping preserves settle order (the kernel emits settled pairs in
    pop order and dicts keep insertion order), exactly like the historical
    inline dict construction.
    """
    nodes, dists = _kernels.sssp_settled(csr, src, cutoff)
    return dict(zip(nodes, dists, strict=True))


def _csr_shortest_path(csr, src: int, dst: int) -> list[int] | None:
    """Static-weight Dijkstra with parent tracking; returns index path or None."""
    return _kernels.shortest_path_indices(csr, src, dst)


# --------------------------------------------------------------------------- #
# reference implementations (dict/heap, arbitrary weight callables)
# --------------------------------------------------------------------------- #
def dijkstra_reference(network: RoadNetwork, source: int, target: int,
                       t: float = 0.0,
                       weight: WeightFunction | None = None) -> float:
    """Dict-based point-to-point Dijkstra (ground truth / custom weights)."""
    if source == target:
        return 0.0
    weight = weight or _edge_weight_fn(network, t)
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    visited: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        if node == target:
            return d
        visited.add(node)
        for nbr, _ in network.neighbors(node):
            if nbr in visited:
                continue
            nd = d + weight(node, nbr)
            if nd < dist.get(nbr, INFINITY):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return INFINITY


def dijkstra_all_reference(network: RoadNetwork, source: int, t: float = 0.0,
                           weight: WeightFunction | None = None,
                           cutoff: float | None = None) -> dict[int, float]:
    """Dict-based SSSP (ground truth / custom weights)."""
    weight = weight or _edge_weight_fn(network, t)
    dist: dict[int, float] = {source: 0.0}
    final: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in final:
            continue
        if cutoff is not None and d > cutoff:
            break
        final[node] = d
        for nbr, _ in network.neighbors(node):
            if nbr in final:
                continue
            nd = d + weight(node, nbr)
            if nd < dist.get(nbr, INFINITY):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return final


# --------------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------------- #
def dijkstra(network: RoadNetwork, source: int, target: int, t: float = 0.0,
             weight: WeightFunction | None = None) -> float:
    """Quickest-path length ``SP(source, target, t)`` in seconds.

    Returns ``math.inf`` when ``target`` is unreachable.  A custom ``weight``
    function may be supplied (used by tests and by the angular-distance
    machinery); it defaults to the network's time-dependent edge weight.
    """
    if source == target:
        return 0.0
    if weight is not None:
        return dijkstra_reference(network, source, target, t, weight)
    csr = network.csr()
    if source not in csr.index_of or target not in csr.index_of:
        return dijkstra_reference(network, source, target, t)
    static = _csr_dijkstra_to_target(csr, csr.index_of[source], csr.index_of[target])
    return static * network.profile.multiplier(t)


def dijkstra_all(network: RoadNetwork, source: int, t: float = 0.0,
                 weight: WeightFunction | None = None,
                 cutoff: float | None = None) -> dict[int, float]:
    """Single-source quickest-path lengths from ``source`` to every node.

    ``cutoff`` stops the search once the frontier distance exceeds it, which
    keeps workload statistics and index construction cheap on large networks.
    """
    if weight is not None:
        return dijkstra_all_reference(network, source, t, weight, cutoff)
    csr = network.csr()
    if source not in csr.index_of:
        return dijkstra_all_reference(network, source, t, cutoff=cutoff)
    multiplier = network.profile.multiplier(t)
    static_cutoff = None if cutoff is None else cutoff / multiplier
    settled = _csr_dijkstra_all(csr, csr.index_of[source], static_cutoff)
    ids = csr.node_ids
    return {ids[i]: d * multiplier for i, d in settled.items()}


def dijkstra_all_reverse(network: RoadNetwork, target: int, t: float = 0.0,
                         cutoff: float | None = None) -> dict[int, float]:
    """Quickest-path lengths from every node *to* ``target`` (reverse search)."""
    csr = network.csr(reverse=True)
    if target not in csr.index_of:
        # Mirrors the dict-based search from an isolated node: it settles
        # only itself.
        return {target: 0.0}
    multiplier = network.profile.multiplier(t)
    static_cutoff = None if cutoff is None else cutoff / multiplier
    settled = _csr_dijkstra_all(csr, csr.index_of[target], static_cutoff)
    ids = csr.node_ids
    return {ids[i]: d * multiplier for i, d in settled.items()}


def shortest_path_nodes(network: RoadNetwork, source: int, target: int,
                        t: float = 0.0) -> list[int]:
    """Return the node sequence of a quickest path from ``source`` to ``target``.

    Raises :class:`ValueError` when no path exists.  The simulator uses the
    expanded node sequence to move vehicles edge by edge so that their
    positions (and hence bearings) stay consistent with the road network.

    The quickest path is time-invariant (uniform slot scaling), so the search
    always runs on static weights regardless of ``t``.
    """
    if source == target:
        return [source]
    csr = network.csr()
    if source not in csr.index_of or target not in csr.index_of:
        raise ValueError(f"no path from {source} to {target}")
    path = _csr_shortest_path(csr, csr.index_of[source], csr.index_of[target])
    if path is None:
        raise ValueError(f"no path from {source} to {target}")
    ids = csr.node_ids
    return [ids[i] for i in path]


def shortest_path_length(network: RoadNetwork, source: int, target: int,
                         t: float = 0.0) -> float:
    """Alias of :func:`dijkstra` with the paper's ``SP(u, v, t)`` semantics."""
    return dijkstra(network, source, target, t)


class BestFirstExplorer:
    """Incremental best-first search from a single source node.

    Alg. 2 of the paper expands road-network nodes around each vehicle in
    ascending order of (blended) cost, stopping as soon as the vehicle has
    acquired ``k`` candidate batches.  This class exposes that expansion as a
    lazy iterator: each call to :meth:`__next__` pops the next node in cost
    order, so the FoodGraph builder can stop early without wasting work.

    ``weight`` may be any non-negative edge weight function; FoodMatch passes
    the vehicle-sensitive weight ``alpha(v, e, t)`` of Eq. 8, while the plain
    sparsifier passes ``beta(e, t)``.  With the default time-dependent weight
    the expansion runs on the CSR array kernel (static weights scale
    uniformly within a slot, so the *order* of expansion is identical and the
    reported costs are the scaled static distances).
    """

    def __init__(self, network: RoadNetwork, source: int,
                 weight: WeightFunction | None = None, t: float = 0.0) -> None:
        self._network = network
        self._visited_count = 0
        if weight is None and source not in network.csr().index_of:
            # Unknown source: the dict-based search settles only the source
            # itself; route through the reference branch to preserve that.
            weight = _edge_weight_fn(network, t)
        if weight is None:
            csr = network.csr()
            self._csr = csr
            self._multiplier = network.profile.multiplier(t)
            src = csr.index_of[source]
            self._dist_arr = [INFINITY] * csr.num_nodes
            self._dist_arr[src] = 0.0
            self._heap: list[tuple[float, int]] = [(0.0, src)]
            self._settled = [False] * csr.num_nodes
        else:
            self._csr = None
            self._weight = weight
            self._dist: dict[int, float] = {source: 0.0}
            self._heap = [(0.0, source)]
            self._visited: set = set()

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return self

    def __next__(self) -> tuple[int, float]:
        """Return the next ``(node, cost)`` pair in ascending cost order."""
        if self._csr is not None:
            return self._next_csr()
        return self._next_reference()

    def _next_csr(self) -> tuple[int, float]:
        csr = self._csr
        indptr = csr.indptr_list
        indices = csr.indices_list
        weights = csr.weights_list
        dist = self._dist_arr
        settled = self._settled
        heap = self._heap
        push = heapq.heappush
        while heap:
            d, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            self._visited_count += 1
            for j in range(indptr[node], indptr[node + 1]):
                nbr = indices[j]
                nd = d + weights[j]
                if nd < dist[nbr]:
                    dist[nbr] = nd
                    push(heap, (nd, nbr))
            return csr.node_ids[node], d * self._multiplier
        raise StopIteration

    def _next_reference(self) -> tuple[int, float]:
        while self._heap:
            d, node = heapq.heappop(self._heap)
            if node in self._visited:
                continue
            self._visited.add(node)
            self._visited_count += 1
            for nbr, _ in self._network.neighbors(node):
                if nbr in self._visited:
                    continue
                nd = d + self._weight(node, nbr)
                if nd < self._dist.get(nbr, INFINITY):
                    self._dist[nbr] = nd
                    heapq.heappush(self._heap, (nd, nbr))
            return node, d
        raise StopIteration

    @property
    def visited_count(self) -> int:
        """Number of nodes settled so far (an efficiency statistic)."""
        return self._visited_count


__all__ = [
    "dijkstra",
    "dijkstra_all",
    "dijkstra_all_reverse",
    "dijkstra_reference",
    "dijkstra_all_reference",
    "shortest_path_nodes",
    "shortest_path_length",
    "BestFirstExplorer",
    "WeightFunction",
    "INFINITY",
]
