"""Degraded shortest-path rungs: landmark and hop-bounded estimators.

The exact rungs of the path ladder — hub labels and plain Dijkstra — already
live in :mod:`repro.network.hub_labeling` and
:mod:`repro.network.shortest_path`.  This module supplies the *approximate*
bottom rung the latency-budget controller falls to when even memoised exact
queries blow the window budget:

* :class:`LandmarkEstimator` — ALT-style landmark triangulation.  Picks a
  handful of landmarks by seeded farthest-point selection, runs one forward
  and one reverse SSSP per landmark at build time, then answers
  ``d(s, t) ~ min_l d(s, l) + d(l, t)`` with two array gathers and no graph
  traversal at all.  The estimate is an **upper bound** (a real walk through
  the landmark), exact whenever some landmark lies on a quickest path, so
  the reported stretch is always ``>= 1``.
* :class:`BoundedHopEstimator` — the rung actually registered in
  :data:`PATH_RUNGS`: near-field queries are answered exactly by a Dijkstra
  that gives up after settling ``max_settled`` nodes; far-field queries fall
  back to the landmark bound.  Window-scale dispatch is dominated by
  near-field first-mile checks, which is what makes this rung's quality
  delta small in practice.

Estimators snapshot the CSR weights at construction time and are *not*
repaired by live traffic updates — they are rebuilt lazily by the oracle
after :meth:`~repro.network.distance_oracle.DistanceOracle.reset_traffic_state`
and otherwise serve slightly stale estimates during an incident, which is an
accepted part of the degraded contract (the exact rungs remain the source of
truth, and approximate answers never enter the exact caches).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.network.graph import RoadNetwork
from repro.network.shortest_path import _csr_dijkstra_all

INFINITY = math.inf

#: The shortest-path backend ladder, best rung first.  ``hub_labels`` and
#: ``dijkstra`` are exact; ``bounded_hop_approx`` trades bounded stretch for
#: constant-time far-field answers.
PATH_RUNGS = ("hub_labels", "dijkstra", "bounded_hop_approx")


def path_backend_available(name: str, oracle=None) -> bool:
    """Whether the named path rung can serve queries (for ``oracle`` if given).

    ``hub_labels`` requires the oracle's hub-label backend (asking never
    runs queued label work); the two lower rungs only need the network
    itself.
    """
    if name not in PATH_RUNGS:
        return False
    if name == "hub_labels" and oracle is not None:
        return oracle.method == "hub_label"
    return True


class LandmarkEstimator:
    """Landmark-triangulation upper bound on static quickest-path times.

    Parameters
    ----------
    network:
        The road network; the current CSR weights are snapshotted by the
        per-landmark SSSPs at construction time.
    num_landmarks:
        How many landmarks to select (clamped to the node count).  More
        landmarks tighten the bound linearly in memory and build SSSPs.
    seed:
        Seeds the farthest-point start so builds are deterministic.
    """

    def __init__(self, network: RoadNetwork, num_landmarks: int = 8,
                 seed: int = 0) -> None:
        csr = network.csr()
        rcsr = network.csr(reverse=True)
        self.index_of = csr.index_of
        n = csr.num_nodes
        count = max(1, min(num_landmarks, n))
        rng = random.Random(seed)
        to_land = np.full((count, n), INFINITY)
        from_land = np.full((count, n), INFINITY)
        landmarks: list[int] = []
        current = rng.randrange(n)
        # Seeded farthest-point selection: each new landmark is the node
        # farthest from (or unreachable from) every landmark chosen so far,
        # which spreads the set across the graph — and across components.
        min_reach = np.full(n, INFINITY)
        for k in range(count):
            landmarks.append(current)
            for idx, dist in _csr_dijkstra_all(csr, current).items():
                from_land[k, idx] = dist
            for idx, dist in _csr_dijkstra_all(rcsr, current).items():
                to_land[k, idx] = dist
            if k + 1 == count:
                break
            np.minimum(min_reach, np.minimum(from_land[k], to_land[k]),
                       out=min_reach)
            unreachable = np.flatnonzero(np.isinf(min_reach))
            if unreachable.size:
                current = int(unreachable[0])
            else:
                current = int(np.argmax(min_reach))
        self.landmarks = [csr.node_ids[i] for i in landmarks]
        self._to = to_land
        self._from = from_land

    def estimate(self, source: int, target: int) -> float:
        """Upper-bound estimate of the static distance ``source -> target``."""
        if source == target:
            return 0.0
        s = self.index_of[source]
        t = self.index_of[target]
        return float(np.min(self._to[:, s] + self._from[:, t]))


class BoundedHopEstimator:
    """Settle-bounded Dijkstra with a landmark far-field fallback.

    A query runs (or reuses) a Dijkstra from the source that stops after
    settling ``max_settled`` nodes: targets inside that ball get the *exact*
    static distance, targets outside it get the
    :class:`LandmarkEstimator` upper bound.  Partial trees are memoised in a
    small LRU so the per-window batched queries (many targets per source)
    pay the bounded search once.
    """

    def __init__(self, network: RoadNetwork, max_settled: int = 256,
                 num_landmarks: int = 8, seed: int = 0,
                 tree_cache_size: int = 128) -> None:
        csr = network.csr()
        self.index_of = csr.index_of
        self._indptr = csr.indptr_list
        self._indices = csr.indices_list
        self._weights = csr.weights_list
        self._max_settled = max_settled
        self._landmarks = LandmarkEstimator(network, num_landmarks, seed)
        self._tree_cache_size = tree_cache_size
        self._trees: OrderedDict[int, dict[int, float]] = OrderedDict()

    def _partial_tree(self, src_idx: int) -> dict[int, float]:
        trees = self._trees
        tree = trees.get(src_idx)
        if tree is not None:
            trees.move_to_end(src_idx)
            return tree
        # _csr_dijkstra_all bounds by *distance* cutoff; the degraded rung
        # needs a bound on work, so this loop caps the settle count instead.
        indptr, indices, weights = self._indptr, self._indices, self._weights
        limit = self._max_settled
        dist: dict[int, float] = {src_idx: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, src_idx)]
        push, pop = heapq.heappush, heapq.heappop
        while heap and len(settled) < limit:
            d, node = pop(heap)
            if node in settled:
                continue
            settled[node] = d
            for j in range(indptr[node], indptr[node + 1]):
                nbr = indices[j]
                nd = d + weights[j]
                if nd < dist.get(nbr, INFINITY):
                    dist[nbr] = nd
                    push(heap, (nd, nbr))
        trees[src_idx] = settled
        if len(trees) > self._tree_cache_size:
            trees.popitem(last=False)
        return settled

    def refresh_after_mutation(self) -> None:
        """Drop memoised partial trees after an in-place CSR weight patch.

        The Dijkstra loop reads the CSR list views, which traffic updates
        patch in place — only the memoised results are stale.  Landmark
        tables are left as-is (see the module docstring).
        """
        self._trees.clear()

    def estimate(self, source: int, target: int) -> float:
        """Static distance estimate: exact near-field, landmark far-field."""
        if source == target:
            return 0.0
        s = self.index_of[source]
        t = self.index_of[target]
        tree = self._partial_tree(s)
        found = tree.get(t)
        if found is not None:
            return found
        return self._landmarks.estimate(source, target)

    def estimate_many(self, sources: Sequence[int],
                      targets: Sequence[int]) -> np.ndarray:
        out = np.empty(len(sources), dtype=np.float64)
        for i, (s, t) in enumerate(zip(sources, targets, strict=True)):
            out[i] = self.estimate(s, t)
        return out

    def estimate_block(self, sources: Sequence[int],
                       targets: Sequence[int]) -> np.ndarray:
        out = np.empty((len(sources), len(targets)), dtype=np.float64)
        for i, s in enumerate(sources):
            for j, t in enumerate(targets):
                out[i, j] = self.estimate(s, t)
        return out


__all__ = [
    "PATH_RUNGS",
    "path_backend_available",
    "LandmarkEstimator",
    "BoundedHopEstimator",
]
