"""Time-dependent road network (Def. 1 of the paper).

The paper models the road network as a weighted directed graph whose edge
weight ``beta(e, t)`` is the time needed to traverse road segment ``e`` at
time-of-day ``t``.  In the original system the per-edge, per-hour weights are
estimated from the GPS pings of the delivery fleet; here an edge stores a
*base* traversal time (free-flow travel time in seconds) and the network owns
a :class:`TimeProfile` of hourly congestion multipliers, so that::

    beta(e, t) = base_time(e) * profile.multiplier(t)

This captures the structure the algorithms depend on — traversal times that
vary by time slot and peak at lunch/dinner — without requiring proprietary
GPS traces.  A per-edge multiplier override is supported for tests and for
modelling localised congestion.

On top of the static per-edge multiplier sits a *dynamic* per-edge override
layer owned by :mod:`repro.traffic`: traffic events (incidents, closures,
zonal rush hours, weather) set time-varying factors through
:meth:`RoadNetwork.set_edge_override`, so the static effective weight of an
edge is ``base_time * multiplier * override``.  Override changes patch the
cached CSR adjacency *in place* (no rebuild) and bump
:attr:`RoadNetwork.mutation_epoch`.

The network itself does not notify derived structures: a hub-label index or
distance-oracle cache built before a mutation keeps its old values.  The one
safe mutation path for a live oracle is
:meth:`DistanceOracle.apply_traffic_updates
<repro.network.distance_oracle.DistanceOracle.apply_traffic_updates>`, which
wraps :meth:`set_edge_override` with incremental index repair and scoped
cache invalidation; ``mutation_epoch`` exists so external callers can detect
that weights moved and trigger their own refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import numpy as np

from repro.network.geometry import Coordinate, euclidean_distance

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


def time_slot(t: float) -> int:
    """Map a timestamp (seconds since midnight) to its 1-hour slot index.

    Slot 0 covers 00:00-00:59, slot 1 covers 01:00-01:59 and so on, matching
    the 24 time slots used by the paper for edge weights, preparation times
    and the per-slot figures.
    Times outside a single day wrap around (the simulator may run slightly
    past midnight).
    """
    return int(t // SECONDS_PER_HOUR) % 24


@dataclass(frozen=True)
class TimeProfile:
    """Hourly congestion multipliers applied on top of base edge weights.

    ``multipliers[h]`` scales every base traversal time during hour ``h``.
    A value of ``1.0`` means free-flow; values above one model congestion.
    """

    multipliers: tuple[float, ...] = field(default_factory=lambda: (1.0,) * 24)

    def __post_init__(self) -> None:
        if len(self.multipliers) != 24:
            raise ValueError("TimeProfile requires exactly 24 hourly multipliers")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("TimeProfile multipliers must be strictly positive")

    def multiplier(self, t: float) -> float:
        """Return the congestion multiplier in effect at timestamp ``t``."""
        return self.multipliers[time_slot(t)]

    @classmethod
    def flat(cls, value: float = 1.0) -> TimeProfile:
        """A profile with the same multiplier in every hour."""
        return cls(tuple(value for _ in range(24)))

    @classmethod
    def urban_peaks(cls, base: float = 1.0, lunch: float = 1.35, dinner: float = 1.45,
                    night: float = 0.85) -> TimeProfile:
        """A stylised urban profile with lunch (12-14h) and dinner (19-22h) peaks.

        The shape mirrors the congestion implied by Fig. 6(a): traversal times
        are worst exactly when order volumes peak.
        """
        values = []
        for hour in range(24):
            if 12 <= hour <= 14:
                values.append(base * lunch)
            elif 19 <= hour <= 22:
                values.append(base * dinner)
            elif hour <= 5:
                values.append(base * night)
            else:
                values.append(base)
        return cls(tuple(values))


class CSRAdjacency:
    """Compressed-sparse-row view of a :class:`RoadNetwork`'s static weights.

    The weight stored per edge is the *static effective* traversal time
    ``base_time * per-edge multiplier``; the network-wide congestion profile
    scales every edge uniformly within a time slot, so callers apply that
    single factor to whole distance results instead of per edge.

    Both numpy arrays (for vectorised kernels) and plain Python lists (for
    the heap-based Dijkstra inner loops, where element access on lists is
    several times faster than on numpy scalars) are exposed.  The list views
    are materialised lazily on first access: batched kernels never touch
    them, and on a metro-scale graph the three lists triple the per-process
    adjacency footprint, which only processes that run scalar Dijkstras
    should pay.
    """

    __slots__ = ("node_ids", "index_of", "indptr", "indices", "weights",
                 "_indptr_list", "_indices_list", "_weights_list", "num_nodes")

    def __init__(self, node_ids: list[int], index_of: dict[int, int],
                 indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
        self.node_ids = node_ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._indptr_list: list[int] | None = None
        self._indices_list: list[int] | None = None
        self._weights_list: list[float] | None = None
        self.num_nodes = len(node_ids)

    @property
    def indptr_list(self) -> list[int]:
        lst = self._indptr_list
        if lst is None:
            lst = self._indptr_list = self.indptr.tolist()
        return lst

    @property
    def indices_list(self) -> list[int]:
        lst = self._indices_list
        if lst is None:
            lst = self._indices_list = self.indices.tolist()
        return lst

    @property
    def weights_list(self) -> list[float]:
        lst = self._weights_list
        if lst is None:
            lst = self._weights_list = self.weights.tolist()
        return lst

    def edge_position(self, u_idx: int, v_idx: int) -> int:
        """Flat position of the edge ``u_idx -> v_idx``; ``-1`` when absent.

        Out-degrees of road networks are tiny (typically <= 4), so a linear
        scan of the row is cheaper than keeping a per-edge hash map alive.
        """
        for pos in range(self.indptr_list[u_idx], self.indptr_list[u_idx + 1]):
            if self.indices_list[pos] == v_idx:
                return pos
        return -1

    def patch_weight(self, pos: int, value: float) -> None:
        """Overwrite one edge weight in place (numpy and any live list view)."""
        self.weights[pos] = value
        if self._weights_list is not None:
            self._weights_list[pos] = value

    def frozen_copy(self) -> CSRAdjacency:
        """A copy that keeps today's weights when this adjacency is patched.

        The structure (``node_ids``, ``index_of``, ``indptr``, ``indices``
        and their list views, which :meth:`edge_position` materialises for
        any patch anyway) is shared; only the weights are copied.
        """
        copy = CSRAdjacency(self.node_ids, self.index_of, self.indptr,
                            self.indices, self.weights.copy())
        copy._indptr_list = self.indptr_list
        copy._indices_list = self.indices_list
        return copy


class RoadNetwork:
    """A directed road network with time-dependent traversal times.

    Nodes are arbitrary hashable identifiers (the generators use integers)
    with an associated ``(lat, lon)`` coordinate.  Edges are directed; the
    convenience method :meth:`add_road` adds both directions at once, which
    is how the synthetic generators build two-way streets.
    """

    def __init__(self, profile: TimeProfile | None = None) -> None:
        self._coords: dict[int, Coordinate] = {}
        self._adj: dict[int, dict[int, float]] = {}
        self._radj: dict[int, dict[int, float]] = {}
        self._edge_multiplier: dict[tuple[int, int], float] = {}
        self._edge_override: dict[tuple[int, int], float] = {}
        self._num_edges = 0
        self.profile = profile if profile is not None else TimeProfile.flat()
        self._max_base_time = 0.0
        self._csr_cache: dict[bool, CSRAdjacency] = {}
        self._mutation_epoch = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: int, lat: float, lon: float) -> None:
        """Add (or re-position) a node with the given coordinate."""
        self._coords[node] = (lat, lon)
        self._adj.setdefault(node, {})
        self._radj.setdefault(node, {})
        self._csr_cache.clear()
        self._mutation_epoch += 1

    def add_edge(self, u: int, v: int, base_time: float,
                 multiplier: float = 1.0) -> None:
        """Add a directed edge from ``u`` to ``v``.

        ``base_time`` is the free-flow traversal time in seconds;
        ``multiplier`` is an optional per-edge factor layered on top of the
        network-wide :class:`TimeProfile` (used to model locally congested
        streets).  Both endpoints must already exist.
        """
        if u not in self._coords or v not in self._coords:
            raise KeyError("both endpoints must be added before the edge")
        if base_time <= 0:
            raise ValueError("edge traversal time must be strictly positive")
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = base_time
        self._radj[v][u] = base_time
        if multiplier != 1.0:
            self._edge_multiplier[(u, v)] = multiplier
        else:
            self._edge_multiplier.pop((u, v), None)
        effective = base_time * multiplier
        if effective > self._max_base_time:
            self._max_base_time = effective
        self._csr_cache.clear()
        self._mutation_epoch += 1

    def add_road(self, u: int, v: int, base_time: float,
                 multiplier: float = 1.0) -> None:
        """Add a two-way road (edges in both directions with equal weight)."""
        self.add_edge(u, v, base_time, multiplier)
        self.add_edge(v, u, base_time, multiplier)

    # ------------------------------------------------------------------ #
    # dynamic traffic overrides
    # ------------------------------------------------------------------ #
    @property
    def mutation_epoch(self) -> int:
        """Counter bumped by every structural or weight mutation.

        Advisory: the network does not push invalidations into derived
        structures.  Callers that hold an index or cache over this network
        can snapshot the epoch and compare it later to detect that weights
        moved under them.  To mutate weights under a *live*
        :class:`~repro.network.distance_oracle.DistanceOracle`, go through
        its ``apply_traffic_updates`` (repairs the index and evicts stale
        cache entries) rather than calling :meth:`set_edge_override`
        directly.
        """
        return self._mutation_epoch

    def edge_multiplier(self, u: int, v: int) -> float:
        """Static per-edge multiplier of the edge (``1.0`` when unset)."""
        return self._edge_multiplier.get((u, v), 1.0)

    def edge_override(self, u: int, v: int) -> float:
        """Current dynamic traffic factor of the edge (``1.0`` = no event)."""
        return self._edge_override.get((u, v), 1.0)

    def edge_overrides(self) -> dict[tuple[int, int], float]:
        """Copy of all non-unit dynamic traffic factors, keyed by edge."""
        return dict(self._edge_override)

    def set_edge_override(self, u: int, v: int, factor: float) -> float:
        """Set the dynamic traffic factor of edge ``(u, v)``; returns the old one.

        The factor layers multiplicatively on top of the base traversal time
        and the static per-edge multiplier; ``1.0`` removes the override and
        ``math.inf`` *severs* the edge (infinite effective weight — the
        severed-closure encoding; every shortest-path kernel treats the edge
        as absent while the override holds).
        Unlike :meth:`add_edge`, this is a *weight-only* mutation: the cached
        CSR adjacencies are patched in place instead of being rebuilt, so
        array kernels keep their buffers and only the touched entries move.
        Note this patches *only* the network; an already-built hub-label
        index or oracle cache is not told — route live-oracle mutations
        through ``DistanceOracle.apply_traffic_updates``.
        """
        if not self.has_edge(u, v):
            raise KeyError(f"no edge ({u}, {v}) to override")
        if not factor > 0.0 or factor != factor:
            raise ValueError("edge override factor must be strictly positive")
        old = self._edge_override.get((u, v), 1.0)
        if factor == old:
            return old
        if factor != 1.0:
            self._edge_override[(u, v)] = factor
        else:
            self._edge_override.pop((u, v), None)
        effective = self._static_edge_time(u, v)
        for reverse, csr in self._csr_cache.items():
            tail, head = (v, u) if reverse else (u, v)
            pos = csr.edge_position(csr.index_of[tail], csr.index_of[head])
            if pos >= 0:
                csr.patch_weight(pos, effective)
        self._mutation_epoch += 1
        return old

    def static_edge_time(self, u: int, v: int) -> float:
        """Static effective weight ``base * multiplier * override``.

        This is the per-edge value the cached CSR arrays store;
        :meth:`edge_time` is this scaled by the congestion profile.  The
        vectorised vehicle-advancement kernel reads it to prebuild per-path
        traversal-time arrays that are bit-equal to per-edge
        :meth:`edge_time` calls.
        """
        return (self._adj[u][v] * self._edge_multiplier.get((u, v), 1.0)
                * self._edge_override.get((u, v), 1.0))

    # Backwards-compatible private alias (pre-existing internal callers).
    _static_edge_time = static_edge_time

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> list[int]:
        """All node identifiers."""
        return list(self._coords)

    @property
    def num_nodes(self) -> int:
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node: int) -> bool:
        return node in self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def coord(self, node: int) -> Coordinate:
        """Return the ``(lat, lon)`` coordinate of ``node``."""
        return self._coords[node]

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def base_time(self, u: int, v: int) -> float:
        """Free-flow traversal time of the edge ``(u, v)`` in seconds."""
        return self._adj[u][v]

    def edge_time(self, u: int, v: int, t: float = 0.0) -> float:
        """``beta((u, v), t)``: traversal time of the edge at timestamp ``t``."""
        return self._static_edge_time(u, v) * self.profile.multiplier(t)

    def max_edge_time(self, t: float = 0.0) -> float:
        """Largest ``beta(e, t)`` over all edges, used to normalise Eq. 8.

        Dynamic traffic overrides are deliberately excluded from the
        maximum: closures encode impassability with a huge factor
        (:data:`repro.traffic.events.CLOSURE_FACTOR`), and folding that into
        the normalisation would collapse the travel-time term of the
        angular blend for every ordinary edge while any closure is active.
        """
        if self._num_edges == 0:
            return 1.0
        return self._max_base_time * self.profile.multiplier(t)

    def neighbors(self, u: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, base_time)`` pairs of out-edges of ``u``."""
        return iter(self._adj.get(u, {}).items())

    def predecessors(self, u: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(predecessor, base_time)`` pairs of in-edges of ``u``."""
        return iter(self._radj.get(u, {}).items())

    def out_degree(self, u: int) -> int:
        return len(self._adj.get(u, {}))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate all edges as ``(u, v, base_time)``."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                yield u, v, w

    def csr(self, reverse: bool = False) -> CSRAdjacency:
        """Contiguous-array adjacency over the static effective edge weights.

        Built lazily and cached; any :meth:`add_node` / :meth:`add_edge`
        invalidates the cache.  ``reverse=True`` yields the transposed graph
        (in-edges), used by reverse Dijkstra and the hub-label builder.
        """
        cached = self._csr_cache.get(reverse)
        if cached is not None:
            return cached
        node_ids = list(self._coords)
        index_of = {node: i for i, node in enumerate(node_ids)}
        adjacency = self._radj if reverse else self._adj
        n = len(node_ids)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(self._num_edges, dtype=np.int64)
        weights = np.empty(self._num_edges, dtype=np.float64)
        pos = 0
        multipliers = self._edge_multiplier
        overrides = self._edge_override
        for i, node in enumerate(node_ids):
            for nbr, base in adjacency.get(node, {}).items():
                indices[pos] = index_of[nbr]
                key = (nbr, node) if reverse else (node, nbr)
                weights[pos] = (base * multipliers.get(key, 1.0)
                                * overrides.get(key, 1.0))
                pos += 1
            indptr[i + 1] = pos
        csr = CSRAdjacency(node_ids, index_of, indptr, indices[:pos], weights[:pos])
        self._csr_cache[reverse] = csr
        return csr

    def nearest_node(self, coord: Coordinate,
                     candidates: Iterable[int] | None = None) -> int:
        """Return the node whose coordinate is closest to ``coord``.

        The paper snaps vehicle GPS positions to the nearest road-network
        node; the simulator uses this to place vehicles and to map-match
        synthetic restaurant/customer locations.
        """
        if not self._coords:
            raise ValueError("network has no nodes")
        pool = candidates if candidates is not None else self._coords.keys()
        return min(pool, key=lambda n: euclidean_distance(self._coords[n], coord))

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (base weights only)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, (lat, lon) in self._coords.items():
            graph.add_node(node, lat=lat, lon=lon)
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    def is_strongly_connected(self) -> bool:
        """Check strong connectivity (every node can reach every other node)."""
        if not self._coords:
            return True
        start = next(iter(self._coords))
        return (len(self._reachable(start, self._adj)) == self.num_nodes
                and len(self._reachable(start, self._radj)) == self.num_nodes)

    @staticmethod
    def _reachable(start: int, adjacency: dict[int, dict[int, float]]) -> set:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in adjacency.get(node, {}):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"


__all__ = ["RoadNetwork", "CSRAdjacency", "TimeProfile", "time_slot",
           "SECONDS_PER_HOUR", "SECONDS_PER_DAY"]
