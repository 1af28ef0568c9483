"""Vehicle-sensitive edge weights blending travel time and angular distance (Eq. 8).

Alg. 2 explores the road network outward from every vehicle to find the
batches it could serve.  A vehicle that is already driving somewhere keeps
moving while the FoodGraph is built, so a node that is close *now* but lies
behind the vehicle will be far by the time assignments are made.  The paper
counters this by blending the time-dependent edge weight ``beta(e, t)`` with
the *angular distance* between the vehicle's direction of travel and the
edge's head node::

    alpha(v, e, t) = gamma * adist(v, head(e), t)
                     + (1 - gamma) * beta(e, t) / max_e' beta(e', t)

``gamma`` balances the two terms (0.5 by default).  Idle vehicles have no
direction, so their angular term is zero and exploration order reduces to
plain travel time.

Note on the paper's notation: Eq. 8 of the paper attaches ``(1 - gamma)`` to
the angular term, but the discussion of Fig. 9 ("as gamma increases, a
vehicle would have edges to only those orders that originate from a node in
the same direction as the vehicle's destination") treats ``gamma`` as the
weight of the *angular* term.  The two are inconsistent; this implementation
follows the Fig. 9 semantics — ``gamma`` is the weight of the angular
distance — so that the reproduced sensitivity curves bend in the same
direction as the paper's.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator

from repro.network.geometry import angular_distance_from_heading, bearing
from repro.network.graph import RoadNetwork
from repro.orders.vehicle import Vehicle

WeightFunction = Callable[[int, int], float]

INFINITY = math.inf


def vehicle_sensitive_weight(network: RoadNetwork, vehicle: Vehicle, now: float,
                             gamma: float = 0.5) -> WeightFunction:
    """Build the ``alpha(v, e, t)`` edge-weight function for one vehicle.

    The returned callable maps an edge ``(u, u')`` to its blended weight and
    is intended to be passed to
    :class:`~repro.network.shortest_path.BestFirstExplorer`.  Note the
    blended weight only orders the exploration — marginal costs on FoodGraph
    edges are always computed from true travel times.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    max_beta = network.max_edge_time(now)
    vehicle_coord = network.coord(vehicle.node)
    heading = _heading(network, vehicle)

    def weight(u: int, u_prime: int) -> float:
        beta = network.edge_time(u, u_prime, now)
        time_term = beta / max_beta if max_beta > 0 else 0.0
        if heading is None:
            angular_term = 0.0
        else:
            angular_term = angular_distance_from_heading(
                heading, vehicle_coord, network.coord(u_prime))
        return gamma * angular_term + (1.0 - gamma) * time_term

    return weight


def _heading(network: RoadNetwork, vehicle: Vehicle) -> float | None:
    """Bearing from the vehicle towards its next destination, computed once
    per search; ``None`` for a direction-less vehicle (idle, or already at
    the destination's coordinate), whose angular terms are all zero."""
    destination = vehicle.next_destination
    if destination is None:
        return None
    vehicle_coord = network.coord(vehicle.node)
    dest_coord = network.coord(destination)
    if dest_coord == vehicle_coord:
        return None
    return bearing(vehicle_coord, dest_coord)


def travel_time_weight(network: RoadNetwork, now: float) -> WeightFunction:
    """Plain ``beta(e, t)`` weight, used when angular distance is disabled."""
    return lambda u, v: network.edge_time(u, v, now)


def blended_time_terms(network: RoadNetwork, now: float) -> list[float]:
    """Per-CSR-edge normalised travel-time terms ``beta(e, t) / max_e' beta``.

    One vectorised pass over the CSR weight array replaces the two dict
    lookups, slot resolution and division the reference weight closure pays
    per edge relaxation.  The element-wise multiply and divide perform the
    identical IEEE operations in the identical order as the closure
    (``static * multiplier`` then ``/ max_beta``), so every term is
    bit-equal to what :func:`vehicle_sensitive_weight` computes.

    The terms are shared by every vehicle explored in one accumulation
    window (they do not depend on the vehicle), which is why the FoodGraph
    builder computes them once per window and hands them to each
    :class:`VehicleSensitiveExplorer`.
    """
    csr = network.csr()
    max_beta = network.max_edge_time(now)
    if not max_beta > 0:
        return [0.0] * len(csr.weights_list)
    terms = csr.weights * network.profile.multiplier(now)
    terms /= max_beta
    return terms.tolist()


NodeGeometry = tuple[list[tuple[float, float]], list[float], list[float], list[float]]


def node_geometry(network: RoadNetwork) -> NodeGeometry:
    """Per CSR node: its coordinate, longitude in radians and the cosine and
    sine of its latitude — the ``math`` calls :func:`~repro.network.geometry.bearing`
    makes on every call, made once (the FoodGraph builder: once per window)."""
    coords = [network.coord(node) for node in network.csr().node_ids]
    lat = [math.radians(lat) for lat, _ in coords]
    return (coords, [math.radians(lon) for _, lon in coords],
            [math.cos(x) for x in lat], [math.sin(x) for x in lat])


class VehicleSensitiveExplorer:
    """Best-first search under the Eq. 8 blend, on the CSR array adjacency.

    Drop-in equivalent of ``BestFirstExplorer(network, vehicle.node,
    weight=vehicle_sensitive_weight(network, vehicle, now, gamma), t=now)``:
    it yields the identical ``(node, blended_cost)`` sequence (the property
    tests assert this node for node), but avoids the per-relaxation closure
    call, dict adjacency iteration and repeated trigonometry that make the
    reference path the simulation's hottest loop.

    Three observations make this possible:

    * the travel-time term of the blend depends only on the edge, so it is
      precomputed for all edges in one vectorised pass
      (:func:`blended_time_terms`) and shared across vehicles;
    * the angular term depends only on the edge's *head* node (and the
      vehicle), so it is computed at most once per node — lazily, inline,
      with the operations of :func:`~repro.network.geometry.angular_distance_from_heading`
      on :func:`node_geometry`'s hoisted trigonometry, keeping every value
      bit-identical;
    * the search itself is the plain heap Dijkstra of the CSR kernels, with
      heap entries ordered by ``(distance, node_id)`` exactly like the
      dict-based reference, so tie-breaking matches too.
    """

    def __init__(self, network: RoadNetwork, vehicle: Vehicle, now: float,
                 gamma: float = 0.5,
                 time_terms: list[float] | None = None,
                 geometry: NodeGeometry | None = None) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        csr = network.csr()
        if time_terms is None:
            time_terms = blended_time_terms(network, now)
        if geometry is None:
            geometry = node_geometry(network)
        self._settles = [0]
        # One generator frame keeps every hot local bound across all the
        # thousands of per-node resumptions of one search.  The frame holds
        # the search state but no reference to ``self``: an explorer that is
        # dropped mid-search is freed by reference counting, not left to the
        # cyclic collector with its per-node lists.
        self._iterator = _blended_best_first(
            csr, csr.index_of[vehicle.node], vehicle.node, gamma, time_terms,
            geometry, _heading(network, vehicle), self._settles)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return self._iterator

    def __next__(self) -> tuple[int, float]:
        """Return the next ``(node, blended_cost)`` pair in ascending order."""
        return next(self._iterator)

    @property
    def visited_count(self) -> int:
        """Number of nodes settled so far (an efficiency statistic)."""
        return self._settles[0]


def _blended_best_first(csr, src: int, source_id: int, gamma: float,
                        time_terms: list[float], geometry: NodeGeometry,
                        heading: float | None, settles: list[int],
                        ) -> Iterator[tuple[int, float]]:
    """The search loop of :class:`VehicleSensitiveExplorer` (``settles[0]`` counts)."""
    indptr = csr.indptr_list
    indices = csr.indices_list
    node_ids = csr.node_ids
    one_minus_gamma = 1.0 - gamma
    coords, lon, cos_lat, sin_lat = geometry
    vehicle_coord = coords[src]
    lon0, cos_lat0, sin_lat0 = lon[src], cos_lat[src], sin_lat[src]
    sin, cos, atan2 = math.sin, math.cos, math.atan2
    two_pi = 2.0 * math.pi
    # Lazily filled per-head-node angular terms (None = not yet computed).
    angular: list[float | None] = [None] * csr.num_nodes
    dist = [INFINITY] * csr.num_nodes
    dist[src] = 0.0
    settled = [False] * csr.num_nodes
    # Entries are (distance, node_id, node_index): comparison falls to the
    # original node id on distance ties, matching the reference heap.
    heap: list[tuple[float, int, int]] = [(0.0, source_id, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node_id, node = pop(heap)
        if settled[node]:
            continue
        settled[node] = True
        settles[0] += 1
        for j in range(indptr[node], indptr[node + 1]):
            head = indices[j]
            if settled[head]:
                continue
            term = angular[head]
            if term is None:
                if heading is None or coords[head] == vehicle_coord:
                    term = 0.0
                else:
                    # angular_distance_from_heading(heading, vehicle_coord,
                    # coords[head]), bearing included, operation for operation.
                    d_lon = lon[head] - lon0
                    theta = atan2(cos_lat[head] * sin(d_lon),
                                  cos_lat0 * sin_lat[head]
                                  - sin_lat0 * cos_lat[head] * cos(d_lon)) % two_pi
                    term = (1.0 - cos(heading - (theta if theta < two_pi else 0.0))) / 2.0
                angular[head] = term
            nd = d + (gamma * term + one_minus_gamma * time_terms[j])
            if nd < dist[head]:
                dist[head] = nd
                push(heap, (nd, node_ids[head], head))
        yield node_id, d


__all__ = ["vehicle_sensitive_weight", "travel_time_weight",
           "blended_time_terms", "node_geometry", "VehicleSensitiveExplorer"]
