"""Vehicle advancement: edge-metered movement on path arrays.

The simulation engine moves every vehicle along quickest paths with
*edge-atomic* metering: an edge whose traversal starts before the window
boundary is completed even if it finishes slightly after.  Walked edge by
edge, that costs per edge a network ``edge_time`` call (three dict lookups
plus the slot multiplier), a haversine evaluation and a per-leg bookkeeping
call, and a busy window walks hundreds of edges.

:class:`PathWalker`, the engine's one walker, meters the same edges with
array operations and gives **bit-identical** results to that per-edge loop:

* per (source, destination) pair the expanded quickest path is turned into
  flat numpy arrays of static traversal times and leg kilometres, cached
  until the network's ``mutation_epoch`` moves (traffic events);
* metering a vehicle through a window prepends the vehicle clock to the
  scaled time array and takes one :func:`numpy.cumsum` — numpy's cumulative
  sum accumulates strictly sequentially, so every prefix equals the per-edge
  ``clock += travel`` chain float for float;
* the congestion multiplier is constant within a 1-hour slot, so a single
  :func:`numpy.searchsorted` finds how many edges start before the window
  boundary (or the slot boundary, whichever comes first — the walk then
  resumes with the next slot's multiplier, exactly like the per-edge loop);
* driven-kilometre bookkeeping applies the same prepend-and-cumsum trick
  through :meth:`Vehicle.record_legs <repro.orders.vehicle.Vehicle>`.

The per-edge loop is kept as a test oracle
(``tests/sim/test_vectorized_engine.py``): property tests drive both over
random paths, clocks and window boundaries and assert exact equality of
clocks, positions and distance accounting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.distance_oracle import DistanceOracle, LRUCache
from repro.network.geometry import haversine_distance
from repro.network.graph import SECONDS_PER_HOUR
from repro.orders.vehicle import Vehicle

#: (expanded node path, static edge traversal times, edge lengths in km)
PathSegments = tuple[list[int], np.ndarray, np.ndarray]

#: Cache sentinel distinguishing "pair never resolved" from the cached
#: answer "destination unreachable" (a severed closure cut the pair apart).
_MISS = object()


class PathWalker:
    """Cached path-segment arrays plus the vectorised metering kernel."""

    #: Bound on cached (source, dest) segment arrays — mirrors the oracle's
    #: own path-cache discipline (window truncations mint a new source node
    #: per partial walk, so the key space grows all day without a cap).
    SEGMENT_CACHE_SIZE = 16384

    def __init__(self, oracle: DistanceOracle) -> None:
        self._oracle = oracle
        self._epoch = oracle.network.mutation_epoch
        self._segments = LRUCache(self.SEGMENT_CACHE_SIZE)
        # Leg lengths never change under weight-only mutations; this cache
        # survives epoch invalidations so haversines are computed once ever
        # (bounded by the network's edge count).
        self._km: dict[tuple[int, int], float] = {}

    def segments(self, source: int, dest: int) -> PathSegments | None:
        """Path node sequence and per-edge static time / km arrays.

        Cached per (source, dest); any network mutation (``mutation_epoch``
        bump) drops the cached traversal times, because live traffic
        overrides change the static effective weights in place.  The path
        itself is re-read from the oracle, whose own path cache is evicted
        with exact scope by ``apply_traffic_updates``.  This is what makes
        the walk *event-splittable*: the continuous-time engine stops every
        walk at each event timestamp, the event's weight changes bump the
        epoch, and the resumed walk re-plans from the vehicle's current node
        — so traffic re-weighting (or a reroute around a fresh closure)
        applies to the remaining edges of the journey.

        Returns ``None`` when ``dest`` is unreachable from ``source`` (a
        severed closure cut the pair apart); the verdict is cached like any
        path until the next mutation.
        """
        network = self._oracle.network
        epoch = network.mutation_epoch
        if epoch != self._epoch:
            self._segments.clear()
            self._epoch = epoch
        key = (source, dest)
        cached = self._segments.get(key, _MISS)
        if cached is not _MISS:
            return cached
        path = self._oracle.path_or_none(source, dest)
        if path is None:
            self._segments.put(key, None)
            return None
        count = len(path) - 1
        times = np.empty(max(0, count), dtype=np.float64)
        kms = np.empty(max(0, count), dtype=np.float64)
        km_cache = self._km
        static_edge_time = network.static_edge_time
        coord = network.coord
        for i in range(count):
            u, v = path[i], path[i + 1]
            times[i] = static_edge_time(u, v)
            km = km_cache.get((u, v))
            if km is None:
                km = haversine_distance(coord(u), coord(v))
                km_cache[(u, v)] = km
            kms[i] = km
        cached = (path, times, kms)
        self._segments.put(key, cached)
        return cached

    def walk(self, vehicle: Vehicle, dest: int, clock: float, until: float) -> float:
        """Walk ``vehicle`` along the quickest path toward ``dest``; returns
        the updated clock.

        Edge-atomic semantics: an edge is taken iff the clock at its start is
        strictly before ``until``, and its traversal time uses the congestion
        multiplier of the slot the edge *starts* in.  The vehicle may end
        anywhere along the path when the window runs out.

        Because every prefix of the metering cumsum equals the per-edge
        sequential ``clock += travel`` chain, splitting one walk at an
        arbitrary set of intermediate ``until`` boundaries (window edges,
        congestion-slot edges, or the continuous engine's event timestamps)
        reproduces the unsplit walk float for float — the conservation
        property the sub-window event drain relies on.

        When ``dest`` is unreachable — a severed closure cut the vehicle off
        — the vehicle waits in place: the clock advances to ``until`` with no
        movement and no distance recorded, and the engine retries the walk
        at its next epoch.  The closure's end is itself an event, so the wait
        ends exactly when the road reopens in continuous mode, or at the
        following window boundary in window mode.
        """
        segments = self.segments(vehicle.node, dest)
        if segments is None:
            return until
        path, static_times, kms = segments
        total = static_times.size
        taken = 0
        multiplier = self._oracle.network.profile.multiplier
        while taken < total and clock < until:
            m = multiplier(clock)
            slot_end = (math.floor(clock / SECONDS_PER_HOUR) + 1.0) * SECONDS_PER_HOUR
            remaining = static_times[taken:]
            cum = np.empty(remaining.size + 1, dtype=np.float64)
            cum[0] = clock
            np.multiply(remaining, m, out=cum[1:])
            np.cumsum(cum, out=cum)
            # cum[i] is the clock *before* the i-th remaining edge; edges are
            # taken while that stays below the window boundary, and the slot
            # multiplier stays valid while it stays below the slot boundary.
            bound = until if until <= slot_end else slot_end
            count = int(np.searchsorted(cum[:-1], bound, side="left"))
            if count == 0:  # pragma: no cover - loop guards make this unreachable
                break
            clock = float(cum[count])
            taken += count
        if taken:
            vehicle.record_legs(kms[:taken])
            vehicle.node = path[taken]
        return clock


__all__ = ["PathWalker", "PathSegments"]
