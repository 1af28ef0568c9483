"""Geometric primitives used throughout the road-network layer.

The paper relies on three pieces of geometry:

* the haversine distance (used by the Reyes baseline instead of network
  distances, and by the GrubHub setting where no road network exists),
* the *bearing* between two points (Def. 10), and
* the *angular distance* between a vehicle's direction of travel and a
  candidate node (Sec. IV-D1), which FoodMatch blends into edge weights to
  anticipate vehicle movement during an accumulation window.

Coordinates are ``(latitude, longitude)`` pairs in degrees unless stated
otherwise.  Synthetic cities produced by :mod:`repro.network.generators`
embed their nodes in a small latitude/longitude box so that all of these
functions behave exactly as they would on real map data.
"""

from __future__ import annotations

import math

Coordinate = tuple[float, float]

EARTH_RADIUS_KM = 6371.0088


def haversine_distance(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance between two ``(lat, lon)`` points in kilometres.

    This is the distance function used by the Reyes et al. baseline, which
    ignores the road network entirely.
    """
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def euclidean_distance(a: Coordinate, b: Coordinate) -> float:
    """Planar Euclidean distance between two coordinate pairs.

    Used for fast approximate comparisons in tests and generators where the
    curvature of the earth is irrelevant.
    """
    return math.hypot(a[0] - b[0], a[1] - b[1])


def bearing(source: Coordinate, target: Coordinate) -> float:
    """Initial bearing from ``source`` to ``target`` (Def. 10 of the paper).

    The bearing is the direction along a great circle between the two points,
    returned in radians in the range ``[0, 2*pi)``.  Identical points yield a
    bearing of ``0.0``.
    """
    lat1, lon1 = math.radians(source[0]), math.radians(source[1])
    lat2, lon2 = math.radians(target[0]), math.radians(target[1])
    x = math.cos(lat2) * math.sin(lon2 - lon1)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    theta = math.atan2(x, y)
    two_pi = 2.0 * math.pi
    theta %= two_pi
    # Float rounding can push e.g. a tiny negative atan2 result onto exactly
    # 2*pi after the modulo; the bearing range is the half-open [0, 2*pi).
    if theta >= two_pi:
        theta = 0.0
    return theta


def angular_distance(location: Coordinate, destination: Coordinate, candidate: Coordinate) -> float:
    """Angular distance of a candidate node relative to a moving vehicle.

    ``location`` is the vehicle's current position, ``destination`` the next
    node in its route plan and ``candidate`` the node being scored.  Following
    Sec. IV-D1 of the paper the value is::

        (1 - cos(bearing(loc, dest) - bearing(loc, candidate))) / 2

    which lies in ``[0, 1]``: ``0`` means the candidate lies exactly in the
    direction of travel, ``1`` means diametrically opposite.  Vehicles that
    are idle (``destination == location``) are direction-less; we return
    ``0.0`` so that only the travel-time term matters for them.
    """
    if destination == location:
        return 0.0
    return angular_distance_from_heading(bearing(location, destination),
                                         location, candidate)


def angular_distance_from_heading(heading: float, location: Coordinate,
                                  candidate: Coordinate) -> float:
    """:func:`angular_distance` of a vehicle whose ``bearing(location,
    destination)`` is already known.

    A best-first search scores thousands of candidates against one vehicle;
    its heading is the same for all of them.  The caller handles the idle
    case (``destination == location``: no heading, angular distance zero).
    """
    if candidate == location:
        return 0.0
    return (1.0 - math.cos(heading - bearing(location, candidate))) / 2.0


__all__ = [
    "Coordinate",
    "EARTH_RADIUS_KM",
    "haversine_distance",
    "euclidean_distance",
    "bearing",
    "angular_distance",
    "angular_distance_from_heading",
]
