"""Tests for haversine distance, bearing and angular distance."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import (
    angular_distance,
    angular_distance_from_heading,
    bearing,
    euclidean_distance,
    haversine_distance,
)

coords = st.tuples(st.floats(min_value=-80.0, max_value=80.0),
                   st.floats(min_value=-179.0, max_value=179.0))


class TestHaversine:
    def test_zero_distance_for_identical_points(self):
        assert haversine_distance((12.97, 77.59), (12.97, 77.59)) == pytest.approx(0.0)

    def test_known_city_pair(self):
        # Bengaluru to Chennai is roughly 290 km as the crow flies.
        dist = haversine_distance((12.9716, 77.5946), (13.0827, 80.2707))
        assert 280.0 < dist < 300.0

    def test_one_degree_latitude(self):
        dist = haversine_distance((0.0, 0.0), (1.0, 0.0))
        assert dist == pytest.approx(111.2, abs=1.0)

    def test_symmetry(self):
        a, b = (12.9, 77.5), (13.1, 77.8)
        assert haversine_distance(a, b) == pytest.approx(haversine_distance(b, a))

    @given(a=coords, b=coords)
    @settings(max_examples=50, deadline=None)
    def test_non_negative_and_symmetric(self, a, b):
        dist = haversine_distance(a, b)
        assert dist >= 0.0
        assert dist == pytest.approx(haversine_distance(b, a), rel=1e-9, abs=1e-9)

    @given(a=coords, b=coords, c=coords)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_distance(a, b)
        bc = haversine_distance(b, c)
        ac = haversine_distance(a, c)
        assert ac <= ab + bc + 1e-6


class TestEuclidean:
    def test_pythagoras(self):
        assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_zero(self):
        assert euclidean_distance((1.5, -2.0), (1.5, -2.0)) == 0.0


class TestBearing:
    def test_due_north(self):
        assert bearing((0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.0, abs=1e-6)

    def test_due_east(self):
        assert bearing((0.0, 0.0), (0.0, 1.0)) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_due_south(self):
        assert bearing((0.0, 0.0), (-1.0, 0.0)) == pytest.approx(math.pi, abs=1e-6)

    def test_due_west(self):
        assert bearing((0.0, 0.0), (0.0, -1.0)) == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_identical_points_give_zero(self):
        assert bearing((10.0, 20.0), (10.0, 20.0)) == pytest.approx(0.0)

    @given(a=coords, b=coords)
    @settings(max_examples=50, deadline=None)
    def test_range(self, a, b):
        theta = bearing(a, b)
        assert 0.0 <= theta < 2 * math.pi


class TestAngularDistance:
    def test_same_direction_is_zero(self):
        # Destination and candidate both due north of the vehicle.
        value = angular_distance((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_opposite_direction_is_one(self):
        value = angular_distance((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_perpendicular_is_half(self):
        value = angular_distance((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_idle_vehicle_returns_zero(self):
        assert angular_distance((1.0, 1.0), (1.0, 1.0), (5.0, 5.0)) == 0.0

    def test_candidate_at_vehicle_location_returns_zero(self):
        assert angular_distance((1.0, 1.0), (2.0, 2.0), (1.0, 1.0)) == 0.0

    @given(loc=coords, dest=coords, cand=coords)
    @settings(max_examples=80, deadline=None)
    def test_bounded_between_zero_and_one(self, loc, dest, cand):
        value = angular_distance(loc, dest, cand)
        assert 0.0 <= value <= 1.0

    @given(pool=st.lists(coords, min_size=1, max_size=3),
           picks=st.tuples(*[st.integers(min_value=0, max_value=2)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_heading_computed_once_is_bit_identical(self, pool, picks):
        # A search computes the vehicle's own bearing once and scores every
        # candidate against it.  Drawing the three points from a pool of at
        # most three makes every coincidence (idle vehicle, candidate at the
        # vehicle, candidate at the destination) come up.
        loc, dest, cand = (pool[i % len(pool)] for i in picks)
        if dest == loc or cand == loc:
            two_bearings = 0.0
        else:
            two_bearings = (1.0 - math.cos(bearing(loc, dest)
                                           - bearing(loc, cand))) / 2.0
        assert angular_distance(loc, dest, cand).hex() == two_bearings.hex()
        hoisted = (0.0 if dest == loc else
                   angular_distance_from_heading(bearing(loc, dest), loc, cand))
        assert hoisted.hex() == two_bearings.hex()
