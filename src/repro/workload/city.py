"""City profiles mirroring Table II of the paper.

Each :class:`CityProfile` captures the relative scale and temporal shape of
one of the paper's datasets.  Absolute sizes are scaled down (the paper's
City B has 116k road nodes and 159k orders per day; a laptop-scale pure
Python reproduction works with hundreds of nodes and hundreds to a few
thousand orders) but the *relationships between the cities* are preserved:

* City B has the most orders, the most vehicles and the highest
  order-to-vehicle ratio;
* City C has more restaurants than City B but fewer orders and vehicles;
* City A is much smaller than both;
* GrubHub is tiny, has long preparation times and no road network (the
  Reyes setting), which the profile represents with a very small network
  and haversine-dominated distances.

The hourly order weights reproduce the two-peak (lunch/dinner) intensity of
Fig. 6(a), with per-city peak heights chosen so that the order-to-vehicle
ratio ordering of the figure (B > C > A) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.network.generators import (
    grid_city,
    metro_grid,
    radial_city,
    random_geometric_city,
)
from repro.network.graph import RoadNetwork


def _two_peak_weights(base: float = 0.4, lunch: float = 3.0, dinner: float = 3.5,
                      night: float = 0.08) -> tuple[float, ...]:
    """Hourly order-arrival weights with lunch (12-14h) and dinner (19-22h) peaks."""
    weights = []
    for hour in range(24):
        if 12 <= hour <= 14:
            weights.append(lunch)
        elif 19 <= hour <= 22:
            weights.append(dinner)
        elif 8 <= hour <= 11 or 15 <= hour <= 18:
            weights.append(base)
        else:
            weights.append(night)
    return tuple(weights)


@dataclass(frozen=True)
class CityProfile:
    """Parameters describing one synthetic city workload.

    Attributes
    ----------
    name:
        Human-readable name matching the paper's dataset labels.
    network_factory:
        Zero-argument callable returning the city's road network.
    num_restaurants, num_vehicles, orders_per_day:
        Scaled-down analogues of the Table II columns.
    mean_prep_minutes, prep_std_minutes:
        Parameters of the per-restaurant Gaussian preparation-time model.
    hourly_weights:
        Relative order intensity per 1-hour slot (Fig. 6(a) shape).
    delivery_radius_seconds:
        Customers are sampled from nodes within this travel time of their
        restaurant (the paper only shows restaurants within a radius).
    accumulation_window:
        Default Δ for the city (3 min for B and C, 1 min for A, per Sec. V-B).
    restaurant_hotspots:
        Number of spatial clusters restaurants are drawn from.
    """

    name: str
    network_factory: Callable[[], RoadNetwork]
    num_restaurants: int
    num_vehicles: int
    orders_per_day: int
    mean_prep_minutes: float
    prep_std_minutes: float = 2.0
    hourly_weights: tuple[float, ...] = field(default_factory=_two_peak_weights)
    delivery_radius_seconds: float = 1200.0
    accumulation_window: float = 180.0
    restaurant_hotspots: int = 4

    def scaled(self, scale: float) -> CityProfile:
        """Return a copy with order/vehicle/restaurant counts scaled by ``scale``.

        Used by tests and benchmarks to shrink a profile while keeping its
        ratios (and therefore the qualitative behaviour) intact.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return CityProfile(
            name=self.name,
            network_factory=self.network_factory,
            num_restaurants=max(1, round(self.num_restaurants * scale)),
            num_vehicles=max(1, round(self.num_vehicles * scale)),
            orders_per_day=max(1, round(self.orders_per_day * scale)),
            mean_prep_minutes=self.mean_prep_minutes,
            prep_std_minutes=self.prep_std_minutes,
            hourly_weights=self.hourly_weights,
            delivery_radius_seconds=self.delivery_radius_seconds,
            accumulation_window=self.accumulation_window,
            restaurant_hotspots=self.restaurant_hotspots,
        )

    def with_vehicles(self, num_vehicles: int) -> CityProfile:
        """Return a copy with a different fleet size (vehicle-sweep experiments)."""
        return CityProfile(
            name=self.name,
            network_factory=self.network_factory,
            num_restaurants=self.num_restaurants,
            num_vehicles=num_vehicles,
            orders_per_day=self.orders_per_day,
            mean_prep_minutes=self.mean_prep_minutes,
            prep_std_minutes=self.prep_std_minutes,
            hourly_weights=self.hourly_weights,
            delivery_radius_seconds=self.delivery_radius_seconds,
            accumulation_window=self.accumulation_window,
            restaurant_hotspots=self.restaurant_hotspots,
        )


# --------------------------------------------------------------------------- #
# The four dataset analogues of Table II, scaled down by roughly 1:50 in order
# volume and 1:300 in network size.  City B keeps the highest order/vehicle
# ratio, City C the largest restaurant count, City A the smallest everything,
# GrubHub the longest preparation times.
# --------------------------------------------------------------------------- #
CITY_A = CityProfile(
    name="CityA",
    network_factory=lambda: grid_city(rows=11, cols=11, block_km=0.45, seed=101),
    num_restaurants=40,
    num_vehicles=48,
    orders_per_day=460,
    mean_prep_minutes=8.45,
    hourly_weights=_two_peak_weights(base=0.45, lunch=2.2, dinner=2.6),
    accumulation_window=60.0,
    restaurant_hotspots=3,
)

CITY_B = CityProfile(
    name="CityB",
    network_factory=lambda: radial_city(rings=7, spokes=16, ring_spacing_km=0.55, seed=202),
    num_restaurants=130,
    num_vehicles=260,
    orders_per_day=3100,
    mean_prep_minutes=9.34,
    hourly_weights=_two_peak_weights(base=0.5, lunch=3.4, dinner=3.9),
    accumulation_window=180.0,
    restaurant_hotspots=5,
)

CITY_C = CityProfile(
    name="CityC",
    network_factory=lambda: grid_city(rows=16, cols=16, block_km=0.5, seed=303),
    num_restaurants=160,
    num_vehicles=210,
    orders_per_day=2200,
    mean_prep_minutes=10.22,
    hourly_weights=_two_peak_weights(base=0.5, lunch=2.9, dinner=3.3),
    accumulation_window=180.0,
    restaurant_hotspots=6,
)

GRUBHUB = CityProfile(
    name="GrubHub",
    network_factory=lambda: random_geometric_city(num_nodes=80, area_km=6.0, seed=404),
    num_restaurants=16,
    num_vehicles=18,
    orders_per_day=100,
    mean_prep_minutes=19.55,
    prep_std_minutes=4.0,
    hourly_weights=_two_peak_weights(base=0.5, lunch=2.0, dinner=2.2),
    accumulation_window=180.0,
    restaurant_hotspots=2,
)

def metro_profile(rows: int = 72, cols: int = 70, *, name: str = "Metro",
                  orders_per_thousand_nodes: float = 620.0,
                  vehicles_per_thousand_nodes: float = 52.0,
                  restaurants_per_thousand_nodes: float = 36.0,
                  seed: int = 505, **metro_kwargs) -> CityProfile:
    """A metro-scale profile over a :func:`repro.network.generators.metro_grid`.

    Unlike the fixed Table II analogues, the metro profile is parameterised
    by grid size so the same workload shape scales from the 5k-node CI smoke
    city to the paper's 50k+-node OSM extracts: restaurant/vehicle/order
    counts grow linearly with the node count (densities are per thousand
    nodes, tuned to City B's order-to-vehicle ratio).  Extra keyword
    arguments pass through to :func:`metro_grid`.
    """
    num_nodes = rows * cols
    per_k = num_nodes / 1000.0
    return CityProfile(
        name=name,
        network_factory=lambda: metro_grid(rows=rows, cols=cols, seed=seed,
                                           **metro_kwargs),
        num_restaurants=max(1, round(restaurants_per_thousand_nodes * per_k)),
        num_vehicles=max(1, round(vehicles_per_thousand_nodes * per_k)),
        orders_per_day=max(1, round(orders_per_thousand_nodes * per_k)),
        mean_prep_minutes=9.34,
        hourly_weights=_two_peak_weights(base=0.5, lunch=3.2, dinner=3.7),
        accumulation_window=180.0,
        restaurant_hotspots=8,
    )


#: Default metro profile: a ~5k-node city, big enough to exercise the
#: contraction hub ordering, small enough for CI smoke runs.
METRO = metro_profile()

CITY_PROFILES: dict[str, CityProfile] = {
    profile.name: profile for profile in (CITY_A, CITY_B, CITY_C, GRUBHUB, METRO)
}

__all__ = ["CityProfile", "CITY_A", "CITY_B", "CITY_C", "GRUBHUB", "METRO",
           "metro_profile", "CITY_PROFILES"]
