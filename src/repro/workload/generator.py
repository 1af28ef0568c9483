"""Order-stream, restaurant and fleet generators.

These functions turn a :class:`~repro.workload.city.CityProfile` into a fully
materialised :class:`Scenario`: a road network, a set of restaurants with
per-hour preparation-time models, a day-long stream of orders and a vehicle
fleet.  The generators reproduce the structural properties the paper's
evaluation exercises:

* restaurants cluster in a small number of commercial hot spots;
* order volume per hour follows the two-peak intensity of Fig. 6(a), with
  restaurant popularity following a Zipf-like distribution;
* customers are drawn from nodes within a bounded travel time of their
  restaurant (the app only shows nearby restaurants);
* preparation times are Gaussian per restaurant and hour slot;
* vehicles start at random nodes and work shifts that cover the whole day,
  so that fleet availability per slot tracks the profile's vehicle count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from repro.fleet.behavior import DriverBehavior
from repro.fleet.controller import FleetPlan
from repro.fleet.shifts import (
    FleetEvent,
    FleetTimeline,
    ShiftSchedule,
    staggered_schedules,
)
from repro.network.graph import RoadNetwork, SECONDS_PER_HOUR
from repro.network.shortest_path import dijkstra_all
from repro.seeding import spawn_seed
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle
from repro.traffic.events import TrafficEvent, TrafficTimeline
from repro.workload.city import CityProfile


@dataclass(frozen=True)
class Restaurant:
    """A restaurant with its node and per-hour preparation-time model."""

    restaurant_id: int
    node: int
    popularity: float
    prep_mean_by_hour: tuple[float, ...]
    prep_std: float

    def sample_prep_time(self, hour: int, rng: random.Random) -> float:
        """Draw a preparation time (seconds) for an order placed in ``hour``."""
        mean = self.prep_mean_by_hour[hour % 24]
        value = rng.gauss(mean, self.prep_std)
        return max(60.0, value)


@dataclass
class Scenario:
    """A fully materialised workload: network, restaurants, orders, fleet.

    ``traffic`` optionally carries the day's dynamic-traffic event timeline
    (incidents, closures, zonal rush hours); the simulator attaches a
    :class:`~repro.traffic.controller.TrafficController` for it automatically.
    ``fleet`` optionally carries the driver-lifecycle plan (shift schedules,
    supply events, behaviour model — see :mod:`repro.fleet`); the simulator
    attaches a :class:`~repro.fleet.controller.FleetController` for it the
    same way.  ``None`` keeps the seed static always-online fleet.
    """

    profile: CityProfile
    network: RoadNetwork
    restaurants: list[Restaurant]
    orders: list[Order]
    vehicles: list[Vehicle]
    seed: int
    traffic: TrafficTimeline = field(default_factory=TrafficTimeline.empty)
    fleet: FleetPlan | None = None

    @property
    def name(self) -> str:
        return self.profile.name

    def orders_between(self, start: float, end: float) -> list[Order]:
        """Orders placed in the half-open interval ``[start, end)``."""
        return [order for order in self.orders if start <= order.placed_at < end]

    def fresh_vehicles(self) -> list[Vehicle]:
        """Return an unused copy of the fleet (vehicles are mutable)."""
        return [Vehicle(vehicle_id=v.vehicle_id, node=v.node, shift_start=v.shift_start,
                        shift_end=v.shift_end, max_orders=v.max_orders, max_items=v.max_items)
                for v in self.vehicles]


def generate_restaurants(network: RoadNetwork, profile: CityProfile,
                         rng: random.Random) -> list[Restaurant]:
    """Place restaurants in spatial hot spots with Zipf-like popularity."""
    nodes = network.nodes
    hotspot_centers = rng.sample(nodes, min(profile.restaurant_hotspots, len(nodes)))
    restaurants: list[Restaurant] = []
    prep_mean_base = profile.mean_prep_minutes * 60.0
    for idx in range(profile.num_restaurants):
        center = hotspot_centers[idx % len(hotspot_centers)]
        node = _node_near(network, center, rng)
        popularity = 1.0 / (1.0 + idx) ** 0.7
        # Preparation times are slower during the peaks (kitchens are busy),
        # matching the per-slot Gaussian model of Sec. V-A.
        prep_by_hour = tuple(
            prep_mean_base * (1.25 if hour in (12, 13, 14, 19, 20, 21, 22) else 1.0)
            * rng.uniform(0.85, 1.15)
            for hour in range(24)
        )
        restaurants.append(Restaurant(
            restaurant_id=idx,
            node=node,
            popularity=popularity,
            prep_mean_by_hour=prep_by_hour,
            prep_std=profile.prep_std_minutes * 60.0,
        ))
    return restaurants


def _node_near(network: RoadNetwork, center: int, rng: random.Random,
               hops: int = 3) -> int:
    """Pick a node within a few hops of ``center`` (restaurant hot-spotting)."""
    frontier = {center}
    for _ in range(hops):
        expansion = set()
        for node in frontier:
            expansion.update(nbr for nbr, _ in network.neighbors(node))
        frontier |= expansion
    return rng.choice(sorted(frontier))


def generate_orders(network: RoadNetwork, restaurants: Sequence[Restaurant],
                    profile: CityProfile, rng: random.Random,
                    start_hour: int = 0, end_hour: int = 24) -> list[Order]:
    """Generate a day's order stream following the profile's hourly weights.

    The expected number of orders per hour is ``orders_per_day`` split
    proportionally to ``hourly_weights`` (restricted to the requested hour
    range); the realised count per hour is Poisson-like via independent
    Bernoulli thinning of a slightly inflated candidate count, keeping the
    generator dependency-free and deterministic under the seed.
    """
    weights = profile.hourly_weights
    hours = list(range(start_hour, end_hour))
    # Normalise against the whole day so that restricting the hour range
    # truncates the stream instead of compressing a day's volume into it.
    total_weight = sum(weights)
    if total_weight <= 0 or not hours:
        return []
    reachable_cache: dict[int, list[int]] = {}
    orders: list[Order] = []
    order_id = 0
    popularity_total = sum(r.popularity for r in restaurants)
    for hour in hours:
        expected = profile.orders_per_day * weights[hour] / total_weight
        count = _sample_count(expected, rng)
        for _ in range(count):
            restaurant = _pick_restaurant(restaurants, popularity_total, rng)
            placed_at = hour * SECONDS_PER_HOUR + rng.uniform(0.0, SECONDS_PER_HOUR)
            customer = _pick_customer(network, restaurant.node,
                                      profile.delivery_radius_seconds,
                                      reachable_cache, rng)
            prep = restaurant.sample_prep_time(hour, rng)
            items = 1 + min(4, int(rng.expovariate(1.2)))
            orders.append(Order(
                order_id=order_id,
                restaurant_node=restaurant.node,
                customer_node=customer,
                placed_at=placed_at,
                items=items,
                prep_time=prep,
                restaurant_id=restaurant.restaurant_id,
            ))
            order_id += 1
    orders.sort(key=lambda o: (o.placed_at, o.order_id))
    return orders


def _sample_count(expected: float, rng: random.Random) -> int:
    """Sample an integer with the given mean (Poisson via exponential gaps)."""
    if expected <= 0:
        return 0
    count = 0
    total = rng.expovariate(1.0)
    while total < expected:
        count += 1
        total += rng.expovariate(1.0)
    return count


def _pick_restaurant(restaurants: Sequence[Restaurant], popularity_total: float,
                     rng: random.Random) -> Restaurant:
    target = rng.uniform(0.0, popularity_total)
    acc = 0.0
    for restaurant in restaurants:
        acc += restaurant.popularity
        if acc >= target:
            return restaurant
    return restaurants[-1]


def _pick_customer(network: RoadNetwork, restaurant_node: int, radius_seconds: float,
                   cache: dict[int, list[int]], rng: random.Random) -> int:
    """Pick a customer node within ``radius_seconds`` travel of the restaurant."""
    candidates = cache.get(restaurant_node)
    if candidates is None:
        reachable = dijkstra_all(network, restaurant_node, t=0.0, cutoff=radius_seconds)
        candidates = [node for node, dist in reachable.items()
                      if node != restaurant_node and dist > 0.0]
        if not candidates:
            candidates = [node for node in network.nodes if node != restaurant_node]
        cache[restaurant_node] = candidates
    return rng.choice(candidates)


#: Named traffic intensities accepted by :func:`generate_traffic_timeline`
#: and the CLI ``--traffic`` flag, as events-per-simulated-hour scale factors.
#: Numeric values are accepted everywhere a name is (the *event density*
#: knob the ``event_density`` sweep exercises).  ``severe`` runs the
#: ``heavy`` event mix but fully severs half of its closures
#: (``factor=inf`` — the roads genuinely disappear instead of slowing).
TRAFFIC_INTENSITIES = {"none": 0.0, "light": 1.0, "heavy": 3.0, "severe": 3.0}

#: Fraction of generated closures that fully sever, per named intensity.
_SEVER_FRACTIONS = {"severe": 0.5}


def generate_traffic_timeline(network: RoadNetwork, rng: random.Random,
                              intensity: str = "light",
                              start_hour: int = 0, end_hour: int = 24,
                              sever_fraction: float | None = None,
                              ) -> TrafficTimeline:
    """Generate a day's dynamic-traffic event timeline for a network.

    ``intensity`` is a named level from :data:`TRAFFIC_INTENSITIES` (or a
    numeric events-per-hour scale — the sweepable *event density* knob).
    The mix follows what city traffic feeds report: mostly short localised
    incidents, occasional closures, zonal rush-hour slowdowns around busy
    nodes, and (at higher intensities) wide weather slowdowns.
    ``sever_fraction`` turns that share of the generated closures into
    *severed* closures (``factor=inf``); it defaults to the named
    intensity's convention (only ``severe`` severs).  The severing draws
    happen after every event draw, so timelines at ``sever_fraction=0`` are
    bit-identical to the pre-severing generator.  All draws come from
    ``rng``, so timelines are deterministic under the workload seed.
    """
    if isinstance(intensity, str):
        scale = TRAFFIC_INTENSITIES[intensity]
        if sever_fraction is None:
            sever_fraction = _SEVER_FRACTIONS.get(intensity, 0.0)
    else:
        scale = float(intensity)
    sever_fraction = sever_fraction or 0.0
    hours = max(0, end_hour - start_hour)
    edges = [(u, v) for u, v, _ in network.edges()]
    if scale <= 0.0 or hours == 0 or not edges:
        return TrafficTimeline.empty()
    window = (start_hour * SECONDS_PER_HOUR, end_hour * SECONDS_PER_HOUR)
    nodes = network.nodes
    events: list[TrafficEvent] = []

    def begin(duration: float) -> float:
        latest = max(window[0], window[1] - duration)
        return rng.uniform(window[0], latest)

    def both_directions(u: int, v: int) -> tuple[tuple[int, int], ...]:
        scope = [(u, v)]
        if network.has_edge(v, u):
            scope.append((v, u))
        return tuple(scope)

    for _ in range(max(1, round(0.75 * scale * hours))):
        u, v = rng.choice(edges)
        duration = rng.uniform(600.0, 1800.0)
        events.append(TrafficEvent(
            event_id=len(events), kind="incident",
            start=(start := begin(duration)), end=start + duration,
            factor=rng.uniform(2.0, 3.5), edges=both_directions(u, v)))
    for _ in range(round(0.25 * scale * hours)):
        u, v = rng.choice(edges)
        duration = rng.uniform(1200.0, 3600.0)
        events.append(TrafficEvent(
            event_id=len(events), kind="closure",
            start=(start := begin(duration)), end=start + duration,
            edges=both_directions(u, v)))
    for _ in range(round(0.3 * scale * hours)):
        duration = rng.uniform(3600.0, 7200.0)
        events.append(TrafficEvent(
            event_id=len(events), kind="rush_hour",
            start=(start := begin(duration)), end=start + duration,
            factor=rng.uniform(1.3, 1.7), zone_center=rng.choice(nodes),
            zone_radius_seconds=rng.uniform(180.0, 420.0)))
    for _ in range(round(0.1 * scale * hours)):
        duration = rng.uniform(3600.0, 10800.0)
        events.append(TrafficEvent(
            event_id=len(events), kind="weather",
            start=(start := begin(duration)), end=start + duration,
            factor=rng.uniform(1.15, 1.4), zone_center=rng.choice(nodes),
            zone_radius_seconds=1200.0))
    if sever_fraction > 0.0:
        # Drawn strictly after every event draw so lower intensities (and
        # sever_fraction=0) replay the exact pre-severing event stream.
        events = [replace(event, factor=math.inf)
                  if event.kind == "closure" and rng.random() < sever_fraction
                  else event
                  for event in events]
    return TrafficTimeline(tuple(events))


#: Named fleet-dynamics modes accepted by :func:`generate_fleet_plan` and the
#: CLI ``--fleet`` flag.  ``none`` keeps the seed static fleet; ``shifts``
#: adds per-vehicle login/logout/break schedules; ``full`` adds supply events
#: (surge onboarding, zonal drains), stochastic offer rejection, kitchen
#: delays and hot-spot repositioning on top.
FLEET_MODES = ("none", "shifts", "full")


def generate_fleet_plan(network: RoadNetwork, vehicles: Sequence[Vehicle],
                        rng: random.Random, mode: str = "none",
                        start_hour: int = 0, end_hour: int = 24,
                        ) -> tuple[FleetPlan | None, list[Vehicle]]:
    """Generate a day's driver-lifecycle plan for an existing fleet.

    Returns ``(plan, reserve_vehicles)``: the reserves are *extra* vehicles
    (empty base schedule, activated only by surge-onboarding events) the
    caller must append to the scenario's fleet.  ``mode`` is a named level
    from :data:`FLEET_MODES`.  All draws come from ``rng``, so plans are
    deterministic under the workload seed and the base scenario content is
    identical across modes.
    """
    if mode not in FLEET_MODES:
        raise ValueError(f"unknown fleet mode {mode!r}; known: {FLEET_MODES}")
    if mode == "none" or not vehicles:
        return None, []
    start = start_hour * SECONDS_PER_HOUR
    end = end_hour * SECONDS_PER_HOUR
    ids = [vehicle.vehicle_id for vehicle in vehicles]
    schedules = staggered_schedules(ids, start, end, rng, coverage=0.85)
    if mode == "shifts":
        return FleetPlan(schedules=schedules, timeline=FleetTimeline.empty(),
                         behavior=None, repositioning="stay",
                         seed=rng.randrange(2 ** 31)), []

    # Full dynamics: a reserve pool for surges, supply events, stochastic
    # behaviour and hot-spot repositioning.
    nodes = network.nodes
    horizon = max(1.0, end - start)
    hours = max(1, end_hour - start_hour)
    next_id = max(ids) + 1
    num_reserves = max(1, round(0.15 * len(ids)))
    # Reserves keep the default all-day *vehicle-level* window: duty is gated
    # entirely by their (empty) schedule plus surge intervals, and policies
    # re-check vehicle.is_on_duty internally — a zero-length vehicle window
    # would silently veto every assignment a surge makes possible.
    reserves = [Vehicle(vehicle_id=next_id + offset, node=rng.choice(nodes))
                for offset in range(num_reserves)]
    for vehicle in reserves:
        schedules[vehicle.vehicle_id] = ShiftSchedule.off()

    def begin(duration: float) -> float:
        latest = max(start, end - duration)
        return rng.uniform(start, latest)

    events: list[FleetEvent] = []
    for _ in range(max(1, round(hours / 3))):
        duration = min(horizon, rng.uniform(1800.0, 5400.0))
        events.append(FleetEvent(
            event_id=len(events), kind="surge_onboarding",
            start=(first := begin(duration)), end=first + duration,
            count=max(1, round(num_reserves * rng.uniform(0.4, 1.0)))))
    for _ in range(max(1, round(hours / 2))):
        duration = min(horizon, rng.uniform(1200.0, 3600.0))
        events.append(FleetEvent(
            event_id=len(events), kind="driver_drain",
            start=(first := begin(duration)), end=first + duration,
            fraction=rng.uniform(0.2, 0.45), zone_center=rng.choice(nodes),
            zone_radius_seconds=rng.uniform(240.0, 480.0)))
    plan = FleetPlan(
        schedules=schedules,
        timeline=FleetTimeline(tuple(events)),
        behavior=DriverBehavior(seed=rng.randrange(2 ** 31)),
        repositioning="hotspot",
        seed=rng.randrange(2 ** 31),
        reserve_ids=tuple(vehicle.vehicle_id for vehicle in reserves),
    )
    return plan, reserves


def generate_vehicles(network: RoadNetwork, profile: CityProfile,
                      rng: random.Random) -> list[Vehicle]:
    """Create the vehicle fleet, spread over the network with all-day shifts.

    The paper sets a vehicle's initial position to its first GPS ping of the
    test day; here the initial node is uniform over the network.  Shifts span
    the whole day with small random staggering so the per-slot availability
    is essentially constant, as assumed by the order/vehicle-ratio figure.
    """
    nodes = network.nodes
    vehicles: list[Vehicle] = []
    for idx in range(profile.num_vehicles):
        node = rng.choice(nodes)
        shift_start = rng.uniform(0.0, 1.0) * SECONDS_PER_HOUR * 0.5
        vehicles.append(Vehicle(
            vehicle_id=idx,
            node=node,
            shift_start=shift_start,
            shift_end=86400.0,
        ))
    return vehicles


def generate_scenario(profile: CityProfile, seed: int = 0,
                      start_hour: int = 0, end_hour: int = 24,
                      traffic: str | float = "none",
                      fleet: str = "none",
                      network: RoadNetwork | None = None) -> Scenario:
    """Materialise a complete scenario for a city profile.

    ``start_hour`` / ``end_hour`` restrict the generated order stream (the
    experiments frequently simulate only the lunch window to keep runtimes
    reasonable); the fleet and restaurants are always generated in full.
    ``traffic`` selects a dynamic-traffic intensity from
    :data:`TRAFFIC_INTENSITIES` — or a numeric events-per-hour density, the
    knob the ``event_density`` sweep varies — (``"none"`` keeps the network
    static, as in earlier revisions); ``fleet`` selects a driver-lifecycle
    mode from
    :data:`FLEET_MODES` (``"none"`` keeps the static always-online fleet).
    Both draw from seeds derived from the workload seed, so the base
    scenario content is identical across traffic/fleet modes.

    ``network`` substitutes a pre-materialised network for the one
    ``profile.network_factory`` would build, for a caller that builds (and
    times) the network itself.  The caller is responsible for it being
    equivalent to the factory's output (same nodes, edges and weights in
    the same order); workload generation is then bit-identical to the
    owned-network scenario.
    """
    rng = random.Random(seed)
    if network is None:
        network = profile.network_factory()
    restaurants = generate_restaurants(network, profile, rng)
    orders = generate_orders(network, restaurants, profile, rng,
                             start_hour=start_hour, end_hour=end_hour)
    vehicles = generate_vehicles(network, profile, rng)
    # Derived streams use hierarchical hashed seeds (not fixed offsets): an
    # offset scheme makes the traffic stream of seed s the workload stream
    # of seed s + offset, so sweeps over several seeds could replay
    # correlated randomness across cells.
    timeline = generate_traffic_timeline(network,
                                         random.Random(spawn_seed(seed, "traffic")),
                                         intensity=traffic,
                                         start_hour=start_hour, end_hour=end_hour)
    fleet_plan, reserves = generate_fleet_plan(network, vehicles,
                                               random.Random(spawn_seed(seed, "fleet")),
                                               mode=fleet,
                                               start_hour=start_hour,
                                               end_hour=end_hour)
    return Scenario(profile=profile, network=network, restaurants=restaurants,
                    orders=orders, vehicles=vehicles + reserves, seed=seed,
                    traffic=timeline, fleet=fleet_plan)


__all__ = [
    "Restaurant",
    "Scenario",
    "TRAFFIC_INTENSITIES",
    "FLEET_MODES",
    "generate_restaurants",
    "generate_orders",
    "generate_vehicles",
    "generate_traffic_timeline",
    "generate_fleet_plan",
    "generate_scenario",
]
