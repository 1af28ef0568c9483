"""Build a custom city from scratch and dispatch orders on it.

The library is not tied to the four built-in dataset analogues: this example
constructs a bespoke radial city, defines its own workload profile (an
evening-heavy "weekend" demand curve), generates a scenario from it and runs
FoodMatch with tightened batching (eta = 30 s) against the default setting.

It also demonstrates the lower-level API: computing a single order's shortest
delivery time, building batches by hand and inspecting the sparsified
FoodGraph of one accumulation window.

Run with::

    python examples/custom_city.py
"""

from __future__ import annotations

import numpy as np

from repro.core.batching import BatchingConfig, cluster_orders
from repro.core.foodgraph import build_sparsified_foodgraph, solve_matching
from repro.core.foodmatch import FoodMatchConfig, FoodMatchPolicy
from repro.network.distance_oracle import DistanceOracle
from repro.network.generators import radial_city
from repro.orders.costs import CostModel
from repro.sim.engine import SimulationConfig, simulate
from repro.workload.city import CityProfile
from repro.workload.generator import generate_scenario


def weekend_weights():
    """An evening-heavy demand curve (brunch bump, big dinner peak)."""
    weights = []
    for hour in range(24):
        if 10 <= hour <= 12:
            weights.append(1.5)
        elif 19 <= hour <= 23:
            weights.append(4.0)
        elif 13 <= hour <= 18:
            weights.append(0.8)
        else:
            weights.append(0.1)
    return tuple(weights)


def build_profile() -> CityProfile:
    return CityProfile(
        name="WeekendTown",
        network_factory=lambda: radial_city(rings=5, spokes=10, ring_spacing_km=0.6,
                                            seed=99),
        num_restaurants=30,
        num_vehicles=24,
        orders_per_day=420,
        mean_prep_minutes=12.0,
        hourly_weights=weekend_weights(),
        accumulation_window=120.0,
        restaurant_hotspots=3,
    )


def inspect_one_window(scenario, cost_model) -> None:
    """Show the batching + sparsified FoodGraph machinery on one window."""
    now = 20 * 3600.0 + 120.0
    window_orders = scenario.orders_between(20 * 3600.0, now)[:8]
    if not window_orders:
        print("  (no orders in the inspected window)")
        return
    batches, stats = cluster_orders(window_orders, cost_model, now,
                                    BatchingConfig(eta=120.0))
    print(f"  {len(window_orders)} orders clustered into {len(batches)} batches "
          f"({stats.merges} merges, final avg batch cost {stats.final_avg_cost:.1f}s)")
    vehicles = scenario.fresh_vehicles()[:10]
    graph = build_sparsified_foodgraph(batches, vehicles, cost_model, now, k=3,
                                       use_angular=True, gamma=0.5)
    matches = solve_matching(graph)
    # The edges are parallel arrays: batch_idx, vehicle_idx and weights.
    degrees = np.bincount(graph.vehicle_idx, minlength=len(vehicles))
    print(f"  sparsified FoodGraph: {graph.edge_count} finite edges "
          f"(per-vehicle degrees {degrees.tolist()}, cheapest "
          f"{graph.weights.min(initial=np.inf):.1f}s), "
          f"{graph.cost_evaluations} marginal-cost evaluations, "
          f"{len(matches)} batches matched")


def main() -> None:
    profile = build_profile()
    scenario = generate_scenario(profile, seed=21, start_hour=19, end_hour=22)
    oracle = DistanceOracle(scenario.network)
    cost_model = CostModel(oracle)

    print(f"Custom city '{profile.name}': {scenario.network.num_nodes} intersections, "
          f"{len(scenario.restaurants)} restaurants, {len(scenario.orders)} orders "
          f"in the simulated dinner period, {len(scenario.vehicles)} vehicles")
    print()
    print("Inside one accumulation window:")
    inspect_one_window(scenario, cost_model)
    print()

    config = SimulationConfig(delta=profile.accumulation_window,
                              start=19 * 3600.0, end=22 * 3600.0)
    for eta in (30.0, 60.0, 120.0):
        policy = FoodMatchPolicy(cost_model, FoodMatchConfig(eta=eta))
        result = simulate(scenario, policy, cost_model, config)
        print(f"eta={eta:>5.0f}s  XDT={result.xdt_hours_per_day():7.2f} h/day  "
              f"O/Km={result.orders_per_km():.3f}  "
              f"WT={result.waiting_hours_per_day():6.2f} h/day  "
              f"rejected={100 * result.rejection_rate:.1f}%")
    print()
    print("Tighter batching (small eta) trades operational efficiency (O/Km, WT)")
    print("for customer-facing delivery time, as in Fig. 8(a)-(c) of the paper.")


if __name__ == "__main__":
    main()
