"""Fig. 8(h)-(k): sensitivity to the per-vehicle FoodGraph degree bound k."""

from benchmarks.conftest import run_once
from repro.experiments import figures
from repro.experiments.runner import ExperimentSetting
from repro.workload.city import CITY_B

KS = (1, 2, 4, 8, 16)


def test_fig8hijk_k_sweep(benchmark, record_figure):
    setting = ExperimentSetting(profile=CITY_B, scale=0.2, start_hour=12, end_hour=13)
    result = run_once(benchmark, figures.fig8hijk_k_sweep, setting, ks=KS)
    record_figure(result, "fig8hijk_k_sweep.txt")
    series = result.data["series"]
    # Paper shape: the quality metrics barely move with k, while the running
    # time grows as the FoodGraph becomes denser — asserted on the route
    # plans searched per window (exact), not on the wall clock.
    xdt = series["xdt_hours"]
    assert max(xdt) <= 2.5 * max(1e-9, min(xdt))
    assert series["route_plans_per_window"][-1] >= series["route_plans_per_window"][0]
    print(result.rendered)
