"""Fig. 8(d)-(g): sensitivity to the accumulation window length Δ."""

from benchmarks.conftest import run_once
from repro.experiments import figures
from repro.experiments.runner import ExperimentSetting
from repro.workload.city import CITY_B

DELTAS = (60.0, 120.0, 180.0, 240.0)


def test_fig8defg_delta_sweep(benchmark, record_figure):
    setting = ExperimentSetting(profile=CITY_B, scale=0.12, start_hour=12, end_hour=13)
    result = run_once(benchmark, figures.fig8defg_delta_sweep, setting, deltas=DELTAS)
    record_figure(result, "fig8defg_delta_sweep.txt")
    series = result.data["series"]
    # Paper shape: larger windows delay assignments, so XDT grows with Delta,
    # while accumulating more orders per window improves O/Km, and the
    # per-window decision time increases.  The last is asserted on the route
    # plans searched per window — the work the time is spent on, which
    # repeats exactly — not on ~20 ms wall-clock readings.
    assert series["xdt_hours"][-1] >= series["xdt_hours"][0] * 0.9
    assert series["orders_per_km"][-1] >= series["orders_per_km"][0] * 0.9
    assert series["route_plans_per_window"][-1] > series["route_plans_per_window"][0]
    print(result.rendered)
