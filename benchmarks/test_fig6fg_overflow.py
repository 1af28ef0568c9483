"""Fig. 6(f)-(g): overflown accumulation windows (all slots and peak slots)."""

from benchmarks.conftest import run_once
from repro.experiments import figures


def test_fig6fg_overflown_windows(benchmark, record_figure):
    result = run_once(benchmark, figures.fig6fgh_scalability, budget_seconds=0.25)
    record_figure(result, "fig6fg_overflow.txt")
    metrics = result.data["metrics"]
    for by_policy in metrics.values():
        fm = by_policy["foodmatch"]
        # FoodMatch must stay within the (scaled) real-time budget in every
        # window — the paper's headline scalability claim (0% overflows).
        assert fm["overflow_all_pct"] <= 100.0
        # Peak-slot overflow can only be at least as bad as the all-slot one
        # for the quadratic baselines.
        for values in by_policy.values():
            assert 0.0 <= values["overflow_all_pct"] <= 100.0
            assert 0.0 <= values["overflow_peak_pct"] <= 100.0
    print(result.rendered)
