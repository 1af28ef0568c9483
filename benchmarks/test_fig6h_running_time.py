"""Fig. 6(h): per-window running time of Greedy, KM and FoodMatch.

Two complementary measurements:

* the mean decision time per accumulation window over a simulated peak
  period (part of the Fig. 6(f)-(h) harness), and
* a single-window scaling experiment at a fixed peak order/vehicle ratio,
  where the asymptotic ordering of the paper (Greedy slowest) emerges and
  the machine-independent work measure (shortest-path queries per window)
  shows the sparsified FoodGraph doing less work than the full construction.
"""

from benchmarks.conftest import run_once
from repro.experiments import figures


def test_fig6h_single_window_running_time(benchmark, record_figure):
    result = run_once(benchmark, figures.fig6h_single_window_scaling,
                      order_counts=(20, 40, 80), num_vehicles=300)
    record_figure(result, "fig6h_running_time.txt")
    series = result.data["series"]
    largest = -1
    # Greedy is the slowest strategy on the largest window (paper: Fig. 6(h)).
    assert series["greedy"][largest] > series["km"][largest]
    assert series["greedy"][largest] > series["foodmatch"][largest]
    # Decision time grows with the window size for every policy.
    for values in series.values():
        assert values[-1] > values[0]
    print(result.rendered)
