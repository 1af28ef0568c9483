"""Tests for the process-parallel experiment executor.

The load-bearing guarantees: parallel sweeps are bit-identical to serial
ones (golden fingerprint comparison) — also on a network large enough for
hub labels — one failing cell never loses the sweep, custom profiles resolve inside workers, and the
session-default jobs plumbing validates its inputs.
"""

import signal

import pytest

from repro.experiments import executor
from repro.experiments.executor import (
    CellFailure,
    ExperimentCell,
    PROFILE_REGISTRY,
    register_profile,
    replicate_cells,
    resolve_jobs,
    result_fingerprint,
    run_cells,
    set_default_jobs,
)
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    clear_cache,
    run_policy_comparison,
)
from repro.network.generators import random_geometric_city
from repro.workload.city import CITY_PROFILES, CityProfile, metro_profile

SMALL = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.1,
                          start_hour=12, end_hour=13, seed=3)


def _bench_network():
    return random_geometric_city(num_nodes=70, seed=5)


CUSTOM_PROFILE = CityProfile(
    name="ExecutorTestCity",
    network_factory=_bench_network,
    num_restaurants=6,
    num_vehicles=8,
    orders_per_day=120,
    mean_prep_minutes=8.0,
    accumulation_window=120.0,
)


class TestGoldenParallelIdentity:
    def test_jobs4_bit_identical_to_jobs1(self):
        cells = [ExperimentCell(SMALL.with_seed(seed), PolicySpec.of(policy))
                 for policy in ("km", "greedy") for seed in (3, 4)]
        clear_cache()
        serial = run_cells(cells, jobs=1)
        clear_cache()
        parallel = run_cells(cells, jobs=4)
        serial_prints = [result_fingerprint(outcome.require()) for outcome in serial]
        parallel_prints = [result_fingerprint(outcome.require()) for outcome in parallel]
        assert serial_prints == parallel_prints
        # Results come back in submission order regardless of completion order.
        assert [outcome.cell for outcome in parallel] == cells

    def test_parallel_comparison_matches_serial(self):
        specs = [PolicySpec.of("km"), PolicySpec.of("greedy")]
        serial = run_policy_comparison(SMALL, specs)
        parallel = run_policy_comparison(SMALL, specs, jobs=2)
        assert set(serial) == set(parallel)
        for name in serial:
            assert (result_fingerprint(serial[name])
                    == result_fingerprint(parallel[name]))

    def test_hub_label_metro_jobs4_bit_identical_to_jobs1(self):
        # A metro profile above the oracle's hub-label threshold, so every
        # worker builds and queries its own hub labels.
        profile = metro_profile(16, 15, name="ExecutorMetro", seed=11)
        setting = ExperimentSetting(profile=profile, scale=0.25,
                                    start_hour=12, end_hour=13, seed=2)
        cells = [ExperimentCell(setting.with_seed(seed), PolicySpec.of(policy))
                 for policy in ("km", "greedy") for seed in (2, 3)]
        clear_cache()
        serial = run_cells(cells, jobs=1)
        clear_cache()
        parallel = run_cells(cells, jobs=4)
        assert ([result_fingerprint(outcome.require()) for outcome in serial]
                == [result_fingerprint(outcome.require()) for outcome in parallel])

    def test_custom_profile_resolves_in_workers(self):
        setting = ExperimentSetting(profile=CUSTOM_PROFILE, scale=1.0,
                                    start_hour=12, end_hour=13, seed=1)
        cells = [ExperimentCell(setting, PolicySpec.of("km")),
                 ExperimentCell(setting.with_seed(2), PolicySpec.of("km"))]
        outcomes = run_cells(cells, jobs=2)
        assert all(outcome.ok for outcome in outcomes)
        assert CUSTOM_PROFILE.name in PROFILE_REGISTRY


class TestFailureIsolation:
    def test_failing_cell_does_not_lose_the_sweep(self):
        cells = [
            ExperimentCell(SMALL, PolicySpec.of("km")),
            # Unknown constructor option: raises inside the worker.
            ExperimentCell(SMALL, PolicySpec.of("foodmatch", bogus_option=1)),
            ExperimentCell(SMALL, PolicySpec.of("greedy")),
        ]
        outcomes = run_cells(cells, jobs=2)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert "bogus_option" in outcomes[1].error
        with pytest.raises(CellFailure, match="bogus_option"):
            outcomes[1].require()
        # The healthy cells produced full results.
        assert outcomes[0].require().num_orders > 0

    def test_serial_path_isolates_failures_too(self):
        cells = [
            ExperimentCell(SMALL, PolicySpec.of("foodmatch", bogus_option=1)),
            ExperimentCell(SMALL, PolicySpec.of("km")),
        ]
        outcomes = run_cells(cells, jobs=1)
        assert not outcomes[0].ok and outcomes[1].ok


class TestPlumbing:
    def test_workers_do_not_inherit_the_drivers_sigterm_handler(self):
        # Pool.terminate() stops workers with SIGTERM.  The CLI's handler
        # raises an Exception, which the pool's worker loop can swallow
        # (around sending a result): the driver then joins forever.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            executor._worker_init()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_replicate_cells_deterministic_and_distinct(self):
        specs = [PolicySpec.of("km"), PolicySpec.of("greedy")]
        first = replicate_cells(SMALL, specs, replicates=3)
        second = replicate_cells(SMALL, specs, replicates=3)
        assert [cell.setting.seed for cell in first] == \
            [cell.setting.seed for cell in second]
        seeds = {cell.setting.seed for cell in first}
        # Same replicate index shares its workload seed across policies
        # (paired comparison); across replicates the seeds are distinct.
        assert len(seeds) == 3
        with pytest.raises(ValueError):
            replicate_cells(SMALL, specs, replicates=0)

    def test_resolve_jobs_and_default(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        set_default_jobs(2)
        try:
            assert resolve_jobs(None) == 2
        finally:
            set_default_jobs(1)
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            set_default_jobs(0)

    def test_register_profile(self):
        register_profile(CUSTOM_PROFILE)
        assert PROFILE_REGISTRY["ExecutorTestCity"] is CUSTOM_PROFILE

    def test_progress_callback_streams(self):
        cells = [ExperimentCell(SMALL.with_seed(seed), PolicySpec.of("km"))
                 for seed in (3, 4)]
        seen = []
        run_cells(cells, jobs=2,
                  on_result=lambda outcome, done, total: seen.append((done, total)))
        assert sorted(seen) == [(1, 2), (2, 2)]

    def test_warm_oracle_rerun_bit_identical(self):
        # Regression: a traffic run leaves repaired hub labels behind even
        # when every override expired before end of day; repaired labels
        # answer queries with last-ULP differences vs a fresh build, so a
        # rerun on the cached oracle used to diverge from the first run.
        # reset_traffic_state now restores the bit-pristine state.
        from repro.experiments.executor import _run_cell

        setting = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.15,
                                    start_hour=12, end_hour=13, seed=7,
                                    traffic="heavy")
        spec = PolicySpec.of("greedy")
        clear_cache()
        prints = [result_fingerprint(_run_cell(setting, spec)) for _ in range(2)]
        assert prints[0] == prints[1]

    def test_fingerprint_discriminates(self):
        results = run_cells([ExperimentCell(SMALL, PolicySpec.of("km")),
                             ExperimentCell(SMALL.with_seed(9), PolicySpec.of("km"))],
                            jobs=1)
        a, b = (outcome.require() for outcome in results)
        assert result_fingerprint(a) != result_fingerprint(b)
        assert result_fingerprint(a) == result_fingerprint(a)
