"""Tests for the experiment runner, policy registry and caching."""

from dataclasses import replace

import pytest

from repro.core.foodmatch import FoodMatchPolicy
from repro.core.greedy import GreedyPolicy
from repro.core.km_baseline import KMPolicy
from repro.core.reyes import ReyesPolicy
from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    available_policies,
    build_policy,
    clear_cache,
    improvement_percent,
    materialize,
    run_policy_comparison,
    run_setting,
    setting_config,
)
from repro.experiments import runner
from repro.network.graph import SECONDS_PER_HOUR
from repro.workload.city import CITY_A


@pytest.fixture()
def small_setting():
    return ExperimentSetting(profile=CITY_A, scale=0.2, start_hour=12, end_hour=13,
                             seed=1)


class TestPolicyRegistry:
    def test_available_policies_listed(self):
        names = available_policies()
        assert {"foodmatch", "greedy", "km", "reyes"} <= set(names)

    @pytest.mark.parametrize("name,cls", [
        ("greedy", GreedyPolicy), ("km", KMPolicy), ("reyes", ReyesPolicy),
        ("foodmatch", FoodMatchPolicy), ("foodmatch-br", FoodMatchPolicy),
        ("foodmatch-br-bfs", FoodMatchPolicy), ("foodmatch-br-bfs-a", FoodMatchPolicy),
    ])
    def test_build_policy_types(self, cost_model, name, cls):
        assert isinstance(build_policy(name, cost_model), cls)

    def test_build_policy_unknown_name(self, cost_model):
        with pytest.raises(ValueError):
            build_policy("does-not-exist", cost_model)

    def test_ablation_variants_have_expected_toggles(self, cost_model):
        br = build_policy("foodmatch-br", cost_model)
        assert not br.config.use_bfs and not br.config.use_angular
        bfs = build_policy("foodmatch-br-bfs", cost_model)
        assert bfs.config.use_bfs and not bfs.config.use_angular
        full = build_policy("foodmatch-br-bfs-a", cost_model)
        assert full.config.use_bfs and full.config.use_angular

    def test_options_forwarded(self, cost_model):
        policy = build_policy("foodmatch", cost_model, eta=120.0, gamma=0.3)
        assert policy.config.eta == 120.0
        assert policy.config.gamma == 0.3

    def test_policy_spec_of(self):
        spec = PolicySpec.of("foodmatch", eta=90.0)
        assert spec.options_dict() == {"eta": 90.0}


class TestSettings:
    def test_resolved_delta_defaults_to_profile(self, small_setting):
        assert small_setting.resolved_delta() == CITY_A.accumulation_window

    def test_resolved_delta_override(self):
        setting = ExperimentSetting(profile=CITY_A, delta=240.0)
        assert setting.resolved_delta() == 240.0

    def test_with_seed(self, small_setting):
        assert small_setting.with_seed(9).seed == 9
        assert small_setting.seed == 1

    def test_materialize_caches_by_setting(self, small_setting):
        clear_cache()
        first_scenario, first_oracle = materialize(small_setting)
        second_scenario, second_oracle = materialize(small_setting)
        assert first_scenario is second_scenario
        assert first_oracle is second_oracle

    def test_materialize_distinguishes_seeds(self, small_setting):
        clear_cache()
        a, _ = materialize(small_setting)
        b, _ = materialize(small_setting.with_seed(7))
        assert a is not b

    def test_vehicle_fraction_reduces_fleet(self, small_setting):
        clear_cache()
        full, _ = materialize(small_setting)
        reduced, _ = materialize(ExperimentSetting(profile=CITY_A, scale=0.2,
                                                   start_hour=12, end_hour=13, seed=1,
                                                   vehicle_fraction=0.5))
        assert len(reduced.vehicles) < len(full.vehicles)


    @pytest.mark.parametrize("knobs", [
        {"repair_fraction": 0.5},
        {"event_resolution": "continuous"},
        {"latency_budget": 1.0},
    ])
    def test_run_time_knobs_share_the_materialized_world(self, small_setting,
                                                         knobs):
        clear_cache()
        base = materialize(small_setting)
        other = materialize(replace(small_setting, **knobs))
        assert other[0] is base[0] and other[1] is base[1]

    def test_each_materialized_network_is_private(self, small_setting):
        # Traffic overrides are written on the scenario's own network: one
        # cached setting's overrides must not show in another's.
        clear_cache()
        first, _ = materialize(small_setting)
        second, _ = materialize(small_setting.with_seed(7))
        assert first.network is not second.network
        u, v, _ = next(iter(first.network.edges()))
        first.network.set_edge_override(u, v, 3.0)
        try:
            assert second.network.edge_overrides() == {}
        finally:
            first.network.set_edge_override(u, v, 1.0)


class TestSettingConfig:
    @pytest.mark.parametrize("start_hour,end_hour,delta,event_resolution", [
        (12, 13, None, "window"),
        (11, 14, 240.0, "window"),
        (0, 24, 60.0, "continuous"),
        (18, 20, None, "continuous"),
    ])
    def test_derives_window_hours_and_resolution(self, start_hour, end_hour, delta,
                                                 event_resolution):
        setting = ExperimentSetting(profile=CITY_A, start_hour=start_hour,
                                    end_hour=end_hour, delta=delta,
                                    event_resolution=event_resolution)
        config = setting_config(setting)
        assert config.delta == setting.resolved_delta()
        assert config.start == start_hour * SECONDS_PER_HOUR
        assert config.end == end_hour * SECONDS_PER_HOUR
        assert config.event_resolution == event_resolution

    def test_run_setting_simulates_with_the_derived_config(self, small_setting,
                                                           monkeypatch):
        seen = []
        original = runner.simulate

        def recording(scenario, policy, cost_model, config, **kwargs):
            seen.append(config)
            return original(scenario, policy, cost_model, config, **kwargs)

        monkeypatch.setattr(runner, "simulate", recording)
        setting = replace(small_setting, delta=240.0)
        run_setting(setting, PolicySpec.of("greedy"))
        assert seen == [setting_config(setting)]


class TestRunning:
    def test_run_setting_produces_result(self, small_setting):
        result = run_setting(small_setting, PolicySpec.of("km"))
        assert result.policy_name == "km"
        assert result.city_name == "CityA"
        assert result.windows

    def test_run_policy_comparison_shares_workload(self, small_setting):
        results = run_policy_comparison(small_setting,
                                        [PolicySpec.of("km"), PolicySpec.of("greedy")])
        assert set(results) == {"km", "greedy"}
        assert results["km"].num_orders == results["greedy"].num_orders


class TestImprovementPercent:
    def test_lower_is_better(self):
        assert improvement_percent(100.0, 70.0) == pytest.approx(30.0)

    def test_higher_is_better(self):
        assert improvement_percent(0.5, 0.6, higher_is_better=True) == pytest.approx(20.0)

    def test_zero_baseline(self):
        assert improvement_percent(0.0, 5.0) == 0.0

    def test_negative_when_worse(self):
        assert improvement_percent(100.0, 130.0) == pytest.approx(-30.0)
