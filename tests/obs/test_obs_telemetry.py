"""Telemetry end to end: engine instrumentation, modes, executor merge.

The load-bearing guarantees of the observability PR:

* observing a run never changes it — fingerprints are bit-identical
  across ``off`` / ``summary`` / ``trace`` modes;
* the engine's ``decision_seconds`` metric (charged into vehicle clocks,
  part of the paper's reproduction) keeps being measured in every mode,
  including the no-op default;
* ``summary`` mode aggregates phases in bounded memory, ``trace`` mode
  additionally keeps a well-formed span tree; and
* per-cell traces from ``--jobs 4`` workers merge into one valid
  campaign trace, identical in structure to the serial merge.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import obs
from repro.core.foodmatch import FoodMatchPolicy
from repro.core.km_baseline import KMPolicy
from repro.experiments.executor import (
    ExperimentCell,
    merge_cell_traces,
    result_fingerprint,
    run_cells,
)
from repro.experiments.runner import ExperimentSetting, PolicySpec, clear_cache
from repro.network.distance_oracle import DistanceOracle
from repro.obs.trace import rollup
from repro.orders.costs import CostModel
from repro.sim.engine import SimulationConfig, Simulator
from repro.workload.city import CITY_PROFILES, metro_profile
from repro.workload.generator import generate_scenario

#: Span names the engine must emit on any windowed run (more appear with
#: traffic/fleet controllers and the continuous event clock).
ENGINE_PHASES = {"engine.window", "engine.advance", "engine.ingest",
                 "engine.decide", "engine.apply", "engine.drain"}


def _run(mode: str, traffic: str = "none", seed: int = 7, scale: float = 0.08,
         make_policy=FoodMatchPolicy):
    obs.set_mode(mode)
    try:
        profile = CITY_PROFILES["CityA"].scaled(scale)
        scenario = generate_scenario(profile, seed=seed, start_hour=12,
                                     end_hour=13, traffic=traffic)
        oracle = DistanceOracle(scenario.network)
        cost_model = CostModel(oracle)
        policy = make_policy(cost_model)
        config = SimulationConfig(delta=300.0, start=12 * 3600.0,
                                  end=13 * 3600.0)
        return Simulator(scenario, policy, cost_model, config).run()
    finally:
        obs.set_mode("off")


class TestModeIdentity:
    def test_fingerprints_identical_across_modes(self):
        prints = {mode: result_fingerprint(_run(mode))
                  for mode in ("off", "summary", "trace")}
        assert prints["off"] == prints["summary"] == prints["trace"]

    def test_decision_seconds_measured_in_every_mode(self):
        for mode in ("off", "summary", "trace"):
            result = _run(mode)
            decided = [w for w in result.windows if w.num_assigned_orders]
            assert decided, "workload produced no assignments"
            assert all(w.decision_seconds > 0.0 for w in decided), (
                f"decision_seconds lost under obs mode {mode!r}")

    def test_off_mode_attaches_no_telemetry(self):
        assert _run("off").telemetry is None


class TestSummaryMode:
    def test_phase_stats_cover_engine_phases(self):
        telemetry = _run("summary").telemetry
        assert telemetry.mode == "summary"
        assert ENGINE_PHASES <= set(telemetry.phase_stats)
        assert telemetry.spans == []  # bounded memory: no record retention
        window = telemetry.phase_stats["engine.window"]
        assert window["count"] == 12  # one hour at delta=300
        assert window["p50"] <= window["p99"]

    def test_counters_fold_in_oracle_and_cost_work(self):
        telemetry = _run("summary").telemetry
        assert telemetry.counters["oracle.queries"] > 0
        assert telemetry.counters["cost.route_plans"] > 0
        assert "oracle.cache.hits{cache=point}" in telemetry.counters

    def test_traffic_counters_present_with_controller(self):
        telemetry = _run("summary", traffic="light").telemetry
        assert telemetry.counters["traffic.advances"] > 0
        assert "oracle.traffic_update" in telemetry.phase_stats

    def test_counters_are_per_run_deltas(self):
        # Two identical runs on fresh oracles must report identical counter
        # deltas — cumulative leakage would double the second run's numbers.
        first = _run("summary").telemetry
        second = _run("summary").telemetry
        assert first.counters["oracle.queries"] == \
            second.counters["oracle.queries"]
        assert first.counters["cost.route_plans"] == \
            second.counters["cost.route_plans"]

    def test_telemetry_is_picklable(self):
        telemetry = _run("summary").telemetry
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.phase_stats == telemetry.phase_stats
        assert clone.counters == telemetry.counters


class TestTraceMode:
    def test_span_tree_is_well_formed(self):
        telemetry = _run("trace").telemetry
        assert telemetry.mode == "trace"
        spans = telemetry.spans
        assert len(spans) > 12  # at least one child per window
        ids = {record["span"] for record in spans}
        assert len(ids) == len(spans)
        for record in spans:
            assert record["end"] >= record["start"] >= 0.0
            if record["parent"] is not None:
                assert record["parent"] in ids
                assert record["depth"] >= 1

    def test_rollup_matches_phase_stats(self):
        telemetry = _run("trace").telemetry
        report = rollup(telemetry.spans)
        for name, stats in telemetry.phase_stats.items():
            if stats["count"] and name in report:
                assert report[name]["count"] == stats["count"]
                assert report[name]["total_seconds"] == pytest.approx(
                    stats["total_seconds"])

    def test_route_plan_histogram_is_trace_mode_only(self):
        # Route plans are searched in bulk: summary mode counts plans and
        # kernel passes, trace mode adds one latency sample per kernel pass
        # (one pass covers every same-shape request of a bulk call).
        # (At the default scale every window is small enough for the Python
        # scan and the kernel never runs.)
        summary = _run("summary", scale=0.4).telemetry
        trace = _run("trace", scale=0.4).telemetry
        assert "cost.route_plan" not in summary.phase_stats
        assert summary.counters["cost.kernel_passes"] > 0
        assert trace.phase_stats["cost.route_plan"]["count"] == \
            trace.counters["cost.kernel_passes"]
        assert trace.counters["cost.kernel_passes"] < \
            trace.counters["cost.route_plans"]
        assert trace.counters == summary.counters

    def test_planning_spans_and_search_effort(self):
        # The planning phases are a handful of passes per window, so they
        # get child spans in summary mode, and every window leaves one
        # sample of each search-effort counter.
        telemetry = _run("summary", scale=0.4).telemetry
        stats = telemetry.phase_stats
        assert {"batching.plan", "foodgraph.explore", "foodgraph.plan"} <= set(stats)
        assert stats["foodgraph.plan"]["total_seconds"] <= \
            stats["policy.foodgraph"]["total_seconds"]
        assert stats["batching.plan"]["total_seconds"] <= \
            stats["policy.batching"]["total_seconds"]
        windows = stats["policy.foodgraph"]["count"]
        for name in ("kernel_passes", "kernel_rows", "kernel_steps",
                     "base_plans_reused", "foodgraph_rounds", "foodgraph_searches",
                     "foodgraph_searches_reused"):
            assert telemetry.histograms[f"search.{name}"]["count"] == windows
        for name in ("kernel_passes", "kernel_rows", "kernel_steps"):
            assert telemetry.histograms[f"search.{name}"]["sum"] == \
                telemetry.counters[f"cost.{name}"]
        # Shared prefixes are walked once: fewer stops than rows x stops.
        assert 0 < telemetry.counters["cost.kernel_steps"] < \
            8 * telemetry.counters["cost.kernel_rows"]
        assert telemetry.histograms["search.foodgraph_rounds"]["min"] >= 1
        assert telemetry.histograms["search.foodgraph_searches"]["min"] >= 1
        # Later windows read settle records earlier ones left.
        assert telemetry.histograms["search.foodgraph_searches_reused"]["max"] >= 1

    def test_km_windows_have_the_policy_phase_spans(self):
        # engine.decide is not a leaf under KM either: its windows open the
        # same three phase spans FoodMatch's do, once each.
        stats = _run("summary", make_policy=KMPolicy).telemetry.phase_stats
        decided = stats["policy.foodgraph"]["count"]
        assert 1 <= decided <= stats["engine.decide"]["count"]
        for phase in ("policy.batching", "policy.matching"):
            assert stats[phase]["count"] == decided
        assert sum(stats[phase]["total_seconds"] for phase in (
            "policy.batching", "policy.foodgraph", "policy.matching")) <= \
            stats["engine.decide"]["total_seconds"]


class TestLabelWork:
    def test_label_work_runs_between_the_updates_and_the_policy(self):
        telemetry = _run("trace", traffic="heavy").telemetry
        spans = {record["span"]: record for record in telemetry.spans}
        label_spans = [record for record in spans.values()
                       if record["name"].startswith("hub_labels.")]
        assert label_spans, "heavy traffic must make the labels follow"
        for record in label_spans:
            ancestors = []
            parent = record["parent"]
            while parent is not None:
                ancestors.append(spans[parent]["name"])
                parent = spans[parent]["parent"]
            assert ancestors[0] == "oracle.refresh"
            assert "engine.window" in ancestors
            assert not any(name.startswith("policy.") for name in ancestors)
        report = rollup(telemetry.spans)
        assert report["oracle.refresh"]["total_seconds"] >= sum(
            report[name]["total_seconds"] for name in report
            if name.startswith("hub_labels."))

    def test_metro_rush_hour_supersedes_two_repairs_a_pass(self):
        # The yardstick's metro_dynamic pass: its first window opens on a
        # zonal rush hour (one build, none at set-up), and in its fifth two
        # sub-window repairs are superseded by a rebuild before any read.
        profile = metro_profile(rows=30, cols=30, name="Metro900",
                                orders_per_thousand_nodes=1200.0)
        start = 12 * 3600.0
        scenario = generate_scenario(profile, seed=1, start_hour=12, end_hour=13,
                                     traffic="heavy", fleet="full")
        scenario = dataclasses.replace(scenario, orders=[
            o for o in scenario.orders if o.placed_at < start + 900.0])
        obs.set_mode("summary")
        oracle = DistanceOracle(scenario.network)
        cost_model = CostModel(oracle)
        simulator = Simulator(scenario, FoodMatchPolicy(cost_model), cost_model,
                              SimulationConfig(delta=180.0, start=start,
                                               end=start + 900.0 + 5 * 180.0,
                                               event_resolution="continuous"))
        assert oracle.label_builds == 0
        counters = simulator.run().telemetry.counters
        assert counters["traffic.repairs"] == counters["traffic.rebuilds"] == 2
        assert counters["traffic.label_repairs_superseded"] == 2
        assert counters["traffic.label_repairs_run"] == 0
        assert counters["traffic.label_builds"] == 2


class TestExecutorMerge:
    def _cells(self):
        setting = ExperimentSetting(profile=CITY_PROFILES["CityA"], scale=0.08,
                                    start_hour=12, end_hour=13, seed=3)
        return [ExperimentCell(setting, PolicySpec.of(policy))
                for policy in ("foodmatch", "greedy", "km")]

    def _campaign(self, jobs: int):
        obs.set_mode("trace")
        try:
            clear_cache()
            results = run_cells(self._cells(), jobs=jobs)
        finally:
            obs.set_mode("off")
        assert all(outcome.ok for outcome in results)
        return results

    def test_parallel_workers_honour_trace_mode(self):
        results = self._campaign(jobs=4)
        for outcome in results:
            assert outcome.result.telemetry is not None
            assert outcome.result.telemetry.spans

    def test_merge_produces_one_valid_campaign_trace(self):
        results = self._campaign(jobs=4)
        merged = merge_cell_traces(results)
        markers = [e for e in merged if e.get("event") == "cell"]
        assert [m["cell"] for m in markers] == [0, 1, 2]
        assert {m["run_id"] for m in markers} == \
            {"CityA/foodmatch", "CityA/greedy", "CityA/km"}
        spans = [e for e in merged if "span" in e]
        keys = {(e["cell"], e["trace"], e["span"]) for e in spans}
        assert len(keys) == len(spans)
        assert ENGINE_PHASES <= set(rollup(merged))

    def test_parallel_merge_structure_matches_serial(self):
        parallel = merge_cell_traces(self._campaign(jobs=4))
        serial = merge_cell_traces(self._campaign(jobs=1))

        def shape(events):
            return [(e.get("event"), e.get("cell"), e.get("trace"),
                     e.get("span"), e.get("name")) for e in events]

        assert shape(parallel) == shape(serial)

    def test_cells_without_telemetry_are_skipped(self):
        obs.set_mode("off")
        clear_cache()
        results = run_cells(self._cells()[:1], jobs=1)
        assert merge_cell_traces(results) == []
