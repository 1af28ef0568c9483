"""Plain-text report rendering: cache, telemetry and trace-rollup tables."""

from __future__ import annotations

from repro.experiments.reporting import (
    format_cache_report,
    format_table,
    format_telemetry_report,
    format_trace_rollup,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer, rollup


class TestFormatCacheReport:
    def test_renders_hit_rates_and_occupancy(self):
        report = format_cache_report({
            "point": {"hits": 75, "misses": 25, "size": 90, "capacity": 128},
        })
        assert "0.7500" in report
        assert "90/128" in report

    def test_zero_query_cache_renders_dash_not_zero(self):
        # A cache that served no lookups has no meaningful hit rate; the
        # report must render "-" rather than divide by zero or print 0.0000.
        report = format_cache_report({
            "sssp": {"hits": 0, "misses": 0, "size": 0, "capacity": 1024},
        })
        row = next(line for line in report.splitlines()
                   if line.startswith("sssp"))
        assert "-" in row
        assert "0.0000" not in row

    def test_hub_label_footprint_renders_as_summary_line(self):
        report = format_cache_report({
            "point": {"hits": 1, "misses": 1, "size": 2, "capacity": 4},
            "hub_labels": {"entries": 2820, "bytes": 45_000_000},
        })
        assert "hub labels: 2,820 entries, 45.0 MB resident" in report
        assert "queued" not in report
        assert "hub_labels" not in report.splitlines()[1]  # not a table row

    def test_queued_label_work_is_reported(self):
        report = format_cache_report({
            "hub_labels": {"entries": 2820, "bytes": 45_000_000, "pending": 2}})
        assert "45.0 MB resident (2 label updates still queued)" in report


def _telemetry() -> Telemetry:
    tracer = Tracer(trace_id="CityA/foodmatch", keep_records=True)
    for _ in range(3):
        with tracer.span("engine.window"):
            with tracer.span("engine.decide"):
                pass
    telemetry = Telemetry.from_tracer(tracer)
    telemetry.counters.update({"oracle.queries": 1500.0,
                               "oracle.batch_queries": 40.0,
                               "oracle.sssp_runs": 6.0,
                               "cost.route_plans": 900.0})
    return telemetry


class TestFormatTelemetryReport:
    def test_table_has_phase_rows_and_quantile_columns(self):
        report = format_telemetry_report(_telemetry())
        header = report.splitlines()[1]
        for column in ("phase", "count", "total_s", "self_s", "p50_ms",
                       "p99_ms", "%window"):
            assert column in header
        assert "engine.window" in report
        assert "engine.decide" in report
        assert "CityA/foodmatch" in report.splitlines()[0]

    def test_window_share_uses_window_span_as_reference(self):
        report = format_telemetry_report(_telemetry())
        window_row = next(line for line in report.splitlines()
                          if line.startswith("engine.window"))
        assert "%" in window_row

    def test_no_window_span_renders_dash_share(self):
        tracer = Tracer()
        with tracer.span("policy.batching"):
            pass
        report = format_telemetry_report(Telemetry.from_tracer(tracer))
        row = next(line for line in report.splitlines()
                   if line.startswith("policy.batching"))
        assert row.rstrip().endswith("-")

    def test_footer_reports_oracle_and_cost_counters(self):
        report = format_telemetry_report(_telemetry())
        assert "oracle: 1,500 distance queries" in report
        assert "(40 batched calls, 6 SSSP runs)" in report
        assert "cost model: 900 route plans evaluated" in report

    def test_footer_reports_label_work(self):
        telemetry = _telemetry()
        telemetry.counters.update({
            "traffic.label_builds": 2.0, "traffic.label_repairs_run": 0.0,
            "traffic.label_repairs_superseded": 2.0, "traffic.repairs": 2.0,
            "traffic.rebuilds": 2.0})
        report = format_telemetry_report(telemetry)
        assert ("hub labels: 2 builds and 0 repairs run, 2 superseded unrun "
                "(decided: 2 repairs, 2 rebuilds)") in report
        assert "hub labels" not in format_telemetry_report(_telemetry())

    def test_footer_reports_what_the_label_builds_did(self):
        telemetry = _telemetry()
        telemetry.counters.update({
            "traffic.label_builds": 2.0, "traffic.label_repairs_run": 0.0,
            "traffic.label_repairs_superseded": 2.0, "traffic.repairs": 2.0,
            "traffic.rebuilds": 2.0, "traffic.label_witness_searches": 16536.0,
            "traffic.label_witness_settles": 275168.0,
            "traffic.label_shortcuts": 3970.0, "traffic.label_levels": 38.0})
        report = format_telemetry_report(telemetry)
        assert ("rebuilds); builds ran 16,536 witness searches (275,168 "
                "settles), inserted 3,970 shortcuts and derived 38 hierarchy "
                "levels") in report

    def test_counterless_telemetry_has_no_footer(self):
        tracer = Tracer()
        with tracer.span("engine.window"):
            pass
        report = format_telemetry_report(Telemetry.from_tracer(tracer))
        assert "oracle:" not in report
        assert "cost model:" not in report

    def test_ladder_footer_renders_rungs_and_quality(self):
        telemetry = _telemetry()
        telemetry.meta["resilience"] = {
            "matching_rung": "greedy_approx", "path_rung": "dijkstra",
            "demotions": 3, "recoveries": 1,
            "matching_quality_delta_pct": 4.2317,
            "path_mean_stretch": 1.08,
        }
        report = format_telemetry_report(telemetry)
        assert "ladders: matching=greedy_approx path=dijkstra" in report
        assert "(3 demotions, 1 recoveries)" in report
        assert "quality given up: matching +4.23% objective" in report
        assert "path stretch 1.080x" in report

    def test_ladder_footer_omits_quality_when_exact(self):
        telemetry = _telemetry()
        telemetry.meta["resilience"] = {
            "matching_rung": "scipy", "path_rung": "hub_labels",
            "demotions": 0, "recoveries": 0,
            "matching_quality_delta_pct": 0.0, "path_mean_stretch": 1.0,
        }
        report = format_telemetry_report(telemetry)
        assert "ladders: matching=scipy path=hub_labels" in report
        assert "quality given up" not in report

    def test_no_resilience_meta_no_ladder_footer(self):
        report = format_telemetry_report(_telemetry())
        assert "ladders:" not in report


class TestFormatTraceRollup:
    def test_rows_sorted_by_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                for _ in range(10_000):
                    pass
        report = format_trace_rollup(rollup(tracer.export_records()))
        lines = report.splitlines()
        assert lines[0] == "trace rollup (self time)"
        assert lines[3].startswith("inner")  # busiest self time first

    def test_format_table_pads_columns(self):
        table = format_table(["a", "bb"], [["x", 1.5], ["longer", 2.0]])
        widths = {len(line) for line in table.splitlines()}
        assert len(widths) == 1  # every row padded to the same width
