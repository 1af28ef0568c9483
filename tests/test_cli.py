"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.experiments.executor import set_default_jobs
from repro.obs.trace import read_trace_jsonl


@pytest.fixture(autouse=True)
def _reset_session_state():
    # main() installs the session-wide --obs mode and default job count; put
    # the defaults back so one CLI test cannot leak state into the next.
    yield
    obs.set_mode("off")
    set_default_jobs(1)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.city == "CityA"
        assert args.policy == "foodmatch"
        assert args.scale == 0.2

    def test_rejects_unknown_city(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--city", "Gotham"])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "oracle"])

    def test_rejects_kernel_backend_option(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--kernel-backend", "python"])
        assert exc.value.code == 2

    def test_traffic_flag(self):
        args = build_parser().parse_args(["simulate", "--traffic", "heavy"])
        assert args.traffic == "heavy"
        assert build_parser().parse_args(["compare"]).traffic == "none"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--traffic", "gridlock"])

    def test_traffic_flag_accepts_numeric_density(self):
        args = build_parser().parse_args(["simulate", "--traffic", "2.5"])
        assert args.traffic == 2.5
        for bad in ("-1.0", "inf", "nan"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "--traffic", bad])

    def test_event_resolution_flag(self):
        args = build_parser().parse_args(
            ["simulate", "--event-resolution", "continuous"])
        assert args.event_resolution == "continuous"
        assert build_parser().parse_args(["compare"]).event_resolution == "window"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--event-resolution", "instant"])

    def test_fleet_flag(self):
        args = build_parser().parse_args(["simulate", "--fleet", "full"])
        assert args.fleet == "full"
        assert build_parser().parse_args(["compare"]).fleet == "none"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--fleet", "ghost"])

    def test_figure_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])


class TestSimulateCommand:
    def test_prints_summary(self, capsys):
        code = main(["simulate", "--city", "CityA", "--policy", "km", "--scale", "0.15",
                     "--start-hour", "12", "--end-hour", "13", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "xdt_hours_per_day" in captured.out
        assert "km on CityA" in captured.out

    def test_simulate_with_full_fleet(self, capsys):
        code = main(["simulate", "--city", "CityA", "--policy", "km", "--scale", "0.1",
                     "--start-hour", "12", "--end-hour", "13", "--seed", "1",
                     "--fleet", "full"])
        captured = capsys.readouterr()
        assert code == 0
        assert "driver_declines" in captured.out

    def test_saves_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "orders.csv"
        code = main(["simulate", "--city", "CityA", "--policy", "km", "--scale", "0.15",
                     "--start-hour", "12", "--end-hour", "13", "--seed", "1",
                     "--save-json", str(json_path), "--save-csv", str(csv_path)])
        assert code == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["policy"] == "km"
        assert csv_path.read_text(encoding="utf-8").startswith("order_id,")


class TestObservabilityFlags:
    def test_obs_defaults_off(self):
        assert build_parser().parse_args(["simulate"]).obs == "off"
        assert build_parser().parse_args(["compare"]).obs == "off"

    def test_rejects_unknown_obs_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--obs", "verbose"])

    def test_trace_out_requires_trace_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--scale", "0.1", "--obs", "summary",
                  "--trace-out", str(tmp_path / "t.jsonl")])

    def test_rejects_unknown_log_level(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scale", "0.1", "--log-level", "chatty"])

    def test_obs_summary_prints_phase_table(self, capsys):
        code = main(["simulate", "--city", "CityA", "--policy", "km",
                     "--scale", "0.1", "--start-hour", "12", "--end-hour", "13",
                     "--seed", "1", "--obs", "summary"])
        captured = capsys.readouterr()
        assert code == 0
        assert "per-phase latency profile" in captured.out
        assert "engine.window" in captured.out
        assert "p99_ms" in captured.out

    def test_obs_off_prints_no_phase_table(self, capsys):
        main(["simulate", "--city", "CityA", "--policy", "km",
              "--scale", "0.1", "--start-hour", "12", "--end-hour", "13",
              "--seed", "1"])
        assert "per-phase latency profile" not in capsys.readouterr().out

    def test_obs_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = main(["simulate", "--city", "CityA", "--policy", "km",
                     "--scale", "0.1", "--start-hour", "12", "--end-hour", "13",
                     "--seed", "1", "--obs", "trace",
                     "--trace-out", str(trace_path)])
        assert code == 0
        events = read_trace_jsonl(trace_path)
        assert events[0]["event"] == "trace_header"
        names = {e.get("name") for e in events}
        assert {"engine.window", "engine.decide"} <= names

    def test_compare_merges_cells_into_campaign_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "campaign.jsonl"
        code = main(["compare", "--city", "CityA", "--policies", "km", "greedy",
                     "--scale", "0.1", "--start-hour", "12", "--end-hour", "13",
                     "--seed", "1", "--jobs", "2", "--obs", "trace",
                     "--trace-out", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "campaign trace rollup" in captured.out
        events = read_trace_jsonl(trace_path)
        markers = [e for e in events if e.get("event") == "cell"]
        assert {m["cell"] for m in markers} == {0, 1}
        assert all("cell" in e for e in events[1:])


class TestCompareCommand:
    def test_prints_comparison_table(self, capsys):
        code = main(["compare", "--city", "CityA", "--policies", "km", "greedy",
                     "--scale", "0.15", "--start-hour", "12", "--end-hour", "13",
                     "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "km" in captured.out and "greedy" in captured.out
        assert "orders_per_km" in captured.out


class TestFigureCommand:
    def test_runs_table2(self, capsys):
        code = main(["figure", "--name", "table2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table II" in captured.out
        assert "CityB" in captured.out
