"""Tier-1 checks of the perf benchmark's own machinery (smoke-sized, < 20 s).

The benchmark's numbers are only worth gating on if its plumbing is right:
every metric ``BENCHMARK.json`` names is emitted, tracing changes no outcome
and leaves no wrapper behind for the other tier-1 tests, and the span,
de-noising and comparison arithmetic does what the README says it does.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import perf_trace  # noqa: E402
import perf_workloads  # noqa: E402
import run as perf_run  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_spec_names_the_workloads_the_code_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(perf_workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == perf_workloads.WORKLOADS[entry["name"]].why
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(perf_workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_and_tracing_changes_nothing(workload):
    timed = perf_workloads.measure(workload, day=1, seed=1, seconds=0.0, trace=False,
                                   smoke=True)
    traced = perf_workloads.measure(workload, day=1, seed=1, seconds=0.0, trace=True,
                                    smoke=True)
    # measure(trace=True) runs an untraced pass first and checks it against
    # the traced one; the two runs must agree with each other as well.
    assert timed.failures == [] and traced.failures == []
    assert timed.detail["fingerprint"] == traced.detail["fingerprint"]
    assert timed.detail["exact"] == traced.detail["exact"]
    for run, section in ((timed, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(run.metrics) == set(declared)
        for name, body in run.metrics.items():
            assert NAME.fullmatch(name)
            assert body["unit"] == declared[name]
            assert not math.isnan(body["value"])
    assert traced.spans, "the traced run recorded no spans"
    for name, body in timed.metrics.items():
        assert body["value"] > 0, f"end-to-end metric {name} must never be 0"


def test_tracer_restores_every_rebound_attribute():
    from repro.core import foodgraph, foodmatch, km_baseline

    original = foodgraph.solve_matching
    with perf_trace.Tracer() as tracer:
        patches = list(tracer.patches)
        holders = {holder for holder, attr, _ in patches if attr == "solve_matching"}
        # imported by name into the policies: every copy must be rebound
        assert {foodgraph, foodmatch, km_baseline} <= holders
        assert foodmatch.solve_matching is not original
    assert patches and not tracer.patches
    for holder, attr, was in patches:
        assert vars(holder)[attr] is was, f"{holder}.{attr} still wrapped"


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],       # nested child with its own child
        ["leaf", 2.0, 3.0, 1],
        ["b", 4.0, 6.0, 0],       # adjacent to "a"
        ["zero", 6.0, 6.0, 0],    # zero-length child
        ["a", 5.0, 7.0, 0],       # overlaps "b" by one second
        ["a", 1.5, 2.0, 1],       # same name nested under "a"
    ]
    selfs = perf_trace.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0)   # children cover [1, 7)
    assert selfs[1] == pytest.approx(3.0 - 1.5)    # [1.5, 2) and [2, 3)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == 0.0
    totals = perf_trace.layer_totals(spans)
    assert totals["a"]["calls"] == 2               # the nested "a" is not a call
    assert totals["a"]["busy"] == pytest.approx(3.0 + 2.0)
    assert totals["a"]["self"] == pytest.approx(1.5 + 2.0 + 0.5)
    assert perf_trace.root_seconds(spans) == pytest.approx(10.0)
    assert perf_trace.child_overrun(spans) is None
    spans.append(["late", 9.0, 13.0, 0])
    assert perf_trace.child_overrun(spans) == "root"


def test_trace_file_shares_one_window_id_per_step(tmp_path):
    spans = [["network.oracle_build", 0.0, 1.0, -1],
             ["sim.step_window", 1.0, 2.0, -1], ["core.assign", 1.1, 1.9, 1],
             ["sim.step_window", 2.0, 3.0, -1], ["core.assign", 2.1, 2.9, 3],
             ["orders.make_batch", 2.2, 2.3, 4], ["sim.finalize", 3.0, 3.1, -1]]
    perf_trace.write_jsonl(spans, tmp_path / "trace.jsonl")
    lines = [json.loads(line) for line in
             (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [line["window"] for line in lines] == [-1, 0, 0, 1, 1, 1, -1]
    assert [line["parent"] for line in lines] == [-1, -1, 1, -1, 3, 4, -1]


def test_denoising_and_repeat_reduction():
    series = [[3.0, 9.0, 5.0], [4.0, 2.0, 6.0], [3.5, 2.5, 4.0]]
    assert perf_workloads.denoised_windows(series) == [3.0, 2.0, 4.0]
    assert perf_workloads.noise_share([2.0, 2.2, 3.0]) == pytest.approx(0.1)
    passes = [types.SimpleNamespace(wall=sum(row) + rest, decisions=row)
              for row, rest in zip(series, (1.0, 0.5, 2.0), strict=True)]
    assert perf_workloads.denoised_wall(passes) == pytest.approx(3.0 + 2.0 + 4.0 + 0.5)

    def run(values):
        return {"result": {"metrics": {k: {"value": v} for k, v in values.items()}}}
    spec = {"end_to_end": [
        {"name": "orders_per_s", "unit": "orders/s", "better": "higher"},
        {"name": "decide_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"},
        {"name": "delivered_share", "unit": "ratio", "better": "higher"}]}
    reduced = perf_run.reduce_repeats(spec, [
        run({"orders_per_s": 30, "decide_p50_ms": 9, "peak_rss_mb": 80, "delivered_share": 1}),
        run({"orders_per_s": 33, "decide_p50_ms": 7, "peak_rss_mb": 90, "delivered_share": 1}),
        run({"orders_per_s": 31, "decide_p50_ms": 8, "peak_rss_mb": 85, "delivered_share": 1})])
    assert {k: v["value"] for k, v in reduced.items()} == {
        "orders_per_s": 33, "decide_p50_ms": 7, "peak_rss_mb": 85, "delivered_share": 1}


def test_bound_comparator():
    assert compare.worsening("lower", 100.0, 110.0) == pytest.approx(0.10)
    assert compare.worsening("higher", 100.0, 80.0) == pytest.approx(0.20)
    assert compare.worsening("higher", 100.0, 120.0) == pytest.approx(-0.20)
    gates = [gate for gate in compare.GATES
             if gate["name"] in ("decide_p50_ms", "peak_rss_mb")]

    def report(p50, rss, noise):
        return {"workloads": {"w": {"noise_share": noise, "end_to_end": {
            "decide_p50_ms": {"value": p50}, "peak_rss_mb": {"value": rss}}}}}
    verdicts = [row["verdict"] for row in
                compare.compare(gates, report(10, 50, 0.0), report(10.9, 56, 0.0))]
    assert verdicts == ["ok", "BREACH"]
    verdicts = [row["verdict"] for row in
                compare.compare(gates, report(10, 50, 0.2), report(12, 56, 0.3))]
    assert verdicts == ["unresolved", "BREACH"]   # noise never excuses memory
    verdicts = [row["verdict"] for row in
                compare.compare(gates, report(10, 50, 0.2), report(12, 50, 0.05))]
    assert verdicts == ["BREACH", "ok"]           # one settled side is enough


def test_outcome_gates_are_exact_and_setup_has_an_absolute_floor():
    gate = {g["name"]: g for g in compare.GATES}
    noisy = 0.5                                   # noise never excuses an outcome
    assert compare.verdict(gate["mean_xdt_s"], 20.0, 20.19, noisy, noisy) == "ok"
    assert compare.verdict(gate["mean_xdt_s"], 20.0, 20.21, noisy, noisy) == "BREACH"
    assert compare.verdict(gate["failed_share"], 0.0, 0.0, noisy, noisy) == "ok"
    assert compare.verdict(gate["failed_share"], 0.0, 0.01, noisy, noisy) == "BREACH"
    assert compare.verdict(gate["failed_share"], 0.02, 0.01, noisy, noisy) == "ok"
    # +40% of a 50 ms set-up is 20 ms: below the floor; of 0.5 s it is not
    assert compare.verdict(gate["setup_s"], 0.05, 0.07, 0.0, 0.0) == "ok"
    assert compare.verdict(gate["setup_s"], 0.5, 0.7, 0.0, 0.0) == "BREACH"
    assert compare.verdict(gate["setup_s"], 0.5, 0.56, 0.0, 0.0) == "ok"


def test_order_conservation_check_fails_loudly_on_a_doctored_result():
    def outcome(delivered, rejected, xdt=1.0):
        return types.SimpleNamespace(delivered=delivered, rejected=rejected, xdt=xdt)
    good = types.SimpleNamespace(outcomes={1: outcome(True, False), 2: outcome(False, True)})
    assert perf_workloads.check_outcomes(good, [1, 2]) == []
    lost = types.SimpleNamespace(outcomes={1: outcome(True, False)})
    assert any("placed" in f for f in perf_workloads.check_outcomes(lost, [1, 2]))
    twice = types.SimpleNamespace(outcomes={1: outcome(True, True), 2: outcome(False, False)})
    failures = perf_workloads.check_outcomes(twice, [1, 2])
    assert any("both" in f for f in failures) and any("neither" in f for f in failures)
    early = types.SimpleNamespace(outcomes={1: outcome(True, False, xdt=-3.0)})
    assert any("negative XDT" in f for f in perf_workloads.check_outcomes(early, [1]))
