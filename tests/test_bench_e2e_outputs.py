"""``benchmarks/bench_e2e.py`` writes where it is told to, and only there."""

import importlib
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def bench_e2e(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("bench_e2e")


def test_no_arguments_write_the_tracked_snapshots(bench_e2e):
    # CI passes neither option and keeps both repo-root files.
    args = bench_e2e.parse_args([])
    assert (args.out, args.out_pr5) == (bench_e2e.DEFAULT_OUT,
                                        bench_e2e.DEFAULT_OUT_PR5)


def test_out_alone_moves_the_pr5_file_next_to_it(bench_e2e, tmp_path):
    # ``--smoke --out /tmp/x.json`` is the documented way to check without
    # touching the committed BENCH_*.json: it has to cover BENCH_PR5.json too.
    args = bench_e2e.parse_args(["--smoke", "--out", str(tmp_path / "x.json")])
    assert args.smoke
    assert (args.out, args.out_pr5) == (tmp_path / "x.json", tmp_path / "x_pr5.json")


def test_explicit_out_pr5_wins(bench_e2e, tmp_path):
    args = bench_e2e.parse_args(["--out", str(tmp_path / "x.json"),
                                 "--out-pr5", str(tmp_path / "y.json")])
    assert (args.out, args.out_pr5) == (tmp_path / "x.json", tmp_path / "y.json")
    args = bench_e2e.parse_args(["--out-pr5", str(tmp_path / "y.json")])
    assert (args.out, args.out_pr5) == (bench_e2e.DEFAULT_OUT, tmp_path / "y.json")
