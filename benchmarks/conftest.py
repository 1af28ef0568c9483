"""Shared helpers for the per-figure benchmark harness.

Each benchmark regenerates one table or figure of the paper on the synthetic
workloads, times it with pytest-benchmark and writes the reproduced series to
``benchmarks/results/<figure>.txt`` so that the text artefacts the paper's
figures would show survive the run (EXPERIMENTS.md is compiled from them).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_figure():
    """Persist a FigureResult's text rendition under benchmarks/results/.

    The deterministic tables go to the tracked ``<figure>.txt``; wall-clock
    tables, which differ on every run, go to an untracked
    ``<figure>.wallclock.txt`` next to it, so a tier-1 run leaves the
    working tree clean.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(result, filename: str) -> None:
        path = RESULTS_DIR / filename
        header = f"[{result.figure_id}] {result.description}\n\n"
        path.write_text(f"{header}{result.text}\n", encoding="utf-8")
        if result.wall_clock_text:
            path.with_suffix(".wallclock.txt").write_text(
                f"{header}{result.wall_clock_text}\n", encoding="utf-8")

    return _record


def run_once(benchmark, func, *args, **kwargs):
    """Run a figure function exactly once under pytest-benchmark timing.

    The figure harnesses simulate whole delivery periods, so repeating them
    for statistical timing would multiply the harness runtime without adding
    information; one timed round is recorded.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
