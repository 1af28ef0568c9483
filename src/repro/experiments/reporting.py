"""Plain-text rendering of experiment results (tables and series).

The paper presents its evaluation as figures; this reproduction prints the
underlying series as fixed-width text tables so that the benchmark harness
output can be compared side by side with the paper (see ``EXPERIMENTS.md``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width table from headers and rows."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    text_rows: list[list[str]] = []
    for row in rows:
        cells = []
        for idx in range(columns):
            value = row[idx] if idx < len(row) else ""
            cell = f"{value:.4f}" if isinstance(value, float) else str(value)
            cells.append(cell)
            widths[idx] = max(widths[idx], len(cell))
        text_rows.append(cells)
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    lines.extend("  ".join(cells[i].ljust(widths[i]) for i in range(columns))
                 for cells in text_rows)
    return "\n".join(lines)


def format_series(series: Mapping[str, Sequence[float]], x_label: str,
                  x_values: Sequence[object], title: str = "") -> str:
    """Render named series sharing one x-axis as a table (one row per x)."""
    headers = [x_label] + list(series.keys())
    rows = []
    for idx, x in enumerate(x_values):
        row = [x]
        for name in series:
            values = series[name]
            row.append(values[idx] if idx < len(values) else float("nan"))
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_metric_comparison(results: Mapping[str, Mapping[str, float]],
                             metrics: Sequence[str], title: str = "") -> str:
    """Render a policies-by-metrics comparison table."""
    headers = ["policy"] + list(metrics)
    rows = [[name] + [summary.get(metric, float("nan")) for metric in metrics]
            for name, summary in results.items()]
    return format_table(headers, rows, title=title)


def format_cache_report(cache_stats: Mapping[str, Mapping[str, int]],
                        title: str = "distance-oracle cache effectiveness") -> str:
    """Render one run's LRU cache counters (hits, misses, rate, occupancy).

    ``cache_stats`` is :attr:`SimulationResult.cache_stats
    <repro.sim.metrics.SimulationResult.cache_stats>` — the per-run counter
    deltas of the distance oracle's point / path / SSSP caches.  Surfacing
    them next to the quality metrics makes cache effectiveness a first-class
    experiment output instead of something only visible by inspecting a live
    oracle.

    A ``"hub_labels"`` entry (present on the hub-label backend) is not an
    LRU cache — it carries the index footprint — and renders as a summary
    line under the table: label entry count and resident megabytes.
    """
    rows = []
    index_footprint = None
    for name in sorted(cache_stats):
        stats = cache_stats[name]
        if name == "hub_labels":
            index_footprint = stats
            continue
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        lookups = hits + misses
        # A cache that served no lookups has no meaningful hit rate; render
        # "-" rather than a fake 0.0000 (or a division error).
        rate = f"{hits / lookups:.4f}" if lookups else "-"
        rows.append([name, hits, misses, rate,
                     f"{stats.get('size', 0)}/{stats.get('capacity', 0)}"])
    report = format_table(["cache", "hits", "misses", "hit_rate", "occupancy"],
                          rows, title=title)
    if index_footprint is not None:
        entries = index_footprint.get("entries", 0)
        mbytes = index_footprint.get("bytes", 0) / 1e6
        report += f"\nhub labels: {entries:,} entries, {mbytes:.1f} MB resident"
        pending = index_footprint.get("pending", 0)
        if pending:
            report += f" ({pending} label updates still queued)"
    return report


def format_telemetry_report(telemetry,
                            title: str = "per-phase latency profile") -> str:
    """Render a run's phase-latency profile (``--obs summary|trace``).

    ``telemetry`` is :attr:`SimulationResult.telemetry
    <repro.sim.metrics.SimulationResult.telemetry>`.  One row per span name,
    most self-time first: invocation count, total and self seconds, p50/p99
    per invocation in milliseconds, and the share of total window wall time
    the phase's self time accounts for (``engine.window`` covers one whole
    accumulation-window iteration, so it is the natural 100% reference; the
    column renders ``-`` when no window span was recorded).
    """
    stats = telemetry.phase_stats
    window = stats.get("engine.window", {})
    window_total = window.get("total_seconds", 0.0)
    rows = []
    for name in sorted(stats, key=lambda n: -stats[n]["self_seconds"]):
        phase = stats[name]
        share = (f"{100.0 * phase['self_seconds'] / window_total:.1f}%"
                 if window_total > 0 else "-")
        rows.append([name, phase["count"],
                     f"{phase['total_seconds']:.4f}",
                     f"{phase['self_seconds']:.4f}",
                     f"{phase['p50'] * 1e3:.3f}",
                     f"{phase['p99'] * 1e3:.3f}",
                     share])
    header = f"{title} — {telemetry.run_id}" if telemetry.run_id else title
    report = format_table(
        ["phase", "count", "total_s", "self_s", "p50_ms", "p99_ms", "%window"],
        rows, title=header)
    queries = telemetry.counters.get("oracle.queries")
    if queries is not None:
        batches = telemetry.counters.get("oracle.batch_queries", 0)
        sssp = telemetry.counters.get("oracle.sssp_runs", 0)
        report += (f"\noracle: {queries:,.0f} distance queries "
                   f"({batches:,.0f} batched calls, {sssp:,.0f} SSSP runs)")
    counters = telemetry.counters
    builds = counters.get("traffic.label_builds")
    if builds is not None:
        report += (
            f"\nhub labels: {builds:,.0f} builds and "
            f"{counters.get('traffic.label_repairs_run', 0):,.0f} repairs run, "
            f"{counters.get('traffic.label_repairs_superseded', 0):,.0f} "
            f"superseded unrun (decided: "
            f"{counters.get('traffic.repairs', 0):,.0f} repairs, "
            f"{counters.get('traffic.rebuilds', 0):,.0f} rebuilds)")
        searches = counters.get("traffic.label_witness_searches")
        if searches is not None:
            report += (
                f"; builds ran {searches:,.0f} witness searches "
                f"({counters.get('traffic.label_witness_settles', 0):,.0f} "
                f"settles), inserted "
                f"{counters.get('traffic.label_shortcuts', 0):,.0f} shortcuts "
                f"and derived {counters.get('traffic.label_levels', 0):,.0f} "
                f"hierarchy levels")
    plans = telemetry.counters.get("cost.route_plans")
    if plans:
        report += f"\ncost model: {plans:,.0f} route plans evaluated"
        passes = telemetry.counters.get("cost.kernel_passes")
        if passes:
            rows = telemetry.counters.get("cost.kernel_rows", 0)
            steps = telemetry.counters.get("cost.kernel_steps", 0)
            reused = telemetry.counters.get("cost.base_plans_reused", 0)
            report += (f" in {passes:,.0f} kernel passes ({rows:,.0f} permutation "
                       f"rows, {steps:,.0f} prefix steps; {reused:,.0f} base plans "
                       "reused)")
    resilience = telemetry.meta.get("resilience")
    if resilience is not None:
        report += (
            f"\nladders: matching={resilience.get('matching_rung')} "
            f"path={resilience.get('path_rung')} "
            f"({resilience.get('demotions', 0)} demotions, "
            f"{resilience.get('recoveries', 0)} recoveries)")
        delta = resilience.get("matching_quality_delta_pct") or 0.0
        stretch = resilience.get("path_mean_stretch") or 1.0
        if delta or stretch != 1.0:
            report += (f"\nquality given up: matching {delta:+.2f}% "
                       f"objective, path stretch {stretch:.3f}x")
    return report


def format_trace_rollup(report: Mapping[str, Mapping[str, float]],
                        title: str = "trace rollup (self time)") -> str:
    """Render :func:`repro.obs.rollup` output as a self-time table.

    Works on a single run's records or a merged campaign trace; rows are
    sorted by self time descending, so the first row is where the campaign
    actually spent its time.
    """
    rows = [[name, stats["count"],
             f"{stats['total_seconds']:.4f}", f"{stats['self_seconds']:.4f}"]
            for name, stats in sorted(report.items(),
                                      key=lambda kv: -kv[1]["self_seconds"])]
    return format_table(["span", "count", "total_s", "self_s"], rows,
                        title=title)


__all__ = ["format_table", "format_series", "format_metric_comparison",
           "format_cache_report", "format_telemetry_report",
           "format_trace_rollup"]
