"""Outside-in layer tracing for the perf benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer` *wraps,
never reimplements*: public functions are rebound on their defining module
and on every loaded ``repro.*`` module that imported them by name, public
methods are rebound at class level, and every rebinding is undone when the
``with`` block exits.  Each call of a wrapped callable records one span —
``(name, start, end, parent span id)`` — in memory (the window index every
span of one window shares is derived when the spans are written out); the
benchmark's own set-up and checkpoint calls add spans through
:meth:`Tracer.span`.  Callables too hot to span (0.5 M point distance
queries a pass) are read from the program's own counters instead, and the
cheap ones whose time is their callee's (``merge_cost`` → ``make_batch``)
are counted only.

The arithmetic on a finished span list lives in module-level pure functions
so the tier-1 test can drive it with synthetic trees.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


# --------------------------------------------------------------------------- #
# span arithmetic (pure)
# --------------------------------------------------------------------------- #
def self_times(spans: list[tuple]) -> list[float]:
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to the parent and overlapping children are merged,
    so nested, adjacent, overlapping and zero-length children all subtract
    exactly the interval they cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append((span[END] - span[START]) - covered)
    return out


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``busy`` seconds, ``self`` seconds and ``calls``.

    ``busy`` and ``calls`` count only spans with no ancestor of the same
    name (``distance_matrix`` calls ``static_distance_matrix``: one block
    query, not two); ``self`` sums every span of the name.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for idx, span in enumerate(spans):
        entry = totals.setdefault(span[NAME], {"busy": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += selfs[idx]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy"] += span[END] - span[START]
            entry["calls"] += 1
    return totals


def child_overrun(spans: list[tuple], slack: float = 1e-6) -> str | None:
    """Name the first span whose children's total exceeds it, else ``None``."""
    child_sum = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_sum[span[PARENT]] += span[END] - span[START]
    for idx, span in enumerate(spans):
        if child_sum[idx] > (span[END] - span[START]) + slack:
            return span[NAME]
    return None


def root_seconds(spans: list[tuple]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(span[END] - span[START] for span in spans if span[PARENT] < 0)


def write_jsonl(spans: list[tuple], path) -> None:
    """One span per line: id, name, start, end, parent, window.

    ``window`` is the request id the spans of one accumulation window share:
    the ordinal of the enclosing ``sim.step_window`` span within the pass
    (windows are stepped in order), ``-1`` outside any window.
    """
    windows: list[int] = []
    stepped = 0
    with open(path, "w", encoding="utf-8") as handle:
        for idx, (name, start, end, parent) in enumerate(spans):
            if name == "sim.step_window":
                windows.append(stepped)
                stepped += 1
            else:
                windows.append(windows[parent] if parent >= 0 else -1)
            handle.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "window": windows[idx]}) + "\n")


# --------------------------------------------------------------------------- #
# harvesters: exact counts read off a wrapped callable's return value
# --------------------------------------------------------------------------- #
def _harvest_foodgraph(counts: Counter, graph) -> None:
    counts["core.foodgraph_cost_evaluations"] += graph.cost_evaluations
    counts["core.foodgraph_nodes_expanded"] += graph.nodes_expanded
    counts["core.foodgraph_edges"] += graph.edge_count


def _harvest_batching(counts: Counter, result) -> None:
    counts["core.batch_merges"] += result[1].merges


def _harvest_matching(counts: Counter, matches) -> None:
    counts["core.matched_pairs"] += len(matches)


def _harvest_traffic(counts: Counter, stats) -> None:
    counts["network.traffic_mutated_edges"] += stats.mutated_edges
    if stats.strategy == "repair":
        counts["network.label_repairs"] += 1
    elif stats.strategy == "rebuild":
        counts["network.label_rebuilds"] += 1


def _targets() -> list[tuple]:
    """``(owner, attribute, span name or None for count-only, harvester)``."""
    from repro.core import batching, foodgraph
    from repro.core.policy import AssignmentPolicy
    from repro.experiments import runner  # noqa: F401  (loads every policy)
    from repro.fleet.controller import FleetController
    from repro.network.distance_oracle import DistanceOracle
    from repro.orders.costs import CostModel
    from repro.resilience.ladder import LadderRegistry
    from repro.resilience.manager import ResilienceManager
    from repro.service.loop import DispatchService
    from repro.sim.engine import Simulator
    from repro.traffic.controller import TrafficController

    targets: list[tuple] = [
        (batching, "cluster_orders", "core.batching", _harvest_batching),
        (foodgraph, "build_sparsified_foodgraph", "core.foodgraph", _harvest_foodgraph),
        (foodgraph, "build_full_foodgraph", "core.foodgraph", _harvest_foodgraph),
        (foodgraph, "solve_matching", "core.matching", _harvest_matching),
        (CostModel, "marginal_cost", "orders.marginal_cost", None),
        (CostModel, "make_batch", "orders.make_batch", None),
        (CostModel, "merge_cost", None, None),
        (DistanceOracle, "apply_traffic_updates", "network.traffic_update",
         _harvest_traffic),
        (Simulator, "step_window", "sim.step_window", None),
        (Simulator, "finalize", "sim.finalize", None),
        (TrafficController, "advance", "traffic.advance", None),
        (FleetController, "advance", "fleet.advance", None),
        (FleetController, "screen_offers", "fleet.screen_offers", None),
        (FleetController, "plan_repositioning", "fleet.reposition", None),
        (DispatchService, "run", "service.run", None),
        (DispatchService, "submit_order", None, None),
        (ResilienceManager, "begin_window", "resilience.hooks", None),
        (ResilienceManager, "end_window", "resilience.hooks", None),
        (LadderRegistry, "solve_matching", "resilience.ladder_matching", None),
    ]
    targets.extend((DistanceOracle, method, "network.block_query", None)
                   for method in ("distances", "static_distances", "distance_matrix",
                                  "static_distance_matrix"))
    pending = list(AssignmentPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "assign" in vars(cls):
            targets.append((cls, "assign", "core.assign", None))
    return targets


class Tracer:
    """Records spans of wrapped public callables while installed.

    One ``Tracer`` serves one ``with`` block (one traced pass, or the traced
    set-up); a span is a ``(name, start, end, parent)`` tuple, stored when it
    closes at the index it was given when it opened, so ``spans`` is in start
    order.  A wrapper costs about 0.7 us a call on the reference host.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        #: (owner, attribute, original) for every live rebinding
        self.patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------- #
    @contextmanager
    def span(self, name: str):
        """Span around one of the benchmark's own calls into a layer."""
        parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, original, name: str | None, count_key: str, harvest):
        counts, spans, stack, clock = self.counts, self.spans, self._stack, time.perf_counter
        if name is None:
            def counted(*args, **kwargs):
                counts[count_key] += 1
                return original(*args, **kwargs)
            return counted
        if inspect.iscoroutinefunction(original):
            async def traced_async(*args, **kwargs):
                with self.span(name):
                    return await original(*args, **kwargs)
            return traced_async

        # The hot path (25-30 k calls a pass): no method call, no attribute
        # lookup, one tuple per span.
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if harvest is not None:
                harvest(counts, result)
            return result
        return traced

    # -- install / uninstall ---------------------------------------------- #
    def __enter__(self) -> Tracer:
        for owner, attr, name, harvest in _targets():
            original = vars(owner)[attr]
            owner_name = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
            wrapper = self._wrap(original, name, f"{owner_name}.{attr}", harvest)
            holders = [owner]
            if inspect.ismodule(owner):
                # ``from repro.core.foodgraph import solve_matching`` copies
                # the reference; rebind every loaded copy.
                holders += [mod for mod_name, mod in list(sys.modules.items())
                            if mod is not owner and mod is not None
                            and mod_name.split(".")[0] == "repro"
                            and vars(mod).get(attr) is original]
            for holder in holders:
                self.patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self.patches:
            holder, attr, original = self.patches.pop()
            setattr(holder, attr, original)
