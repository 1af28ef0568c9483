"""The traffic controller: advances the event timeline over a live oracle.

:class:`TrafficController` is the single writer of the network's dynamic
edge-override layer.  The simulator calls :meth:`TrafficController.advance`
at every accumulation-window boundary; the controller recomputes the set of
events active at the new timestamp, diffs the implied per-edge factors
against what is currently applied, and hands the (usually tiny) change set
to :meth:`DistanceOracle.apply_traffic_updates
<repro.network.distance_oracle.DistanceOracle.apply_traffic_updates>`, which
patches CSR weights in place, decides between repairing the hub-label index
incrementally and rebuilding it (the label work itself runs at the oracle's
next read) and evicts only the cache entries the mutation can have staled.

Because :meth:`advance` recomputes the desired state from the timeline each
call (rather than replaying deltas), it is idempotent, tolerant of clock
jumps in either direction, and self-healing when a fresh controller is
attached to a network that still carries overrides from an earlier run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.distance_oracle import DistanceOracle, TrafficRepairStats
from repro.network.hub_labeling import BUILD_WORK_COUNTERS
from repro.traffic.events import TrafficEvent, TrafficTimeline

#: The oracle's label-work counters a :class:`TrafficLog` mirrors.
LABEL_WORK_COUNTERS = ("label_builds", "label_repairs_run",
                       "label_repairs_superseded",
                       *(f"label_{name}" for name in BUILD_WORK_COUNTERS))


@dataclass
class TrafficLog:
    """Cumulative account of what the controller did over a run.

    ``repairs`` / ``rebuilds`` count the label *decisions* of its updates;
    the ``label_*`` fields count the label work the oracle actually ran
    (full builds, repairs) or dropped unrun (repairs a later rebuild
    superseded) since the controller was attached, and what those builds
    did (witness searches and settles, shortcuts, hierarchy levels).
    """

    advances: int = 0
    changed_edges: int = 0
    repairs: int = 0
    rebuilds: int = 0
    #: edges fully severed (factor=inf) across all updates, and the total
    #: size of the regions those cuts disconnected (0 for slowdown-only runs)
    severed_edges: int = 0
    disconnected_nodes: int = 0
    label_builds: int = 0
    label_repairs_run: int = 0
    label_repairs_superseded: int = 0
    label_witness_searches: int = 0
    label_witness_settles: int = 0
    label_shortcuts: int = 0
    label_levels: int = 0
    reports: list[TrafficRepairStats] = field(default_factory=list)

    def record(self, stats: TrafficRepairStats) -> None:
        self.advances += 1
        if stats.strategy == "noop":
            return
        self.changed_edges += stats.mutated_edges
        self.severed_edges += stats.severed_edges
        self.disconnected_nodes += stats.disconnected_nodes
        if stats.strategy == "repair":
            self.repairs += 1
        elif stats.strategy == "rebuild":
            self.rebuilds += 1
        self.reports.append(stats)


class TrafficController:
    """Drives a :class:`TrafficTimeline` against a live distance oracle."""

    def __init__(self, oracle: DistanceOracle, timeline: TrafficTimeline) -> None:
        self._oracle = oracle
        self._timeline = timeline
        # Edge factors this controller believes are applied.  Seeded from the
        # network so a fresh controller attached to a reused network clears
        # (or adopts) residual overrides instead of fighting them.
        self._applied: dict[tuple[int, int], float] = (
            oracle.network.edge_overrides())
        # Keyed by the (frozen, hashable) event itself: event_ids are not
        # validated unique, so they would be an ambiguous cache key.
        self._scope_cache: dict[TrafficEvent, tuple[tuple[int, int], ...]] = {}
        self._time: float | None = None
        self._log = TrafficLog()
        self._label_work_base = {name: getattr(oracle, name)
                                 for name in LABEL_WORK_COUNTERS}

    @property
    def log(self) -> TrafficLog:
        """What the controller did so far.

        The label-work fields are read off the oracle on access: that work
        runs at the oracle's next read, after :meth:`advance` returned.
        """
        for name, base in self._label_work_base.items():
            setattr(self._log, name, getattr(self._oracle, name) - base)
        return self._log

    @property
    def oracle(self) -> DistanceOracle:
        return self._oracle

    @property
    def timeline(self) -> TrafficTimeline:
        return self._timeline

    @property
    def time(self) -> float | None:
        """Timestamp of the last :meth:`advance` (``None`` before the first)."""
        return self._time

    def active_events(self, t: float) -> list[TrafficEvent]:
        """Events in force at ``t`` (delegates to the timeline)."""
        return self._timeline.active_at(t)

    def _scope(self, event: TrafficEvent) -> tuple[tuple[int, int], ...]:
        """Memoised edge scope of an event (zone expansion is a Dijkstra)."""
        cached = self._scope_cache.get(event)
        if cached is None:
            cached = event.scope_edges(self._oracle.network)
            self._scope_cache[event] = cached
        return cached

    def desired_overrides(self, t: float) -> dict[tuple[int, int], float]:
        """Per-edge factors implied by the events active at ``t``.

        Overlapping events compose multiplicatively per edge; edges under no
        active event are absent (factor ``1.0``).
        """
        desired: dict[tuple[int, int], float] = {}
        for event in self._timeline.active_at(t):
            for edge in self._scope(event):
                desired[edge] = desired.get(edge, 1.0) * event.factor
        return desired

    def opens_on_weight_change(self, t: float) -> bool:
        """Whether :meth:`advance` at ``t`` would change any edge weight.

        A pure read of :meth:`desired_overrides` against the overrides the
        network carries; the simulator asks it for its horizon's start, to
        skip building hub labels the first update would discard.
        """
        desired = self.desired_overrides(t)
        applied = self._oracle.network.edge_overrides()
        return any(desired.get(edge, 1.0) != applied.get(edge, 1.0)
                   for edge in desired.keys() | applied.keys())

    def advance(self, now: float) -> TrafficRepairStats:
        """Bring the network's traffic state up to timestamp ``now``.

        Computes the difference between the currently applied overrides and
        the ones the timeline wants at ``now`` and applies it through the
        oracle's scoped-invalidation path.  A window with no event boundary
        inside it is a no-op.
        """
        desired = self.desired_overrides(now)
        changes: dict[tuple[int, int], float] = {}
        for edge, factor in desired.items():
            if self._applied.get(edge, 1.0) != factor:
                changes[edge] = factor
        for edge in self._applied:
            if edge not in desired:
                changes[edge] = 1.0
        stats = self._oracle.apply_traffic_updates(changes)
        self._applied = desired
        self._time = now
        self._log.record(stats)
        return stats


__all__ = ["TrafficController", "TrafficLog"]
