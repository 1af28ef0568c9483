"""The accumulation-window simulation engine (Fig. 5 operational loop).

The :class:`Simulator` replays a :class:`~repro.workload.generator.Scenario`
under an :class:`~repro.core.policy.AssignmentPolicy`.  Time advances in
accumulation windows of length Δ.  At the end of every window the engine:

1. advances every vehicle along its route plan up to the window boundary
   (edges are traversed atomically; a vehicle finishes the edge it is on),
2. rejects orders that have waited unassigned for longer than the rejection
   timeout (30 minutes by default),
3. optionally *reshuffles*: releases orders that are assigned but not yet
   picked up back into the unassigned pool (FoodMatch only),
4. invokes the policy on the pool and the on-duty vehicles, measuring its
   wall-clock decision time (this is what the overflow figures report),
5. applies the returned assignments.

After the last window the simulation runs the remaining route plans to
completion so that every assigned order is either delivered or accounted for.

When the scenario carries a traffic timeline (incidents, closures, zonal
rush hours — see :mod:`repro.traffic`), a :class:`TrafficController` is
advanced at the start of every window, *before* vehicles move, so each
window's movement and assignment decisions see the road weights the events
imply for that window.

When the scenario carries a fleet plan (shift schedules, supply events,
driver behaviour — see :mod:`repro.fleet`), a :class:`FleetController` is
advanced at the same boundary: vehicles whose shift ended since the last
window hand their not-yet-picked-up orders back to the pool (the forced
handoff; onboard orders are still delivered under the paper's
no-abandonment rule), offline vehicles are excluded from the window's
``V(l)`` — and therefore from every FoodGraph first-mile candidate set —
drivers may stochastically decline the offers the policy produced (declined
batches re-enter the next window's pool), kitchens add sampled delays on
top of nominal prep times, and idle vehicles drift toward demand hot-spots
between windows.  Without a plan the engine is bit-for-bit the static-fleet
simulator.

**Continuous event resolution.**  With the default
``event_resolution="window"`` both controllers resolve at window boundaries
only — an event landing mid-window takes effect at the *next* boundary.
``event_resolution="continuous"`` puts the dynamics on the exact event
clock (:mod:`repro.sim.clock`): every timeline change point strictly inside
a window becomes a drain epoch at which the engine advances all vehicles to
the epoch (splitting their metered walks there), applies the traffic and/or
fleet change, and resumes movement under the re-weighted network — so an
incident slows the *remaining* edges of an in-flight journey, a severed
closure forces an immediate reroute (or an in-place wait when no detour
exists), and a driver logging out mid-window triggers the forced handoff at
the true logout epoch.  Policy decisions still happen at window boundaries
(Δ is the paper's decision cadence); only the *world* moves continuously.
A timeline whose change points are all boundary-aligned drains zero
sub-window events, which makes continuous mode bit-identical to window mode
on such scenarios (golden-tested).
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from collections.abc import Iterable, Sequence

from repro.core.policy import Assignment, AssignmentPolicy
from repro.fleet.controller import FleetController
from repro.network.geometry import haversine_distance
from repro.obs import tracer_for_run
from repro.obs.telemetry import Telemetry
from repro.obs.trace import use_tracer
from repro.resilience.context import use_ladders
from repro.orders.costs import CostModel
from repro.sim.advance import PathWalker
from repro.sim.clock import EventClock
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle, VehicleState
from repro.sim.metrics import OrderOutcome, SimulationResult, WindowRecord
from repro.traffic.controller import LABEL_WORK_COUNTERS, TrafficController
from repro.workload.generator import Scenario

#: The recognised event-resolution modes of :class:`SimulationConfig`.
EVENT_RESOLUTIONS = ("window", "continuous")

#: Where a :class:`Simulator` takes its order stream from: ``"scenario"``
#: iterates the scenario's recorded orders (batch mode), ``"external"``
#: accepts orders only through :meth:`Simulator.submit` (the dispatch
#: service's live-ingest mode).
ORDER_SOURCES = ("scenario", "external")


@dataclass(frozen=True)
class SimulationConfig:
    """Operational constraints of the simulated delivery service (Sec. V-B)."""

    delta: float = 180.0
    start: float = 0.0
    end: float = 86400.0
    rejection_timeout: float = 1800.0
    omega: float = 7200.0
    #: extra simulated time after the last window to flush in-flight orders
    drain_seconds: float = 3600.0
    #: whether the policy's measured decision time delays the window clock
    charge_decision_time: bool = False
    #: run the window hot path on the array kernels (vectorised vehicle
    #: advancement, batched SDT prefetch).  Bit-identical to the scalar
    #: reference path, which ``False`` selects for the equivalence property
    #: tests and the end-to-end benchmark's reference mode.
    vectorized: bool = True
    #: ``"window"`` resolves traffic/fleet events at window boundaries only
    #: (the historical engine); ``"continuous"`` drains them at their exact
    #: timestamps through the event clock (:mod:`repro.sim.clock`).  With a
    #: boundary-aligned timeline the two are bit-identical.
    event_resolution: str = "window"

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.event_resolution not in EVENT_RESOLUTIONS:
            raise ValueError(
                f"unknown event_resolution {self.event_resolution!r}; "
                f"known: {EVENT_RESOLUTIONS}")
        if self.end <= self.start:
            raise ValueError("simulation end must come after start")
        if self.rejection_timeout < 0:
            raise ValueError("rejection_timeout must be non-negative "
                             f"(got {self.rejection_timeout})")
        if self.omega < 0:
            raise ValueError(f"omega must be non-negative (got {self.omega})")
        if self.drain_seconds < 0:
            raise ValueError("drain_seconds must be non-negative "
                             f"(got {self.drain_seconds})")


class Simulator:
    """Replays one scenario under one policy and collects metrics."""

    def __init__(self, scenario: Scenario, policy: AssignmentPolicy,
                 cost_model: CostModel, config: SimulationConfig | None = None,
                 traffic: TrafficController | None = None,
                 fleet: FleetController | None = None,
                 tracer=None, order_source: str = "scenario",
                 resilience=None) -> None:
        if order_source not in ORDER_SOURCES:
            raise ValueError(f"unknown order_source {order_source!r}; "
                             f"known: {ORDER_SOURCES}")
        self.order_source = order_source
        #: Optional :class:`repro.resilience.ResilienceManager`.  ``None``
        #: (the default) installs no backend ladders at all — every window
        #: runs the exact pre-resilience code paths, bit-identically.
        self.resilience = resilience
        self.scenario = scenario
        self.policy = policy
        self.cost_model = cost_model
        self.config = config or SimulationConfig()
        if tracer is None:
            # Honours the session-wide --obs mode: the no-op singleton by
            # default, a recording tracer when the run opted in.
            tracer = tracer_for_run(
                f"{scenario.name}/{policy.name}",
                meta={"scenario": scenario.name, "policy": policy.name})
        self._tracer = tracer
        if traffic is None:
            timeline = getattr(scenario, "traffic", None)
            if timeline:
                traffic = TrafficController(cost_model.oracle, timeline)
        self.traffic = traffic
        if fleet is None:
            plan = getattr(scenario, "fleet", None)
            if plan is not None:
                fleet = FleetController(plan, cost_model.oracle,
                                        scenario.restaurants)
        self.fleet = fleet
        # Open the hub labels here, inside set-up, unless the horizon opens
        # on a weight change: the first window's update would discard them.
        if (self.traffic is None
                or not self.traffic.opens_on_weight_change(self.config.start)):
            cost_model.oracle.refresh()
        self._walker = (PathWalker(cost_model.oracle)
                        if self.config.vectorized else None)
        self.vehicles = scenario.fresh_vehicles()
        # Continuous mode: queue every timeline change point strictly inside
        # the horizon.  Boundary-aligned (or absent) timelines leave the
        # queue empty between boundaries, which is exactly window mode.
        self._clock: EventClock | None = None
        if self.config.event_resolution == "continuous":
            self._clock = EventClock.from_timelines(
                traffic=self.traffic.timeline if self.traffic is not None else None,
                fleet_plan=self.fleet.plan if self.fleet is not None else None,
                vehicles=self.vehicles,
                start=self.config.start, end=self.config.end)
        self._window_declines = 0
        self._window_handoffs = 0
        self._vehicle_clock: dict[int, float] = {
            v.vehicle_id: max(self.config.start, v.shift_start) for v in self.vehicles}
        self._outcomes: dict[int, OrderOutcome] = {}
        self._windows: list[WindowRecord] = []
        self._pool: dict[int, Order] = {}
        stream = scenario.orders if order_source == "scenario" else ()
        self._order_iter = iter(sorted(
            (o for o in stream
             if self.config.start <= o.placed_at < self.config.end),
            key=lambda o: (o.placed_at, o.order_id)))
        self._next_order: Order | None = next(self._order_iter, None)
        #: externally submitted orders awaiting ingestion (the dispatch
        #: service's ingest buffer): a heap keyed (placed_at, order_id) so
        #: ingestion pops in exactly the order the batch stream iterator
        #: yields — the heart of the service/batch fingerprint identity.
        self._external: list[tuple[float, int, Order]] = []
        #: scenario-stream orders already pulled from the iterator; a restored
        #: simulator fast-forwards the rebuilt iterator by this count.
        self._consumed_orders = 0
        #: boundary up to which ingestion has run; a submitted order placed
        #: before it arrives too late to be replayed deterministically.
        self._ingested_until = self.config.start
        #: every epoch at which the traffic controller advanced, in call
        #: order.  Hub-label repair is sequence-dependent (repaired labels
        #: differ from a fresh build in the last ULP), so checkpoint/restore
        #: replays this exact sequence on a fresh oracle instead of trying to
        #: snapshot label state.
        self._traffic_epochs: list[float] = []
        self._started = False
        self._finalized = False
        self._next_window_start = self.config.start
        self._cache_info_before: dict[str, dict[str, int]] | None = None
        self._plan_calls_before = 0
        self._counters_before: dict[str, int] | None = None

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    @property
    def next_window_start(self) -> float:
        """Start of the next accumulation window (``config.start`` initially)."""
        return self._next_window_start

    @property
    def started(self) -> bool:
        """Whether any window (or the drain) has run."""
        return self._started

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has produced the result."""
        return self._finalized

    @property
    def horizon_complete(self) -> bool:
        """Whether every accumulation window of the horizon has run."""
        return self._next_window_start >= self.config.end

    @property
    def window_records(self) -> list[WindowRecord]:
        """The per-window bookkeeping so far (read-only by convention)."""
        return self._windows

    @property
    def pool_size(self) -> int:
        """Number of orders currently waiting unassigned in the pool."""
        return len(self._pool)

    @property
    def pending_external_count(self) -> int:
        """Submitted-but-not-yet-ingested external orders."""
        return len(self._external)

    def outcome_for(self, order_id: int) -> OrderOutcome | None:
        """The outcome record of an ingested order (``None`` if unknown)."""
        return self._outcomes.get(order_id)

    def submit(self, orders: Iterable[Order]) -> int:
        """Queue externally arriving orders for ingestion (service mode).

        Orders are buffered on a heap keyed ``(placed_at, order_id)`` and
        ingested by the first window whose end lies past their placement
        time — byte-for-byte the treatment the batch scenario stream gets,
        which is what makes a :class:`Simulator` fed its scenario's own
        recorded stream through here fingerprint-identical to ``run()``.

        Raises :class:`ValueError` for an order placed before a boundary
        that ingestion already passed: admitting it would rewrite history.
        """
        if self._finalized:
            raise RuntimeError("cannot submit orders to a finalized Simulator")
        count = 0
        for order in orders:
            if order.placed_at < self._ingested_until:
                raise ValueError(
                    f"late arrival: order {order.order_id} was placed at "
                    f"t={order.placed_at:.3f} but ingestion has already "
                    f"passed t={self._ingested_until:.3f}; deterministic "
                    "replay requires orders to arrive before the window "
                    "that would ingest them fires")
            heapq.heappush(self._external, (order.placed_at, order.order_id, order))
            count += 1
        return count

    def run(self) -> SimulationResult:
        """Run the whole simulation and return the collected metrics."""
        if self._started:
            raise RuntimeError(
                "Simulator.run() called twice: the first run mutated the "
                "vehicle, pool and outcome state in place, so a second run "
                "would silently replay a corrupted world; construct a fresh "
                "Simulator (or restore a checkpoint) instead")
        return self.resume()

    def resume(self) -> SimulationResult:
        """Run every remaining window to the horizon and finalize.

        Unlike :meth:`run` this does not require a pristine simulator: a
        checkpoint-restored engine (or one that already stepped part of the
        horizon via :meth:`step_window`) continues from its next window
        boundary on the same Δ grid.
        """
        cfg = self.config
        while self._next_window_start < cfg.end:
            window_start = self._next_window_start
            self.step_window(window_start, min(window_start + cfg.delta, cfg.end))
        return self.finalize()

    def step_window(self, window_start: float, window_end: float) -> WindowRecord:
        """Run one accumulation window — the body of the Fig. 5 loop.

        This is the single code path shared by batch :meth:`run` and the
        dispatch service's clock-driven loop: controllers advance to the
        boundary, sub-window events drain (continuous mode), vehicles move,
        orders ingest, stale orders reject, the policy assigns, and the
        fleet plans repositioning.  Returns the window's record.
        """
        cfg = self.config
        if self._finalized:
            raise RuntimeError("cannot step a finalized Simulator")
        if not window_start < window_end <= cfg.end:
            raise ValueError(
                f"invalid window [{window_start}, {window_end}) for a "
                f"horizon ending at {cfg.end}")
        self._begin()
        tracer = self._tracer
        manager = self.resilience
        if manager is not None:
            # Fault windows are declared in simulated time; trip them before
            # anything in this window runs.
            manager.begin_window(window_start)
        # The tracer is installed as the ambient current tracer so the
        # instrumented layers below the engine (policy pipeline, cost model,
        # oracle, hub labels) report into this run's span tree without any
        # signature changes.  The ladder registry rides the same idiom: with
        # no manager, current_ladders() stays None and every kernel keeps
        # its exact single-backend path.
        ladders = (use_ladders(manager.ladders) if manager is not None
                   else nullcontext())
        with use_tracer(tracer), ladders:
            with tracer.span("engine.window"):
                self._window_declines = 0
                self._window_handoffs = 0
                with tracer.span("engine.controllers"):
                    self._apply_controllers(window_start)
                if self._clock is not None:
                    with tracer.span("engine.event_drain"):
                        self._drain_subwindow_events(window_start, window_end)
                # Hub-label work the updates queued runs now (an
                # ``oracle.refresh`` span), never inside the policy's
                # decision time.
                self.cost_model.oracle.refresh()
                with tracer.span("engine.advance"):
                    self._advance_all_vehicles(window_end)
                with tracer.span("engine.ingest"):
                    self._ingest_orders(window_end)
                self._reject_stale_orders(window_end)
                if self.policy.reshuffle:
                    with tracer.span("engine.reshuffle"):
                        self._release_unpicked_orders(window_end)
                self._run_window(window_start, window_end)
                if self.fleet is not None:
                    # Idle drivers drift toward demand during the *next*
                    # window.
                    with tracer.span("engine.reposition"):
                        self.fleet.plan_repositioning(self.vehicles,
                                                      window_end)
        self._next_window_start = window_end
        record = self._windows[-1]
        if manager is not None:
            # The controller sees every window's decision latency (the
            # stopwatch measures in all obs modes) and may move a ladder.
            manager.end_window(record.decision_seconds)
        return record

    def finalize(self) -> SimulationResult:
        """Drain in-flight route plans and return the collected metrics."""
        if self._finalized:
            raise RuntimeError(
                "Simulator.finalize() called twice; the result was already "
                "returned")
        self._begin()
        cfg = self.config
        tracer = self._tracer
        with use_tracer(tracer):
            with tracer.span("engine.drain"):
                self._drain(cfg.end + cfg.drain_seconds)
                self._reject_stale_orders(cfg.end + cfg.drain_seconds, final=True)
        self._finalized = True
        cache_stats = self._cache_stats_since(self._cache_info_before or {})
        telemetry = (self._collect_telemetry(self._counters_before, cache_stats)
                     if tracer.enabled else None)
        return SimulationResult(
            policy_name=self.policy.name,
            city_name=self.scenario.name,
            delta=cfg.delta,
            outcomes=self._outcomes,
            windows=self._windows,
            vehicles=self.vehicles,
            omega=cfg.omega,
            simulated_seconds=cfg.end - cfg.start,
            cache_stats=cache_stats,
            route_plans=(self._cost_counters()["route_plans"]
                         - self._plan_calls_before),
            telemetry=telemetry,
            resilience=(self.resilience.snapshot()
                        if self.resilience is not None else None),
        )

    def _begin(self) -> None:
        """First-touch snapshots of the shared oracle/cost-model counters."""
        if self._started:
            return
        self._started = True
        self._cache_info_before = self.cost_model.oracle.cache_info()
        self._plan_calls_before = self._cost_counters()["route_plans"]
        self._counters_before = ((self._oracle_counters() | self._cost_counters())
                                 if self._tracer.enabled else None)

    def _oracle_counters(self) -> dict[str, int]:
        """Cumulative oracle work counters (snapshotted like the caches)."""
        oracle = self.cost_model.oracle
        return {"queries": oracle.query_count,
                "batch_queries": getattr(oracle, "batch_query_count", 0),
                "sssp_runs": getattr(oracle, "sssp_runs", 0)}

    def _cost_counters(self) -> dict[str, int]:
        """Cumulative cost-model work counters (snapshotted like the caches)."""
        counters = {"route_plans": getattr(self.cost_model, "plan_calls", 0)}
        effort = getattr(self.cost_model, "search_stats", None)
        if effort is not None:
            counters.update(asdict(effort))
        return counters

    def _collect_telemetry(self, counters_before: dict[str, int],
                           cache_stats: dict[str, dict[str, int]]) -> Telemetry:
        """Fold run-scoped counters into the registry and capture the tracer.

        Oracle counters are cumulative across runs (experiment harnesses
        share cached oracles), so like :meth:`_cache_stats_since` this
        attributes only the deltas since run start to this simulation.
        Traffic/fleet controller logs are per-controller and controllers are
        per-run, so their totals fold in directly.
        """
        registry = self._tracer.registry
        for name, value in self._oracle_counters().items():
            registry.counter(f"oracle.{name}").inc(value - counters_before[name])
        for name, value in self._cost_counters().items():
            registry.counter(f"cost.{name}").inc(value - counters_before[name])
        for cache, info in cache_stats.items():
            if cache == "hub_labels":
                for key, value in info.items():
                    registry.gauge(f"oracle.index.{key}").set(value)
                continue
            registry.counter("oracle.cache.hits", cache=cache).inc(info["hits"])
            registry.counter("oracle.cache.misses", cache=cache).inc(info["misses"])
            registry.gauge("oracle.cache.size", cache=cache).set(info["size"])
        if self.traffic is not None:
            log = self.traffic.log
            for name in ("advances", "changed_edges", "repairs", "rebuilds",
                         "severed_edges", "disconnected_nodes",
                         *LABEL_WORK_COUNTERS):
                registry.counter(f"traffic.{name}").inc(getattr(log, name))
        if self.fleet is not None:
            log = self.fleet.log
            for name in ("advances", "offers", "declines", "handoff_orders",
                         "repositions"):
                registry.counter(f"fleet.{name}").inc(getattr(log, name))
        meta = {
            "windows": len(self._windows),
            "event_resolution": self.config.event_resolution,
        }
        if self.resilience is not None:
            # Ladder state lands twice, deliberately: full per-rung counters
            # for metrics consumers, and a compact meta summary the report
            # footer can render without decoding counter label syntax.
            self.resilience.fold_into(registry)
            meta["resilience"] = self.resilience.telemetry_meta()
        return Telemetry.from_tracer(self._tracer, meta=meta)

    def _cache_stats_since(self, before: dict[str, dict[str, int]],
                           ) -> dict[str, dict[str, int]]:
        """Per-cache counter deltas over this run (oracles may be shared).

        Experiment harnesses reuse one oracle across several policy runs, so
        the cumulative ``cache_info`` counters span runs; subtracting the
        run-start snapshot attributes hits and misses to this simulation
        only.  Sizes and capacities are reported as of the end of the run.

        When the oracle runs on the hub-label backend, a ``"hub_labels"``
        entry reports the index footprint (label entry count and resident
        bytes) as of the end of the run, so the scalability experiments see
        index memory next to the cache hit rates, plus the label actions
        still queued — reading them never runs that work.
        """
        stats: dict[str, dict[str, int]] = {}
        oracle = self.cost_model.oracle
        for name, info in oracle.cache_info().items():
            base = before.get(name, {})
            stats[name] = {
                "hits": info["hits"] - base.get("hits", 0),
                "misses": info["misses"] - base.get("misses", 0),
                "size": info["size"],
                "capacity": info["capacity"],
            }
        index_info = getattr(oracle, "index_info", None)
        if index_info is not None:
            footprint = index_info()
            if footprint is not None:
                stats["hub_labels"] = dict(footprint)
        return stats

    # ------------------------------------------------------------------ #
    # controllers and the event clock
    # ------------------------------------------------------------------ #
    def _apply_controllers(self, now: float,
                           sources: set[str] | None = None) -> None:
        """Bring the dynamic subsystems up to ``now``.

        ``sources`` restricts the advance to the subsystems whose events
        fired at ``now`` (the sub-window drain); ``None`` advances both (the
        window-boundary full recompute).  Traffic always applies before the
        fleet — the weights a logging-out driver's handoff replanning sees
        are the ones in force at the epoch.
        """
        if self.traffic is not None and (sources is None or "traffic" in sources):
            # Weights from this epoch onward reflect the events active at it;
            # vehicles and the policy both see the updated network.  The
            # epoch is recorded so checkpoint/restore can replay the exact
            # oracle mutation sequence (hub-label repair is path-dependent).
            self.traffic.advance(now)
            self._traffic_epochs.append(now)
        if self.fleet is not None and (sources is None or "fleet" in sources):
            # Drivers that logged out since the last advance hand their
            # pending orders back to the pool before anything else moves or
            # gets assigned.
            for vehicle in self.fleet.advance(now, self.vehicles):
                self._handoff_pending_orders(vehicle, now)

    def _drain_subwindow_events(self, window_start: float,
                                window_end: float) -> None:
        """Continuous mode: replay the event clock across one window.

        Events at or before ``window_start`` are discarded — the boundary
        advance just recomputed the complete controller state there.  Every
        remaining epoch strictly before ``window_end`` splits the window:
        vehicles advance to the epoch (their metered walks stop there, mid-
        journey), the epoch's sources apply, and movement resumes under the
        updated network/fleet state.  Events at ``window_end`` belong to the
        next boundary.
        """
        clock = self._clock
        assert clock is not None
        clock.discard_through(window_start)
        for epoch, events in clock.pop_groups(window_end):
            self._advance_all_vehicles(epoch)
            self._apply_controllers(epoch, sources={e.source for e in events})

    # ------------------------------------------------------------------ #
    # window mechanics
    # ------------------------------------------------------------------ #
    def _ingest_orders(self, until: float) -> None:
        """Move orders placed before ``until`` from the stream into the pool.

        On the vectorised path the shortest delivery times of all orders
        arriving this window are prefetched through one paired distance
        kernel call (bit-equal to the per-order point queries) before the
        per-order bookkeeping loop runs against the warm memo.
        """
        arrived: list[Order] = []
        while self._next_order is not None and self._next_order.placed_at < until:
            arrived.append(self._next_order)
            self._consumed_orders += 1
            self._next_order = next(self._order_iter, None)
        if self._external and self._external[0][0] < until:
            # Externally submitted orders (service mode) pop in global
            # (placed_at, order_id) order; merging with any scenario-stream
            # arrivals restores the canonical total order.
            while self._external and self._external[0][0] < until:
                arrived.append(heapq.heappop(self._external)[2])
            arrived.sort(key=lambda o: (o.placed_at, o.order_id))
        self._ingested_until = max(self._ingested_until, until)
        if not arrived:
            return
        if self.config.vectorized:
            self.cost_model.prefetch_sdt(arrived)
        for order in arrived:
            self._pool[order.order_id] = order
            self._outcomes[order.order_id] = OrderOutcome(
                order=order, sdt=self.cost_model.sdt(order))

    def _reject_stale_orders(self, now: float, final: bool = False) -> None:
        """Reject pool orders that have waited longer than the timeout.

        At the end of the simulation (``final=True``) every still-unassigned
        or undelivered-and-unpicked order is rejected so the objective
        accounts for it.
        """
        timeout = self.config.rejection_timeout
        stale = []
        for oid, order in self._pool.items():
            outcome = self._outcomes[oid]
            if final:
                stale.append(oid)
            elif not outcome.ever_assigned and (now - order.placed_at) > timeout:
                # Only never-assigned orders are rejected by the 30-minute
                # rule; a reshuffled order was serviceable when released.
                stale.append(oid)
        for oid in stale:
            del self._pool[oid]
            self._outcomes[oid].rejected = True

    def _release_unpicked_orders(self, now: float) -> None:
        """Reshuffling (Sec. IV-D2): un-assign orders not yet picked up."""
        for vehicle in self.vehicles:
            if not vehicle.pending_orders():
                continue
            released = vehicle.unassign_pending()
            if not released:
                continue
            for order in released:
                self._pool[order.order_id] = order
                outcome = self._outcomes[order.order_id]
                outcome.reassignments += 1
                outcome.assigned_at = None
                outcome.vehicle_id = None
            # The vehicle keeps only its onboard orders; recompute its plan.
            clock = self._vehicle_clock[vehicle.vehicle_id]
            plan = self.cost_model.plan_for_vehicle(vehicle, (), max(now, clock))
            vehicle.set_route(plan if not plan.is_empty else None)
            if not vehicle.assigned:
                vehicle.state = VehicleState.IDLE

    def _handoff_pending_orders(self, vehicle: Vehicle, now: float) -> None:
        """Forced handoff: a driver logged out holding undelivered orders.

        Orders not yet picked up go back to the unassigned pool (they were
        serviceable when offered, so like reshuffled orders they are not
        subject to the 30-minute rejection rule and re-enter the next
        window's FoodGraph).  Orders already on board stay with the vehicle:
        the engine keeps advancing committed route plans regardless of duty
        status, which is exactly the paper's no-abandonment rule.
        """
        released = vehicle.unassign_pending()
        if not released:
            return
        for order in released:
            self._pool[order.order_id] = order
            outcome = self._outcomes[order.order_id]
            outcome.handoffs += 1
            outcome.reassignments += 1
            outcome.assigned_at = None
            outcome.vehicle_id = None
        clock = self._vehicle_clock[vehicle.vehicle_id]
        plan = self.cost_model.plan_for_vehicle(vehicle, (), max(now, clock))
        vehicle.set_route(plan if not plan.is_empty else None)
        if not vehicle.assigned:
            vehicle.state = VehicleState.OFF_DUTY
        self._window_handoffs += len(released)
        if self.fleet is not None:
            self.fleet.log.handoff_orders += len(released)

    def _on_duty(self, vehicle: Vehicle, now: float) -> bool:
        """Duty status: the fleet controller decides when one is attached."""
        if self.fleet is not None:
            return self.fleet.on_duty(vehicle, now)
        return vehicle.is_on_duty(now)

    def _run_window(self, window_start: float, window_end: float) -> None:
        """Invoke the policy on the current pool and apply its assignments."""
        pool_orders = sorted(self._pool.values(), key=lambda o: (o.placed_at, o.order_id))
        on_duty = [v for v in self.vehicles if self._on_duty(v, window_end)]
        tracer = self._tracer
        # The stopwatch measures in every mode (the disabled tracer hands out
        # a timing-only singleton): decision_seconds is a simulation metric
        # (the overflow figures), not just telemetry.
        with tracer.stopwatch("engine.decide") as decide:
            assignments = self.policy.assign(pool_orders, on_duty, window_end)
        decision_seconds = decide.duration
        # Optionally charge the measured computation time into the simulated
        # clock: assignments made in this window only take effect that much
        # later, which is how slow policies hurt delivery times in the paper
        # (the time(A(o)) term of Eq. 2).
        effective_time = window_end
        if self.config.charge_decision_time:
            effective_time = window_end + decision_seconds
        with tracer.span("engine.apply"):
            assigned_count = self._apply_assignments(assignments, effective_time)
        self._windows.append(WindowRecord(
            start=window_start,
            end=window_end,
            num_orders=len(pool_orders),
            num_vehicles=len(on_duty),
            num_assigned_orders=assigned_count,
            decision_seconds=decision_seconds,
            num_declined_offers=self._window_declines,
            num_handoffs=self._window_handoffs,
        ))

    def _apply_assignments(self, assignments: Sequence[Assignment], now: float) -> int:
        """Commit policy decisions to vehicles and the order pool.

        With a fleet behaviour model attached, every assignment is first
        *offered* to its driver, who may decline (stochastic rejection).
        Declined batches simply stay in the pool — they re-enter the next
        window's FoodGraph and every decline is counted on the order — so
        rejection never drops an order silently.
        """
        assigned = 0
        if self.fleet is not None and assignments:
            assignments, declined = self.fleet.screen_offers(assignments, now)
            for assignment in declined:
                for order in assignment.orders:
                    outcome = self._outcomes.get(order.order_id)
                    if outcome is not None:
                        outcome.offer_rejections += 1
            self._window_declines += len(declined)
        for assignment in assignments:
            vehicle = assignment.vehicle
            fresh = [order for order in assignment.orders if order.order_id in self._pool]
            if not fresh:
                continue
            if not vehicle.can_accept(fresh):
                # Defensive: a buggy policy overloading a vehicle is ignored
                # rather than corrupting the simulation.
                continue
            vehicle.assign(fresh, assignment.plan)
            # A vehicle cannot act on an assignment before the assignment
            # exists; when decision time is charged, `now` lies past the
            # window boundary and the vehicle's clock is pushed accordingly.
            clock = self._vehicle_clock[vehicle.vehicle_id]
            self._vehicle_clock[vehicle.vehicle_id] = max(clock, now)
            for order in fresh:
                del self._pool[order.order_id]
                outcome = self._outcomes[order.order_id]
                outcome.assigned_at = now
                outcome.vehicle_id = vehicle.vehicle_id
                outcome.ever_assigned = True
                assigned += 1
        return assigned

    # ------------------------------------------------------------------ #
    # vehicle movement
    # ------------------------------------------------------------------ #
    def _advance_all_vehicles(self, until: float) -> None:
        for vehicle in self.vehicles:
            self._advance_vehicle(vehicle, until)

    def _advance_vehicle(self, vehicle: Vehicle, until: float) -> None:
        """Move one vehicle along its remaining stops up to time ``until``.

        Edges are traversed atomically: an edge whose traversal starts before
        ``until`` is completed even if it finishes slightly after, which keeps
        vehicles on nodes without losing residual window time.
        """
        clock = self._vehicle_clock[vehicle.vehicle_id]
        while vehicle.stop_queue and clock < until:
            stop = vehicle.stop_queue[0]
            if vehicle.node != stop.node:
                clock = self._walk_toward(vehicle, stop.node, clock, until)
                if vehicle.node != stop.node:
                    break
            # The vehicle is at the stop's node: process the stop.
            order = stop.order
            if stop.is_pickup:
                if order.order_id not in vehicle.assigned:
                    # The order was reshuffled away; drop the stale stop.
                    vehicle.stop_queue.pop(0)
                    continue
                ready = order.ready_at
                if self.fleet is not None:
                    # Kitchens run late: the behaviour model's sampled delay
                    # holds the vehicle at the restaurant past nominal prep.
                    ready += self.fleet.prep_delay(order)
                if clock < ready:
                    wait = ready - clock
                    vehicle.waiting_seconds += wait
                    outcome = self._outcomes.get(order.order_id)
                    if outcome is not None:
                        outcome.wait_seconds += wait
                    clock = ready
                vehicle.mark_picked_up(order.order_id)
                outcome = self._outcomes.get(order.order_id)
                if outcome is not None:
                    outcome.picked_up_at = clock
            else:
                if order.order_id in vehicle.assigned:
                    outcome = self._outcomes.get(order.order_id)
                    if outcome is not None:
                        outcome.delivered_at = clock
                    vehicle.mark_delivered(order.order_id)
            if vehicle.stop_queue:
                vehicle.stop_queue.pop(0)
        if not vehicle.stop_queue and vehicle.reposition_node is not None \
                and clock < until:
            # Idle repositioning: drift toward the fleet controller's target.
            # The walk is metered exactly like delivery movement (edge-atomic
            # legs at load 0) and any new assignment pre-empts it.
            clock = self._walk_toward(vehicle, vehicle.reposition_node, clock, until)
            if vehicle.node == vehicle.reposition_node:
                vehicle.reposition_node = None
        if not vehicle.stop_queue and clock < until:
            clock = until
        self._vehicle_clock[vehicle.vehicle_id] = clock

    def _walk_toward(self, vehicle: Vehicle, dest: int, clock: float,
                     until: float) -> float:
        """Walk a vehicle along the quickest path toward ``dest``.

        Edges are traversed atomically (an edge entered before ``until`` is
        completed even if it finishes slightly after); returns the updated
        vehicle clock.  The vehicle may end anywhere along the path when the
        window runs out.

        When ``dest`` is unreachable — a severed closure cut the vehicle off
        — the vehicle waits in place: the clock advances to ``until``
        without movement, and the walk is retried at the next epoch (the
        closure's end is itself an event, so the wait ends exactly when the
        road reopens in continuous mode, or at the following window boundary
        in window mode).

        The vectorised kernel (:class:`~repro.sim.advance.PathWalker`)
        meters the same edges with array cumulative sums and is bit-identical
        to the scalar reference below, which the property tests keep honest.
        """
        if self._walker is not None:
            return self._walker.walk(vehicle, dest, clock, until)
        return self._walk_toward_reference(vehicle, dest, clock, until)

    def _walk_toward_reference(self, vehicle: Vehicle, dest: int, clock: float,
                               until: float) -> float:
        """Scalar per-edge reference implementation of :meth:`_walk_toward`."""
        network = self.cost_model.oracle.network
        path = self.cost_model.oracle.path_or_none(vehicle.node, dest, clock)
        if path is None:
            # Severed off: wait in place for the road to reopen.
            return until
        for u, v in zip(path, path[1:], strict=False):
            if clock >= until:
                break
            travel = network.edge_time(u, v, clock)
            km = haversine_distance(network.coord(u), network.coord(v))
            vehicle.record_leg(km)
            clock += travel
            vehicle.node = v
        return clock

    def _drain(self, deadline: float) -> None:
        """Let vehicles finish their remaining route plans after the last window."""
        self._advance_all_vehicles(deadline)


def simulate(scenario: Scenario, policy: AssignmentPolicy, cost_model: CostModel,
             config: SimulationConfig | None = None,
             traffic: TrafficController | None = None,
             fleet: FleetController | None = None,
             resilience=None) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it.

    ``traffic`` / ``fleet`` may supply explicit controllers; by default the
    scenario's own traffic timeline and fleet plan (if any) are attached
    automatically.  ``resilience`` optionally attaches a
    :class:`repro.resilience.ResilienceManager` (backend ladders, latency-
    budget degradation, fault injection).
    """
    return Simulator(scenario, policy, cost_model, config, traffic=traffic,
                     fleet=fleet, resilience=resilience).run()


__all__ = ["EVENT_RESOLUTIONS", "ORDER_SOURCES", "SimulationConfig",
           "Simulator", "simulate"]
