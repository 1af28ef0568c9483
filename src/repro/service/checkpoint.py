"""Checkpoint/restore of a mid-horizon simulation (scenario JSON v4 based.)

A checkpoint freezes a :class:`~repro.sim.engine.Simulator` at an
accumulation-window boundary: the embedded scenario document (format v4),
the policy by name, the engine's dynamic state (order pool, outcomes,
vehicle positions/routes/clocks, window log, order-stream cursor) and the
fleet controller's RNG streams.  :func:`restore_simulator` rebuilds a
simulator that continues from the boundary **bit-identically**: running the
restored engine to the horizon produces the same ``result_fingerprint`` as
the uninterrupted run (golden-tested, including under traffic and fleet
dynamics).

Three restore subtleties are worth naming, because they shape the format:

* **Traffic state is replayed, not copied.**  Hub-label repair is
  path-dependent — repaired labels differ from a fresh build in the last
  ULP — so the checkpoint records the exact sequence of controller-advance
  epochs and restore replays them against a pristine oracle, reproducing
  the same mutation history instead of trying to serialise label arrays.
* **Fleet state is copied, not replayed.**  Drain activation samples an
  RNG against *historical* vehicle positions that no longer exist at
  restore time, so the controller's RNG states, drain intervals and
  activation set are serialised directly.
* **The SDT memo travels with the outcomes.**  ``CostModel.sdt`` memoises
  per order at ingest time and is never invalidated by traffic updates; a
  cold cache would recompute under the *current* traffic state.  Restore
  re-seeds the memo from each outcome's recorded ``sdt``.

Malformed snapshots are rejected with a :class:`CheckpointError` naming
the offending field (``checkpoint field 'engine.next_window_start' must be
finite``), mirroring the scenario loader's validation style.
"""

from __future__ import annotations

import heapq
import json
import math
import pathlib
from collections.abc import Mapping, Sequence

from repro.experiments.runner import build_policy
from repro.network.distance_oracle import DistanceOracle
from repro.orders.costs import CostModel
from repro.orders.order import Order
from repro.orders.route_plan import PlanEvaluation, RoutePlan, RouteStop
from repro.orders.vehicle import Vehicle, VehicleState
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.metrics import OrderOutcome, WindowRecord
from repro.workload.io import scenario_from_dict, scenario_to_dict

PathLike = str | pathlib.Path

CHECKPOINT_FORMAT = "repro.service-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint document is malformed; the message names the field."""


# --------------------------------------------------------------------------- #
# validation helpers
# --------------------------------------------------------------------------- #
def _get(mapping: object, key: str, context: str) -> object:
    """Fetch a required field, naming its dotted path when absent."""
    path = f"{context}.{key}" if context else key
    if not isinstance(mapping, Mapping):
        raise CheckpointError(
            f"checkpoint field '{context or key}' must be an object")
    if key not in mapping:
        raise CheckpointError(f"checkpoint missing required field '{path}'")
    return mapping[key]

def _finite(value: object, context: str) -> float:
    """Validate a required finite number, naming the offender.

    Type-preserving on purpose: the engine mixes ints and floats (an
    integer ``config.start``, float window ends), JSON keeps the
    distinction, and ``result_fingerprint`` hashes ``repr`` values —
    coercing ``43200`` to ``43200.0`` would change the fingerprint without
    changing any behaviour.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckpointError(
            f"checkpoint field '{context}' must be a number "
            f"(got {value!r})")
    if not math.isfinite(value):
        raise CheckpointError(
            f"checkpoint field '{context}' must be finite (got {value})")
    return value


def _optional(value: object, context: str) -> float | None:
    return None if value is None else _finite(value, context)


# --------------------------------------------------------------------------- #
# order / route serialisation
# --------------------------------------------------------------------------- #
def _order_to_dict(order: Order) -> dict:
    return {
        "order_id": order.order_id,
        "restaurant_node": order.restaurant_node,
        "customer_node": order.customer_node,
        "placed_at": order.placed_at,
        "items": order.items,
        "prep_time": order.prep_time,
        "restaurant_id": order.restaurant_id,
    }


def _order_from_dict(payload: object, context: str) -> Order:
    return Order(
        order_id=int(_get(payload, "order_id", context)),  # type: ignore[arg-type]
        restaurant_node=int(_get(payload, "restaurant_node", context)),  # type: ignore[arg-type]
        customer_node=int(_get(payload, "customer_node", context)),  # type: ignore[arg-type]
        placed_at=_finite(_get(payload, "placed_at", context),
                          f"{context}.placed_at"),
        items=int(_get(payload, "items", context)),  # type: ignore[arg-type]
        prep_time=_finite(_get(payload, "prep_time", context),
                          f"{context}.prep_time"),
        restaurant_id=(None if payload["restaurant_id"] is None  # type: ignore[index]
                       else int(payload["restaurant_id"])),  # type: ignore[index]
    )


def _stops_to_list(stops: Sequence[RouteStop]) -> list[list]:
    return [[stop.order.order_id, stop.node, stop.is_pickup] for stop in stops]


def _stops_from_list(payload: object, orders: Mapping[int, Order],
                     context: str) -> list[RouteStop]:
    stops: list[RouteStop] = []
    for idx, row in enumerate(payload):  # type: ignore[union-attr]
        order_id, node, is_pickup = row
        order = orders.get(int(order_id))
        if order is None:
            raise CheckpointError(
                f"checkpoint field '{context}[{idx}]' references unknown "
                f"order {order_id}")
        stops.append(RouteStop(int(node), order, bool(is_pickup)))
    return stops


def _route_to_dict(route: RoutePlan | None) -> dict | None:
    if route is None:
        return None
    ev = route.evaluation
    return {
        "stops": _stops_to_list(route.stops),
        "start_node": route.start_node,
        "start_time": route.start_time,
        "evaluation": {
            "total_xdt": ev.total_xdt,
            "delivery_times": sorted(ev.delivery_times.items()),
            "pickup_times": sorted(ev.pickup_times.items()),
            "waiting_time": ev.waiting_time,
            "travel_time": ev.travel_time,
            "finish_time": ev.finish_time,
        },
    }


def _route_from_dict(payload: object, orders: Mapping[int, Order],
                     context: str) -> RoutePlan | None:
    if payload is None:
        return None
    ev = _get(payload, "evaluation", context)
    evaluation = PlanEvaluation(
        # Values pass through untouched (no float() coercion, no finiteness
        # check): committed plan evaluations are finite floats already, and
        # preserving the exact JSON value keeps restored state bit-equal.
        total_xdt=_get(ev, "total_xdt", f"{context}.evaluation"),  # type: ignore[arg-type]
        delivery_times={int(k): v
                        for k, v in _get(ev, "delivery_times",
                                         f"{context}.evaluation")},  # type: ignore[union-attr]
        pickup_times={int(k): v
                      for k, v in _get(ev, "pickup_times",
                                       f"{context}.evaluation")},  # type: ignore[union-attr]
        waiting_time=_get(ev, "waiting_time", f"{context}.evaluation"),  # type: ignore[arg-type]
        travel_time=_get(ev, "travel_time", f"{context}.evaluation"),  # type: ignore[arg-type]
        finish_time=_get(ev, "finish_time", f"{context}.evaluation"),  # type: ignore[arg-type]
    )
    return RoutePlan(
        stops=tuple(_stops_from_list(_get(payload, "stops", context), orders,
                                     f"{context}.stops")),
        start_node=int(_get(payload, "start_node", context)),  # type: ignore[arg-type]
        start_time=_finite(_get(payload, "start_time", context),
                           f"{context}.start_time"),
        evaluation=evaluation,
    )


def _rng_state_to_list(state: tuple) -> list:
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_list(payload: object, context: str) -> tuple:
    try:
        version, internal, gauss_next = payload  # type: ignore[misc]
        return (int(version), tuple(int(x) for x in internal), gauss_next)
    except (TypeError, ValueError):
        raise CheckpointError(
            f"checkpoint field '{context}' is not a serialised RNG state") \
            from None


# --------------------------------------------------------------------------- #
# snapshot
# --------------------------------------------------------------------------- #
def snapshot_simulator(sim: Simulator, policy_name: str,
                       policy_options: Sequence[tuple[str, object]] = (),
                       ) -> dict:
    """Freeze a simulator at its current window boundary into a JSON dict.

    Must be taken *between* windows (the dispatch service only checkpoints
    there; batch callers checkpoint between :meth:`Simulator.step_window`
    calls).  ``policy_name``/``policy_options`` record how to rebuild the
    policy — nothing a policy carries across windows changes an outcome
    (FoodMatch's settle records only save work), so the name is enough.
    """
    if sim.finalized:
        raise CheckpointError("cannot checkpoint a finalized Simulator")
    cfg = sim.config
    fleet_state = None
    if sim.fleet is not None:
        controller = sim.fleet
        timeline = list(controller.plan.timeline)
        repositioner_rng = getattr(controller._repositioner, "_rng", None)
        fleet_state = {
            "rng": _rng_state_to_list(controller._rng.getstate()),
            "offer_rng": _rng_state_to_list(controller._offer_rng.getstate()),
            "repositioner_rng": (None if repositioner_rng is None else
                                 _rng_state_to_list(repositioner_rng.getstate())),
            "drain_intervals": [[vid, [list(iv) for iv in intervals]]
                                for vid, intervals
                                in sorted(controller._drain_intervals.items())],
            "activated": sorted(timeline.index(event)
                                for event in controller._activated),
            "prev_on_duty": (None if controller._prev_on_duty is None
                             else sorted(controller._prev_on_duty)),
            "time": controller._time,
            "log": {name: getattr(controller.log, name)
                    for name in ("advances", "logins", "logouts",
                                 "surge_activations", "drained_vehicles",
                                 "offers", "declines", "handoff_orders",
                                 "repositions")},
        }
    vehicles = []
    for vehicle in sim.vehicles:
        vehicles.append({
            "vehicle_id": vehicle.vehicle_id,
            "node": vehicle.node,
            "state": vehicle.state.value,
            "reposition_node": vehicle.reposition_node,
            "distance_travelled_km": vehicle.distance_travelled_km,
            "waiting_seconds": vehicle.waiting_seconds,
            "km_by_load": [[load, km]
                           for load, km in sorted(vehicle.km_by_load.items())],
            # Dict order is preserved: `unassign_pending` iterates it, so
            # the restored dict must iterate identically.
            "assigned": list(vehicle.assigned),
            "picked_up": sorted(vehicle.picked_up),
            "route": _route_to_dict(vehicle.route),
            "stop_queue": _stops_to_list(vehicle.stop_queue),
        })
    outcomes = []
    for outcome in sim._outcomes.values():
        outcomes.append({
            "order": _order_to_dict(outcome.order),
            "sdt": outcome.sdt,
            "assigned_at": outcome.assigned_at,
            "picked_up_at": outcome.picked_up_at,
            "delivered_at": outcome.delivered_at,
            "rejected": outcome.rejected,
            "vehicle_id": outcome.vehicle_id,
            "reassignments": outcome.reassignments,
            "wait_seconds": outcome.wait_seconds,
            "offer_rejections": outcome.offer_rejections,
            "handoffs": outcome.handoffs,
            "ever_assigned": outcome.ever_assigned,
        })
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "scenario": scenario_to_dict(sim.scenario),
        "policy": {"name": policy_name,
                   "options": [[key, value] for key, value in policy_options]},
        "config": {
            "delta": cfg.delta,
            "start": cfg.start,
            "end": cfg.end,
            "rejection_timeout": cfg.rejection_timeout,
            "omega": cfg.omega,
            "drain_seconds": cfg.drain_seconds,
            "charge_decision_time": cfg.charge_decision_time,
            "event_resolution": cfg.event_resolution,
        },
        "engine": {
            "order_source": sim.order_source,
            "started": sim.started,
            "next_window_start": sim.next_window_start,
            "ingested_until": sim._ingested_until,
            "consumed_orders": sim._consumed_orders,
            "traffic_epochs": list(sim._traffic_epochs),
            "external_orders": [_order_to_dict(order)
                                for _, _, order in sorted(sim._external)],
            "pool": list(sim._pool),
            "outcomes": outcomes,
            "vehicle_clock": [[vid, t]
                              for vid, t in sim._vehicle_clock.items()],
            "windows": [{
                "start": w.start, "end": w.end,
                "num_orders": w.num_orders,
                "num_vehicles": w.num_vehicles,
                "num_assigned_orders": w.num_assigned_orders,
                "decision_seconds": w.decision_seconds,
                "num_declined_offers": w.num_declined_offers,
                "num_handoffs": w.num_handoffs,
            } for w in sim._windows],
            "vehicles": vehicles,
            "fleet": fleet_state,
        },
    }


# --------------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------------- #
def policy_spec_from_checkpoint(payload: Mapping) -> tuple[str, dict]:
    """The (policy name, options dict) recorded in a checkpoint."""
    policy = _get(payload, "policy", "")
    name = str(_get(policy, "name", "policy"))
    options = {str(key): value
               for key, value in _get(policy, "options", "policy")}  # type: ignore[union-attr]
    return name, options


def restore_simulator(payload: Mapping, oracle: DistanceOracle | None = None,
                      tracer=None) -> Simulator:
    """Rebuild a mid-horizon simulator from :func:`snapshot_simulator` output.

    ``oracle`` may supply a pre-built (pristine or resettable) oracle for
    the checkpoint's network — it is reset to its pre-traffic state before
    the recorded epoch sequence is replayed.  By default a fresh oracle is
    built from the embedded scenario.  The returned simulator continues
    from its next window boundary via :meth:`Simulator.step_window` /
    :meth:`Simulator.resume`.

    Checkpoints written while the engine still had a second, per-edge
    window path carry one more ``config`` flag that selected it; restore
    ignores it, since both of its values gave identical runs.
    """
    if _get(payload, "format", "") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint field 'format' must be {CHECKPOINT_FORMAT!r} "
            f"(got {payload.get('format')!r})")
    if _get(payload, "version", "") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(supported: {CHECKPOINT_VERSION})")
    scenario = scenario_from_dict(dict(_get(payload, "scenario", "")))  # type: ignore[arg-type]
    config_payload = _get(payload, "config", "")
    config = SimulationConfig(
        delta=_finite(_get(config_payload, "delta", "config"), "config.delta"),
        start=_finite(_get(config_payload, "start", "config"), "config.start"),
        end=_finite(_get(config_payload, "end", "config"), "config.end"),
        rejection_timeout=_finite(
            _get(config_payload, "rejection_timeout", "config"),
            "config.rejection_timeout"),
        omega=_finite(_get(config_payload, "omega", "config"), "config.omega"),
        drain_seconds=_finite(_get(config_payload, "drain_seconds", "config"),
                              "config.drain_seconds"),
        charge_decision_time=bool(
            _get(config_payload, "charge_decision_time", "config")),
        event_resolution=str(
            _get(config_payload, "event_resolution", "config")),
    )
    engine = _get(payload, "engine", "")
    order_source = str(_get(engine, "order_source", "engine"))
    next_window_start = _finite(
        _get(engine, "next_window_start", "engine"),
        "engine.next_window_start")
    if oracle is None:
        oracle = DistanceOracle(scenario.network)
    elif scenario.traffic:
        # A reused oracle may carry residual overrides from an earlier run;
        # the epoch replay below assumes the pristine pre-traffic state.
        oracle.reset_traffic_state()
    cost_model = CostModel(oracle)
    policy_name, policy_options = policy_spec_from_checkpoint(payload)
    policy = build_policy(policy_name, cost_model, **policy_options)
    sim = Simulator(scenario, policy, cost_model, config, tracer=tracer,
                    order_source=order_source)

    # -- traffic: replay the exact controller-advance epoch sequence ----- #
    traffic_epochs = [_finite(epoch, f"engine.traffic_epochs[{i}]")
                      for i, epoch in enumerate(_get(engine, "traffic_epochs",
                                                     "engine"))]  # type: ignore[arg-type]
    if traffic_epochs and sim.traffic is None:
        raise CheckpointError(
            "checkpoint field 'engine.traffic_epochs' is non-empty but the "
            "embedded scenario has no traffic timeline")
    if sim.traffic is not None:
        for epoch in traffic_epochs:
            sim.traffic.advance(epoch)
    sim._traffic_epochs = list(traffic_epochs)

    # -- order table: scenario stream + outcome orders + pending external  #
    orders: dict[int, Order] = {o.order_id: o for o in scenario.orders}
    outcome_rows = _get(engine, "outcomes", "engine")
    restored_outcomes: dict[int, OrderOutcome] = {}
    for idx, row in enumerate(outcome_rows):  # type: ignore[union-attr]
        context = f"engine.outcomes[{idx}]"
        order = _order_from_dict(_get(row, "order", context),
                                 f"{context}.order")
        orders[order.order_id] = order
        restored_outcomes[order.order_id] = OrderOutcome(
            order=order,
            sdt=_finite(_get(row, "sdt", context), f"{context}.sdt"),
            assigned_at=_optional(row.get("assigned_at"),
                                  f"{context}.assigned_at"),
            picked_up_at=_optional(row.get("picked_up_at"),
                                   f"{context}.picked_up_at"),
            delivered_at=_optional(row.get("delivered_at"),
                                   f"{context}.delivered_at"),
            rejected=bool(_get(row, "rejected", context)),
            vehicle_id=(None if row.get("vehicle_id") is None
                        else int(row["vehicle_id"])),
            reassignments=int(_get(row, "reassignments", context)),  # type: ignore[arg-type]
            wait_seconds=_finite(_get(row, "wait_seconds", context),
                                 f"{context}.wait_seconds"),
            offer_rejections=int(_get(row, "offer_rejections", context)),  # type: ignore[arg-type]
            handoffs=int(_get(row, "handoffs", context)),  # type: ignore[arg-type]
            ever_assigned=bool(_get(row, "ever_assigned", context)),
        )
    sim._outcomes = restored_outcomes
    # Re-seed the SDT memo: it was filled at ingest time and is never
    # invalidated by traffic updates, so a cold cache could recompute a
    # different value under the current traffic state.
    for order_id, outcome in restored_outcomes.items():
        cost_model._sdt_cache[order_id] = outcome.sdt

    external_rows = _get(engine, "external_orders", "engine")
    external: list[tuple[float, int, Order]] = []
    for idx, row in enumerate(external_rows):  # type: ignore[union-attr]
        order = _order_from_dict(row, f"engine.external_orders[{idx}]")
        orders[order.order_id] = order
        external.append((order.placed_at, order.order_id, order))
    heapq.heapify(external)
    sim._external = external

    pool_ids = _get(engine, "pool", "engine")
    pool: dict[int, Order] = {}
    for order_id in pool_ids:  # type: ignore[union-attr]
        outcome = restored_outcomes.get(int(order_id))
        if outcome is None:
            raise CheckpointError(
                f"checkpoint field 'engine.pool' references order {order_id} "
                "with no outcome record")
        pool[int(order_id)] = outcome.order
    sim._pool = pool

    # -- scenario-stream cursor ------------------------------------------ #
    consumed = int(_finite(_get(engine, "consumed_orders", "engine"),
                           "engine.consumed_orders"))
    for _ in range(consumed):
        if sim._next_order is None:
            raise CheckpointError(
                f"checkpoint field 'engine.consumed_orders' ({consumed}) "
                "exceeds the scenario's order stream length")
        sim._next_order = next(sim._order_iter, None)
    sim._consumed_orders = consumed

    # -- vehicles --------------------------------------------------------- #
    by_id = {vehicle.vehicle_id: vehicle for vehicle in sim.vehicles}
    vehicle_rows = _get(engine, "vehicles", "engine")
    for idx, row in enumerate(vehicle_rows):  # type: ignore[union-attr]
        context = f"engine.vehicles[{idx}]"
        vehicle_id = int(_get(row, "vehicle_id", context))  # type: ignore[arg-type]
        vehicle = by_id.get(vehicle_id)
        if vehicle is None:
            raise CheckpointError(
                f"checkpoint field '{context}.vehicle_id' references "
                f"unknown vehicle {vehicle_id}")
        vehicle.node = int(_get(row, "node", context))  # type: ignore[arg-type]
        try:
            vehicle.state = VehicleState(str(_get(row, "state", context)))
        except ValueError:
            raise CheckpointError(
                f"checkpoint field '{context}.state' is not a vehicle "
                f"state: {row.get('state')!r}") from None
        vehicle.reposition_node = (None if row.get("reposition_node") is None
                                   else int(row["reposition_node"]))
        vehicle.distance_travelled_km = _finite(
            _get(row, "distance_travelled_km", context),
            f"{context}.distance_travelled_km")
        vehicle.waiting_seconds = _finite(
            _get(row, "waiting_seconds", context),
            f"{context}.waiting_seconds")
        vehicle.km_by_load = {int(load): km
                              for load, km in _get(row, "km_by_load", context)}  # type: ignore[union-attr]
        assigned: dict[int, Order] = {}
        for order_id in _get(row, "assigned", context):  # type: ignore[union-attr]
            order = orders.get(int(order_id))
            if order is None:
                raise CheckpointError(
                    f"checkpoint field '{context}.assigned' references "
                    f"unknown order {order_id}")
            assigned[int(order_id)] = order
        vehicle.assigned = assigned
        vehicle.picked_up = set()
        for order_id in _get(row, "picked_up", context):  # type: ignore[union-attr]
            vehicle.picked_up.add(int(order_id))
        vehicle.route = _route_from_dict(row.get("route"), orders,
                                         f"{context}.route")
        vehicle.stop_queue = _stops_from_list(
            _get(row, "stop_queue", context), orders, f"{context}.stop_queue")

    clock_rows = _get(engine, "vehicle_clock", "engine")
    vehicle_clock: dict[int, float] = {}
    for vid, t in clock_rows:  # type: ignore[union-attr]
        if int(vid) not in by_id:
            raise CheckpointError(
                f"checkpoint field 'engine.vehicle_clock' references "
                f"unknown vehicle {vid}")
        vehicle_clock[int(vid)] = _finite(t, f"engine.vehicle_clock[{vid}]")
    missing_clock = set(by_id) - set(vehicle_clock)
    if missing_clock:
        raise CheckpointError(
            "checkpoint field 'engine.vehicle_clock' is missing vehicles "
            f"{sorted(missing_clock)}")
    sim._vehicle_clock = vehicle_clock

    sim._windows = [WindowRecord(
        start=_finite(_get(w, "start", f"engine.windows[{i}]"),
                      f"engine.windows[{i}].start"),
        end=_finite(_get(w, "end", f"engine.windows[{i}]"),
                    f"engine.windows[{i}].end"),
        num_orders=int(_get(w, "num_orders", f"engine.windows[{i}]")),  # type: ignore[arg-type]
        num_vehicles=int(_get(w, "num_vehicles", f"engine.windows[{i}]")),  # type: ignore[arg-type]
        num_assigned_orders=int(
            _get(w, "num_assigned_orders", f"engine.windows[{i}]")),  # type: ignore[arg-type]
        decision_seconds=_get(w, "decision_seconds", f"engine.windows[{i}]"),  # type: ignore[arg-type]
        num_declined_offers=int(
            _get(w, "num_declined_offers", f"engine.windows[{i}]")),  # type: ignore[arg-type]
        num_handoffs=int(_get(w, "num_handoffs", f"engine.windows[{i}]")),  # type: ignore[arg-type]
    ) for i, w in enumerate(_get(engine, "windows", "engine"))]  # type: ignore[union-attr]

    # -- fleet controller: direct state restore --------------------------- #
    fleet_state = engine.get("fleet") if isinstance(engine, Mapping) else None  # type: ignore[union-attr]
    if fleet_state is not None:
        if sim.fleet is None:
            raise CheckpointError(
                "checkpoint field 'engine.fleet' is present but the "
                "embedded scenario has no fleet plan")
        controller = sim.fleet
        controller._rng.setstate(_rng_state_from_list(
            _get(fleet_state, "rng", "engine.fleet"), "engine.fleet.rng"))
        controller._offer_rng.setstate(_rng_state_from_list(
            _get(fleet_state, "offer_rng", "engine.fleet"),
            "engine.fleet.offer_rng"))
        repositioner_state = fleet_state.get("repositioner_rng")
        repositioner_rng = getattr(controller._repositioner, "_rng", None)
        if repositioner_state is not None and repositioner_rng is not None:
            repositioner_rng.setstate(_rng_state_from_list(
                repositioner_state, "engine.fleet.repositioner_rng"))
        controller._drain_intervals = {
            int(vid): [(_finite(start, f"engine.fleet.drain_intervals[{vid}]"),
                        _finite(end, f"engine.fleet.drain_intervals[{vid}]"))
                       for start, end in intervals]
            for vid, intervals in _get(fleet_state, "drain_intervals",
                                       "engine.fleet")}  # type: ignore[union-attr]
        timeline = list(controller.plan.timeline)
        activated = set()
        for index in _get(fleet_state, "activated", "engine.fleet"):  # type: ignore[union-attr]
            if not 0 <= int(index) < len(timeline):
                raise CheckpointError(
                    f"checkpoint field 'engine.fleet.activated' index "
                    f"{index} is outside the fleet timeline "
                    f"(length {len(timeline)})")
            activated.add(timeline[int(index)])
        controller._activated = activated
        prev = fleet_state.get("prev_on_duty")
        controller._prev_on_duty = None if prev is None else {int(v) for v in prev}
        controller._time = _optional(fleet_state.get("time"),
                                     "engine.fleet.time")
        log_payload = _get(fleet_state, "log", "engine.fleet")
        for name in ("advances", "logins", "logouts", "surge_activations",
                     "drained_vehicles", "offers", "declines",
                     "handoff_orders", "repositions"):
            setattr(controller.log, name,
                    int(_get(log_payload, name, "engine.fleet.log")))  # type: ignore[arg-type]

    # -- cursor state ------------------------------------------------------ #
    sim._ingested_until = _finite(_get(engine, "ingested_until", "engine"),
                                  "engine.ingested_until")
    sim._next_window_start = next_window_start
    if bool(_get(engine, "started", "engine")):
        # Take the shared-counter baseline *now* (post-replay) so the
        # resumed run's cache/telemetry deltas cover only what it does.
        sim._begin()
    return sim


# --------------------------------------------------------------------------- #
# file I/O
# --------------------------------------------------------------------------- #
def save_checkpoint(snapshot: Mapping, path: PathLike) -> None:
    """Write a checkpoint document as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)


def load_checkpoint(path: PathLike) -> dict:
    """Read a checkpoint document previously written with :func:`save_checkpoint`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint file {path} must contain a JSON object "
            f"(got {type(payload).__name__})")
    return payload


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "snapshot_simulator",
    "restore_simulator",
    "policy_spec_from_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]
