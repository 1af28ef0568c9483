"""Per-order / per-window records and the evaluation metrics built on them.

The metrics match Sec. V-B of the paper:

* **XDT** — extra delivery time, the objective of Problem 1, reported in
  hours per simulated day;
* **O/Km** — orders delivered per kilometre driven,
  ``sum_k k * D_k / sum_k D_k`` where ``D_k`` is the distance driven while
  carrying exactly ``k`` orders;
* **WT** — total vehicle waiting time at restaurants, in hours per day;
* **rejection rate** — fraction of orders rejected after waiting 30 minutes
  unassigned;
* **overflown windows** — fraction of accumulation windows whose assignment
  computation took longer than Δ (the real-time feasibility criterion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.network.graph import time_slot
from repro.obs.telemetry import Telemetry
from repro.orders.order import Order
from repro.orders.vehicle import Vehicle


@dataclass
class OrderOutcome:
    """Everything that happened to one order during the simulation."""

    order: Order
    sdt: float
    assigned_at: float | None = None
    picked_up_at: float | None = None
    delivered_at: float | None = None
    rejected: bool = False
    vehicle_id: int | None = None
    reassignments: int = 0
    #: seconds the serving vehicle waited at the restaurant for this order
    wait_seconds: float = 0.0
    #: times a driver declined an offer containing this order (the batch then
    #: re-entered the next accumulation window's pool — the re-offer cascade)
    offer_rejections: int = 0
    #: times the order was handed back to the pool because its assigned
    #: driver logged out before picking it up (forced handoff)
    handoffs: int = 0
    #: whether the order was ever assigned to a vehicle (reshuffling may
    #: release it again, but a once-assigned order is considered serviceable
    #: and is not subject to the 30-minute rejection rule)
    ever_assigned: bool = False

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def delivery_duration(self) -> float | None:
        """Seconds between order placement and drop-off."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.order.placed_at

    @property
    def xdt(self) -> float | None:
        """Extra delivery time (Def. 7) of a delivered order, else ``None``."""
        duration = self.delivery_duration
        if duration is None:
            return None
        return max(0.0, duration - self.sdt)


@dataclass
class WindowRecord:
    """One accumulation window's bookkeeping."""

    start: float
    end: float
    num_orders: int
    num_vehicles: int
    num_assigned_orders: int
    decision_seconds: float
    #: offers declined by drivers in this window (fleet behaviour model)
    num_declined_offers: int = 0
    #: orders re-queued in this window because their driver logged out
    num_handoffs: int = 0

    @property
    def slot(self) -> int:
        """The 1-hour timeslot this window falls into."""
        return time_slot(self.start)

    @property
    def overflown(self) -> bool:
        """Whether the assignment computation exceeded the window length."""
        return self.decision_seconds > (self.end - self.start)

    def overflown_within(self, budget: float) -> bool:
        """Whether the assignment computation exceeded an explicit budget.

        Scaled-down workloads cannot meaningfully overflow the paper's
        3-minute budget, so the scalability experiments compare policies
        against a proportionally reduced real-time budget instead.
        """
        return self.decision_seconds > budget


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulated day under one policy."""

    policy_name: str
    city_name: str
    delta: float
    outcomes: dict[int, OrderOutcome] = field(default_factory=dict)
    windows: list[WindowRecord] = field(default_factory=list)
    vehicles: list[Vehicle] = field(default_factory=list)
    omega: float = 7200.0
    simulated_seconds: float = 86400.0
    #: per-cache hit/miss/size/capacity counters of the distance oracle's
    #: LRU caches, measured over this run only (the engine snapshots the
    #: counters at start and stores the deltas) — see
    #: :meth:`DistanceOracle.cache_info
    #: <repro.network.distance_oracle.DistanceOracle.cache_info>`
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: route plans the cost model searched over this run only (counter delta,
    #: like ``cache_stats``): the machine-independent measure of decision
    #: work the sensitivity figures assert their running-time shape on
    route_plans: int = 0
    #: per-phase latency profile, span records and folded counters captured
    #: when observability is enabled (``--obs summary|trace``); ``None`` on
    #: default runs — see :class:`repro.obs.telemetry.Telemetry`
    telemetry: Telemetry | None = None
    #: backend-ladder / degradation-controller / fault-injector snapshot when
    #: a resilience manager was attached (``--matching-backend``,
    #: ``--latency-budget``, ``--faults``); ``None`` on default runs.  Like
    #: ``telemetry`` and ``cache_stats``, never part of the fingerprint.
    resilience: dict | None = None

    def __repr__(self) -> str:
        # A summary, not the dataclass dump of every outcome, window and
        # vehicle: ``asyncio.run`` formats the finished task's result twice
        # when it restores the SIGINT handler, so a full repr cost every
        # served run time proportional to the whole day.
        return (f"SimulationResult(policy_name={self.policy_name!r}, "
                f"city_name={self.city_name!r}, orders={len(self.outcomes)}, "
                f"windows={len(self.windows)}, vehicles={len(self.vehicles)})")

    # ------------------------------------------------------------------ #
    # order-level metrics
    # ------------------------------------------------------------------ #
    @property
    def num_orders(self) -> int:
        return len(self.outcomes)

    @property
    def delivered_orders(self) -> list[OrderOutcome]:
        return [o for o in self.outcomes.values() if o.delivered]

    @property
    def rejected_orders(self) -> list[OrderOutcome]:
        return [o for o in self.outcomes.values() if o.rejected]

    @property
    def rejection_rate(self) -> float:
        """Fraction of orders rejected (Fig. 7(e), Fig. 9(d))."""
        if not self.outcomes:
            return 0.0
        return len(self.rejected_orders) / len(self.outcomes)

    def total_xdt_seconds(self, include_rejection_penalty: bool = False) -> float:
        """Total extra delivery time across delivered orders, in seconds.

        With ``include_rejection_penalty`` the objective of Problem 1 is
        returned instead (each rejection contributes Ω).
        """
        total = sum(o.xdt or 0.0 for o in self.delivered_orders)
        if include_rejection_penalty:
            total += self.omega * len(self.rejected_orders)
        return total

    def xdt_hours_per_day(self, include_rejection_penalty: bool = False) -> float:
        """XDT scaled to hours per 24-hour day (the unit of Figs. 6-9)."""
        seconds = self.total_xdt_seconds(include_rejection_penalty)
        if self.simulated_seconds <= 0:
            return 0.0
        scale = 86400.0 / self.simulated_seconds
        return seconds * scale / 3600.0

    def mean_xdt_seconds(self) -> float:
        delivered = self.delivered_orders
        if not delivered:
            return 0.0
        return sum(o.xdt or 0.0 for o in delivered) / len(delivered)

    def mean_delivery_minutes(self) -> float:
        delivered = self.delivered_orders
        if not delivered:
            return 0.0
        return sum(o.delivery_duration or 0.0 for o in delivered) / len(delivered) / 60.0

    # ------------------------------------------------------------------ #
    # vehicle-level metrics
    # ------------------------------------------------------------------ #
    def orders_per_km(self) -> float:
        """Average orders carried per kilometre driven (Sec. V-B, O/Km)."""
        total_km = 0.0
        weighted = 0.0
        for vehicle in self.vehicles:
            for load, km in vehicle.km_by_load.items():
                total_km += km
                weighted += load * km
        if total_km <= 0:
            return 0.0
        return weighted / total_km

    def total_distance_km(self) -> float:
        return sum(vehicle.distance_travelled_km for vehicle in self.vehicles)

    def waiting_hours_per_day(self) -> float:
        """Total vehicle waiting time at restaurants, scaled to hours/day."""
        seconds = sum(vehicle.waiting_seconds for vehicle in self.vehicles)
        if self.simulated_seconds <= 0:
            return 0.0
        scale = 86400.0 / self.simulated_seconds
        return seconds * scale / 3600.0

    # ------------------------------------------------------------------ #
    # window-level metrics (scalability)
    # ------------------------------------------------------------------ #
    def overflow_percentage(self, slots: Iterable[int] | None = None,
                            budget: float | None = None) -> float:
        """Percentage of accumulation windows whose decision time exceeded Δ.

        ``slots`` restricts the computation to specific 1-hour timeslots
        (the peak-slot variant of Fig. 6(g)).  ``budget`` replaces Δ as the
        real-time budget; the scaled-down scalability experiments use a
        proportionally reduced budget since a laptop-sized workload can never
        overflow the paper's 3-minute window in absolute terms.
        """
        windows = self.windows
        if slots is not None:
            wanted = set(slots)
            windows = [w for w in windows if w.slot in wanted]
        if not windows:
            return 0.0
        if budget is None:
            overflown = sum(1 for w in windows if w.overflown)
        else:
            overflown = sum(1 for w in windows if w.overflown_within(budget))
        return 100.0 * overflown / len(windows)

    def total_declined_offers(self) -> int:
        """Offers declined by drivers over the whole run (fleet behaviour)."""
        return sum(w.num_declined_offers for w in self.windows)

    def total_handoffs(self) -> int:
        """Orders re-queued because their driver logged out mid-assignment."""
        return sum(w.num_handoffs for w in self.windows)

    def mean_decision_seconds(self) -> float:
        if not self.windows:
            return 0.0
        return sum(w.decision_seconds for w in self.windows) / len(self.windows)

    def total_decision_seconds(self) -> float:
        return sum(w.decision_seconds for w in self.windows)

    def route_plans_per_window(self) -> float:
        """Mean route plans searched per accumulation window (exact work)."""
        return self.route_plans / len(self.windows) if self.windows else 0.0

    # ------------------------------------------------------------------ #
    # per-timeslot breakdowns (Figs. 6(i)-(k))
    # ------------------------------------------------------------------ #
    def xdt_by_slot(self) -> dict[int, float]:
        """Total XDT (seconds) of delivered orders grouped by placement slot."""
        result: dict[int, float] = {}
        for outcome in self.delivered_orders:
            slot = time_slot(outcome.order.placed_at)
            result[slot] = result.get(slot, 0.0) + (outcome.xdt or 0.0)
        return result

    def waiting_by_slot(self) -> dict[int, float]:
        """Vehicle waiting time (seconds) attributed to the pickup's slot."""
        result: dict[int, float] = {}
        for outcome in self.delivered_orders:
            if outcome.picked_up_at is None:
                continue
            slot = time_slot(outcome.picked_up_at)
            result[slot] = result.get(slot, 0.0) + outcome.wait_seconds
        return result

    # ------------------------------------------------------------------ #
    def total_cache_hits(self) -> int:
        """Distance-cache hits recorded during this run (all caches)."""
        return sum(stats.get("hits", 0) for stats in self.cache_stats.values())

    def total_cache_misses(self) -> int:
        """Distance-cache misses recorded during this run (all caches)."""
        return sum(stats.get("misses", 0) for stats in self.cache_stats.values())

    def cache_hit_rate(self) -> float:
        """Overall hit fraction of the oracle's LRU caches for this run."""
        hits = self.total_cache_hits()
        lookups = hits + self.total_cache_misses()
        if lookups == 0:
            return 0.0
        return hits / lookups

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Flat metric dictionary used by the experiment reports."""
        return {
            "orders": float(self.num_orders),
            "delivered": float(len(self.delivered_orders)),
            "rejected": float(len(self.rejected_orders)),
            "rejection_rate": self.rejection_rate,
            "xdt_hours_per_day": self.xdt_hours_per_day(),
            "objective_hours_per_day": self.xdt_hours_per_day(include_rejection_penalty=True),
            "mean_xdt_seconds": self.mean_xdt_seconds(),
            "mean_delivery_minutes": self.mean_delivery_minutes(),
            "orders_per_km": self.orders_per_km(),
            "waiting_hours_per_day": self.waiting_hours_per_day(),
            "overflow_pct": self.overflow_percentage(),
            "mean_decision_seconds": self.mean_decision_seconds(),
            "route_plans_per_window": self.route_plans_per_window(),
            "total_distance_km": self.total_distance_km(),
            "driver_declines": float(self.total_declined_offers()),
            "fleet_handoffs": float(self.total_handoffs()),
            "cache_hits": float(self.total_cache_hits()),
            "cache_misses": float(self.total_cache_misses()),
            "cache_hit_rate": self.cache_hit_rate(),
        }


__all__ = ["OrderOutcome", "WindowRecord", "SimulationResult"]
