"""Public value types of the dispatch service's async API.

These are the shapes :class:`~repro.service.loop.DispatchService` hands to
clients: the admission receipt of ``submit_order``, the lifecycle view of
``order_status``, and the service-level error types.  They are plain frozen
dataclasses — picklable, comparable, loggable — so loadgen clients can
ship them across process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.metrics import OrderOutcome

#: Admission receipt states, in decreasing order of happiness.
ADMISSION_STATES = ("accepted", "deferred", "shed")

#: Order lifecycle states reported by ``order_status``.
ORDER_STATES = ("unknown", "submitted", "pooled", "assigned", "picked_up",
                "delivered", "rejected")


class ServiceError(RuntimeError):
    """Base class of dispatch-service errors."""


class ServiceClosed(ServiceError):
    """The service has stopped (or finalized) and accepts no more work."""


@dataclass(frozen=True)
class Admission:
    """Receipt of one ``submit_order`` call.

    ``"accepted"`` — enqueued with headroom.  ``"deferred"`` — enqueued,
    but a backpressure signal was tripped at admission time (the call may
    have parked on the bounded queue); the producer should slow down.
    ``"shed"`` — rejected under the lossy policy; the order never reached
    the engine.
    """

    order_id: int
    status: str
    queue_depth: int

    @property
    def admitted(self) -> bool:
        return self.status != "shed"


@dataclass(frozen=True)
class OrderStatus:
    """Point-in-time lifecycle view of one order.

    ``state`` is one of :data:`ORDER_STATES`; the timestamps are simulated
    seconds (``None`` until the corresponding transition happened).
    """

    order_id: int
    state: str
    placed_at: float | None = None
    assigned_at: float | None = None
    picked_up_at: float | None = None
    delivered_at: float | None = None
    vehicle_id: int | None = None
    reassignments: int = 0

    @classmethod
    def from_outcome(cls, outcome: OrderOutcome) -> OrderStatus:
        """Collapse an engine :class:`OrderOutcome` into the API view."""
        if outcome.rejected:
            state = "rejected"
        elif outcome.delivered_at is not None:
            state = "delivered"
        elif outcome.picked_up_at is not None:
            state = "picked_up"
        elif outcome.vehicle_id is not None:
            state = "assigned"
        else:
            state = "pooled"
        return cls(
            order_id=outcome.order.order_id,
            state=state,
            placed_at=outcome.order.placed_at,
            assigned_at=outcome.assigned_at,
            picked_up_at=outcome.picked_up_at,
            delivered_at=outcome.delivered_at,
            vehicle_id=outcome.vehicle_id,
            reassignments=outcome.reassignments,
        )


__all__ = ["ADMISSION_STATES", "ORDER_STATES", "ServiceError",
           "ServiceClosed", "Admission", "OrderStatus"]
