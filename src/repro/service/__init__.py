"""repro.service: the dispatch engine as an always-on asyncio service.

The batch :class:`~repro.sim.engine.Simulator` answers "what happened over
this recorded day"; this package answers "keep dispatching, orders are
still arriving".  It hosts the exact same window machinery in a long-lived
event loop behind an async API (:class:`DispatchService`), with:

* pluggable :mod:`clock drivers <repro.service.clock_driver>` — watermark
  -gated deterministic replay or wall-clock pacing,
* :mod:`checkpoint/restore <repro.service.checkpoint>` on top of the
  scenario JSON format — stop mid-horizon, resume bit-identically, and
* explicit :mod:`backpressure <repro.service.backpressure>` — bounded
  ingest queue with defer/shed admission and visible counters.

The determinism contract: a simulated-clock service fed a scenario's
recorded order stream (:func:`serve_recorded`) produces a result
``result_fingerprint``-identical to ``Simulator.run()`` on the same
scenario — the service is the batch engine rehosted, not a fork of it.
"""

from repro.service.api import (
    ADMISSION_STATES,
    ORDER_STATES,
    Admission,
    OrderStatus,
    ServiceClosed,
    ServiceError,
)
from repro.service.backpressure import (
    BACKPRESSURE_POLICIES,
    BackpressureConfig,
    BackpressureController,
)
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    policy_spec_from_checkpoint,
    restore_simulator,
    save_checkpoint,
    snapshot_simulator,
)
from repro.service.clock_driver import ClockDriver, SimulatedClock, WallClock
from repro.service.loop import (
    DispatchService,
    recorded_stream,
    remaining_orders,
    replay_orders,
    replay_orders_wall,
    serve_recorded,
)

__all__ = [
    "ADMISSION_STATES",
    "BACKPRESSURE_POLICIES",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "ORDER_STATES",
    "Admission",
    "BackpressureConfig",
    "BackpressureController",
    "CheckpointError",
    "ClockDriver",
    "DispatchService",
    "OrderStatus",
    "ServiceClosed",
    "ServiceError",
    "SimulatedClock",
    "WallClock",
    "load_checkpoint",
    "policy_spec_from_checkpoint",
    "recorded_stream",
    "remaining_orders",
    "replay_orders",
    "replay_orders_wall",
    "restore_simulator",
    "save_checkpoint",
    "serve_recorded",
    "snapshot_simulator",
]
