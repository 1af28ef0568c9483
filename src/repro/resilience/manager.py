"""One object that owns a run's resilience machinery.

:class:`ResilienceManager` bundles the fault injector, the backend ladder
registry and the degradation controller behind the two hooks the engine
calls per window (:meth:`begin_window` / :meth:`end_window`) and the
snapshot/fold surfaces the telemetry layer reads.  :func:`build_resilience`
is the factory every entry point (CLI, experiment runner, dispatch service)
uses: it returns ``None`` when nothing resilience-related was requested, so
the default path installs no ladders at all and stays bit-identical to a
build without this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.controller import DegradationConfig, DegradationController
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.ladder import LadderRegistry


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything :class:`ResilienceManager` needs, in one frozen record.

    ``faults`` accepts whatever :meth:`FaultPlan.parse` accepts (a plan, a
    spec list, JSON text, or a path).  ``matching_backend``/``path_backend``
    pin the respective ladder's starting rung.
    """

    matching_backend: str | None = None
    path_backend: str | None = None
    latency_budget: float | None = None
    demote_after: int = 3
    recover_after: int = 5
    recovery_margin: float = 0.5
    cooldown_windows: int = 2
    faults: object = None
    seed: int = 0
    quality_sample_every: int = 8


class ResilienceManager:
    """Fault injector + ladders + controller, wired for one run."""

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config or ResilienceConfig()
        plan = FaultPlan.parse(self.config.faults)
        self.injector = FaultInjector(plan, seed=self.config.seed) if plan else None
        self.ladders = LadderRegistry(
            matching_start=self.config.matching_backend,
            path_start=self.config.path_backend,
            injector=self.injector,
            quality_sample_every=self.config.quality_sample_every)
        self.controller = DegradationController(
            DegradationConfig(
                latency_budget=self.config.latency_budget,
                demote_after=self.config.demote_after,
                recover_after=self.config.recover_after,
                recovery_margin=self.config.recovery_margin,
                cooldown_windows=self.config.cooldown_windows),
            self.ladders)

    # -- engine hooks ---------------------------------------------------- #
    def begin_window(self, now: float) -> None:
        """Advance the fault clock to the window's start time."""
        if self.injector is not None:
            self.injector.advance(now)

    def end_window(self, decision_seconds: float) -> None:
        """Feed the window's decision latency to the controller."""
        self.controller.observe_window(decision_seconds)

    # -- backpressure composition ----------------------------------------- #
    def degradation_headroom(self) -> bool:
        """True while the controller can still buy latency by demoting.

        This is the degrade-then-defer-then-shed probe: backpressure holds
        off deferring/shedding while the ladder has rungs left to give.
        """
        return self.controller.enabled and self.controller.has_headroom()

    # -- reporting -------------------------------------------------------- #
    def snapshot(self) -> dict:
        snap = self.ladders.snapshot()
        snap["controller"] = self.controller.snapshot()
        return snap

    def fold_into(self, registry) -> None:
        self.ladders.fold_into(registry)

    def telemetry_meta(self) -> dict:
        """The compact summary stamped into ``Telemetry.meta``."""
        ladders = self.ladders
        return {
            "matching_rung": ladders.matching.current,
            "path_rung": ladders.path.current,
            "demotions": ladders.matching.demotions + ladders.path.demotions,
            "recoveries": (ladders.matching.recoveries
                           + ladders.path.recoveries),
            "matching_quality_delta_pct": round(
                ladders.matching_quality_delta_pct, 4),
            "path_mean_stretch": round(ladders.path_mean_stretch, 6),
            "latency_budget": self.config.latency_budget,
            "controller_events": len(self.controller.events),
        }


def build_resilience(matching_backend: str | None = None,
                     path_backend: str | None = None,
                     latency_budget: float | None = None,
                     faults: object = None,
                     seed: int = 0,
                     **knobs) -> ResilienceManager | None:
    """Build a manager, or ``None`` when no resilience feature is requested.

    The ``None`` return is load-bearing: without a manager the engine
    installs no ladder registry, so matching and oracle queries keep their
    backends' exact defaults and default runs stay bit-identical.
    """
    plan = FaultPlan.parse(faults)
    if matching_backend is None and path_backend is None \
            and latency_budget is None and not plan:
        return None
    return ResilienceManager(ResilienceConfig(
        matching_backend=matching_backend, path_backend=path_backend,
        latency_budget=latency_budget, faults=plan, seed=seed, **knobs))


__all__ = ["ResilienceConfig", "ResilienceManager", "build_resilience"]
