"""Seeded, scenario-declarable fault injection for resilience testing.

Production failure modes don't wait for production: this module lets tests,
benchmarks and the CLI declare deterministic faults — kernel slowdowns and
backends that vanish or start raising — and have the harness trip them at
exact simulated times.  A :class:`FaultPlan` is a list
of :class:`FaultSpec` entries; the :class:`FaultInjector` owns the plan at
run time, activating and deactivating specs as the simulation clock passes
their windows.

Fault kinds
-----------
``slowdown``
    Sleep ``seconds`` (plus optional seeded jitter) inside the timed region
    of the target kernel.  ``rung`` scopes it to one backend rung, which is
    what lets the ladder *escape* the fault by demoting — a slowdown pinned
    to ``scipy`` does not slow ``greedy_approx`` down.
``backend_error``
    Make a rung unusable.  ``mode="import"`` reports the rung unavailable at
    selection time (as if its import had failed); ``mode="raise"`` lets the
    rung be selected and then raises :class:`InjectedFault` mid-call, so the
    ladder's failure path (mark unavailable, retry next rung) is exercised.

Plans parse from JSON (inline text or a file path) so ``--faults`` can take
either; everything is frozen and seeded, so a faulted run is reproducible
bit for bit.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from collections.abc import Mapping

FAULT_KINDS = ("slowdown", "backend_error")

#: Valid ``target`` values: the ladder a fault acts on.
_BACKEND_TARGETS = ("matching", "path")


class InjectedFault(RuntimeError):
    """Raised by a ``backend_error`` fault with ``mode="raise"``."""


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault.

    ``start``/``end`` are simulated seconds-of-day bounding the active
    window (``end`` defaults to "forever").  ``target`` is ``"matching"`` or
    ``"path"``.
    ``rung`` scopes slowdowns and errors to one ladder rung (``None`` = all
    rungs of the target ladder).
    """

    kind: str
    target: str
    start: float = 0.0
    end: float = math.inf
    seconds: float = 0.0
    rung: str | None = None
    mode: str = "import"
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.target not in _BACKEND_TARGETS:
            raise ValueError(f"{self.kind} fault target must be one of "
                             f"{_BACKEND_TARGETS}, got {self.target!r}")
        if self.mode not in ("import", "raise"):
            raise ValueError(f"backend_error mode must be 'import' or "
                             f"'raise', got {self.mode!r}")
        if self.end < self.start:
            raise ValueError("fault window end precedes start")

    def active_at(self, now: float) -> bool:
        return self.start <= now < self.end

    def as_dict(self) -> dict:
        spec = {"kind": self.kind, "target": self.target,
                "start": self.start, "seconds": self.seconds,
                "rung": self.rung, "mode": self.mode, "jitter": self.jitter}
        spec["end"] = "inf" if math.isinf(self.end) else self.end
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered collection of fault specs."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, source) -> FaultPlan:
        """Build a plan from a plan, spec list, dict, JSON text, or file path.

        Accepted shapes: a :class:`FaultPlan` (returned as-is), a sequence
        of :class:`FaultSpec`/dict entries, ``{"faults": [...]}``, a JSON
        string of either, or a filesystem path to such JSON.
        """
        if isinstance(source, FaultPlan):
            return source
        if source is None:
            return cls()
        if isinstance(source, str):
            text = source.strip()
            if not text.startswith(("[", "{")):
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            source = json.loads(text)
        if isinstance(source, Mapping):
            source = source.get("faults", [])
        specs = []
        for entry in source:
            if isinstance(entry, FaultSpec):
                specs.append(entry)
                continue
            entry = dict(entry)
            if entry.get("end") in ("inf", None):
                entry.pop("end", None)
            specs.append(FaultSpec(**entry))
        return cls(tuple(specs))

    def as_dict(self) -> dict:
        return {"faults": [spec.as_dict() for spec in self.specs]}


class FaultInjector:
    """Trips the declared faults as simulated time advances.

    The engine calls :meth:`advance` at the top of every window; kernels ask
    :meth:`slowdown_seconds` / :meth:`rung_blocked` at call time.  Jitter
    draws from a private seeded stream so faulted runs replay identically.
    """

    def __init__(self, plan: FaultPlan | None = None, seed: int = 0) -> None:
        self.plan = plan or FaultPlan()
        self._rng = random.Random(seed ^ 0x5EEDFA17)
        self._now = -math.inf
        self._active: list[FaultSpec] = []
        self.trips = 0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, now: float) -> None:
        """Move the fault clock to ``now``, (de)activating specs."""
        self._now = now
        self._active = [spec for spec in self.plan.specs if spec.active_at(now)]

    def _matches(self, spec: FaultSpec, target: str, rung: str | None) -> bool:
        return spec.target == target and (spec.rung is None or rung is None
                                          or spec.rung == rung)

    def slowdown_seconds(self, target: str, rung: str | None = None) -> float:
        """Total injected delay for one call on ``target`` at ``rung``."""
        total = 0.0
        for spec in self._active:
            if spec.kind == "slowdown" and self._matches(spec, target, rung):
                total += spec.seconds
                if spec.jitter:
                    total += self._rng.uniform(0.0, spec.jitter)
        return total

    def sleep(self, target: str, rung: str | None = None) -> float:
        """Sleep the injected delay (inside the caller's timed region)."""
        seconds = self.slowdown_seconds(target, rung)
        if seconds > 0.0:
            self.trips += 1
            time.sleep(seconds)
        return seconds

    def rung_blocked(self, target: str, rung: str) -> str | None:
        """The active ``backend_error`` mode for this rung, or ``None``."""
        for spec in self._active:
            if spec.kind == "backend_error" and self._matches(spec, target, rung):
                return spec.mode
        return None

    def check_raise(self, target: str, rung: str) -> None:
        """Raise :class:`InjectedFault` if a ``raise``-mode fault is active."""
        if self.rung_blocked(target, rung) == "raise":
            self.trips += 1
            raise InjectedFault(f"injected {target} backend fault on rung "
                                f"{rung!r} at t={self._now:.0f}")

    def snapshot(self) -> dict:
        return {
            "declared": len(self.plan.specs),
            "active": [spec.as_dict() for spec in self._active],
            "trips": self.trips,
        }


__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
]
