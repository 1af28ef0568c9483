"""Backend ladders: ranked rungs per kernel, with explicit degradation state.

A :class:`BackendLadder` is an ordered list of backend rungs, best first,
with two separate notions of "where we are":

``position``
    Where the *controller* (or a CLI pin) has placed the ladder.  Moves only
    through :meth:`step_down` / :meth:`step_up`.
``effective rung``
    What :meth:`select` actually returns — the first *available* rung at or
    below ``position``.  Availability reflects real import failures and
    injected faults, so the effective rung can sit below the position (and
    climbs back by itself when the fault clears).  Demotion/recovery
    counters track effective-rung transitions, whichever mechanism moved
    them.

The :class:`LadderRegistry` bundles the matching and path ladders behind the
call sites' interface: :meth:`LadderRegistry.solve_matching` wraps the
sparse matching solve (degrade-and-retry on backend failure, never on input
errors) and :meth:`LadderRegistry.path_rung` is the rung the
:class:`~repro.network.distance_oracle.DistanceOracle`'s one rung choice
takes for every query while a registry is active.  Quality deltas — greedy
matching objective vs the exact solver, and approximate path stretch — are
shadow-sampled so every degraded window reports what the latency it bought
back actually cost.

Call sites find the active registry through the same module-global stack
idiom as :func:`repro.obs.trace.use_tracer`: ``current_ladders()`` is
``None`` by default, and every touched code path is bit-pristine in that
case.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.matching import (
    MATCHING_RUNGS,
    MatchingError,
    matching_backend_available,
    sparse_matching_objective,
    sparse_minimum_weight_matching,
)
from repro.network.approx_paths import PATH_RUNGS, path_backend_available
from repro.resilience.context import current_ladders, use_ladders
from repro.resilience.faults import FaultInjector


class BackendLadder:
    """Ordered backend rungs with availability, counters, and history."""

    def __init__(self, name: str, rungs: Sequence[str],
                 start: str | None = None) -> None:
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        self.name = name
        self.rungs = tuple(rungs)
        if start is not None and start not in self.rungs:
            raise ValueError(f"unknown {name} rung {start!r}; "
                             f"expected one of {self.rungs}")
        #: Recovery ceiling: a CLI pin starts (and keeps) the ladder here.
        self.floor = 0 if start is None else self.rungs.index(start)
        #: Controller-chosen index; the effective rung never sits above it.
        self.position = self.floor
        self.demotions = 0
        self.recoveries = 0
        self.calls = dict.fromkeys(self.rungs, 0)
        self.failures = dict.fromkeys(self.rungs, 0)
        self.seconds = dict.fromkeys(self.rungs, 0.0)
        self._unavailable: dict[str, str] = {}
        self._current = self.position
        self.history: list[dict] = []
        self._history_limit = 256

    # -- availability ---------------------------------------------------- #
    def is_available(self, rung: str) -> bool:
        return rung not in self._unavailable

    def mark_unavailable(self, rung: str, reason: str) -> None:
        self._unavailable[rung] = reason

    def mark_available(self, rung: str) -> None:
        self._unavailable.pop(rung, None)

    # -- selection ------------------------------------------------------- #
    def select(self) -> str:
        """The effective rung: first available rung at or below position.

        Records a demotion/recovery event whenever the effective rung moved
        since the last selection — this is the single place transitions are
        counted, so availability-driven moves (a fault clearing) and
        controller moves both land in the same counters.
        """
        chosen = None
        for idx in range(self.position, len(self.rungs)):
            if self.is_available(self.rungs[idx]):
                chosen = idx
                break
        if chosen is None:
            raise RuntimeError(
                f"no available {self.name} backend rung at or below "
                f"{self.rungs[self.position]!r}: "
                f"{dict(self._unavailable)}")
        if chosen != self._current:
            kind = "demotion" if chosen > self._current else "recovery"
            if kind == "demotion":
                self.demotions += 1
            else:
                self.recoveries += 1
            event = {"event": kind, "from": self.rungs[self._current],
                     "to": self.rungs[chosen]}
            self.history.append(event)
            del self.history[:-self._history_limit]
            self._current = chosen
        return self.rungs[chosen]

    @property
    def current(self) -> str:
        """The most recently selected effective rung."""
        return self.rungs[self._current]

    def step_down(self) -> bool:
        """Controller demotion: move the position one rung down."""
        if self.position + 1 >= len(self.rungs):
            return False
        self.position += 1
        return True

    def step_up(self) -> bool:
        """Controller recovery: move the position one rung up (to the floor).

        Refuses to land the position on an unavailable rung — probing an
        unimportable backend would only bounce straight back down.
        """
        if self.position <= self.floor:
            return False
        target = self.position - 1
        while target > self.floor and not self.is_available(self.rungs[target]):
            target -= 1
        if not self.is_available(self.rungs[target]):
            return False
        self.position = target
        return True

    # -- accounting ------------------------------------------------------ #
    def record(self, rung: str, seconds: float) -> None:
        self.calls[rung] += 1
        self.seconds[rung] += seconds

    def record_failure(self, rung: str) -> None:
        self.failures[rung] += 1

    def snapshot(self) -> dict:
        return {
            "rungs": list(self.rungs),
            "floor": self.rungs[self.floor],
            "position": self.rungs[self.position],
            "current": self.current,
            "demotions": self.demotions,
            "recoveries": self.recoveries,
            "calls": dict(self.calls),
            "failures": dict(self.failures),
            "seconds": {rung: round(value, 6)
                        for rung, value in self.seconds.items()},
            "unavailable": dict(self._unavailable),
            "history": list(self.history[-16:]),
        }


class LadderRegistry:
    """The matching and path ladders, plus shadow-sampled quality deltas.

    Parameters
    ----------
    matching_start, path_start:
        Optional CLI pins: start (and keep the recovery ceiling) at the
        named rung instead of the top.
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        slowdowns and backend errors this registry honours.
    quality_sample_every:
        Run the exact solver in the shadow of every Nth degraded matching
        call (and sample path stretch at the same rate) to measure the
        quality delta without paying exact cost on every call.
    """

    def __init__(self, matching_start: str | None = None,
                 path_start: str | None = None,
                 injector: FaultInjector | None = None,
                 quality_sample_every: int = 8) -> None:
        self.matching = BackendLadder("matching", MATCHING_RUNGS,
                                      start=matching_start)
        self.path = BackendLadder("path", PATH_RUNGS, start=path_start)
        self.injector = injector
        self.quality_sample_every = max(1, quality_sample_every)
        # In-call failures stick until the fault window that caused them
        # closes (see _sync_availability), so one raise-mode fault does not
        # cost an exception per call.
        self._failed: dict[tuple[str, str], str] = {}
        self.matching_quality_samples = 0
        self.matching_exact_objective = 0.0
        self.matching_actual_objective = 0.0
        self._path_approx_queries = 0
        self.path_stretch_samples = 0
        self.path_stretch_sum = 0.0

    # -- availability sync ----------------------------------------------- #
    def _sync_availability(self, ladder: BackendLadder, target: str,
                           native_available) -> None:
        injector = self.injector
        for rung in ladder.rungs:
            mode = injector.rung_blocked(target, rung) if injector else None
            if mode is None:
                self._failed.pop((target, rung), None)
            if not native_available(rung):
                ladder.mark_unavailable(rung, "backend not importable")
            elif mode == "import":
                ladder.mark_unavailable(rung, "injected import failure")
            elif mode == "raise" and target == "path":
                # Path queries are too numerous to pay a try/except ladder
                # per call; raise-mode path faults degrade at selection
                # time, like an import failure.
                ladder.mark_unavailable(rung, "injected backend fault")
            elif (target, rung) in self._failed:
                ladder.mark_unavailable(rung, self._failed[(target, rung)])
            else:
                ladder.mark_available(rung)

    # -- matching -------------------------------------------------------- #
    def solve_matching(self, num_rows: int, num_cols: int, rows: np.ndarray,
                       cols: np.ndarray, weights: np.ndarray,
                       omega: float) -> list[tuple[int, int]]:
        """Ladder-aware :func:`sparse_minimum_weight_matching`.

        Injected slowdowns land *inside* the timed region (they are what the
        controller reacts to).  A rung that raises is marked unavailable and
        the solve retries one rung down — except for
        :class:`~repro.core.matching.MatchingError`, which is an input
        error no backend can fix and is re-raised immediately.
        """
        ladder = self.matching
        injector = self.injector
        self._sync_availability(ladder, "matching", matching_backend_available)
        while True:
            rung = ladder.select()
            began = time.perf_counter()
            try:
                if injector is not None:
                    injector.sleep("matching", rung)
                    injector.check_raise("matching", rung)
                pairs = sparse_minimum_weight_matching(
                    num_rows, num_cols, rows, cols, weights, omega, backend=rung)
            except MatchingError:
                raise
            except Exception as exc:
                ladder.record_failure(rung)
                reason = f"{type(exc).__name__}: {exc}"
                self._failed[("matching", rung)] = reason
                ladder.mark_unavailable(rung, reason)
                if rung == ladder.rungs[-1]:
                    raise
                continue
            ladder.record(rung, time.perf_counter() - began)
            if rung != ladder.rungs[0] and len(weights) \
                    and (ladder.calls[rung] - 1) % self.quality_sample_every == 0:
                self._sample_matching_quality(num_rows, num_cols, rows, cols,
                                              weights, omega, pairs)
            return pairs

    def _sample_matching_quality(self, num_rows: int, num_cols: int,
                                 rows: np.ndarray, cols: np.ndarray,
                                 weights: np.ndarray, omega: float,
                                 pairs: Sequence[tuple[int, int]]) -> None:
        """Shadow-solve exactly (outside the timed region) and compare."""
        instance = (num_rows, num_cols, rows, cols, weights, omega)
        try:
            exact = sparse_minimum_weight_matching(*instance)
        except Exception:  # the exact backend is the one that is degraded
            return
        self.matching_quality_samples += 1
        self.matching_exact_objective += sparse_matching_objective(*instance, exact)
        self.matching_actual_objective += sparse_matching_objective(*instance, pairs)

    # -- shortest paths -------------------------------------------------- #
    def path_rung(self, oracle) -> str:
        """The effective path rung for this oracle's next resolution."""
        self._sync_availability(
            self.path, "path",
            lambda rung: path_backend_available(rung, oracle))
        rung = self.path.select()
        if self.injector is not None:
            self.injector.sleep("path", rung)
        return rung

    def record_path(self, rung: str, seconds: float) -> None:
        self.path.record(rung, seconds)

    def take_path_sample(self) -> bool:
        """Whether the oracle should shadow-sample this approx resolution."""
        self._path_approx_queries += 1
        return (self._path_approx_queries - 1) % self.quality_sample_every == 0

    def record_path_stretch(self, approx: float, exact: float) -> None:
        if exact <= 0.0 or approx != approx or exact != exact \
                or approx == float("inf") or exact == float("inf"):
            return
        self.path_stretch_samples += 1
        self.path_stretch_sum += approx / exact

    # -- reporting ------------------------------------------------------- #
    @property
    def matching_quality_delta_pct(self) -> float:
        """Degraded-minus-exact matching objective, percent of exact."""
        if not self.matching_quality_samples or not self.matching_exact_objective:
            return 0.0
        return 100.0 * (self.matching_actual_objective
                        - self.matching_exact_objective) \
            / self.matching_exact_objective

    @property
    def path_mean_stretch(self) -> float:
        if not self.path_stretch_samples:
            return 1.0
        return self.path_stretch_sum / self.path_stretch_samples

    def snapshot(self) -> dict:
        snap = {
            "matching": self.matching.snapshot(),
            "path": self.path.snapshot(),
            "quality": {
                "matching_samples": self.matching_quality_samples,
                "matching_exact_objective": round(
                    self.matching_exact_objective, 6),
                "matching_actual_objective": round(
                    self.matching_actual_objective, 6),
                "matching_delta_pct": round(
                    self.matching_quality_delta_pct, 4),
                "path_samples": self.path_stretch_samples,
                "path_mean_stretch": round(self.path_mean_stretch, 6),
            },
        }
        if self.injector is not None:
            snap["faults"] = self.injector.snapshot()
        return snap

    @staticmethod
    def _settle(counter, value: float) -> None:
        # Counters only expose inc(); settle to an absolute value so folding
        # repeatedly (service stats polls) stays idempotent.
        counter.inc(value - counter.value)

    def fold_into(self, registry) -> None:
        """Publish ladder state into an :class:`obs.metrics.MetricsRegistry`."""
        for ladder in (self.matching, self.path):
            registry.gauge("resilience.rung", ladder=ladder.name).set(
                ladder.rungs.index(ladder.current))
            self._settle(registry.counter("resilience.demotions",
                                          ladder=ladder.name),
                         float(ladder.demotions))
            self._settle(registry.counter("resilience.recoveries",
                                          ladder=ladder.name),
                         float(ladder.recoveries))
            for rung in ladder.rungs:
                self._settle(registry.counter("resilience.calls",
                                              ladder=ladder.name, rung=rung),
                             float(ladder.calls[rung]))
                self._settle(registry.counter("resilience.failures",
                                              ladder=ladder.name, rung=rung),
                             float(ladder.failures[rung]))
                self._settle(registry.counter("resilience.seconds",
                                              ladder=ladder.name, rung=rung),
                             ladder.seconds[rung])
        registry.gauge("resilience.matching_quality_delta_pct").set(
            self.matching_quality_delta_pct)
        registry.gauge("resilience.path_mean_stretch").set(
            self.path_mean_stretch)


__all__ = [
    "BackendLadder",
    "LadderRegistry",
    "current_ladders",
    "use_ladders",
]
