"""Graceful degradation under load: ladders, budget control, fault injection.

This package is the robustness layer of the reproduction.  Every latency-
critical kernel sits on a *backend ladder* — matching on
``scipy -> hungarian -> greedy_approx``, shortest paths on
``hub_labels -> dijkstra -> bounded_hop_approx`` — and a *degradation
controller* walks those ladders against a per-window latency budget,
recording the quality each demotion gives up next to the latency it buys
back.  A seeded *fault-injection harness* (kernel slowdowns, backends that
vanish or raise) makes the whole degrade/recover cycle
deterministically testable.

The composition rule with the dispatch service's backpressure (PR 8) is
**degrade, then defer, then shed**: quality is the cheapest thing to give
up, latency the second, and work the last.

Nothing here is active by default — :func:`build_resilience` returns
``None`` unless a backend pin, a budget, or a fault plan was requested, and
with no registry the matching solve runs its default backend and the
oracle's one rung choice is its backend's exact rung, so unconfigured runs
remain bit-identical to a build without this package.

Submodules resolve lazily (PEP 562): low-level kernels import only the
dependency-free :mod:`repro.resilience.context`, and nothing here drags the
core/network packages in at import time — that is what keeps this package
importable from both ends of the dependency graph.
"""

from repro.resilience.context import current_ladders, use_ladders

_LAZY = {
    "BackendLadder": "ladder",
    "LadderRegistry": "ladder",
    "DegradationConfig": "controller",
    "DegradationController": "controller",
    "FAULT_KINDS": "faults",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "InjectedFault": "faults",
    "ResilienceConfig": "manager",
    "ResilienceManager": "manager",
    "build_resilience": "manager",
}

__all__ = ["current_ladders", "use_ladders", *sorted(_LAZY)]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
