"""The ambient ladder-registry stack, dependency-free.

Low-level kernels (the matching solve in :mod:`repro.core.foodgraph`, the
query paths of :class:`repro.network.distance_oracle.DistanceOracle`) look
up the active :class:`~repro.resilience.ladder.LadderRegistry` here.  This
module imports nothing from the rest of the package — the kernels sit far
below :mod:`repro.resilience.ladder` in the import graph, and routing the
lookup through a leaf module is what keeps the dependency arrows pointing
one way.

Same idiom as :func:`repro.obs.trace.use_tracer`: a plain module-global
stack, correct because simulations are single-threaded per process, with
``None`` as the default: the matching solve then runs its default backend
and the oracle's one rung choice is its backend's exact rung.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

_ACTIVE_LADDERS: list = [None]


def current_ladders():
    """The innermost active :class:`LadderRegistry` (``None`` by default)."""
    return _ACTIVE_LADDERS[-1]


@contextmanager
def use_ladders(registry) -> Iterator:
    """Install ``registry`` as the active ladder registry for the block."""
    _ACTIVE_LADDERS.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE_LADDERS.pop()


__all__ = ["current_ladders", "use_ladders"]
