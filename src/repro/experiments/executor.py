"""Process-parallel experiment executor.

Everything above the simulation kernels — policy comparisons, parameter
sweeps, cross-validation, the figure drivers — is a grid of independent
*cells*: one ``(ExperimentSetting, PolicySpec)`` pair each.  This module
fans those cells out across worker processes and streams results back,
with three properties the experiment harness depends on:

**Bit-identical to serial.**  A cell's result is a pure function of its
setting and policy spec: scenarios are regenerated deterministically from
the workload seed inside each worker, per-cell child seeds come from the
hierarchical :func:`~repro.seeding.spawn_seed` derivation (process
independent — no ``PYTHONHASHSEED`` exposure), and the shared oracle of a
worker is reset to its pristine pre-traffic state before any cell that
replays a traffic timeline.  ``--jobs 4`` output is therefore equal, order
included, to ``--jobs 1`` — asserted by the golden tests and by the
end-to-end benchmark before any timing runs.

**Cheap network sharing.**  The immutable heavy artifacts (CSR adjacency,
hub-label arrays, generated scenario) are never serialized per cell.
Workers resolve each cell's city profile by *name* against
:data:`PROFILE_REGISTRY` and rebuild the scenario once per distinct setting
through the runner's scenario cache, which lives for the whole life of the
worker process.  Under the default ``fork`` start method, registered
profiles (and any already-materialised scenarios) are inherited from the
parent for free.  For metro-scale cities, ``run_cells(...,
share_networks=True)`` goes further: the driver packs each distinct
network's CSR arrays and hub labels into one
:mod:`multiprocessing.shared_memory` block (:mod:`repro.network.shared`)
and workers attach it read-only, so N workers hold one machine-wide copy
of the heavy arrays no matter how they were spawned or how long they
live.

**Failure isolation.**  A cell that raises reports its traceback in its
:class:`CellResult`; the remaining cells keep running.  Callers that want
fail-fast semantics call :meth:`CellResult.require`.

The CLI exposes this as ``--jobs N`` (default 1 — the serial path), and
:func:`set_default_jobs` lets one flag fan out every routed harness
(`run_policy_comparison`, the sweeps, cross-validation and the figure
drivers) without threading a parameter through each call site.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
from dataclasses import dataclass, fields
from hashlib import sha256
from collections.abc import Callable, Sequence

from repro.experiments.runner import (
    ExperimentSetting,
    PolicySpec,
    materialize,
    run_setting,
)
from repro.obs import get_mode, set_mode
from repro.obs.log import get_logger
from repro.obs.trace import merge_traces
from repro.seeding import spawn_seed
from repro.sim.metrics import SimulationResult
from repro.workload.city import CITY_PROFILES, CityProfile

_log = get_logger("experiments.executor")

#: City profiles resolvable by name inside worker processes.  Seeded with
#: the built-in profiles; :func:`register_profile` adds custom ones (the
#: benchmarks register theirs).  Under the ``fork`` start method children
#: inherit every registration made before the pool is created.
PROFILE_REGISTRY: dict[str, CityProfile] = dict(CITY_PROFILES)


def register_profile(profile: CityProfile) -> None:
    """Make a custom city profile resolvable by name in executor workers."""
    PROFILE_REGISTRY[profile.name] = profile


# --------------------------------------------------------------------------- #
# default parallelism
# --------------------------------------------------------------------------- #
_DEFAULT_JOBS = 1


def set_default_jobs(jobs: int) -> None:
    """Set the worker count used when a harness is called without ``jobs``.

    The CLI sets this once from ``--jobs``; every sweep, comparison and
    figure driver routed through :func:`run_cells` then fans out without
    each call site growing its own flag.
    """
    global _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: int | None) -> int:
    """The effective worker count: an explicit value or the session default."""
    if jobs is None:
        return _DEFAULT_JOBS
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


# --------------------------------------------------------------------------- #
# cells
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentCell:
    """One unit of experiment work: a setting replayed under a policy.

    ``tag`` is an opaque caller label (the swept parameter value, the fold
    seed, ...) carried through to the :class:`CellResult`; the workers never
    see it.
    """

    setting: ExperimentSetting
    policy: PolicySpec
    tag: object = None


@dataclass
class CellResult:
    """Outcome of one cell: a result, or the traceback that ate it."""

    cell: ExperimentCell
    result: SimulationResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def require(self) -> SimulationResult:
        """The result, re-raising the worker-side failure if there is none."""
        if self.error is not None:
            raise CellFailure(
                f"cell ({self.cell.setting.profile.name}, "
                f"{self.cell.policy.name}, seed={self.cell.setting.seed}) "
                f"failed in worker:\n{self.error}")
        assert self.result is not None
        return self.result


class CellFailure(RuntimeError):
    """Raised by :meth:`CellResult.require` for a cell that failed remotely."""


def replicate_cells(setting: ExperimentSetting,
                    policy_specs: Sequence[PolicySpec],
                    replicates: int) -> list[ExperimentCell]:
    """Expand a ``setting x policy x replicate`` grid into cells.

    Replicate workload seeds are spawned hierarchically from the setting's
    base seed (``spawn_seed(seed, "replicate", r)``), so every cell draws an
    independent stream and the same grid expands to the same seeds in every
    process — serial and parallel runs see identical cells.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    cells = []
    for spec in policy_specs:
        for replicate in range(replicates):
            seed = spawn_seed(setting.seed, "replicate", replicate)
            cells.append(ExperimentCell(
                setting=setting.with_seed(seed), policy=spec, tag=replicate))
    return cells


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #
#: (cell index, profile name, setting kwargs, policy name, policy options,
#:  observability mode)
_CellPayload = tuple[int, str, dict[str, object], str, tuple, str]


def _cell_payload(index: int, cell: ExperimentCell) -> _CellPayload:
    setting_kwargs = {f.name: getattr(cell.setting, f.name)
                      for f in fields(ExperimentSetting) if f.name != "profile"}
    # The driver's --obs mode rides in the payload so workers honour it
    # even under a spawn start method (fork-inherited workers already match).
    return (index, cell.setting.profile.name, setting_kwargs,
            cell.policy.name, cell.policy.options, get_mode())


def _run_cell(setting: ExperimentSetting, spec: PolicySpec) -> SimulationResult:
    """Run one cell against the process-local scenario cache.

    Workers keep the runner's scenario cache warm across the cells they
    process; a setting that replays a traffic timeline resets the shared
    oracle to its pristine state first, so a cell's result never depends on
    which cells its worker ran before it (the property behind parallel /
    serial bit-identity).
    """
    scenario, oracle = materialize(setting)
    if scenario.traffic:
        oracle.reset_traffic_state()
    return run_setting(setting, spec)


def _worker_init(registry: dict[str, str]) -> None:
    """Pool initializer: default ``SIGTERM``, then the shared-memory registry.

    A CLI driver turns ``SIGTERM`` into an exception (``cli.GracefulExit``),
    and a fork'd worker inherits the handler.  ``Pool.terminate()`` stops its
    workers with ``SIGTERM``; one that is still returning from sending its
    last result raises the exception inside the pool's own ``except
    Exception`` around that send, which swallows it, and the driver joins a
    worker that never dies (seen as a tier-1 run hanging in ``compare
    --jobs 2``, about one run in 25).  Workers take the signal's default
    action.

    For shared-memory sweeps ``registry`` is the driver's ``profile name ->
    shared segment`` map: it is installed in the worker's runner module and
    any fork-inherited scenario-cache entries for those profiles are
    evicted, so the worker's first :func:`materialize` of each setting
    attaches the packed arrays instead of reusing (or rebuilding) a private
    copy.
    """
    from repro.experiments import runner

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    runner._ATTACH_REGISTRY.clear()
    runner._ATTACH_REGISTRY.update(registry)
    stale = [key for key in runner._SCENARIO_CACHE if key[0] in registry]
    for key in stale:
        del runner._SCENARIO_CACHE[key]


def _worker_run(payload: _CellPayload) -> tuple[int, SimulationResult | None,
                                                str | None]:
    (index, profile_name, setting_kwargs, policy_name, policy_options,
     obs_mode) = payload
    try:
        set_mode(obs_mode)
        profile = PROFILE_REGISTRY.get(profile_name)
        if profile is None:
            raise KeyError(
                f"city profile {profile_name!r} is not registered in this "
                f"worker; call executor.register_profile() before the pool "
                f"is created (known: {sorted(PROFILE_REGISTRY)})")
        setting = ExperimentSetting(profile=profile, **setting_kwargs)
        spec = PolicySpec(policy_name, policy_options)
        return index, _run_cell(setting, spec), None
    except Exception:
        return index, None, traceback.format_exc()


# --------------------------------------------------------------------------- #
# driver side
# --------------------------------------------------------------------------- #
#: Progress callback: (finished cell result, cells done, cells total).
ProgressCallback = Callable[[CellResult, int, int], None]


def _log_cell(outcome: CellResult, done: int, total: int) -> None:
    """Structured progress for each finished cell (silent by default)."""
    cell = outcome.cell
    if outcome.ok:
        _log.debug("cell %d/%d done: %s/%s seed=%s", done, total,
                   cell.setting.profile.name, cell.policy.name,
                   cell.setting.seed)
    else:
        _log.warning("cell %d/%d FAILED: %s/%s seed=%s\n%s", done, total,
                     cell.setting.profile.name, cell.policy.name,
                     cell.setting.seed, outcome.error)


def run_cells(cells: Sequence[ExperimentCell], jobs: int | None = None,
              on_result: ProgressCallback | None = None,
              share_networks: bool = False) -> list[CellResult]:
    """Run every cell and return their results in cell order.

    ``jobs=1`` (the default) runs serially in the calling process against
    the shared scenario cache — exactly the pre-executor behaviour.  With
    ``jobs > 1`` cells fan out over a process pool; results stream back as
    workers finish (``on_result`` fires in completion order), and the
    returned list is always in submission order.  Cell failures are
    isolated: the failing cell carries its traceback, the rest of the grid
    is unaffected.

    ``share_networks=True`` packs each distinct city network (CSR arrays
    plus hub labels, which a city profile determines independently of
    scale/seed) into one :mod:`multiprocessing.shared_memory` block before
    the pool starts; workers attach the block read-only instead of
    rebuilding their own copies, so an N-worker metro-scale sweep holds one
    copy of the heavy arrays machine-wide.  Results stay bit-identical —
    attached views answer every query with the same floats as owned ones.
    Ignored on the serial path.  The blocks are unlinked when the pool
    finishes.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    total = len(cells)
    if jobs <= 1 or total <= 1:
        results: list[CellResult] = []
        for done, cell in enumerate(cells, start=1):
            try:
                outcome = CellResult(cell, result=_run_cell(cell.setting, cell.policy))
            except Exception:
                outcome = CellResult(cell, error=traceback.format_exc())
            results.append(outcome)
            _log_cell(outcome, done, total)
            if on_result is not None:
                on_result(outcome, done, total)
        return results

    for cell in cells:
        # Make every profile resolvable inside the workers.  Registrations
        # made here are inherited by fork'd children created below.
        register_profile(cell.setting.profile)
    packs, registry = _pack_shared_networks(cells) if share_networks else ([], {})
    payloads = [_cell_payload(index, cell) for index, cell in enumerate(cells)]
    slots: list[CellResult | None] = [None] * total
    context = _pool_context()
    try:
        with context.Pool(processes=min(jobs, total), initializer=_worker_init,
                          initargs=(registry,)) as pool:
            done = 0
            for index, result, error in pool.imap_unordered(_worker_run, payloads):
                outcome = CellResult(cells[index], result=result, error=error)
                slots[index] = outcome
                done += 1
                _log_cell(outcome, done, total)
                if on_result is not None:
                    on_result(outcome, done, total)
    finally:
        for pack in packs:
            pack.dispose()
    assert all(slot is not None for slot in slots)
    return [slot for slot in slots if slot is not None]


def _pack_shared_networks(cells: Sequence[ExperimentCell]):
    """Pack each distinct profile's network (and hub labels) into shared memory.

    Builds the network exactly as a worker's :func:`materialize` would
    (``profile.network_factory()``; hub labels for networks at or above the
    oracle's auto threshold) so attached workers see bit-identical arrays.
    Returns the owner pack handles plus the ``profile name -> segment
    name`` registry for the pool initializer.
    """
    from repro.network.distance_oracle import DistanceOracle
    from repro.network.hub_labeling import HubLabelIndex
    from repro.network.shared import pack_network

    packs = []
    registry: dict[str, str] = {}
    try:
        for cell in cells:
            profile = cell.setting.profile
            if profile.name in registry:
                continue
            network = profile.network_factory()
            index = (HubLabelIndex(network)
                     if network.num_nodes >= DistanceOracle._AUTO_THRESHOLD
                     else None)
            pack = pack_network(network, index)
            packs.append(pack)
            registry[profile.name] = pack.name
    except BaseException:
        for pack in packs:
            pack.dispose()
        raise
    return packs, registry


def pool_context():
    """Prefer ``fork`` (cheap inheritance of registered profiles and any
    already-built scenarios); fall back to the platform default elsewhere.

    Public because the dispatch service's resident shard pool
    (:mod:`repro.service.shards`) spawns its long-lived per-city workers
    through the same context the sweep executor uses.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


#: Backwards-compatible private alias.
_pool_context = pool_context


# --------------------------------------------------------------------------- #
# campaign traces
# --------------------------------------------------------------------------- #
def merge_cell_traces(results: Sequence[CellResult]) -> list[dict]:
    """Merge per-cell span records into one campaign trace (JSONL events).

    Each successful cell that ran under ``--obs trace`` contributed the span
    tree its worker serialized back inside ``SimulationResult.telemetry``;
    this stitches those per-cell trees into a single event stream — a
    ``{"event": "cell", ...}`` marker identifying the (setting, policy) run,
    followed by that cell's spans stamped with the merged cell index.  Span
    ids stay cell-local, so ``(cell, span)`` uniquely keys the campaign
    trace, and :func:`repro.obs.rollup` aggregates it directly.  Cells
    without telemetry (failures, or runs below ``trace`` mode) are skipped.
    """
    traces: list[list[dict]] = []
    cell_meta: list[dict] = []
    for index, outcome in enumerate(results):
        telemetry = outcome.result.telemetry if outcome.ok else None
        if telemetry is None or not telemetry.spans:
            continue
        traces.append(telemetry.spans)
        cell_meta.append({"grid_index": index, **telemetry.header()})
    return merge_traces(traces, cells=cell_meta)


# --------------------------------------------------------------------------- #
# determinism fingerprints
# --------------------------------------------------------------------------- #
def result_fingerprint(result: SimulationResult) -> str:
    """Digest of every deterministic observable of a simulation result.

    Covers per-order outcomes, per-window accounting and per-vehicle
    movement totals — everything except measured wall-clock decision times
    and cache diagnostics, which legitimately vary between runs.  Two runs
    of the same cell are bit-identical exactly when their fingerprints
    match; the golden tests and the end-to-end benchmark compare serial and
    parallel sweeps through this.
    """
    parts: list[str] = [result.policy_name, result.city_name,
                        repr(result.delta), repr(result.simulated_seconds)]
    for order_id in sorted(result.outcomes):
        outcome = result.outcomes[order_id]
        parts.append(repr((order_id, outcome.sdt, outcome.assigned_at,
                           outcome.picked_up_at, outcome.delivered_at,
                           outcome.rejected, outcome.vehicle_id,
                           outcome.reassignments, outcome.wait_seconds,
                           outcome.offer_rejections, outcome.handoffs,
                           outcome.ever_assigned)))
    parts.extend(repr((window.start, window.end, window.num_orders,
                       window.num_vehicles, window.num_assigned_orders,
                       window.num_declined_offers, window.num_handoffs))
                 for window in result.windows)
    parts.extend(repr((vehicle.vehicle_id, vehicle.node,
                       vehicle.distance_travelled_km,
                       tuple(sorted(vehicle.km_by_load.items())),
                       vehicle.waiting_seconds))
                 for vehicle in result.vehicles)
    return sha256("\n".join(parts).encode()).hexdigest()


__all__ = [
    "ExperimentCell",
    "CellResult",
    "CellFailure",
    "PROFILE_REGISTRY",
    "register_profile",
    "set_default_jobs",
    "resolve_jobs",
    "replicate_cells",
    "pool_context",
    "run_cells",
    "merge_cell_traces",
    "result_fingerprint",
]
