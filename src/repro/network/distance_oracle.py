"""Unified distance-query front end used by every assignment policy.

The paper's algorithms issue a very large number of quickest-path queries
``SP(u, v, t)``; the original system answers them with a hierarchical hub
label index.  :class:`DistanceOracle` plays the same role here and hides the
choice of backend:

``"hub_label"``
    Build a :class:`~repro.network.hub_labeling.HubLabelIndex` once and scale
    its static distances by the time profile's congestion multiplier.  Exact,
    and by far the fastest for the query volumes of the experiments.
``"dijkstra"``
    Answer each query with an on-demand Dijkstra, memoising full
    single-source trees.  Used as the ground truth in tests and as a
    fallback for very small networks where index construction is not worth
    it.

Beyond single queries the oracle exposes *batched* APIs — :meth:`distances`
for paired queries and :meth:`distance_matrix` for source x target cross
products — that route to the hub-label index's vectorised kernels.  The
FoodGraph first-mile checks and the marginal-cost loops issue their queries
through these, which is where the bulk of the per-window speedup comes from.

All internal memoisation (point-to-point distances, expanded paths, Dijkstra
SSSP trees) is bounded by LRU caches with configurable capacities; hit/miss
counters are exposed through :meth:`cache_info` next to ``query_count`` for
the scalability experiments.

Both backends also expose :meth:`path` for the simulator, which moves
vehicles edge-by-edge along quickest paths.

Each query shape (point, paired, block) has one body, which first picks
its *path rung*: the active :mod:`repro.resilience` ladder's choice, else
the backend's exact rung (``"hub_labels"`` with an index, ``"dijkstra"``
without).  Exact rungs resolve point-cache misses through the index or the
memoised trees; ``"bounded_hop_approx"`` (:mod:`repro.network.approx_paths`)
estimates them into a cache of its own, never the point cache.  Blocks skip
the point cache on every rung.  Only an active ladder times resolutions.

Dynamic traffic (incidents, closures, zonal rush hours) enters through
:meth:`DistanceOracle.apply_traffic_updates`: per-edge weight changes are
patched into the network's CSR arrays in place, the update *decides*
whether the hub-label index is repaired incrementally for the labels the
mutation can actually have touched or rebuilt in full (the fallback), and
only the memoised entries whose stored values can be stale are evicted.

Hub-label work happens only when a read needs it.  Construction builds
nothing, and each update queues its label action instead of running it: a
rebuild decision drops everything queued before it, a repair decision
queues its affected sets with the weights it must run on.  The first read —
a point, paired or block query, :attr:`~DistanceOracle.hub_index`, or
:meth:`~DistanceOracle.refresh` — replays the queue in order, so the labels
are bit-identical to running every action eagerly, while a repair that a
later rebuild supersedes never runs at all.  The window loop calls
:meth:`~DistanceOracle.refresh` right after its traffic updates, so the
work never lands inside a policy's decision time.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.network.approx_paths import PATH_RUNGS, BoundedHopEstimator
from repro.network.graph import RoadNetwork
from repro.network.hub_labeling import HubLabelIndex
from repro.obs.trace import current_tracer
from repro.resilience.context import current_ladders
from repro.network.shortest_path import (
    _csr_dijkstra_all,
    dijkstra_all,
    shortest_path_nodes,
)

INFINITY = math.inf

_HUB_LABELS, _DIJKSTRA, _APPROX = PATH_RUNGS

#: Distances whose old/new values differ by no more than this are treated as
#: unchanged when computing affected-node sets (absorbs float re-association
#: between equal-length alternative paths).
_CHANGE_TOLERANCE = 1e-9

#: Sentinel distinguishing "pair not in the path cache" from the cached
#: answer ``None`` ("no path exists") in :meth:`DistanceOracle.path_or_none`.
_PATH_MISS = object()

#: Queued hub-label actions at which an update replays the queue itself
#: rather than waiting for a read.  Bounds the frozen weight copies a long
#: read-free stretch of updates keeps alive; a replay is exact whenever it
#: runs, so the value moves no answer.
MAX_QUEUED_LABEL_WORK = 8


class _LabelWork(NamedTuple):
    """One queued hub-label action of a :class:`DistanceOracle`.

    ``kind`` is ``"build"`` (the pristine index: at construction or after
    :meth:`DistanceOracle.reset_traffic_state`), ``"rebuild"`` (a traffic
    update's full-rebuild decision) or ``"repair"``.  ``weights`` is the
    ``(csr, reverse csr)`` pair to run on; ``None`` means the network's live
    weights, which an action keeps only until the next update freezes them.
    """

    kind: str
    affected_out: set[int] | None = None
    affected_in: set[int] | None = None
    weights: tuple | None = None


class _QueuedLabels:
    """Stands in for the hub-label index while label work is queued.

    The first attribute read replays the owning oracle's queue and forwards
    to the real index, which then replaces this object — so the query paths
    pay nothing per call once the labels are current.
    """

    __slots__ = ("_oracle",)

    def __init__(self, oracle: DistanceOracle) -> None:
        self._oracle = weakref.ref(oracle)

    def __getattr__(self, name: str):
        return getattr(self._oracle()._flush(), name)


class LRUCache:
    """A small bounded mapping with move-to-front semantics and counters."""

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return default
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def drop_where(self, predicate: Callable) -> int:
        """Evict every ``(key, value)`` entry the predicate matches.

        This is the scoped-invalidation primitive: after a localised network
        mutation only the entries whose stored values can be stale are
        dropped, everything else keeps serving hits.  Returns the number of
        evicted entries.
        """
        stale = [key for key, value in self._data.items() if predicate(key, value)]
        for key in stale:
            del self._data[key]
        return len(stale)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def info(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._data), "capacity": self.capacity}


@dataclass(frozen=True)
class TrafficRepairStats:
    """What one :meth:`DistanceOracle.apply_traffic_updates` call did.

    ``strategy`` is the label *decision*: ``"noop"`` (no weight actually
    changed), ``"repair"`` (hub labels to be repaired incrementally),
    ``"rebuild"`` (full index rebuild — the correctness fallback once the
    affected region stops being localised) or ``"dijkstra"`` (no index to
    maintain; caches invalidated only).  The label work itself runs at the
    oracle's next read, and a repair a later rebuild supersedes never runs.

    ``severed_edges`` counts the mutated edges whose new factor is infinite
    (fully severed closures); ``disconnected_nodes`` counts the nodes that
    lost reachability to or from a mutated-edge endpoint in this update —
    the size of the newly unreachable region a severing cut opened (0 for
    weight-only updates, and for reopenings, which only *restore* paths).
    """

    mutated_edges: int
    affected_sources: int
    affected_targets: int
    strategy: str
    dropped_point_entries: int = 0
    dropped_path_entries: int = 0
    dropped_sssp_entries: int = 0
    severed_edges: int = 0
    disconnected_nodes: int = 0


def _changed_nodes(old: dict[int, float], new: dict[int, float]) -> set[int]:
    """Node indexes whose settled distance differs between two SSSP runs."""
    changed = {idx for idx, dist in new.items()
               if abs(old.get(idx, INFINITY) - dist) > _CHANGE_TOLERANCE}
    changed.update(idx for idx in old if idx not in new)
    return changed


class DistanceOracle:
    """Answer ``SP(u, v, t)`` queries and quickest-path expansions.

    Parameters
    ----------
    network:
        The underlying road network.
    method:
        ``"auto"`` (default), ``"hub_label"`` or ``"dijkstra"``.  ``"auto"``
        picks hub labels for networks of at least 60 nodes and plain
        memoised Dijkstra below it.
    point_cache_size, path_cache_size, sssp_cache_size:
        LRU capacities for the point-to-point distance cache, the expanded
        path cache and the per-source Dijkstra tree cache.
    hub_index:
        A prebuilt :class:`~repro.network.hub_labeling.HubLabelIndex` over
        ``network`` to adopt instead of building one (forces the
        ``"hub_label"`` backend), so a caller that already built labels over
        ``network`` does not pay for a second build.  Without one, the
        ``"hub_label"`` backend builds its index at the first read (see
        :meth:`refresh`), not here.
    """

    _AUTO_THRESHOLD = 60

    def __init__(self, network: RoadNetwork, method: str = "auto",
                 point_cache_size: int = 131072,
                 path_cache_size: int = 16384,
                 sssp_cache_size: int = 1024,
                 hub_index: HubLabelIndex | None = None) -> None:
        if method not in {"hub_label", "dijkstra", "auto"}:
            raise ValueError(f"unknown distance oracle method: {method!r}")
        if hub_index is not None:
            method = "hub_label"
        elif method == "auto":
            method = "hub_label" if network.num_nodes >= self._AUTO_THRESHOLD else "dijkstra"
        self._network = network
        self._method = method
        #: the last materialised index; ``_index`` is it, or the stand-in
        #: that replays ``_queue`` on first use while label work is queued
        self._built: HubLabelIndex | None = hub_index
        self._index: HubLabelIndex | _QueuedLabels | None = hub_index
        self._queue: list[_LabelWork] = []
        #: label work actually run: full index builds, incremental repairs,
        #: and repairs a later rebuild decision dropped from the queue unrun
        self.label_builds = 0
        self.label_repairs_run = 0
        self.label_repairs_superseded = 0
        #: what those builds did, summed (see HubLabelIndex.build_work)
        self.label_witness_searches = 0
        self.label_witness_settles = 0
        self.label_shortcuts = 0
        self.label_levels = 0
        if method == "hub_label" and hub_index is None:
            self._queue_label_work(_LabelWork("build"))
        self._point_cache = LRUCache(point_cache_size)
        self._sssp_cache = LRUCache(sssp_cache_size)
        self._path_cache = LRUCache(path_cache_size)
        # Degraded-rung state (see repro.network.approx_paths): the estimator
        # and its separate answer cache are built lazily on the first query
        # the ladder routes to the approximate rung.  Approximate answers
        # NEVER enter the exact point cache.
        self._approx: BoundedHopEstimator | None = None
        self._approx_cache: LRUCache | None = None
        self.query_count = 0
        #: how many *batched* API calls (paired or block) served the queries
        #: counted above — the batching ratio the FoodGraph kernels rely on
        self.batch_query_count = 0
        #: full single-source Dijkstra runs: SSSP-tree cache misses plus the
        #: before/after affected-set searches of traffic updates
        self.sssp_runs = 0
        # Node ids whose labels were incrementally repaired since the index
        # was last built from scratch.  Repaired labels are pruned and stay
        # near fresh-build size, but each repair pays per-affected-node
        # Dijkstras; once updates have churned a large fraction of the
        # network, one batched rebuild is cheaper than continuing to repair
        # piecemeal.
        self._repaired_out: set[int] = set()
        self._repaired_in: set[int] = set()
        # Whether any traffic update ever touched this oracle.  Repaired
        # labels are exact but can differ from a fresh build in the last
        # ULP (a repaired label stores the Dijkstra path sum, a built label
        # covers the pair as fl(d(s,h)) + fl(d(h,t))), so restoring the
        # *bit*-pristine state needs the pristine labels back — see
        # reset_traffic_state.  The snapshot is taken on the first mutating
        # update, or when the pristine build runs if it was still queued.
        self._traffic_touched = False
        self._label_snapshot = None

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def method(self) -> str:
        return self._method

    @property
    def hub_index(self) -> HubLabelIndex | None:
        """The live hub-label index (``None`` on the Dijkstra backend).

        A read: queued label work runs first.
        """
        self.refresh()
        return self._index

    # ------------------------------------------------------------------ #
    # deferred label work
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Run every queued hub-label action now (a no-op when none is).

        Any read does this by itself; callers use it to put the work where
        they want it timed — set-up code before its timers start, the window
        loop between its traffic updates and the policy's decision.
        """
        if self._queue:
            self._flush()

    @property
    def can_repair(self) -> bool:
        """Whether the index the queue ends on supports incremental repair.

        Never runs label work: a queued build ranks every node (both default
        orderings are complete), otherwise the built index answers.
        """
        if self._index is None:
            return False
        if self._queue and self._queue[0].kind != "repair":
            return True
        return self._built.can_repair

    def _queue_label_work(self, work: _LabelWork) -> None:
        if work.kind != "repair":
            # A build replaces the whole index: nothing queued before it
            # can affect the result.
            self._drop_queue()
        self._queue.append(work)
        self._index = _QueuedLabels(self)

    def _drop_queue(self) -> None:
        self.label_repairs_superseded += sum(
            1 for queued in self._queue if queued.kind == "repair")
        self._queue.clear()

    def _flush(self) -> HubLabelIndex:
        """Replay the queued label actions in order; returns the live index."""
        with current_tracer().span("oracle.refresh"):
            while self._queue:
                work = self._queue[0]
                if work.kind == "repair":
                    self._built.repair(work.affected_out, work.affected_in,
                                       _csr_pair=work.weights)
                    self.label_repairs_run += 1
                else:
                    self._built = HubLabelIndex(self._network,
                                                _csr_pair=work.weights)
                    self.label_builds += 1
                    for name, value in self._built.build_work.items():
                        setattr(self, f"label_{name}",
                                getattr(self, f"label_{name}") + value)
                    if work.kind == "build" and self._traffic_touched:
                        # The pristine labels ran late; keep them for reset.
                        self._label_snapshot = self._built.snapshot_labels()
                self._queue.pop(0)
        self._index = self._built
        return self._built

    # ------------------------------------------------------------------ #
    # distance queries
    # ------------------------------------------------------------------ #
    def _path_rung(self, ladders) -> str:
        """The active registry's rung, else the backend's exact rung.

        A registry offers ``"hub_labels"`` only when the index exists; its
        ``"dijkstra"`` forces the trees even then.
        """
        if ladders is not None:
            return ladders.path_rung(self)
        return _HUB_LABELS if self._index is not None else _DIJKSTRA

    def _exact_distance(self, rung: str, source: int, target: int) -> float:
        """One static distance on an exact rung (no point cache)."""
        if rung == _HUB_LABELS:
            return self._index.query(source, target)
        return self._sssp_tree(source).get(target, INFINITY)

    def _static_distance(self, source: int, target: int) -> float:
        """Static (profile-free) distance with point LRU memoisation."""
        ladders = current_ladders()
        rung = self._path_rung(ladders)
        began = perf_counter() if ladders is not None else 0.0
        key = (source, target)
        cache = self._point_cache
        value = cache.get(key)  # on any rung, an exact answer already paid for wins
        if value is None and rung == _APPROX:
            value = self._approximate(ladders, [source], [target])[0]
        elif value is None:
            value = self._exact_distance(rung, source, target)
            cache.put(key, value)
        if ladders is not None:
            ladders.record_path(rung, perf_counter() - began)
        return value

    def _approximate(self, ladders, sources: Sequence[int],
                     targets: Sequence[int], block: bool = False):
        """The approximate rung, for point and pair misses or a whole block.

        Misses come from the rung's own cache or are estimated (estimates
        NEVER enter the exact point cache); a call that estimated may
        shadow-resolve its first estimate on the backend's exact rung for
        the stretch report.  A ``block`` skips every cache.
        """
        estimator = self._approx
        if estimator is None:
            estimator = self._approx = BoundedHopEstimator(self._network)
        if block:
            return estimator.estimate_block(sources, targets)
        cache = self._approx_cache
        if cache is None:
            cache = self._approx_cache = LRUCache(self._point_cache.capacity)
        keys = list(zip(sources, targets, strict=True))
        values = [cache.get(key) for key in keys]
        pending = [i for i, value in enumerate(values) if value is None]
        if pending:
            estimates = estimator.estimate_many([sources[i] for i in pending],
                                                [targets[i] for i in pending])
            for i, value in zip(pending, estimates.tolist(), strict=True):
                cache.put(keys[i], value)
                values[i] = value
            if ladders.take_path_sample():
                first = pending[0]
                exact = self._exact_distance(self._path_rung(None), *keys[first])
                ladders.record_path_stretch(values[first], exact)
        return values

    def _sssp_tree(self, source: int) -> dict[int, float]:
        """Memoised static single-source tree (Dijkstra backend)."""
        tree = self._sssp_cache.get(source)
        if tree is None:
            self.sssp_runs += 1
            # A static tree scaled by the slot multiplier is exact because
            # the profile applies one factor to every edge within the slot.
            static = self._network.profile.multiplier(0.0)
            tree = {node: d / static
                    for node, d in dijkstra_all(self._network, source, t=0.0).items()}
            self._sssp_cache.put(source, tree)
        return tree

    def distance(self, source: int, target: int, t: float = 0.0) -> float:
        """Quickest-path travel time (seconds) from ``source`` to ``target`` at ``t``."""
        self.query_count += 1
        if source == target:
            return 0.0
        return self._static_distance(source, target) * self._network.profile.multiplier(t)

    def distances(self, sources: Sequence[int], targets: Sequence[int],
                  t: float = 0.0) -> np.ndarray:
        """Batched paired queries: ``result[i] = SP(sources[i], targets[i], t)``.

        Cached pairs are served from the point LRU; the remainder resolve in
        one vectorised :meth:`HubLabelIndex.query_many` call (or through the
        memoised SSSP trees on the Dijkstra backend).
        """
        out = self.static_distances(sources, targets)
        out *= self._network.profile.multiplier(t)
        return out

    def static_distances(self, sources: Sequence[int], targets: Sequence[int],
                         ) -> np.ndarray:
        """Batched paired *static* distances (no congestion multiplier).

        Callers that need per-element timestamps — e.g. the shortest-
        delivery-time prefetch, where each order's direct distance is scaled
        by the multiplier of its own placement time — fetch the static
        values in one call and apply their own scaling.
        """
        if len(sources) != len(targets):
            raise ValueError("sources and targets must have equal length")
        ladders = current_ladders()
        rung = self._path_rung(ladders)
        began = perf_counter() if ladders is not None else 0.0
        k = len(sources)
        self.query_count += k
        self.batch_query_count += 1
        out = np.empty(k, dtype=np.float64)
        cache = self._point_cache
        miss_pos: list[int] = []
        for i, (s, tg) in enumerate(zip(sources, targets, strict=True)):
            if s == tg:
                out[i] = 0.0
                continue
            cached = cache.get((s, tg))
            if cached is None:
                miss_pos.append(i)
            else:
                out[i] = cached
        if miss_pos:
            miss_src = [sources[i] for i in miss_pos]
            miss_tgt = [targets[i] for i in miss_pos]
            if rung == _HUB_LABELS:
                values = self._index.query_many(miss_src, miss_tgt).tolist()
            elif rung == _DIJKSTRA:
                values = [self._sssp_tree(s).get(tg, INFINITY)
                          for s, tg in zip(miss_src, miss_tgt, strict=True)]
            else:
                values = self._approximate(ladders, miss_src, miss_tgt)
            if rung != _APPROX:
                for key, value in zip(zip(miss_src, miss_tgt, strict=True),
                                      values, strict=True):
                    cache.put(key, value)
            out[miss_pos] = values
        if ladders is not None:
            ladders.record_path(rung, perf_counter() - began)
        return out

    def distance_matrix(self, sources: Sequence[int], targets: Sequence[int],
                        t: float = 0.0) -> np.ndarray:
        """Cross-product queries: ``result[i, j] = SP(sources[i], targets[j], t)``.

        The hub-label backend resolves the whole block with the contiguous
        row-gather kernel (:meth:`HubLabelIndex.query_block`), the fastest
        query path the oracle has; this is the shape of the FoodGraph
        first-mile feasibility checks.
        """
        out = self.static_distance_matrix(sources, targets)
        out *= self._network.profile.multiplier(t)
        return out

    def static_distance_matrix(self, sources: Sequence[int],
                               targets: Sequence[int]) -> np.ndarray:
        """Cross-product *static* distances (no congestion multiplier applied).

        Used by the cost model to prefetch the pairwise distances among a
        route plan's stop nodes once, then scale each leg by the slot
        multiplier of its actual departure time.  Blocks bypass the point
        cache on every rung.
        """
        ladders = current_ladders()
        rung = self._path_rung(ladders)
        began = perf_counter() if ladders is not None else 0.0
        self.query_count += len(sources) * len(targets)
        self.batch_query_count += 1
        if rung == _HUB_LABELS:
            out = self._index.query_block(sources, targets)
        elif rung == _DIJKSTRA:
            out = np.empty((len(sources), len(targets)), dtype=np.float64)
            for i, s in enumerate(sources):
                tree = self._sssp_tree(s)
                out[i] = [0.0 if s == tg else tree.get(tg, INFINITY)
                          for tg in targets]
        else:
            out = self._approximate(ladders, sources, targets, block=True)
        if ladders is not None:
            ladders.record_path(rung, perf_counter() - began)
        return out

    def path(self, source: int, target: int, t: float = 0.0) -> list[int]:
        """Node sequence of a quickest path from ``source`` to ``target``.

        Because the congestion profile scales all edges uniformly within a
        slot, the quickest path is time-invariant and can be cached per node
        pair.  Raises :class:`ValueError` when no path exists (the target
        sits behind a severed closure, or the graph was disconnected to
        begin with); callers that expect cuts use :meth:`path_or_none`.
        """
        nodes = self.path_or_none(source, target, t)
        if nodes is None:
            raise ValueError(f"no path from {source} to {target}")
        return nodes

    def path_or_none(self, source: int, target: int,
                     t: float = 0.0) -> list[int] | None:
        """Like :meth:`path`, but ``None`` when ``target`` is unreachable.

        Unreachability is cached like any other path answer (and evicted by
        the same scoped invalidation), so a vehicle stuck behind a severed
        closure does not pay a full Dijkstra per advance while it waits for
        the road to reopen.
        """
        if source == target:
            return [source]
        key = (source, target)
        cached = self._path_cache.get(key, _PATH_MISS)
        if cached is _PATH_MISS:
            try:
                cached = shortest_path_nodes(self._network, source, target, t=0.0)
            except ValueError:
                cached = None
            self._path_cache.put(key, cached)
        return None if cached is None else list(cached)

    def reachable(self, source: int, target: int) -> bool:
        """Whether ``target`` can be reached from ``source`` at all."""
        return self.distance(source, target, 0.0) < INFINITY

    # ------------------------------------------------------------------ #
    # live weight updates (dynamic traffic)
    # ------------------------------------------------------------------ #
    #: Fraction of labels that may be incrementally repaired before the next
    #: update falls back to a full index rebuild.
    repair_fraction = 0.25

    def apply_traffic_updates(
            self, changes: Mapping[tuple[int, int], float]) -> TrafficRepairStats:
        """Apply per-edge traffic override changes and repair the oracle.

        ``changes`` maps directed edges ``(u, v)`` to their new dynamic
        traffic factor (``1.0`` clears an event; ``math.inf`` *severs* the
        edge — the fully-closed-road encoding).  The whole update is a
        *scoped* invalidation, not a teardown, and it is connectivity-aware:
        a severed edge that cuts the graph lands every node of the lost
        region in the affected sets (its settled distance moved to
        infinity), their labels are repaired down to the hubs they can still
        reach, pairs across the cut answer ``inf``, and cached paths or
        "no-path" verdicts that the cut (or a later reopening) can have
        staled are evicted:

        1. the network patches the mutated CSR weight entries in place;
        2. the affected node sets are derived exactly — ``d(s, t)`` can only
           have changed if ``d(s, v)`` changed for the head ``v`` of some
           mutated edge (any altered path must cross a mutated edge, and its
           suffix past the last one is undisturbed), so one before/after SSSP
           pair per distinct mutated endpoint pins down every node whose
           out- or in-distances moved — and the pairs stop once every node
           is in the set, unless the update severs an edge (a zonal update
           touches hundreds of endpoints and saturates after a handful);
        3. the update decides how the hub labels follow: repair only the
           affected labels (:meth:`HubLabelIndex.repair`), or a full
           rebuild once the cumulative repaired region exceeds
           ``repair_fraction`` of all labels.  The decision is queued, not
           run — a repair together with frozen copies of the weights it must
           run on, a rebuild by dropping everything queued before it — and
           the next read replays the queue (see :meth:`refresh`);
        4. only the memoised entries whose stored values can be stale are
           dropped: point distances and cached paths touching an affected
           source/target, cached paths traversing a mutated edge, and SSSP
           trees rooted at an affected source.
        """
        network = self._network
        mutated = {edge: factor for edge, factor in changes.items()
                   if network.edge_override(*edge) != factor}
        if not mutated:
            return TrafficRepairStats(0, 0, 0, "noop")
        with current_tracer().span("oracle.traffic_update"):
            return self._apply_mutations(mutated)

    def _apply_mutations(
            self, mutated: dict[tuple[int, int], float]) -> TrafficRepairStats:
        """The mutating tail of :meth:`apply_traffic_updates` (steps 1–4)."""
        network = self._network
        if not self._traffic_touched:
            self._traffic_touched = True
            if self._index is not None and not self._queue:
                self._label_snapshot = self._built.snapshot_labels()
        csr = network.csr()
        # The weights as they stand before this update: the "before" side of
        # the affected-set searches, and the weights every action still
        # queued on the live ones must run on once they are patched.
        before = (csr.frozen_copy(), network.csr(reverse=True).frozen_copy())
        self._queue = [work if work.weights else work._replace(weights=before)
                       for work in self._queue]
        affected_out_idx, affected_in_idx, lost_idx = \
            self._patch_and_find_affected(mutated, before)
        ids = csr.node_ids
        affected_out = {ids[i] for i in affected_out_idx}
        affected_in = {ids[i] for i in affected_in_idx}

        strategy = "dijkstra"
        if self._index is not None:
            self._repaired_out |= affected_out
            self._repaired_in |= affected_in
            budget = 2 * csr.num_nodes * self.repair_fraction
            if (self.can_repair
                    and len(self._repaired_out) + len(self._repaired_in) <= budget):
                self._queue_label_work(
                    _LabelWork("repair", affected_out, affected_in))
                if len(self._queue) >= MAX_QUEUED_LABEL_WORK:
                    self._flush()
                strategy = "repair"
            else:
                self._queue_label_work(_LabelWork("rebuild"))
                self._repaired_out.clear()
                self._repaired_in.clear()
                strategy = "rebuild"

        mutated_set = set(mutated)
        dropped_point = self._point_cache.drop_where(
            lambda key, _: key[0] in affected_out or key[1] in affected_in)
        # Cached "no path" answers (None) have no edges to test; they can only
        # change when an endpoint's reachability moved, which the affected-set
        # key check covers.
        dropped_path = self._path_cache.drop_where(
            lambda key, path: key[0] in affected_out or key[1] in affected_in
            or (path is not None and any(
                edge in mutated_set
                for edge in zip(path, path[1:], strict=False))))
        dropped_sssp = self._sssp_cache.drop_where(
            lambda source, _: source in affected_out)
        # Degraded-rung state: approximate answers are cheap to recompute, so
        # the whole cache drops; the estimator's near-field Dijkstra reads
        # the patched CSR lists in place and only needs its memoised partial
        # trees cleared.  Its landmark tables intentionally stay stale until
        # reset_traffic_state (rebuilding them costs 2L SSSPs per incident)
        # — an accepted part of the approximate rung's contract.
        if self._approx_cache is not None:
            self._approx_cache.clear()
        if self._approx is not None:
            self._approx.refresh_after_mutation()
        return TrafficRepairStats(
            mutated_edges=len(mutated),
            affected_sources=len(affected_out),
            affected_targets=len(affected_in),
            strategy=strategy,
            dropped_point_entries=dropped_point,
            dropped_path_entries=dropped_path,
            dropped_sssp_entries=dropped_sssp,
            severed_edges=sum(1 for factor in mutated.values()
                              if math.isinf(factor)),
            disconnected_nodes=len(lost_idx),
        )

    def _patch_and_find_affected(
            self, mutated: dict[tuple[int, int], float], before: tuple,
    ) -> tuple[set[int], set[int], set[int]]:
        """Steps 1–2: patch the weights, then derive what the patch moved.

        ``before`` holds frozen copies of the pre-mutation ``(csr, reverse
        csr)`` weights.  Returns CSR node indexes: the nodes whose distance
        *to* some mutated head changed, the nodes whose distance *from* some
        mutated tail changed, and the nodes that lost reachability to or
        from one.
        """
        network = self._network
        csr = network.csr()
        rcsr = network.csr(reverse=True)
        index_of = csr.index_of
        heads = {index_of[v] for _, v in mutated}
        tails = {index_of[u] for u, _ in mutated}
        # The "before" searches run on the frozen pre-mutation weights, so
        # each endpoint's before/after pair runs back to back and only one
        # pair of settled-distance dicts is alive at a time.
        old_csr, old_rcsr = before
        for (u, v), factor in mutated.items():
            network.set_edge_override(u, v, factor)
        # Only an infinite patched weight can take reachability away.  Without
        # one, an affected set that already holds every node cannot grow and
        # no node can be lost, so the remaining endpoints' searches are
        # skipped; with one, ``disconnected_nodes`` needs every search.
        severing = any(math.isinf(network.static_edge_time(u, v))
                       for u, v in mutated)
        affected_out_idx: set[int] = set()
        affected_in_idx: set[int] = set()
        # Nodes that *lost* reachability to/from a mutated endpoint: a severed
        # closure opens a cut and everything on the far side stops settling in
        # the after-SSSP.  (Reopenings only restore paths, so this stays 0.)
        lost_idx: set[int] = set()
        for endpoints, before, after, affected in (
                (heads, old_rcsr, rcsr, affected_out_idx),
                (tails, old_csr, csr, affected_in_idx)):
            for endpoint in endpoints:
                if not severing and len(affected) == csr.num_nodes:
                    break
                self.sssp_runs += 2
                old = _csr_dijkstra_all(before, endpoint)
                new = _csr_dijkstra_all(after, endpoint)
                affected |= _changed_nodes(old, new)
                lost_idx.update(idx for idx in old if idx not in new)
        return affected_out_idx, affected_in_idx, lost_idx

    def reset_traffic_state(self) -> None:
        """Return the oracle to a *bit*-pristine pre-traffic state.

        Clears every live edge override (weight-only CSR patches, restoring
        the exact original static weights), resets the *cumulative* repair
        accounting that decides the full-rebuild fallback, and drops all
        memoised distances/paths/SSSP trees.  If any traffic update ever
        repaired or rebuilt the hub-label index, the pristine labels are
        reinstated from the snapshot taken at the first mutating update:
        repaired labels answer queries exactly but can differ from a freshly
        built index in the last ULP (a repaired label stores a single
        Dijkstra path sum where a built label rounds through
        ``fl(d(s, h)) + fl(d(h, t))``), and the experiment harnesses rely on
        a reset oracle being bit-identical to a brand-new one — that is what
        makes re-running a cell on a shared cached oracle (policy
        comparisons, parallel workers reusing fork-inherited scenarios)
        reproduce the fresh-oracle run exactly.

        Untouched oracles reset for free: no overrides to clear, no label
        work.  Touched ones drop their queued label work and restore the
        snapshot at O(1) cost — the flat label arrays are captured and
        reinstated by reference (repairs write overlays and merges allocate
        fresh arrays, so snapshotted arrays are never mutated).  An oracle whose pristine labels were never
        built (its first update decided a rebuild) queues the pristine
        build again instead — bit-identical, and paid only if read.
        """
        network = self._network
        for edge in network.edge_overrides():
            network.set_edge_override(*edge, 1.0)
        self._repaired_out.clear()
        self._repaired_in.clear()
        self._point_cache.clear()
        self._path_cache.clear()
        self._sssp_cache.clear()
        # Drop the approximate estimator entirely: its landmark tables were
        # built over (possibly) overridden weights, and a reset oracle must
        # be indistinguishable from a brand-new one.
        self._approx = None
        if self._approx_cache is not None:
            self._approx_cache.clear()
        if self._traffic_touched:
            if self._index is not None:
                if self._label_snapshot is not None:
                    self._drop_queue()
                    self._built.restore_labels(self._label_snapshot)
                    self._index = self._built
                else:
                    self._queue_label_work(_LabelWork("build"))
            self._traffic_touched = False

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size/capacity counters for every internal LRU cache.

        The ``approx`` entry appears only once the degraded path rung has
        actually served a query, so default runs report exactly the caches
        they always did.
        """
        info = {
            "point": self._point_cache.info(),
            "path": self._path_cache.info(),
            "sssp": self._sssp_cache.info(),
        }
        if self._approx_cache is not None:
            info["approx"] = self._approx_cache.info()
        return info

    def index_info(self) -> dict[str, int] | None:
        """Hub-label footprint of the built index, or ``None``.

        ``entries`` and ``bytes`` describe the index as last built (both 0
        before the first build); ``pending`` counts the label actions still
        queued.  A diagnostic, not a read: it never runs queued work.
        ``None`` on the Dijkstra backend.  Surfaces through
        ``SimulationResult.cache_stats`` so the scalability experiments can
        report index memory next to the cache hit rates.
        """
        if self._index is None:
            return None
        info = (self._built.memory_info() if self._built is not None
                else {"entries": 0, "bytes": 0})
        info["pending"] = len(self._queue)
        return info

    def reset_counters(self) -> None:
        """Zero the query counter and cache counters (scalability experiments)."""
        self.query_count = 0
        self.batch_query_count = 0
        self.sssp_runs = 0
        self._point_cache.reset_counters()
        self._path_cache.reset_counters()
        self._sssp_cache.reset_counters()
        if self._approx_cache is not None:
            self._approx_cache.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceOracle(method={self._method!r}, queries={self.query_count})"


__all__ = ["DistanceOracle", "LRUCache", "TrafficRepairStats"]
