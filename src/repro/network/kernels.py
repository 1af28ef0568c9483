"""Compiled kernel tier: the network hot loops behind one backend switch.

The profile of every city-scale run concentrates in a handful of inner
loops — bounded witness Dijkstras during contraction, full/cutoff SSSP,
the pruned-label scan used by build and repair, hub-label merge joins,
and the best-first explorer step.  This module holds each of them as a
standalone kernel with **two implementations**:

* a pure-python reference, extracted verbatim from
  :mod:`repro.network.shortest_path` / :mod:`repro.network.hub_labeling`
  (the default — zero new dependencies, byte-for-byte the behaviour the
  rest of the suite was built against), and
* a ``numba.njit(cache=True)`` twin compiled lazily from
  :mod:`repro.network._kernel_sources` the first time the ``numba``
  backend resolves.

Selection follows the same shape as the scipy fallback in
:mod:`repro.core.matching` and the observability mode switch in
:mod:`repro.obs`: a session-wide ``kernel_backend`` setting
(``auto | python | numba``) set from the CLI (``--kernel-backend``), the
``REPRO_KERNEL_BACKEND`` environment variable, or
:func:`set_kernel_backend`.  ``auto`` resolves to ``numba`` when numba
imports (``pip install .[speed]``) and otherwise falls back to
``python``, logging the fallback once through :mod:`repro.obs.log` —
never a hard failure.  The resolved choice is stamped into run telemetry
(:class:`repro.sim.engine.Simulator`), the reporting footer, and every
``BENCH_*.json``.

Backends are bit-identical, not approximately equal: every kernel pops
``(distance, node)`` heap entries in a unique total order and sums
floats in the same sequence as its reference twin (see
:mod:`repro.network._kernel_sources` for the argument), so
``result_fingerprint`` values never depend on the backend.  The
equivalence suite runs the numba *sources* interpreted against the
references on every environment, and compiled on environments that have
numba.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Sequence

import numpy as np

from repro.network import _kernel_sources as _sources
from repro.obs.log import get_logger

INFINITY = math.inf

#: Recognised settings for :func:`set_kernel_backend` / ``--kernel-backend``.
KERNEL_BACKENDS = ("auto", "python", "numba")

#: Environment override consulted at import (and by :func:`set_kernel_backend`
#: with no argument); invalid values are ignored rather than fatal.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Minimum numba version known to compile the kernel sources; the
#: ``[speed]`` extra in ``setup.py`` pins the same floor.
NUMBA_FLOOR = "0.57"

_logger = get_logger(__name__)


def _env_setting() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    return value if value in KERNEL_BACKENDS else "auto"


_setting: str = _env_setting()
_resolved: str | None = None
_compiled: dict | None = None
_fallback_logged = False


def set_kernel_backend(backend: str | None = None) -> str:
    """Select the session-wide kernel backend; returns the resolved choice.

    ``backend`` is one of :data:`KERNEL_BACKENDS`; ``None`` re-reads the
    :data:`ENV_VAR` environment override.  Requesting ``numba`` on an
    environment without numba logs once and resolves to ``python`` —
    mirroring the scipy fallback in :mod:`repro.core.matching`, a missing
    accelerator is never a hard failure.
    """
    global _setting, _resolved
    if backend is None:
        backend = _env_setting()
    if backend not in KERNEL_BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}; "
                         f"expected one of {KERNEL_BACKENDS}")
    _setting = backend
    _resolved = None
    return kernel_backend()


def kernel_backend_setting() -> str:
    """The requested setting (``auto | python | numba``), before resolution."""
    return _setting


def kernel_backend() -> str:
    """The resolved backend actually answering kernel calls (``python | numba``)."""
    global _resolved, _compiled, _fallback_logged
    if _resolved is not None:
        return _resolved
    if _setting == "python":
        _resolved = "python"
        return _resolved
    try:
        _compiled = _compile()
        _resolved = "numba"
        _logger.debug("kernel backend resolved to numba %s", numba_version())
    except Exception as exc:  # ImportError, or a numba/llvmlite install too
        # broken to decorate — either way the python tier must keep working.
        if not _fallback_logged:
            _fallback_logged = True
            log = _logger.warning if _setting == "numba" else _logger.info
            log("numba kernel backend unavailable (%s: %s); falling back to "
                "python kernels", type(exc).__name__, exc)
        _resolved = "python"
    return _resolved


def numba_version() -> str | None:
    """The installed numba version, or ``None`` — without importing numba."""
    try:
        from importlib import metadata
        return metadata.version("numba")
    except Exception:
        return None


def kernel_info() -> dict:
    """Backend provenance for telemetry and ``BENCH_*.json`` stamping."""
    return {"kernel_backend": kernel_backend(),
            "kernel_backend_setting": kernel_backend_setting(),
            "numba": numba_version()}


def _compile() -> dict:
    """Decorate every kernel source with ``njit(cache=True)`` (lazy compile).

    Decoration is cheap; machine code is generated per-signature on first
    call and persisted by numba's on-disk cache, so repeat sessions skip
    the JIT entirely.
    """
    import numba

    jit = numba.njit(cache=True, nogil=True)
    return {name: jit(getattr(_sources, name)) for name in _sources.KERNELS}


# --------------------------------------------------------------------------- #
# Dijkstra family (python references extracted from shortest_path.py)
# --------------------------------------------------------------------------- #
def _sssp_python(indptr, indices, weights, n, src, cutoff):
    """Reference full/cutoff SSSP (the PR 1 ``_csr_dijkstra_all`` loop,
    returning settle-ordered parallel lists instead of a dict)."""
    dist = [INFINITY] * n
    dist[src] = 0.0
    seen = [False] * n
    nodes: list[int] = []
    dists: list[float] = []
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if seen[node]:
            continue
        if cutoff is not None and d > cutoff:
            break
        seen[node] = True
        nodes.append(node)
        dists.append(d)
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if cutoff is not None and nd > cutoff:
                # Already past the cutoff: it could never settle, so pushing
                # it would be pure heap churn (the PR 10 witness-profile fix).
                continue
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return nodes, dists


def sssp_settled(csr, src: int, cutoff: float | None = None
                 ) -> tuple[list[int], list[float]]:
    """Full/cutoff SSSP over ``csr``; settle-ordered ``(nodes, dists)`` lists.

    ``dict(zip(*sssp_settled(...)))`` reproduces the historical
    ``_csr_dijkstra_all`` mapping exactly (settled nodes are unique and
    dicts preserve insertion order).
    """
    if kernel_backend() == "numba":
        cut = INFINITY if cutoff is None else cutoff
        count, nodes, dists = _compiled["sssp_kernel"](
            csr.indptr, csr.indices, csr.weights, csr.num_nodes, src, cut)
        return nodes[:count].tolist(), dists[:count].tolist()
    return _sssp_python(csr.indptr_list, csr.indices_list, csr.weights_list,
                        csr.num_nodes, src, cutoff)


def _p2p_python(indptr, indices, weights, n, src, dst):
    """Reference point-to-point Dijkstra (``_csr_dijkstra_to_target``)."""
    dist = [INFINITY] * n
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node == dst:
            return d
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if nd < dist[nbr]:
                dist[nbr] = nd
                push(heap, (nd, nbr))
    return INFINITY


def point_to_point(csr, src: int, dst: int) -> float:
    """Static-weight point-to-point distance over ``csr`` (inf when cut)."""
    if kernel_backend() == "numba":
        return float(_compiled["p2p_kernel"](
            csr.indptr, csr.indices, csr.weights, csr.num_nodes, src, dst))
    return _p2p_python(csr.indptr_list, csr.indices_list, csr.weights_list,
                       csr.num_nodes, src, dst)


def _path_python(indptr, indices, weights, n, src, dst):
    """Reference Dijkstra with parent tracking (``_csr_shortest_path``)."""
    dist = [INFINITY] * n
    parent = [-1] * n
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node == dst:
            break
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            nd = d + weights[j]
            if nd < dist[nbr]:
                dist[nbr] = nd
                parent[nbr] = node
                push(heap, (nd, nbr))
    if dist[dst] == INFINITY:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path_indices(csr, src: int, dst: int) -> list[int] | None:
    """Index path of a shortest ``src -> dst`` route, or ``None`` when cut."""
    if kernel_backend() == "numba":
        dd, parent = _compiled["path_kernel"](
            csr.indptr, csr.indices, csr.weights, csr.num_nodes, src, dst)
        if dd == INFINITY:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(int(parent[path[-1]]))
        path.reverse()
        return path
    return _path_python(csr.indptr_list, csr.indices_list, csr.weights_list,
                        csr.num_nodes, src, dst)


# --------------------------------------------------------------------------- #
# best-first explorer step
# --------------------------------------------------------------------------- #
class ExplorerWorkspace:
    """Persistent state for the incremental best-first explorer kernel."""

    __slots__ = ("csr", "dist", "settled", "heap_d", "heap_n", "state")

    def __init__(self, csr, src: int) -> None:
        n = csr.num_nodes
        self.csr = csr
        self.dist = np.full(n, INFINITY)
        self.settled = np.zeros(n, np.bool_)
        self.heap_d = np.empty(len(csr.indices) + 2, np.float64)
        self.heap_n = np.empty(len(csr.indices) + 2, np.int64)
        self.state = np.zeros(1, np.int64)
        self.dist[src] = 0.0
        self.heap_d[0] = 0.0
        self.heap_n[0] = src
        self.state[0] = 1


def explorer_workspace(csr, src: int) -> ExplorerWorkspace:
    """Allocate explorer state (arrays sized to ``csr``) seeded at ``src``."""
    return ExplorerWorkspace(csr, src)


def explorer_next(ws: ExplorerWorkspace) -> tuple[int, float]:
    """Settle and return the next ``(node_index, dist)``; ``(-1, 0.0)`` at end.

    The python fallback runs the kernel source interpreted on the same
    workspace — :class:`~repro.network.shortest_path.BestFirstExplorer`
    keeps its historical list-based loop for the python backend and only
    routes here when the backend is ``numba``, so the fallback exists for
    API completeness and the equivalence suite.
    """
    csr = ws.csr
    fn = (_compiled["explorer_next_kernel"] if kernel_backend() == "numba"
          else _sources.explorer_next_kernel)
    node, d = fn(csr.indptr, csr.indices, csr.weights, ws.dist, ws.settled,
                 ws.heap_d, ws.heap_n, ws.state)
    return int(node), float(d)


# --------------------------------------------------------------------------- #
# contraction witness searches
# --------------------------------------------------------------------------- #
class ContractionWorkspace:
    """Reusable witness-search state for one simulated contraction.

    The python backend shares the contraction's ``adj_out`` dict-of-dicts
    and replaces the historical per-call ``dist`` dict / ``seen`` set with
    stamp-versioned preallocated buffers (same heap tuples and ``found``
    lists, no per-call allocation).  The numba backend
    additionally mirrors the *out*-adjacency as linked-chain arrays
    (``head``/``edge_to``/``edge_wt``/``edge_next``) that the compiled
    witness kernel traverses; the mutators keep the mirror in sync with
    the dicts as contraction inserts shortcuts and removes nodes.
    Witness searches only ever traverse out-edges, so the in-adjacency is
    never mirrored.
    """

    def __init__(self, n: int, adj_out: list[dict[int, float]],
                 backend: str | None = None) -> None:
        self._n = n
        self._adj_out = adj_out
        self._backend = backend if backend is not None else kernel_backend()
        self._stamp = 0
        self._dist_l: list[float] = []
        #: witness searches run, and nodes they settled (python backend
        #: only: the compiled twin reports ``found`` alone)
        self.searches = 0
        self.settles = 0
        if self._backend == "numba":
            total = 0
            for nbrs in adj_out:
                total += len(nbrs)
            cap = max(16, 2 * total)
            self._head = np.full(n, -1, np.int64)
            self._eto = np.empty(cap, np.int64)
            self._ewt = np.empty(cap, np.float64)
            self._enext = np.empty(cap, np.int64)
            count = 0
            for u, nbrs in enumerate(adj_out):
                for v, w in nbrs.items():
                    self._eto[count] = v
                    self._ewt[count] = w
                    self._enext[count] = self._head[u]
                    self._head[u] = count
                    count += 1
            self._edge_count = count
            self._edge_cap = cap
            self._dist = np.empty(n, np.float64)
            self._dstamp = np.full(n, -1, np.int64)
            self._sstamp = np.full(n, -1, np.int64)
            self._tpos = np.zeros(n, np.int64)
            self._tstamp = np.full(n, -1, np.int64)
            self._found = np.zeros(256, np.bool_)
            self._alloc_heap()
            self._kernel = _compiled["witness_kernel"]
        else:
            self._dist_l = [INFINITY] * n
            self._dstamp_l = [-1] * n
            self._sstamp_l = [-1] * n

    def _alloc_heap(self) -> None:
        # Pushes are strict improvements, so the live heap never exceeds the
        # number of out-edge slots; capacity tracks the edge arrays.
        self._heap_d = np.empty(self._edge_cap + 2, np.float64)
        self._heap_n = np.empty(self._edge_cap + 2, np.int64)

    # -- mutators (numba mirror maintenance; python backend shares the dicts) --
    def update_edge(self, u: int, v: int, w: float) -> None:
        """Insert or tighten the out-edge ``u -> v`` in the mirror."""
        if self._backend != "numba":
            return
        eto = self._eto
        enext = self._enext
        j = self._head[u]
        while j != -1:
            if eto[j] == v:
                self._ewt[j] = w
                return
            j = enext[j]
        if self._edge_count == self._edge_cap:
            self._edge_cap *= 2
            self._eto = np.resize(self._eto, self._edge_cap)
            self._ewt = np.resize(self._ewt, self._edge_cap)
            self._enext = np.resize(self._enext, self._edge_cap)
            self._alloc_heap()
        slot = self._edge_count
        self._eto[slot] = v
        self._ewt[slot] = w
        self._enext[slot] = self._head[u]
        self._head[u] = slot
        self._edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Unlink the out-edge ``u -> v`` from the mirror (if present)."""
        if self._backend != "numba":
            return
        eto = self._eto
        enext = self._enext
        j = self._head[u]
        prev = -1
        while j != -1:
            if eto[j] == v:
                if prev == -1:
                    self._head[u] = enext[j]
                else:
                    enext[prev] = enext[j]
                return
            prev = j
            j = enext[j]

    def clear_node(self, u: int) -> None:
        """Drop every out-edge of ``u`` from the mirror."""
        if self._backend == "numba":
            self._head[u] = -1

    # -- the bounded witness search ---------------------------------------- #
    def witness(self, source: int, banned: int, tgt_nodes: Sequence[int],
                tgt_vias: Sequence[float], cutoff: float,
                settle_cap: int) -> list[bool]:
        """Bounded Dijkstra from ``source`` avoiding ``banned``.

        ``found[i]`` reports whether a witness path to ``tgt_nodes[i]`` no
        longer than ``tgt_vias[i] + 1e-12`` was certified within ``cutoff``
        and ``settle_cap`` settles; unfound targets need a shortcut.

        The python search stops, and stops pushing, at the largest
        ``tgt_vias[i] + 1e-12`` among targets not yet found (capped by
        ``cutoff``) instead of at ``cutoff`` itself.  Every pop up to that
        bound is the pop of a search run to ``cutoff`` — a pruned push lies
        past the bound, and the bound never grows — and no later pop can
        satisfy an unfound target's ``d <= via + 1e-12``, so ``found`` is
        the same list, with or without a binding ``settle_cap``; only the
        wasted settles go.
        """
        self.searches += 1
        if self._backend != "numba":
            return self._witness_python(source, banned, tgt_nodes, tgt_vias,
                                        cutoff, settle_cap)
        k = len(tgt_nodes)
        if k > len(self._found):
            self._found = np.zeros(max(k, 2 * len(self._found)), np.bool_)
        self._stamp += 1
        self._kernel(self._head, self._eto, self._ewt, self._enext,
                     source, banned,
                     np.asarray(tgt_nodes, dtype=np.int64),
                     np.asarray(tgt_vias, dtype=np.float64),
                     cutoff, settle_cap,
                     self._dist, self._dstamp, self._sstamp, self._stamp,
                     self._tpos, self._tstamp, self._heap_d, self._heap_n,
                     self._found)
        return self._found[:k].tolist()

    def _witness_python(self, source, banned, tgt_nodes, tgt_vias, cutoff,
                        settle_cap):
        # Extracted from HubLabelIndex._contract's per-in-neighbour witness
        # Dijkstra (PR 6); per-call dict/set state replaced by the shared
        # stamped buffers; :meth:`witness` gives the stop rule.
        adj_out = self._adj_out
        dist = self._dist_l
        dstamp = self._dstamp_l
        sstamp = self._sstamp_l
        self._stamp += 1
        sid = self._stamp
        pos: dict[int, int] = {}
        for i, b in enumerate(tgt_nodes):
            pos[b] = i
        found = [False] * len(tgt_nodes)
        remaining = len(tgt_nodes)
        # No pop past the largest ``via + 1e-12`` of an unfound target can
        # find one, so that (capped by ``cutoff``) ends the search; it only
        # shrinks as targets are found.
        bound = min(cutoff, max(tgt_vias) + 1e-12) if remaining else cutoff
        dist[source] = 0.0
        dstamp[source] = sid
        heap: list[tuple[float, int]] = [(0.0, source)]
        budget = settle_cap
        while heap and remaining and budget:
            d, x = heapq.heappop(heap)
            if sstamp[x] == sid:
                continue
            sstamp[x] = sid
            budget -= 1
            if d > bound:
                break
            i = pos.get(x)
            if i is not None and not found[i] and d <= tgt_vias[i] + 1e-12:
                found[i] = True
                remaining -= 1
                if not remaining:
                    break
                if tgt_vias[i] + 1e-12 >= bound:
                    bound = min(cutoff, max(
                        [v for v, f in zip(tgt_vias, found, strict=True) if not f]) + 1e-12)
            for y, w in adj_out[x].items():
                if y == banned or sstamp[y] == sid:
                    continue
                nd = d + w
                if nd <= bound and (dstamp[y] != sid or nd < dist[y]):
                    dist[y] = nd
                    dstamp[y] = sid
                    heapq.heappush(heap, (nd, y))
        self.settles += settle_cap - budget
        return found


def contraction_workspace(n: int, adj_out: list[dict[int, float]]
                          ) -> ContractionWorkspace:
    """Workspace for :meth:`HubLabelIndex._contract` witness searches."""
    return ContractionWorkspace(n, adj_out)


# --------------------------------------------------------------------------- #
# pruned landmark labeling (build)
# --------------------------------------------------------------------------- #
def _pruned_search_python(csr, hub, rank, search_id, hub_ranks, hub_dists,
                          label_ranks, label_dists, dist, stamp, settled,
                          scratch):
    """One pruned Dijkstra from ``hub`` (extracted ``_pruned_search``).

    On the forward pass (``csr`` = out-edges) the settled nodes extend
    their *in*-labels and pruning consults the hub's *out*-label; the
    backward pass is symmetric.  ``hub_ranks``/``hub_dists`` is the hub's
    own already-built label on the pruning side, scattered into the dense
    ``scratch`` array for O(1) lookups.
    """
    for r, d in zip(hub_ranks, hub_dists, strict=True):
        scratch[r] = d
    indptr = csr.indptr_list
    indices = csr.indices_list
    weights = csr.weights_list
    dist[hub] = 0.0
    stamp[hub] = search_id
    heap: list[tuple[float, int]] = [(0.0, hub)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, node = pop(heap)
        if settled[node] == search_id:
            continue
        settled[node] = search_id
        if node != hub:
            # query(hub, node) via the labels built so far: prune when an
            # earlier hub already certifies a distance <= d.
            best = INFINITY
            for r, dv in zip(label_ranks[node], label_dists[node], strict=True):
                cand = scratch[r] + dv
                if cand < best:
                    best = cand
            if best <= d:
                continue
        label_ranks[node].append(rank)
        label_dists[node].append(d)
        for j in range(indptr[node], indptr[node + 1]):
            nbr = indices[j]
            if settled[nbr] == search_id:
                continue
            nd = d + weights[j]
            if nd == INFINITY:
                # Severed edge (infinite weight): the neighbour is not
                # reachable this way; pushing it would only be popped and
                # pruned later, so skip it outright.
                continue
            if stamp[nbr] != search_id or nd < dist[nbr]:
                dist[nbr] = nd
                stamp[nbr] = search_id
                push(heap, (nd, nbr))
    for r in hub_ranks:
        scratch[r] = INFINITY


def _flatten_labels(ranks, dists):
    """Flatten per-node label lists into CSR-style arrays (with sentinel).

    The returned indptr carries one extra slot past ``num_nodes``: it
    backs the "unknown node" sentinel index, whose empty label range makes
    batched queries touching it resolve to infinity like the scalar path.
    """
    n = len(ranks)
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum([len(lst) for lst in ranks], out=indptr[1:n + 1])
    indptr[n + 1] = indptr[n]
    total = int(indptr[n])
    flat_ranks = np.empty(total, dtype=np.int64)
    flat_dists = np.empty(total, dtype=np.float64)
    pos = 0
    for r_list, d_list in zip(ranks, dists, strict=True):
        nxt = pos + len(r_list)
        flat_ranks[pos:nxt] = r_list
        flat_dists[pos:nxt] = d_list
        pos = nxt
    return indptr, flat_ranks, flat_dists


def _pruned_labeling_python(csr, rcsr, order_idx):
    # Extracted from HubLabelIndex._build: one forward and one backward
    # pruned search per hub, over preallocated stamp-versioned buffers.
    n = csr.num_nodes
    out_ranks: list[list[int]] = [[] for _ in range(n)]
    out_dists: list[list[float]] = [[] for _ in range(n)]
    in_ranks: list[list[int]] = [[] for _ in range(n)]
    in_dists: list[list[float]] = [[] for _ in range(n)]
    dist = [INFINITY] * n
    stamp = [-1] * n
    settled = [-1] * n
    scratch = [INFINITY] * n  # dense hub-label scratch, indexed by rank
    for rank, hub in enumerate(order_idx):
        _pruned_search_python(csr, hub, rank, 2 * rank,
                              out_ranks[hub], out_dists[hub],
                              in_ranks, in_dists,
                              dist, stamp, settled, scratch)
        _pruned_search_python(rcsr, hub, rank, 2 * rank + 1,
                              in_ranks[hub], in_dists[hub],
                              out_ranks, out_dists,
                              dist, stamp, settled, scratch)
    return (*_flatten_labels(out_ranks, out_dists),
            *_flatten_labels(in_ranks, in_dists))


def pruned_labeling(csr, rcsr, order_idx: Sequence[int]):
    """Build the full 2-hop cover for ``order_idx`` (node indices, rank order).

    Returns ``(out_indptr, out_ranks, out_dists, in_indptr, in_ranks,
    in_dists)`` in the exact flat layout :class:`HubLabelIndex` stores.
    The numba path retries with a doubled label pool on overflow (each
    retry restarts the build, so the initial guess is deliberately
    generous: metro-scale indexes land near 45 entries/side/node).
    """
    if kernel_backend() == "numba":
        order = np.asarray(order_idx, dtype=np.int64)
        cap = max(1024, 128 * csr.num_nodes)
        while True:
            ok, *arrays = _compiled["pruned_labeling_kernel"](
                csr.indptr, csr.indices, csr.weights,
                rcsr.indptr, rcsr.indices, rcsr.weights,
                csr.num_nodes, order, cap)
            if ok:
                return tuple(arrays)
            cap *= 2
    return _pruned_labeling_python(csr, rcsr, order_idx)


# --------------------------------------------------------------------------- #
# pruned label re-selection (repair)
# --------------------------------------------------------------------------- #
def _select_label_python(cand_ranks, cand_dists, cand_rows, fresh_indptr,
                         fresh_ranks, fresh_dists, opp_indptr, opp_ranks,
                         opp_dists, cand_nodes, scratch):
    # Array-layout twin of HubLabelIndex._pruned_label (the dict-based
    # reference stays in hub_labeling.py for the python repair path); the
    # equivalence suite pins all three implementations to each other.
    ranks: list[int] = []
    dists: list[float] = []
    for c in range(len(cand_ranks)):
        rank = int(cand_ranks[c])
        d = float(cand_dists[c])
        if not dists:
            ranks.append(rank)
            dists.append(d)
            scratch[rank] = d
            continue
        pruned = False
        cutoff = d + 1e-12
        row = int(cand_rows[c])
        if row >= 0:
            lo = int(fresh_indptr[row])
            hi = int(fresh_indptr[row + 1])
            for t, r in enumerate(ranks):
                a = np.searchsorted(fresh_ranks[lo:hi], r)
                if a < hi - lo and fresh_ranks[lo + a] == r:
                    if dists[t] + fresh_dists[lo + a] <= cutoff:
                        pruned = True
                        break
        else:
            node = int(cand_nodes[c])
            for j in range(int(opp_indptr[node]), int(opp_indptr[node + 1])):
                r = opp_ranks[j]
                if r >= rank:
                    break
                if scratch[r] + opp_dists[j] <= cutoff:
                    pruned = True
                    break
        if pruned:
            continue
        ranks.append(rank)
        dists.append(d)
        scratch[rank] = d
    for r in ranks:
        scratch[r] = INFINITY
    return ranks, dists


def select_pruned_label(cand_ranks, cand_dists, cand_rows, fresh_indptr,
                        fresh_ranks, fresh_dists, opp_indptr, opp_ranks,
                        opp_dists, cand_nodes, scratch
                        ) -> tuple[list[int], list[float]]:
    """Re-select one repaired node's pruned label from rank-sorted candidates.

    See :func:`_kernel_sources.select_label_kernel` for the argument
    layout; returns plain ``(ranks, dists)`` lists ready to drop into the
    index's patch overlay.
    """
    if kernel_backend() == "numba":
        kept, keep_r, keep_d = _compiled["select_label_kernel"](
            cand_ranks, cand_dists, cand_rows, fresh_indptr, fresh_ranks,
            fresh_dists, opp_indptr, opp_ranks, opp_dists, cand_nodes, scratch)
        return keep_r[:kept].tolist(), keep_d[:kept].tolist()
    return _select_label_python(cand_ranks, cand_dists, cand_rows, fresh_indptr,
                                fresh_ranks, fresh_dists, opp_indptr, opp_ranks,
                                opp_dists, cand_nodes, scratch)


# --------------------------------------------------------------------------- #
# hub-label merge joins (query / query_many / query_block)
# --------------------------------------------------------------------------- #
def _merge_join_python(a_ranks, a_dists, b_ranks, b_dists):
    # Extracted from HubLabelIndex.query's merge join over rank-sorted labels.
    i = j = 0
    la = len(a_ranks)
    lb = len(b_ranks)
    best = INFINITY
    while i < la and j < lb:
        ra = a_ranks[i]
        rb = b_ranks[j]
        if ra == rb:
            cand = a_dists[i] + b_dists[j]
            if cand < best:
                best = cand
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return best


def merge_join(a_ranks, a_dists, b_ranks, b_dists) -> float:
    """Scalar label query: min of ``a + b`` over common hub ranks."""
    if kernel_backend() == "numba":
        return float(_compiled["merge_join_kernel"](
            np.ascontiguousarray(a_ranks, dtype=np.int64),
            np.ascontiguousarray(a_dists, dtype=np.float64),
            np.ascontiguousarray(b_ranks, dtype=np.int64),
            np.ascontiguousarray(b_dists, dtype=np.float64)))
    return _merge_join_python(a_ranks, a_dists, b_ranks, b_dists)


def query_pairs(out_indptr, out_ranks, out_dists, in_indptr, in_ranks, in_dists,
                src, tgt) -> np.ndarray:
    """Paired label queries over flat label arrays; ``res[p] = d(src_p, tgt_p)``.

    The python fallback runs one reference merge join per pair — the
    production python backend answers batches through
    :meth:`HubLabelIndex.query_many`'s vectorised dense-scatter path and
    only routes here on the numba backend.
    """
    if kernel_backend() == "numba":
        return _compiled["query_pairs_kernel"](out_indptr, out_ranks, out_dists,
                                               in_indptr, in_ranks, in_dists,
                                               src, tgt)
    res = np.full(len(src), INFINITY)
    for p in range(len(src)):
        s = src[p]
        t = tgt[p]
        res[p] = _merge_join_python(
            out_ranks[out_indptr[s]:out_indptr[s + 1]],
            out_dists[out_indptr[s]:out_indptr[s + 1]],
            in_ranks[in_indptr[t]:in_indptr[t + 1]],
            in_dists[in_indptr[t]:in_indptr[t + 1]])
    return res


def query_block(out_indptr, out_ranks, out_dists, in_indptr, in_ranks, in_dists,
                src, tgt) -> np.ndarray:
    """Cross-product label queries; ``out[a, b] = d(src_a, tgt_b)``."""
    if kernel_backend() == "numba":
        return _compiled["query_block_kernel"](out_indptr, out_ranks, out_dists,
                                               in_indptr, in_ranks, in_dists,
                                               src, tgt)
    out = np.full((len(src), len(tgt)), INFINITY)
    for a in range(len(src)):
        s = src[a]
        a_r = out_ranks[out_indptr[s]:out_indptr[s + 1]]
        a_d = out_dists[out_indptr[s]:out_indptr[s + 1]]
        if not len(a_r):
            continue
        for b in range(len(tgt)):
            t = tgt[b]
            out[a, b] = _merge_join_python(
                a_r, a_d,
                in_ranks[in_indptr[t]:in_indptr[t + 1]],
                in_dists[in_indptr[t]:in_indptr[t + 1]])
    return out


__all__ = [
    "KERNEL_BACKENDS",
    "ENV_VAR",
    "NUMBA_FLOOR",
    "set_kernel_backend",
    "kernel_backend",
    "kernel_backend_setting",
    "numba_version",
    "kernel_info",
    "sssp_settled",
    "point_to_point",
    "shortest_path_indices",
    "ExplorerWorkspace",
    "explorer_workspace",
    "explorer_next",
    "ContractionWorkspace",
    "contraction_workspace",
    "pruned_labeling",
    "select_pruned_label",
    "merge_join",
    "query_pairs",
    "query_block",
    "INFINITY",
]
