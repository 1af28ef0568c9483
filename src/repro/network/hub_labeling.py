"""Hub labeling (pruned landmark labeling) for exact distance queries.

The paper indexes shortest-path queries with hierarchical hub labels [18] so
that the marginal-cost computations dominating Greedy, KM and FoodMatch do
not pay a full Dijkstra per query.  This module provides an array-backed
2-hop-cover index built with pruned landmark labeling (Akiba et al.), which
yields exact distances on directed graphs:

* every node ``u`` stores an *out-label* ``L_out(u) = {h: d(u, h)}`` and an
  *in-label* ``L_in(u) = {h: d(h, u)}``;
* ``query(s, t) = min over common hubs h of d(s, h) + d(h, t)``.

Labels are built on the *static* effective edge weights (base traversal time
times any per-edge multiplier).  Because the network-wide congestion profile
scales every edge by the same factor within a time slot, a distance at time
``t`` is the static distance times that factor — the scaling is handled by
:class:`repro.network.distance_oracle.DistanceOracle`, keeping this index
purely structural.

Hub ordering (the label-size lever): on sparse road-like graphs (mean
out-degree at most :data:`_CONTRACTION_MAX_AVG_DEGREE`) nodes are ranked
by a contraction-hierarchy style simulated contraction — repeatedly
"remove" the node of lowest ``edge_difference + deleted_neighbours +
depth`` priority (edge difference weighted by :data:`_EDGE_DIFF_WEIGHT`;
heap priorities are updated lazily, re-evaluated only when a node is
popped), inserting the shortcuts that capped witness searches cannot avoid
— and hubs are processed in *reverse* contraction order.  This puts the
arterial spine at the top of the hierarchy and shrinks labels (and hence
build and query time) versus degree or sampled-betweenness orderings.  On
dense graphs the contraction core densifies quadratically, so the default
``order_strategy="auto"`` falls back to the sampled Brandes ordering of
earlier revisions there; the ordering only affects label sizes, never
exactness, and both strategies stay explicitly selectable for ordering
A/B benchmarks.

The contraction additionally records each node's *upward* edges (original
and shortcut edges toward later-contracted neighbours), and the default
build derives labels top-down from that hierarchy instead of running one
pruned Dijkstra per hub: a node's candidate out-label is the weight-shifted
merge of its upward neighbours' out-labels, and a candidate entry survives
only if no higher-ranked hub already certifies an equal-or-shorter distance
(the CH distance check).  Everything a node reads belongs to a strict
ancestor in the upward graph, so the derivation goes one hierarchy *level*
at a time, and all nodes of a level are merged and checked together with
vectorised array kernels, in chunks of bounded size.  That construction is
several times faster than the Dijkstra sweep at metro scale and produces
slightly *smaller* labels; explicit orders and the betweenness strategy keep
the Dijkstra builder, and both builders are query-exact for any complete
order.  Each build reports what it did in :attr:`HubLabelIndex.build_work`.

Storage layout (the perf-critical part):

* Hubs are identified by their *rank* (position in the processing order).
  Because pruned landmark labeling appends labels in rank order, every
  node's label list is born sorted — no post-sort is needed.
* Labels live in flat CSR-style numpy parallel arrays (``indptr`` plus
  concatenated ranks/distances) that power the vectorised :meth:`query_many`
  / :meth:`query_block` kernels.
* :meth:`repair` writes per-node *patch overlays* instead of rewriting the
  arrays; overlays are merged into fresh arrays lazily on the next batched
  query.  Scalar queries read overlay-or-slice, snapshots are O(1) array
  references, and the flat arrays are never mutated in place.
* Construction runs pruned Dijkstra on the network's CSR adjacency with
  preallocated, timestamp-versioned distance buffers, and answers pruning
  queries through a dense scratch array indexed by hub rank — no dict
  lookups anywhere on the hot path.

The original per-node-dict implementation is preserved in
:mod:`repro.network._dict_hub_labels` as the reference for equivalence tests
and microbenchmarks.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.network import kernels as _kernels
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import _csr_dijkstra_all as _csr_sssp
from repro.obs.trace import current_tracer

INFINITY = math.inf

#: Witness searches during contraction settle at most this many nodes; an
#: aborted search just means an extra (harmless) shortcut edge.  Generous on
#: purpose: skimping here densifies the shrinking core, and the quadratic
#: blow-up in later witness searches costs far more than the searches saved.
_WITNESS_SETTLE_CAP = 100
#: Above this core degree a node's shortcuts are added without witness
#: searches at all — the quadratic pair scan would dominate, and such hub
#: nodes contract last anyway.
_WITNESS_DEGREE_CAP = 64
#: Weight of the edge-difference term in the contraction priority relative
#: to the deleted-neighbours and depth terms.  Tuned on metro grids: at 1
#: the order roughly ties sampled betweenness on label size; at 4 it beats
#: it by ~15-30% with a faster ordering pass as well.
_EDGE_DIFF_WEIGHT = 4
#: ``order_strategy="auto"`` picks contraction only when the mean out-degree
#: is at most this.  Contraction hierarchies exploit the low-degree, highly
#: hierarchical structure of road networks (metro grids sit near degree 4);
#: on dense graphs the shrinking core densifies quadratically and witness
#: searches dominate — there the sampled-betweenness ordering with the
#: pruned-Dijkstra builder is several times faster.
_CONTRACTION_MAX_AVG_DEGREE = 5.0
#: Bound on the entries one vectorised step of the level-by-level label
#: derivation holds: a level's nodes are merged in chunks of at most this
#: many candidates, and certified in chunks of at most this many gathered
#: opposite-label entries (a single oversized node or candidate still goes
#: through alone), so no temporary scales with a level's width times ``n``.
_LEVEL_CHUNK_ENTRIES = 1 << 16
#: The integers :attr:`HubLabelIndex.build_work` reports for one build.
BUILD_WORK_COUNTERS = ("witness_searches", "witness_settles", "shortcuts",
                       "levels")


class HubLabelIndex:
    """Exact 2-hop-cover distance index over a :class:`RoadNetwork`.

    Parameters
    ----------
    network:
        The road network to index.  Only the static effective weights
        (``base_time * per-edge multiplier``) are used.
    order:
        Optional explicit hub processing order (node ids, most important
        first).  Overrides ``order_strategy``.
    order_strategy:
        ``"auto"`` (default) picks ``"contraction"`` on sparse road-like
        graphs (mean out-degree at most
        :data:`_CONTRACTION_MAX_AVG_DEGREE`) and ``"betweenness"`` on
        dense ones, where contraction cores densify.  ``"contraction"``
        ranks nodes by reverse simulated-contraction order;
        ``"betweenness"`` keeps the sampled Brandes ordering of earlier
        revisions.  The strategy only affects label sizes and build time,
        never query exactness.
    _csr_pair:
        Private: build on this ``(csr, reverse csr)`` pair — typically
        :meth:`~repro.network.graph.CSRAdjacency.frozen_copy` weights of an
        earlier traffic state — instead of the network's live adjacency.
    """

    def __init__(self, network: RoadNetwork, order: Sequence[int] | None = None,
                 order_strategy: str = "auto", *, _csr_pair=None) -> None:
        self._network = network
        csr = network.csr() if _csr_pair is None else _csr_pair[0]
        self._index_of = csr.index_of
        self._num_nodes = csr.num_nodes
        self._identity_ids = csr.node_ids == list(range(csr.num_nodes))
        #: what this build did: contraction witness searches and the nodes
        #: they settled, shortcuts inserted, hierarchy levels derived
        self.build_work = dict.fromkeys(BUILD_WORK_COUNTERS, 0)
        with current_tracer().span("hub_labels.build"):
            hierarchy = None
            if order is None:
                if order_strategy == "auto":
                    avg_degree = (csr.indptr_list[csr.num_nodes] / csr.num_nodes
                                  if csr.num_nodes else 0.0)
                    order_strategy = ("contraction"
                                      if avg_degree <= _CONTRACTION_MAX_AVG_DEGREE
                                      else "betweenness")
                if order_strategy == "contraction":
                    order_idx, up_out, up_in, work = self._contract(csr)
                    self.build_work.update(work)
                    ids = csr.node_ids
                    order = [ids[u] for u in order_idx]
                    hierarchy = (order_idx, up_out, up_in)
                elif order_strategy == "betweenness":
                    order = self._betweenness_order(csr)
                else:
                    raise ValueError(
                        f"unknown order_strategy {order_strategy!r}; "
                        f"expected 'auto', 'contraction' or 'betweenness'")
            self._order = list(order)
            # Rank of every node index (used by incremental repair); only a
            # complete order ranks every node, which repair requires.
            self._rank_of: dict[int, int] = {
                self._index_of[hub_id]: rank for rank, hub_id in enumerate(self._order)
                if hub_id in self._index_of}
            if hierarchy is not None:
                self.build_work["levels"] = self._build_from_hierarchy(*hierarchy)
            else:
                self._build(csr, network.csr(reverse=True) if _csr_pair is None
                            else _csr_pair[1])

    # ------------------------------------------------------------------ #
    # hub ordering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _contract(csr) -> tuple[list[int],
                                list[list[tuple[int, float]]],
                                list[list[tuple[int, float]]],
                                dict[str, int]]:
        """Simulated directed contraction (CH style).

        Returns ``(order, up_out, up_in, work)`` where ``order`` lists node
        *indices* most-important-first (reverse contraction order) and
        ``up_out[u]`` / ``up_in[u]`` are the upward out-/in-edges of ``u`` —
        its remaining core edges (original or shortcut, ``(index, weight)``)
        toward later-contracted, i.e. higher-ranked, neighbours, recorded at
        the moment ``u`` was contracted.  Together they form the upward
        search graph :meth:`_build_from_hierarchy` derives labels from,
        and ``work`` counts the witness searches, the nodes they settled and
        the shortcuts inserted (new edges or tightened ones).

        Nodes are contracted cheapest-first by the classic
        ``edge_difference + deleted_neighbours`` priority plus a hierarchy-
        depth term, with lazily updated heap entries; a contraction inserts
        the directed shortcuts whose endpoint pairs have no witness path
        avoiding the contracted node (witness Dijkstra capped at
        :data:`_WITNESS_SETTLE_CAP` settled nodes).  Every shortcut weight
        is a genuine path length, so a capped (aborted) witness search only
        ever adds a redundant-but-sound shortcut.
        """
        n = csr.num_nodes
        indptr = csr.indptr_list
        indices = csr.indices_list
        weights = csr.weights_list
        adj_out: list[dict[int, float]] = [{} for _ in range(n)]
        adj_in: list[dict[int, float]] = [{} for _ in range(n)]
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                w = weights[j]
                if v == u or w == INFINITY:
                    continue
                old = adj_out[u].get(v)
                if old is None or w < old:
                    adj_out[u][v] = w
                    adj_in[v][u] = w
        # Reusable witness-search state: stamped buffers over the shared
        # ``adj_out`` dicts, which shortcut insertion and node removal below
        # update in place.
        workspace = _kernels.ContractionWorkspace(n, adj_out)
        deleted = [0] * n
        level = [0] * n

        def evaluate(u: int) -> tuple[int, list[tuple[int, int, float]]]:
            """Priority of contracting ``u`` plus the shortcuts it needs."""
            in_nbrs = sorted(adj_in[u].items())
            out_nbrs = sorted(adj_out[u].items())
            deg = len(adj_in[u].keys() | adj_out[u].keys())
            base = deleted[u] + level[u]
            if not in_nbrs or not out_nbrs:
                return base - _EDGE_DIFF_WEIGHT * deg, []
            shortcuts: list[tuple[int, int, float]] = []
            # Edge difference counts unordered endpoint *pairs* so symmetric
            # graphs score exactly like an undirected contraction would.
            pairs: set[tuple[int, int]] = set()
            if deg > _WITNESS_DEGREE_CAP:
                # Too dense for witness searches: pessimistically shortcut
                # every pair.  Such nodes sink to the end of the contraction
                # order (= top of the hub hierarchy) regardless.
                for a, wa in in_nbrs:
                    for b, wb in out_nbrs:
                        if a != b:
                            shortcuts.append((a, b, wa + wb))
                            pairs.add((a, b) if a < b else (b, a))
                return _EDGE_DIFF_WEIGHT * (len(pairs) - deg) + base, shortcuts
            for a, wa in in_nbrs:
                tgt_nodes: list[int] = []
                tgt_vias: list[float] = []
                for b, wb in out_nbrs:
                    if b != a:
                        tgt_nodes.append(b)
                        tgt_vias.append(wa + wb)
                if not tgt_nodes:
                    continue
                cutoff = max(tgt_vias) + 1e-12
                # Witness Dijkstra from `a` avoiding `u` (bounded-Dijkstra
                # kernel over the shared workspace; its `found` matches the
                # historical per-call dict search run to `cutoff` exactly).
                found = workspace.witness(a, u, tgt_nodes, tgt_vias, cutoff,
                                          _WITNESS_SETTLE_CAP)
                for i, b in enumerate(tgt_nodes):
                    if not found[i]:
                        shortcuts.append((a, b, tgt_vias[i]))
                        pairs.add((a, b) if a < b else (b, a))
            return _EDGE_DIFF_WEIGHT * (len(pairs) - deg) + base, shortcuts

        heap: list[tuple[int, int]] = []
        for u in range(n):
            prio, _ = evaluate(u)
            heap.append((prio, u))
        heapq.heapify(heap)
        contracted = [False] * n
        order_rev: list[int] = []
        up_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        up_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        inserted = 0
        while heap:
            _, u = heapq.heappop(heap)
            if contracted[u]:
                continue
            # Shortcuts MUST be computed at contraction time: a witness path
            # found by an earlier evaluation may route through nodes far
            # outside u's neighbourhood that have since been contracted, so
            # cached shortcut lists (however cleverly invalidated by local
            # neighbourhood stamps) go silently stale and break the
            # hierarchy's distance cover.
            prio, shortcuts = evaluate(u)
            # Lazy update: if u is no longer the cheapest, reinsert with its
            # fresh priority and try the new top.
            if heap and (prio, u) > heap[0]:
                heapq.heappush(heap, (prio, u))
                continue
            for a, b, w in shortcuts:
                old = adj_out[a].get(b)
                if old is None or w < old:
                    adj_out[a][b] = w
                    adj_in[b][a] = w
                    inserted += 1
            up_out[u] = sorted(adj_out[u].items())
            up_in[u] = sorted(adj_in[u].items())
            for v in adj_in[u].keys() | adj_out[u].keys():
                deleted[v] += 1
                if level[u] + 1 > level[v]:
                    level[v] = level[u] + 1
            for v in adj_out[u]:
                del adj_in[v][u]
            for v in adj_in[u]:
                del adj_out[v][u]
            adj_out[u].clear()
            adj_in[u].clear()
            contracted[u] = True
            order_rev.append(u)
        work = {"witness_searches": workspace.searches,
                "witness_settles": workspace.settles, "shortcuts": inserted}
        return list(reversed(order_rev)), up_out, up_in, work

    @staticmethod
    def _betweenness_order(csr) -> list[int]:
        """Process the highest-betweenness nodes first (sampled Brandes).

        The pre-contraction default ordering, kept selectable so the
        city-scale benchmark can A/B the orderings through identical build
        machinery.  An exact Brandes dependency accumulation from a handful
        of deterministic sample sources ranks nodes by how many shortest
        paths they carry.
        """
        n = csr.num_nodes
        if n == 0:
            return []
        score = [0.0] * n
        samples = range(0, n, max(1, n // 16))
        indptr = csr.indptr_list
        indices = csr.indices_list
        weights = csr.weights_list
        for s in samples:
            dist = [INFINITY] * n
            sigma = [0.0] * n
            preds: list[list[int]] = [[] for _ in range(n)]
            seen = [False] * n
            dist[s] = 0.0
            sigma[s] = 1.0
            heap: list[tuple[float, int]] = [(0.0, s)]
            order: list[int] = []
            while heap:
                d, u = heapq.heappop(heap)
                if seen[u]:
                    continue
                seen[u] = True
                order.append(u)
                for j in range(indptr[u], indptr[u + 1]):
                    v = indices[j]
                    nd = d + weights[j]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        sigma[v] = sigma[u]
                        preds[v] = [u]
                        heapq.heappush(heap, (nd, v))
                    elif abs(nd - dist[v]) <= 1e-12 and not seen[v]:
                        sigma[v] += sigma[u]
                        preds[v].append(u)
            delta = [0.0] * n
            for v in reversed(order):
                coeff = (1.0 + delta[v]) / sigma[v] if sigma[v] else 0.0
                for u in preds[v]:
                    delta[u] += sigma[u] * coeff
                if v != s:
                    score[v] += delta[v]
        ids = csr.node_ids
        return [ids[i] for i in sorted(range(n), key=lambda i: -score[i])]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, csr, rcsr) -> None:
        """Pruned-Dijkstra build (betweenness / explicit orders).

        The sweep itself — one forward and one backward pruned search per
        hub plus the flatten — lives in :func:`repro.network.kernels
        .pruned_labeling`.
        """
        index_of = self._index_of
        order_idx = [index_of[hub_id] for hub_id in self._order]
        (self._out_indptr, self._out_rank_arr, self._out_dist_arr,
         self._in_indptr, self._in_rank_arr, self._in_dist_arr) = \
            _kernels.pruned_labeling(csr, rcsr, order_idx)
        self._patches_out: dict[int, tuple[list[int], list[float]]] = {}
        self._patches_in: dict[int, tuple[list[int], list[float]]] = {}
        self._dirty = False
        self._arange_buf = np.empty(0, dtype=np.int64)

    def _build_from_hierarchy(self, order_idx: list[int],
                              up_out: list[list[tuple[int, float]]],
                              up_in: list[list[tuple[int, float]]]) -> int:
        """Derive the labels top-down from the contraction hierarchy.

        A node's candidate out-label is its own entry plus the weight-shifted
        merge of the out-labels of its upward out-neighbours (all
        higher-ranked); ``min`` per hub is taken during the merge.  A
        candidate ``(h, d)`` then survives the CH distance check only if no
        pair of entries certifies ``d(u, x) + d(x, h) <= d`` through a
        strictly higher-ranked hub ``x`` — for every candidate at once, with
        one gather of ``h``'s in-label + segmented ``minimum.reduceat``.
        In-labels are symmetric (upward in-edges, opposite-side labels).

        Work goes one hierarchy *level* at a time: a node's level is one
        more than the highest level among its upward out- and in-neighbours
        (0 with none).  Everything a node reads — its upward neighbours'
        labels and the opposite-side labels of its candidate hubs — belongs
        to a strict ancestor in the upward graph, hence to a lower level, so
        the nodes of one level are independent and each level is derived
        in one vectorised pass per side, in chunks of nodes (and of
        candidates, for the check) that keep every temporary under
        :data:`_LEVEL_CHUNK_ENTRIES` entries.  Each node sees the same float
        sums, the same stable ``(rank, distance)`` order and the same
        ``q > d + 1e-12`` test as a node-by-node derivation, so the arrays
        are bit-identical to one.  Returns the number of levels.

        Exactness does not depend on witness quality: every candidate
        distance is a genuine path length, and for any pair the peak hub of
        an up-down shortest path survives the check in both endpoint labels
        with its exact distance.  Redundant shortcuts from capped witness
        searches only enlarge the merge input, never the pruned output.
        """
        n = self._num_nodes
        node_of_rank = np.asarray(order_idx, dtype=np.int64)
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[node_of_rank] = np.arange(n, dtype=np.int64)
        level = [0] * n
        for u in order_idx:
            top = -1
            for v, _ in up_out[u]:
                top = max(top, level[v])
            for v, _ in up_in[u]:
                top = max(top, level[v])
            level[u] = top + 1
        levels = max(level) + 1 if n else 0
        by_level = np.argsort(np.asarray(level, dtype=np.int64), kind="stable")
        level_ends = np.cumsum(np.bincount(level, minlength=levels))
        out_labels = _LabelStore(n)
        in_labels = _LabelStore(n)
        out_edges = _upward_arrays(up_out)
        in_edges = _upward_arrays(up_in)
        for lv in range(levels):
            nodes = by_level[level_ends[lv - 1] if lv else 0:level_ends[lv]]
            _derive_level(nodes, rank_of, node_of_rank, out_edges,
                          out_labels, in_labels)
            _derive_level(nodes, rank_of, node_of_rank, in_edges,
                          in_labels, out_labels)
        self._out_indptr, self._out_rank_arr, self._out_dist_arr = \
            out_labels.flatten()
        self._in_indptr, self._in_rank_arr, self._in_dist_arr = \
            in_labels.flatten()
        self._patches_out: dict[int, tuple[list[int], list[float]]] = {}
        self._patches_in: dict[int, tuple[list[int], list[float]]] = {}
        self._dirty = False
        self._arange_buf = np.empty(0, dtype=np.int64)
        return levels

    @property
    def hub_order(self) -> list[int]:
        """The hub processing order (node ids, most important first)."""
        return list(self._order)

    # ------------------------------------------------------------------ #
    # label access (overlay-or-array)
    # ------------------------------------------------------------------ #
    def _out_label(self, idx: int) -> tuple[list[int], list[float]]:
        patch = self._patches_out.get(idx)
        if patch is not None:
            return patch
        lo = self._out_indptr[idx]
        hi = self._out_indptr[idx + 1]
        return self._out_rank_arr[lo:hi].tolist(), self._out_dist_arr[lo:hi].tolist()

    def _in_label(self, idx: int) -> tuple[list[int], list[float]]:
        patch = self._patches_in.get(idx)
        if patch is not None:
            return patch
        lo = self._in_indptr[idx]
        hi = self._in_indptr[idx + 1]
        return self._in_rank_arr[lo:hi].tolist(), self._in_dist_arr[lo:hi].tolist()

    def _ensure_arrays(self) -> None:
        """Merge repair overlays into fresh flat arrays (if any are pending).

        Existing arrays are never mutated — snapshots keep their exact
        contents — and unpatched spans are copied in
        bulk, so a merge is O(total entries) numpy work plus O(patched
        nodes) Python work.
        """
        if not self._dirty:
            return
        if self._patches_out:
            self._out_indptr, self._out_rank_arr, self._out_dist_arr = \
                self._merge_patches(self._out_indptr, self._out_rank_arr,
                                    self._out_dist_arr, self._patches_out)
            self._patches_out = {}
        if self._patches_in:
            self._in_indptr, self._in_rank_arr, self._in_dist_arr = \
                self._merge_patches(self._in_indptr, self._in_rank_arr,
                                    self._in_dist_arr, self._patches_in)
            self._patches_in = {}
        self._dirty = False

    def _merge_patches(self, indptr: np.ndarray, rank_arr: np.ndarray,
                       dist_arr: np.ndarray,
                       patches: dict[int, tuple[list[int], list[float]]]):
        n = self._num_nodes
        lens = np.diff(indptr[:n + 1])
        for idx, (p_ranks, _) in patches.items():
            lens[idx] = len(p_ranks)
        new_indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(lens, out=new_indptr[1:n + 1])
        new_indptr[n + 1] = new_indptr[n]
        total = int(new_indptr[n])
        new_ranks = np.empty(total, dtype=np.int64)
        new_dists = np.empty(total, dtype=np.float64)
        prev = 0
        dst = 0
        for idx in sorted(patches):
            # Bulk-copy the unpatched span [prev, idx), then the patch.
            src_lo = int(indptr[prev])
            src_hi = int(indptr[idx])
            span = src_hi - src_lo
            new_ranks[dst:dst + span] = rank_arr[src_lo:src_hi]
            new_dists[dst:dst + span] = dist_arr[src_lo:src_hi]
            dst += span
            p_ranks, p_dists = patches[idx]
            nxt = dst + len(p_ranks)
            new_ranks[dst:nxt] = p_ranks
            new_dists[dst:nxt] = p_dists
            dst = nxt
            prev = idx + 1
        src_lo = int(indptr[prev])
        src_hi = int(indptr[n])
        span = src_hi - src_lo
        new_ranks[dst:dst + span] = rank_arr[src_lo:src_hi]
        new_dists[dst:dst + span] = dist_arr[src_lo:src_hi]
        return new_indptr, new_ranks, new_dists

    def _arange(self, total: int) -> np.ndarray:
        """A cached ``arange(total)`` view (grown on demand)."""
        if total > len(self._arange_buf):
            self._arange_buf = np.arange(total, dtype=np.int64)
        return self._arange_buf[:total]

    # ------------------------------------------------------------------ #
    # incremental repair
    # ------------------------------------------------------------------ #
    @property
    def can_repair(self) -> bool:
        """Whether :meth:`repair` is available (every node must hold a rank)."""
        return len(self._rank_of) == self._num_nodes

    def repair(self, affected_out: Iterable[int], affected_in: Iterable[int],
               *, _csr_pair=None) -> int:
        """Repair the index after a weight-only network mutation.

        ``affected_out`` are the node ids whose *outgoing* distances may have
        changed, ``affected_in`` those whose *incoming* distances may have
        changed (see :meth:`DistanceOracle.apply_traffic_updates
        <repro.network.distance_oracle.DistanceOracle.apply_traffic_updates>`
        for how these sets are derived from the mutated edges).  Only the
        labels of affected nodes are rebuilt — one plain CSR Dijkstra each
        plus a *pruned* label re-selection — and every other label is kept
        verbatim.

        All SSSPs run first; the re-selection then walks each one's settled
        nodes in increasing hub rank, keeping candidate hub ``h`` only when
        no already-kept hub ``r`` certifies ``d(v, r) + d(r, h) <= d(v, h)``
        with *exact current* distances.  For a candidate whose opposite-side
        label is fresh, ``d(r, h)`` is read off that label; for a candidate
        whose node is itself in the other affected set (its stored label is
        stale) the same quantity comes from that node's own fresh SSSP,
        which ran up front.  Earlier revisions force-included every stale
        candidate instead, which inflated repaired out-labels well past
        freshly built ones; with exact-distance certificates the repaired
        labels are the canonical pruned ones.

        The repaired index answers every query exactly:

        * every stored entry is a true distance (repaired entries come
          straight from a fresh SSSP; untouched labels belong to nodes whose
          distances did not change), so no query can underestimate;
        * the 2-hop cover survives because a pruned candidate is never the
          highest-ranked midpoint of any pair: a certificate
          ``d(v, r) + d(r, h) <= d(v, h)`` places the higher-ranked ``r`` on
          a shortest path of every pair that runs through ``h``, so for each
          pair the top-ranked midpoint — the hub the standard 2-hop cover
          argument relies on — survives in both endpoint labels.

        The searches run on the network's live weights unless the private
        ``_csr_pair`` names frozen ones (a repair the distance oracle
        deferred past later updates).  Returns the number of labels rebuilt.
        """
        if not self.can_repair:
            raise ValueError("repair requires a complete hub order; rebuild instead")
        with current_tracer().span("hub_labels.repair"):
            # Merge any overlays from an earlier repair first: the label
            # values read below are identical either way (overlay contents
            # equal their merged slices), but it makes the flat arrays
            # authoritative.
            self._ensure_arrays()
            csr, rcsr = _csr_pair or (self._network.csr(),
                                      self._network.csr(reverse=True))
            rank_of = self._rank_of
            affected_out_idx = [idx for node in affected_out
                                if (idx := self._index_of.get(node)) is not None]
            affected_in_idx = [idx for node in affected_in
                               if (idx := self._index_of.get(node)) is not None]
            # Every SSSP runs before any re-selection so that a stale
            # candidate's certificate distances can be read from its own
            # fresh search.
            fwd = {idx: _csr_sssp(csr, idx) for idx in affected_out_idx}
            rev = {idx: _csr_sssp(rcsr, idx) for idx in affected_in_idx}
            idx_of_rank = [0] * self._num_nodes
            for i, r in rank_of.items():
                idx_of_rank[r] = i
            scratch = [INFINITY] * self._num_nodes
            repaired = 0
            for idx in affected_out_idx:
                self._patches_out[idx] = self._pruned_label(
                    fwd[idx], rank_of, self._in_label, rev, idx_of_rank,
                    scratch)
                repaired += 1
            for idx in affected_in_idx:
                self._patches_in[idx] = self._pruned_label(
                    rev[idx], rank_of, self._out_label, fwd, idx_of_rank,
                    scratch)
                repaired += 1
            if repaired:
                self._dirty = True
            return repaired

    @staticmethod
    def _pruned_label(sssp: dict[int, float], rank_of: dict[int, int],
                      opposite_label, fresh_opposite: dict[int, dict[int, float]],
                      idx_of_rank: list[int], scratch: list[float],
                      ) -> tuple[list[int], list[float]]:
        """Select a pruned hub label from one SSSP's settled distances.

        Candidates are visited in increasing hub rank; ``scratch`` densely
        holds the distances of hubs kept so far (reset before returning).
        A candidate ``h`` at distance ``d`` is pruned when some kept hub
        ``r`` satisfies ``scratch[r] + d(r, h) <= d``.  When ``h``'s node
        has a fresh opposite-direction SSSP in ``fresh_opposite`` (it is in
        the other affected set, so its stored label is stale), ``d(r, h)``
        is looked up there against each kept hub; otherwise it is read from
        ``h``'s opposite-side label, whose distances are still current.
        Kept-hub ranks are all smaller than the candidate's, so the label
        scan early-exits at the candidate's own rank.
        """
        candidates = sorted((rank_of[i], i, d) for i, d in sssp.items())
        ranks: list[int] = []
        dists: list[float] = []
        for rank, i, d in candidates:
            if not dists:
                # Nothing kept yet, so nothing can prune this candidate.
                ranks.append(rank)
                dists.append(d)
                scratch[rank] = d
                continue
            pruned = False
            fresh = fresh_opposite.get(i)
            cutoff = d + 1e-12
            if fresh is not None:
                for r, dv in zip(ranks, dists):
                    dh = fresh.get(idx_of_rank[r])
                    if dh is not None and dv + dh <= cutoff:
                        pruned = True
                        break
            else:
                opp_ranks, opp_dists = opposite_label(i)
                for r, dh in zip(opp_ranks, opp_dists):
                    if r >= rank:
                        break
                    if scratch[r] + dh <= cutoff:
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

    # ------------------------------------------------------------------ #
    # label snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_labels(self):
        """O(1) copy of the complete label state (for later restore).

        The flat arrays are captured by reference — they are immutable
        (repairs write overlays, merges allocate fresh arrays) — so a
        snapshot costs six references plus a shallow copy of the (typically
        empty) patch overlays.  The hub order is included so a snapshot can be restored
        onto an index that was since rebuilt under a different
        (override-laden) weight configuration.
        """
        return (self._order, self._rank_of,
                (self._out_indptr, self._out_rank_arr, self._out_dist_arr,
                 self._in_indptr, self._in_rank_arr, self._in_dist_arr),
                dict(self._patches_out), dict(self._patches_in))

    def restore_labels(self, snapshot) -> None:
        """Restore a :meth:`snapshot_labels` state bit-for-bit.

        Reinstates the exact array objects the snapshot captured, so a
        restored index answers every query with the exact floats of the
        index the snapshot was taken from — at O(1) cost.
        """
        order, rank_of, arrays, patches_out, patches_in = snapshot
        self._order = order
        self._rank_of = dict(rank_of)
        (self._out_indptr, self._out_rank_arr, self._out_dist_arr,
         self._in_indptr, self._in_rank_arr, self._in_dist_arr) = arrays
        self._patches_out = dict(patches_out)
        self._patches_in = dict(patches_in)
        self._dirty = bool(self._patches_out or self._patches_in)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, source: int, target: int) -> float:
        """Static shortest-path distance from ``source`` to ``target``.

        Returns ``math.inf`` when the two nodes share no hub (unreachable).
        """
        if source == target:
            return 0.0
        s = self._index_of.get(source)
        t = self._index_of.get(target)
        if s is None or t is None:
            return INFINITY
        a_r, a_d = self._out_label(s)
        b_r, b_d = self._in_label(t)
        i = j = 0
        la = len(a_r)
        lb = len(b_r)
        best = INFINITY
        # Merge-join over the two rank-sorted label lists.
        while i < la and j < lb:
            ra = a_r[i]
            rb = b_r[j]
            if ra == rb:
                cand = a_d[i] + b_d[j]
                if cand < best:
                    best = cand
                i += 1
                j += 1
            elif ra < rb:
                i += 1
            else:
                j += 1
        return best

    def _to_indices(self, nodes: Sequence[int]) -> np.ndarray:
        """Map node ids to label indices; unknown ids map to the empty-label
        sentinel index ``num_nodes`` (their distances resolve to infinity)."""
        n = self._num_nodes
        if self._identity_ids:
            arr = np.asarray(nodes, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                arr = np.where((arr < 0) | (arr >= n), n, arr)
            return arr
        index_of = self._index_of
        return np.fromiter((index_of.get(node, n) for node in nodes),
                           dtype=np.int64, count=len(nodes))

    #: Cap on the dense per-source scatter matrix used by query_many
    #: (unique sources per chunk * num_nodes floats).
    _DENSE_BLOCK_ENTRIES = 4_000_000

    def query_many(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Vectorised static distances for paired ``(sources[i], targets[i])``.

        Pairs are grouped by source; the out-labels of every unique source in
        a block are scattered into one dense rank-indexed matrix, after which
        all pairs resolve with a single flat gather plus a segmented min —
        O(label entries touched) total, with no per-pair Python work.
        """
        if len(sources) != len(targets):
            raise ValueError("sources and targets must have equal length")
        k = len(sources)
        if k == 0:
            return np.empty(0, dtype=np.float64)
        self._ensure_arrays()
        # Self-pairs are identified by original ids (distinct unknown nodes
        # share the sentinel index and must not look like self-pairs).
        same = np.asarray(sources, dtype=np.int64) == np.asarray(targets,
                                                                 dtype=np.int64)
        src = self._to_indices(sources)
        tgt = self._to_indices(targets)
        if k > 1 and np.any(src[1:] < src[:-1]):
            order = np.argsort(src, kind="stable")
            src_s, tgt_s = src[order], tgt[order]
        else:
            order = None
            src_s, tgt_s = src, tgt
        res = np.full(k, INFINITY)
        # Unique sources (src_s is sorted) and each pair's position among them.
        new_src = np.empty(k, dtype=bool)
        new_src[0] = True
        np.not_equal(src_s[1:], src_s[:-1], out=new_src[1:])
        uniq = src_s[new_src]
        row_of_pair = np.cumsum(new_src) - 1
        n = self._num_nodes
        rows_per_block = max(1, self._DENSE_BLOCK_ENTRIES // max(1, n))
        for block_start in range(0, len(uniq), rows_per_block):
            block_uniq = uniq[block_start:block_start + rows_per_block]
            lo = np.searchsorted(row_of_pair, block_start, side="left")
            hi = np.searchsorted(row_of_pair, block_start + len(block_uniq) - 1,
                                 side="right")
            self._resolve_paired_chunk(block_uniq, row_of_pair[lo:hi] - block_start,
                              tgt_s[lo:hi], res[lo:hi])
        if order is not None:
            unsorted = np.empty(k, dtype=np.float64)
            unsorted[order] = res
            res = unsorted
        res[same] = 0.0
        return res

    def query_block(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Static distance matrix for the cross product ``sources x targets``.

        This is the natural shape of the FoodGraph first-mile checks (every
        vehicle against every batch start node) and admits a layout the
        paired API cannot use: the targets' in-labels scatter into one dense
        ``(rank, target)`` matrix, after which each source resolves with a
        contiguous *row* gather and a single segmented minimum — all SIMD
        passes, no per-pair index arithmetic at all.
        """
        self._ensure_arrays()
        src = self._to_indices(sources)
        tgt = self._to_indices(targets)
        num_s, num_t = len(src), len(tgt)
        if num_s == 0 or num_t == 0:
            return np.full((num_s, num_t), INFINITY)
        out = np.full((num_s, num_t), INFINITY)
        n = self._num_nodes
        # Chunk the target dimension so the dense (rank, target) scatter
        # matrix never exceeds ~_DENSE_BLOCK_ENTRIES floats on large
        # cities.
        t_chunk = max(1, self._DENSE_BLOCK_ENTRIES // max(1, n))
        for t_lo in range(0, num_t, t_chunk):
            self._query_block_chunk(src, tgt[t_lo:t_lo + t_chunk],
                                    out[:, t_lo:t_lo + t_chunk])
        # Self-pairs by original id (unknown nodes share a sentinel index).
        orig_src = np.asarray(sources, dtype=np.int64)
        orig_tgt = np.asarray(targets, dtype=np.int64)
        out[orig_src[:, None] == orig_tgt[None, :]] = 0.0
        return out

    def _query_block_chunk(self, src: np.ndarray, tgt: np.ndarray,
                           out: np.ndarray) -> None:
        """Resolve one target-chunk of the cross product; writes into ``out``."""
        n = self._num_nodes
        num_t = len(tgt)
        # Dense in-label matrix B[rank, target_column].
        dense = np.full((n, num_t), INFINITY)
        i_starts = self._in_indptr[tgt]
        i_lens = self._in_indptr[tgt + 1] - i_starts
        total = int(i_lens.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(i_lens)[:-1]))
            flat = np.repeat(i_starts - offsets, i_lens)
            flat += self._arange(total)
            cols = np.repeat(np.arange(num_t, dtype=np.int64), i_lens)
            dense[self._in_rank_arr[flat], cols] = self._in_dist_arr[flat]
        o_starts = self._out_indptr[src]
        o_lens = self._out_indptr[src + 1] - o_starts
        total = int(o_lens.sum())
        if not total:
            return
        # Chunk the row-gather scratch the same way.
        rows_per_chunk = max(1, (self._DENSE_BLOCK_ENTRIES // max(1, num_t))
                             // max(1, int(o_lens.max())))
        nonempty = np.flatnonzero(o_lens)
        start = 0
        while start < len(nonempty):
            chunk = nonempty[start:start + rows_per_chunk]
            start += len(chunk)
            c_starts = o_starts[chunk]
            c_lens = o_lens[chunk]
            c_total = int(c_lens.sum())
            offsets = np.concatenate(([0], np.cumsum(c_lens)[:-1]))
            flat = np.repeat(c_starts - offsets, c_lens)
            flat += self._arange(c_total)
            rows = dense[self._out_rank_arr[flat]]
            rows += self._out_dist_arr[flat][:, None]
            out[chunk] = np.minimum.reduceat(rows, offsets, axis=0)

    def _resolve_paired_chunk(self, uniq: np.ndarray, row_of_pair: np.ndarray,
                     tgt: np.ndarray, out: np.ndarray) -> None:
        """Resolve one block of source-grouped pairs; writes into ``out``."""
        n = self._num_nodes
        dense = np.full(len(uniq) * n, INFINITY)
        o_starts = self._out_indptr[uniq]
        o_lens = self._out_indptr[uniq + 1] - o_starts
        total = int(o_lens.sum())
        if total:
            offsets = np.concatenate(([0], np.cumsum(o_lens)[:-1]))
            flat = np.repeat(o_starts - offsets, o_lens)
            flat += self._arange(total)
            row_base = np.repeat(np.arange(len(uniq), dtype=np.int64) * n, o_lens)
            dense[row_base + self._out_rank_arr[flat]] = self._out_dist_arr[flat]
        i_starts = self._in_indptr[tgt]
        i_lens = self._in_indptr[tgt + 1] - i_starts
        total = int(i_lens.sum())
        if not total:
            return
        nonempty = i_lens > 0
        ne_starts = i_starts[nonempty]
        ne_lens = i_lens[nonempty]
        offsets = np.concatenate(([0], np.cumsum(ne_lens)[:-1]))
        flat = np.repeat(ne_starts - offsets, ne_lens)
        flat += self._arange(total)
        idx = self._in_rank_arr[flat]
        idx += np.repeat(row_of_pair[nonempty] * n, ne_lens)
        vals = dense[idx]
        vals += self._in_dist_arr[flat]
        out[np.flatnonzero(nonempty)] = np.minimum.reduceat(vals, offsets)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    @property
    def average_label_size(self) -> float:
        """Mean number of (out + in) label entries per node."""
        if self._num_nodes == 0:
            return 0.0
        return self.total_label_entries / self._num_nodes

    @property
    def total_label_entries(self) -> int:
        """Total number of label entries stored by the index."""
        self._ensure_arrays()
        return int(self._out_indptr[-1]) + int(self._in_indptr[-1])

    @property
    def label_bytes(self) -> int:
        """Resident bytes of the label arrays (plus any pending overlays)."""
        self._ensure_arrays()
        return sum(arr.nbytes for arr in (
            self._out_indptr, self._out_rank_arr, self._out_dist_arr,
            self._in_indptr, self._in_rank_arr, self._in_dist_arr))

    def memory_info(self) -> dict[str, int]:
        """Label footprint: entry count and resident bytes."""
        return {"entries": self.total_label_entries, "bytes": self.label_bytes}


# --------------------------------------------------------------------------- #
# level-synchronous label derivation (see HubLabelIndex._build_from_hierarchy)
# --------------------------------------------------------------------------- #
def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + lens[i])`` ranges."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64)


def _chunks(weights: np.ndarray):
    """Split ``range(len(weights))`` into consecutive slices whose weight
    sums stay under :data:`_LEVEL_CHUNK_ENTRIES` (one item at least)."""
    cum = np.cumsum(weights)
    lo = 0
    while lo < len(cum):
        base = int(cum[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _LEVEL_CHUNK_ENTRIES,
                                             side="right")))
        yield slice(lo, hi)
        lo = hi


def _upward_arrays(up: list[list[tuple[int, float]]]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upward edges as CSR arrays ``(indptr, targets, weights)``."""
    indptr = np.zeros(len(up) + 1, dtype=np.int64)
    np.cumsum([len(edges) for edges in up], out=indptr[1:])
    total = int(indptr[-1])
    targets = np.fromiter((v for edges in up for v, _ in edges),
                          dtype=np.int64, count=total)
    weights = np.fromiter((w for edges in up for _, w in edges),
                          dtype=np.float64, count=total)
    return indptr, targets, weights


class _LabelStore:
    """One side's labels, appended level by level to growing flat arrays."""

    def __init__(self, n: int) -> None:
        self.start = np.zeros(n, dtype=np.int64)
        self.size = np.zeros(n, dtype=np.int64)
        self.ranks = np.empty(4 * n + 16, dtype=np.int64)
        self.dists = np.empty(4 * n + 16, dtype=np.float64)
        self.fill = 0

    def entries(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of ``nodes``' labels, and each label's length."""
        lens = self.size[nodes]
        return _ranges(self.start[nodes], lens), lens

    def append(self, nodes: np.ndarray, sizes: np.ndarray,
               ranks: np.ndarray, dists: np.ndarray) -> None:
        end = self.fill + len(ranks)
        if end > len(self.ranks):
            cap = max(end, 2 * len(self.ranks))
            self.ranks = np.resize(self.ranks, cap)
            self.dists = np.resize(self.dists, cap)
        self.ranks[self.fill:end] = ranks
        self.dists[self.fill:end] = dists
        self.start[nodes] = self.fill + np.cumsum(sizes) - sizes
        self.size[nodes] = sizes
        self.fill = end

    def flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The finalized ``(indptr, ranks, dists)`` layout, in node order."""
        n = len(self.size)
        indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(self.size, out=indptr[1:n + 1])
        indptr[n + 1] = indptr[n]
        flat = _ranges(self.start, self.size)
        return indptr, self.ranks[flat], self.dists[flat]


def _derive_level(nodes: np.ndarray, rank_of: np.ndarray,
                  node_of_rank: np.ndarray, edges, labels: _LabelStore,
                  opposite: _LabelStore) -> None:
    """Derive one side's labels for every node of one hierarchy level."""
    indptr, targets, weights = edges
    e_lens = indptr[nodes + 1] - indptr[nodes]
    e_idx = _ranges(indptr[nodes], e_lens)
    # Candidates per node: its own entry plus its upward neighbours' labels.
    cum = np.concatenate(([0], np.cumsum(labels.size[targets[e_idx]])))
    e_ends = np.cumsum(e_lens)
    weight = 1 + cum[e_ends] - cum[e_ends - e_lens]
    n = len(rank_of)
    for part in _chunks(weight):
        chunk = nodes[part]
        m = len(chunk)
        lens = e_lens[part]
        edge = _ranges(indptr[chunk], lens)
        flat, label_lens = labels.entries(targets[edge])
        own = rank_of[chunk]
        owner = np.concatenate((np.arange(m, dtype=np.int64), np.repeat(
            np.repeat(np.arange(m, dtype=np.int64), lens), label_lens)))
        cr = np.concatenate((own, labels.ranks[flat]))
        cd = np.concatenate((np.zeros(m), labels.dists[flat] + np.repeat(
            weights[edge], label_lens)))
        # Minimum per (node, hub): a stable sort keeps each node's merge
        # order among exact ties, as the node-by-node merge does.
        sel = np.lexsort((cd, cr, owner))
        owner, cr, cd = owner[sel], cr[sel], cd[sel]
        first = np.empty(len(cr), dtype=bool)
        first[0] = True
        np.not_equal(cr[1:], cr[:-1], out=first[1:])
        first[1:] |= owner[1:] != owner[:-1]
        owner, cr, cd = owner[first], cr[first], cd[first]
        # CH check of every candidate but a node's own entry: the best
        # certificate through a higher hub x of h's opposite-side label,
        # reading d(u, x) from u's candidates (sorted (node, rank) keys).
        keys = owner * n + cr
        keep = np.ones(len(cr), dtype=bool)
        cand = np.flatnonzero(cr != own[owner])
        hubs = node_of_rank[cr[cand]]
        for sub in _chunks(opposite.size[hubs]):
            c = cand[sub]
            flat, seg_lens = opposite.entries(hubs[sub])
            xs = opposite.ranks[flat]
            probe = np.repeat(owner[c] * n, seg_lens) + xs
            pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            vals = np.where(keys[pos] == probe, cd[pos], INFINITY)
            vals += opposite.dists[flat]
            # A hub's own label entry (x == h, distance 0) would trivially
            # "certify" d and delete every candidate; mask it out.
            vals[xs == np.repeat(cr[c], seg_lens)] = INFINITY
            q = np.minimum.reduceat(vals, np.cumsum(seg_lens) - seg_lens)
            keep[c] = q > cd[c] + 1e-12
        labels.append(chunk, np.bincount(owner[keep], minlength=m),
                      cr[keep], cd[keep])


__all__ = ["HubLabelIndex"]
