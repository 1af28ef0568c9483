"""Array kernel tests: the python/numpy kernels of ``repro.network.kernels``.

Each kernel is pinned on its own against an independent reference — SSSP
against the dict Dijkstra, point-to-point and path searches against SSSP,
the explorer stream against the SSSP settle order, witness searches on a
reused workspace against fresh ones, and the pruned-label build against
all-pairs distances — and the cutoff search never pushes beyond-cutoff
neighbours.

Random graphs include inf-weight severed edges and fully disconnected
nodes.  Search distances compare by ``repr`` so float sums must match to
the last bit, which is the ``result_fingerprint`` stability contract;
hub-label distances add two half-paths and compare within 1e-9.
"""

import importlib.util
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import kernels
from repro.network.graph import RoadNetwork, TimeProfile
from repro.network.hub_labeling import HubLabelIndex
from repro.network.shortest_path import (
    BestFirstExplorer,
    _csr_dijkstra_all,
    dijkstra_all_reference,
)

_HAS_NUMBA = importlib.util.find_spec("numba") is not None

INFINITY = math.inf


def random_network(seed: int, max_nodes: int = 24) -> RoadNetwork:
    """Random directed graph with severed (inf) edges and isolated nodes."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    net = RoadNetwork(TimeProfile.flat())
    for i in range(n):
        net.add_node(i, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            net.add_edge(u, v, rng.uniform(0.5, 200.0))
    edges = [(u, v) for u, v, _ in net.edges()]
    for u, v in rng.sample(edges, min(len(edges), rng.randint(0, 3))):
        net.set_edge_override(u, v, math.inf)
    return net


class TestProvenanceStamp:
    """The two names ``benchmarks/perf/run.py`` records with every run."""

    def test_kernel_backend_ignores_the_removed_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert kernels.kernel_backend() == "python"

    def test_numba_version_without_numba(self):
        version = kernels.numba_version()
        assert (version is None) == (not _HAS_NUMBA)


class TestKernelReferences:
    """The CSR kernels against the dict references, bit for bit."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_sssp_settles_in_order_and_matches_reference(self, seed):
        net = random_network(seed)
        csr = net.csr()
        src = random.Random(seed + 1).randrange(csr.num_nodes)
        nodes, dists = kernels.sssp_settled(csr, src)
        assert len(set(nodes)) == len(nodes)
        assert dists == sorted(dists)
        got = {csr.node_ids[i]: d for i, d in zip(nodes, dists, strict=True)}
        reference = dijkstra_all_reference(net, csr.node_ids[src])
        assert repr(sorted(got.items())) == repr(sorted(reference.items()))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_point_to_point_matches_settled_distance(self, seed):
        net = random_network(seed)
        csr = net.csr()
        src = random.Random(seed + 2).randrange(csr.num_nodes)
        settled = dict(zip(*kernels.sssp_settled(csr, src), strict=True))
        for dst in range(csr.num_nodes):
            assert repr(kernels.point_to_point(csr, src, dst)) == \
                repr(settled.get(dst, INFINITY))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_path_follows_finite_edges_and_sums_to_the_distance(self, seed):
        net = random_network(seed)
        csr = net.csr()
        indptr, indices = csr.indptr_list, csr.indices_list
        weights = csr.weights_list
        rng = random.Random(seed + 3)
        for _ in range(5):
            src, dst = rng.randrange(csr.num_nodes), rng.randrange(csr.num_nodes)
            distance = kernels.point_to_point(csr, src, dst)
            path = kernels.shortest_path_indices(csr, src, dst)
            if distance == INFINITY:
                assert path is None
                continue
            assert path[0] == src and path[-1] == dst
            total = 0.0
            for u, v in itertools.pairwise(path):
                hops = [weights[j] for j in range(indptr[u], indptr[u + 1])
                        if indices[j] == v]
                assert hops and min(hops) < INFINITY
                total += min(hops)
            assert repr(total) == repr(distance)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_explorer_settle_stream(self, seed):
        """The lazy explorer settles exactly what the SSSP kernel settles,
        in the same order, at the same costs (flat profile: multiplier 1)."""
        net = random_network(seed)
        csr = net.csr()
        src = random.Random(seed + 4).randrange(csr.num_nodes)
        nodes, dists = kernels.sssp_settled(csr, src)
        expected = [(csr.node_ids[i], d) for i, d in zip(nodes, dists, strict=True)]
        streamed = list(BestFirstExplorer(net, csr.node_ids[src]))
        assert repr(streamed) == repr(expected)


def _witness_calls(net):
    """A contraction-style adjacency of ``net`` and witness calls over it."""
    csr = net.csr()
    n = csr.num_nodes
    indptr, indices = csr.indptr_list, csr.indices_list
    weights = csr.weights_list
    adj_out: list[dict[int, float]] = [{} for _ in range(n)]
    adj_in: list[dict[int, float]] = [{} for _ in range(n)]
    for u in range(n):
        for j in range(indptr[u], indptr[u + 1]):
            v, w = indices[j], weights[j]
            if v != u and w != INFINITY:
                adj_out[u][v] = min(w, adj_out[u].get(v, INFINITY))
                adj_in[v][u] = adj_out[u][v]
    calls = []
    for u in range(n):
        in_nbrs = sorted(adj_in[u].items())
        out_nbrs = sorted(adj_out[u].items())
        for a, wa in in_nbrs[:2]:
            tgts = [(b, wa + wb) for b, wb in out_nbrs if b != a]
            if tgts:
                nodes, vias = zip(*tgts, strict=True)
                calls.append((a, u, list(nodes), list(vias), max(vias) + 1e-12))
    return n, adj_out, calls


class TestContractionWorkspace:
    """Witness searches over the shared, in-place-updated adjacency."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_witness_reads_the_live_adjacency(self, seed):
        """As in ``_contract``, the adjacency dicts are updated in place
        between searches; a long-lived workspace must see every update and
        answer as a fresh one would."""
        n, adj_out, calls = _witness_calls(random_network(seed))
        if not calls:
            return
        ws = kernels.ContractionWorkspace(n, adj_out)

        def both(call):
            fresh = kernels.ContractionWorkspace(n, adj_out)
            got = ws.witness(*call, 100)
            assert got == fresh.witness(*call, 100)
            return got

        for call in calls:
            both(call)
        a, u, tgts, vias, cutoff = calls[0]
        adj_out[a][tgts[0]] = vias[0] / 2  # a direct edge is a witness
        assert both(calls[0])[0]
        adj_out[a].pop(tgts[0])
        both(calls[0])
        for call in calls:
            both(call)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_work_counters_and_settle_cap(self, seed):
        n, adj_out, calls = _witness_calls(random_network(seed))
        shared = kernels.ContractionWorkspace(n, adj_out)
        capped = kernels.ContractionWorkspace(n, adj_out)
        settles = 0
        for call in calls:
            fresh = kernels.ContractionWorkspace(n, adj_out)
            found = fresh.witness(*call, 100)
            assert shared.witness(*call, 100) == found
            assert fresh.searches == 1 and 1 <= fresh.settles <= 100
            settles += fresh.settles
            # A settle cap only cuts the search short: it can lose
            # witnesses, never invent one.
            cut = capped.witness(*call, 3)
            assert all(g for f, g in zip(cut, found, strict=True) if f)
        assert shared.searches == capped.searches == len(calls)
        assert shared.settles == settles
        assert len(calls) <= capped.settles <= 3 * len(calls)


def _two_hop(indptr, ranks, dists, node):
    return dict(zip(ranks[indptr[node]:indptr[node + 1]].tolist(),
                    dists[indptr[node]:indptr[node + 1]].tolist(), strict=True))


class TestPrunedLabeling:
    """The build kernel on its own, for an arbitrary hub order."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_labels_cover_every_pair_exactly(self, seed):
        net = random_network(seed, max_nodes=16)
        csr, rcsr = net.csr(), net.csr(reverse=True)
        order = list(range(csr.num_nodes))
        random.Random(seed + 6).shuffle(order)
        out_indptr, out_ranks, out_dists, in_indptr, in_ranks, in_dists = \
            kernels.pruned_labeling(csr, rcsr, order)
        for s in range(csr.num_nodes):
            truth = dict(zip(*kernels.sssp_settled(csr, s), strict=True))
            out_label = _two_hop(out_indptr, out_ranks, out_dists, s)
            for t in range(csr.num_nodes):
                in_label = _two_hop(in_indptr, in_ranks, in_dists, t)
                got = min((d + in_label[r] for r, d in out_label.items()
                           if r in in_label), default=INFINITY)
                expect = truth.get(t, INFINITY)
                if expect == INFINITY:
                    assert got == INFINITY, (s, t)
                else:
                    assert got == pytest.approx(expect, rel=1e-9, abs=1e-9), (s, t)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_label_layout(self, seed):
        """Rank-sorted labels, each holding its own node at distance 0, and
        an empty sentinel row past the last node for unknown-node queries."""
        net = random_network(seed)
        csr, rcsr = net.csr(), net.csr(reverse=True)
        n = csr.num_nodes
        order = list(range(n))
        random.Random(seed + 7).shuffle(order)
        built = kernels.pruned_labeling(csr, rcsr, order)
        rank_of = {node: rank for rank, node in enumerate(order)}
        for indptr, ranks, dists in (built[:3], built[3:]):
            assert len(indptr) == n + 2 and indptr[n + 1] == indptr[n]
            assert ranks.dtype == np.int64 and dists.dtype == np.float64
            for node in range(n):
                row = ranks[indptr[node]:indptr[node + 1]].tolist()
                assert row == sorted(set(row))
                assert _two_hop(indptr, ranks, dists, node)[rank_of[node]] == 0.0


class TestHubLabelIndex:
    """The index the kernels feed: queries, batched queries and repair."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_build_and_batched_queries(self, seed):
        net = random_network(seed, max_nodes=18)
        csr = net.csr()
        index = HubLabelIndex(net)
        nodes = net.nodes
        rng = random.Random(seed + 8)
        srcs = [rng.choice(nodes) for _ in range(20)]
        tgts = [rng.choice(nodes) for _ in range(20)]
        for s in nodes:
            for t in nodes:
                expect = kernels.point_to_point(csr, csr.index_of[s], csr.index_of[t])
                got = index.query(s, t)
                if expect == INFINITY:
                    assert got == INFINITY, (s, t)
                else:
                    assert got == pytest.approx(expect, rel=1e-9, abs=1e-9), (s, t)
        assert repr(index.query_many(srcs, tgts).tolist()) == \
            repr([index.query(s, t) for s, t in zip(srcs, tgts, strict=True)])
        assert repr(index.query_block(srcs[:6], tgts[:6]).tolist()) == \
            repr([[index.query(s, t) for t in tgts[:6]] for s in srcs[:6]])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_repair_matches_a_fresh_build(self, seed):
        net = random_network(seed, max_nodes=18)
        index = HubLabelIndex(net)
        edges = [(u, v) for u, v, _ in net.edges()]
        if not edges or not index.can_repair:
            return
        nodes = net.nodes
        rng = random.Random(seed + 9)
        srcs = [rng.choice(nodes) for _ in range(20)]
        tgts = [rng.choice(nodes) for _ in range(20)]
        for u, v in rng.sample(edges, min(3, len(edges))):
            net.set_edge_override(u, v, rng.choice([0.5, 2.0, math.inf]))
        index.repair(set(nodes), set(nodes))
        fresh = HubLabelIndex(net)
        for s in nodes:
            for t in nodes:
                expect = fresh.query(s, t)
                got = index.query(s, t)
                if expect == INFINITY:
                    assert got == INFINITY, (s, t)
                else:
                    assert got == pytest.approx(expect, rel=1e-9, abs=1e-9), (s, t)
        repaired = index.query_many(srcs, tgts).tolist()
        assert repr(index.query_block(srcs[:6], tgts[:6]).tolist()) == \
            repr([[index.query(s, t) for t in tgts[:6]] for s in srcs[:6]])
        index.repair(set(nodes), set(nodes))  # repair-after-repair
        assert repr(index.query_many(srcs, tgts).tolist()) == repr(repaired)


class TestCutoffPushSkip:
    """The PR 10 cutoff fix: identical results, fewer heap pushes."""

    @staticmethod
    def _reference_push_all(csr, src, cutoff):
        """The pre-fix loop: beyond-cutoff neighbours were pushed anyway."""
        n = csr.num_nodes
        indptr, indices = csr.indptr_list, csr.indices_list
        weights = csr.weights_list
        import heapq
        dist = [INFINITY] * n
        dist[src] = 0.0
        seen = [False] * n
        result = {}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if seen[node]:
                continue
            if d > cutoff:
                break
            seen[node] = True
            result[node] = d
            for j in range(indptr[node], indptr[node + 1]):
                nbr = indices[j]
                nd = d + weights[j]
                if nd < dist[nbr]:
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        return result

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_cutoff_results_match_push_all_reference(self, seed):
        net = random_network(seed)
        csr = net.csr()
        rng = random.Random(seed + 5)
        src = rng.randrange(csr.num_nodes)
        cutoff = rng.uniform(0.0, 400.0)
        got = _csr_dijkstra_all(csr, src, cutoff)
        assert repr(got) == repr(self._reference_push_all(csr, src, cutoff))
        # And the cutoff run is exactly the full run truncated at cutoff.
        full = _csr_dijkstra_all(csr, src)
        expect = {k: v for k, v in full.items() if v <= cutoff}
        assert repr(got) == repr(expect)
