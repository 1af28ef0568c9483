"""Level-by-level label derivation and the early-stopping witness search.

Both speed up :class:`HubLabelIndex`'s contraction-hierarchy build without
changing one bit of its output, so both are pinned against test-local
copies of the node-by-node code they replaced:

* ``_per_node_labels`` derives the labels one node at a time, most
  important first, exactly as the build did before it went level by
  level; the six label arrays must be byte-equal to the build's.
* ``_witness_to_cutoff`` runs every witness search to its fixed
  ``cutoff``; :meth:`ContractionWorkspace.witness` must return the same
  ``found`` lists, and ``_contract`` the same order and upward graph.
"""

import heapq
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import hub_labeling, kernels
from repro.network.graph import RoadNetwork, TimeProfile
from repro.network.hub_labeling import HubLabelIndex
from repro.network.shortest_path import dijkstra_all
from repro.obs.trace import Tracer, current_tracer, use_tracer
from repro.workload.city import CITY_B, metro_profile

INFINITY = math.inf

LABEL_ARRAYS = ("_out_indptr", "_out_rank_arr", "_out_dist_arr",
                "_in_indptr", "_in_rank_arr", "_in_dist_arr")


# --------------------------------------------------------------------------- #
# test-local references
# --------------------------------------------------------------------------- #
def _per_node_labels(n, order_idx, up_out, up_in):
    """Node-by-node top-down derivation: the six label arrays."""
    rank_of = [0] * n
    for r, u in enumerate(order_idx):
        rank_of[u] = r
    out_r, out_d, in_r, in_d = ([None] * n for _ in range(4))
    by_rank_out_r, by_rank_out_d, by_rank_in_r, by_rank_in_d = (
        [None] * n for _ in range(4))
    tmp = np.full(n, INFINITY)

    def one_side(ru, up_edges, lab_r, lab_d, opp_by_rank_r, opp_by_rank_d):
        parts_r = [np.array([ru], dtype=np.int64)]
        parts_d = [np.array([0.0])]
        for v, w in up_edges:
            parts_r.append(lab_r[v])
            parts_d.append(lab_d[v] + w)
        cr = np.concatenate(parts_r)
        cd = np.concatenate(parts_d)
        if len(cr) > 1:
            sel = np.lexsort((cd, cr))
            cr = cr[sel]
            cd = cd[sel]
            keep = np.empty(len(cr), dtype=bool)
            keep[0] = True
            np.not_equal(cr[1:], cr[:-1], out=keep[1:])
            cr = cr[keep]
            cd = cd[keep]
        if len(cr) <= 1:
            return cr, cd
        tmp[cr] = cd
        self_pos = int(np.searchsorted(cr, ru))
        cand_pos = np.asarray([i for i in range(len(cr)) if i != self_pos],
                              dtype=np.int64)
        seg_r, seg_d, lengths = [], [], []
        for i in cand_pos:
            lr = opp_by_rank_r[cr[i]]
            seg_r.append(lr)
            seg_d.append(opp_by_rank_d[cr[i]])
            lengths.append(len(lr))
        all_r = np.concatenate(seg_r)
        vals = tmp[all_r] + np.concatenate(seg_d)
        lengths = np.asarray(lengths)
        vals[all_r == np.repeat(cr[cand_pos], lengths)] = INFINITY
        starts = np.zeros(len(cand_pos), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        q = np.full(len(cand_pos), INFINITY)
        nonempty = lengths > 0
        if nonempty.any():
            q[nonempty] = np.minimum.reduceat(vals, starts[nonempty])
        keep_mask = np.ones(len(cr), dtype=bool)
        keep_mask[cand_pos] = q > cd[cand_pos] + 1e-12
        tmp[cr] = INFINITY
        return cr[keep_mask], cd[keep_mask]

    for u in order_idx:
        ru = rank_of[u]
        r_arr, d_arr = one_side(ru, up_out[u], out_r, out_d,
                                by_rank_in_r, by_rank_in_d)
        out_r[u], out_d[u] = r_arr, d_arr
        by_rank_out_r[ru], by_rank_out_d[ru] = r_arr, d_arr
        r_arr, d_arr = one_side(ru, up_in[u], in_r, in_d,
                                by_rank_out_r, by_rank_out_d)
        in_r[u], in_d[u] = r_arr, d_arr
        by_rank_in_r[ru], by_rank_in_d[ru] = r_arr, d_arr

    def flatten(parts_r, parts_d):
        indptr = np.zeros(n + 2, dtype=np.int64)
        if n:
            np.cumsum([len(p) for p in parts_r], out=indptr[1:n + 1])
        indptr[n + 1] = indptr[n]
        if n:
            return indptr, np.concatenate(parts_r), np.concatenate(parts_d)
        return indptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    return (*flatten(out_r, out_d), *flatten(in_r, in_d))


def _witness_to_cutoff(adj_out, source, banned, tgt_nodes, tgt_vias, cutoff,
                       settle_cap):
    """The witness search run to its fixed ``cutoff``, with fresh state."""
    pos = {b: i for i, b in enumerate(tgt_nodes)}
    found = [False] * len(tgt_nodes)
    remaining = len(tgt_nodes)
    dist = {source: 0.0}
    seen = set()
    heap = [(0.0, source)]
    budget = settle_cap
    while heap and remaining and budget:
        d, x = heapq.heappop(heap)
        if x in seen:
            continue
        seen.add(x)
        budget -= 1
        if d > cutoff:
            break
        i = pos.get(x)
        if i is not None and not found[i] and d <= tgt_vias[i] + 1e-12:
            found[i] = True
            remaining -= 1
            if not remaining:
                break
        for y, w in adj_out[x].items():
            if y == banned or y in seen:
                continue
            nd = d + w
            if nd <= cutoff and (y not in dist or nd < dist[y]):
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return found


# --------------------------------------------------------------------------- #
# graphs
# --------------------------------------------------------------------------- #
def _random_network(rng, n, integer_weights):
    net = RoadNetwork(TimeProfile.flat())
    for i in range(n):
        net.add_node(i, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            net.add_edge(u, v, float(rng.randint(1, 3)) if integer_weights
                         else rng.uniform(0.5, 200.0))
    return net


def _random_hierarchy(rng, n, integer_weights):
    """An arbitrary upward graph: edges only toward higher-ranked nodes."""
    order_idx = list(range(n))
    rng.shuffle(order_idx)
    up_out, up_in = [[] for _ in range(n)], [[] for _ in range(n)]
    for r, u in enumerate(order_idx):
        for up in (up_out, up_in):
            higher = rng.sample(order_idx[:r], min(r, rng.randint(0, 4)))
            up[u] = sorted((v, float(rng.randint(1, 3)) if integer_weights
                            else rng.uniform(0.5, 200.0)) for v in higher)
    return order_idx, up_out, up_in


def _star_network(spokes):
    """A hub above the witness degree cap, plus a ring through its spokes."""
    net = RoadNetwork(TimeProfile.flat())
    net.add_node(0, 0.0, 0.0)
    for i in range(1, spokes + 1):
        net.add_node(i, 0.01 * math.cos(i), 0.01 * math.sin(i))
        net.add_edge(0, i, 1.0 + i % 3)
        net.add_edge(i, 0, 1.5 + i % 2)
    for i in range(1, spokes + 1):
        net.add_edge(i, i % spokes + 1, 2.0)
    return net


def _derive(n, hierarchy):
    index = HubLabelIndex.__new__(HubLabelIndex)
    index._num_nodes = n
    levels = index._build_from_hierarchy(*hierarchy)
    return tuple(getattr(index, name) for name in LABEL_ARRAYS), levels


def _assert_bit_equal(got, want):
    for name, a, b in zip(LABEL_ARRAYS, got, want, strict=True):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _contract_and_compare(net):
    csr = net.csr()
    order_idx, up_out, up_in, _ = HubLabelIndex._contract(csr)
    got, levels = _derive(csr.num_nodes, (order_idx, up_out, up_in))
    _assert_bit_equal(got, _per_node_labels(csr.num_nodes, order_idx,
                                            up_out, up_in))
    return levels


# --------------------------------------------------------------------------- #
# level-synchronous derivation == node-by-node derivation
# --------------------------------------------------------------------------- #
class TestLevelDerivation:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 30),
           integer_weights=st.booleans(),
           chunk=st.sampled_from([1, 2, 5, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_contracted_random_graphs(self, seed, n, integer_weights, chunk):
        net = _random_network(random.Random(seed), n, integer_weights)
        with mock.patch.object(hub_labeling, "_LEVEL_CHUNK_ENTRIES", chunk):
            _contract_and_compare(net)

    @given(seed=st.integers(0, 10_000), n=st.integers(0, 40),
           integer_weights=st.booleans(),
           chunk=st.sampled_from([1, 3, 8, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_upward_graphs(self, seed, n, integer_weights, chunk):
        hierarchy = _random_hierarchy(random.Random(seed), n, integer_weights)
        with mock.patch.object(hub_labeling, "_LEVEL_CHUNK_ENTRIES", chunk):
            got, levels = _derive(n, hierarchy)
        _assert_bit_equal(got, _per_node_labels(n, *hierarchy))
        assert levels <= n

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        net = RoadNetwork(TimeProfile.flat())
        for i in range(n):
            net.add_node(i, 0.0, 0.001 * i)
        if n == 2:
            net.add_edge(0, 1, 1.0)
        assert _contract_and_compare(net) == n
        index = HubLabelIndex(net)
        assert index.build_work["levels"] == n
        if n == 2:
            assert index.query(0, 1) == 1.0
            assert index.query(1, 0) == INFINITY

    def test_isolated_nodes_keep_only_their_own_entry(self):
        net = _random_network(random.Random(5), 12, integer_weights=False)
        for i in range(12, 16):
            net.add_node(i, 0.0, 0.001 * i)
        _contract_and_compare(net)
        index = HubLabelIndex(net)
        for i in range(12, 16):
            idx = index._index_of[i]
            assert index._out_label(idx) == ([index._rank_of[idx]], [0.0])

    def test_hub_above_the_witness_degree_cap(self):
        net = _star_network(hub_labeling._WITNESS_DEGREE_CAP + 6)
        _contract_and_compare(net)
        index = HubLabelIndex(net)
        truth = dijkstra_all(net, 3, t=0.0)
        for v in net.nodes:
            assert index.query(3, v) == pytest.approx(truth[v], abs=1e-9)

    @given(seed=st.integers(0, 10_000), integer_weights=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_shortcut_every_pair_branch(self, seed, integer_weights):
        # A cap of 2 sends most contractions down the witness-free branch.
        net = _random_network(random.Random(seed), 20, integer_weights)
        with mock.patch.object(hub_labeling, "_WITNESS_DEGREE_CAP", 2):
            _contract_and_compare(net)

    def test_metro_levels_wider_than_the_chunk_bound(self):
        net = metro_profile(rows=12, cols=12, name="Metro144").network_factory()
        with mock.patch.object(hub_labeling, "_LEVEL_CHUNK_ENTRIES", 64):
            levels = _contract_and_compare(net)
        assert levels < net.num_nodes // 4  # levels hold many nodes each


# --------------------------------------------------------------------------- #
# early-stopping witness search == search to cutoff
# --------------------------------------------------------------------------- #
def _random_adjacency(rng, n, integer_weights):
    adj_out = [{} for _ in range(n)]
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj_out[u][v] = (float(rng.randint(0, 3)) if integer_weights
                             else rng.uniform(0.0, 10.0))
    return adj_out


class TestWitnessStopRule:
    @given(seed=st.integers(0, 100_000), n=st.integers(2, 25),
           integer_weights=st.booleans(),
           settle_cap=st.sampled_from([1, 2, 3, 5, 8, 100]))
    @settings(max_examples=150, deadline=None)
    def test_found_lists_match_the_search_to_cutoff(self, seed, n,
                                                    integer_weights,
                                                    settle_cap):
        rng = random.Random(seed)
        adj_out = _random_adjacency(rng, n, integer_weights)
        ws = kernels.contraction_workspace(n, adj_out)
        for _ in range(8):
            source, banned = rng.sample(range(n), 2)
            tgts = rng.sample(range(n), rng.randint(1, min(n, 6)))
            vias = [float(rng.randint(0, 8)) if integer_weights
                    else rng.uniform(0.0, 25.0) for _ in tgts]
            cutoff = rng.choice([max(vias) + 1e-12, rng.uniform(0.0, 30.0),
                                 INFINITY])
            want = _witness_to_cutoff(adj_out, source, banned, tgts, vias,
                                      cutoff, settle_cap)
            assert ws.witness(source, banned, tgts, vias, cutoff,
                              settle_cap) == want

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
           integer_weights=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_contraction_matches_the_search_to_cutoff(self, seed, n,
                                                      integer_weights):
        net = _random_network(random.Random(seed), n, integer_weights)
        csr = net.csr()
        got = HubLabelIndex._contract(csr)[:3]

        def to_cutoff(self, source, banned, tgt_nodes, tgt_vias, cutoff,
                      settle_cap):
            return _witness_to_cutoff(self._adj_out, source, banned,
                                      tgt_nodes, tgt_vias, cutoff, settle_cap)

        with mock.patch.object(kernels.ContractionWorkspace, "witness",
                               to_cutoff):
            want = HubLabelIndex._contract(csr)[:3]
        assert got == want


# --------------------------------------------------------------------------- #
# what a build records
# --------------------------------------------------------------------------- #
@pytest.fixture
def python_kernels():
    """Witness settles are counted by the python search only."""
    prev = kernels.kernel_backend_setting()
    kernels.set_kernel_backend("python")
    yield
    kernels.set_kernel_backend(prev)


class TestBuildWork:
    @pytest.mark.parametrize("graph, expected", [
        ("Metro900", {"witness_searches": 8268, "witness_settles": 137584,
                      "shortcuts": 1985, "levels": 19}),
        ("CityB-half", {"witness_searches": 1483, "witness_settles": 23380,
                        "shortcuts": 516, "levels": 21}),
    ])
    def test_pristine_builds(self, python_kernels, graph, expected):
        profile = (metro_profile(rows=30, cols=30, name="Metro900")
                   if graph == "Metro900" else CITY_B.scaled(0.5))
        index = HubLabelIndex(profile.network_factory())
        assert index.build_work == expected

    def test_explicit_orders_do_no_contraction_work(self):
        net = _random_network(random.Random(1), 15, integer_weights=False)
        index = HubLabelIndex(net, order=list(net.nodes))
        assert index.build_work == dict.fromkeys(
            hub_labeling.BUILD_WORK_COUNTERS, 0)

    def test_build_span_encloses_the_contraction(self):
        contract = HubLabelIndex._contract

        def spy(csr):
            with current_tracer().span("test.contract"):
                return contract(csr)

        tracer = Tracer()
        net = _random_network(random.Random(2), 25, integer_weights=False)
        with mock.patch.object(HubLabelIndex, "_contract", staticmethod(spy)), \
                use_tracer(tracer):
            HubLabelIndex(net)
        records = {r["name"]: r for r in tracer.records}
        build, inner = records["hub_labels.build"], records["test.contract"]
        assert inner["parent"] == build["span"]
        assert build["start"] <= inner["start"] <= inner["end"] <= build["end"]
