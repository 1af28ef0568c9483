"""Property tests: live edge updates with incremental kernel repair.

The acceptance bar for the dynamic-traffic subsystem: after *any* sequence
of weight mutations, every oracle / hub-label query must exactly match a
from-scratch rebuild on the mutated network.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.distance_oracle import (
    MAX_QUEUED_LABEL_WORK,
    DistanceOracle,
    _changed_nodes,
)
from repro.network.generators import grid_city, random_geometric_city
from repro.network.graph import TimeProfile
from repro.network.hub_labeling import HubLabelIndex
from repro.network.shortest_path import _csr_dijkstra_all, dijkstra


def fresh_network(seed=3, num_nodes=48):
    return random_geometric_city(num_nodes=num_nodes,
                                 profile=TimeProfile.flat(), seed=seed)


def assert_matches_rebuild(oracle, network, sample_pairs=60, seed=0):
    """Oracle distances == fresh index == Dijkstra ground truth, everywhere."""
    rebuilt = HubLabelIndex(network)
    rng = random.Random(seed)
    nodes = network.nodes
    multiplier = network.profile.multiplier(0.0)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(sample_pairs)]
    for s, t in pairs:
        got = oracle.distance(s, t, 0.0)
        from_index = 0.0 if s == t else rebuilt.query(s, t) * multiplier
        truth = dijkstra(network, s, t, 0.0)
        for value in (got, from_index):
            if math.isinf(truth):
                assert math.isinf(value), (s, t, value, truth)
            else:
                assert value == pytest.approx(truth, rel=1e-9, abs=1e-6), (s, t)
    # batched kernels see the repaired labels too
    sources = [p[0] for p in pairs]
    targets = [p[1] for p in pairs]
    if oracle.method == "hub_label":
        paired = oracle.distances(sources, targets, 0.0)
        block = oracle.distance_matrix(sources[:10], targets[:10], 0.0)
        for i, (s, t) in enumerate(pairs):
            truth = dijkstra(network, s, t, 0.0)
            assert paired[i] == pytest.approx(truth, rel=1e-9, abs=1e-6) or \
                (math.isinf(paired[i]) and math.isinf(truth))
        for i, s in enumerate(sources[:10]):
            for j, t in enumerate(targets[:10]):
                truth = dijkstra(network, s, t, 0.0)
                assert block[i, j] == pytest.approx(truth, rel=1e-9, abs=1e-6) or \
                    (math.isinf(block[i, j]) and math.isinf(truth))


class TestCSRPatch:
    def test_override_patches_cached_csr_in_place(self):
        net = fresh_network()
        csr = net.csr()
        rcsr = net.csr(reverse=True)
        u, v, base = next(iter(net.edges()))
        net.set_edge_override(u, v, 2.0)
        assert net.csr() is csr, "weight-only mutation must not rebuild the CSR"
        pos = csr.edge_position(csr.index_of[u], csr.index_of[v])
        assert csr.weights[pos] == pytest.approx(2.0 * base)
        assert csr.weights_list[pos] == pytest.approx(2.0 * base)
        rpos = rcsr.edge_position(rcsr.index_of[v], rcsr.index_of[u])
        assert rcsr.weights[rpos] == pytest.approx(2.0 * base)

    def test_patched_csr_equals_fresh_build(self):
        net = fresh_network(seed=9)
        net.csr()
        rng = random.Random(1)
        edges = [(u, v) for u, v, _ in net.edges()]
        for u, v in rng.sample(edges, 8):
            net.set_edge_override(u, v, rng.choice([0.5, 1.5, 3.0]))
        patched = net.csr().weights.copy()
        net._csr_cache.clear()
        rebuilt = net.csr().weights
        assert patched == pytest.approx(rebuilt.tolist())

    def test_mutation_epoch_bumps(self):
        net = fresh_network()
        u, v, _ = next(iter(net.edges()))
        epoch = net.mutation_epoch
        net.set_edge_override(u, v, 2.0)
        assert net.mutation_epoch == epoch + 1
        net.set_edge_override(u, v, 2.0)  # no-op change
        assert net.mutation_epoch == epoch + 1

    def test_override_validation(self):
        net = fresh_network()
        with pytest.raises(KeyError):
            net.set_edge_override(0, 0, 2.0)
        u, v, _ = next(iter(net.edges()))
        with pytest.raises(ValueError):
            net.set_edge_override(u, v, 0.0)

    def test_max_edge_time_ignores_overrides(self):
        # The Eq. 8 normalisation must not be skewed by the huge closure
        # factor: dynamic overrides are excluded from the maximum.
        net = fresh_network()
        u, v, _ = max(net.edges(), key=lambda e: e[2])
        before = net.max_edge_time(0.0)
        net.set_edge_override(u, v, 600.0)
        assert net.max_edge_time(0.0) == pytest.approx(before)
        net.set_edge_override(u, v, 1.0)
        assert net.max_edge_time(0.0) == pytest.approx(before)


class TestIncrementalRepair:
    def test_single_increase_matches_rebuild(self):
        net = fresh_network()
        oracle = DistanceOracle(net, method="hub_label")
        u, v, _ = next(iter(net.edges()))
        stats = oracle.apply_traffic_updates({(u, v): 2.5})
        assert stats.strategy in {"repair", "rebuild"}
        assert_matches_rebuild(oracle, net)

    def test_decrease_and_revert_match_rebuild(self):
        net = fresh_network(seed=5)
        oracle = DistanceOracle(net, method="hub_label")
        u, v, _ = next(iter(net.edges()))
        oracle.apply_traffic_updates({(u, v): 0.4})
        assert_matches_rebuild(oracle, net, seed=1)
        oracle.apply_traffic_updates({(u, v): 1.0})
        assert_matches_rebuild(oracle, net, seed=2)

    def test_warm_caches_never_serve_stale_values(self):
        net = fresh_network(seed=7)
        oracle = DistanceOracle(net, method="hub_label")
        rng = random.Random(3)
        nodes = net.nodes
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]
        for s, t in pairs:
            oracle.distance(s, t, 0.0)
            oracle.path(s, t)
        edges = [(u, v) for u, v, _ in net.edges()]
        u, v = rng.choice(edges)
        oracle.apply_traffic_updates({(u, v): 3.0})
        for s, t in pairs:
            assert oracle.distance(s, t, 0.0) == pytest.approx(
                dijkstra(net, s, t, 0.0), rel=1e-9, abs=1e-6)
            path = oracle.path(s, t)
            length = sum(net.edge_time(a, b, 0.0)
                         for a, b in zip(path, path[1:], strict=False))
            assert length == pytest.approx(dijkstra(net, s, t, 0.0),
                                           rel=1e-9, abs=1e-6)

    def test_noop_update_reports_noop(self):
        net = fresh_network()
        oracle = DistanceOracle(net, method="hub_label")
        u, v, _ = next(iter(net.edges()))
        assert oracle.apply_traffic_updates({(u, v): 1.0}).strategy == "noop"
        assert oracle.apply_traffic_updates({}).strategy == "noop"

    def test_dijkstra_backend_scoped_invalidation(self):
        net = grid_city(rows=4, cols=4, block_km=0.5, diagonal_fraction=0.0,
                        congested_fraction=0.0, profile=TimeProfile.flat(), seed=3)
        oracle = DistanceOracle(net, method="dijkstra")
        rng = random.Random(0)
        nodes = net.nodes
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(80)]
        for s, t in pairs:
            oracle.distance(s, t, 0.0)
        stats = oracle.apply_traffic_updates({(0, 1): 4.0})
        assert stats.strategy == "dijkstra"
        for s, t in pairs:
            assert oracle.distance(s, t, 0.0) == pytest.approx(
                dijkstra(net, s, t, 0.0), rel=1e-9, abs=1e-6)

    def test_rebuild_fallback_after_large_mutations(self):
        net = fresh_network(seed=11)
        oracle = DistanceOracle(net, method="hub_label")
        rng = random.Random(2)
        edges = [(u, v) for u, v, _ in net.edges()]
        strategies = set()
        for _trial in range(6):
            changes = {edge: rng.choice([0.3, 2.0, 5.0])
                       for edge in rng.sample(edges, 6)}
            strategies.add(oracle.apply_traffic_updates(changes).strategy)
        assert "rebuild" in strategies, \
            "large cumulative mutations must trigger the full-rebuild fallback"
        assert_matches_rebuild(oracle, net, seed=3)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=12, deadline=None)
    def test_random_mutation_sequences_match_rebuild(self, seed):
        rng = random.Random(seed)
        net = fresh_network(seed=seed % 5, num_nodes=36)
        oracle = DistanceOracle(net, method="hub_label")
        edges = [(u, v) for u, v, _ in net.edges()]
        nodes = net.nodes
        for _step in range(3):
            changes = {}
            for edge in rng.sample(edges, rng.randint(1, 3)):
                changes[edge] = rng.choice([0.25, 0.5, 1.0, 2.0, 8.0, 600.0,
                                            math.inf])
            # interleave queries so caches are warm when mutations land
            for _ in range(10):
                oracle.distance(rng.choice(nodes), rng.choice(nodes), 0.0)
            oracle.apply_traffic_updates(changes)
        assert_matches_rebuild(oracle, net, sample_pairs=40, seed=seed)


def bridge_network():
    """Two 4-node cliques joined by a single two-way bridge (3 <-> 4)."""
    from repro.network.graph import RoadNetwork

    net = RoadNetwork(TimeProfile.flat())
    for node in range(8):
        net.add_node(node, 0.0, 0.01 * node)
    for cluster in (range(4), range(4, 8)):
        members = list(cluster)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                net.add_road(u, v, 60.0)
    net.add_road(3, 4, 90.0)
    return net


class TestSeveredClosures:
    """Severing (factor=inf) must stay exact through repair and reopening."""

    def test_severed_edge_matches_rebuild(self):
        net = fresh_network(seed=13)
        oracle = DistanceOracle(net, method="hub_label")
        u, v, _ = next(iter(net.edges()))
        stats = oracle.apply_traffic_updates({(u, v): math.inf,
                                              (v, u): math.inf})
        assert stats.severed_edges == sum(
            1 for edge in [(u, v), (v, u)] if net.has_edge(*edge))
        assert_matches_rebuild(oracle, net, seed=4)

    def test_severed_edge_never_appears_on_any_returned_path(self):
        net = fresh_network(seed=17)
        oracle = DistanceOracle(net, method="hub_label")
        rng = random.Random(5)
        nodes = net.nodes
        # Sever a handful of (two-way) streets, then expand many paths.
        severed = set()
        for u, v, _ in rng.sample(list(net.edges()), 5):
            severed.add((u, v))
            if net.has_edge(v, u):
                severed.add((v, u))
        oracle.apply_traffic_updates(dict.fromkeys(severed, math.inf))
        for _ in range(120):
            s, t = rng.choice(nodes), rng.choice(nodes)
            path = oracle.path_or_none(s, t)
            if path is None:
                assert math.isinf(dijkstra(net, s, t, 0.0))
                continue
            for edge in zip(path, path[1:], strict=False):
                assert edge not in severed, \
                    f"path {s}->{t} crosses severed edge {edge}"

    def test_cut_disconnects_and_reopen_restores(self):
        net = bridge_network()
        oracle = DistanceOracle(net, method="hub_label")
        # Warm caches across the bridge so reopening must evict them.
        assert oracle.distance(0, 7, 0.0) < math.inf
        assert oracle.path(0, 7)

        stats = oracle.apply_traffic_updates({(3, 4): math.inf,
                                              (4, 3): math.inf})
        assert stats.severed_edges == 2
        # Every node lost reachability to/from the far side of the cut.
        assert stats.disconnected_nodes == 8
        assert math.isinf(oracle.distance(0, 7, 0.0))
        assert oracle.path_or_none(0, 7) is None
        with pytest.raises(ValueError, match="no path"):
            oracle.path(0, 7)
        # Within each side distances are untouched.
        assert oracle.distance(0, 3, 0.0) == pytest.approx(
            dijkstra(net, 0, 3, 0.0))
        assert_matches_rebuild(oracle, net, sample_pairs=40, seed=6)

        reopen = oracle.apply_traffic_updates({(3, 4): 1.0, (4, 3): 1.0})
        assert reopen.severed_edges == 0
        assert reopen.disconnected_nodes == 0
        assert oracle.distance(0, 7, 0.0) == pytest.approx(
            dijkstra(net, 0, 7, 0.0))
        path = oracle.path(0, 7)
        assert (3, 4) in set(zip(path, path[1:], strict=False))
        assert_matches_rebuild(oracle, net, sample_pairs=40, seed=7)


class ExhaustiveOracle(DistanceOracle):
    """The affected-set search as it ran before it learnt to stop: a
    before/after SSSP pair for *every* distinct mutated endpoint, every
    "before" tree held until its "after" is in.  The reference
    :class:`DistanceOracle` is compared against, call for call."""

    def _patch_and_find_affected(self, mutated, before):
        network = self.network
        csr = network.csr()
        rcsr = network.csr(reverse=True)
        heads = {csr.index_of[v] for _, v in mutated}
        tails = {csr.index_of[u] for u, _ in mutated}
        self.sssp_runs += 2 * (len(heads) + len(tails))
        old_to_head = {h: _csr_dijkstra_all(rcsr, h) for h in heads}
        old_from_tail = {t: _csr_dijkstra_all(csr, t) for t in tails}
        for (u, v), factor in mutated.items():
            network.set_edge_override(u, v, factor)
        affected_out, affected_in, lost = set(), set(), set()
        for head, old in old_to_head.items():
            new = _csr_dijkstra_all(rcsr, head)
            affected_out |= _changed_nodes(old, new)
            lost.update(idx for idx in old if idx not in new)
        for tail, old in old_from_tail.items():
            new = _csr_dijkstra_all(csr, tail)
            affected_in |= _changed_nodes(old, new)
            lost.update(idx for idx in old if idx not in new)
        return affected_out, affected_in, lost


def _apply_to_both(oracle, reference, changes):
    """Apply one update to both oracles; returns their ``sssp_runs`` deltas
    after checking they did the same thing to everything one can observe."""
    before = oracle.sssp_runs, reference.sssp_runs
    stats = oracle.apply_traffic_updates(changes)
    assert stats == reference.apply_traffic_updates(changes)  # every field
    for cache in ("_point_cache", "_path_cache", "_sssp_cache"):
        assert list(getattr(oracle, cache)._data) == \
            list(getattr(reference, cache)._data), cache
    runs = oracle.sssp_runs - before[0], reference.sssp_runs - before[1]
    nodes = oracle.network.nodes
    if oracle.method == "hub_label":
        assert oracle.index_info() == reference.index_info()
        got = oracle.hub_index.query_block(nodes, nodes)
        expected = reference.hub_index.query_block(nodes, nodes)
    else:
        got = oracle.static_distance_matrix(nodes, nodes)
        expected = reference.static_distance_matrix(nodes, nodes)
    assert np.array_equal(got, expected)  # bit for bit, inf where cut
    return runs


def _random_update(rng: random.Random, network, kind: str):
    """One update of the kinds the traffic controller produces."""
    edges = [(u, v) for u, v, _ in network.edges()]
    if kind == "incident":
        u, v = rng.choice(edges)
        factor = rng.choice([0.25, 0.5, 2.0, 8.0, 600.0])
        return {edge: factor for edge in ((u, v), (v, u)) if network.has_edge(*edge)}
    if kind == "zone":
        # Every street among the nodes nearest one centre: multi-edge,
        # usually enough to move every node's distances.
        centre = network.coord(rng.choice(network.nodes))
        zone = set(sorted(network.nodes, key=lambda n: math.dist(
            network.coord(n), centre))[:rng.randint(6, network.num_nodes)])
        factor = rng.choice([1.3, 1.6, 2.5])
        return {(u, v): factor for u, v in edges if u in zone and v in zone}
    if kind == "closure":
        return dict.fromkeys(rng.sample(edges, rng.randint(1, 3)), math.inf)
    if kind == "reopen":
        closed = [edge for edge in network.edge_overrides()
                  if math.isinf(network.edge_override(*edge))]
        return {edge: rng.choice([1.0, 3.0]) for edge in closed}
    assert kind == "clear"  # every live factor back to 1.0
    return dict.fromkeys(network.edge_overrides(), 1.0)


@pytest.mark.parametrize("method", ["hub_label", "dijkstra"])
class TestSearchSaturation:
    """Stopping the affected-set search early changes nothing but its cost."""

    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=15, deadline=None)
    def test_random_update_sequences_match_the_exhaustive_search(self, method, seed):
        rng = random.Random(seed)
        oracle = DistanceOracle(fresh_network(seed=seed % 7, num_nodes=30),
                                method=method)
        reference = ExhaustiveOracle(fresh_network(seed=seed % 7, num_nodes=30),
                                     method=method)
        nodes = oracle.network.nodes
        kinds = ["incident", "zone", "closure", "zone", "reopen", "incident", "clear"]
        rng.shuffle(kinds)
        for kind in kinds:
            # Warm every cache, so the scoped eviction has something to scope.
            for _ in range(25):
                s, t = rng.choice(nodes), rng.choice(nodes)
                for each in (oracle, reference):
                    each.distance(s, t, 0.0)
                    each.path_or_none(s, t)
            changes = _random_update(rng, oracle.network, kind)
            runs, exhaustive = _apply_to_both(oracle, reference, changes)
            assert runs <= exhaustive
            if any(math.isinf(factor) for factor in changes.values()):
                assert runs == exhaustive
        assert_matches_rebuild(oracle, oracle.network, sample_pairs=30, seed=seed)

    def _zone_on_a_grid(self, method):
        def grid():
            return grid_city(rows=20, cols=20, block_km=0.4, diagonal_fraction=0.0,
                             congested_fraction=0.0, profile=TimeProfile.flat(),
                             seed=3)
        oracle = DistanceOracle(grid(), method=method)
        reference = ExhaustiveOracle(grid(), method=method)
        # A zonal rush hour over the central 10 x 10 block (row-major ids).
        zone = {20 * row + col for row in range(5, 15) for col in range(5, 15)}
        changes = {(u, v): 1.6 for u, v, _ in oracle.network.edges()
                   if u in zone and v in zone}
        assert len(changes) == 2 * 2 * 10 * 9
        return oracle, reference, changes

    def test_zonal_update_stops_once_every_node_is_affected(self, method):
        oracle, reference, changes = self._zone_on_a_grid(method)
        runs, exhaustive = _apply_to_both(oracle, reference, changes)
        # A before/after pair for each of 100 heads and 100 tails.
        assert exhaustive == 400
        # The zone's rim comes first (its heads are still reached, unchanged,
        # from outside); the first endpoint inside it affects every node.
        assert runs <= 60
        # Clearing the zone saturates just the same.
        runs, exhaustive = _apply_to_both(oracle, reference,
                                          dict.fromkeys(changes, 1.0))
        assert runs <= 60 and exhaustive == 400

    def test_one_severed_edge_in_the_zone_runs_every_search(self, method):
        oracle, reference, changes = self._zone_on_a_grid(method)
        changes[next(iter(changes))] = math.inf
        # (_apply_to_both compares disconnected_nodes with every other field.)
        runs, exhaustive = _apply_to_both(oracle, reference, changes)
        assert runs == exhaustive == 400

    def test_severed_bridge_in_a_saturating_update(self, method):
        # A zone over everything and the one bridge cut: all 8 nodes lose
        # somebody, which only the full set of searches can report.
        oracle = DistanceOracle(bridge_network(), method=method)
        reference = ExhaustiveOracle(bridge_network(), method=method)
        changes = {(u, v): 2.0 for u, v, _ in oracle.network.edges()}
        changes[(3, 4)] = changes[(4, 3)] = math.inf
        runs, exhaustive = _apply_to_both(oracle, reference, changes)
        assert runs == exhaustive == 32
        reopened = oracle.apply_traffic_updates({(3, 4): 2.0, (4, 3): 2.0})
        assert reopened.disconnected_nodes == 0


class EagerOracle(DistanceOracle):
    """Runs every hub-label action the moment it is decided: the order of
    work the deferred :class:`DistanceOracle` must reproduce bit for bit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refresh()

    def apply_traffic_updates(self, changes):
        stats = super().apply_traffic_updates(changes)
        self.refresh()
        return stats


def _label_arrays(oracle):
    index = oracle.hub_index
    index._ensure_arrays()
    return [np.asarray(index.hub_order)] + [
        getattr(index, name) for name in (
            "_out_indptr", "_out_rank_arr", "_out_dist_arr",
            "_in_indptr", "_in_rank_arr", "_in_dist_arr")]


def _read(rng, oracle, nodes):
    """One read of a random kind; returns its answers."""
    kind = rng.choice(["point", "paired", "block", "hub_index"])
    if kind == "point":
        return [oracle.distance(rng.choice(nodes), rng.choice(nodes), 0.0)
                for _ in range(5)]
    if kind == "paired":
        return oracle.static_distances(rng.sample(nodes, 6), rng.sample(nodes, 6))
    if kind == "block":
        return oracle.static_distance_matrix(nodes[::3], nodes[1::4])
    return None if oracle.hub_index is None else oracle.hub_index.query(nodes[0],
                                                                         nodes[-1])


@pytest.mark.parametrize("method", ["hub_label", "dijkstra"])
class TestDeferredLabelWork:
    """Label work at the next read gives what running it at once gives."""

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_random_updates_and_reads_match_eager_work(self, method, seed):
        rng = random.Random(seed)
        oracle = DistanceOracle(fresh_network(seed=seed % 5, num_nodes=30),
                                method=method)
        eager = EagerOracle(fresh_network(seed=seed % 5, num_nodes=30),
                            method=method)
        nodes = oracle.network.nodes
        kinds = ["incident", "zone", "closure", "reopen", "clear"]
        for _step in range(rng.randint(1, 7)):
            changes = _random_update(rng, oracle.network, rng.choice(kinds))
            assert oracle.apply_traffic_updates(changes) == \
                eager.apply_traffic_updates(changes)  # every field
            for cache in ("_point_cache", "_path_cache", "_sssp_cache"):
                assert list(getattr(oracle, cache)._data) == \
                    list(getattr(eager, cache)._data), cache
            if rng.random() < 0.4:
                state = rng.getstate()
                got = _read(rng, oracle, nodes)
                rng.setstate(state)
                assert np.array_equal(got, _read(rng, eager, nodes))
        if method == "hub_label":
            for got, want in zip(_label_arrays(oracle), _label_arrays(eager),
                                 strict=True):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert np.array_equal(oracle.static_distance_matrix(nodes, nodes),
                              eager.static_distance_matrix(nodes, nodes))


def _grid():
    return grid_city(rows=6, cols=6, block_km=0.5, diagonal_fraction=0.0,
                     congested_fraction=0.0, profile=TimeProfile.flat(), seed=3)


def _grid_oracle():
    oracle = DistanceOracle(_grid(), method="hub_label")
    oracle.refresh()
    return oracle


def _spy(monkeypatch, name):
    calls = []
    original = getattr(HubLabelIndex, name)

    def spy(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HubLabelIndex, name, spy)
    return calls


class TestLabelWorkQueue:
    def test_construction_builds_nothing(self, monkeypatch):
        builds = _spy(monkeypatch, "__init__")
        oracle = DistanceOracle(fresh_network(), method="hub_label")
        assert builds == [] and oracle.label_builds == 0
        assert oracle.index_info() == {"entries": 0, "bytes": 0, "pending": 1}
        oracle.distance(oracle.network.nodes[0], oracle.network.nodes[-1])
        assert len(builds) == oracle.label_builds == 1
        assert oracle.index_info()["pending"] == 0

    def test_superseded_repairs_never_run(self, monkeypatch):
        oracle = _grid_oracle()
        repairs = _spy(monkeypatch, "repair")
        builds = _spy(monkeypatch, "__init__")
        # Two one-street incidents, then every street at once.
        decisions = [oracle.apply_traffic_updates({edge: 2.0}).strategy
                     for edge in ((0, 1), (20, 21))]
        everything = {(u, v): 1.6 for u, v, _ in oracle.network.edges()}
        decisions.append(oracle.apply_traffic_updates(everything).strategy)
        assert decisions == ["repair", "repair", "rebuild"]
        assert builds == [] and repairs == []
        assert oracle.index_info()["pending"] == 1
        oracle.refresh()
        assert repairs == [] and len(builds) == 1
        assert (oracle.label_builds, oracle.label_repairs_run,
                oracle.label_repairs_superseded) == (2, 0, 2)

    def test_queue_flushes_at_its_bound(self):
        oracle = _grid_oracle()
        oracle.repair_fraction = 1.0  # every update stays a repair
        edges = [(u, v) for u, v, _ in oracle.network.edges()]
        for step in range(1, MAX_QUEUED_LABEL_WORK):
            assert oracle.apply_traffic_updates({edges[step]: 3.0}).strategy == "repair"
            assert oracle.index_info()["pending"] == step
        assert oracle.label_repairs_run == 0
        oracle.apply_traffic_updates({edges[0]: 3.0})
        assert oracle.index_info()["pending"] == 0
        assert oracle.label_repairs_run == MAX_QUEUED_LABEL_WORK
        assert_matches_rebuild(oracle, oracle.network)

    def test_diagnostics_never_run_queued_work(self):
        oracle = _grid_oracle()
        oracle.apply_traffic_updates({(0, 1): 2.0})
        before = oracle.index_info()
        assert before["pending"] == 1
        oracle.cache_info()
        assert oracle.can_repair
        assert oracle.index_info() == before
        assert oracle.label_repairs_run == 0
        oracle.hub_index  # a read
        assert oracle.index_info()["pending"] == 0
        assert oracle.label_repairs_run == 1

    def test_reset_restores_pristine_labels_built_late(self):
        # The first update arrives while the pristine build is still queued
        # (it runs later, on the pre-update weights); resetting afterwards
        # must give back exactly the labels a fresh oracle builds.
        oracle = DistanceOracle(_grid(), method="hub_label")
        assert oracle.apply_traffic_updates({(0, 1): 2.0}).strategy == "repair"
        oracle.refresh()
        assert oracle.label_repairs_run == 1
        oracle.reset_traffic_state()
        assert oracle.index_info()["pending"] == 0
        fresh = DistanceOracle(_grid(), method="hub_label")
        for got, want in zip(_label_arrays(oracle), _label_arrays(fresh), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_reset_after_an_unread_rebuild_queues_the_pristine_build(self):
        oracle = DistanceOracle(_grid(), method="hub_label")
        everything = {(u, v): 2.0 for u, v, _ in oracle.network.edges()}
        assert oracle.apply_traffic_updates(everything).strategy == "rebuild"
        oracle.reset_traffic_state()
        assert oracle.label_builds == 0
        assert oracle.index_info()["pending"] == 1
        fresh = DistanceOracle(_grid(), method="hub_label")
        for got, want in zip(_label_arrays(oracle), _label_arrays(fresh), strict=True):
            assert got.tobytes() == want.tobytes()
