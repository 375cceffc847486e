import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from spikenoc import partition
from spikenoc.graph import ConvLayerSpec, SnnGraph, build_brunel, build_conv_topology
from spikenoc.partition import (MemoryBudget, Partition, _SwapState,
                                destination_objective, hsfc_order,
                                initial_partition, map_clusters, memory_cost,
                                sss_refine)
from test_graph import reverse_adjacency


def graph_from_edges(n, edges, w=10):
    adjacency = [[] for _ in range(n)]
    for pre, post in edges:
        adjacency[pre].append((post, w))
    return SnnGraph(n, adjacency)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(n) for b in range(n)
             if a != b and rng.random() < p]
    return graph_from_edges(n, edges)


def loopy_graph(n, p, seed):
    """Random graph where half the neurons synapse onto themselves and about
    a fifth of the synapses are doubled."""
    rng = random.Random(seed)
    adjacency = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if rng.random() < (0.5 if a == b else p):
                adjacency[a].append((b, 10))
                if rng.random() < 0.2:
                    adjacency[a].append((b, 10))
    return SnnGraph(n, adjacency)


def brute_force_min_objective(graph, sizes):
    """Minimum J over every partition with the given cluster sizes."""
    n = graph.neuron_count
    best = None
    for perm in itertools.permutations(range(n)):
        clusters, i = [], 0
        for s in sizes:
            clusters.append(perm[i:i + s])
            i += s
        if any(c[0] != min(c) for c in clusters):
            continue   # skip permutations of the same grouping
        part = Partition.from_clusters(clusters, n)
        j = destination_objective(part, graph)
        if best is None or j < best:
            best = j
    return best


class TestMemoryBudget:
    def test_defaults(self):
        b = MemoryBudget()
        assert b.neuron_capacity == 128
        assert b.dest_entry_bytes == 2 + 16

    def test_capacity_256_entry_bytes(self):
        b = MemoryBudget(neuron_bytes=256 * 24)
        assert b.neuron_capacity == 256
        assert b.dest_entry_bytes == 34

    def test_positive_required(self):
        with pytest.raises(ValueError):
            MemoryBudget(synapse_bytes=0)

    def test_fits_at_each_limit(self):
        # byte sizes that are not multiples of their units, so the limits
        # round down: 10 synapses of 3 bytes, 4 neurons of 50 bytes, and
        # 40 // (2 + 1) = 13 destination entries
        b = MemoryBudget(synapse_bytes=32, neuron_bytes=230,
                         post_conn_bytes=40, bytes_per_synapse=3,
                         bytes_per_neuron_state=50)
        assert (b.max_synapses, b.neuron_capacity, b.max_dests) == (10, 4, 13)
        assert b.fits(10, 4, 13)
        assert not b.fits(11, 4, 13)
        assert not b.fits(10, 5, 13)
        assert not b.fits(10, 4, 14)
        assert b.fits(0, 0, 0)

    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 400),
           st.integers(1, 9), st.integers(1, 60), st.integers(0, 60),
           st.integers(0, 12), st.integers(0, 30))
    def test_fits_is_the_byte_rule(self, syn_b, neu_b, post_b, per_syn,
                                   per_neuron, synapses, neurons, dests):
        b = MemoryBudget(synapse_bytes=syn_b, neuron_bytes=neu_b,
                         post_conn_bytes=post_b, bytes_per_synapse=per_syn,
                         bytes_per_neuron_state=per_neuron)
        assert b.fits(synapses, neurons, dests) == (
            synapses * per_syn <= syn_b and neurons * per_neuron <= neu_b
            and dests * b.dest_entry_bytes <= post_b)


class TestMemoryCost:
    def test_hand_case(self):
        # cluster {0, 1}: five incoming synapses, two neurons, one remote
        # destination cluster -> (5, 48, 34) under a capacity-256 budget
        g = graph_from_edges(4, [(0, 2), (1, 0), (2, 0), (2, 1), (3, 0),
                                 (3, 1)])
        part = Partition.from_clusters([(0, 1), (2, 3)], 4)
        b = MemoryBudget(neuron_bytes=256 * 24)
        cost = memory_cost((0, 1), g, b, part.cluster_of)
        assert (cost.synapse_bytes, cost.neuron_bytes, cost.post_conn_bytes) \
            == (5, 48, 34)
        assert cost.fits

    def test_intra_cluster_fanout_is_free(self):
        g = graph_from_edges(4, [(0, 1), (1, 0)])
        part = Partition.from_clusters([(0, 1), (2, 3)], 4)
        cost = memory_cost((0, 1), g, MemoryBudget(), part.cluster_of)
        assert cost.post_conn_bytes == 0

    def test_multiple_remote_clusters_counted_once_each(self):
        g = graph_from_edges(6, [(0, 2), (0, 3), (1, 4), (0, 4)])
        part = Partition.from_clusters([(0, 1), (2, 3), (4, 5)], 6)
        cost = memory_cost((0, 1), g, MemoryBudget(), part.cluster_of)
        assert cost.post_conn_bytes == 2 * MemoryBudget().dest_entry_bytes

    def test_overflow_detected(self):
        g = graph_from_edges(2, [(0, 1)] * 1)
        part = Partition.from_clusters([(0,), (1,)], 2)
        tight = MemoryBudget(neuron_bytes=24, post_conn_bytes=1)
        cost = memory_cost((0,), g, tight, part.cluster_of)
        assert not cost.fits

    def test_empty_cluster(self):
        g = graph_from_edges(1, [])
        cost = memory_cost((), g, MemoryBudget(), (0,))
        assert cost == type(cost)(0, 0, 0, True)


class TestPartitionType:
    def test_exact_cover_enforced(self):
        with pytest.raises(ValueError):
            Partition.from_clusters([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError):
            Partition.from_clusters([(0,)], 2)
        with pytest.raises(ValueError):
            Partition.from_clusters([(0, 5)], 2)

    def test_cluster_of(self):
        p = Partition.from_clusters([(2, 0), (1,)], 3)
        assert p.cluster_of == (0, 1, 0)


class TestGreedyCut:
    def test_capacity_split_sizes(self):
        g = graph_from_edges(10, [(i, i + 1) for i in range(9)])
        b = MemoryBudget(neuron_bytes=4 * 24)
        part = initial_partition(range(10), g, b)
        assert [len(c) for c in part.clusters] == [4, 4, 2]
        assert part.clusters[0] == (0, 1, 2, 3)

    def test_synapse_budget_splits(self):
        # every neuron has in-degree 2 except the first; 3 neurons already
        # cost 4 synapse bytes, so a 5-byte budget cuts after every 3rd
        g = graph_from_edges(6, [(i, j) for i in range(6) for j in range(6)
                                 if 0 < abs(i - j) <= 1])
        b = MemoryBudget(synapse_bytes=5, neuron_bytes=24 * 100)
        part = initial_partition(range(6), g, b)
        for c in part.clusters:
            cost = memory_cost(c, g, b, part.cluster_of)
            assert cost.synapse_bytes <= 5

    def test_order_must_be_permutation(self):
        g = graph_from_edges(3, [])
        with pytest.raises(ValueError):
            initial_partition([0, 1], g, MemoryBudget())
        with pytest.raises(ValueError):
            initial_partition([0, 1, 1], g, MemoryBudget())

    def test_impossible_neuron_reported(self):
        g = graph_from_edges(3, [(1, 0), (2, 0), (1, 2)])
        with pytest.raises(ValueError, match="alone exceeds"):
            initial_partition(range(3), g, MemoryBudget(synapse_bytes=1))

    def test_all_results_fit_under_post_conn_pressure(self):
        # sparse graph so an 8-entry destination budget is feasible but binding
        g = random_graph(60, 0.05, seed=3)
        b = MemoryBudget(neuron_bytes=8 * 24, post_conn_bytes=8 * 3)
        part = initial_partition(range(60), g, b)
        assert len(part.clusters) >= 60 // 8
        for c in part.clusters:
            assert memory_cost(c, g, b, part.cluster_of).fits


class TestHsfcOrder:
    def test_untagged_keeps_id_order(self):
        g = random_graph(10, 0.2, seed=0)
        assert hsfc_order(g) == list(range(10))

    def test_layers_stay_contiguous(self):
        g = build_conv_topology([ConvLayerSpec(2, 4, 4),
                                 ConvLayerSpec(1, 4, 4, kernel=1)], seed=0)
        order = hsfc_order(g)
        layers = [g.layer_tags[n].layer for n in order]
        assert layers == sorted(layers)

    def test_channels_interleave_at_same_position(self):
        # 2-channel 2x2 layer: walk visits each position with both channels
        # back to back, curve order (0,0), (0,1), (1,1), (1,0)
        g = build_conv_topology([ConvLayerSpec(2, 2, 2),
                                 ConvLayerSpec(1, 2, 2, kernel=1)], seed=0)
        order = hsfc_order(g)
        assert order[:8] == [0, 4, 2, 6, 3, 7, 1, 5]


class TestDestinationObjective:
    def test_hand_count(self):
        g = graph_from_edges(6, [(0, 2), (0, 4), (2, 0), (4, 5)])
        part = Partition.from_clusters([(0, 1), (2, 3), (4, 5)], 6)
        # cluster 0 -> {1, 2}, cluster 1 -> {0}, cluster 2 -> {} (4->5 local)
        assert destination_objective(part, g) == 3

    def test_all_local_is_zero(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        part = Partition.from_clusters([(0, 1), (2, 3)], 4)
        assert destination_objective(part, g) == 0


class TestSssRefine:
    def loose(self):
        return MemoryBudget(neuron_bytes=24 * 64)

    def test_never_worse_on_random_instances(self):
        for seed in range(30):
            g = random_graph(24, 0.12, seed=seed)
            b = MemoryBudget(neuron_bytes=24 * 6)
            p0 = initial_partition(range(24), g, b)
            j0 = destination_objective(p0, g)
            p1 = sss_refine(p0, g, b, seed=seed, iters=150)
            assert destination_objective(p1, g) <= j0

    def test_budget_respected_after_refine(self):
        for seed in range(10):
            g = random_graph(30, 0.2, seed=100 + seed)
            b = MemoryBudget(neuron_bytes=24 * 6, post_conn_bytes=18 * 4)
            p0 = initial_partition(range(30), g, b)
            p1 = sss_refine(p0, g, b, seed=seed, iters=200)
            for c in p1.clusters:
                assert memory_cost(c, g, b, p1.cluster_of).fits

    def test_cluster_sizes_preserved(self):
        g = random_graph(20, 0.15, seed=5)
        b = MemoryBudget(neuron_bytes=24 * 6)
        p0 = initial_partition(range(20), g, b)
        p1 = sss_refine(p0, g, b, seed=1)
        assert sorted(len(c) for c in p0.clusters) == \
            sorted(len(c) for c in p1.clusters)

    def test_deterministic(self):
        g = random_graph(20, 0.15, seed=5)
        b = MemoryBudget(neuron_bytes=24 * 5)
        p0 = initial_partition(range(20), g, b)
        assert sss_refine(p0, g, b, seed=3).clusters == \
            sss_refine(p0, g, b, seed=3).clusters

    def test_reaches_brute_force_optimum_on_ring(self):
        # directed 4-ring, clusters of two: every grouping scores J = 2
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        b = MemoryBudget(neuron_bytes=24 * 2)
        p0 = initial_partition(range(4), g, b)
        p1 = sss_refine(p0, g, b, seed=0, iters=50)
        assert destination_objective(p1, g) == \
            brute_force_min_objective(g, [2, 2]) == 2

    def test_finds_obvious_improvement(self):
        # two 3-cliques with one crossing edge, deliberately split badly:
        # putting each clique on its own cluster reaches the optimum
        clique_a = [(a, b) for a in range(3) for b in range(3) if a != b]
        clique_b = [(a + 3, b + 3) for a, b in clique_a]
        g = graph_from_edges(6, clique_a + clique_b + [(2, 3)])
        bad = Partition.from_clusters([(0, 3, 4), (1, 2, 5)], 6)
        b = MemoryBudget(neuron_bytes=24 * 3)
        j_bad = destination_objective(bad, g)
        best = sss_refine(bad, g, b, seed=2, iters=400)
        j_best = destination_objective(best, g)
        assert j_bad > 1
        assert j_best == 1   # only the crossing edge stays remote

    def test_single_cluster_is_identity(self):
        g = random_graph(8, 0.3, seed=1)
        p = Partition.from_clusters([tuple(range(8))], 8)
        assert sss_refine(p, g, MemoryBudget(), seed=0) is p

    # Clusters returned by the dict-per-cluster implementation this one
    # replaced.  The graphs have self-loops and duplicate synapses, the
    # destination budget (3-byte entries) rejects proposals, and whole
    # segments of the smallest cluster's size are swapped.
    PINNED = [
        ((24, 0.04, 0), 3 * 3,
         ((4, 14, 1), (13, 6, 21), (8, 17, 7), (22, 2, 20), (5, 18, 23),
          (11, 19, 10), (0,), (15,), (9, 16, 12), (3,))),
        ((24, 0.06, 1), 3 * 3,
         ((4, 1, 15, 16, 19, 12), (18, 3, 7, 10, 20, 9),
          (21, 6, 5, 22, 13, 17), (11, 8, 23, 0, 14), (2,))),
        ((32, 0.04, 2), 3 * 4,
         ((25, 26, 21, 22, 23, 11), (27, 16, 24, 18, 19, 7),
          (28, 29, 2, 3, 4, 9), (12, 13, 14, 15, 17, 10), (0, 1, 6, 20),
          (30, 31, 8, 5))),
    ]

    @pytest.mark.parametrize("graph_args,post_conn_bytes,expected", PINNED)
    def test_pinned_on_self_loops_and_duplicates(self, graph_args,
                                                 post_conn_bytes, expected):
        n, p, seed = graph_args
        g = loopy_graph(n, p, seed)
        b = MemoryBudget(neuron_bytes=24 * 6, post_conn_bytes=post_conn_bytes)
        p0 = initial_partition(range(n), g, b)
        p1 = sss_refine(p0, g, b, seed=seed, iters=200, seg_ratio=1.0)
        assert p1.clusters == expected
        assert destination_objective(p1, g) < destination_objective(p0, g)
        for c in p1.clusters:
            assert memory_cost(c, g, b, p1.cluster_of).fits

    @pytest.mark.parametrize("kwargs", [
        dict(iters=-1), dict(t0=-0.5), dict(t0=math.nan), dict(t0=math.inf),
        dict(cooling=1.5), dict(cooling=-0.1), dict(cooling=math.nan),
        dict(seg_ratio=0.0), dict(seg_ratio=-1.0), dict(seg_ratio=1.01),
        dict(seg_ratio=math.nan),
    ])
    def test_nonsense_settings_rejected(self, kwargs):
        g = random_graph(12, 0.2, seed=1)
        b = MemoryBudget(neuron_bytes=24 * 4)
        p0 = initial_partition(range(12), g, b)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            sss_refine(p0, g, b, **kwargs)

    def test_edge_settings_accepted(self):
        # zero proposals, a quench at t0 = 0 and cooling = 0, whole segments
        g = random_graph(12, 0.2, seed=1)
        b = MemoryBudget(neuron_bytes=24 * 4)
        p0 = initial_partition(range(12), g, b)
        assert sss_refine(p0, g, b, iters=0).clusters == p0.clusters
        for kwargs in (dict(t0=0.0), dict(cooling=0.0), dict(cooling=1.0),
                       dict(seg_ratio=1.0)):
            p1 = sss_refine(p0, g, b, iters=50, **kwargs)
            assert destination_objective(p1, g) <= destination_objective(p0, g)

    def test_start_over_budget_rejected(self):
        # cluster 1 reaches clusters 0 and 2 with room for one destination
        g = graph_from_edges(6, [(0, 2), (0, 4), (2, 3)])
        bad = Partition.from_clusters([(4, 5), (0, 1), (2, 3)], 6)
        b = MemoryBudget(neuron_bytes=24 * 2, post_conn_bytes=3)
        assert [memory_cost(c, g, b, bad.cluster_of).fits
                for c in bad.clusters] == [True, False, True]
        with pytest.raises(ValueError, match="cluster 1 does not fit"):
            sss_refine(bad, g, b, seed=0, iters=10)

    def test_risen_record_is_empty_after_every_proposal(self, monkeypatch):
        # every proposal makes exactly four randrange draws, the first of
        # which starts it; the record is read there and after the last one
        states, at_start, at_check, moves = [], [], [], []

        class Recording(_SwapState):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

            def move(self, n, to):
                moves.append((n, to))
                super().move(n, to)

            def fits(self, c):
                at_check.append(len(self.risen))
                return super().fits(c)

        class Draws(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.draws = 0

            def randrange(self, *args):
                if self.draws % 4 == 0:
                    at_start.append(list(states[-1].risen))
                self.draws += 1
                return super().randrange(*args)

        n, p, seed = self.PINNED[0][0]
        g = loopy_graph(n, p, seed)
        b = MemoryBudget(neuron_bytes=24 * 6, post_conn_bytes=3 * 3)
        p0 = initial_partition(range(n), g, b)
        expected = sss_refine(p0, g, b, seed=seed, iters=200)
        monkeypatch.setattr(partition, "_SwapState", Recording)
        monkeypatch.setattr(partition.random, "Random", Draws)
        assert sss_refine(p0, g, b, seed=seed, iters=200) == expected
        assert at_start == [[]] * 200 and states[-1].risen == []
        # rows rose, and some proposals were undone, others kept: segments
        # are one neuron long, so a proposal is two moves and an undo two more
        assert max(at_check) > 0
        assert 200 < len(moves) // 2 < 400


class TestSwapState:
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1),
                                       st.integers(-5, 5)), max_size=60))))
    @settings(max_examples=150, deadline=None)
    def test_in_degrees_and_pres_match_a_reverse_adjacency(self, case):
        # self-loops and repeated synapses included
        n, edges = case
        adjacency = [[] for _ in range(n)]
        for pre, post, raw in edges:
            adjacency[pre].append((post, raw))
        g = SnnGraph(n, adjacency)
        assert list(g.in_degrees) == [sum(1 for _, post, _ in edges
                                          if post == nid) for nid in range(n)]
        # the predecessor lists as they were built from the reverse adjacency
        want = [[pre for pre, _ in r if pre != post]
                for post, r in enumerate(reverse_adjacency(g))]
        state = _SwapState(Partition.from_clusters([list(range(n))], n), g,
                           MemoryBudget())
        assert state.pres == want

    @given(st.integers(2, 16), st.floats(0.0, 0.4), st.integers(0, 10_000),
           st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bookkeeping_matches_recount(self, n, p, seed, k, data):
        g = loopy_graph(n, p, seed)
        b = MemoryBudget(neuron_bytes=24 * 4)
        of = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        part = Partition.from_clusters(
            [[x for x in range(n) if of[x] == c] for c in range(k)], n)
        state = _SwapState(part, g, b)
        moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, k - 1)),
                                   max_size=20))
        for step in range(len(moves) + 1):
            if step:
                state.move(*moves[step - 1])
            now = Partition.from_clusters(
                [[x for x in range(n) if state.cluster_of[x] == c]
                 for c in range(k)], n)
            assert state.j_total == destination_objective(now, g)
            for c, members in enumerate(now.clusters):
                cost = memory_cost(members, g, b, now.cluster_of)
                assert state.rows[c][k] == cost.post_conn_bytes // b.dest_entry_bytes
                assert state.in_syn[c] * b.bytes_per_synapse == cost.synapse_bytes

    @given(st.integers(2, 16), st.floats(0.0, 0.4), st.integers(0, 10_000),
           st.integers(1, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_count_matches_recount(self, n, p, seed, k, data):
        # the diagonal and self-loops too, which the objective never reads
        g = loopy_graph(n, p, seed)
        of = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        state = _SwapState(Partition.from_clusters(
            [[x for x in range(n) if of[x] == c] for c in range(k)], n), g,
            MemoryBudget())
        for n_moved, to in data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                max_size=20)):
            state.move(n_moved, to)
        want = [[0] * k for _ in range(k)]
        for pre, edges in enumerate(g.adjacency):
            for post, _ in edges:
                want[state.cluster_of[pre]][state.cluster_of[post]] += 1
        assert [row[:k] for row in state.rows] == want
        assert all(state.row_of[x] is state.rows[state.cluster_of[x]]
                   for x in range(n))


class TestMapClusters:
    def test_hilbert_placement_prefix(self):
        part = Partition.from_clusters([(0,), (1,), (2,)], 3)
        placement = map_clusters(part, 2, 2, policy="hilbert")
        assert placement == {(0, 0): (0,), (0, 1): (1,), (1, 1): (2,)}
        assert list(placement) == [(0, 0), (0, 1), (1, 1)]

    def test_row_major_placement(self):
        part = Partition.from_clusters([(0,), (1,), (2,)], 3)
        placement = map_clusters(part, 2, 2, policy="row-major")
        assert list(placement) == [(0, 0), (1, 0), (0, 1)]

    def test_adjacent_clusters_adjacent_cores(self):
        part = Partition.from_clusters([(i,) for i in range(16)], 16)
        cells = list(map_clusters(part, 4, 4, policy="hilbert"))
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_mesh_overflow_rejected(self):
        part = Partition.from_clusters([(0,), (1,), (2,)], 3)
        with pytest.raises(ValueError):
            map_clusters(part, 1, 2)
        with pytest.raises(ValueError):
            map_clusters(part, 2, 2, policy="diagonal")


@given(st.integers(6, 40), st.floats(0.02, 0.4), st.integers(0, 10_000),
       st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_initial_partition_properties(n, p, seed, cap):
    g = random_graph(n, p, seed)
    b = MemoryBudget(neuron_bytes=24 * cap)
    part = initial_partition(range(n), g, b)
    # exact cover
    assert sorted(x for c in part.clusters for x in c) == list(range(n))
    # every cluster fits
    for c in part.clusters:
        assert memory_cost(c, g, b, part.cluster_of).fits
