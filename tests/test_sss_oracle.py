"""Differential test: segment-swap refinement against its frozen form.

``tests/oracle/seed_sss.py`` is ``sss_refine`` as it was when each move
walked a neuron's posts and pres twice and each proposal re-checked every
cluster feeding a moved neuron.  Every draw, accept and undo must be the
same, so the returned clusters must be equal on graphs with self-loops and
duplicate synapses, under destination budgets tight enough to reject swaps.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from oracle.seed_sss import sss_refine as seed_sss_refine
from spikenoc.graph import build_brunel
from spikenoc.partition import (MemoryBudget, hsfc_order, initial_partition,
                                memory_cost, sss_refine)
from test_partition import loopy_graph


@given(n=st.integers(4, 28), p=st.floats(0.0, 0.15),
       graph_seed=st.integers(0, 10_000), capacity=st.integers(1, 6),
       dests=st.integers(1, 4), shuffled=st.booleans(),
       seg_ratio=st.sampled_from([0.1, 0.5, 1.0]),
       t0=st.sampled_from([None, 0.0, 2.0]),
       cooling=st.sampled_from([0.0, 0.9, 1.0]),
       seed=st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_refinement_matches_seed_refinement(n, p, graph_seed, capacity, dests,
                                            shuffled, seg_ratio, t0, cooling,
                                            seed):
    g = loopy_graph(n, p, graph_seed)
    # capacities up to 8 give 3-byte destination entries
    b = MemoryBudget(neuron_bytes=24 * capacity, post_conn_bytes=3 * dests)
    order = list(range(n))
    if shuffled:
        random.Random(graph_seed).shuffle(order)
    try:
        p0 = initial_partition(order, g, b)
    except ValueError:
        assume(False)   # no partition of this graph fits the budget
    kwargs = dict(seed=seed, iters=120, t0=t0, cooling=cooling,
                  seg_ratio=seg_ratio)
    p1 = sss_refine(p0, g, b, **kwargs)
    assert p1.clusters == seed_sss_refine(p0, g, b, **kwargs).clusters
    for c in p1.clusters:
        assert memory_cost(c, g, b, p1.cluster_of).fits


def test_default_schedule_matches_on_a_brunel_graph():
    # the size-scaled defaults, on dense random traffic with no budget pressure
    g = build_brunel(96, 24, conn_prob=0.1, seed=3)
    b = MemoryBudget(neuron_bytes=8 * 24)
    p0 = initial_partition(hsfc_order(g), g, b)
    assert sss_refine(p0, g, b, seed=3).clusters == \
        seed_sss_refine(p0, g, b, seed=3).clusters
