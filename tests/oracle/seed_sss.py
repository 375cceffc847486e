"""Segment-swap refinement before its fused moves, frozen as an oracle.

This is ``_SwapState`` and ``sss_refine`` from ``spikenoc/partition.py`` as
they were when each move walked a neuron's posts and pres twice (decrement
the old cluster, then increment the new one) and each proposal re-checked
every cluster feeding a moved neuron.  It is adapted only as far as
imports need.  Never optimise it: the package's ``sss_refine`` must return
exactly this one's clusters for every input that fits the budget.
"""

from __future__ import annotations

import math
import random

from spikenoc.graph import SnnGraph
from spikenoc.partition import MemoryBudget, Partition, check_sss_settings


class _SwapState:
    """Incremental bookkeeping for segment-swap proposals.

    ``rows[c][d]`` counts the synapses from members of cluster ``c`` to
    members of cluster ``d`` (``d == c`` included), and the extra last slot
    ``rows[c][k]`` counts the clusters ``d != c`` that ``c`` reaches, so the
    objective is the sum of those slots.  ``row_of[n]`` is the row of ``n``'s
    cluster, and ``in_syn[c]`` the incoming-synapse count of ``c``'s members.
    A move costs O(degree of the neuron), and a cluster's budget check is
    three integer comparisons against limits computed once.
    """

    def __init__(self, partition: Partition, graph: SnnGraph, budget: MemoryBudget):
        k = len(partition.clusters)
        self.k = k
        self.clusters = [list(c) for c in partition.clusters]
        self.cluster_of = list(partition.cluster_of)
        self.posts = [[post for post, _ in edges] for edges in graph.adjacency]
        # in ascending pre order; a self-loop counts once, as a post
        self.pres: list[list[int]] = [[] for _ in self.posts]
        for pre, posts in enumerate(self.posts):
            for post in posts:
                if post != pre:
                    self.pres[post].append(pre)
        self.in_degrees = graph.in_degrees
        self.syn_limit = budget.max_synapses
        self.size_limit = budget.neuron_capacity
        self.dest_limit = budget.max_dests
        self.rows = [[0] * (k + 1) for _ in range(k)]
        self.row_of = [self.rows[c] for c in self.cluster_of]
        self.in_syn = [0] * k
        for n, row in enumerate(self.row_of):
            self.in_syn[self.cluster_of[n]] += self.in_degrees[n]
            for d in map(self.cluster_of.__getitem__, self.posts[n]):
                row[d] += 1
        for c, row in enumerate(self.rows):
            row[k] = sum(1 for d in range(k) if d != c and row[d])
        self.j_total = sum(row[k] for row in self.rows)

    def move(self, n: int, to: int) -> None:
        cluster_of, row_of, k = self.cluster_of, self.row_of, self.k
        frm = cluster_of[n]
        posts, pres = self.posts[n], self.pres[n]
        src, dst = self.rows[frm], self.rows[to]
        j = self.j_total
        # Every decrement happens before the reassignment and every increment
        # after it, so a self-loop synapse leaves src and enters dst.
        for d in map(cluster_of.__getitem__, posts):
            v = src[d] - 1
            src[d] = v
            if not v and d != frm:
                src[k] -= 1
                j -= 1
        for row in map(row_of.__getitem__, pres):
            v = row[frm] - 1
            row[frm] = v
            if not v and row is not src:
                row[k] -= 1
                j -= 1
        cluster_of[n] = to
        row_of[n] = dst
        for d in map(cluster_of.__getitem__, posts):
            v = dst[d]
            dst[d] = v + 1
            if not v and d != to:
                dst[k] += 1
                j += 1
        for row in map(row_of.__getitem__, pres):
            v = row[to]
            row[to] = v + 1
            if not v and row is not dst:
                row[k] += 1
                j += 1
        self.j_total = j
        deg = self.in_degrees[n]
        self.in_syn[frm] -= deg
        self.in_syn[to] += deg

    def fits(self, affected) -> bool:
        """Whether every cluster in ``affected`` is within the budget."""
        rows, in_syn, clusters, k = self.rows, self.in_syn, self.clusters, self.k
        syn_limit, size_limit, dest_limit = \
            self.syn_limit, self.size_limit, self.dest_limit
        for c in affected:
            if (in_syn[c] > syn_limit or rows[c][k] > dest_limit
                    or len(clusters[c]) > size_limit):
                return False
        return True


def sss_refine(partition: Partition, graph: SnnGraph, budget: MemoryBudget,
               seed: int = 0, iters: int | None = None, t0: float | None = None,
               cooling: float = 0.995, seg_ratio: float = 0.1) -> Partition:
    """Stochastic segment swaps between clusters, annealed on the destination
    objective.

    Each proposal exchanges equal-length contiguous segments between two
    uniformly chosen clusters; it is accepted only if every cluster whose
    memory cost changed still fits the budget, and the objective change
    passes the usual Metropolis rule.  Returns the best partition observed.
    Settings outside their ranges raise ``ValueError`` (see
    ``check_sss_settings``).
    """
    check_sss_settings(iters, t0, cooling, seg_ratio)
    k = len(partition.clusters)
    if k < 2:
        return partition
    rng = random.Random(seed)
    state = _SwapState(partition, graph, budget)
    cluster_of, pres = state.cluster_of, state.pres
    min_size = min(len(c) for c in state.clusters)
    seg_len = max(1, min(min_size, math.floor(seg_ratio * min_size)))
    if iters is None:
        iters = 200 * k
    j0 = state.j_total
    if t0 is None:
        t0 = j0 / 10.0
    temp = float(t0)
    best_j = j0
    best = [list(c) for c in state.clusters]

    for _ in range(iters):
        a = rng.randrange(k)
        b = rng.randrange(k - 1)
        if b >= a:
            b += 1
        ca, cb = state.clusters[a], state.clusters[b]
        sa = rng.randrange(len(ca) - seg_len + 1)
        sb = rng.randrange(len(cb) - seg_len + 1)
        seg_a = ca[sa:sa + seg_len]
        seg_b = cb[sb:sb + seg_len]
        j_before = state.j_total
        for n in seg_a:
            state.move(n, b)
        for n in seg_b:
            state.move(n, a)
        ca[sa:sa + seg_len] = seg_b
        cb[sb:sb + seg_len] = seg_a
        dj = state.j_total - j_before

        # a, b and the clusters feeding a moved neuron: the only ones whose
        # memory cost can have changed
        affected = {a, b}
        for n in seg_a + seg_b:
            affected.update(map(cluster_of.__getitem__, pres[n]))
        accept = state.fits(affected)
        if accept and dj >= 0:
            if temp > 0.0:
                prob = math.exp(-dj / temp)
            else:
                prob = 1.0 if dj == 0 else 0.0
            accept = rng.random() < prob
        if accept:
            if state.j_total < best_j:
                best_j = state.j_total
                best = [list(c) for c in state.clusters]
        else:
            ca[sa:sa + seg_len] = seg_a
            cb[sb:sb + seg_len] = seg_b
            for n in seg_b:
                state.move(n, b)
            for n in seg_a:
                state.move(n, a)
        temp *= cooling

    return Partition.from_clusters(best, graph.neuron_count)
