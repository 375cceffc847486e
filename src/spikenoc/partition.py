"""Deployment partitioning: budgeted clustering of neurons onto cores.

The pipeline is: order neurons along a locality-preserving curve, cut the
order greedily into clusters that fit the per-core memory budget, optionally
refine by annealed segment swaps that minimise the number of distinct remote
destination clusters, then place clusters onto mesh coordinates.  The result,
a ``Placement``, is the one form a deployment takes.  Of the network, it reads
each neuron's outgoing synapses and its incoming-synapse count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from functools import cached_property

from .graph import SnnGraph
from .hilbert import hilbert_cells, hilbert_index, order_for

Coord = tuple[int, int]
# core coord -> global neuron ids in local-index order
Placement = dict[Coord, tuple[int, ...]]

PLACEMENTS = ("hilbert", "row-major")


@dataclass(frozen=True)
class MemoryBudget:
    """Per-core SRAM budgets in bytes plus the cost coefficients.

    A destination entry stores a 2-byte core coordinate plus a connection
    bitmap over the core's neuron capacity, so its size follows from the
    neuron budget.  ``fits`` is the one rule for a cluster's counts: ``count
    * unit_bytes <= bytes`` holds exactly when ``count <= bytes // unit_bytes``.
    """

    synapse_bytes: int = 103168        # 100.75 KB
    neuron_bytes: int = 3072           # 3 KB
    post_conn_bytes: int = 33408       # 32.625 KB
    checking_table_bytes: int = 1152   # 1.125 KB
    bytes_per_synapse: int = 1
    bytes_per_neuron_state: int = 24

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:      # a bool or a float from JSON
                raise ValueError(f"{f.name} must be an integer")
            if value <= 0:
                raise ValueError(f"{f.name} must be positive")

    @cached_property
    def max_synapses(self) -> int:
        return self.synapse_bytes // self.bytes_per_synapse

    @cached_property
    def neuron_capacity(self) -> int:
        return self.neuron_bytes // self.bytes_per_neuron_state

    @cached_property
    def dest_entry_bytes(self) -> int:
        return 2 + (self.neuron_capacity + 7) // 8

    @cached_property
    def max_dests(self) -> int:
        return self.post_conn_bytes // self.dest_entry_bytes

    def fits(self, synapses: int, neurons: int, dests: int) -> bool:
        """Whether incoming synapses, neurons and remote destinations fit."""
        return (synapses <= self.max_synapses
                and neurons <= self.neuron_capacity
                and dests <= self.max_dests)


@dataclass(frozen=True)
class Partition:
    """Exact cover of all neurons by ordered clusters."""

    clusters: tuple[tuple[int, ...], ...]
    neuron_count: int
    cluster_of: tuple[int, ...]

    @staticmethod
    def from_clusters(clusters, neuron_count: int) -> "Partition":
        of = [-1] * neuron_count
        for ci, cluster in enumerate(clusters):
            for n in cluster:
                if not (0 <= n < neuron_count):
                    raise ValueError(f"neuron {n} out of range")
                if of[n] != -1:
                    raise ValueError(f"neuron {n} assigned twice")
                of[n] = ci
        missing = of.count(-1)
        if missing:
            raise ValueError(f"{missing} neurons left unassigned")
        return Partition(tuple(tuple(c) for c in clusters), neuron_count, tuple(of))


@dataclass(frozen=True)
class MemoryCost:
    synapse_bytes: int
    neuron_bytes: int
    post_conn_bytes: int
    fits: bool


def memory_cost(cluster, graph: SnnGraph, budget: MemoryBudget,
                cluster_of) -> MemoryCost:
    """Cost of one cluster under a complete assignment.

    ``cluster_of`` maps every neuron to its cluster index; the cluster's own
    index is taken from its first member.  Destination entries count distinct
    remote clusters only, since local fan-out lives in the core's own synapse
    table.
    """
    members = list(cluster)
    if not members:
        return MemoryCost(0, 0, 0, True)
    self_idx = cluster_of[members[0]]
    syn = sum(graph.in_degrees[n] for n in members)
    dests = set()
    for n in members:
        for post, _ in graph.posts(n):
            pc = cluster_of[post]
            if pc != self_idx:
                dests.add(pc)
    return MemoryCost(syn * budget.bytes_per_synapse,
                      len(members) * budget.bytes_per_neuron_state,
                      len(dests) * budget.dest_entry_bytes,
                      budget.fits(syn, len(members), len(dests)))


def hsfc_order(graph: SnnGraph) -> list[int]:
    """Locality order: (layer, curve index within the layer grid, channel).

    Neurons of a tagged graph that share a spatial position end up adjacent
    regardless of channel.  Untagged graphs keep id order.
    """
    if graph.layer_tags is None:
        return list(range(graph.neuron_count))
    dims: dict[int, tuple[int, int]] = {}
    for tag in graph.layer_tags:
        w, h = dims.get(tag.layer, (0, 0))
        dims[tag.layer] = (max(w, tag.x + 1), max(h, tag.y + 1))
    orders = {layer: order_for(w, h) for layer, (w, h) in dims.items()}

    def key(nid: int):
        t = graph.layer_tags[nid]
        return (t.layer, hilbert_index(t.x, t.y, orders[t.layer]), t.channel, nid)

    return sorted(range(graph.neuron_count), key=key)


def _greedy_cut(order, graph: SnnGraph, budget: MemoryBudget,
                cap_limit: int) -> list[list[int]]:
    # Destinations not yet assigned are estimated as one shared future entry;
    # the caller re-validates with the final assignment and tightens cap_limit
    # if the estimate was too optimistic.
    FUTURE = -1
    assigned: dict[int, int] = {}
    clusters: list[list[int]] = []
    cur: list[int] = []
    cur_syn = 0
    cur_dests: set[int] = set()

    def flush():
        nonlocal cur, cur_syn, cur_dests
        if cur:
            clusters.append(cur)
            cur = []
            cur_syn = 0
            cur_dests = set()

    for n in order:
        ci = len(clusters)
        add_syn = graph.in_degrees[n]
        trial = cur_dests | {assigned.get(post, FUTURE) for post, _ in graph.posts(n)}
        trial.discard(ci)
        ok = (len(cur) < cap_limit
              and budget.fits(cur_syn + add_syn, len(cur) + 1, len(trial)))
        if not ok and cur:
            flush()
            ci = len(clusters)
            trial = {assigned.get(post, FUTURE) for post, _ in graph.posts(n)}
            trial.discard(ci)
        cur.append(n)
        assigned[n] = ci
        cur_syn += add_syn
        cur_dests = trial
    flush()
    return clusters


def initial_partition(order, graph: SnnGraph, budget: MemoryBudget) -> Partition:
    """Greedy segmentation of the given neuron order under the budget."""
    order = list(order)
    if sorted(order) != list(range(graph.neuron_count)):
        raise ValueError("order must be a permutation of all neurons")
    for n in range(graph.neuron_count):
        has_remote = any(post != n for post, _ in graph.posts(n))
        if not budget.fits(graph.in_degrees[n], 1, int(has_remote)):
            raise ValueError(f"neuron {n} alone exceeds the memory budget")

    cap = max(1, budget.neuron_capacity)
    while True:
        clusters = _greedy_cut(order, graph, budget, cap)
        part = Partition.from_clusters(clusters, graph.neuron_count)
        bad = [ci for ci, c in enumerate(part.clusters)
               if not memory_cost(c, graph, budget, part.cluster_of).fits]
        if not bad:
            return part
        if cap == 1:
            raise ValueError(f"cluster of neuron {part.clusters[bad[0]][0]} cannot "
                             "be made to fit the budget")
        cap = max(1, cap // 2)


def destination_objective(partition: Partition, graph: SnnGraph) -> int:
    """Total over clusters of the number of distinct remote destination
    clusters; the quantity minimised by segment-swap refinement."""
    j = 0
    for ci, cluster in enumerate(partition.clusters):
        dests = set()
        for n in cluster:
            for post, _ in graph.posts(n):
                pc = partition.cluster_of[post]
                if pc != ci:
                    dests.add(pc)
        j += len(dests)
    return j


class _SwapState:
    """Incremental bookkeeping for segment-swap proposals.

    ``rows[c][d]`` counts the synapses from members of cluster ``c`` to
    members of cluster ``d`` (``d == c`` included), and the extra last slot
    ``rows[c][k]`` counts the clusters ``d != c`` that ``c`` reaches, so the
    objective is the sum of those slots.  ``row_of[n]`` is the row of ``n``'s
    cluster, and ``in_syn[c]`` the incoming-synapse count of ``c``'s members.
    ``others[n]`` lists ``n``'s posts other than ``n`` itself and ``loops[n]``
    counts its self-loop synapses; ``pres[n]`` lists its pres other than
    itself.  A move costs one pass over each of those lists, and a cluster's
    budget check is three integer comparisons against limits computed once.

    ``risen`` records each row whose destination slot rose from 0 because a
    moved neuron's pre now reaches a new cluster.  Sizes never change and
    synapse counts change only in the two clusters that swap, so in a state
    that fitted before a swap, a cluster outside that pair can be over budget
    afterwards only if its row is in ``risen``.  The caller clears it.
    """

    def __init__(self, partition: Partition, graph: SnnGraph, budget: MemoryBudget):
        k = len(partition.clusters)
        self.k = k
        self.clusters = [list(c) for c in partition.clusters]
        self.cluster_of = list(partition.cluster_of)
        posts = [[post for post, _ in edges] for edges in graph.adjacency]
        self.others = [[post for post in p if post != n]
                       for n, p in enumerate(posts)]
        self.loops = [len(p) - len(o) for p, o in zip(posts, self.others)]
        # in ascending pre order; self-loops are counted in loops only
        self.pres: list[list[int]] = [[] for _ in posts]
        for pre, others in enumerate(self.others):
            for post in others:
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
            for d in map(self.cluster_of.__getitem__, posts[n]):
                row[d] += 1
        for c, row in enumerate(self.rows):
            row[k] = sum(1 for d in range(k) if d != c and row[d])
        self.j_total = sum(row[k] for row in self.rows)
        self.risen: list[list[int]] = []

    def move(self, n: int, to: int) -> None:
        """Reassign ``n`` to cluster ``to`` and update every count.

        Each pass walks its list once and moves two counts per synapse.  When
        ``to`` differs from ``n``'s cluster, the posts pass lowers row ``src``
        and raises row ``dst``, two different rows, and the pres pass lowers
        column ``frm`` and raises column ``to``, two different columns; so in
        a pass each count only falls or only rises, a decrement can only
        reach 0 and an increment only leave it.  A count that one pass lowers
        and the other raises ends where the same steps in any order leave it,
        with its destination slot set by whether it ends nonzero.  When ``to``
        is ``n``'s own cluster, every decrement is undone by the increment
        that follows it.
        """
        cluster_of, row_of, k = self.cluster_of, self.row_of, self.k
        frm = cluster_of[n]
        src, dst = self.rows[frm], self.rows[to]
        j = self.j_total
        for d in map(cluster_of.__getitem__, self.others[n]):
            v = src[d] - 1
            src[d] = v
            if not v and d != frm:
                src[k] -= 1
                j -= 1
            v = dst[d]
            dst[d] = v + 1
            if not v and d != to:
                dst[k] += 1
                j += 1
        # a self-loop synapse leaves src's diagonal and enters dst's
        loops = self.loops[n]
        src[frm] -= loops
        dst[to] += loops
        risen = self.risen
        for row in map(row_of.__getitem__, self.pres[n]):
            v = row[frm] - 1
            row[frm] = v
            if not v and row is not src:
                row[k] -= 1
                j -= 1
            v = row[to]
            row[to] = v + 1
            if not v and row is not dst:
                row[k] += 1
                j += 1
                risen.append(row)
        cluster_of[n] = to
        row_of[n] = dst
        self.j_total = j
        deg = self.in_degrees[n]
        self.in_syn[frm] -= deg
        self.in_syn[to] += deg

    def fits(self, c: int) -> bool:
        """Whether cluster ``c`` is within the budget."""
        return (self.in_syn[c] <= self.syn_limit
                and self.rows[c][self.k] <= self.dest_limit
                and len(self.clusters[c]) <= self.size_limit)


def check_sss_settings(iters: int | None, t0: float | None, cooling: float,
                       seg_ratio: float) -> None:
    """Raise ``ValueError`` for refinement settings outside their ranges.

    ``None`` selects the default ``iters`` or ``t0``; ``cooling = 0`` is a
    quench after the first proposal.
    """
    if iters is not None and iters < 0:
        raise ValueError(f"sss_iters must be non-negative; got {iters}")
    if t0 is not None and not 0.0 <= t0 < math.inf:
        raise ValueError(f"sss_t0 must be finite and non-negative; got {t0}")
    if not 0.0 <= cooling <= 1.0:
        raise ValueError(f"sss_cooling must be in [0, 1]; got {cooling}")
    if not 0.0 < seg_ratio <= 1.0:
        raise ValueError(f"seg_ratio must be in (0, 1]; got {seg_ratio}")


def sss_refine(partition: Partition, graph: SnnGraph, budget: MemoryBudget,
               seed: int = 0, iters: int | None = None, t0: float | None = None,
               cooling: float = 0.995, seg_ratio: float = 0.1) -> Partition:
    """Stochastic segment swaps between clusters, annealed on the destination
    objective.

    Each proposal exchanges equal-length contiguous segments between two
    uniformly chosen clusters; it is accepted only if every cluster still
    fits the budget, and the objective change passes the usual Metropolis
    rule.  Returns the best partition observed.

    The starting partition must fit the budget, as ``initial_partition``'s
    always does; otherwise ``ValueError`` names the first cluster that does
    not.  Accepted swaps fit and rejected ones are undone, so every proposal
    starts from a state that fits, and only the two swapping clusters and the
    rows in ``_SwapState.risen`` need checking after a swap.  Settings
    outside their ranges raise ``ValueError`` (see ``check_sss_settings``).
    """
    check_sss_settings(iters, t0, cooling, seg_ratio)
    k = len(partition.clusters)
    state = _SwapState(partition, graph, budget)
    for c in range(k):
        if not state.fits(c):
            raise ValueError(f"cluster {c} does not fit the memory budget; "
                             "refinement starts from a partition that fits")
    if k < 2:
        return partition
    rng = random.Random(seed)
    risen, dest_limit = state.risen, state.dest_limit
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

        # a and b may have changed in every count, any other cluster only in
        # its destination count, and that rose only if its row is in risen
        accept = (state.fits(a) and state.fits(b)
                  and not any(row[k] > dest_limit for row in risen))
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
        risen.clear()
        temp *= cooling

    return Partition.from_clusters(best, graph.neuron_count)


def map_clusters(partition: Partition, mesh_width: int, mesh_height: int,
                 policy: str = "hilbert") -> Placement:
    """Place clusters onto mesh coordinates in curve or row-major order, so
    that clusters adjacent in the partition land on nearby cores."""
    k = len(partition.clusters)
    if mesh_width < 1 or mesh_height < 1:
        raise ValueError("mesh dimensions must be positive")
    if k > mesh_width * mesh_height:
        raise ValueError(f"{k} clusters exceed {mesh_width}x{mesh_height} mesh")
    if policy not in PLACEMENTS:
        raise ValueError(f"unknown placement policy {policy!r}")
    if policy == "hilbert":
        cells = hilbert_cells(mesh_width, mesh_height)
    else:
        cells = [(x, y) for y in range(mesh_height) for x in range(mesh_width)]
    return dict(zip(cells, partition.clusters))
