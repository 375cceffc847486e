import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from spikenoc.artifact import ArtifactError, build_bundle
from spikenoc.core import (CoreState, CoreTiming, MODE_BASELINE,
                           MODE_UNISPIKE, SpikePacket, iter_bits)
from spikenoc.graph import SnnGraph, quantize_weight
from spikenoc.neurons import LifParams
from spikenoc.partition import MemoryBudget

A, B, C = (0, 0), (1, 0), (0, 1)
W = quantize_weight(1.0, 8)
MODEL = LifParams(tau_m=1.0, refractory_steps=0)


def make_core(adjacency, clusters, coords, which=0, mode=MODE_UNISPIKE,
              timing=None, n=None, overrides=None):
    n = n if n is not None else sum(len(c) for c in clusters)
    g = SnnGraph(n, adjacency, model=MODEL, model_overrides=overrides)
    cap = max(len(c) for c in clusters)
    bundle = build_bundle(g, dict(zip(coords, clusters)), 2, 2,
                          MemoryBudget(neuron_bytes=cap * 24))
    art = bundle.cores[which]
    params = [g.params_of(i) for i in art.neuron_ids]
    return CoreState(art, params, g.frac_bits, timing or CoreTiming(), mode)


def fanin_core(mode=MODE_UNISPIKE, timing=None):
    """Core B holds neurons 3..5; every A-neuron 0..2 feeds B-neuron i-3."""
    adjacency = [[(i + 3, W)] for i in range(3)] + [[], [], []]
    return make_core(adjacency, [(0, 1, 2), (3, 4, 5)], [A, B], which=1,
                     mode=mode, timing=timing)


def fanout_core(mode, timing=None, overrides=None):
    """Core A holds 0..2; B sees {0, 1} and C sees {0, 2}."""
    adjacency = [[(3, W), (5, W)], [(4, W)], [(5, W)], [], [], []]
    return make_core(adjacency, [(0, 1, 2), (3, 4), (5,)], [A, B, C],
                     which=0, mode=mode, timing=timing, overrides=overrides)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(1 << 40 | 1 << 3 | 1)) == [0, 3, 40]


def test_timing_validation():
    with pytest.raises(ValueError):
        CoreTiming(core_period_ps=0)
    with pytest.raises(ValueError):
        CoreTiming(max_body=0)
    with pytest.raises(ValueError, match="non-negative"):
        CoreTiming(decode_cycles_per_accum=-1)
    with pytest.raises(ValueError, match="non-negative"):
        CoreTiming(gen_cycles_per_flit=-1)
    # zero-cost decode and generation are legal machines
    CoreTiming(decode_cycles_per_accum=0, gen_cycles_per_flit=0)


def test_mode_validation():
    with pytest.raises(ValueError):
        fanin_core(mode="turbo")


def test_queue_must_hold_every_neuron_once():
    art = fanin_core().artifact
    for queue in ((0, 1), (0, 1, 1), (0, 1, 2, 0)):
        with pytest.raises(ArtifactError, match="permutation"):
            CoreState(replace(art, exec_queue=queue), [MODEL] * 3, 8,
                      CoreTiming(), MODE_UNISPIKE)


class TestDecode:
    def test_merged_equals_split(self):
        merged = fanin_core()
        split = fanin_core()
        merged.decode_packet(SpikePacket(A, B, 0, (0, 1, 2)))
        for i in range(3):
            split.decode_packet(SpikePacket(A, B, 0, (i,)))
        assert merged.acc == split.acc

    def test_accumulation_counts_synapses(self):
        core = fanin_core()
        assert core.decode_packet(SpikePacket(A, B, 0, (0, 2))) == 2

    def test_unknown_source_index_raises(self):
        # A-neurons 0 and 2 feed core B; neuron 1 feeds only its own core
        adjacency = [[(3, W)], [(0, W)], [(5, W)], [], [], []]
        core = make_core(adjacency, [(0, 1, 2), (3, 4, 5)], [A, B], which=1)
        assert [pairs is None for pairs in core.artifact.synapse_table[A]] \
            == [False, True, False]
        # a source core with no row here, indices past the end of A's row,
        # and a slot of A's row with no synapse
        for src, idx in ((C, 0), (A, 3), (A, 7), (A, 1)):
            with pytest.raises(ArtifactError, match=re.escape(
                    f"no synapses for {src} index {idx}")):
                core.decode_packet(SpikePacket(src, B, 0, (idx,)))

    def test_stimulus_indexed_by_local_index(self):
        core = fanin_core()   # holds global neurons 3, 4, 5
        core.load_stimulus([(1, 77)])   # global neuron 4
        assert core.acc == [0, 77, 0]


class TestGeneration:
    def test_merged_masks_by_connection(self):
        core = fanout_core(MODE_UNISPIKE)
        fired = 0b111                    # everyone fired
        [p] = core.generate_merged_packets(B, fired, timestep=1)
        assert p.indices == (0, 1)       # only 0 and 1 connect to B
        [p] = core.generate_merged_packets(C, fired, timestep=1)
        assert p.indices == (0, 2)

    def test_merged_empty_when_nothing_relevant_fired(self):
        core = fanout_core(MODE_UNISPIKE)
        fired = 0b100                    # neuron 2 fired; 2 -> B not connected
        assert core.generate_merged_packets(B, fired, timestep=0) == []

    def test_chunking_at_max_body(self):
        n = 20
        adjacency = [[(n, W)] for _ in range(n)] + [[]]
        core = make_core(adjacency, [tuple(range(n)), (n,)], [A, B],
                         which=0, timing=CoreTiming(max_body=16))
        packets = core.generate_merged_packets(B, (1 << n) - 1, timestep=0)
        assert [len(p.indices) for p in packets] == [16, 4]
        assert packets[0].indices == tuple(range(16))
        assert packets[1].indices == tuple(range(16, 20))
        assert packets[0].flit_count == 17


class TestRunTimestep:
    def test_busy_time_is_decode_plus_updates(self):
        core = fanin_core()
        res = core.run_core_timestep([], None, 0, t_start_ps=0)
        # no decode events: 3 updates x 4 cycles x 2000 ps
        assert res.busy_ps == 3 * 4 * 2000
        res = core.run_core_timestep([SpikePacket(A, B, 0, (0, 1))], None, 1, 0)
        assert res.busy_ps == (2 + 3 * 4) * 2000

    def test_job_creation_times_follow_update_order(self):
        core = fanout_core(MODE_BASELINE)
        stim = [(i, quantize_weight(2.0, 8)) for i in range(3)]
        res = core.run_core_timestep([], stim, 0, t_start_ps=1000)
        # stimulus costs no decode cycles, so neuron i (queue order 0, 1, 2)
        # fires at the (i+1)-th update: 1000 + (i+1)*4*2000
        times = sorted({j.create_ps for j in res.jobs})
        assert times == [1000 + 4 * 2000, 1000 + 8 * 2000, 1000 + 12 * 2000]

    def test_jobs_follow_queue_order_across_parameter_sets(self):
        # neuron 1 is stepped with its own parameter set, apart from 0 and 2,
        # but its jobs still sit between theirs in queue order
        core = fanout_core(MODE_BASELINE,
                           overrides={1: LifParams(tau_m=0.5,
                                                   refractory_steps=0)})
        assert core.artifact.exec_queue == (0, 1, 2)
        stim = [(i, quantize_weight(2.0, 8)) for i in range(3)]
        res = core.run_core_timestep([], stim, 0, t_start_ps=1000)
        assert [(j.create_ps, j.packet.indices, j.packet.dest)
                for j in res.jobs] == [
            (1000 + 4 * 2000, (0,), B), (1000 + 4 * 2000, (0,), C),
            (1000 + 8 * 2000, (1,), B), (1000 + 12 * 2000, (2,), C)]

    def test_fired_globals_sorted_and_offset(self):
        # arrivals handed to this call integrate in this call; the one-step
        # transit delay is the orchestrator's responsibility
        core = fanin_core()
        res = core.run_core_timestep([SpikePacket(A, B, 0, (2, 0))], None, 0, 0)
        assert res.fired_globals == [3, 5]
        res = core.run_core_timestep([], None, 1, 0)
        assert res.fired_globals == []

    def test_unispike_dispatches_at_barrier_even_if_barrier_silent(self):
        # only neuron 0 fires; the packet for B still leaves when the barrier
        # neuron (queue tail for B) updates
        core = fanout_core(MODE_UNISPIKE)
        stim = [(0, quantize_weight(2.0, 8))]
        res = core.run_core_timestep([], stim, 0, 0)
        assert res.fired_globals == [0]
        dests = {j.packet.dest: j.packet.indices for j in res.jobs}
        assert dests == {B: (0,), C: (0,)}

    def test_unispike_merges_simultaneous_fires(self):
        core = fanout_core(MODE_UNISPIKE)
        stim = [(i, quantize_weight(2.0, 8)) for i in range(3)]
        res = core.run_core_timestep([], stim, 0, 0)
        by_dest = {j.packet.dest: j.packet.indices for j in res.jobs}
        assert by_dest == {B: (0, 1), C: (0, 2)}
        assert len(res.jobs) == 2

    def test_baseline_sends_per_spike(self):
        core = fanout_core(MODE_BASELINE)
        stim = [(i, quantize_weight(2.0, 8)) for i in range(3)]
        res = core.run_core_timestep([], stim, 0, 0)
        # 0 reaches B and C, 1 reaches B, 2 reaches C
        assert len(res.jobs) == 4
        assert all(len(j.packet.indices) == 1 for j in res.jobs)

    def test_intra_core_spike_arrives_next_step(self):
        # 0 -> 1 inside one core: local fan-out is deferred one call
        adjacency = [[(1, W)], [], []]
        core = make_core(adjacency, [(0, 1), (2,)], [A, B], which=0)
        stim = [(0, quantize_weight(2.0, 8))]
        r0 = core.run_core_timestep([], stim, 0, 0)
        assert r0.fired_globals == [0]
        r1 = core.run_core_timestep([], None, 1, 0)
        assert r1.fired_globals == [1]
        # the local delivery costs one accumulation event in step 1
        assert r1.accum_events == 1
        r2 = core.run_core_timestep([], None, 2, 0)
        assert r2.fired_globals == []

    def test_accumulators_cleared_between_steps(self):
        core = fanin_core()
        res = core.run_core_timestep([SpikePacket(A, B, 0, (0,))], None, 0, 0)
        assert res.fired_globals == [3]
        res = core.run_core_timestep([], None, 1, 0)
        assert res.fired_globals == []   # drive does not linger


MESH = [(x, y) for y in range(2) for x in range(3)]


@st.composite
def deployments(draw):
    """Cluster sizes, an adjacency without self-loops and the clusters'
    cores on a 3x2 mesh."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    n = sum(sizes)
    adjacency = [sorted(draw(st.sets(st.integers(0, n - 1).filter(
        lambda post, pre=pre: post != pre), max_size=4))) for pre in range(n)]
    coords = draw(st.permutations(MESH))[:len(sizes)]
    return sizes, adjacency, coords


def brute_force_jobs(art, mode, timing, fired, t0):
    """A step's jobs as ``(create_ps, src, dest, indices)``, built from the
    bitmaps, the checking table and the queue positions: by creation time,
    then by row-major destination (baseline) or by checking-table entry and
    chunk (unispike)."""
    pos = {idx: p for p, idx in enumerate(art.exec_queue)}
    step_ps = timing.update_cycles * timing.core_period_ps

    def payload(dest):
        return [i for i in range(art.local_count)
                if art.conn_bitmaps[dest] >> i & 1 and i in fired]

    jobs = []
    if mode == MODE_BASELINE:
        for idx in sorted(fired, key=pos.get):
            for dest in sorted(art.conn_bitmaps, key=lambda c: (c[1], c[0])):
                if idx in payload(dest):
                    jobs.append((t0 + (pos[idx] + 1) * step_ps, art.coord,
                                 dest, (idx,)))
    else:
        for barrier in sorted(art.checking_table, key=pos.get):
            for dest in art.checking_table[barrier]:
                addrs = payload(dest)
                for i in range(0, len(addrs), timing.max_body):
                    jobs.append((t0 + (pos[barrier] + 1) * step_ps,
                                 art.coord, dest,
                                 tuple(addrs[i:i + timing.max_body])))
    return jobs


# neuron 0 and neuron 1 each reach two cores, and core A's one barrier
# releases both
FORKED = ([2, 1, 1], [[2, 3], [2, 3], [], []], [A, B, (2, 0)])


@settings(max_examples=60, deadline=None)
@given(deployment=deployments(), mode=st.sampled_from(
           [MODE_BASELINE, MODE_UNISPIKE]),
       max_body=st.integers(1, 3), decode=st.integers(0, 2),
       drives=st.lists(st.sets(st.integers(0, 19)), min_size=1, max_size=3))
@example(deployment=FORKED, mode=MODE_BASELINE, max_body=1, decode=1,
         drives=[{0, 1}])
@example(deployment=FORKED, mode=MODE_UNISPIKE, max_body=1, decode=1,
         drives=[{0, 1}, {1}])
def test_jobs_are_the_bitmaps_and_table_in_creation_order(
        deployment, mode, max_body, decode, drives):
    sizes, adjacency, coords = deployment
    n = sum(sizes)
    g = SnnGraph(n, [[(post, W) for post in posts] for posts in adjacency],
                 model=MODEL)
    ids = iter(range(n))
    clusters = [tuple(next(ids) for _ in range(k)) for k in sizes]
    bundle = build_bundle(g, dict(zip(coords, clusters)), 3, 2,
                          MemoryBudget(neuron_bytes=max(sizes) * 24))
    timing = CoreTiming(max_body=max_body, decode_cycles_per_accum=decode)
    period = timing.core_period_ps
    for art in bundle.cores:
        core = CoreState(art, [MODEL] * art.local_count, g.frac_bits, timing,
                         mode)
        local = {nid: i for i, nid in enumerate(art.neuron_ids)}
        for t, drive in enumerate(drives):
            stim = [(local[nid], quantize_weight(2.0, 8))
                    for nid in sorted(drive) if nid in local]
            t_start = 1000 * t
            res = core.run_core_timestep([], stim, t, t_start)
            fired = {local[nid] for nid in res.fired_globals}
            t0 = t_start + res.accum_events * decode * period
            assert [(j.create_ps, j.packet.src, j.packet.dest,
                     j.packet.indices) for j in res.jobs] == \
                brute_force_jobs(art, mode, timing, fired, t0)
            assert all(j.packet.timestep == t for j in res.jobs)


# core B holds 3..5 and hears A's 0..2 and C's 6, 7; 3 -> 4 -> 5 stay on B,
# so a fire of 3 or 4 sends B a self-packet next step; 5 feeds A, so B has
# jobs.  One input of weight 0.6 does not fire a neuron, two do.
H = quantize_weight(0.6, 8)
REPLAY_ADJ = ([[(3, H)], [(4, H)], [(5, H)], [(4, H)], [(5, H)], [(0, W)],
               [(3, H)], [(4, H)]])
SHORT = {A: (0, 1), C: (0,)}        # a source's addresses, one left over
EXTRA = {A: 2, C: 1}
VARIANTS = ("same", "more", "source", "reorder", "empty")


def replay_core(mode):
    g = SnnGraph(8, REPLAY_ADJ, model=MODEL)
    bundle = build_bundle(g, {A: (0, 1, 2), B: (3, 4, 5), C: (6, 7)}, 2, 2,
                          MemoryBudget(neuron_bytes=3 * 24))
    [art] = [c for c in bundle.cores if c.coord == B]
    return CoreState(art, [MODEL] * 3, g.frac_bits, CoreTiming(), mode)


def variant(base, kind, t):
    """``base``'s ``(src, indices)`` list as step ``t``'s packets, changed
    as ``kind`` says."""
    pairs = list(base)
    if kind == "empty":
        return []
    if kind == "more":
        src, indices = pairs[0]
        pairs[0] = (src, indices + (EXTRA[src],))
    elif kind == "source":
        src, indices = pairs[0]
        pairs[0] = (C if src == A else A, indices)
    elif kind == "reorder":
        pairs.reverse()
    return [SpikePacket(src, B, t, indices) for src, indices in pairs]


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from([MODE_BASELINE, MODE_UNISPIKE]),
       base=st.lists(st.sampled_from([A, C]).flatmap(
           lambda src: st.tuples(st.just(src), st.lists(
               st.sampled_from(SHORT[src]), min_size=1, unique=True).map(
                   tuple))), min_size=1, max_size=3),
       steps=st.lists(st.tuples(st.sampled_from(VARIANTS),
                                st.sampled_from([None, 2.0, -1.0])),
                      min_size=1, max_size=8))
@example(mode=MODE_UNISPIKE, base=[(A, (1,))],
         steps=[("same", None), ("same", -1.0), ("same", None),
                ("empty", None), ("same", 2.0), ("same", None),
                ("same", None)])
@example(mode=MODE_BASELINE, base=[(A, (0,)), (C, (0,))],
         steps=[("same", None), ("same", -1.0), ("reorder", None),
                ("reorder", -1.0), ("reorder", None)])
def test_replayed_decode_equals_a_fresh_one(mode, base, steps):
    # a fire on B (a positive drive, or a self-packet) changes the next
    # step's packets, a negative drive holds one back; the store must
    # follow every change and take no drive in
    core, fresh = replay_core(mode), replay_core(mode)
    calls = []
    decode = core.decode_packet
    core.decode_packet = lambda p: calls.append(p) or decode(p)
    stored = None       # the (src, indices) list of the last non-empty step
    for t, (kind, drive) in enumerate(steps):
        arrived = variant(base, kind, t)
        stim = [(0, quantize_weight(drive, 8))] if drive else None
        pairs = [(p.src, p.indices) for p in arrived + core.self_pending]
        replays = core.replayed
        calls.clear()
        res = core.run_core_timestep(arrived, stim, t, 10**6 * t)
        want = fresh.run_core_timestep(list(arrived), stim, t, 10**6 * t)
        fresh.memo = None
        assert res == want
        assert (core.v, core.w, core.refrac) == (fresh.v, fresh.w,
                                                 fresh.refrac)
        if pairs and pairs == stored:
            assert (core.replayed, calls) == (replays + 1, [])
        else:
            assert core.replayed == replays
            assert [(p.src, p.indices) for p in calls] == pairs
            stored = pairs or stored
    assert fresh.replayed == 0
