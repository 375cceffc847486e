"""Differential test: the mesh model against the seed simulator's.

``tests/oracle/seed_noc.py`` is the first ``noc.py``: full-scan arbitration
and one object per flit.  The golden digests pin a few configurations; these
tests pin arbitration order, VC choice, generator timing and credit timing
on random meshes, buffer settings and multi-step job sets, and on the
traffic that whole Brunel and conv runs generate.  The seed simulator has no
step memo, so it also pins every replayed step.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle.seed_noc import DeadlockError as SeedDeadlockError
from oracle.seed_noc import NocSim as SeedNocSim
from spikenoc import noc, system
from spikenoc.core import (CoreTiming, GenJob, MODE_BASELINE, MODE_UNISPIKE,
                           SpikePacket)
from spikenoc.graph import ConvLayerSpec, build_brunel, build_conv_topology
from spikenoc.noc import DeadlockError, MeshConfig, NocSim
from spikenoc.partition import MemoryBudget
from spikenoc.stimulus import StimulusSpec, build_stimulus


def random_step(rng, cfg, timestep, count, max_body, spread_ps):
    """Jobs with ``create_ps`` relative to the step's start."""
    jobs_by_core = {}
    for _ in range(count):
        src = (rng.randrange(cfg.width), rng.randrange(cfg.height))
        dest = src
        while dest == src:
            dest = (rng.randrange(cfg.width), rng.randrange(cfg.height))
        packet = SpikePacket(src, dest, timestep,
                             tuple(range(rng.randint(1, max_body))))
        jobs_by_core.setdefault(src, []).append(
            GenJob(rng.randrange(spread_ps), packet))
    return jobs_by_core


def random_steps(rng, cfg, nsteps, max_body):
    """``nsteps`` steps of random jobs, each starting exactly at the last
    drain, some cycles later or some time before it."""
    steps = []
    for t in range(nsteps):
        gap_ps = rng.choice([0, rng.randrange(1, 40000),
                             -rng.randrange(1, 10**6)])
        jobs = random_step(rng, cfg, t, rng.randint(1, 30), max_body,
                           rng.choice([1, 5000, 40000]))
        steps.append((gap_ps, jobs))
    return steps


def run_steps(sim, steps, after_step=None, before_step=None):
    """Run each ``(gap_ps, jobs)`` step ``gap_ps`` after the previous drain
    (a negative gap starts it before that drain, but no earlier than 0),
    calling ``before_step(jobs, start_ps)`` before each and ``after_step()``
    after each; returns per-step (delivered ids and times, drain,
    generator-done)."""
    out = []
    start_ps = 0
    for t, (gap_ps, jobs_by_core) in enumerate(steps):
        start_ps = max(0, start_ps + gap_ps)
        jobs = {c: [GenJob(j.create_ps + start_ps, j.packet) for j in js]
                for c, js in jobs_by_core.items()}
        if before_step is not None:
            before_step(jobs, start_ps)
        delivered, start_ps, gen_done = sim.run_timestep(jobs, start_ps, t)
        out.append(([(id(p), ps) for p, ps in delivered], start_ps, gen_done))
        if after_step is not None:
            after_step()
    return out


class TestSeedOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(1, 5), height=st.integers(1, 5),
           vcs=st.integers(1, 4), depth=st.integers(1, 4),
           pipeline=st.integers(1, 3), link=st.integers(1, 3),
           gen_cycles=st.integers(0, 3), queue=st.integers(1, 6),
           max_body=st.integers(1, 16), nsteps=st.integers(1, 4),
           traced=st.booleans())
    # the tightest buffers: one VC, one flit deep, one queued packet; a
    # grant traces its flit only on the traced path, so run both
    @example(seed=7, width=3, height=3, vcs=1, depth=1, pipeline=1, link=1,
             gen_cycles=0, queue=1, max_body=16, nsteps=3, traced=True)
    @example(seed=7, width=3, height=3, vcs=1, depth=1, pipeline=1, link=1,
             gen_cycles=0, queue=1, max_body=16, nsteps=3, traced=False)
    def test_matches_seed_simulator(self, seed, width, height, vcs, depth,
                                    pipeline, link, gen_cycles, queue,
                                    max_body, nsteps, traced):
        if width * height < 2:
            width = 2
        cfg = MeshConfig(width, height, vcs=vcs, vc_buffer_depth=depth,
                         router_pipeline_cycles=pipeline, link_cycles=link)
        timing = CoreTiming(gen_cycles_per_flit=gen_cycles,
                            output_queue_packets=queue)
        steps = random_steps(random.Random(seed), cfg, nsteps, max_body)

        head_records, head_trace = [], [] if traced else None
        head = run_steps(NocSim(cfg, timing, head_records, head_trace), steps)
        seed_records, seed_trace = [], [] if traced else None
        want = run_steps(SeedNocSim(cfg, timing, seed_records, seed_trace),
                         steps)
        assert head == want
        assert head_records == seed_records
        assert head_trace == seed_trace

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(1, 5), height=st.integers(1, 5),
           vcs=st.integers(1, 3), depth=st.integers(1, 3),
           max_body=st.integers(1, 16), nsteps=st.integers(2, 5))
    def test_record_list_cleared_between_steps(self, seed, width, height,
                                               vcs, depth, max_body, nsteps):
        # a caller may keep only the step's records: pids still count on
        if width * height < 2:
            width = 2
        cfg = MeshConfig(width, height, vcs=vcs, vc_buffer_depth=depth)
        steps = random_steps(random.Random(seed), cfg, nsteps, max_body)
        records, kept = [], []

        def keep_step():
            kept.extend(records)
            records.clear()

        head = run_steps(NocSim(cfg, CoreTiming(), records), steps, keep_step)
        seed_records = []
        want = run_steps(SeedNocSim(cfg, CoreTiming(), seed_records), steps)
        assert head == want
        assert kept == seed_records

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(2, 4), height=st.integers(1, 4),
           vcs=st.integers(1, 3), depth=st.integers(1, 3),
           pipeline=st.integers(1, 3), link=st.integers(1, 4),
           watchdog=st.integers(1, 3), nsteps=st.integers(1, 3))
    def test_watchdog_matches_seed_simulator(self, seed, width, height, vcs,
                                             depth, pipeline, link, watchdog,
                                             nsteps):
        # a watchdog shorter than the pipeline or the link fires on many of
        # these meshes: both models must then stop at the same cycle
        cfg = MeshConfig(width, height, vcs=vcs, vc_buffer_depth=depth,
                         router_pipeline_cycles=pipeline, link_cycles=link,
                         watchdog_cycles=watchdog)
        steps = random_steps(random.Random(seed), cfg, nsteps, 8)
        outcomes = []
        for sim_class in (NocSim, SeedNocSim):
            records, trace = [], []
            try:
                out = run_steps(sim_class(cfg, CoreTiming(), records, trace),
                                steps)
            except (DeadlockError, SeedDeadlockError) as err:
                outcomes.append(str(err))
            else:
                outcomes.append((out, records, trace))
        assert outcomes[0] == outcomes[1]


class TestInterfacesStartFresh:
    """No interface time outlives its step, so only the routers' pointers
    carry over."""

    def test_step_starting_before_the_last_drain(self):
        # four long packets leave (0,0)'s one-packet queue late; a step
        # started at 0 again must not wait for that queue's last room
        cfg = MeshConfig(3, 1, vcs=1, vc_buffer_depth=1)
        timing = CoreTiming(output_queue_packets=1)
        outs = []
        for sim_class in (NocSim, SeedNocSim):
            records = []
            sim = sim_class(cfg, timing, records)
            _, drain_ps, _ = sim.run_timestep({(0, 0): [GenJob(0, SpikePacket(
                (0, 0), (2, 0), 0, tuple(range(8)))) for _ in range(4)]}, 0, 0)
            assert drain_ps == 931_250
            delivered, drain_ps, gen_done = sim.run_timestep({(0, 0): [GenJob(
                0, SpikePacket((0, 0), (2, 0), 1, (0,)))]}, 0, 1)
            outs.append(([(p.indices, ps) for p, ps in delivered], drain_ps,
                         gen_done, records))
        assert outs[0] == outs[1]
        assert outs[0][3][-1].inject_ps == 6250

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(2, 4), height=st.integers(1, 3),
           queue=st.integers(1, 3), nsteps=st.integers(1, 4))
    def test_late_interface_times_change_nothing(self, seed, width, height,
                                                 queue, nsteps):
        cfg = MeshConfig(width, height, vcs=1, vc_buffer_depth=1)
        timing = CoreTiming(output_queue_packets=queue)
        steps = random_steps(random.Random(seed), cfg, nsteps, 8)
        records, want_records = [], []
        sim = NocSim(cfg, timing, records)

        def make_late(_jobs, start_ps):
            for ni in sim.nis:
                ni.room_ps = ni.gen_busy_until = start_ps + 10**9

        head = run_steps(sim, steps, before_step=make_late)
        want = run_steps(NocSim(cfg, timing, want_records), steps)
        assert head == want
        assert records == want_records


def repeating_steps(rng, cfg, nsteps, max_body):
    """``nsteps`` steps, most repeating one of two job sets or a variant of
    one, some empty and some fresh; each starts at the last drain, a whole
    number of NoC periods before or after it, or some picoseconds off the NoC
    clock."""
    bases = [random_step(rng, cfg, 0, rng.randint(1, 12), max_body,
                         rng.choice([1, 5000, 40000])) for _ in range(2)]
    steps = []
    for t in range(nsteps):
        gap_ps = rng.choice([0, rng.randint(1, 4) * cfg.noc_period_ps,
                             -rng.randint(1, 100) * cfg.noc_period_ps,
                             rng.randrange(1, 40000)])
        draw = rng.random()
        if draw < 0.15:
            jobs = {}
        elif draw < 0.25:
            jobs = random_step(rng, cfg, t, rng.randint(1, 12), max_body, 5000)
        else:
            base = bases[draw < 0.4]
            # now and then the same packets created later, or carrying one
            # more address, or stopping where their XY route turns
            late_ps = rng.choice([1, 2000]) if draw > 0.9 else 0
            extra = (0,) if 0.85 < draw <= 0.9 else ()
            turn = 0.8 < draw <= 0.85
            jobs = {}
            for c, js in base.items():
                for j in js:
                    dest = j.packet.dest
                    if turn and dest[0] != c[0]:
                        dest = (dest[0], c[1])
                    # a fresh packet stamped with this step, as cores make
                    jobs.setdefault(c, []).append(GenJob(
                        j.create_ps + late_ps,
                        SpikePacket(c, dest, t, j.packet.indices + extra)))
        steps.append((gap_ps, jobs))
    return steps


def mesh_state(sim):
    """What a step leaves behind besides its outputs: the routers' pointers,
    since interfaces start every step fresh."""
    return [r.rr.copy() for r in sim.routers]


def simulated_states(cfg, timing, steps):
    """The mesh state each step leaves on a mesh that drops its memo after
    every step, and so simulates them all."""
    sim = NocSim(cfg, timing)
    states = []

    def forget():
        sim.memo = None
        states.append(mesh_state(sim))

    run_steps(sim, steps, forget)
    assert sim.replayed == 0
    return states


def memo_key(sim, jobs_by_core, start_ps):
    """A step's jobs, as the memo compares them, and its full key."""
    jobs = tuple((c, tuple((j.create_ps - start_ps, j.packet.dest,
                            j.packet.indices) for j in js))
                 for c, js in sorted(jobs_by_core.items(),
                                     key=lambda kv: (kv[0][1], kv[0][0]))
                 if js)
    rr = tuple(tuple(r.rr) for r in sim.routers)
    return jobs, (jobs, start_ps % sim.cfg.noc_period_ps, rr)


def run_watched(sim, steps):
    """``run_steps`` on ``sim``, and per step: whether the memo rule says it
    replays, whether ``sim`` replayed it, its router-tick and
    interface-step calls, and the mesh state it left."""
    calls = [0]
    tick, step = noc._Router.tick, noc._Ni.step

    def counted_tick(router, cycle, mesh):
        calls[0] += 1
        return tick(router, cycle, mesh)

    def counted_step(ni, cycle, mesh):
        calls[0] += 1
        return step(ni, cycle, mesh)

    stored = prev_jobs = None
    seen = []

    def watch(jobs_by_core, start_ps):
        nonlocal stored, prev_jobs
        step_jobs, key = memo_key(sim, jobs_by_core, start_ps)
        expect = bool(step_jobs) and key == stored
        if step_jobs and not expect and step_jobs == prev_jobs:
            stored = key        # second sight: this step is stored
        if step_jobs:
            prev_jobs = step_jobs
        seen.append([expect, sim.replayed])
        calls[0] = 0

    def after():
        seen[-1][1] = sim.replayed > seen[-1][1]
        seen[-1] += [calls[0], mesh_state(sim)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noc._Router, "tick", counted_tick)
        mp.setattr(noc._Ni, "step", counted_step)
        out = run_steps(sim, steps, after, before_step=watch)
    return out, seen


class TestStepReplay:
    """A step is replayed exactly when the memo rule says so, costs no
    router tick or interface step, leaves the mesh as simulating it would,
    and matches the seed simulator."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.integers(1, 4), height=st.integers(1, 4),
           vcs=st.integers(1, 3), depth=st.integers(1, 3),
           pipeline=st.integers(1, 3), link=st.integers(1, 2),
           gen_cycles=st.integers(0, 2), queue=st.integers(1, 4),
           max_body=st.integers(1, 8), nsteps=st.integers(2, 10),
           traced=st.booleans())
    @example(seed=3, width=3, height=3, vcs=1, depth=1, pipeline=1, link=1,
             gen_cycles=0, queue=1, max_body=8, nsteps=10, traced=True)
    @example(seed=3, width=3, height=3, vcs=1, depth=1, pipeline=1, link=1,
             gen_cycles=0, queue=1, max_body=8, nsteps=10, traced=False)
    def test_replay_matches_seed_simulator(self, seed, width, height, vcs,
                                           depth, pipeline, link, gen_cycles,
                                           queue, max_body, nsteps, traced):
        if width * height < 2:
            width = 2
        cfg = MeshConfig(width, height, vcs=vcs, vc_buffer_depth=depth,
                         router_pipeline_cycles=pipeline, link_cycles=link)
        timing = CoreTiming(gen_cycles_per_flit=gen_cycles,
                            output_queue_packets=queue)
        steps = repeating_steps(random.Random(seed), cfg, nsteps, max_body)

        head_records, head_trace = [], [] if traced else None
        head, seen = run_watched(NocSim(cfg, timing, head_records, head_trace),
                                 steps)
        for expect, replayed, calls, _ in seen:
            assert replayed == expect
            if replayed:
                assert calls == 0
        assert [state for *_, state in seen] == \
            simulated_states(cfg, timing, steps)
        seed_records, seed_trace = [], [] if traced else None
        want = run_steps(SeedNocSim(cfg, timing, seed_records, seed_trace),
                         steps)
        assert head == want
        assert head_records == seed_records
        assert head_trace == seed_trace

    @pytest.mark.parametrize("traced", [False, True])
    def test_repeated_step_is_replayed(self, traced):
        # one packet takes VC 0 and sets the same pointers from any start,
        # so from its third sight on the step is replayed; an empty step
        # leaves the memo be, and a packet sent elsewhere, with another
        # address, created later or off the NoC clock is not the stored step
        cfg = MeshConfig(3, 3, vcs=1, vc_buffer_depth=1)
        timing = CoreTiming(output_queue_packets=1)
        period = cfg.noc_period_ps
        plan = [(0, 700, (2, 1), 3), (0, 700, (2, 1), 3),
                (3 * period, 700, (2, 1), 3), (5, None, None, 0),
                (0, 700, (2, 1), 3), (period, 700, (2, 1), 3),
                (0, 700, (2, 0), 3), (0, 700, (2, 1), 4),
                (0, 701, (2, 1), 3), (3, 700, (2, 1), 3)]
        steps = [(gap, {} if dest is None else {(0, 0): [GenJob(
                     create_ps, SpikePacket((0, 0), dest, t,
                                            tuple(range(body))))]})
                 for t, (gap, create_ps, dest, body) in enumerate(plan)]
        records, trace = [], [] if traced else None
        sim = NocSim(cfg, timing, records, trace)
        head, seen = run_watched(sim, steps)
        assert [(replayed, calls) for _, replayed, calls, _ in seen
                if replayed] == [(True, 0)] * 3
        assert [replayed for _, replayed, _, _ in seen] == \
            [False, False, True, False, True, True, False, False, False, False]
        assert [state for *_, state in seen] == \
            simulated_states(cfg, timing, steps)
        want_records, want_trace = [], [] if traced else None
        assert head == run_steps(SeedNocSim(cfg, timing, want_records,
                                            want_trace), steps)
        assert (records, trace) == (want_records, want_trace)

    def test_replay_moves_the_round_robin_pointers(self):
        # on this mesh the step flips router (1,2)'s south pointer between
        # two values; the copy created 1 ps later flips it back without
        # being stored, so the next step replays one that moves a pointer
        cfg = MeshConfig(2, 4, vcs=2, vc_buffer_depth=2)
        flows = [((1, 0), (1, 2), 1), ((1, 0), (1, 3), 1), ((1, 0), (0, 3), 3),
                 ((1, 1), (0, 1), 2), ((1, 1), (0, 3), 3), ((1, 1), (0, 1), 1),
                 ((1, 1), (1, 3), 4), ((0, 2), (0, 0), 2), ((0, 2), (1, 3), 2),
                 ((0, 2), (0, 1), 1), ((1, 3), (1, 2), 1), ((1, 3), (1, 1), 4),
                 ((0, 1), (1, 3), 4)]
        steps = []
        for t, late_ps in enumerate([0, 0, 1, 0, 0]):
            jobs = {}
            for src, dest, body in flows:
                jobs.setdefault(src, []).append(GenJob(late_ps, SpikePacket(
                    src, dest, t, tuple(range(body)))))
            steps.append((0, jobs))
        head, seen = run_watched(NocSim(cfg, CoreTiming()), steps)
        assert [replayed for _, replayed, _, _ in seen] == \
            [False, False, False, True, False]
        rr_before, rr_after = seen[2][3], seen[3][3]
        assert rr_before != rr_after
        assert [state for *_, state in seen] == \
            simulated_states(cfg, CoreTiming(), steps)
        assert head == run_steps(SeedNocSim(cfg, CoreTiming()), steps)


def small_network(kind, seed):
    if kind == "brunel":
        return build_brunel(24, 6, conn_prob=0.2, w_exc=0.4, w_inh=-0.3,
                            seed=seed)
    return build_conv_topology([ConvLayerSpec(1, 4, 4),
                                ConvLayerSpec(2, 4, 4, kernel=3, padding=1)],
                               seed=seed, w_lo=0.3, w_hi=0.6)


class TestSeedOracleOnRealTraffic:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), kind=st.sampled_from(["brunel", "conv"]),
           mode=st.sampled_from([MODE_BASELINE, MODE_UNISPIKE]),
           width=st.integers(2, 4), height=st.integers(2, 4),
           vcs=st.integers(1, 4), depth=st.integers(1, 4),
           max_body=st.integers(1, 16), queue=st.integers(1, 8))
    def test_run_matches_seed_simulator(self, seed, kind, mode, width, height,
                                        vcs, depth, max_body, queue):
        graph = small_network(kind, seed)
        per_core = math.ceil(graph.neuron_count / (width * height))
        cfg = system.SystemConfig(
            mesh=MeshConfig(width, height, vcs=vcs, vc_buffer_depth=depth),
            timing=CoreTiming(max_body=max_body, output_queue_packets=queue),
            budget=MemoryBudget(neuron_bytes=24 * per_core),
            stimulus=StimulusSpec(kind="poisson", amplitude=20.0, rate=0.3,
                                  seed=seed),
            timesteps=8, partitioner="hsfc", mode=mode)
        stim = build_stimulus(cfg.stimulus, graph.neuron_count, cfg.timesteps,
                              graph.frac_bits)
        bundle = system.deploy(graph, cfg)
        head_trace: list = []
        head_records: list = []
        head = system.run_experiment(bundle, cfg, stim,
                                     trace_sink=head_trace.extend,
                                     packet_sink=head_records.extend)
        want_trace: list = []
        want_records: list = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(system, "NocSim", SeedNocSim)
            want = system.run_experiment(bundle, cfg, stim,
                                         trace_sink=want_trace.extend,
                                         packet_sink=want_records.extend)
        assert head_records == want_records
        assert head_trace == want_trace
        assert head.report.to_json() == want.report.to_json()
