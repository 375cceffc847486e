"""Differential test: the mesh model against the seed simulator's.

``tests/oracle/seed_noc.py`` is the first ``noc.py``: full-scan arbitration
and one object per flit.  The golden digests pin a few configurations; these
tests pin arbitration order, VC choice, generator timing and credit timing
on random meshes, buffer settings and multi-step job sets, and on the
traffic that whole Brunel and conv runs generate.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle.seed_noc import DeadlockError as SeedDeadlockError
from oracle.seed_noc import NocSim as SeedNocSim
from spikenoc import system
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
    drain or some cycles later."""
    steps = []
    for t in range(nsteps):
        gap_ps = 0 if rng.random() < 0.5 else rng.randrange(1, 40000)
        jobs = random_step(rng, cfg, t, rng.randint(1, 30), max_body,
                           rng.choice([1, 5000, 40000]))
        steps.append((gap_ps, jobs))
    return steps


def run_steps(sim, steps, after_step=None):
    """Run each ``(gap_ps, jobs)`` step ``gap_ps`` after the previous drain,
    calling ``after_step()`` after each; returns per-step (delivered ids and
    times, drain, generator-done)."""
    out = []
    start_ps = 0
    for t, (gap_ps, jobs_by_core) in enumerate(steps):
        start_ps += gap_ps
        jobs = {c: [GenJob(j.create_ps + start_ps, j.packet) for j in js]
                for c, js in jobs_by_core.items()}
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
