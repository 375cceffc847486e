import gc
import random
import re
import tracemalloc
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from spikenoc import system
from spikenoc.core import (CoreTiming, GenJob, MODE_BASELINE, MODE_UNISPIKE,
                           SpikePacket)
from spikenoc.graph import (ConvLayerSpec, build_brunel, build_conv_topology,
                            reference_simulate)
from spikenoc.metrics import TrafficLedger
from spikenoc.noc import (DeadlockError, MeshConfig, NocSim, _Ni, _StepMemo,
                          manhattan, xy_route)
from spikenoc.partition import MemoryBudget
from spikenoc.stimulus import StimulusSpec, build_stimulus
from spikenoc.system import SystemConfig, deploy, run_experiment


def job(src, dest, body, create_ps=0, timestep=0):
    return GenJob(create_ps, SpikePacket(src, dest, timestep, tuple(range(body))))


def ledger_of(records):
    ledger = TrafficLedger()
    ledger.count_packets(records)
    return ledger


def run_one(cfg, jobs_by_core, timing=None, start_ps=0, timestep=0):
    records = []
    trace = []
    sim = NocSim(cfg, timing or CoreTiming(), records, trace)
    delivered, drain_ps, gen_done = sim.run_timestep(jobs_by_core, start_ps, timestep)
    return delivered, drain_ps, gen_done, records, trace, ledger_of(records)


class TestRouting:
    def test_x_resolved_before_y(self):
        assert xy_route((0, 0), (2, 3)) == "E"
        assert xy_route((2, 0), (2, 3)) == "S"
        assert xy_route((3, 3), (1, 3)) == "W"
        assert xy_route((1, 3), (1, 0)) == "N"
        assert xy_route((3, 1), (0, 0)) == "W"   # x first even when y differs

    def test_eject_at_destination(self):
        assert xy_route((2, 2), (2, 2)) == "EJECT"

    def test_manhattan(self):
        assert manhattan((0, 0), (3, 2)) == 5
        assert manhattan((1, 1), (1, 1)) == 0


class TestMeshConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            MeshConfig(0, 4)
        with pytest.raises(ValueError):
            MeshConfig(4, 4, vcs=0)
        with pytest.raises(ValueError):
            MeshConfig(4, 4, link_cycles=0)

    @pytest.mark.parametrize("cycles", [0, -1])
    def test_rejects_watchdog_below_one(self, cycles):
        with pytest.raises(ValueError, match="watchdog_cycles"):
            MeshConfig(4, 4, watchdog_cycles=cycles)

    def test_defaults_to_4x4(self):
        assert MeshConfig() == MeshConfig(4, 4)


class TestSinglePacket:
    def test_exact_uncontended_latency(self):
        # tail eject - head inject = (3*distance + body) network cycles
        cfg = MeshConfig(4, 4)
        src, dest, body = (0, 0), (3, 2), 7
        delivered, drain_ps, gen_done, records, _, _ = run_one(
            cfg, {src: [job(src, dest, body)]})
        [rec] = records
        hops = manhattan(src, dest)
        assert rec.eject_ps - rec.inject_ps == (3 * hops + body) * cfg.noc_period_ps
        assert rec.eject_ps != -1 and rec.body_count == body
        [(packet, eject_ps)] = delivered
        assert (packet.src, packet.dest) == (src, dest)
        assert eject_ps == rec.eject_ps == drain_ps

    def test_generator_time_one_cycle_per_flit(self):
        cfg = MeshConfig(4, 4)
        timing = CoreTiming()
        src = (0, 0)
        _, _, gen_done, _, _, _ = run_one(cfg, {src: [job(src, (1, 0), 7)]},
                                          timing=timing)
        # 8 flits, one core cycle each, starting at create_ps = 0
        assert gen_done[src] == 8 * timing.gen_cycles_per_flit * timing.core_period_ps

    def test_formula_holds_across_distances(self):
        cfg = MeshConfig(5, 5)
        for dest, body in [((1, 0), 1), ((0, 4), 3), ((4, 4), 16), ((2, 3), 10)]:
            _, _, _, records, _, _ = run_one(cfg, {(0, 0): [job((0, 0), dest, body)]})
            [rec] = records
            want = (3 * manhattan((0, 0), dest) + body) * cfg.noc_period_ps
            assert rec.eject_ps - rec.inject_ps == want

    def test_takes_xy_staircase_and_dest_consumes(self):
        cfg = MeshConfig(3, 2)
        src, dest = (0, 0), (2, 1)
        _, _, _, _, trace, _ = run_one(cfg, {src: [job(src, dest, 4)]})
        links = {link for _, link, _, _ in trace}
        assert links == {"0,0>1,0", "1,0>2,0", "2,0>2,1"}
        # 5 flits cross each of the 3 links; nothing leaves the destination
        assert len(trace) == 5 * 3
        assert not any(link.startswith("2,1>") for _, link, _, _ in trace)


def random_jobs(rng, cfg, count, max_body=16, spread_ps=50000, start_ps=0,
                timestep=0):
    jobs_by_core = {}
    for _ in range(count):
        src = (rng.randrange(cfg.width), rng.randrange(cfg.height))
        dest = src
        while dest == src:
            dest = (rng.randrange(cfg.width), rng.randrange(cfg.height))
        j = job(src, dest, rng.randint(1, max_body),
                start_ps + rng.randrange(spread_ps), timestep)
        jobs_by_core.setdefault(src, []).append(j)
    return jobs_by_core


class TestConservation:
    def test_flits_and_packets_conserved(self):
        cfg = MeshConfig(8, 8)
        rng = random.Random(7)
        jobs_by_core = random_jobs(rng, cfg, 200)
        flat = [j for jobs in jobs_by_core.values() for j in jobs]
        total_flits = sum(j.packet.flit_count for j in flat)
        expected_hops = sum(
            j.packet.flit_count * manhattan(j.packet.src, j.packet.dest)
            for j in flat)

        delivered, _, _, records, _, ledger = run_one(cfg, jobs_by_core)
        assert len(delivered) == len(records) == 200
        assert ledger.totals["packets"] == 200
        assert ledger.totals["injected_flits"] == total_flits
        assert ledger.totals["ejected_flits"] == total_flits
        assert ledger.totals["head_flits"] == 200
        assert ledger.totals["body_flits"] == total_flits - 200
        assert ledger.totals["flit_hops"] == expected_hops

    def test_latency_never_beats_lower_bound(self):
        cfg = MeshConfig(8, 8)
        jobs_by_core = random_jobs(random.Random(11), cfg, 150)
        _, _, _, records, _, _ = run_one(cfg, jobs_by_core)
        for rec in records:
            floor = (3 * manhattan(rec.src, rec.dest) + rec.body_count)
            assert rec.eject_ps - rec.inject_ps >= floor * cfg.noc_period_ps
            assert rec.eject_ps != -1

    def test_per_timestep_split(self):
        cfg = MeshConfig(3, 3)
        sim = NocSim(cfg, CoreTiming())
        a, b = (0, 0), (2, 2)
        _, drain_ps, _ = sim.run_timestep(
            {a: [job(a, b, 2, timestep=0), job(a, (1, 1), 3, timestep=0)]}, 0, 0)
        sim.run_timestep({b: [job(b, a, 5, timestep=1)]}, drain_ps + 2000, 1)
        ledger = ledger_of(sim.packet_records)
        assert ledger.per_step["packets"] == {0: 2, 1: 1}
        assert ledger.timestep_total("injected_flits", 0) == 3 + 4
        assert ledger.timestep_total("injected_flits", 1) == 6


class TestWormhole:
    def test_packets_do_not_interleave_on_a_link(self):
        # one VC per port: a link belongs to one packet from head to tail
        cfg = MeshConfig(3, 1, vcs=1)
        jobs_by_core = {
            (0, 0): [job((0, 0), (2, 0), 6)],
            (1, 0): [job((1, 0), (2, 0), 6)],
        }
        _, _, _, _, trace, _ = run_one(cfg, jobs_by_core)
        shared = [(pid, kind) for _, link, pid, kind in trace if link == "1,0>2,0"]
        assert len(shared) == 14
        runs = [pid for pid, _ in groupby(pid for pid, _ in shared)]
        assert len(runs) == len(set(runs)) == 2
        for pid in set(p for p, _ in shared):
            kinds = [kind for p, kind in shared if p == pid]
            assert kinds == ["H"] + ["B"] * 6

    def test_minimal_buffers_still_drain(self):
        cfg = MeshConfig(4, 4, vcs=1, vc_buffer_depth=1)
        jobs_by_core = random_jobs(random.Random(3), cfg, 40, spread_ps=2000)
        delivered, _, _, records, _, _ = run_one(cfg, jobs_by_core)
        assert len(delivered) == 40
        assert all(r.eject_ps != -1 for r in records)


class TestInjection:
    def test_self_addressed_rejected(self):
        cfg = MeshConfig(2, 2)
        with pytest.raises(ValueError, match="bypass"):
            run_one(cfg, {(0, 0): [job((0, 0), (0, 0), 1)]})

    def test_rejected_step_hands_no_jobs_to_any_source(self):
        # the bad packet sits on a later core than a good one: the good
        # core's interface must not keep its jobs when the step is refused
        sim = NocSim(MeshConfig(2, 2), CoreTiming())
        with pytest.raises(ValueError, match="bypass"):
            sim.run_timestep({(0, 0): [job((0, 0), (1, 0), 2)],
                              (1, 1): [job((1, 1), (1, 1), 1)]}, 0, 0)
        delivered, _, _ = sim.run_timestep(
            {(0, 0): [job((0, 0), (0, 1), 3)]}, 0, 0)
        assert [(p.dest, len(p.indices)) for p, _ in delivered] == [((0, 1), 3)]
        assert len(sim.packet_records) == 1

    def test_empty_packet_rejected(self):
        # a packet with no address has no tail flit to release its VCs
        with pytest.raises(ValueError, match="at least one address"):
            run_one(MeshConfig(2, 2), {(0, 0): [job((0, 0), (1, 0), 0)]})

    def test_job_filed_off_the_mesh_rejected(self):
        # (5, 0) on a 4x4 mesh must not alias the interface at (1, 1)
        with pytest.raises(ValueError, match=r"packet \(5, 0\)->\(0, 0\) "
                                             r"at t=0 leaves the 4x4 mesh"):
            run_one(MeshConfig(4, 4), {(5, 0): [job((5, 0), (0, 0), 1)]})

    # (5, 0) would alias the interface at (1, 1); (9, 9) indexes past the end
    @pytest.mark.parametrize("coord", [(5, 0), (9, 9)])
    def test_core_off_the_mesh_rejected_without_jobs(self, coord):
        with pytest.raises(ValueError, match=re.escape(
                f"core {coord} is off the 4x4 mesh")):
            run_one(MeshConfig(4, 4), {coord: []})

    def test_packet_addressed_off_the_mesh_rejected(self):
        with pytest.raises(ValueError, match=r"packet \(0, 0\)->\(0, 4\) "
                                             r"at t=0 leaves the 4x4 mesh"):
            run_one(MeshConfig(4, 4), {(0, 0): [job((0, 0), (0, 4), 1)]})

    def test_job_filed_under_another_core_rejected(self):
        # injected at (0, 0), the packet would cross links its ledger
        # entry, counted from its src (1, 0), never charges
        with pytest.raises(ValueError, match=r"packet \(1, 0\)->\(3, 0\) "
                                             r"at t=0 is filed under core "
                                             r"\(0, 0\)"):
            run_one(MeshConfig(4, 4), {(0, 0): [job((1, 0), (3, 0), 1)]})

    def test_bounded_output_queue_serializes(self):
        cfg = MeshConfig(4, 1)
        timing = CoreTiming(output_queue_packets=1)
        src, dest = (0, 0), (3, 0)
        jobs = [job(src, dest, 16) for _ in range(3)]
        delivered, _, _, records, _, _ = run_one(cfg, {src: jobs}, timing=timing)
        assert len(delivered) == 3
        assert [r.pid for r in records] == [0, 1, 2]
        injects = [r.inject_ps for r in records]
        assert injects == sorted(injects) and injects[0] < injects[1] < injects[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_no_interface_steps_after_its_last_tail(self, monkeypatch, seed):
        # the only way an interface with jobs goes idle is to inject its
        # last tail, and an idle interface is not stepped again that timestep
        steps, idle_steps = Counter(), []
        step = _Ni.step

        def counted(ni, cycle, noc):
            steps[ni.coord] += 1
            if ni.idle:
                idle_steps.append((ni.coord, cycle))
            return step(ni, cycle, noc)

        monkeypatch.setattr(_Ni, "step", counted)
        cfg = MeshConfig(5, 5, vcs=2, vc_buffer_depth=2)
        sim = NocSim(cfg, CoreTiming(output_queue_packets=2))
        rng = random.Random(seed)
        start_ps, sources = 0, set()
        for t in range(3):
            jobs_by_core = random_jobs(rng, cfg, 80, start_ps=start_ps,
                                       timestep=t)
            sources |= set(jobs_by_core)
            _, start_ps, _ = sim.run_timestep(jobs_by_core, start_ps, t)
            assert all(ni.idle for ni in sim.nis)
        assert set(steps) == sources
        assert idle_steps == []


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        cfg = MeshConfig(6, 6)
        outs = []
        for _ in range(2):
            jobs_by_core = random_jobs(random.Random(42), cfg, 120)
            _, drain_ps, _, records, trace, _ = run_one(cfg, jobs_by_core)
            outs.append((drain_ps,
                         [(r.pid, r.src, r.dest, r.timestep, r.body_count,
                           r.inject_ps, r.eject_ps) for r in records],
                         trace))
        assert outs[0] == outs[1]


class TestWatchdog:
    # one VC of depth 4: (1,0)'s own packet takes the only VC east, and the
    # packet from (0,0) queues behind it in (1,0)'s west buffer; with
    # credits flowing, the same jobs drain (TestWormhole)
    CFG = MeshConfig(3, 1, vcs=1, vc_buffer_depth=4, watchdog_cycles=30)
    JOBS = {(0, 0): [job((0, 0), (2, 0), 6)], (1, 0): [job((1, 0), (2, 0), 6)]}

    def test_starved_credits_raise_deadlock_naming_stuck_routers(
            self, starved_credits):
        with pytest.raises(DeadlockError) as err:
            run_one(self.CFG, self.JOBS)
        msg = str(err.value)
        assert "no flit progress for 30 cycles at t=0" in msg
        assert msg.endswith("buffered flits per router: {'(1, 0)': 4}")

    def test_interrupted_step_blocks_the_next_one(self, starved_credits):
        sim = NocSim(self.CFG, CoreTiming())
        with pytest.raises(DeadlockError):
            sim.run_timestep(self.JOBS, 0, 0)
        with pytest.raises(RuntimeError, match="must drain"):
            sim.run_timestep({(0, 0): [job((0, 0), (1, 0), 1)]}, 10**9, 1)


# every buffer knob from 1 up, including the all-ones edge
buffer_knobs = dict(vcs=st.integers(1, 4), depth=st.integers(1, 4),
                    queue=st.integers(1, 4), max_body=st.integers(1, 4))


class TestBufferSweep:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 60),
           **buffer_knobs)
    def test_random_jobs_drain_within_bounds(self, seed, count, vcs, depth,
                                             queue, max_body):
        cfg = MeshConfig(4, 3, vcs=vcs, vc_buffer_depth=depth)
        timing = CoreTiming(output_queue_packets=queue, max_body=max_body)
        rng = random.Random(seed)
        records, trace = [], []
        sim = NocSim(cfg, timing, records, trace)
        start_ps, flits, hops = 0, 0, 0
        for t in range(2):
            jobs_by_core = random_jobs(rng, cfg, count, max_body, 20000,
                                       start_ps, t)
            flat = [j.packet for js in jobs_by_core.values() for j in js]
            delivered, start_ps, _ = sim.run_timestep(jobs_by_core, start_ps, t)
            assert sorted(id(p) for p, _ in delivered) == sorted(map(id, flat))
            assert sum(r.timestep == t for r in records) == count
            flits += sum(p.flit_count for p in flat)
            hops += sum(p.flit_count * manhattan(p.src, p.dest) for p in flat)
        ledger = ledger_of(records)
        assert ledger.totals["injected_flits"] == flits
        assert ledger.totals["ejected_flits"] == flits
        # the trace logs each link crossing, so it checks the hop formula
        assert len(trace) == ledger.totals["flit_hops"] == hops
        for rec in records:
            floor = 3 * manhattan(rec.src, rec.dest) + rec.body_count
            assert rec.eject_ps - rec.inject_ps >= floor * cfg.noc_period_ps

    @settings(max_examples=12, deadline=None)
    @given(mode=st.sampled_from([MODE_BASELINE, MODE_UNISPIKE]), **buffer_knobs)
    def test_spike_trains_match_reference(self, mode, vcs, depth, queue,
                                          max_body):
        g = build_brunel(40, 10, conn_prob=0.15, w_exc=0.4, w_inh=-0.3, seed=4)
        cfg = SystemConfig(
            mesh=MeshConfig(3, 3, vcs=vcs, vc_buffer_depth=depth),
            timing=CoreTiming(output_queue_packets=queue, max_body=max_body),
            budget=MemoryBudget(neuron_bytes=6 * 24),
            stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.2,
                                  seed=4),
            timesteps=8, partitioner="hsfc", mode=mode)
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        result = run_experiment(deploy(g, cfg), cfg, stim)
        want = reference_simulate(g, stim, cfg.timesteps, cfg.dt)
        assert want.total_spikes() > 0
        assert result.train.digest() == want.digest()
        traffic = result.report.traffic
        assert traffic["injected_flits"] == traffic["ejected_flits"] > 0


def kept_mesh_run(graph, cfg, stim):
    """Run ``cfg`` and return the run's mesh, kept alive past the run."""
    sims = []

    class KeptNocSim(NocSim):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system, "NocSim", KeptNocSim)
        run_experiment(deploy(graph, cfg), cfg, stim)
    [sim] = sims
    return sim


def stored_steps() -> int:
    gc.collect()
    return sum(type(o) is _StepMemo for o in gc.get_objects())


class TestStepMemo:
    """The step memo holds one stored step at most, and nothing when no
    step repeats."""

    @pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_UNISPIKE])
    def test_periodic_run_keeps_one_stored_step(self, mode):
        # constant drive into LIF with a 2-step refractory period: the
        # traffic repeats every third step
        g = build_conv_topology([ConvLayerSpec(1, 8, 8),
                                 ConvLayerSpec(4, 8, 8, kernel=3, padding=1)],
                                seed=2)
        cfg = SystemConfig(
            mesh=MeshConfig(4, 4), budget=MemoryBudget(neuron_bytes=480),
            stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                                  neurons=tuple(range(64))),
            timesteps=30, partitioner="hsfc", mode=mode)
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        before = stored_steps()
        sim = kept_mesh_run(g, cfg, stim)
        assert sim.replayed > 0
        assert stored_steps() == before + 1
        del sim
        assert stored_steps() == before

    def test_brunel_run_stores_no_step(self):
        g = build_brunel(40, 10, conn_prob=0.15, w_exc=0.4, w_inh=-0.3, seed=4)
        cfg = SystemConfig(
            mesh=MeshConfig(3, 3), budget=MemoryBudget(neuron_bytes=6 * 24),
            stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.2,
                                  seed=4),
            timesteps=20, partitioner="hsfc")
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        before = stored_steps()
        sim = kept_mesh_run(g, cfg, stim)
        assert (sim.memo, sim.replayed) == (None, 0)
        assert stored_steps() == before

    @staticmethod
    def traced_growth(steps: int) -> tuple[int, int]:
        """Bytes a traced mesh holds after ``steps`` repeats of one step, and
        its peak, both above the empty mesh's."""
        cfg = MeshConfig(4, 4)
        jobs_by_core = random_jobs(random.Random(9), cfg, 40, 6, 3000)
        records, trace = [], []
        tracemalloc.start()
        try:
            sim = NocSim(cfg, CoreTiming(), records, trace)
            base = tracemalloc.get_traced_memory()[0]
            start_ps = 0
            for t in range(steps):
                jobs = {c: [GenJob(j.create_ps + start_ps, j.packet)
                            for j in js] for c, js in jobs_by_core.items()}
                _, start_ps, _ = sim.run_timestep(jobs, start_ps, t)
                records.clear()
                trace.clear()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.replayed >= steps - 3
        return held - base, peak - base

    def test_traced_memory_does_not_grow_with_run_length(self):
        self.traced_growth(3)       # first-use allocations land here
        short = self.traced_growth(20)
        long = self.traced_growth(80)
        # one leaked step's 40 records and 595 trace rows take tens of KiB
        assert long[0] <= short[0] + 8192
        assert long[1] <= short[1] + 8192

    def test_starved_repeat_raises_the_same_deadlock_each_time(
            self, starved_credits):
        # every credit and VC a step takes is lost: with two VCs the step
        # drains twice, and its second sight is stored; the third cannot
        # start, and its deadlock drops the stored step
        cfg = MeshConfig(2, 1, vcs=2, vc_buffer_depth=4, watchdog_cycles=30)
        errors = []
        for _ in range(2):
            sim = NocSim(cfg, CoreTiming())

            def step(t):
                start_ps = 10**7 * t
                return sim.run_timestep(
                    {(0, 0): [job((0, 0), (1, 0), 1, start_ps)]}, start_ps, t)

            step(0)
            step(1)
            assert sim.memo is not None
            with pytest.raises(DeadlockError) as err:
                step(2)
            assert (sim.memo, sim.replayed) == (None, 0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "no flit progress for 30 cycles at t=2" in errors[0]
