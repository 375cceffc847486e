import gc
import re
import tracemalloc
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from spikenoc import system
from spikenoc.core import CoreState, CoreTiming, MODE_BASELINE, MODE_UNISPIKE
from spikenoc.graph import (ConvLayerSpec, SnnGraph, build_brunel,
                            build_conv_topology, quantize_weight,
                            reference_simulate)
from spikenoc.config import (build_graph, parse_config_text, parse_layers,
                             to_system_config)
from spikenoc.neurons import (AdexParams, IzhikevichParams, LifParams,
                              NumericError)
from spikenoc.metrics import EnergyCostTable, redundancy_profile
from spikenoc.noc import MeshConfig, PacketRecord
from spikenoc.partition import MemoryBudget, destination_objective
from spikenoc.stimulus import StimulusSpec, build_stimulus
from spikenoc.system import (PARTITIONERS, SystemConfig, deploy,
                             make_partition, run_comparison, run_experiment)
from test_golden import _config as golden_config

W = quantize_weight(1.0, 8)
FAST = LifParams(tau_m=1.0, refractory_steps=0)


def chain_graph(n=3):
    adjacency = [[(i + 1, W)] if i + 1 < n else [] for i in range(n)]
    return SnnGraph(n, adjacency, model=FAST)


def brunel_cfg(**kw):
    defaults = dict(
        mesh=MeshConfig(3, 3),
        budget=MemoryBudget(neuron_bytes=16 * 24),
        stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.15, seed=4),
        timesteps=20,
        sss_iters=1500,
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestTimestepTime:
    """A step ends once its cores, generators and network are all done: it
    never ends before its busy time, and time never runs backward."""

    @pytest.mark.parametrize("buffers", ["default", "edge"])
    @pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_UNISPIKE])
    def test_step_rows_add_up_to_modeled_time(self, mode, buffers):
        cfg = parse_config_text(golden_config("brunel", buffers))
        sys_cfg = replace(to_system_config(cfg), mode=mode)
        graph = build_graph(cfg)
        stimulus = build_stimulus(sys_cfg.stimulus, graph.neuron_count,
                                  sys_cfg.timesteps, graph.frac_bits)
        report = run_experiment(deploy(graph, sys_cfg), sys_cfg,
                                stimulus).report
        rows = report.per_timestep
        assert len(rows) == sys_cfg.timesteps
        assert all(r.drain_ps >= r.busy_ps >= 0 for r in rows)
        assert sum(r.drain_ps for r in rows) == report.modeled_time_ps


class TestPartitionerSelection:
    def test_naive_keeps_id_order(self):
        g = build_brunel(40, 10, seed=2)
        part = make_partition(g, brunel_cfg(partitioner="naive"))
        flat = [i for cluster in part.clusters for i in cluster]
        assert flat == sorted(flat)

    def test_curve_order_differs_on_spatial_workload(self):
        g = build_conv_topology(parse_layers("2x8x8, 2x8x8 k3 p1"), seed=1)
        naive = make_partition(g, brunel_cfg(partitioner="naive"))
        curved = make_partition(g, brunel_cfg(partitioner="hsfc"))
        assert [set(c) for c in naive.clusters] != [set(c) for c in curved.clusters]

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ValueError, match="partitioner"):
            make_partition(chain_graph(), brunel_cfg(partitioner="magic"))

    def test_zero_sss_settings_select_the_defaults(self):
        # SystemConfig's 0 means what an INI file's 0 means; no refinement is
        # partitioner hsfc
        text = ("[workload]\nkind = brunel\nn_exc = 80\nn_inh = 20\n"
                "[mesh]\nwidth = 4\nheight = 4\n"
                "[partition]\nneuron_bytes = 384\n")
        cfg = parse_config_text(text)
        graph = build_graph(cfg)

        def j(sys_cfg):
            return destination_objective(make_partition(graph, sys_cfg), graph)

        tuned = to_system_config(parse_config_text(
            text + "sss_iters = 300\nsss_t0 = 5\n"))
        assert (tuned.sss_iters, tuned.sss_t0) == (300, 5.0)
        assert j(to_system_config(cfg)) == 40
        assert j(replace(tuned, sss_iters=0, sss_t0=0.0)) == 40
        assert j(replace(tuned, partitioner="hsfc")) == 42


# kind -> (params, frac_bits, w_exc, w_inh, drive amplitude, drive rate):
# each drive makes its model fire over a 20-step run
MODEL_DRIVES = {
    "lif": (LifParams(), 8, 0.4, -0.3, 12.0, 0.15),
    "izhikevich": (IzhikevichParams(), 8, 6.0, -4.0, 12.0, 0.3),
    "adex": (AdexParams(), 4, 1500.0, -1000.0, 4000.0, 0.4),
}


def model_graph(kind: str, topology: str):
    """A small Brunel or conv graph under one neuron model, or under
    Izhikevich with every third neuron a LIF and every fifth a faster LIF
    (``mixed``).  Returns the graph and its drive."""
    model, frac_bits, w_exc, w_inh, amp, rate = MODEL_DRIVES[
        "izhikevich" if kind == "mixed" else kind]
    if topology == "brunel":
        g = build_brunel(40, 10, 0.1, w_exc, w_inh, seed=6, model=model,
                         frac_bits=frac_bits)
    else:
        g = build_conv_topology(parse_layers("1x6x6, 2x6x6 k3 p1"), seed=1,
                                model=model, frac_bits=frac_bits,
                                w_lo=w_exc / 4, w_hi=w_exc / 2)
    if kind == "mixed":
        overrides = {n: LifParams() for n in range(0, g.neuron_count, 3)}
        overrides.update({n: LifParams(tau_m=5.0, refractory_steps=1)
                          for n in range(0, g.neuron_count, 5)})
        g = SnnGraph(g.neuron_count, g.adjacency, model=model,
                     model_overrides=overrides, frac_bits=frac_bits,
                     layer_tags=g.layer_tags)
    return g, StimulusSpec(kind="poisson", amplitude=amp, rate=rate, seed=4)


class TestLosslessness:
    @pytest.mark.parametrize("topology", ["brunel", "conv"])
    @pytest.mark.parametrize("kind", ["lif", "izhikevich", "adex", "mixed"])
    def test_every_neuron_model_matches_reference(self, kind, topology):
        g, drive = model_graph(kind, topology)
        cfg = brunel_cfg(budget=MemoryBudget(neuron_bytes=24 * 24),
                         stimulus=drive, partitioner="hsfc")
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        bundle = deploy(g, cfg)
        if kind == "mixed":
            assert any(len({g.params_of(n) for n in art.neuron_ids}) > 1
                       for art in bundle.cores)
        # the Izhikevich kernel has a loop of its own for dt = 1.0
        dts = (1.0, 0.5) if kind in ("izhikevich", "mixed") else (1.0,)
        for dt in dts:
            want = reference_simulate(g, stimulus, cfg.timesteps, dt)
            # every parameter set fires, so a wrong kernel branch shows
            fired = {g.params_of(n) for step in want.steps for n in step}
            assert fired == {g.params_of(n) for n in range(g.neuron_count)}, dt
            for mode in (MODE_BASELINE, MODE_UNISPIKE):
                result = run_experiment(
                    bundle, replace(cfg, mode=mode, dt=dt), stimulus)
                assert result.train.steps == want.steps, (mode, dt)
                traffic = result.report.traffic
                assert traffic["packets"] > 0
                assert traffic["injected_flits"] == traffic["ejected_flits"]

    def test_all_cells_match_reference(self):
        g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        cfg = brunel_cfg()
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        want = reference_simulate(g, stimulus, cfg.timesteps, cfg.dt)
        assert want.total_spikes() > 0
        result = run_comparison(g, cfg)
        assert result.spike_digests_equal
        assert result.matches_reference
        for cell, report in result.reports.items():
            assert report.spike_digest == want.digest(), cell
        assert result.cores == {
            p: len(make_partition(g, replace(cfg, partitioner=p)).clusters)
            for p in PARTITIONERS}

    def test_cross_core_chain_keeps_one_step_delay(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(2, 1),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=5, partitioner="hsfc")
        stimulus = [((0, quantize_weight(2.0, 8)),)] + [()] * 4
        bundle = deploy(g, cfg)
        assert len(bundle.cores) == 2
        result = run_experiment(bundle, cfg, stimulus)
        assert result.train.steps == ((), (0,), (1,), (2,), ())
        assert result.train.digest() == reference_simulate(
            g, stimulus, 5, 1.0).digest()

    def test_events_split_by_core_match_reference(self):
        # step 0 drives two neurons on one core with different currents, and
        # one neuron on each of two other cores
        adjacency = [[(2, W)], [(5, W)], [], [], [(6, W)], [], [], [(3, W)]]
        g = SnnGraph(8, adjacency, model=FAST)
        cfg = SystemConfig(mesh=MeshConfig(2, 2),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=4, partitioner="naive")
        bundle = deploy(g, cfg)
        home = {nid: art.coord for art in bundle.cores
                for nid in art.neuron_ids}
        assert home[0] == home[1] and len({home[0], home[4], home[7]}) == 3
        strong, weak = quantize_weight(2.0, 8), quantize_weight(0.25, 8)
        stimulus = [((0, strong), (1, weak), (4, strong), (7, strong)),
                    (), (), ()]
        want = reference_simulate(g, stimulus, 4, cfg.dt)
        assert want.steps[1] == (0, 4, 7)
        for mode in (MODE_BASELINE, MODE_UNISPIKE):
            result = run_experiment(bundle, replace(cfg, mode=mode), stimulus)
            assert result.train.steps == want.steps, mode
            assert result.report.traffic["packets"] > 0

    def test_single_core_run_has_no_traffic(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), budget=MemoryBudget(),
                           timesteps=5, partitioner="naive")
        stimulus = [((0, quantize_weight(2.0, 8)),)] + [()] * 4
        result = run_experiment(deploy(g, cfg), cfg, stimulus)
        assert result.train.steps == ((), (0,), (1,), (2,), ())
        assert result.report.traffic["packets"] == 0
        assert result.report.redundancy["empty"] is True


class TestRunReportContents:
    def test_report_accounts_line_up(self):
        g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        cfg = brunel_cfg(partitioner="hsfc", mode=MODE_UNISPIKE)
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        records = []
        result = run_experiment(deploy(g, cfg), cfg, stimulus,
                                workload="brunel-60", config_digest="beef",
                                packet_sink=records.extend)
        rep = result.report
        assert rep.workload == "brunel-60" and rep.config_digest == "beef"
        assert rep.mode == MODE_UNISPIKE and rep.partitioner == "hsfc"
        assert len(rep.per_timestep) == cfg.timesteps
        assert rep.modeled_time_ps == sum(r.drain_ps for r in rep.per_timestep)
        assert rep.modeled_time_ps > 0
        assert rep.total_spikes == result.train.total_spikes()
        assert rep.energy["total"] == rep.energy["dynamic"] + rep.energy["static"]
        assert rep.traffic["injected_flits"] == rep.traffic["ejected_flits"]
        assert rep.traffic["injected_flits"] == sum(
            r.injected_flits for r in rep.per_timestep)
        assert rep.redundancy["total_packets"] == len(records)
        assert all(r.eject_ps != -1 for r in records)

    def test_sram_energy_reads_the_neuron_state_size(self):
        # same 16-neuron capacity, so the same cores and traffic; every cost
        # a power of two, so the totals are exact
        g = build_brunel(40, 10, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        energy = EnergyCostTable(sram_read_per_byte=0.5,
                                 sram_write_per_byte=0.25)
        cfg = brunel_cfg(energy=energy, budget=MemoryBudget(neuron_bytes=384))
        wide = replace(cfg, budget=MemoryBudget(neuron_bytes=768,
                                                bytes_per_neuron_state=48))
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        narrow_rep = run_experiment(deploy(g, cfg), cfg, stimulus).report
        wide_rep = run_experiment(deploy(g, wide), wide, stimulus).report
        assert wide_rep.traffic == narrow_rep.traffic
        updates = g.neuron_count * cfg.timesteps
        assert wide_rep.energy["dynamic"] - narrow_rep.energy["dynamic"] == \
            updates * 24 * (0.5 + 0.25)

    def test_merged_mode_never_injects_more_flits(self):
        g = build_conv_topology(parse_layers("1x8x8, 4x8x8 k3 p1"), seed=1,
                                model=FAST)
        cfg = brunel_cfg(
            mesh=MeshConfig(3, 3),
            budget=MemoryBudget(neuron_bytes=48 * 24),
            stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                                  neurons=tuple(range(64))),
            timesteps=8)
        result = run_comparison(g, cfg, partitioners=("hsfc",))
        base = result.reports[(MODE_BASELINE, "hsfc")]
        uni = result.reports[(MODE_UNISPIKE, "hsfc")]
        assert result.spike_digests_equal
        assert base.traffic["packets"] > 0
        assert uni.traffic["injected_flits"] <= base.traffic["injected_flits"]
        assert uni.traffic["flit_hops"] <= base.traffic["flit_hops"]

    @settings(max_examples=25, deadline=None)
    @given(topology=st.sampled_from(["brunel", "conv"]),
           seed=st.integers(0, 2**16), max_body=st.integers(1, 16),
           width=st.integers(2, 3), height=st.integers(1, 3),
           rate=st.sampled_from([0.05, 0.2, 0.5]))
    # one body flit per packet: every unispike packet carries one address
    @example(topology="conv", seed=1, max_body=1, width=3, height=3, rate=0.5)
    def test_merging_removes_only_head_flits(self, topology, seed, max_body,
                                             width, height, rate):
        if topology == "brunel":
            g = build_brunel(40, 10, conn_prob=0.2, w_exc=0.4, w_inh=-0.3,
                             seed=seed)
        else:
            g = build_conv_topology(parse_layers("1x6x6, 2x6x6 k3 p1"),
                                    seed=seed, model=FAST)
        cfg = brunel_cfg(
            mesh=MeshConfig(width, height),
            budget=MemoryBudget(
                neuron_bytes=24 * -(-g.neuron_count // (width * height))),
            stimulus=StimulusSpec(kind="poisson", amplitude=20.0, rate=rate,
                                  seed=seed),
            timesteps=5, partitioner="hsfc",
            timing=CoreTiming(max_body=max_body))
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        bundle = deploy(g, cfg)
        base, uni = (run_experiment(bundle, replace(cfg, mode=mode),
                                    stimulus).report
                     for mode in (MODE_BASELINE, MODE_UNISPIKE))
        assert uni.traffic["body_flits"] == base.traffic["body_flits"]
        assert (uni.redundancy["effective_packets"]
                == base.redundancy["effective_packets"])
        assert (base.traffic["injected_flits"] - uni.traffic["injected_flits"]
                == base.traffic["packets"] - uni.traffic["packets"])

    def test_trace_collection_is_optional(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(2, 1),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=3, partitioner="hsfc")
        stimulus = [((0, quantize_weight(2.0, 8)),)] * 3
        trace: list = []
        calls: list[int] = []

        def sink(rows):
            calls.append(len(rows))
            trace.extend(rows)

        traced = run_experiment(deploy(g, cfg), cfg, stimulus,
                                trace_sink=sink)
        assert len(trace) > 0
        # one call per step, each with that step's rows only
        assert len(calls) == cfg.timesteps and sum(calls) == len(trace)
        assert len(trace) == traced.report.traffic["flit_hops"]
        untraced = run_experiment(deploy(g, cfg), cfg, stimulus)
        assert untraced.report.to_json() == traced.report.to_json()


class TestPacketRecords:
    """A run hands each step's records to its sink and keeps none."""

    def test_no_record_outlives_the_run(self):
        assert gc.is_tracked(PacketRecord(0, (0, 0), (1, 0), 0, 1, 0))
        g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        cfg = brunel_cfg(partitioner="hsfc", timesteps=10)
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        bundle = deploy(g, cfg)
        gc.collect()
        # records other tests left alive stay alive, under their own ids
        before = [o for o in gc.get_objects() if isinstance(o, PacketRecord)]
        old = {id(o) for o in before}
        result = run_experiment(bundle, cfg, stimulus)
        gc.collect()
        assert result.report.traffic["packets"] > 0
        assert [o for o in gc.get_objects()
                if isinstance(o, PacketRecord) and id(o) not in old] == []

    @pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_UNISPIKE])
    def test_no_record_outlives_the_run_without_the_collector(self, mode):
        # the routers point at each other, so without the collector a run's
        # records are freed only if the mesh holds no packet when it ends
        graph = build_brunel(40, 10, conn_prob=0.15, w_exc=0.4, w_inh=-0.3,
                             seed=4)
        cfg = brunel_cfg(budget=MemoryBudget(neuron_bytes=6 * 24),
                         stimulus=StimulusSpec(kind="poisson", amplitude=12.0,
                                               rate=0.2, seed=4),
                         timesteps=8, partitioner="hsfc", mode=mode)
        stimulus = build_stimulus(cfg.stimulus, graph.neuron_count,
                                  cfg.timesteps, graph.frac_bits)
        bundle = deploy(graph, cfg)
        gc.collect()
        old = {id(o) for o in gc.get_objects() if isinstance(o, PacketRecord)}
        gc.disable()
        try:
            result = run_experiment(bundle, cfg, stimulus)
            alive = [o for o in gc.get_objects()
                     if isinstance(o, PacketRecord) and id(o) not in old]
        finally:
            gc.enable()
        assert result.report.traffic["packets"] > 0
        assert alive == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), mode=st.sampled_from(
               [MODE_BASELINE, MODE_UNISPIKE]),
           width=st.integers(2, 3), height=st.integers(1, 3),
           timesteps=st.integers(1, 6),
           rate=st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    # no drive, no spikes: an empty log
    @example(seed=0, mode=MODE_UNISPIKE, width=2, height=1, timesteps=3,
             rate=0.0)
    def test_summed_step_redundancy_is_the_whole_runs(self, seed, mode,
                                                      width, height,
                                                      timesteps, rate):
        g = build_brunel(24, 6, conn_prob=0.2, w_exc=0.4, w_inh=-0.3,
                         seed=seed)
        cfg = brunel_cfg(
            mesh=MeshConfig(width, height),
            budget=MemoryBudget(neuron_bytes=24 * -(-30 // (width * height))),
            stimulus=StimulusSpec(kind="poisson", amplitude=20.0, rate=rate,
                                  seed=seed),
            timesteps=timesteps, partitioner="hsfc", mode=mode)
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        steps = []
        counts = []
        records = []

        def sink(step_records):
            steps.append({r.timestep for r in step_records})
            counts.append(len(step_records))
            records.extend(step_records)

        report = run_experiment(deploy(g, cfg), cfg, stimulus,
                                packet_sink=sink).report
        assert report.redundancy == asdict(redundancy_profile(records))
        # one call per step, with that step's records, numbered in order
        assert all(s <= {t} for t, s in enumerate(steps))
        assert len(steps) == timesteps
        assert [r.pid for r in records] == list(range(len(records)))
        assert len(records) == report.traffic["packets"]
        assert [row.packets for row in report.per_timestep] == counts
        if rate == 0.0:
            assert report.redundancy == {
                "total_packets": 0, "effective_packets": 0,
                "payload_flits": 0, "ratio": 1.0, "empty": True}


# one out-of-range value per SystemConfig setting, with its message
SETTING_CASES = [
    (dict(mode="turbo"), "unknown mode 'turbo'; expected one of "
                         "baseline, unispike"),
    (dict(partitioner="magic"), "unknown partitioner 'magic'"),
    (dict(placement="spiral"), "unknown placement 'spiral'; expected one "
                               "of hilbert, row-major"),
    (dict(timesteps=0), "timesteps must be positive; got 0"),
    (dict(timesteps=-3), "timesteps must be positive; got -3"),
    (dict(sss_iters=-1), "sss_iters must be non-negative"),
    (dict(sss_t0=-1.0), "sss_t0 must be finite and non-negative"),
    (dict(sss_t0=float("nan")), "sss_t0 must be finite and non-negative"),
    (dict(sss_t0=float("inf")), "sss_t0 must be finite and non-negative"),
    (dict(sss_cooling=1.5), "sss_cooling must be in [0, 1]"),
    (dict(sss_cooling=-0.1), "sss_cooling must be in [0, 1]"),
    (dict(sss_cooling=float("nan")), "sss_cooling must be in [0, 1]"),
    (dict(seg_ratio=0.0), "seg_ratio must be in (0, 1]"),
    (dict(seg_ratio=1.5), "seg_ratio must be in (0, 1]"),
]


class TestDecodeStore:
    """Each core keeps one stored decode, however long the run."""

    @staticmethod
    def traced_growth(steps: int, mode: str) -> int:
        """Bytes a run of ``steps`` repeating steps leaves held once its
        result (per-step rows and spike train) is dropped, above what was
        held before it; its cores are kept alive."""
        g = build_conv_topology([ConvLayerSpec(1, 8, 8),
                                 ConvLayerSpec(4, 8, 8, kernel=3, padding=1)],
                                seed=2)
        cfg = SystemConfig(
            mesh=MeshConfig(4, 4), budget=MemoryBudget(neuron_bytes=480),
            stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                                  neurons=tuple(range(64))),
            timesteps=steps, partitioner="hsfc", mode=mode)
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        bundle = deploy(g, cfg)
        cores = []

        class KeptCore(CoreState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cores.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(system, "CoreState", KeptCore)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = run_experiment(bundle, cfg, stim)
                del result
                gc.collect()        # the finished mesh's routers form cycles
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert sum(core.replayed for core in cores) >= steps - 10
        return held - base

    @pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_UNISPIKE])
    def test_traced_memory_does_not_grow_with_run_length(self, mode):
        self.traced_growth(3, mode)     # first-use allocations land here
        short = self.traced_growth(20, mode)
        long = self.traced_growth(200, mode)
        # one step's packets kept per core would take tens of KiB
        assert long <= short + 8192


class TestGuards:
    def test_stimulus_shorter_than_run_rejected(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), timesteps=5,
                           partitioner="naive")
        with pytest.raises(ValueError, match="stimulus shorter"):
            run_experiment(deploy(g, cfg), cfg, [()] * 4)

    @pytest.mark.parametrize("nid", [-1, 3])
    def test_stimulus_event_outside_graph_rejected(self, nid):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), timesteps=2,
                           partitioner="naive")
        stimulus = [(), ((nid, 5),)]
        needle = f"step 1 names neuron {nid} outside 0..2"
        with pytest.raises(ValueError, match=re.escape(needle)):
            reference_simulate(g, stimulus, 2)
        with pytest.raises(ValueError, match=re.escape(needle)):
            run_experiment(deploy(g, cfg), cfg, stimulus)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SystemConfig(mesh=MeshConfig(1, 1), partitioner="naive",
                         mode="turbo")

    @pytest.mark.parametrize("setting,needle", SETTING_CASES,
                             ids=[f"{k}={v}" for setting, _ in SETTING_CASES
                                  for k, v in setting.items()])
    def test_out_of_range_setting_rejected(self, setting, needle):
        with pytest.raises(ValueError, match=re.escape(needle)):
            SystemConfig(**setting)
        # replace re-runs the checks
        with pytest.raises(ValueError, match=re.escape(needle)):
            replace(SystemConfig(), **setting)

    @pytest.mark.parametrize("mesh", [MeshConfig(2, 5), MeshConfig(5, 2)])
    def test_mesh_smaller_than_the_bundle_rejected(self, mesh):
        g = build_brunel(80, 20, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        cfg = brunel_cfg(timesteps=3)
        bundle = deploy(g, cfg)
        off = [c.coord for c in bundle.cores
               if not (c.coord[0] < mesh.width and c.coord[1] < mesh.height)]
        assert off     # the 3x3 deployment uses the third column and row
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, 3, g.frac_bits)
        with pytest.raises(ValueError, match=re.escape(
                f"bundle does not fit the configured mesh: core {off[0]}: "
                f"outside the {mesh.width}x{mesh.height} mesh")):
            run_experiment(bundle, replace(cfg, mesh=mesh), stimulus)
        # a larger mesh holds it
        run_experiment(bundle, replace(cfg, mesh=MeshConfig(4, 4)), stimulus)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            SystemConfig(dt=dt)


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        outs = []
        for _ in range(2):
            g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3,
                             seed=6)
            cfg = brunel_cfg(partitioner="hsfc-sss", timesteps=10)
            stimulus = build_stimulus(cfg.stimulus, g.neuron_count,
                                      cfg.timesteps, g.frac_bits)
            records = []
            result = run_experiment(deploy(g, cfg), cfg, stimulus,
                                    packet_sink=records.extend)
            outs.append((result.report.to_json(),
                         [(r.pid, r.src, r.dest, r.inject_ps, r.eject_ps)
                          for r in records]))
        assert outs[0] == outs[1]


class TestNumericBlowUp:
    """A diverging neuron stops the run in the step where the scalar
    reference diverges, and the error names its core and global id."""

    def test_run_stops_with_the_reference(self):
        # d=1e308 pushes u to 1e308 at the first spike; under a drive of 50
        # the membrane is NaN three updates later
        g = SnnGraph(4, chain_graph(4).adjacency, model=FAST,
                     model_overrides={2: IzhikevichParams(d=1e308)})
        cfg = SystemConfig(mesh=MeshConfig(2, 1),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=6, partitioner="hsfc")
        bundle = deploy(g, cfg)
        [home] = [a.coord for a in bundle.cores if 2 in a.neuron_ids]
        stimulus = [((2, quantize_weight(50.0, 8)),)] * 6
        # four steps complete on both sides; the fifth raises on both
        reference_simulate(g, stimulus, 4, cfg.dt)
        run_experiment(bundle, replace(cfg, timesteps=4), stimulus)
        with pytest.raises(NumericError):
            reference_simulate(g, stimulus, 5, cfg.dt)
        with pytest.raises(NumericError, match=re.escape(
                f"core {home}: neuron 2: non-finite state v=nan")):
            run_experiment(bundle, replace(cfg, timesteps=5), stimulus)
