from dataclasses import replace

import pytest

from spikenoc.core import CoreTiming, MODE_BASELINE, MODE_UNISPIKE
from spikenoc.graph import (SnnGraph, build_brunel, build_conv_topology,
                            quantize_weight, reference_simulate)
from spikenoc.config import (build_graph, parse_config_text, parse_layers,
                             to_system_config)
from spikenoc.neurons import LifParams
from spikenoc.noc import MeshConfig
from spikenoc.partition import MemoryBudget
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


class TestLosslessness:
    def test_all_cells_match_reference(self):
        g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=6)
        cfg = brunel_cfg()
        stimulus = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                                  g.frac_bits)
        want = reference_simulate(g, stimulus, cfg.timesteps, cfg.dt)
        assert want.total_spikes() > 0
        result = run_comparison(g, cfg)
        assert result.spike_digests_equal
        for (mode, part), train in result.trains.items():
            assert train.digest() == want.digest(), (mode, part)

    def test_cross_core_chain_keeps_one_step_delay(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(2, 1),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=5, partitioner="hsfc")
        stimulus = [[0] * 3 for _ in range(5)]
        stimulus[0][0] = quantize_weight(2.0, 8)
        bundle = deploy(g, cfg)
        assert len(bundle.cores) == 2
        result = run_experiment(bundle, cfg, stimulus)
        assert result.train.steps == ((), (0,), (1,), (2,), ())
        assert result.train.digest() == reference_simulate(
            g, stimulus, 5, 1.0).digest()

    def test_single_core_run_has_no_traffic(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), budget=MemoryBudget(),
                           timesteps=5, partitioner="naive")
        stimulus = [[0] * 3 for _ in range(5)]
        stimulus[0][0] = quantize_weight(2.0, 8)
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
        result = run_experiment(deploy(g, cfg), cfg, stimulus,
                                workload="brunel-60", config_digest="beef")
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
        assert rep.redundancy["total_packets"] == len(result.packet_records)
        assert all(r.eject_ps != -1 for r in result.packet_records)

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

    def test_trace_collection_is_optional(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(2, 1),
                           budget=MemoryBudget(neuron_bytes=2 * 24),
                           timesteps=3, partitioner="hsfc", trace=True)
        stimulus = [[quantize_weight(2.0, 8), 0, 0] for _ in range(3)]
        result = run_experiment(deploy(g, cfg), cfg, stimulus)
        assert result.flit_trace is not None and len(result.flit_trace) > 0
        cfg2 = SystemConfig(mesh=MeshConfig(2, 1),
                            budget=MemoryBudget(neuron_bytes=2 * 24),
                            timesteps=3, partitioner="hsfc")
        assert run_experiment(deploy(g, cfg2), cfg2, stimulus).flit_trace is None


class TestGuards:
    def test_stimulus_shorter_than_run_rejected(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), timesteps=5,
                           partitioner="naive")
        with pytest.raises(ValueError, match="stimulus shorter"):
            run_experiment(deploy(g, cfg), cfg, [[0, 0, 0]] * 4)

    def test_unknown_mode_rejected(self):
        g = chain_graph(3)
        cfg = SystemConfig(mesh=MeshConfig(1, 1), partitioner="naive",
                           mode="turbo")
        with pytest.raises(ValueError, match="mode"):
            run_experiment(deploy(g, cfg), cfg, None)


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        outs = []
        for _ in range(2):
            g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3,
                             seed=6)
            cfg = brunel_cfg(partitioner="hsfc-sss", timesteps=10)
            stimulus = build_stimulus(cfg.stimulus, g.neuron_count,
                                      cfg.timesteps, g.frac_bits)
            result = run_experiment(deploy(g, cfg), cfg, stimulus)
            outs.append((result.report.to_json(),
                         [(r.pid, r.src, r.dest, r.inject_ps, r.eject_ps)
                          for r in result.packet_records]))
        assert outs[0] == outs[1]
