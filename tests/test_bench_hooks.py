"""The benchmark's trace hooks name entry points that exist, and read the
return values and arguments they expect.

``perfbench/spans.py`` wraps layer entry points by their dotted names and
takes work counts from what they return or receive.  A renamed entry point,
or a changed return shape or ledger, would otherwise fail only a traced
benchmark run; these checks fail in the test suite instead.
"""

import importlib
import json
import os
from dataclasses import replace

from spikenoc import system
from spikenoc.cli import main
from spikenoc.core import MODE_BASELINE, MODE_UNISPIKE
from spikenoc.graph import ConvLayerSpec, build_brunel, build_conv_topology
from spikenoc.noc import MeshConfig, NocSim
from spikenoc.partition import MemoryBudget
from spikenoc.stimulus import StimulusSpec, build_stimulus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)   # spans imports its siblings
    spans = importlib.import_module("spans")
    missing = []
    for targets, _ in spans.TARGETS.values():
        for target in targets:
            owner, attr = spans._resolve(target)
            if attr not in owner.__dict__:
                missing.append(target)
    assert missing == []


def test_count_hooks_match_the_report(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    graph = build_brunel(40, 10, conn_prob=0.15, w_exc=0.4, w_inh=-0.3,
                         seed=4)
    cfg = system.SystemConfig(
        mesh=MeshConfig(3, 3), budget=MemoryBudget(neuron_bytes=6 * 24),
        stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.2,
                              seed=4),
        timesteps=8, partitioner="hsfc")
    stim = build_stimulus(cfg.stimulus, graph.neuron_count, cfg.timesteps,
                          graph.frac_bits)
    bundle = system.deploy(graph, cfg)
    reports = {}
    with spans.installed(spans.Tracer()) as tracer:
        for mode in (MODE_BASELINE, MODE_UNISPIKE):
            tracer.mode = mode
            reports[mode] = system.run_experiment(
                bundle, replace(cfg, mode=mode), stim).report
    metrics = spans.layer_metrics(tracer, 0, 0)
    for mode, report in reports.items():
        assert metrics[f"noc.flit_hops.{mode}"] == \
            report.traffic["flit_hops"] > 0
        assert metrics[f"core.updates.{mode}"] > 0
        assert metrics[f"metrics.ledger_entries.{mode}"] > 0


def test_count_hooks_match_the_report_on_replayed_steps(monkeypatch):
    # constant drive into a conv stack repeats its traffic, so the mesh
    # replays most steps; a replayed step still returns every delivery
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    sims = []

    class KeptNocSim(NocSim):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(system, "NocSim", KeptNocSim)
    graph = build_conv_topology([ConvLayerSpec(1, 8, 8),
                                 ConvLayerSpec(4, 8, 8, kernel=3, padding=1)],
                                seed=2)
    cfg = system.SystemConfig(
        mesh=MeshConfig(4, 4), budget=MemoryBudget(neuron_bytes=480),
        stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                              neurons=tuple(range(64))),
        timesteps=20, partitioner="hsfc")
    stim = build_stimulus(cfg.stimulus, graph.neuron_count, cfg.timesteps,
                          graph.frac_bits)
    bundle = system.deploy(graph, cfg)
    reports = {}
    with spans.installed(spans.Tracer()) as tracer:
        for mode in (MODE_BASELINE, MODE_UNISPIKE):
            tracer.mode = mode
            reports[mode] = system.run_experiment(
                bundle, replace(cfg, mode=mode), stim).report
    assert [sim.replayed > 0 for sim in sims] == [True, True]
    metrics = spans.layer_metrics(tracer, 0, 0)
    for mode, report in reports.items():
        traffic = report.traffic
        assert metrics[f"noc.flit_hops.{mode}"] == traffic["flit_hops"] > 0
        assert metrics[f"noc.packets.{mode}"] == traffic["packets"]
        assert metrics[f"core.jobs.{mode}"] == traffic["packets"]


def test_count_hooks_match_a_fresh_decode_on_replayed_decodes(monkeypatch):
    # the repeating conv run's cores reuse stored decodes; the traced core
    # counts must equal those of the same run whose cores never reuse one
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    cores = []

    class KeptCore(system.CoreState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(self)

    class ForgetfulCore(system.CoreState):
        def run_core_timestep(self, *args):
            res = super().run_core_timestep(*args)
            self.memo = None
            return res

    graph = build_conv_topology([ConvLayerSpec(1, 8, 8),
                                 ConvLayerSpec(4, 8, 8, kernel=3, padding=1)],
                                seed=2)
    cfg = system.SystemConfig(
        mesh=MeshConfig(4, 4), budget=MemoryBudget(neuron_bytes=480),
        stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                              neurons=tuple(range(64))),
        timesteps=20, partitioner="hsfc")
    stim = build_stimulus(cfg.stimulus, graph.neuron_count, cfg.timesteps,
                          graph.frac_bits)
    bundle = system.deploy(graph, cfg)
    metrics = {}
    for core_class in (KeptCore, ForgetfulCore):
        monkeypatch.setattr(system, "CoreState", core_class)
        with spans.installed(spans.Tracer()) as tracer:
            for mode in (MODE_BASELINE, MODE_UNISPIKE):
                tracer.mode = mode
                system.run_experiment(bundle, replace(cfg, mode=mode), stim)
        metrics[core_class] = spans.layer_metrics(tracer, 0, 0)
    assert {core.mode for core in cores if core.replayed} == {
        MODE_BASELINE, MODE_UNISPIKE}
    for mode in (MODE_BASELINE, MODE_UNISPIKE):
        for name in (f"core.accum_events.{mode}", f"core.updates.{mode}"):
            assert metrics[KeptCore][name] == metrics[ForgetfulCore][name] > 0


def test_trace_row_count_matches_the_report(monkeypatch, tmp_path):
    # the traced benchmark counts the rows handed to the CLI's trace
    # writer; each is one flit crossing one link
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    config = tmp_path / "brunel.ini"
    config.write_text("[workload]\nn_exc = 40\nn_inh = 10\nconn_prob = 0.15\n"
                      "seed = 4\n\n[run]\ntimesteps = 6\nstim_rate = 0.2\n\n"
                      "[partition]\nneuron_bytes = 144\n\n"
                      "[mesh]\nwidth = 3\nheight = 3\n")
    hops = {}
    with spans.installed(spans.Tracer()) as tracer:
        for mode in (MODE_BASELINE, MODE_UNISPIKE):
            tracer.mode = mode
            out = tmp_path / mode
            assert main(["simulate", "--config", str(config), "--mode", mode,
                         "--trace", "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            hops[mode] = report["traffic"]["flit_hops"]
    metrics = spans.layer_metrics(tracer, 0, 0)
    for mode in (MODE_BASELINE, MODE_UNISPIKE):
        assert metrics[f"cli.trace_rows.{mode}"] == hops[mode] > 0
        assert metrics[f"cli.write_s.{mode}"] > 0
