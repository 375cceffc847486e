"""The benchmark's workloads and the correctness check every mode run passes.

A workload is built from the seed alone.  One repetition is: set up (build
the network and stimulus, deploy), then simulate each transmission mode on
the deployed result.  Everything a repetition needs that is not part of the
measured work (the reference spike train, the config file) is prepared once,
outside any timed region.

Layer functions are called through their modules (``graph.build_conv_topology``
rather than a name imported into this file) so that ``spans.installed`` can
wrap them for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace

from spikenoc import cli, graph, stimulus, system
from spikenoc.core import MODE_BASELINE, MODE_UNISPIKE
from spikenoc.config import (build_graph, load_config, override_seed,
                             parse_layers, to_system_config)
from spikenoc.graph import SpikeTrain
from spikenoc.metrics import METRICS, parse_report
from spikenoc.neurons import IzhikevichParams, LifParams, NumericError
from spikenoc.noc import DeadlockError, MeshConfig
from spikenoc.partition import MemoryBudget
from spikenoc.stimulus import StimulusSpec

MODES = (MODE_BASELINE, MODE_UNISPIKE)
DEFAULT_SEED = 3


class ModeFailed(Exception):
    """A mode run that the program itself reported as failed."""


# A mode run that raises one of these counts as failed, not as a crash.
FAILURES = (DeadlockError, NumericError, ModeFailed)


@dataclass(frozen=True)
class ModeResult:
    spike_digest: str
    modeled_time_ps: int
    traffic: dict[str, int]
    problems: tuple[str, ...] = ()     # workload-specific output checks


def check(result: ModeResult, reference_digest: str,
          pinned: dict | None) -> list[str]:
    """Every way ``result`` is wrong; empty when the mode run is correct."""
    problems = list(result.problems)
    if result.spike_digest != reference_digest:
        problems.append("spike train differs from reference_simulate")
    if result.traffic["injected_flits"] != result.traffic["ejected_flits"]:
        problems.append(f"injected {result.traffic['injected_flits']} flits "
                        f"but ejected {result.traffic['ejected_flits']}")
    if pinned is not None:
        got = {"spike_digest": result.spike_digest,
               "modeled_time_ps": result.modeled_time_ps,
               **{m: result.traffic[m] for m in METRICS}}
        for key, want in pinned.items():
            if got[key] != want:
                problems.append(f"{key} is {got[key]}, pinned {want}")
    return problems


# -- in-process workloads -------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    seed: int
    reference_digest: str
    work_dir: str


@dataclass(frozen=True)
class ConvWorkload:
    """A conv stack deployed with hsfc and run through ``run_experiment``."""

    name: str
    layers: str
    model: object
    mesh: tuple[int, int]
    neurons_per_core: int
    timesteps: int
    drive: StimulusSpec      # its seed is replaced by the workload seed

    def inputs(self, seed: int):
        g = graph.build_conv_topology(parse_layers(self.layers), seed=seed,
                                      model=self.model)
        cfg = system.SystemConfig(
            mesh=MeshConfig(*self.mesh),
            budget=MemoryBudget(neuron_bytes=self.neurons_per_core * 24),
            stimulus=replace(self.drive, seed=seed),
            timesteps=self.timesteps, partitioner="hsfc")
        stim = stimulus.build_stimulus(cfg.stimulus, g.neuron_count,
                                       cfg.timesteps, g.frac_bits)
        return g, cfg, stim

    def prepare(self, seed: int, work_dir: str) -> Prepared:
        g, cfg, stim = self.inputs(seed)
        ref = graph.reference_simulate(g, stim, cfg.timesteps, cfg.dt)
        return Prepared(seed, ref.digest(), work_dir)

    def setup(self, prep: Prepared, rep_dir: str):
        g, cfg, stim = self.inputs(prep.seed)
        return system.deploy(g, cfg), cfg, stim

    def simulate(self, prep: Prepared, deployed, mode: str):
        bundle, cfg, stim = deployed
        return system.run_experiment(bundle, replace(cfg, mode=mode), stim)

    def collect(self, raw) -> ModeResult:
        return ModeResult(raw.train.digest(), raw.report.modeled_time_ps,
                          dict(raw.report.traffic))

    def bundle_bytes(self, deployed) -> int:
        return 0        # deployed in memory, never written


# -- the command-line workload ----------------------------------------------------

@dataclass(frozen=True)
class CliWorkload:
    """An INI experiment driven in-process through ``spikenoc.cli.main``:
    ``partition`` into a bundle directory, then ``simulate --trace`` per mode."""

    name: str
    config: str

    def _config_path(self, work_dir: str) -> str:
        return os.path.join(work_dir, f"{self.name}.ini")

    def prepare(self, seed: int, work_dir: str) -> Prepared:
        path = self._config_path(work_dir)
        with open(path, "w") as f:
            f.write(self.config)
        exp = override_seed(load_config(path), seed)
        sys_cfg = to_system_config(exp)
        g = build_graph(exp)
        stim = stimulus.build_stimulus(sys_cfg.stimulus, g.neuron_count,
                                       sys_cfg.timesteps, g.frac_bits)
        ref = graph.reference_simulate(g, stim, sys_cfg.timesteps, sys_cfg.dt)
        return Prepared(seed, ref.digest(), work_dir)

    def _main(self, prep: Prepared, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([argv[0], "--config",
                             self._config_path(prep.work_dir),
                             "--seed", str(prep.seed), *argv[1:]])

    def setup(self, prep: Prepared, rep_dir: str):
        bundle_dir = os.path.join(rep_dir, "bundle")
        code = self._main(prep, "partition", "--out", bundle_dir)
        if code != 0:
            raise RuntimeError(f"spikenoc partition exited {code}")
        return bundle_dir

    def simulate(self, prep: Prepared, bundle_dir: str, mode: str):
        out = os.path.join(os.path.dirname(bundle_dir), mode)
        code = self._main(prep, "simulate", "--bundle", bundle_dir, "--trace",
                          "--mode", mode, "--out", out)
        if code != 0:
            raise ModeFailed(f"spikenoc simulate --mode {mode} exited {code}")
        return out

    def collect(self, out: str) -> ModeResult:
        report = parse_report(os.path.join(out, "report.json"))
        train = SpikeTrain.load_text(os.path.join(out, "spikes.txt"))
        problems = []
        if train.digest() != report.spike_digest:
            problems.append("spikes.txt does not match report.json")
        for fname, key in (("packets.csv", "packets"), ("trace.csv", "flit_hops")):
            with open(os.path.join(out, fname)) as f:
                rows = sum(1 for _ in f) - 1
            if rows != report.traffic[key]:
                problems.append(f"{fname} has {rows} rows for "
                                f"{report.traffic[key]} {key}")
        return ModeResult(train.digest(), report.modeled_time_ps,
                          dict(report.traffic), tuple(problems))

    def bundle_bytes(self, bundle_dir: str) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(bundle_dir) for f in files)


BRUNEL_CLI_CONFIG = """\
[workload]
kind = brunel
n_exc = 480
n_inh = 120
conn_prob = 0.1
model = lif

[run]
timesteps = 20
stimulus = poisson
stim_amplitude = 12.0
stim_rate = 0.05

[partition]
partitioner = hsfc-sss
neuron_bytes = 408

[mesh]
width = 6
height = 6
"""

WORKLOADS = {
    w.name: w for w in (
        ConvWorkload(
            "conv-congested", "1x16x16, 8x16x16 k3 s1 p1",
            LifParams(refractory_steps=0), mesh=(6, 6), neurons_per_core=64,
            timesteps=20,
            drive=StimulusSpec(kind="constant", amplitude=12.0,
                               neurons=tuple(range(256)))),
        ConvWorkload(
            "izh-quiet", "1x32x32, 4x32x32 k3 s1 p1", IzhikevichParams(),
            mesh=(8, 8), neurons_per_core=128, timesteps=300,
            drive=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.02)),
        CliWorkload("brunel-cli", BRUNEL_CLI_CONFIG),
    )
}

# Outputs of the seed commit for DEFAULT_SEED only; other seeds are checked
# against reference_simulate and flit conservation alone.
PINNED: dict[str, dict[str, dict]] = {
    "conv-congested": {
        "baseline": {
            "spike_digest":
                "4ba9bbf83db4defb85f1da63d2528d10e0468fb6415a8683e29066a7fc3fbf2e",
            "modeled_time_ps": 78531250,
            "injected_flits": 25080, "ejected_flits": 25080, "flit_hops": 114532,
            "packets": 12540, "head_flits": 12540, "body_flits": 12540},
        "unispike": {
            "spike_digest":
                "4ba9bbf83db4defb85f1da63d2528d10e0468fb6415a8683e29066a7fc3fbf2e",
            "modeled_time_ps": 45162500,
            "injected_flits": 13984, "ejected_flits": 13984, "flit_hops": 64030,
            "packets": 1444, "head_flits": 1444, "body_flits": 12540},
    },
    "izh-quiet": {
        "baseline": {
            "spike_digest":
                "c4e659a89f2313182f37164467474aed214eb8ea5a3205724897002d8c0f0ed6",
            "modeled_time_ps": 320400500,
            "injected_flits": 1148, "ejected_flits": 1148, "flit_hops": 6170,
            "packets": 574, "head_flits": 574, "body_flits": 574},
        "unispike": {
            "spike_digest":
                "c4e659a89f2313182f37164467474aed214eb8ea5a3205724897002d8c0f0ed6",
            "modeled_time_ps": 327687500,
            "injected_flits": 1133, "ejected_flits": 1133, "flit_hops": 6091,
            "packets": 559, "head_flits": 559, "body_flits": 574},
    },
    "brunel-cli": {
        "baseline": {
            "spike_digest":
                "cd9db194c1ff8662c9c25255849a5c40781fd2a8c9ced56eadad51664c8c6fbb",
            "modeled_time_ps": 28343750,
            "injected_flits": 30018, "ejected_flits": 30018, "flit_hops": 119170,
            "packets": 15009, "head_flits": 15009, "body_flits": 15009},
        "unispike": {
            "spike_digest":
                "cd9db194c1ff8662c9c25255849a5c40781fd2a8c9ced56eadad51664c8c6fbb",
            "modeled_time_ps": 22818750,
            "injected_flits": 26687, "ejected_flits": 26687, "flit_hops": 106011,
            "packets": 11678, "head_flits": 11678, "body_flits": 15009},
    },
}


def pins_for(name: str, seed: int, mode: str) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return PINNED[name][mode]
