"""Tests of the benchmark itself: its correctness gate, its spans, and its
agreement with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
import run
import spans
import workloads
from spikenoc import noc, system
from spikenoc.neurons import LifParams
from spikenoc.noc import DeadlockError
from spikenoc.stimulus import StimulusSpec
from workloads import (DEFAULT_SEED, MODES, WORKLOADS, CliWorkload,
                       ConvWorkload)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_CONV = ConvWorkload(
    "tiny-conv", "1x4x4, 2x4x4 k3 s1 p1", LifParams(refractory_steps=0),
    mesh=(3, 3), neurons_per_core=8, timesteps=5,
    drive=StimulusSpec(kind="constant", amplitude=12.0,
                       neurons=tuple(range(16))))

TINY_CLI = CliWorkload("tiny-cli", """\
[workload]
n_exc = 40
n_inh = 10
w_exc = 0.4
w_inh = -0.3

[run]
timesteps = 10
stim_rate = 0.15

[partition]
neuron_bytes = 384
sss_iters = 300

[mesh]
width = 3
height = 3
""")

TINY = [TINY_CONV, TINY_CLI]


def run_once(workload, tmp_path, seed=1):
    """One repetition's worth of a benchmark run, as its result object."""
    return measure.run(workload, seed, 0, False, str(tmp_path / "work"))


@pytest.fixture
def tiny_pins(monkeypatch, tmp_path):
    """Pin the tiny workloads' clean outputs for DEFAULT_SEED."""
    pins = {}
    for w in TINY:
        prep = w.prepare(DEFAULT_SEED, str(tmp_path))
        deployed = w.setup(prep, str(tmp_path))
        pins[w.name] = {}
        for mode in MODES:
            r = w.collect(w.simulate(prep, deployed, mode))
            pins[w.name][mode] = {"spike_digest": r.spike_digest,
                                  "modeled_time_ps": r.modeled_time_ps,
                                  **r.traffic}
    monkeypatch.setattr(workloads, "PINNED", pins)


# -- the correctness gate -----------------------------------------------------

@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_clean_run_is_correct_and_leaves_no_files(workload, tmp_path,
                                                  tiny_pins):
    doc = run_once(workload, tmp_path, seed=DEFAULT_SEED)
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (True, 2, 0)
    assert set(doc["metrics"]) == {n for n, _ in measure.END_TO_END}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert not (tmp_path / "work").exists()


def _perturb_results(monkeypatch, change):
    """Make every run_experiment result wrong in the way ``change`` says,
    both for in-process calls and for the command line's."""
    original = system.run_experiment

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        change(result)
        return result

    monkeypatch.setattr(system, "run_experiment", wrong)
    monkeypatch.setattr("spikenoc.cli.run_experiment", wrong)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_perturbed_spike_train_counts_as_failed(workload, tmp_path,
                                                monkeypatch):
    def flip_first_spike(result):
        steps = [list(s) for s in result.train.steps]
        t = next(i for i, s in enumerate(steps) if s)
        steps[t].pop(0)
        result.train = dataclasses.replace(
            result.train, steps=tuple(tuple(s) for s in steps))
        result.report.spike_digest = result.train.digest()

    _perturb_results(monkeypatch, flip_first_spike)
    doc = run_once(workload, tmp_path)
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 2)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_changed_traffic_total_counts_as_failed(workload, tmp_path,
                                                monkeypatch, tiny_pins):
    def one_more_hop(result):
        result.report.traffic["flit_hops"] += 1

    _perturb_results(monkeypatch, one_more_hop)
    doc = run_once(workload, tmp_path, seed=DEFAULT_SEED)
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 2)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_lost_flit_counts_as_failed_on_any_seed(workload, tmp_path,
                                               monkeypatch):
    def lose_a_flit(result):
        result.report.traffic["ejected_flits"] -= 1

    _perturb_results(monkeypatch, lose_a_flit)
    doc = run_once(workload, tmp_path, seed=DEFAULT_SEED + 1)
    assert doc["failed"] == 2


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_deadlock_counts_as_failed(workload, tmp_path, monkeypatch):
    calls = []
    original = noc.NocSim.run_timestep

    def deadlock_in_first_mode(self, *args, **kwargs):
        if not calls:
            calls.append(self)
        if self is calls[0]:
            raise DeadlockError("forced stall")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(noc.NocSim, "run_timestep", deadlock_in_first_mode)
    tally = measure.Tally()
    prep = workload.prepare(1, str(tmp_path))
    rep = measure.repetition(workload, prep, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert set(rep.ref_s) == {"setup", "unispike"}


def test_pins_are_checked_only_on_the_default_seed():
    assert workloads.pins_for("conv-congested", DEFAULT_SEED + 1,
                              "baseline") is None
    pinned = workloads.pins_for("conv-congested", DEFAULT_SEED, "baseline")
    assert pinned["flit_hops"] == 114532
    assert set(WORKLOADS) == set(workloads.PINNED)


# -- workload definitions -----------------------------------------------------

def test_conv_congested_is_the_mode_comparison_default_at_seed_3():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import mode_comparison
    finally:
        sys.path.pop(0)
    graph, cfg = mode_comparison.default_setup()
    g, c, _ = WORKLOADS["conv-congested"].inputs(3)
    assert g.digest() == graph.digest()
    assert dataclasses.replace(c, stimulus=cfg.stimulus) == cfg
    assert dataclasses.replace(c.stimulus, seed=0) == cfg.stimulus


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        measure.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == spans.PER_LAYER


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conv-congested",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- spans on the real workloads ----------------------------------------------

EVERY_RUN = {"graph.build", "stimulus.build", "partition.make",
             "partition.order", "partition.cut", "partition.place",
             "artifact.build", "system.run", "core.step", "noc.step",
             "metrics.timestep_total", "metrics.redundancy"}
EXPECTED_SPANS = {
    "conv-congested": EVERY_RUN,
    "izh-quiet": EVERY_RUN,
    "brunel-cli": EVERY_RUN | {"partition.sss", "artifact.save",
                               "artifact.load", "cli.write",
                               "cli.write_trace"},
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced repetition of every real workload at the default seed."""
    out = {}
    for name, w in WORKLOADS.items():
        tracer = spans.Tracer()
        with spans.installed(tracer):
            prep = w.prepare(DEFAULT_SEED, str(tmp_path_factory.mktemp(name)))
        rep_tracer, tally = spans.Tracer(), measure.Tally()
        rep, metrics = measure.traced_repetition(w, prep, tally, rep_tracer)
        out[name] = (tracer, rep_tracer, rep, metrics, tally)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_span_fires_where_expected(traced, name):
    prep_tracer, rep_tracer, _, metrics, tally = traced[name]
    assert "graph.reference" in prep_tracer.fired()
    assert (tally.attempted, tally.failed) == (2, 0)
    assert rep_tracer.fired() == EXPECTED_SPANS[name]
    assert set(metrics) | {"graph.reference_s", "trace.overhead_s"} == \
        {n for n, _, _ in spans.PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_boundary_counts_match_the_reports(traced, name):
    _, _, rep, metrics, _ = traced[name]
    for mode in MODES:
        traffic = rep.results[mode].traffic
        assert metrics[f"noc.flit_hops.{mode}"] == traffic["flit_hops"]
        assert metrics[f"noc.packets.{mode}"] == traffic["packets"]
        assert metrics[f"core.jobs.{mode}"] == traffic["packets"]
        assert metrics[f"core.step_s.{mode}"] > 0
        assert metrics[f"noc.step_s.{mode}"] > 0
        want_rows = traffic["flit_hops"] if name == "brunel-cli" else 0
        assert metrics[f"cli.trace_rows.{mode}"] == want_rows
    assert (metrics["partition.sss_s"] > 0) == (name == "brunel-cli")
    assert metrics["partition.objective_j"] > 0
