import argparse
import ast
import csv
import importlib.util
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import spikenoc

from spikenoc import cli, system
from spikenoc.cli import main
from spikenoc.config import parse_config_text
from spikenoc.core import CoreTiming
from spikenoc.graph import (SnnGraph, SpikeTrain, build_brunel, load_graph,
                            save_binary, save_text)
from spikenoc.metrics import parse_report
from spikenoc.neurons import IzhikevichParams
from spikenoc.noc import MeshConfig, NocSim, PacketRecord

CONFIG = """
[workload]
n_exc = 40
n_inh = 10
conn_prob = 0.1
w_exc = 0.4
w_inh = -0.3
seed = 6

[run]
timesteps = 10
stimulus = poisson
stim_amplitude = 12.0
stim_rate = 0.15

[partition]
neuron_bytes = 384
sss_iters = 300

[mesh]
width = 3
height = 3
"""


def with_setting(section: str, *settings: str) -> str:
    """CONFIG with each `key = value` set in `section`, added if CONFIG
    lacks it."""
    text = CONFIG
    for setting in settings:
        key = setting.split("=")[0].strip()
        lines = [setting if line.split("=")[0].strip() == key else line
                 for line in text.splitlines()]
        text = "\n".join(lines) + "\n"
        if setting in lines:
            continue
        header = f"[{section}]\n"
        if header in text:
            text = text.replace(header, f"{header}{setting}\n")
        else:
            text = f"{text}\n{header}{setting}\n"
    return text


def edit_manifest(bundle_dir, edit) -> None:
    """Apply ``edit`` to the bundle's parsed manifest and write it back."""
    path = bundle_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def entry_at(manifest, coord) -> dict:
    """The manifest's core entry for ``coord``."""
    return next(e for e in manifest["cores"] if e["coord"] == list(coord))


def deployed(tmp_path, config_path):
    """``spikenoc partition`` of the config into ``tmp_path/bundle``."""
    bundle_dir = tmp_path / "bundle"
    assert main(["partition", "--config", config_path,
                 "--out", str(bundle_dir)]) == 0
    return bundle_dir


def on_bundle(command: str, bundle_dir, config_path, tmp_path) -> int:
    """``validate --bundle``, or ``simulate --bundle`` into ``tmp_path/run``."""
    args = [command, "--bundle", str(bundle_dir)]
    if command == "simulate":
        args += ["--config", config_path, "--out", str(tmp_path / "run")]
    return main(args)


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CONFIG)
    return str(p)


def test_full_pipeline(tmp_path, config_path, capsys):
    graph_path = str(tmp_path / "net.snn")
    bundle_dir = str(tmp_path / "bundle")
    out_dir = str(tmp_path / "run")

    assert main(["generate", "--config", config_path, "--out", graph_path]) == 0
    assert load_graph(graph_path).neuron_count == 50

    assert main(["partition", "--config", config_path, "--graph", graph_path,
                 "--out", bundle_dir]) == 0
    assert "objective J=" in capsys.readouterr().out

    assert main(["simulate", "--config", config_path, "--bundle", bundle_dir,
                 "--out", out_dir]) == 0
    report = parse_report(f"{out_dir}/report.json")
    assert report.total_spikes > 0
    assert report.config_digest == parse_config_text(CONFIG).digest()
    train = SpikeTrain.load_text(f"{out_dir}/spikes.txt")
    assert train.total_spikes() == report.total_spikes

    # packets.csv, timesteps.csv and the report count the same packets
    with open(f"{out_dir}/packets.csv", newline="") as f:
        logged = [int(row["timestep"]) for row in csv.DictReader(f)]
    with open(f"{out_dir}/timesteps.csv", newline="") as f:
        per_step = [int(row["packets"]) for row in csv.DictReader(f)]
    assert len(logged) == report.redundancy["total_packets"]
    assert [logged.count(t) for t in range(len(per_step))] == per_step
    assert sum(per_step) == report.traffic["packets"]

    assert main(["validate", "--config", config_path,
                 "--bundle", bundle_dir]) == 0
    assert "ok" in capsys.readouterr().out


def test_simulate_without_bundle_deploys_in_memory(tmp_path, config_path):
    out_dir = str(tmp_path / "run")
    assert main(["simulate", "--config", config_path, "--out", out_dir]) == 0
    assert parse_report(f"{out_dir}/report.json").total_spikes > 0


def test_reruns_are_byte_identical(tmp_path, config_path):
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", config_path,
                     "--out", str(out_dir)]) == 0
        outs.append(((out_dir / "report.json").read_bytes(),
                     (out_dir / "packets.csv").read_bytes(),
                     (out_dir / "spikes.txt").read_bytes()))
    assert outs[0] == outs[1]


def test_mode_and_trace_overrides(tmp_path, config_path):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", config_path, "--mode", "baseline",
                 "--trace", "--out", str(out_dir)]) == 0
    assert parse_report(str(out_dir / "report.json")).mode == "baseline"
    assert (out_dir / "trace.csv").read_text().startswith("time_ps,link,pid,kind")


def test_compare_matrix(tmp_path, config_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", config_path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "traffic_saving" in out and "hsfc-sss" in out
    assert "steps_ending_on_network" in out
    summary = json.loads((out_dir / "comparison.json").read_text())
    assert summary["spike_digests_equal"] is True
    assert summary["matches_reference"] is True
    assert set(summary["ratios"]) == {"naive", "hsfc", "hsfc-sss"}
    for name in ("baseline_naive", "unispike_hsfc", "baseline_hsfc-sss"):
        assert (out_dir / f"{name}.json").exists()
    # each cell's step attribution, derived again from its report's rows
    assert set(summary["step_attribution"]) == {"naive", "hsfc", "hsfc-sss"}
    for part, by_mode in summary["step_attribution"].items():
        assert set(by_mode) == {"baseline", "unispike"}
        for mode, got in by_mode.items():
            rows = parse_report(str(out_dir / f"{mode}_{part}.json")).per_timestep
            tails = [r.drain_ps - r.busy_ps for r in rows]
            assert min(tails) >= 0
            assert got == {
                "busy_ps": sum(r.busy_ps for r in rows),
                "tail_ps": sum(tails),
                "steps_ending_on_network": sum(1 for t in tails if t)}


def test_compare_fails_when_every_run_differs_from_the_reference(
        tmp_path, config_path, monkeypatch, capsys):
    # the runs still agree with each other; only the reference moved
    true_reference = system.reference_simulate

    def moved_spike(graph, stimulus, timesteps, dt=1.0):
        train = true_reference(graph, stimulus, timesteps, dt)
        steps = list(train.steps)
        t = next(t for t, fired in enumerate(steps) if fired)
        steps[t], steps[t + 1] = (steps[t][1:],
                                  tuple(sorted(steps[t + 1] + steps[t][:1])))
        return SpikeTrain(train.neuron_count, tuple(steps))

    monkeypatch.setattr(system, "reference_simulate", moved_spike)
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--config", config_path,
                 "--out", str(out_dir)]) == 1
    assert "differ from the reference" in capsys.readouterr().err
    summary = json.loads((out_dir / "comparison.json").read_text())
    assert summary["spike_digests_equal"] is True
    assert summary["matches_reference"] is False


def test_generate_binary_format(tmp_path, config_path):
    path = str(tmp_path / "net.snnb")
    assert main(["generate", "--config", config_path, "--out", path,
                 "--format", "binary"]) == 0
    assert load_graph(path).neuron_count == 50


def test_seed_override_changes_outputs(tmp_path, config_path, capsys):
    main(["show-config", "--config", config_path])
    plain = capsys.readouterr().out
    main(["show-config", "--config", config_path, "--seed", "9"])
    seeded = capsys.readouterr().out
    assert plain != seeded
    assert "# digest:" in plain
    # the rendered document itself stays parseable
    body = "".join(line + "\n" for line in plain.splitlines()
                   if not line.startswith("#"))
    assert parse_config_text(body) == parse_config_text(CONFIG)
    assert "seed = 9" in seeded


def test_readme_quick_start_names_every_subcommand_and_no_other():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    quick_start = text.split("\n## Quick start\n")[1].split("\n## ")[0]
    in_table = set(re.findall(r"^\| `([\w-]+)` \|", quick_start, re.M))
    in_examples = set(re.findall(r"^spikenoc ([\w-]+)", quick_start, re.M))
    registered = set(next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)).choices)
    assert in_table == registered
    assert in_examples == registered


# every directed link label of a 4x4 mesh, as the trace writes it
MESH_4X4_LINKS = tuple(link for r in NocSim(MeshConfig(4, 4), CoreTiming()).routers
                       for link in r.link if link is not None)
TIME_PS = st.integers(0, 2 ** 64) | st.sampled_from([0, 6250, 10 ** 18])
TRACE_STEPS = st.lists(st.lists(st.tuples(
    TIME_PS, st.sampled_from(MESH_4X4_LINKS), st.integers(0, 2 ** 40),
    st.sampled_from("HB"))), max_size=4)
COORD = st.tuples(st.integers(0, 3), st.integers(0, 3))
PACKET_STEPS = st.lists(st.lists(st.builds(
    PacketRecord, st.integers(0, 2 ** 40), COORD, COORD, st.integers(0, 10 ** 6),
    st.integers(0, 300), TIME_PS, st.just(-1) | TIME_PS)), max_size=4)


def sink_bytes(columns, write, steps) -> bytes:
    """What ``csv_sink`` leaves in its file after ``steps``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        with cli.csv_sink(path, columns, write) as sink:
            for rows in steps:
                sink(rows)
        with open(path, "rb") as f:
            return f.read()


def csv_module_bytes(columns, rows) -> bytes:
    """The same header and rows as the ``csv`` module writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode()


@given(TRACE_STEPS)
@example([[], [(10 ** 18, link, 7, "H") for link in MESH_4X4_LINKS], []])
@settings(max_examples=100, deadline=None)
def test_flit_trace_bytes_are_the_csv_modules(steps):
    assert len(MESH_4X4_LINKS) == 48
    assert sink_bytes(cli.TRACE_COLUMNS, cli.write_flit_trace, steps) == \
        csv_module_bytes(cli.TRACE_COLUMNS,
                         [row for rows in steps for row in rows])


@given(PACKET_STEPS)
@example([[]])
@settings(max_examples=100, deadline=None)
def test_packet_log_bytes_are_the_csv_modules(steps):
    assert sink_bytes(cli.PACKET_LOG_COLUMNS, cli.write_packet_log, steps) == \
        csv_module_bytes(cli.PACKET_LOG_COLUMNS, [
            [r.pid, r.timestep, r.src[0], r.src[1], r.dest[0], r.dest[1],
             r.body_count, r.inject_ps, r.eject_ps]
            for rows in steps for r in rows])


class Writes:
    """A text file that keeps each ``write`` call's string."""

    def __init__(self):
        self.calls: list[str] = []

    def write(self, text: str) -> None:
        self.calls.append(text)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3079])
def test_bounded_writes_are_the_joined_rows(n):
    trace = [(6250 * i, MESH_4X4_LINKS[i % 48], i, "HB"[i % 2])
             for i in range(n)]
    records = [PacketRecord(i, (i % 4, 1), (2, i % 3), i // 7, i % 17,
                            10 * i, -1 if i % 5 else 10 * i + 3)
               for i in range(n)]
    cases = (
        (cli.write_flit_trace, trace, "".join([
            f'{t},"{link}",{pid},{kind}\r\n' for t, link, pid, kind in trace])),
        (cli.write_packet_log, records, "".join([
            f"{r.pid},{r.timestep},{r.src[0]},{r.src[1]},{r.dest[0]},"
            f"{r.dest[1]},{r.body_count},{r.inject_ps},{r.eject_ps}\r\n"
            for r in records])))
    for write, rows, joined in cases:
        f = Writes()
        write(rows, f)
        assert "".join(f.calls) == joined
        assert len(f.calls) == -(-n // 1024)
        assert all(text.count("\n") <= 1024 for text in f.calls)


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[workload]\nn_ecx = 9\n")
        assert main(["show-config", "--config", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["show-config", "--config", str(missing)]) == 2
        assert (f"error: [Errno 2] No such file or directory: '{missing}'"
                in capsys.readouterr().err)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--bundle", str(tmp_path / "nope"),
                     "--out", str(out_dir)]) == 2
        assert (f"error: [Errno 2] No such file or directory: "
                f"'{tmp_path / 'nope'}" in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_validate_needs_a_target(self, capsys):
        assert main(["validate"]) == 2
        assert "nothing to validate" in capsys.readouterr().err

    def test_corrupted_bundle(self, tmp_path, config_path, capsys):
        bundle_dir = deployed(tmp_path, config_path)
        manifest = bundle_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:-40])
        assert main(["validate", "--bundle", str(bundle_dir)]) == 2
        assert f"error: {manifest}: " in capsys.readouterr().err

    def test_simulate_rejects_neuron_outside_graph(self, tmp_path,
                                                   config_path, capsys):
        bundle_dir = deployed(tmp_path, config_path)
        edit_manifest(bundle_dir, lambda m: entry_at(m, (0, 0))["neurons"]
                      .__setitem__(-1, 50))         # the graph has 50
        assert on_bundle("simulate", bundle_dir, config_path, tmp_path) == 2
        assert ("core (0, 0): neuron 50 is not in the graph"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_resigned_core_off_mesh(self, tmp_path, config_path, capsys,
                                    command):
        bundle_dir = deployed(tmp_path, config_path)
        edit_manifest(bundle_dir, lambda m: entry_at(m, (0, 0)).update(
            coord=[3, 0]))                          # the mesh is 3x3
        assert on_bundle(command, bundle_dir, config_path, tmp_path) == 2
        assert "core (3, 0): outside the 3x3 mesh" in capsys.readouterr().err

    def test_resigned_truncated_core(self, tmp_path, config_path, capsys):
        bundle_dir = deployed(tmp_path, config_path)
        dropped = []
        edit_manifest(bundle_dir, lambda m: dropped.append(
            entry_at(m, (0, 0))["neurons"].pop()))
        assert main(["validate", "--bundle", str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bundle_dir / 'manifest.json'}: invalid bundle" in err
        assert f"neurons {dropped} not deployed on any core" in err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_flipped_graph_byte_exits_2(self, tmp_path, config_path, capsys,
                                        command):
        bundle_dir = deployed(tmp_path, config_path)
        graph_path = bundle_dir / "graph.snnb"
        blob = bytearray(graph_path.read_bytes())
        blob[-1] ^= 0x01                            # a synapse weight
        graph_path.write_bytes(bytes(blob))
        assert on_bundle(command, bundle_dir, config_path, tmp_path) == 2
        assert (f"{graph_path}: does not match the graph digest"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit,needle", [
        (lambda m: m["cores"].append(entry_at(m, (0, 0))),
         "core (0, 0): coordinate held by two cores"),
        (lambda m: m["cores"].remove(entry_at(m, (0, 0))),
         "not deployed on any core"),
        (lambda m: entry_at(m, (0, 0))["size_report"].update(neuron_bytes=1),
         "core (0, 0): stored size report differs from the derived one"),
        (lambda m: entry_at(m, (0, 0)).update(neurons="all"),
         "coordinates and neuron ids must be integers"),
        (lambda m: m.update(version=1), "unsupported bundle version 1"),
        (lambda m: m["budget"].update(neuron_bytes=384.5,
                                      post_conn_bytes=1e300),
         "neuron_bytes must be an integer"),
        (lambda m: m["budget"].update(bytes_per_synapse=True),
         "bytes_per_synapse must be an integer"),
    ], ids=["duplicated", "missing", "size-report", "non-integer",
            "version-1", "float-budget", "bool-budget"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_manifest_edit_exits_2(self, tmp_path, config_path, capsys,
                                   command, edit, needle):
        bundle_dir = deployed(tmp_path, config_path)
        edit_manifest(bundle_dir, edit)
        assert on_bundle(command, bundle_dir, config_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: {bundle_dir / 'manifest.json'}: " in err
        assert needle in err
        assert not (tmp_path / "run").exists()

    def test_truncated_binary_graph_exits_2(self, tmp_path, config_path,
                                            capsys):
        graph_path = tmp_path / "net.snnb"
        assert main(["generate", "--config", config_path,
                     "--out", str(graph_path)]) == 0
        blob = graph_path.read_bytes()
        graph_path.write_bytes(blob[:len(blob) // 2])
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", config_path, "--graph",
                     str(graph_path), "--out", str(bundle_dir)]) == 2
        assert f"{graph_path}: truncated at byte" in capsys.readouterr().err
        assert not bundle_dir.exists()

    def test_graph_id_outside_network_exits_2(self, tmp_path, config_path,
                                              capsys):
        graph_path = tmp_path / "net.snn"
        graph_path.write_text("snn 1\nneurons 3\nsyn 7 1 5\n")
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", config_path, "--graph",
                     str(graph_path), "--out", str(bundle_dir)]) == 2
        assert (f"{graph_path}:3: neuron id 7 outside 0..2"
                in capsys.readouterr().err)
        assert not bundle_dir.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_truncated_bundle_graph_exits_2(self, tmp_path, config_path,
                                            capsys, command):
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", config_path,
                     "--out", str(bundle_dir)]) == 0
        graph_path = bundle_dir / "graph.snnb"
        graph_path.write_bytes(graph_path.read_bytes()[:-1])
        args = [command, "--config", config_path, "--bundle", str(bundle_dir)]
        if command == "simulate":
            args += ["--out", str(tmp_path / "run")]
        assert main(args) == 2
        assert f"{graph_path}: truncated at byte" in capsys.readouterr().err

    def test_mesh_mismatch_between_bundle_and_config(self, tmp_path,
                                                     config_path, capsys):
        bundle_dir = str(tmp_path / "bundle")
        assert main(["partition", "--config", config_path,
                     "--out", bundle_dir]) == 0
        other = tmp_path / "other.ini"
        other.write_text(CONFIG.replace("width = 3", "width = 4"))
        assert main(["simulate", "--config", str(other), "--bundle", bundle_dir,
                     "--out", str(tmp_path / "run")]) == 2
        assert "mesh" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_budget_mismatch_between_bundle_and_config(self, tmp_path,
                                                       config_path, capsys):
        # the run prices neuron-state SRAM from the bundle's budget and
        # stamps the config's digest, so the two must agree
        bundle_dir = deployed(tmp_path, config_path)
        other = tmp_path / "other.ini"
        other.write_text(with_setting("partition", "neuron_bytes = 768",
                                      "bytes_per_neuron_state = 48"))
        assert main(["simulate", "--config", str(other), "--bundle",
                     str(bundle_dir), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "bundle was deployed under MemoryBudget(" in err
        assert "neuron_bytes=384" in err and "neuron_bytes=768" in err
        assert "bytes_per_neuron_state=48" in err
        assert not (tmp_path / "run").exists()

    def test_validate_rejects_a_bundle_of_another_network(self, tmp_path,
                                                          config_path,
                                                          capsys):
        bundle_dir = deployed(tmp_path, config_path)
        other = tmp_path / "other.ini"
        other.write_text(CONFIG.replace("n_exc = 40", "n_exc = 44"))
        assert main(["validate", "--config", str(other), "--bundle",
                     str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert "bundle holds a 50-neuron graph with digest" in err
        assert "the config builds a 54-neuron graph with digest" in err

    @pytest.mark.parametrize("setting,needle", [
        ("width = 4", "deployed on a 3x3 mesh but the config says 4x3"),
        ("neuron_bytes = 768", "neuron_bytes=384"),
    ])
    def test_validate_rejects_a_bundle_off_the_config(
            self, tmp_path, config_path, capsys, setting, needle):
        bundle_dir = deployed(tmp_path, config_path)
        section = "mesh" if setting.startswith("width") else "partition"
        other = tmp_path / "other.ini"
        other.write_text(with_setting(section, setting))
        assert main(["validate", "--config", str(other), "--bundle",
                     str(bundle_dir)]) == 2
        assert needle in capsys.readouterr().err

    def test_validate_reads_the_seed_as_partition_does(self, tmp_path,
                                                       config_path, capsys):
        # the seed builds another Brunel network of the same size
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", config_path, "--seed", "9",
                     "--out", str(bundle_dir)]) == 0
        args = ["validate", "--config", config_path, "--bundle",
                str(bundle_dir)]
        assert main(args) == 2
        assert "50-neuron graph" in capsys.readouterr().err
        assert main(args + ["--seed", "9"]) == 0
        assert "holds the network of" in capsys.readouterr().out

    @pytest.mark.parametrize("setting,needle", [
        ("sss_iters = -5", "sss_iters must be non-negative"),
        ("sss_cooling = 1.5", "sss_cooling must be in [0, 1]"),
        ("seg_ratio = -1", "seg_ratio must be in (0, 1]"),
        ("sss_t0 = nan", "sss_t0 must be finite"),
    ])
    def test_nonsense_sss_setting(self, tmp_path, capsys, setting, needle):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG.replace("sss_iters = 300", setting))
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", str(bad),
                     "--out", str(bundle_dir)]) == 2
        assert needle in capsys.readouterr().err
        assert not bundle_dir.exists()

    # one out-of-range value per class that owns it: MeshConfig, CoreTiming,
    # EnergyCostTable, MemoryBudget, StimulusSpec and SystemConfig.dt
    @pytest.mark.parametrize("section,setting,needle", [
        ("mesh", "vcs = 0", "[mesh] need at least one VC"),
        ("core", "gen_cycles_per_flit = -3",
         "[core] decode and generation cycles must be non-negative"),
        ("energy", "router_per_flit = -5",
         "[energy] router_per_flit must be finite and non-negative"),
        ("partition", "synapse_bytes = 0",
         "[partition] synapse_bytes must be positive"),
        ("run", "stim_rate = 1.5", "stimulus rate 1.5 outside [0, 1]"),
        ("run", "dt = 0", "dt must be finite and positive"),
    ])
    @pytest.mark.parametrize("command", ["validate", "show-config"])
    def test_out_of_range_value_exits_2_at_parse(self, tmp_path, capsys,
                                                 command, section, setting,
                                                 needle):
        bad = tmp_path / "bad.ini"
        bad.write_text(with_setting(section, setting))
        assert main([command, "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}: {needle}" in captured.err
        assert captured.out == ""

    # [workload] values rejected at parse time, before any graph is built
    @pytest.mark.parametrize("settings,needle", [
        (("n_exc = -5",), "n_exc -5 and n_inh 10 must be non-negative"),
        (("conn_prob = 2",), "conn_prob 2.0 outside (0, 1]"),
        (("conn_prob = nan",), "conn_prob nan outside (0, 1]"),
        (("frac_bits = -1",), "frac_bits must be in [0, 15]; got -1"),
        (("frac_bits = 16",), "frac_bits must be in [0, 15]; got 16"),
        (("kind = conv", "layers = 0x4x4"), "layer 0: non-positive shape"),
        (("kind = conv", "layers = 1x4x4, 2x4x4", "w_lo = 1", "w_hi = 0"),
         "weight range w_lo 1.0, w_hi 0.0 must be finite with w_lo <= w_hi"),
        (("kind = vogels",),
         "workload.kind must be one of brunel, conv, file; got 'vogels'"),
    ])
    def test_workload_value_exits_2_at_validate(self, tmp_path, capsys,
                                                settings, needle):
        bad = tmp_path / "bad.ini"
        bad.write_text(with_setting("workload", *settings))
        assert main(["validate", "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"error: {bad}: {needle}" in captured.err
        assert captured.out == ""

    def test_graph_weight_outside_i16_exits_2(self, tmp_path, config_path,
                                              capsys):
        graph_path = tmp_path / "net.snn"
        graph_path.write_text("snn 1\nneurons 3\nsyn 0 1 99999\n")
        bundle_dir = tmp_path / "bundle"
        assert main(["partition", "--config", config_path, "--graph",
                     str(graph_path), "--out", str(bundle_dir)]) == 2
        assert (f"{graph_path}:3: raw weight 99999 outside i16"
                in capsys.readouterr().err)
        assert not bundle_dir.exists()

    def test_zero_watchdog_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(with_setting("mesh", "watchdog_cycles = 0"))
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(bad),
                     "--out", str(out_dir)]) == 2
        assert (f"error: {bad}: [mesh] watchdog_cycles must be at least 1"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_network_stall_exits_1(self, tmp_path, starved_credits, capsys):
        # credits never come back, so the mesh stalls and the watchdog fires
        stall = tmp_path / "stall.ini"
        stall.write_text(CONFIG + "watchdog_cycles = 200\n")   # into [mesh]
        assert main(["simulate", "--config", str(stall),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "runtime error: no flit progress for 200 cycles" in err

    def test_stalled_traced_run_leaves_no_trace(self, tmp_path,
                                                starved_credits, capsys):
        stall = tmp_path / "stall.ini"
        stall.write_text(CONFIG + "watchdog_cycles = 200\n")   # into [mesh]
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(stall), "--trace",
                     "--out", str(out_dir)]) == 1
        assert "no flit progress" in capsys.readouterr().err
        assert out_dir.is_dir() and list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("trace", [False, True])
    def test_stalled_run_removes_the_packet_log_it_wrote(
            self, tmp_path, monkeypatch, starve, capsys, trace):
        # steps 0-2 write their rows; then credits stop coming back
        run_timestep = system.NocSim.run_timestep

        def starve_from_step_3(self, jobs_by_core, start_ps, timestep):
            if timestep == 3:
                starve(self)
            return run_timestep(self, jobs_by_core, start_ps, timestep)

        monkeypatch.setattr(system.NocSim, "run_timestep", starve_from_step_3)
        written = []
        write_packet_log = cli.write_packet_log
        monkeypatch.setattr(cli, "write_packet_log", lambda rows, f: (
            written.append(len(rows)), write_packet_log(rows, f)))
        stall = tmp_path / "stall.ini"
        stall.write_text(CONFIG + "watchdog_cycles = 200\n")   # into [mesh]
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(stall),
                     "--out", str(out_dir)] + ["--trace"] * trace) == 1
        assert "at t=3" in capsys.readouterr().err
        assert len(written) == 3 and sum(written) > 0
        assert out_dir.is_dir() and list(out_dir.iterdir()) == []

    def test_core_input_sum_past_the_float_range_runs(self, tmp_path):
        # every neuron's raw input is a finite float, but a core's sum of
        # them is an int too large to convert
        big = tmp_path / "big.ini"
        big.write_text(CONFIG.replace("seed = 6", "seed = 6\nfrac_bits = 15")
                       .replace("stimulus = poisson", "stimulus = constant")
                       .replace("stim_amplitude = 12.0",
                                "stim_amplitude = 5e303"))
        assert main(["simulate", "--config", str(big),
                     "--out", str(tmp_path / "run")]) == 0

    def test_numeric_blow_up_exits_1(self, tmp_path, capsys):
        # d=1e308 drives neuron 3's recovery variable past the float range
        graph = build_brunel(40, 10, 0.1, 0.4, -0.3, seed=6)
        graph = SnnGraph(graph.neuron_count, graph.adjacency,
                         model_overrides={3: IzhikevichParams(d=1e308)})
        save_text(graph, str(tmp_path / "net.snn"))
        cfg = tmp_path / "blow.ini"
        cfg.write_text(f"""
[workload]
kind = file
path = {tmp_path / "net.snn"}

[run]
timesteps = 10
stimulus = constant
stim_amplitude = 50.0
stim_neurons = 3

[partition]
neuron_bytes = 384
sss_iters = 300

[mesh]
width = 3
height = 3
""")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "runtime error: core (" in err
        assert "neuron 3: non-finite state" in err


@pytest.mark.parametrize("value,needle", [
    ("0.0", "tau_m must be positive"), ("nan", "tau_m must be finite")])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_bad_neuron_parameter_exits_2(tmp_path, capsys, fmt, value, needle):
    net = tmp_path / "net.snn"
    net.write_text(f"snn 1\nneurons 3\nmodel lif tau_m=1.0\nsyn 0 1 5\n")
    if fmt == "binary":
        graph = load_graph(str(net))
        net = tmp_path / "net.snnb"
        save_binary(graph, str(net))
        blob = bytearray(net.read_bytes())
        at = blob.index(b"tau_m") + len(b"tau_m")
        struct.pack_into("<d", blob, at, float(value))
        net.write_bytes(bytes(blob))
        where = f"{net}: model record at byte 12"
    else:
        net.write_text(net.read_text().replace("tau_m=1.0", f"tau_m={value}"))
        where = f"{net}:3"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[workload]\nkind = file\npath = {net}\n"
                   f"[run]\ntimesteps = 3\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    assert f"error: {where}: {needle}" in capsys.readouterr().err


def test_cli_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependency, so importing the CLI
    # must load nothing outside the standard library and spikenoc itself;
    # sys.modules is read before the import because site hooks may already
    # have loaded third-party modules
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import spikenoc.cli\n"
            "for name in sorted(set(sys.modules) - before):\n"
            "    print(name.partition('.')[0])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikenoc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    loaded = set(proc.stdout.split())
    assert "spikenoc" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"spikenoc"} == set()


def loaded_by_cli_import(module: str) -> bool:
    """Whether importing ``spikenoc.cli`` in a fresh interpreter loads
    ``module``."""
    code = ("import sys\n"
            "import spikenoc.cli\n"
            f"print({module!r} in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spikenoc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return {"True": True, "False": False}[proc.stdout.strip()]


def test_cli_import_does_not_load_openssl():
    # hashlib loads OpenSSL (_hashlib), several MiB of resident memory that
    # a run never needs; spikenoc hashes with the built-in SHA-256 module
    if not any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    assert not loaded_by_cli_import("_hashlib")


def test_cli_import_does_not_load_array():
    # array is a shared library (about 0.13 MiB of resident memory); only
    # load_binary needs it, so a run that never reads a binary graph never
    # maps it in
    if "array" in sys.builtin_module_names:
        pytest.skip("this interpreter has array built in")
    assert not loaded_by_cli_import("array")


def test_hashlib_is_imported_only_as_the_sha256_fallback():
    package = os.path.dirname(os.path.abspath(spikenoc.__file__))
    sites = []      # (file, whether the import sits in an except branch)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read(), name)
        in_handler = {id(sub) for node in ast.walk(tree)
                      if isinstance(node, ast.Try)
                      for handler in node.handlers
                      for sub in ast.walk(handler)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] in ("hashlib", "_hashlib")
                   for m in modules):
                sites.append((name, id(node) in in_handler))
    assert sites == [("graph.py", True)]
