import json
import os
import struct
import subprocess
import sys

import pytest

import spikenoc

from spikenoc.cli import main
from spikenoc.config import parse_config_text
from spikenoc.graph import (SnnGraph, SpikeTrain, build_brunel, load_graph,
                            save_binary, save_text)
from spikenoc.metrics import parse_report
from spikenoc.neurons import IzhikevichParams
from spikenoc.noc import NocSim

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

    prof_path = str(tmp_path / "profile.json")
    assert main(["profile", "--packets", f"{out_dir}/packets.csv",
                 "--out", prof_path]) == 0
    with open(prof_path) as f:
        prof = json.load(f)
    assert prof["total_packets"] == report.redundancy["total_packets"]

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
    summary = json.loads((out_dir / "comparison.json").read_text())
    assert summary["spike_digests_equal"] is True
    assert set(summary["ratios"]) == {"naive", "hsfc", "hsfc-sss"}
    for name in ("baseline_naive", "unispike_hsfc", "baseline_hsfc-sss"):
        assert (out_dir / f"{name}.json").exists()


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


def test_profile_stdout_and_empty_warning(tmp_path, capsys):
    empty = tmp_path / "packets.csv"
    empty.write_text("pid,timestep,src_x,src_y,dest_x,dest_y,"
                     "body_flits,inject_ps,eject_ps\n")
    assert main(["profile", "--packets", str(empty)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["empty"] is True
    assert "empty packet log" in captured.err


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[workload]\nn_ecx = 9\n")
        assert main(["show-config", "--config", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["profile", "--packets", str(tmp_path / "nope.csv")]) == 2

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

    def test_profile_missing_column(self, tmp_path, capsys):
        log = tmp_path / "packets.csv"
        log.write_text("pid,timestep,src_y,dest_x,dest_y,"
                       "body_flits,inject_ps,eject_ps\n1,0,0,1,0,2,5,9\n")
        assert main(["profile", "--packets", str(log)]) == 2
        assert f"{log}: no 'src_x' column" in capsys.readouterr().err

    def test_profile_non_integer_field(self, tmp_path, capsys):
        log = tmp_path / "packets.csv"
        log.write_text("pid,timestep,src_x,src_y,dest_x,dest_y,"
                       "body_flits,inject_ps,eject_ps\n"
                       "1,0,0,0,1,0,2,5,9\n2,0,0,0,1,0,two,5,9\n"
                       "3,0,0,0,1,0\n")
        assert main(["profile", "--packets", str(log)]) == 2
        assert f"{log}:3: invalid literal" in capsys.readouterr().err
        log.write_text("pid,timestep,src_x,src_y,dest_x,dest_y,"
                       "body_flits,inject_ps,eject_ps\n3,0,0,0,1,0\n")
        assert main(["profile", "--packets", str(log)]) == 2
        assert f"{log}:2: " in capsys.readouterr().err

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

    def test_network_stall_exits_1(self, tmp_path, monkeypatch, capsys):
        # credits never come back, so the mesh stalls and the watchdog fires
        monkeypatch.setattr(NocSim, "_apply_credit",
                            lambda self, up, was_tail: None)
        stall = tmp_path / "stall.ini"
        stall.write_text(CONFIG + "watchdog_cycles = 200\n")   # into [mesh]
        assert main(["simulate", "--config", str(stall),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "runtime error: no flit progress for 200 cycles" in err

    def test_stalled_traced_run_leaves_no_trace(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setattr(NocSim, "_apply_credit",
                            lambda self, up, was_tail: None)
        stall = tmp_path / "stall.ini"
        stall.write_text(CONFIG + "watchdog_cycles = 200\n")   # into [mesh]
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(stall), "--trace",
                     "--out", str(out_dir)]) == 1
        assert "no flit progress" in capsys.readouterr().err
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
