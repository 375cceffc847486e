import dataclasses

import pytest

from spikenoc.config import (ConfigError, ExperimentConfig, build_graph,
                             load_config, make_stimulus_spec, override_seed,
                             parse_config_text, parse_id_set, parse_int_list,
                             parse_layers, render_config, to_system_config)
from spikenoc.core import CoreTiming
from spikenoc.graph import ConvLayerSpec, build_brunel, save_text
from spikenoc.metrics import EnergyCostTable
from spikenoc.noc import MeshConfig
from spikenoc.partition import MemoryBudget
from spikenoc.system import SystemConfig


class TestParsing:
    def test_empty_text_yields_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_sections_and_types(self):
        cfg = parse_config_text("""
[workload]
kind = conv
n_exc = 0x40
conn_prob = 0.25

[run]
mode = baseline
trace = yes

[mesh]
width = 6
""")
        assert cfg.workload.kind == "conv"
        assert cfg.workload.n_exc == 64
        assert cfg.workload.conn_prob == 0.25
        assert cfg.run.mode == "baseline"
        assert cfg.run.trace is True
        assert cfg.mesh.width == 6
        assert cfg.mesh.height == 4          # untouched default

    def test_unknown_section_reports_line(self):
        text = "[workload]\nkind = brunel\n\n[typo]\nx = 1\n"
        with pytest.raises(ConfigError, match=r":4: unknown section \[typo\]"):
            parse_config_text(text)

    def test_unknown_key_reports_line(self):
        text = "[workload]\nn_ecx = 100\n"
        with pytest.raises(ConfigError, match=r":2: unknown key 'n_ecx'"):
            parse_config_text(text)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="cannot parse 'soon' as int"):
            parse_config_text("[run]\ntimesteps = soon\n")
        with pytest.raises(ConfigError, match="cannot parse 'maybe' as bool"):
            parse_config_text("[run]\ntrace = maybe\n")

    def test_load_config_uses_path_in_errors(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[run]\nmode = turbo\n")
        with pytest.raises(ConfigError, match="exp.ini"):
            load_config(str(p))
        p.write_text("[run]\nmode = baseline\n")
        assert load_config(str(p)).run.mode == "baseline"


class TestValidation:
    @pytest.mark.parametrize("text,needle", [
        ("[workload]\nkind = ring\n", "workload.kind"),
        ("[workload]\nmodel = hh\n", "unknown neuron model kind 'hh'"),
        ("[workload]\nkind = file\n", "requires workload.path"),
        ("[run]\nmode = turbo\n", "unknown mode 'turbo'"),
        ("[run]\ntimesteps = 0\n", "timesteps must be positive"),
        ("[run]\nstimulus = thermal\n", "unknown stimulus kind 'thermal'"),
        ("[partition]\npartitioner = magic\n", "unknown partitioner 'magic'"),
        ("[partition]\nplacement = spiral\n", "unknown placement 'spiral'"),
        ("[mesh]\nwidth = -2\n", "mesh dimensions"),
        ("[workload]\nlayers = 3x3\n", "expected CxWxH"),
        ("[run]\nstim_neurons = 9-2\n", "reversed"),
        ("[partition]\nsss_iters = -5\n", "sss_iters must be non-negative"),
        ("[partition]\nsss_t0 = -1\n", "sss_t0 must be finite"),
        ("[partition]\nsss_t0 = nan\n", "sss_t0 must be finite"),
        ("[partition]\nsss_t0 = inf\n", "sss_t0 must be finite"),
        ("[partition]\nsss_cooling = 1.5\n", r"sss_cooling must be in \[0, 1\]"),
        ("[partition]\nsss_cooling = -0.5\n", r"sss_cooling must be in \[0, 1\]"),
        ("[partition]\nsss_cooling = nan\n", r"sss_cooling must be in \[0, 1\]"),
        ("[partition]\nseg_ratio = -1\n", r"seg_ratio must be in \(0, 1\]"),
        ("[partition]\nseg_ratio = 0\n", r"seg_ratio must be in \(0, 1\]"),
        ("[partition]\nseg_ratio = 1.5\n", r"seg_ratio must be in \(0, 1\]"),
        ("[partition]\nseg_ratio = nan\n", r"seg_ratio must be in \(0, 1\]"),
        ("[mesh]\nvcs = 0\n", r"\[mesh\] need at least one VC"),
        ("[mesh]\nvc_buffer_depth = 0\n", r"\[mesh\] need at least one VC"),
        ("[mesh]\nwatchdog_cycles = 0\n", r"\[mesh\] watchdog_cycles must be"),
        ("[mesh]\nwatchdog_cycles = -1\n", r"\[mesh\] watchdog_cycles must be"),
        ("[core]\ndecode_cycles_per_accum = -50\n",
         r"\[core\] decode and generation cycles must be non-negative"),
        ("[core]\ngen_cycles_per_flit = -3\n",
         r"\[core\] decode and generation cycles must be non-negative"),
        ("[energy]\nrouter_per_flit = -5\n",
         r"\[energy\] router_per_flit must be finite and non-negative"),
        ("[energy]\ncore_static_per_ps = nan\n",
         r"\[energy\] core_static_per_ps must be finite and non-negative"),
        ("[run]\ndt = 0\n", "dt must be finite and positive"),
        ("[run]\ndt = -1\n", "dt must be finite and positive"),
        ("[run]\ndt = nan\n", "dt must be finite and positive"),
        ("[run]\ndt = inf\n", "dt must be finite and positive"),
        ("[run]\nstim_rate = 1.5\n", r"stimulus rate 1.5 outside \[0, 1\]"),
        ("[run]\nstim_amplitude = nan\n", "stimulus amplitude nan is not finite"),
        ("[partition]\nsynapse_bytes = 0\n", "synapse_bytes must be positive"),
        ("[workload]\nn_exc = -5\n", "n_exc -5 and n_inh 50 must be"),
        ("[workload]\nconn_prob = 2\n", r"conn_prob 2.0 outside \(0, 1\]"),
        ("[workload]\nconn_prob = nan\n", r"conn_prob nan outside \(0, 1\]"),
        ("[workload]\nw_exc = inf\n", "w_exc inf and w_inh -0.5 must be finite"),
        ("[workload]\nfrac_bits = -1\n", r"frac_bits must be in \[0, 15\]; got -1"),
        ("[workload]\nfrac_bits = 16\n", r"frac_bits must be in \[0, 15\]; got 16"),
        ("[workload]\nkind = conv\nlayers = 0x4x4\n", "layer 0: non-positive shape"),
        ("[workload]\nkind = conv\nw_lo = 1\nw_hi = 0\n",
         "w_lo 1.0, w_hi 0.0 must be finite with w_lo <= w_hi"),
    ])
    def test_rejected(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config_text(text)

    def test_message_names_file_and_section(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[mesh]\nvcs = 0\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(p))
        assert str(info.value) == \
            f"{p}: [mesh] need at least one VC and one buffer slot"

    def test_machine_edge_values_accepted(self):
        cfg = parse_config_text(
            "[mesh]\nwatchdog_cycles = 1\n"
            "[core]\ndecode_cycles_per_accum = 0\ngen_cycles_per_flit = 0\n"
            "[energy]\n" + "".join(f"{f.name} = 0.0\n" for f in
                                   dataclasses.fields(EnergyCostTable)))
        sc = to_system_config(cfg)
        assert sc.mesh.watchdog_cycles == 1
        assert (sc.timing.decode_cycles_per_accum,
                sc.timing.gen_cycles_per_flit) == (0, 0)
        assert sc.energy == EnergyCostTable(
            **{f.name: 0.0 for f in dataclasses.fields(EnergyCostTable)})

    def test_sss_edge_settings_accepted(self):
        # 0 keeps meaning "default" for iters and t0; cooling 0 is a quench
        cfg = parse_config_text("[partition]\nsss_iters = 0\nsss_t0 = 0\n"
                                "sss_cooling = 0\nseg_ratio = 1\n")
        sys_cfg = to_system_config(cfg)
        assert (sys_cfg.sss_iters, sys_cfg.sss_t0) == (0, 0.0)
        assert (sys_cfg.sss_cooling, sys_cfg.seg_ratio) == (0.0, 1.0)
        assert parse_config_text("[partition]\nsss_cooling = 1\n"
                                 ).partition.sss_cooling == 1.0

    def test_workload_checks_follow_kind(self):
        # each kind is checked on the keys its builder reads, no others
        cfg = parse_config_text("[workload]\nkind = conv\nn_exc = -5\n"
                                "conn_prob = 2\nw_lo = 0.1\nw_hi = 0.1\n")
        assert cfg.workload.w_lo == cfg.workload.w_hi
        parse_config_text("[workload]\nkind = brunel\nw_lo = 1\nw_hi = 0\n")
        parse_config_text("[workload]\nkind = file\npath = net.snn\n"
                          "frac_bits = 16\n")

    def test_constant_stimulus_accepted(self):
        cfg = parse_config_text("[run]\nstimulus = constant\n")
        assert cfg.run.stimulus == "constant"


class TestLayerSyntax:
    def test_full_spec(self):
        got = parse_layers("1x8x8, 4x8x8 k3 s1 p1")
        assert got == (ConvLayerSpec(1, 8, 8, 1, 1, 0),
                       ConvLayerSpec(4, 8, 8, 3, 1, 1))

    def test_defaults_k1_s1_p0(self):
        [spec] = parse_layers("2x5x7")
        assert (spec.kernel, spec.stride, spec.padding) == (1, 1, 0)

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown token"):
            parse_layers("1x4x4 q2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            parse_layers("  ,  ")


class TestIdSyntax:
    def test_int_list(self):
        assert parse_int_list("0, 5,9") == (0, 5, 9)
        assert parse_int_list("") == ()

    def test_id_ranges(self):
        assert parse_id_set("0-3, 64") == (0, 1, 2, 3, 64)
        assert parse_id_set("7") == (7,)
        assert parse_id_set("3-3") == (3,)

    def test_duplicates_collapse(self):
        assert parse_id_set("1-4, 2-5") == (1, 2, 3, 4, 5)


class TestDigest:
    def test_stable_and_short(self):
        cfg = ExperimentConfig()
        assert cfg.digest() == ExperimentConfig().digest()
        assert len(cfg.digest()) == 16
        int(cfg.digest(), 16)

    def test_sensitive_to_any_field(self):
        base = ExperimentConfig()
        changed = parse_config_text("[energy]\nlink_per_flit = 3.5\n")
        assert base.digest() != changed.digest()


class TestRender:
    def test_round_trip(self):
        cfg = parse_config_text(
            "[workload]\nkind = conv\nlayers = 1x4x4, 2x4x4 k3 p1\n"
            "[run]\ntrace = true\nstim_neurons = 0-15\n"
            "[partition]\npartitioner = hsfc\n")
        assert parse_config_text(render_config(cfg)) == cfg

    def test_includes_every_section(self):
        text = render_config(ExperimentConfig())
        for section in ("workload", "run", "partition", "mesh", "core", "energy"):
            assert f"[{section}]" in text


class TestOverrideSeed:
    def test_sets_all_stochastic_stages(self):
        cfg = override_seed(ExperimentConfig(), 99)
        assert cfg.workload.seed == 99
        assert cfg.partition.seed == 99
        assert cfg.run.stim_seed == 99
        # nothing else moved
        assert dataclasses.replace(
            cfg,
            workload=dataclasses.replace(cfg.workload, seed=1),
            partition=dataclasses.replace(cfg.partition, seed=0),
            run=dataclasses.replace(cfg.run, stim_seed=0)) == ExperimentConfig()


class TestBuilders:
    def test_brunel_dispatch(self):
        cfg = parse_config_text("[workload]\nn_exc = 40\nn_inh = 10\nseed = 5\n")
        g = build_graph(cfg)
        assert g.neuron_count == 50

    def test_conv_dispatch(self):
        cfg = parse_config_text(
            "[workload]\nkind = conv\nlayers = 1x4x4, 2x4x4 k3 p1\n")
        assert build_graph(cfg).neuron_count == 16 + 32

    def test_file_dispatch(self, tmp_path):
        path = tmp_path / "g.snn"
        save_text(build_brunel(20, 5, seed=3), str(path))
        cfg = parse_config_text(f"[workload]\nkind = file\npath = {path}\n")
        assert build_graph(cfg).neuron_count == 25

    def test_stimulus_spec_mapping(self):
        cfg = parse_config_text(
            "[run]\nstimulus = pulse\nstim_at = 0, 4\nstim_neurons = 0-2\n"
            "stim_amplitude = 2.5\nstim_seed = 7\n")
        spec = make_stimulus_spec(cfg)
        assert spec.kind == "pulse"
        assert spec.at == (0, 4)
        assert spec.neurons == (0, 1, 2)
        assert spec.amplitude == 2.5 and spec.seed == 7
        assert make_stimulus_spec(ExperimentConfig()).neurons is None

    # distinct non-default values, so a swapped pair of keys shows
    MACHINE = {
        ("mesh", "mesh", MeshConfig): dict(
            width=5, height=3, vcs=2, vc_buffer_depth=6,
            router_pipeline_cycles=7, link_cycles=9, noc_period_ps=6001,
            watchdog_cycles=50001),
        ("core", "timing", CoreTiming): dict(
            core_period_ps=2001, update_cycles=10, decode_cycles_per_accum=11,
            gen_cycles_per_flit=12, max_body=13, output_queue_packets=14),
        ("energy", "energy", EnergyCostTable): dict(
            router_per_flit=5.5, link_per_flit=3.5, neuron_update=10.5,
            decode_per_body_flit=2.5, sram_read_per_byte=0.06,
            sram_write_per_byte=0.07, core_static_per_ps=3e-4,
            router_static_per_ps=4e-4),
        ("partition", "budget", MemoryBudget): dict(
            synapse_bytes=103001, neuron_bytes=1536, post_conn_bytes=33001,
            checking_table_bytes=1001, bytes_per_synapse=15,
            bytes_per_neuron_state=16),
    }

    def test_system_config_mapping(self):
        text = "".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
            for (section, _, _), values in self.MACHINE.items())
        cfg = parse_config_text(text + "sss_iters = 500\n")   # into [partition]
        sc = to_system_config(cfg)
        assert len({v for values in self.MACHINE.values()
                    for v in values.values()}) == 28
        for (_, attr, cls), values in self.MACHINE.items():
            assert set(values) == {f.name for f in dataclasses.fields(cls)}
            target = getattr(sc, attr)
            for key, value in values.items():
                assert value != getattr(cls(), key), key
                assert getattr(target, key) == value, key
        assert (sc.mesh, sc.timing, sc.energy) == (cfg.mesh, cfg.core,
                                                   cfg.energy)
        assert sc.sss_iters == 500
        # zero means pick the automatic schedule, in both configs
        sc = to_system_config(ExperimentConfig())
        assert (sc.sss_iters, sc.sss_t0) == (SystemConfig().sss_iters,
                                             SystemConfig().sss_t0) == (0, 0.0)
