import dataclasses

import pytest

from spikenoc.config import (ConfigError, ExperimentConfig, build_graph,
                             load_config, make_stimulus_spec, override_seed,
                             parse_config_text, parse_id_set, parse_int_list,
                             parse_layers, render_config, to_system_config)
from spikenoc.graph import ConvLayerSpec, build_brunel, save_text


class TestParsing:
    def test_empty_text_yields_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_sections_and_types(self):
        cfg = parse_config_text("""
[workload]
kind = vogels
n_exc = 0x40
conn_prob = 0.25

[run]
mode = baseline
trace = yes

[mesh]
width = 6
""")
        assert cfg.workload.kind == "vogels"
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
        ("[workload]\nmodel = hh\n", "workload.model"),
        ("[workload]\nkind = file\n", "requires workload.path"),
        ("[run]\nmode = turbo\n", "run.mode"),
        ("[run]\ntimesteps = 0\n", "timesteps must be positive"),
        ("[run]\nstimulus = thermal\n", "run.stimulus"),
        ("[partition]\npartitioner = magic\n", "partition.partitioner"),
        ("[partition]\nplacement = spiral\n", "partition.placement"),
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
    ])
    def test_rejected(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config_text(text)

    def test_sss_edge_settings_accepted(self):
        # 0 keeps meaning "default" for iters and t0; cooling 0 is a quench
        cfg = parse_config_text("[partition]\nsss_iters = 0\nsss_t0 = 0\n"
                                "sss_cooling = 0\nseg_ratio = 1\n")
        sys_cfg = to_system_config(cfg)
        assert (sys_cfg.sss_iters, sys_cfg.sss_t0) == (None, None)
        assert (sys_cfg.sss_cooling, sys_cfg.seg_ratio) == (0.0, 1.0)
        assert parse_config_text("[partition]\nsss_cooling = 1\n"
                                 ).partition.sss_cooling == 1.0

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

    def test_system_config_mapping(self):
        cfg = parse_config_text(
            "[mesh]\nwidth = 5\nheight = 3\n"
            "[partition]\nneuron_bytes = 1536\nsss_iters = 500\n"
            "[core]\nmax_body = 8\n")
        sc = to_system_config(cfg)
        assert (sc.mesh.width, sc.mesh.height) == (5, 3)
        assert sc.budget.neuron_bytes == 1536
        assert sc.timing.max_body == 8
        assert sc.sss_iters == 500
        # zero means pick the automatic schedule
        assert to_system_config(ExperimentConfig()).sss_iters is None
        assert to_system_config(ExperimentConfig()).sss_t0 is None
