"""Smoke tests: each script in scripts/ runs end to end on a tiny input."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

BRUNEL_2X2 = """
[workload]
n_exc = 40
n_inh = 10
w_exc = 0.4
seed = 6

[run]
timesteps = 3
stim_rate = 0.3

[partition]
neuron_bytes = 384
sss_iters = 100

[mesh]
width = 2
height = 2
"""


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mode_comparison(tmp_path, capsys):
    cfg = tmp_path / "brunel.ini"
    cfg.write_text(BRUNEL_2X2)
    assert load_script("mode_comparison").main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "50 neurons on 4 cores (2x2 mesh)" in out
    assert "spike trains identical to reference: yes" in out


def test_capacity_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert load_script("capacity_sweep").main(
        ["--layers", "1x6x6, 2x6x6 k3 s1 p1", "--capacities", "16,32",
         "--timesteps", "3", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["capacity"], r["lossless"]) for r in rows] == [("16", "yes"),
                                                              ("32", "yes")]
    # a deployment never changes the spike train, so neither does its count
    assert int(rows[0]["spikes"]) > 0
    assert rows[1]["spikes"] == rows[0]["spikes"]


def test_mode_comparison_rejects_bad_input(tmp_path, capsys):
    main = load_script("mode_comparison").main
    with pytest.raises(SystemExit) as exc:
        main(["--partitioner", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[mesh]\nwidth = zero\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_capacity_sweep_rejects_values_below_one(capsys):
    main = load_script("capacity_sweep").main
    for args in (["--capacities", "16,0"], ["--timesteps", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"argument {args[0]}: must be at least 1" in \
            capsys.readouterr().err
