"""Smoke tests: each script in scripts/ runs end to end on a tiny input."""

import csv
import importlib.util
from pathlib import Path

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
