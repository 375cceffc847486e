"""Smoke tests: each script in scripts/ runs end to end on a tiny input."""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from spikenoc import system

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


# the sweep below with its clock stopped, pinned from the script that built
# the stimulus and ran the reference for every capacity: sharing them moves
# no byte
SWEEP_CSV = (b"capacity,cores,mesh,spikes,saving,speedup,energy_eff,lossless,"
             b"seconds\r\n"
             b"16,7,3x3,72,1.747,1.531,1.372,yes,0.0\r\n"
             b"32,4,2x2,72,1.816,1.131,1.199,yes,0.0\r\n")


def test_capacity_sweep(tmp_path, monkeypatch):
    script = load_script("capacity_sweep")
    monkeypatch.setattr(script, "time", SimpleNamespace(monotonic=lambda: 0.0))
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (script, system):
        counted(module, "build_stimulus")
        counted(module, "reference_simulate")
    out = tmp_path / "sweep.csv"
    assert script.main(
        ["--layers", "1x6x6, 2x6x6 k3 s1 p1", "--capacities", "16,32",
         "--timesteps", "3", "--out", str(out)]) == 0
    # both capacities lossless, with the one spike count a deployment
    # cannot change
    assert out.read_bytes() == SWEEP_CSV
    # the stimulus and the reference do not depend on the capacity
    assert calls == {"build_stimulus": 1, "reference_simulate": 1}


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
