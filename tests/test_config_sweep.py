"""No config value escapes the CLI as a traceback.

Every numeric INI key is set, one at a time, to values at the edges of its
type, and `validate --config` and `simulate` must each return an exit code
(0, 1 or 2) instead of raising.  Int keys take no large values: a huge
`n_exc` is an O(n^2) build, not a crash.
"""

import dataclasses

import pytest

from spikenoc.cli import main
from spikenoc.config import ExperimentConfig, render_config

BRUNEL = """
[workload]
n_exc = 16
n_inh = 4
conn_prob = 0.2
seed = 2

[run]
timesteps = 4
stim_rate = 0.3

[partition]
neuron_bytes = 120
sss_iters = 20

[mesh]
width = 3
height = 3
"""

CONV = """
[workload]
kind = conv
layers = 1x4x4, 2x4x4 k3 s1 p1

[run]
timesteps = 4
stim_rate = 0.3

[partition]
neuron_bytes = 384
sss_iters = 20

[mesh]
width = 3
height = 3
"""

VALUES = {float: ("1e307", "-1e307", "0", "1e-320"), int: ("0", "-1")}


def numeric_keys():
    """``(section, key, type)`` of every int or float key, in the order
    ``show-config`` renders them."""
    cfg = ExperimentConfig()
    kinds: dict[str, set[type]] = {}
    for part in dataclasses.fields(cfg):
        obj = getattr(cfg, part.name)
        for f in dataclasses.fields(obj):
            kinds.setdefault(f.name, set()).add(type(getattr(obj, f.name)))
    section = None
    for line in render_config(cfg).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key = line.split(" = ")[0]
            (kind,) = kinds[key]
            if kind in VALUES:      # bool is its own type, not int
                yield section, key, kind


def with_value(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in ``section``, replacing any earlier
    setting of the key there."""
    out, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line[1:-1]
        elif current == section and line.split("=")[0].strip() == key:
            continue
        out.append(line)
        if line == f"[{section}]":
            out.append(f"{key} = {value}")
    if f"[{section}]" not in out:
        out += [f"[{section}]", f"{key} = {value}"]
    return "\n".join(out) + "\n"


def test_every_numeric_key_is_swept():
    keys = {key for _, key, _ in numeric_keys()}
    assert {"w_exc", "stim_amplitude", "synapse_bytes", "vcs",
            "update_cycles", "router_per_flit"} <= keys
    assert "trace" not in keys and "stim_at" not in keys


@pytest.mark.parametrize("base", [BRUNEL, CONV], ids=["brunel", "conv"])
def test_no_config_value_raises(tmp_path, capsys, base):
    escaped = []
    for section, key, kind in numeric_keys():
        for value in VALUES[kind]:
            path = tmp_path / "exp.ini"
            path.write_text(with_value(base, section, key, value))
            for argv in (["validate", "--config", str(path)],
                         ["simulate", "--config", str(path),
                          "--out", str(tmp_path / "run")]):
                try:
                    code = main(argv)
                except Exception as exc:    # an escape is the failure here
                    escaped.append(f"[{section}] {key} = {value}: "
                                   f"{argv[0]} raised {exc!r}")
                    continue
                if code not in (0, 1, 2):
                    escaped.append(f"[{section}] {key} = {value}: "
                                   f"{argv[0]} returned {code!r}")
            capsys.readouterr()
    assert escaped == []
