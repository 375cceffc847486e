"""Experiment configuration: an INI document with six sections.

Every key has a default, so an empty file is a valid experiment.  Unknown
sections or keys are rejected with the offending line number rather than
silently ignored, since a typo like `n_ecx` would otherwise change the
experiment without warning.  The [mesh], [core] and [energy] sections parse
straight into `MeshConfig`, `CoreTiming` and `EnergyCostTable`, and the
budget keys of [partition] into `MemoryBudget`; each class range-checks its
own values, so a bad value fails at parse time.  `SystemConfig` and
`StimulusSpec` check the [run] and [partition] choices and ranges alike.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass

from .core import CoreTiming, MODE_UNISPIKE
from .graph import (ConvLayerSpec, SnnGraph, build_brunel, build_conv_topology,
                    check_conv_params, check_random_params, load_graph,
                    sha256)
from .metrics import EnergyCostTable
from .neurons import params_from_fields
from .noc import MeshConfig
from .partition import MemoryBudget
from .stimulus import StimulusSpec
from .system import SystemConfig


class ConfigError(ValueError):
    """Raised for malformed, unknown, or out-of-range configuration."""


WORKLOAD_KINDS = ("brunel", "conv", "file")


@dataclass(frozen=True)
class WorkloadConfig:
    kind: str = "brunel"
    n_exc: int = 200
    n_inh: int = 50
    conn_prob: float = 0.1
    w_exc: float = 0.1
    w_inh: float = -0.5
    seed: int = 1
    model: str = "lif"
    frac_bits: int = 8
    layers: str = "1x8x8, 4x8x8 k3 s1 p1"
    w_lo: float = 0.05
    w_hi: float = 0.2
    path: str = ""


@dataclass(frozen=True)
class RunConfig:
    mode: str = MODE_UNISPIKE
    timesteps: int = 20
    dt: float = 1.0
    stimulus: str = "poisson"
    stim_amplitude: float = 12.0    # one hit lifts a default LIF past threshold
    stim_rate: float = 0.1
    stim_at: str = "0"
    stim_neurons: str = "all"
    stim_seed: int = 0
    trace: bool = False


@dataclass(frozen=True)
class PartitionConfig:
    partitioner: str = "hsfc-sss"
    placement: str = "hilbert"
    seed: int = 0
    seg_ratio: float = 0.1
    sss_iters: int = 0          # 0 selects the size-scaled default
    sss_t0: float = 0.0         # 0 selects a tenth of the starting objective
    sss_cooling: float = 0.995


@dataclass(frozen=True)
class ExperimentConfig:
    workload: WorkloadConfig = WorkloadConfig()
    run: RunConfig = RunConfig()
    partition: PartitionConfig = PartitionConfig()
    budget: MemoryBudget = MemoryBudget()
    mesh: MeshConfig = MeshConfig()
    core: CoreTiming = CoreTiming()
    energy: EnergyCostTable = EnergyCostTable()

    def digest(self) -> str:
        return sha256(render_config(self).encode()).hexdigest()[:16]


# section -> the ExperimentConfig fields its keys fill, in rendering order
_SECTIONS: dict[str, tuple[str, ...]] = {
    "workload": ("workload",),
    "run": ("run",),
    "partition": ("partition", "budget"),
    "mesh": ("mesh",),
    "core": ("core",),
    "energy": ("energy",),
}
_CLASSES: dict[str, type] = {f.name: type(f.default)
                             for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(raw: str, target_type: type, where: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw, 0)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as "
                          f"{target_type.__name__}") from None


def _line_of(text: str, section: str, key: str | None) -> int:
    """Best-effort line number of a section header or of a key inside it."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if key is None and current == section:
                return lineno
        elif key is not None and current == section and stripped \
                and not stripped.startswith(("#", ";")):
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip().lower()
            if name == key:
                return lineno
    return 0


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    kwargs: dict[str, object] = {}
    for section in parser.sections():
        name = section.lower()
        if name not in _SECTIONS:
            line = _line_of(text, name, None)
            raise ConfigError(f"{source}:{line}: unknown section [{section}]")
        owner = {f.name: part for part in _SECTIONS[name]
                 for f in dataclasses.fields(_CLASSES[part])}
        values: dict[str, dict[str, object]] = {p: {} for p in _SECTIONS[name]}
        for key, raw in parser.items(section):
            if key not in owner:
                line = _line_of(text, name, key)
                raise ConfigError(
                    f"{source}:{line}: unknown key {key!r} in [{section}]")
            part = owner[key]
            default = getattr(_CLASSES[part](), key)
            values[part][key] = _parse_value(
                raw, type(default), f"{source}: [{section}] {key}")
        for part, given in values.items():
            try:
                kwargs[part] = _CLASSES[part](**given)
            except ValueError as exc:
                raise ConfigError(f"{source}: [{section}] {exc}") from None
    cfg = ExperimentConfig(**kwargs)
    _validate(cfg, source)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def _validate(cfg: ExperimentConfig, source: str) -> None:
    w = cfg.workload
    if w.kind not in WORKLOAD_KINDS:
        raise ConfigError(f"{source}: workload.kind must be one of "
                          f"{', '.join(WORKLOAD_KINDS)}; got {w.kind!r}")
    if w.kind == "file" and not w.path:
        raise ConfigError(f"{source}: workload.kind=file requires workload.path")
    try:
        params_from_fields(w.model, {})
        layers = parse_layers(w.layers)
        # the builder's own checks, for the keys the chosen kind uses
        if w.kind == "brunel":
            check_random_params(w.n_exc, w.n_inh, w.conn_prob, w.w_exc,
                                w.w_inh, w.frac_bits)
        elif w.kind == "conv":
            check_conv_params(layers, w.w_lo, w.w_hi, w.frac_bits)
        to_system_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_layers(text: str) -> tuple[ConvLayerSpec, ...]:
    """Parse `CxWxH [kK] [sS] [pP]` layer descriptions separated by commas."""
    layers = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        tokens = part.split()
        dims = tokens[0].lower().split("x")
        if len(dims) != 3:
            raise ValueError(f"layer {part!r}: expected CxWxH")
        channels, width, height = (int(d) for d in dims)
        kernel, stride, padding = 1, 1, 0
        for tok in tokens[1:]:
            tok = tok.lower()
            if tok.startswith("k"):
                kernel = int(tok[1:])
            elif tok.startswith("s"):
                stride = int(tok[1:])
            elif tok.startswith("p"):
                padding = int(tok[1:])
            else:
                raise ValueError(f"layer {part!r}: unknown token {tok!r}")
        layers.append(ConvLayerSpec(channels, width, height, kernel, stride,
                                    padding))
    if not layers:
        raise ValueError("layers: at least one layer required")
    return tuple(layers)


def parse_int_list(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(int(part))
    return tuple(out)


def parse_id_set(text: str) -> tuple[int, ...]:
    """Parse `0-15, 64, 100-103` style neuron id lists."""
    ids: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError(f"id range {part!r} is reversed")
            ids.update(range(lo_i, hi_i + 1))
        else:
            ids.add(int(part))
    return tuple(sorted(ids))


def build_graph(cfg: ExperimentConfig) -> SnnGraph:
    w = cfg.workload
    model = params_from_fields(w.model, {})
    if w.kind == "brunel":
        return build_brunel(w.n_exc, w.n_inh, w.conn_prob, w.w_exc, w.w_inh,
                            seed=w.seed, model=model, frac_bits=w.frac_bits)
    if w.kind == "conv":
        return build_conv_topology(parse_layers(w.layers), seed=w.seed,
                                   model=model, frac_bits=w.frac_bits,
                                   w_lo=w.w_lo, w_hi=w.w_hi)
    return load_graph(w.path)


def make_stimulus_spec(cfg: ExperimentConfig) -> StimulusSpec:
    r = cfg.run
    neurons = None if r.stim_neurons == "all" else parse_id_set(r.stim_neurons)
    return StimulusSpec(kind=r.stimulus, amplitude=r.stim_amplitude,
                        rate=r.stim_rate, at=parse_int_list(r.stim_at),
                        neurons=neurons, seed=r.stim_seed)


def to_system_config(cfg: ExperimentConfig) -> SystemConfig:
    p = cfg.partition
    return SystemConfig(
        mesh=cfg.mesh,
        timing=cfg.core,
        energy=cfg.energy,
        budget=cfg.budget,
        stimulus=make_stimulus_spec(cfg),
        mode=cfg.run.mode,
        partitioner=p.partitioner,
        placement=p.placement,
        timesteps=cfg.run.timesteps,
        dt=cfg.run.dt,
        partition_seed=p.seed,
        seg_ratio=p.seg_ratio,
        sss_iters=p.sss_iters,
        sss_t0=p.sss_t0,
        sss_cooling=p.sss_cooling,
    )


def override_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Retarget every stochastic stage (workload, refinement, stimulus)."""
    return dataclasses.replace(
        cfg,
        workload=dataclasses.replace(cfg.workload, seed=seed),
        partition=dataclasses.replace(cfg.partition, seed=seed),
        run=dataclasses.replace(cfg.run, stim_seed=seed))


def render_config(cfg: ExperimentConfig) -> str:
    """Render the fully resolved configuration as an INI document."""
    out = io.StringIO()
    for section, parts in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for part in parts:
            obj = getattr(cfg, part)
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, bool):
                    value = "true" if value else "false"
                out.write(f"{f.name} = {value}\n")
        out.write("\n")
    return out.getvalue()
