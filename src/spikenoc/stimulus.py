"""External input current generation.

Stimulus rows are produced once per run from a seeded spec and shared by the
golden simulation and the per-core system, quantized to the same fixed-point
raw integers as synaptic weights.  Input presented during step t takes effect
in the update that produces step t+1, exactly like a synaptic spike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class StimulusSpec:
    """``kind`` is one of none | constant | poisson | pulse.

    constant: ``amplitude`` into every selected neuron each step.
    poisson:  per step, each selected neuron independently receives
              ``amplitude`` with probability ``rate`` (Bernoulli barrage).
    pulse:    ``amplitude`` into selected neurons at the steps listed in ``at``.
    ``neurons`` restricts the drive to a subset (None means all).
    """

    kind: str = "poisson"
    amplitude: float = 1.2
    rate: float = 0.05
    at: tuple[int, ...] = (0,)
    neurons: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "poisson", "pulse"):
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        if self.kind == "poisson" and not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"stimulus rate {self.rate} outside [0, 1]")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"stimulus amplitude {self.amplitude} is not "
                             f"finite")


def build_stimulus(spec: StimulusSpec, neuron_count: int, timesteps: int,
                   frac_bits: int) -> list[list[int]] | None:
    """Dense per-(step, neuron) raw current rows; None when there is no drive."""
    if spec.kind == "none":
        return None
    targets = range(neuron_count) if spec.neurons is None else spec.neurons
    for n in targets:
        if not (0 <= n < neuron_count):
            raise ValueError(f"stimulus target {n} out of range")
    amp = round(spec.amplitude * (1 << frac_bits))
    rows = [[0] * neuron_count for _ in range(timesteps)]
    if spec.kind == "constant":
        for row in rows:
            for n in targets:
                row[n] = amp
    elif spec.kind == "pulse":
        for t in spec.at:
            if 0 <= t < timesteps:
                for n in targets:
                    rows[t][n] = amp
    else:  # poisson
        rng = random.Random(spec.seed)
        for row in rows:
            for n in targets:
                if rng.random() < spec.rate:
                    row[n] = amp
    return rows
