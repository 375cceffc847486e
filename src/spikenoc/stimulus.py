"""External input current generation.

Stimulus events are produced once per run from a seeded spec and shared by
the golden simulation and the per-core system, quantized to the same
fixed-point raw integers as synaptic weights.  Input presented during step t
takes effect in the update that produces step t+1, exactly like a synaptic
spike.

A stimulus is one tuple per timestep holding the ``(neuron id, raw)`` pairs
presented during that step, in ascending neuron id with each neuron at most
once.  Neurons that receive no input that step are not listed, so a step's
cost is proportional to its events rather than to the neuron count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# the (neuron id, raw current) pairs presented during one timestep
StepEvents = tuple[tuple[int, int], ...]

MAX_FRAC_BITS = 15      # a raw weight is an i16

STIMULUS_KINDS = ("none", "constant", "poisson", "pulse")


@dataclass(frozen=True)
class StimulusSpec:
    """``kind`` is one of ``STIMULUS_KINDS``.

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
        if self.kind not in STIMULUS_KINDS:
            raise ValueError(f"unknown stimulus kind {self.kind!r}; expected "
                             f"one of {', '.join(STIMULUS_KINDS)}")
        if self.kind == "poisson" and not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"stimulus rate {self.rate} outside [0, 1]")
        # finite at the largest frac_bits, so the raw current is an int
        if not math.isfinite(self.amplitude * (1 << MAX_FRAC_BITS)):
            raise ValueError(f"stimulus amplitude {self.amplitude} is not "
                             f"finite in fixed point")


def build_stimulus(spec: StimulusSpec, neuron_count: int, timesteps: int,
                   frac_bits: int) -> list[StepEvents] | None:
    """Per-step ``(neuron id, raw)`` events; None when there is no drive.

    A neuron listed twice in ``spec.neurons``, or a step listed twice in
    ``spec.at``, still receives the amplitude once."""
    if spec.kind == "none":
        return None
    targets = range(neuron_count) if spec.neurons is None else spec.neurons
    for n in targets:
        if not (0 <= n < neuron_count):
            raise ValueError(f"stimulus target {n} out of range")
    amp = round(spec.amplitude * (1 << frac_bits))
    if amp == 0:
        return [()] * timesteps
    if spec.kind == "poisson":
        # one draw per (step, listed target), in list order
        draw = random.Random(spec.seed).random
        rate = spec.rate
        return [tuple([(n, amp) for n in
                       sorted({n for n in targets if draw() < rate})])
                for _ in range(timesteps)]
    drive = tuple((n, amp) for n in sorted(set(targets)))
    if spec.kind == "constant":
        return [drive] * timesteps
    at = set(spec.at)       # pulse
    return [drive if t in at else () for t in range(timesteps)]


def check_stimulus(stimulus: list[StepEvents] | None, neuron_count: int,
                   timesteps: int) -> None:
    """Raise ValueError unless ``stimulus`` covers the run's ``timesteps``
    and its events name only neurons ``0..neuron_count-1``."""
    if stimulus is None:
        return
    if len(stimulus) < timesteps:
        raise ValueError("stimulus shorter than the run")
    for t in range(timesteps):
        for n, _ in stimulus[t]:
            if not (0 <= n < neuron_count):
                raise ValueError(f"stimulus event at step {t} names neuron "
                                 f"{n} outside 0..{neuron_count - 1}")
