"""Cycle-level core model: decode, neuron update pass, packet generation.

Two transmission modes share the same decode and update machinery and differ
only in when packets are produced: per firing neuron and destination
(baseline), or once per destination at its barrier neuron with all pending
spike addresses merged into one packet (unispike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .artifact import ArtifactError, CoreArtifact
from .neurons import ModelParams, NumericError, rest_state, step_population
from .schedule import iter_bits

Coord = tuple[int, int]

MODE_BASELINE = "baseline"
MODE_UNISPIKE = "unispike"
MODES = (MODE_BASELINE, MODE_UNISPIKE)


@dataclass(frozen=True)
class CoreTiming:
    """Core clock and per-operation cycle costs."""

    core_period_ps: int = 2000          # 500 MHz
    update_cycles: int = 4              # per neuron update
    decode_cycles_per_accum: int = 1    # per synapse accumulation while decoding
    gen_cycles_per_flit: int = 1        # packet generator throughput
    max_body: int = 16                  # body flits per packet
    output_queue_packets: int = 8       # generator output queue bound

    def __post_init__(self):
        if self.core_period_ps <= 0 or self.update_cycles <= 0:
            raise ValueError("core timing values must be positive")
        if self.decode_cycles_per_accum < 0 or self.gen_cycles_per_flit < 0:
            raise ValueError("decode and generation cycles must be "
                             "non-negative")
        if self.max_body < 1 or self.output_queue_packets < 1:
            raise ValueError("max_body and output queue must be at least 1")


@dataclass(frozen=True, slots=True)
class SpikePacket:
    """One head flit (route + source) plus one body flit per spike address."""

    src: Coord
    dest: Coord
    timestep: int
    indices: tuple[int, ...]

    @property
    def flit_count(self) -> int:
        return 1 + len(self.indices)


@dataclass(slots=True)
class GenJob:
    """A packet handed to the generator pipeline at a known core time."""

    create_ps: int
    packet: SpikePacket


@dataclass(slots=True)
class CoreStepResult:
    jobs: list[GenJob]
    busy_ps: int            # decode plus update pass, excluding generation
    fired_globals: list[int]
    accum_events: int
    update_count: int


class CoreState:
    """Mutable runtime state of one core, built from its deployment artifact."""

    def __init__(self, artifact: CoreArtifact, params: list[ModelParams],
                 frac_bits: int, timing: CoreTiming, mode: str,
                 dt: float = 1.0):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        n = artifact.local_count
        if len(params) != n:
            raise ValueError("one parameter record per local neuron required")
        if sorted(artifact.exec_queue) != list(range(n)):
            raise ArtifactError(f"core {artifact.coord}: execution queue is "
                                f"not a permutation of its {n} neurons")
        self.artifact = artifact
        self.coord = artifact.coord
        # neuron state, one entry per local index
        rest = [rest_state(p) for p in params]
        self.v = [s.v for s in rest]
        self.w = [s.w for s in rest]
        self.refrac = [s.refrac_left for s in rest]
        # local indices per parameter set, each stepped by one kernel call
        groups: dict[ModelParams, list[int]] = {}
        for i, p in enumerate(params):
            groups.setdefault(p, []).append(i)
        self._groups = list(groups.items())
        self._pos = [0] * n                 # local index -> queue position
        for pos, idx in enumerate(artifact.exec_queue):
            self._pos[idx] = pos
        # barrier neurons in queue order, with the destinations they release
        self._barriers = sorted((self._pos[idx], dests) for idx, dests
                                in artifact.checking_table.items())
        self.scale = 1.0 / (1 << frac_bits)
        self.timing = timing
        self.mode = mode
        self.dt = dt
        self.acc = [0] * n
        self.self_pending: list[SpikePacket] = []   # own fires, next step
        # per-local-neuron remote destinations, row-major, for baseline emission
        self._dests: list[list[Coord]] = [[] for _ in range(n)]
        for dest in sorted(artifact.conn_bitmaps, key=lambda c: (c[1], c[0])):
            for idx in iter_bits(artifact.conn_bitmaps[dest]):
                self._dests[idx].append(dest)

    # -- decode -------------------------------------------------------------

    def decode_packet(self, packet: SpikePacket) -> int:
        """Accumulate one arrived packet; returns synapse accumulation count."""
        events = 0
        table = self.artifact.synapse_table
        for idx in packet.indices:
            pairs = table.get((packet.src, idx))
            if pairs is None:
                raise ArtifactError(
                    f"core {self.coord}: no synapses for {packet.src} index {idx}")
            for post, raw in pairs:
                self.acc[post] += raw
            events += len(pairs)
        return events

    def load_stimulus(self, events) -> None:
        """Add raw external current, given as ``(local index, raw)`` pairs;
        free of charge."""
        acc = self.acc
        for idx, raw in events:
            acc[idx] += raw

    # -- packet generation ----------------------------------------------------

    def generate_merged_packets(self, dest: Coord, fired_mask: int,
                                timestep: int) -> list[SpikePacket]:
        """AND the destination's connection bitmap with the fired neurons'
        and pack the surviving addresses, at most max_body per packet."""
        payload = self.artifact.conn_bitmaps[dest] & fired_mask
        if payload == 0:
            return []
        indices = list(iter_bits(payload))
        out = []
        for i in range(0, len(indices), self.timing.max_body):
            out.append(SpikePacket(self.coord, dest, timestep,
                                   tuple(indices[i:i + self.timing.max_body])))
        return out

    def generate_baseline_packets(self, idx: int, timestep: int) -> list[SpikePacket]:
        """One single-address packet per remote destination of the neuron."""
        return [SpikePacket(self.coord, dest, timestep, (idx,))
                for dest in self._dests[idx]]

    # -- one timestep -----------------------------------------------------------

    def run_core_timestep(self, arrived: list[SpikePacket],
                          stimulus: list[tuple[int, int]] | None,
                          timestep: int, t_start_ps: int) -> CoreStepResult:
        """Decode arrivals from the previous step, add this core's
        ``(local index, raw)`` stimulus events, update every neuron in queue
        order, and emit generation jobs; state is cleared at the end.

        The neurons of each parameter set are stepped together; the queue
        order only times the jobs.  The neuron at queue position ``pos``
        finishes its update ``events * decode_cycles_per_accum +
        (pos + 1) * update_cycles`` core cycles after ``t_start_ps``, so only
        fired and barrier neurons are walked to emit jobs."""
        events = 0
        for packet in arrived + self.self_pending:
            events += self.decode_packet(packet)
        if stimulus:
            self.load_stimulus(stimulus)

        fired: list[int] = []
        for params, members in self._groups:
            fired += step_population(params, members, self.v, self.w,
                                     self.refrac, self.acc, self.scale, self.dt)
        self._check_finite()
        pos = self._pos
        fired.sort(key=pos.__getitem__)

        timing = self.timing
        period = timing.core_period_ps
        update = timing.update_cycles
        t0 = t_start_ps + events * timing.decode_cycles_per_accum * period
        jobs: list[GenJob] = []
        if self.mode == MODE_BASELINE:
            for idx in fired:
                t_ps = t0 + (pos[idx] + 1) * update * period
                for packet in self.generate_baseline_packets(idx, timestep):
                    jobs.append(GenJob(t_ps, packet))
        elif fired:
            # a destination's feeders all update by its barrier, so the
            # step's fired set gives each barrier its payload
            fired_mask = sum(1 << idx for idx in fired)     # distinct
            for bpos, dests in self._barriers:
                t_ps = t0 + (bpos + 1) * update * period
                for dest in dests:
                    for packet in self.generate_merged_packets(
                            dest, fired_mask, timestep):
                        jobs.append(GenJob(t_ps, packet))

        n = len(pos)
        busy_ps = t0 - t_start_ps + n * update * period
        self.acc = [0] * n
        table = self.artifact.synapse_table
        own = [idx for idx in fired if (self.coord, idx) in table]
        self.self_pending = ([SpikePacket(self.coord, self.coord, timestep,
                                          tuple(own))] if own else [])
        ids = self.artifact.neuron_ids
        fired_globals = sorted(ids[idx] for idx in fired)
        return CoreStepResult(jobs, busy_ps, fired_globals, events, n)

    def _check_finite(self) -> None:
        """Raise NumericError, naming the first neuron in queue order, if an
        input or a state value is not finite."""
        # a sum is finite only if every term is; a finite sum clears the list
        try:
            if (math.isfinite(sum(self.acc)) and math.isfinite(sum(self.v))
                    and math.isfinite(sum(self.w))):
                return
        except OverflowError:       # an int sum past the float range
            pass
        isfinite = math.isfinite
        for idx in self.artifact.exec_queue:
            i_in = self.acc[idx] * self.scale
            where = f"core {self.coord}: neuron {self.artifact.neuron_ids[idx]}"
            if not isfinite(i_in):
                raise NumericError(f"{where}: non-finite input current {i_in}")
            if not (isfinite(self.v[idx]) and isfinite(self.w[idx])):
                raise NumericError(f"{where}: non-finite state "
                                   f"v={self.v[idx]} w={self.w[idx]}")
