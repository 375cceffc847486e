"""Cycle-level core model: decode, neuron update pass, packet generation.

Two transmission modes share the same decode and update machinery and differ
only in when packets are produced: per firing neuron and destination
(baseline), or once per destination at its barrier neuron with all pending
spike addresses merged into one packet (unispike).
"""

from __future__ import annotations

from dataclasses import dataclass

from .artifact import ArtifactError, CoreArtifact, iter_bits
from .neurons import ModelParams, NeuronState, rest_state, step_neuron

Coord = tuple[int, int]

MODE_BASELINE = "baseline"
MODE_UNISPIKE = "unispike"


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
        if self.max_body < 1 or self.output_queue_packets < 1:
            raise ValueError("max_body and output queue must be at least 1")


@dataclass(frozen=True)
class SpikePacket:
    """One head flit (route + source) plus one body flit per spike address."""

    src: Coord
    dest: Coord
    timestep: int
    indices: tuple[int, ...]

    @property
    def flit_count(self) -> int:
        return 1 + len(self.indices)


@dataclass
class GenJob:
    """A packet handed to the generator pipeline at a known core time."""

    create_ps: int
    packet: SpikePacket


@dataclass
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
        if mode not in (MODE_BASELINE, MODE_UNISPIKE):
            raise ValueError(f"unknown mode {mode!r}")
        n = artifact.local_count
        if len(params) != n:
            raise ValueError("one parameter record per local neuron required")
        self.artifact = artifact
        self.coord = artifact.coord
        self.params = list(params)
        self.states: list[NeuronState] = [rest_state(p) for p in params]
        self.scale = 1.0 / (1 << frac_bits)
        self.timing = timing
        self.mode = mode
        self.dt = dt
        self.acc = [0] * n
        self.act_bitmap = 0
        self.self_pending: list[int] = []   # local fires awaiting next-step decode
        # per-local-neuron remote destinations, row-major, for baseline emission
        self._dests = [artifact.local_dests(i) for i in range(n)]
        self._self_fanout = {
            idx: pairs for (src, idx), pairs in artifact.synapse_table.items()
            if src == artifact.coord}

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

    def _decode_local(self, fired_indices: list[int]) -> int:
        events = 0
        for idx in fired_indices:
            for post, raw in self._self_fanout[idx]:
                self.acc[post] += raw
            events += len(self._self_fanout[idx])
        return events

    def load_stimulus(self, row: list[int]) -> None:
        """Raw external current indexed by global neuron id; free of charge."""
        for i, nid in enumerate(self.artifact.neuron_ids):
            self.acc[i] += row[nid]

    # -- packet generation ----------------------------------------------------

    def generate_merged_packets(self, dest: Coord, timestep: int) -> list[SpikePacket]:
        """AND the destination's connection bitmap with the activation bitmap
        and pack the surviving addresses, at most max_body per packet."""
        payload = self.artifact.conn_bitmaps[dest] & self.act_bitmap
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
                          stimulus_row: list[int] | None, timestep: int,
                          t_start_ps: int) -> CoreStepResult:
        """Decode arrivals from the previous step, update every neuron in
        queue order, and emit generation jobs; state is cleared at the end."""
        events = self._decode_local(self.self_pending)
        self.self_pending = []
        for packet in arrived:
            events += self.decode_packet(packet)
        if stimulus_row is not None:
            self.load_stimulus(stimulus_row)

        timing = self.timing
        t_cycles = events * timing.decode_cycles_per_accum
        jobs: list[GenJob] = []
        fired_globals: list[int] = []
        next_self: list[int] = []
        art = self.artifact
        baseline = self.mode == MODE_BASELINE
        for idx in art.exec_queue:
            t_cycles += timing.update_cycles
            t_ps = t_start_ps + t_cycles * timing.core_period_ps
            if step_neuron(self.states[idx], self.params[idx],
                           self.acc[idx] * self.scale, self.dt):
                self.act_bitmap |= 1 << idx
                fired_globals.append(art.neuron_ids[idx])
                if self._self_fanout.get(idx):
                    next_self.append(idx)
                if baseline:
                    for packet in self.generate_baseline_packets(idx, timestep):
                        jobs.append(GenJob(t_ps, packet))
            if not baseline:
                # the barrier neuron has updated: its destinations go out
                for dest in art.checking_table.get(idx, ()):
                    for packet in self.generate_merged_packets(dest, timestep):
                        jobs.append(GenJob(t_ps, packet))

        busy_ps = t_cycles * timing.core_period_ps
        update_count = len(art.exec_queue)
        self.acc = [0] * len(self.acc)
        self.act_bitmap = 0
        self.self_pending = next_self
        fired_globals.sort()
        return CoreStepResult(jobs, busy_ps, fired_globals, events, update_count)
