"""Cycle-level core model: decode, neuron update pass, packet generation.

Both transmission modes share the decode and update machinery and one
assembly rule: a destination's payload is its connection bitmap ANDed with
the step's fired mask.  They differ only in when and how that payload
leaves: baseline sends each address alone as its neuron's update ends;
unispike merges it into packets as the destination's barrier neuron (from
the checking table) ends its update.  A step's jobs are in creation order,
and jobs created together keep their row-major destination (baseline) or
checking-table (unispike) order.

Decoding reads the artifact's synapse table: one row per source core,
indexed by the source's local index, so an arriving address costs one
``row[idx]`` read, where a dict keyed by ``(src, idx)`` would build and hash
a key.  A slot with no synapse holds ``None``; rows beat such a dict in
memory once more than about one slot in eight is filled.

A core's accumulator is all zeros when a step starts, so after decoding it
depends only on the step's packets.  Each core keeps its last non-empty
decode (packets, accumulator, accumulation count) and reuses it when the
next non-empty step brings the same ``(src, indices)`` in the same order,
so a core holds the packets of one past step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

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


def _same_packets(a: list[SpikePacket], b: list[SpikePacket]) -> bool:
    """Whether two packet lists carry the same ``(src, indices)`` in order;
    stops at the first difference."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if pa.indices != pb.indices or pa.src != pb.src:
            return False
    return True


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
        self.scale = 1.0 / (1 << frac_bits)
        self.timing = timing
        self.mode = mode
        self.dt = dt
        self.acc = [0] * n
        self.self_pending: list[SpikePacket] = []   # own fires, next step
        # the last non-empty decode: its packets, accumulator and count
        self.memo: tuple[list[SpikePacket], list[int], int] | None = None
        self.replayed = 0                   # decodes reused so far

    # -- decode -------------------------------------------------------------

    def decode_packet(self, packet: SpikePacket) -> int:
        """Accumulate one arrived packet; returns synapse accumulation count.
        An index with no synapses here, in or past its source's row, or a
        source with no row, raises ArtifactError."""
        events = 0
        row = self.artifact.synapse_table.get(packet.src, ())
        acc = self.acc
        for idx in packet.indices:
            pairs = row[idx] if 0 <= idx < len(row) else None
            if pairs is None:
                raise ArtifactError(
                    f"core {self.coord}: no synapses for {packet.src} index {idx}")
            for post, raw in pairs:
                acc[post] += raw
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
        indices = list(iter_bits(payload))
        size = self.timing.max_body
        return [SpikePacket(self.coord, dest, timestep,
                            tuple(indices[i:i + size]))
                for i in range(0, len(indices), size)]

    # -- one timestep -----------------------------------------------------------

    def run_core_timestep(self, arrived: list[SpikePacket],
                          stimulus: list[tuple[int, int]] | None,
                          timestep: int, t_start_ps: int) -> CoreStepResult:
        """Decode arrivals from the previous step, add this core's
        ``(local index, raw)`` stimulus events, update every neuron, and
        emit generation jobs; state is cleared at the end.

        The neurons of each parameter set are stepped together; the queue
        order only times the jobs.  The neuron at queue position ``pos``
        finishes its update ``events * decode_cycles_per_accum +
        (pos + 1) * update_cycles`` core cycles after ``t_start_ps``.  Each
        destination's payload is ``conn_bitmaps[dest] & fired_mask``:
        baseline walks the bitmaps in row-major destination order and sends
        each address alone at its neuron's update end; unispike walks the
        checking table and packs the payload at its barrier's update end.
        One stable sort by creation time puts the jobs in time order; jobs
        tie only within one neuron or one barrier, so they keep their walk
        order.

        Packets whose ``(src, indices)`` repeat, in order, those of the
        last non-empty decode are not decoded again: the stored accumulator
        and count are reused.  That decode's packets are kept until the next
        non-empty one, the one exception to clearing state at the end."""
        packets = arrived + self.self_pending
        memo = self.memo
        if not packets:
            events = 0
        elif memo is not None and _same_packets(memo[0], packets):
            _, acc, events = memo
            # nothing writes the accumulator but a stimulus
            self.acc = acc.copy() if stimulus else acc
            self.replayed += 1
        else:
            events = 0
            for packet in packets:
                events += self.decode_packet(packet)
            self.memo = (packets, self.acc.copy() if stimulus else self.acc,
                         events)
        if stimulus:
            self.load_stimulus(stimulus)

        fired: list[int] = []
        for params, members in self._groups:
            fired += step_population(params, members, self.v, self.w,
                                     self.refrac, self.acc, self.scale, self.dt)
        self._check_finite()

        timing = self.timing
        period = timing.core_period_ps
        update_ps = timing.update_cycles * period
        t0 = t_start_ps + events * timing.decode_cycles_per_accum * period
        pos = self._pos
        art = self.artifact
        jobs: list[GenJob] = []
        if fired:
            fired_mask = sum(1 << idx for idx in fired)     # distinct
            if self.mode == MODE_BASELINE:
                for dest, bitmap in art.conn_bitmaps.items():
                    for idx in iter_bits(bitmap & fired_mask):
                        jobs.append(GenJob(
                            t0 + (pos[idx] + 1) * update_ps,
                            SpikePacket(self.coord, dest, timestep, (idx,))))
            else:
                # a destination's feeders all update by its barrier
                for barrier, dests in art.checking_table.items():
                    t_ps = t0 + (pos[barrier] + 1) * update_ps
                    for dest in dests:
                        jobs += [GenJob(t_ps, packet) for packet in
                                 self.generate_merged_packets(
                                     dest, fired_mask, timestep)]
            jobs.sort(key=attrgetter("create_ps"))
            row = art.synapse_table.get(self.coord, ())
            own = [idx for idx in fired
                   if idx < len(row) and row[idx] is not None]
            self.self_pending = ([SpikePacket(self.coord, self.coord,
                                              timestep, tuple(own))]
                                 if own else [])
            fired_globals = sorted(art.neuron_ids[idx] for idx in fired)
        else:
            self.self_pending = []
            fired_globals = []

        n = len(pos)
        busy_ps = t0 - t_start_ps + n * update_ps
        if packets or stimulus:
            # a fresh list: the stored decode may hold the one just read
            self.acc = [0] * n
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
