"""Traffic, energy, and redundancy accounting plus the run report format.

Reports serialize to canonical JSON (sorted keys) so identical runs are
byte-identical on disk; the per-timestep series additionally goes out as CSV
with the columns timestep, mode, injected_flits, flit_hops, packets, busy_ps,
drain_ps, dynamic_energy, static_energy.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, asdict, fields

from .noc import PacketRecord, manhattan

Coord = tuple[int, int]

METRICS = ("injected_flits", "ejected_flits", "flit_hops", "packets",
           "head_flits", "body_flits")


class TrafficLedger:
    """Flit/packet counters, total, per (core, timestep) and per timestep,
    counted from the mesh's packet records.

    Under XY routing every flit of a packet crosses the same
    ``manhattan(src, dest)`` links, so a packet contributes
    ``flit_count * manhattan(src, dest)`` flit-hops.  Packets, head, body and
    injected flits and flit-hops are attributed to the packet's source core;
    ejected flits to the destination core, and only once the packet is
    delivered.
    """

    def __init__(self):
        self.totals = {m: 0 for m in METRICS}
        self.per_core_step: dict[str, Counter] = {m: Counter() for m in METRICS}
        self.per_step: dict[str, Counter] = {m: Counter() for m in METRICS}

    def _bump(self, metric: str, core: Coord, timestep: int, n: int) -> None:
        self.totals[metric] += n
        self.per_core_step[metric][(core, timestep)] += n
        self.per_step[metric][timestep] += n

    def count_packets(self, records) -> None:
        """Count packet records, summing them per (core, timestep) first so
        each key is bumped once per call."""
        sent: dict[tuple[Coord, int], list[int]] = {}  # packets, body, hops
        ejected: dict[tuple[Coord, int], int] = {}
        for rec in records:
            key = (rec.src, rec.timestep)
            sums = sent.get(key)
            if sums is None:
                sums = sent[key] = [0, 0, 0]
            flits = 1 + rec.body_count
            sums[0] += 1
            sums[1] += rec.body_count
            sums[2] += flits * manhattan(rec.src, rec.dest)
            if rec.eject_ps >= 0:
                key = (rec.dest, rec.timestep)
                ejected[key] = ejected.get(key, 0) + flits
        bump = self._bump
        for (core, t), (packets, body, hops) in sent.items():
            bump("packets", core, t, packets)
            bump("head_flits", core, t, packets)
            bump("body_flits", core, t, body)
            bump("injected_flits", core, t, packets + body)
            bump("flit_hops", core, t, hops)
        for (core, t), flits in ejected.items():
            bump("ejected_flits", core, t, flits)

    def timestep_total(self, metric: str, timestep: int) -> int:
        return self.per_step[metric][timestep]


@dataclass(frozen=True)
class EnergyCostTable:
    """Per-event dynamic costs and static power.

    The numbers below are round placeholder magnitudes in arbitrary energy
    units per event (or per picosecond for static power); calibrate them
    against a target technology before trusting absolute joules.  Ratios
    between runs are meaningful for any consistent table.
    """

    router_per_flit: float = 5.0        # per flit per link traversal
    link_per_flit: float = 3.0
    neuron_update: float = 10.0
    decode_per_body_flit: float = 2.0
    sram_read_per_byte: float = 0.05
    sram_write_per_byte: float = 0.05
    core_static_per_ps: float = 2e-4    # per powered core
    router_static_per_ps: float = 1e-4  # per router

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and non-negative; "
                                 f"got {value}")

    def dynamic(self, flit_hops: int = 0, updates: int = 0,
                decoded_body_flits: int = 0, sram_read_bytes: int = 0,
                sram_write_bytes: int = 0) -> float:
        return (flit_hops * (self.router_per_flit + self.link_per_flit)
                + updates * self.neuron_update
                + decoded_body_flits * self.decode_per_body_flit
                + sram_read_bytes * self.sram_read_per_byte
                + sram_write_bytes * self.sram_write_per_byte)

    def static(self, n_cores: int, n_routers: int, span_ps: int) -> float:
        return (n_cores * self.core_static_per_ps
                + n_routers * self.router_static_per_ps) * span_ps


@dataclass(frozen=True)
class RedundancyProfile:
    """How many packets carried addresses already sent the same timestep.

    ``effective`` counts distinct (source, destination, timestep) triples;
    ``ratio`` is effective/total.  An empty log is reported as ratio 1 with
    the ``empty`` flag raised rather than as a division error.
    """

    total_packets: int
    effective_packets: int
    payload_flits: int
    ratio: float
    empty: bool

    @staticmethod
    def of_counts(total: int, effective: int, payload: int
                  ) -> "RedundancyProfile":
        """The profile of a log with these counts."""
        if total == 0:
            return RedundancyProfile(0, 0, 0, 1.0, True)
        return RedundancyProfile(total, effective, payload, effective / total,
                                 False)


def redundancy_profile(records) -> RedundancyProfile:
    """``records`` is any iterable with .src/.dest/.timestep/.body_count.

    Logs of different timesteps share no triple, so their profiles' counts
    add up to the profile of their concatenation."""
    total = 0
    payload = 0
    triples = set()
    for r in records:
        total += 1
        payload += r.body_count
        triples.add((r.src, r.dest, r.timestep))
    return RedundancyProfile.of_counts(total, len(triples), payload)


@dataclass
class TimestepRow:
    timestep: int
    injected_flits: int
    flit_hops: int
    packets: int
    busy_ps: int
    drain_ps: int
    dynamic_energy: float
    static_energy: float


@dataclass
class RunReport:
    workload: str
    mode: str
    partitioner: str
    config_digest: str
    timesteps: int
    modeled_time_ps: int
    spike_digest: str
    total_spikes: int
    traffic: dict
    energy: dict
    redundancy: dict
    per_timestep: list[TimestepRow]
    schema_version: int = 1

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunReport":
        d = json.loads(text)
        rows = [TimestepRow(**r) for r in d.pop("per_timestep")]
        return RunReport(per_timestep=rows, **d)


def emit_report(report: RunReport, json_path: str, csv_path: str | None = None) -> None:
    with open(json_path, "w") as f:
        f.write(report.to_json())
    if csv_path is not None:
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["timestep", "mode", "injected_flits", "flit_hops",
                        "packets", "busy_ps", "drain_ps", "dynamic_energy",
                        "static_energy"])
            for r in report.per_timestep:
                w.writerow([r.timestep, report.mode, r.injected_flits,
                            r.flit_hops, r.packets, r.busy_ps, r.drain_ps,
                            repr(r.dynamic_energy), repr(r.static_energy)])


def parse_report(json_path: str) -> RunReport:
    with open(json_path) as f:
        return RunReport.from_json(f.read())


def _ratio(a: float, b: float) -> float:
    if b == 0:
        return 1.0 if a == 0 else math.inf
    return a / b


def step_attribution(rows: list[TimestepRow]) -> dict[str, int]:
    """Split a run's steps into core time and network tail.

    A row's ``busy_ps`` is its busiest core's pass plus generation and its
    ``drain_ps`` is the whole step, so ``drain_ps - busy_ps`` is the tail the
    step spends waiting on the network alone.  Returns the summed busy time,
    the summed tail, and the number of steps with a tail, which end on the
    network rather than on a core."""
    busy = tail = steps = 0
    for r in rows:
        busy += r.busy_ps
        t = r.drain_ps - r.busy_ps
        tail += t
        if t > 0:
            steps += 1
    return {"busy_ps": busy, "tail_ps": tail, "steps_ending_on_network": steps}


def compare_reports(baseline: RunReport, other: RunReport) -> dict[str, float]:
    """Improvement ratios of ``other`` relative to ``baseline`` (>1 is better)."""
    return {
        "traffic_saving": _ratio(baseline.traffic["flit_hops"],
                                 other.traffic["flit_hops"]),
        "traffic_saving_injected": _ratio(baseline.traffic["injected_flits"],
                                          other.traffic["injected_flits"]),
        "speedup": _ratio(baseline.modeled_time_ps, other.modeled_time_ps),
        "energy_efficiency": _ratio(baseline.energy["total"],
                                    other.energy["total"]),
    }
