"""Timed repetitions of one workload, reduced to the benchmark's metrics.

A run repeats the workload (set up, then simulate each mode) until the next
repetition would overrun the time budget, and reports medians over the
repetitions.  Host times are in reference seconds: see ``PROBE_REF_S``.
Every mode run is checked; a wrong result or a run the program reports as
failed is counted in ``failed`` and never stops the run.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

from spikenoc.partition import destination_objective

import spans
from workloads import FAILURES, MODES, ModeResult, check, pins_for

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("baseline_s", "s"),
    ("unispike_s", "s"),
    ("flit_hops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("traffic_saving", "x"),
    ("modeled_speedup", "x"),
]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)


def probe_s() -> float:
    """Wall time of a fixed pure-Python kernel that shares no code with
    spikenoc: how fast this host runs Python at this moment."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    out = []
    for i in range(60_000):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i & 3 == 0:
            out.append((key, i))
    out.sort()
    return time.perf_counter() - t0


# The probe time that defines one reference second.  The shared host's speed
# drifts by up to 2x over seconds to minutes, and every region of a run,
# setup and both modes alike, slows down together.  So a timed region reports
# wall seconds x PROBE_REF_S / (mean of the probes taken just before and just
# after it).  The probe is fixed benchmark code: a change to the simulator
# moves these times exactly as it moves wall time.
PROBE_REF_S = 0.035

REGIONS = ("setup",) + MODES


@dataclass
class Repetition:
    """Timed regions ("setup" and each mode) of one repetition."""

    ref_s: dict[str, float] = field(default_factory=dict)   # reference s
    wall_s: dict[str, float] = field(default_factory=dict)  # as measured
    probes: list[float] = field(default_factory=list)
    results: dict[str, ModeResult] = field(default_factory=dict)
    bundle_bytes: int = 0

    def timed(self, region: str, fn):
        """``fn()``, timed as ``region`` between two host-speed probes."""
        if not self.probes:
            self.probes.append(probe_s())
        gc.collect()        # no region pays for the garbage of the one before
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            self.probes.append(probe_s())
        self.wall_s[region] = wall
        self.ref_s[region] = (wall * 2 * PROBE_REF_S
                              / (self.probes[-2] + self.probes[-1]))
        return out


def repetition(workload, prep, tally: Tally,
               tracer: spans.Tracer | None = None) -> Repetition:
    """Set up once, then simulate and check every mode; ``tracer`` learns
    which mode its spans belong to."""
    rep = Repetition()
    rep_dir = tempfile.mkdtemp(dir=prep.work_dir)
    try:
        deployed = rep.timed("setup", lambda: workload.setup(prep, rep_dir))
        for mode in MODES:
            tally.attempted += 1
            if tracer is not None:
                tracer.mode = mode
            try:
                raw = rep.timed(
                    mode, lambda: workload.simulate(prep, deployed, mode))
            except FAILURES as exc:
                tally.fail(f"{workload.name} {mode}: "
                           f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.mode = ""
            result = workload.collect(raw)
            problems = check(result, prep.reference_digest,
                             pins_for(workload.name, prep.seed, mode))
            if problems:
                tally.fail(f"{workload.name} {mode}: {'; '.join(problems)}")
            rep.results[mode] = result
        rep.bundle_bytes = workload.bundle_bytes(deployed)
        return rep
    finally:
        shutil.rmtree(rep_dir)


def repeat(seconds: float, once) -> list:
    """Call ``once`` at least once, and again while the next call is
    expected to finish within ``seconds`` of the start."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(once())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("no mode run succeeded, nothing to report")
    return statistics.median(values)


def end_to_end(reps: list[Repetition]) -> dict[str, float]:
    ref = {k: _median(r.ref_s[k] for r in reps if k in r.ref_s)
           for k in REGIONS}
    wall = {k: _median(r.wall_s[k] for r in reps if k in r.wall_s)
            for k in REGIONS}
    probe = statistics.median(p for r in reps for p in r.probes)
    print("wall-clock medians as measured: "
          + ", ".join(f"{k} {v:.4g} s" for k, v in wall.items())
          + f"; probe median {probe:.4g} s, reference {PROBE_REF_S} s; "
          f"{len(reps)} repetitions", file=sys.stderr)
    result = {m: next(r.results[m] for r in reps if m in r.results)
              for m in MODES}
    base, uni = result["baseline"], result["unispike"]
    hops = base.traffic["flit_hops"] + uni.traffic["flit_hops"]
    return {
        "setup_s": ref["setup"],
        "baseline_s": ref["baseline"],
        "unispike_s": ref["unispike"],
        "flit_hops_per_s": hops / (ref["baseline"] + ref["unispike"]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traffic_saving":
            base.traffic["flit_hops"] / uni.traffic["flit_hops"],
        "modeled_speedup": base.modeled_time_ps / uni.modeled_time_ps,
    }


def traced_repetition(workload, prep, tally: Tally, tracer: spans.Tracer
                      ) -> tuple[Repetition, dict[str, float]]:
    with spans.installed(tracer):
        rep = repetition(workload, prep, tally, tracer)
    # the partition span keeps what it returned; score it outside any span
    part, graph = tracer.partition
    return rep, spans.layer_metrics(tracer, destination_objective(part, graph),
                                    rep.bundle_bytes)


def per_layer(workload, prep, reference_s: float, seconds: float,
              tally: Tally) -> dict[str, float]:
    """Alternate untraced and traced repetitions; medians of each."""
    untraced: list[Repetition] = []
    traced: list[tuple[Repetition, dict[str, float]]] = []

    def pair():
        untraced.append(repetition(workload, prep, tally))
        traced.append(traced_repetition(workload, prep, tally,
                                        spans.Tracer()))

    repeat(seconds, pair)
    out = {name: statistics.median(m[name] for _, m in traced)
           for name in traced[0][1]}
    out["graph.reference_s"] = reference_s
    out["trace.overhead_s"] = (
        statistics.median(sum(r.wall_s.values()) for r, _ in traced)
        - statistics.median(sum(r.wall_s.values()) for r in untraced))
    return out


def run(workload, seed: int, seconds: float, trace: bool, work_root: str
        ) -> dict:
    """One benchmark run; the returned dict is the result line's object."""
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    tally = Tally()
    try:
        if trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                prep = workload.prepare(seed, work_dir)
            values = per_layer(workload, prep,
                               tracer.seconds("graph.reference"), seconds,
                               tally)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            prep = workload.prepare(seed, work_dir)
            reps = repeat(seconds, lambda: repetition(workload, prep, tally))
            values = end_to_end(reps)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
