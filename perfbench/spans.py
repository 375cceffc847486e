"""Per-layer tracing for the benchmark, done entirely from outside the package.

Each layer's public entry points are replaced, for the duration of one traced
repetition, by wrappers that record a span (name, mode, start, end, parent)
and, where the return value carries work counts, add them up at the same
boundary.  The wrappers replace the name where the *caller* looks it up:
``spikenoc.system`` and ``spikenoc.cli`` import their layer functions by name,
so wrapping ``spikenoc.partition.sss_refine`` alone would time nothing.

Spans stay in memory; ``layer_metrics`` reduces one repetition's spans to the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

from workloads import MODES


@dataclass(eq=False)
class Span:
    name: str
    mode: str                   # "" outside a mode's simulation
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counts of one traced repetition."""

    mode: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    partition: object = None    # (Partition, SnnGraph) of the last deploy
    _stack: list[Span] = field(default_factory=list)

    def span(self, name: str, fn, on_return=None):
        """``fn`` wrapped so every call records one span named ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = Span(name, self.mode, self._stack[-1] if self._stack else None)
            self._stack.append(s)
            s.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(s)
            if on_return is not None:
                on_return(self, args, result)
            return result
        return wrapper

    def seconds(self, name: str, mode: str | None = None) -> float:
        return sum(s.seconds for s in self.spans
                   if s.name == name and (mode is None or s.mode == mode))

    def fired(self) -> set[str]:
        return {s.name for s in self.spans}


# -- counts taken from return values at the span boundary --------------------

def _count_core(tr: Tracer, args, res) -> None:
    tr.counts["core.updates", tr.mode] += res.update_count
    tr.counts["core.accum_events", tr.mode] += res.accum_events
    tr.counts["core.jobs", tr.mode] += len(res.jobs)


def _count_noc(tr: Tracer, args, res) -> None:
    delivered = res[0]
    tr.counts["noc.packets", tr.mode] += len(delivered)
    for packet, _ in delivered:
        tr.counts["noc.body_flits", tr.mode] += len(packet.indices)
        # XY routing: every flit crosses exactly the Manhattan distance
        hops = (abs(packet.src[0] - packet.dest[0])
                + abs(packet.src[1] - packet.dest[1]))
        tr.counts["noc.flit_hops", tr.mode] += packet.flit_count * hops


def _count_ledger(tr: Tracer, args, res) -> None:
    ledger = args[0]
    entries = sum(len(c) for c in ledger.per_core_step.values())
    key = ("metrics.ledger_entries", tr.mode)
    tr.counts[key] = max(tr.counts[key], entries)


def _count_trace_rows(tr: Tracer, args, res) -> None:
    tr.counts["cli.trace_rows", tr.mode] += len(args[0])


def _keep_partition(tr: Tracer, args, res) -> None:
    tr.partition = (res, args[0])


# span name -> ("module:attribute" or "module:Class.method", ...), on_return
TARGETS: dict[str, tuple[tuple[str, ...], object]] = {
    "graph.build": (("spikenoc.graph:build_conv_topology",
                     "spikenoc.cli:build_graph"), None),
    "graph.reference": (("spikenoc.graph:reference_simulate",), None),
    "stimulus.build": (("spikenoc.stimulus:build_stimulus",
                        "spikenoc.cli:build_stimulus"), None),
    "partition.make": (("spikenoc.system:make_partition",
                        "spikenoc.cli:make_partition"), _keep_partition),
    "partition.order": (("spikenoc.system:hsfc_order",), None),
    "partition.cut": (("spikenoc.system:initial_partition",), None),
    "partition.sss": (("spikenoc.system:sss_refine",), None),
    "partition.place": (("spikenoc.system:map_clusters",
                         "spikenoc.cli:map_clusters"), None),
    "artifact.build": (("spikenoc.system:build_bundle",
                        "spikenoc.cli:build_bundle"), None),
    "artifact.save": (("spikenoc.cli:save_bundle",), None),
    "artifact.load": (("spikenoc.cli:load_bundle",), None),
    "system.run": (("spikenoc.system:run_experiment",
                    "spikenoc.cli:run_experiment"), None),
    "core.step": (("spikenoc.core:CoreState.run_core_timestep",), _count_core),
    "noc.step": (("spikenoc.noc:NocSim.run_timestep",), _count_noc),
    "metrics.timestep_total":
        (("spikenoc.metrics:TrafficLedger.timestep_total",), _count_ledger),
    "metrics.redundancy": (("spikenoc.system:redundancy_profile",), None),
    "cli.write": (("spikenoc.cli:emit_report", "spikenoc.cli:write_packet_log",
                   "spikenoc.graph:SpikeTrain.save_text"), None),
    "cli.write_trace": (("spikenoc.cli:write_flit_trace",), _count_trace_rows),
}


def _resolve(target: str):
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class installed:
    """Context manager: every target in ``TARGETS`` wrapped by ``tracer``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for name, (targets, on_return) in TARGETS.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr,
                            self.tracer.span(name, original, on_return))
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- per-layer metrics -------------------------------------------------------

# (name, unit, better) before the per-mode suffix is added
_ONCE = [
    ("graph.build_s", "s", "lower"),
    ("graph.reference_s", "s", "lower"),
    ("stimulus.build_s", "s", "lower"),
    ("partition.order_s", "s", "lower"),
    ("partition.cut_s", "s", "lower"),
    ("partition.sss_s", "s", "lower"),
    ("partition.place_s", "s", "lower"),
    ("partition.objective_j", "count", "lower"),
    ("artifact.build_s", "s", "lower"),
    ("artifact.save_s", "s", "lower"),
    ("artifact.bundle_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
_PER_MODE = [
    ("artifact.load_s", "s", "lower"),
    ("core.step_s", "s", "lower"),
    ("core.updates", "count", "lower"),
    ("core.accum_events", "count", "lower"),
    ("core.jobs", "count", "lower"),
    ("core.us_per_update", "us", "lower"),
    ("noc.step_s", "s", "lower"),
    ("noc.flit_hops", "count", "lower"),
    ("noc.packets", "count", "lower"),
    ("noc.body_per_packet", "flit/packet", "higher"),
    ("noc.us_per_hop", "us", "lower"),
    ("metrics.timestep_total_s", "s", "lower"),
    ("metrics.redundancy_s", "s", "lower"),
    ("metrics.ledger_entries", "count", "lower"),
    ("system.self_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.trace_rows", "count", "lower"),
]
PER_LAYER: list[tuple[str, str, str]] = _ONCE + [
    (f"{name}.{mode}", unit, better)
    for name, unit, better in _PER_MODE for mode in MODES]


def _self_seconds(tr: Tracer, name: str, mode: str) -> float:
    """Wall time of ``name`` spans minus the time their child spans cover."""
    total = 0.0
    for s in tr.spans:
        if s.name == name and s.mode == mode:
            total += s.seconds - sum(c.seconds for c in tr.spans
                                     if c.parent is s)
    return total


def layer_metrics(tr: Tracer, objective_j: int, bundle_bytes: int
                  ) -> dict[str, float]:
    """One traced repetition reduced to every ``PER_LAYER`` metric except
    ``trace.overhead_s``, which needs the untraced repetitions too."""
    out: dict[str, float] = {
        "graph.build_s": tr.seconds("graph.build"),
        "graph.reference_s": tr.seconds("graph.reference"),
        "stimulus.build_s": tr.seconds("stimulus.build"),
        "partition.order_s": tr.seconds("partition.order"),
        "partition.cut_s": tr.seconds("partition.cut"),
        "partition.sss_s": tr.seconds("partition.sss"),
        "partition.place_s": tr.seconds("partition.place"),
        "partition.objective_j": objective_j,
        "artifact.build_s": tr.seconds("artifact.build"),
        "artifact.save_s": tr.seconds("artifact.save"),
        "artifact.bundle_bytes": bundle_bytes,
    }
    for mode in MODES:
        c = tr.counts
        core_s = tr.seconds("core.step", mode)
        noc_s = tr.seconds("noc.step", mode)
        updates = c["core.updates", mode]
        hops = c["noc.flit_hops", mode]
        packets = c["noc.packets", mode]
        per_mode = {
            "artifact.load_s": tr.seconds("artifact.load", mode),
            "core.step_s": core_s,
            "core.updates": updates,
            "core.accum_events": c["core.accum_events", mode],
            "core.jobs": c["core.jobs", mode],
            "core.us_per_update": 1e6 * core_s / updates if updates else 0.0,
            "noc.step_s": noc_s,
            "noc.flit_hops": hops,
            "noc.packets": packets,
            "noc.body_per_packet":
                c["noc.body_flits", mode] / packets if packets else 0.0,
            "noc.us_per_hop": 1e6 * noc_s / hops if hops else 0.0,
            "metrics.timestep_total_s":
                tr.seconds("metrics.timestep_total", mode),
            "metrics.redundancy_s": tr.seconds("metrics.redundancy", mode),
            "metrics.ledger_entries": c["metrics.ledger_entries", mode],
            "system.self_s": _self_seconds(tr, "system.run", mode),
            "cli.write_s": (tr.seconds("cli.write", mode)
                            + tr.seconds("cli.write_trace", mode)),
            "cli.trace_rows": c["cli.trace_rows", mode],
        }
        out.update({f"{k}.{mode}": v for k, v in per_mode.items()})
    return out
