"""Whole-system orchestration: deploy a network onto the mesh and run it.

Timesteps are globally barriered: every core runs its decode and update pass
for step t, all generated packets drain through the mesh, and only then does
step t+1 begin.  Modeled time advances to the latest of core completion,
generator completion, and network drain, so congestion shows up directly in
execution time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .artifact import DeploymentBundle, build_bundle, validate_placement
from .core import CoreState, CoreTiming, MODE_BASELINE, MODE_UNISPIKE, MODES
from .graph import SnnGraph, SpikeTrain, reference_simulate
from .metrics import (EnergyCostTable, RedundancyProfile, RunReport,
                      TimestepRow, TrafficLedger, compare_reports,
                      redundancy_profile)
from .noc import MeshConfig, NocSim, PacketRecord
from .partition import (PLACEMENTS, MemoryBudget, Partition,
                        check_sss_settings, hsfc_order, initial_partition,
                        map_clusters, sss_refine)
from .stimulus import (StepEvents, StimulusSpec, build_stimulus,
                       check_stimulus)

Coord = tuple[int, int]

PARTITIONERS = ("naive", "hsfc", "hsfc-sss")


@dataclass(frozen=True)
class SystemConfig:
    """One run's settings; construction checks those no component owns."""
    mesh: MeshConfig = MeshConfig()
    timing: CoreTiming = CoreTiming()
    energy: EnergyCostTable = EnergyCostTable()
    budget: MemoryBudget = MemoryBudget()
    stimulus: StimulusSpec = StimulusSpec()
    mode: str = MODE_UNISPIKE
    partitioner: str = "hsfc-sss"
    placement: str = "hilbert"
    timesteps: int = 20
    dt: float = 1.0
    partition_seed: int = 0
    seg_ratio: float = 0.1
    sss_iters: int = 0          # 0 selects the size-scaled default
    sss_t0: float = 0.0         # 0 selects a tenth of the starting objective
    sss_cooling: float = 0.995

    def __post_init__(self):
        for name, choices in (("mode", MODES), ("partitioner", PARTITIONERS),
                              ("placement", PLACEMENTS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {', '.join(choices)}")
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be positive; got "
                             f"{self.timesteps}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive; got {self.dt}")
        check_sss_settings(self.sss_iters, self.sss_t0, self.sss_cooling,
                           self.seg_ratio)


def make_partition(graph: SnnGraph, cfg: SystemConfig) -> Partition:
    order = list(range(graph.neuron_count)) if cfg.partitioner == "naive" \
        else hsfc_order(graph)
    part = initial_partition(order, graph, cfg.budget)
    if cfg.partitioner == "hsfc-sss":
        # 0 selects sss_refine's default; a run without refinement is hsfc
        part = sss_refine(part, graph, cfg.budget, seed=cfg.partition_seed,
                          iters=cfg.sss_iters or None, t0=cfg.sss_t0 or None,
                          cooling=cfg.sss_cooling, seg_ratio=cfg.seg_ratio)
    return part


def deploy(graph: SnnGraph, cfg: SystemConfig) -> DeploymentBundle:
    width, height = cfg.mesh.width, cfg.mesh.height
    placement = map_clusters(make_partition(graph, cfg), width, height,
                             cfg.placement)
    return build_bundle(graph, placement, width, height, cfg.budget)


@dataclass
class RunResult:
    report: RunReport
    train: SpikeTrain


def run_experiment(bundle: DeploymentBundle, cfg: SystemConfig,
                   stimulus: list[StepEvents] | None,
                   workload: str = "", config_digest: str = "",
                   trace_sink=None, packet_sink=None) -> RunResult:
    """Simulate the deployed system timestep by timestep.

    ``trace_sink``, if given, is called after each step with that step's
    per-flit link trace rows ``(time_ps, link, pid, kind)``, and
    ``packet_sink`` with that step's ``PacketRecord`` list in pid order;
    each list is cleared once the call returns, so the run keeps no
    per-packet state past its step.  A bundle off ``cfg.mesh`` raises
    ValueError."""
    graph = bundle.graph
    problems = validate_placement(
        graph, [(c.coord, c.neuron_ids) for c in bundle.cores],
        cfg.mesh.width, cfg.mesh.height)
    if problems:
        raise ValueError(f"bundle does not fit the configured mesh: "
                         f"{problems[0]}")
    check_stimulus(stimulus, graph.neuron_count, cfg.timesteps)
    order = sorted(bundle.cores, key=lambda c: (c.coord[1], c.coord[0]))
    cores = []
    place: list = [None] * graph.neuron_count   # id -> (core, local index)
    for c, art in enumerate(order):
        params = [graph.params_of(nid) for nid in art.neuron_ids]
        cores.append(CoreState(art, params, graph.frac_bits, cfg.timing,
                               cfg.mode, cfg.dt))
        for local, nid in enumerate(art.neuron_ids):
            place[nid] = (c, local)
    ledger = TrafficLedger()
    packet_records: list[PacketRecord] = []
    flit_trace: list | None = [] if trace_sink is not None else None
    noc = NocSim(cfg.mesh, cfg.timing, packet_records, flit_trace)
    # summed per step: a triple includes its timestep, so counts add
    red_total = red_effective = red_payload = 0
    energy = cfg.energy
    n_cores = cfg.mesh.width * cfg.mesh.height

    inbox: dict[Coord, list] = {}
    t_start = 0
    steps: list[tuple[int, ...]] = []
    rows: list[TimestepRow] = []
    dynamic_total = 0.0
    static_total = 0.0

    for t in range(cfg.timesteps):
        # the events presented during step t-1, split by core
        stim_by_core: list[list[tuple[int, int]]] = [[] for _ in cores]
        if stimulus is not None and t > 0:
            for nid, raw in stimulus[t - 1]:
                c, local = place[nid]
                stim_by_core[c].append((local, raw))
        jobs_by_core = {}
        fired: list[int] = []
        busy_max = 0
        updates = 0
        accum_events = 0
        decoded_body = 0
        for core, stim in zip(cores, stim_by_core):
            arrived = inbox.get(core.coord, [])
            if arrived:
                decoded_body += sum(len(p.indices) for p in arrived)
            res = core.run_core_timestep(arrived, stim, t, t_start)
            if res.jobs:    # the mesh needs only the cores with jobs
                jobs_by_core[core.coord] = res.jobs
            fired.extend(res.fired_globals)
            updates += res.update_count
            accum_events += res.accum_events
            busy_max = max(busy_max, res.busy_ps)

        delivered, drain_ps, gen_done = noc.run_timestep(jobs_by_core, t_start, t)
        ledger.count_packets(packet_records)
        red = redundancy_profile(packet_records)
        red_total += red.total_packets
        red_effective += red.effective_packets
        red_payload += red.payload_flits
        if packet_sink is not None:
            packet_sink(packet_records)
        packet_records.clear()
        if trace_sink is not None:
            trace_sink(flit_trace)
            flit_trace.clear()
        for done_ps in gen_done.values():
            busy_max = max(busy_max, done_ps - t_start)
        t_end = max(t_start + busy_max, drain_ps)

        inbox = {}
        for packet, _ in delivered:
            inbox.setdefault(packet.dest, []).append(packet)
        fired.sort()
        steps.append(tuple(fired))

        hops_t = ledger.timestep_total("flit_hops", t)
        state_bytes = updates * bundle.budget.bytes_per_neuron_state
        dyn = energy.dynamic(flit_hops=hops_t, updates=updates,
                             decoded_body_flits=decoded_body,
                             sram_read_bytes=accum_events * 4 + state_bytes,
                             sram_write_bytes=state_bytes)
        stat = energy.static(n_cores, n_cores, t_end - t_start)
        dynamic_total += dyn
        static_total += stat
        rows.append(TimestepRow(
            t, ledger.timestep_total("injected_flits", t), hops_t,
            ledger.timestep_total("packets", t), busy_max, t_end - t_start,
            dyn, stat))
        t_start = t_end

    train = SpikeTrain(graph.neuron_count, tuple(steps))
    report = RunReport(
        workload=workload,
        mode=cfg.mode,
        partitioner=cfg.partitioner,
        config_digest=config_digest,
        timesteps=cfg.timesteps,
        modeled_time_ps=t_start,
        spike_digest=train.digest(),
        total_spikes=train.total_spikes(),
        traffic=dict(ledger.totals),
        energy={"dynamic": dynamic_total, "static": static_total,
                "total": dynamic_total + static_total},
        redundancy=asdict(RedundancyProfile.of_counts(
            red_total, red_effective, red_payload)),
        per_timestep=rows)
    return RunResult(report, train)


@dataclass
class ComparisonResult:
    reports: dict[tuple[str, str], RunReport]
    cores: dict[str, int]                   # per partitioner, cores deployed
    ratios: dict[str, dict[str, float]]     # per partitioner, baseline/unispike
    spike_digests_equal: bool
    matches_reference: bool     # every cell's train is reference_simulate's


def run_comparison(graph: SnnGraph, cfg: SystemConfig,
                   partitioners=PARTITIONERS,
                   workload: str = "", config_digest: str = "",
                   stimulus: list[StepEvents] | None = None,
                   reference_digest: str | None = None
                   ) -> ComparisonResult:
    """Run every (mode, partitioner) cell on identical stimulus and check
    each cell's spike train against one ``reference_simulate`` run.

    A caller that runs several comparisons of one graph, stimulus spec and
    step count may pass the ``build_stimulus`` result and the reference
    train's digest, so neither is computed again."""
    if stimulus is None:
        stimulus = build_stimulus(cfg.stimulus, graph.neuron_count,
                                  cfg.timesteps, graph.frac_bits)
    reports = {}
    cores = {}
    for part_name in partitioners:
        bundle = deploy(graph, replace(cfg, partitioner=part_name))
        cores[part_name] = len(bundle.cores)
        for mode in MODES:
            cell_cfg = replace(cfg, partitioner=part_name, mode=mode)
            reports[(mode, part_name)] = run_experiment(
                bundle, cell_cfg, stimulus, workload, config_digest).report
    digests = {r.spike_digest for r in reports.values()}
    if reference_digest is None:
        reference_digest = reference_simulate(graph, stimulus, cfg.timesteps,
                                              cfg.dt).digest()
    ratios = {part_name: compare_reports(reports[(MODE_BASELINE, part_name)],
                                         reports[(MODE_UNISPIKE, part_name)])
              for part_name in partitioners}
    return ComparisonResult(reports, cores, ratios, len(digests) == 1,
                            digests == {reference_digest})
