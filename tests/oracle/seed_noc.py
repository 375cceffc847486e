"""The seed simulator's mesh model, frozen as a differential oracle.

This is the first version of ``spikenoc/noc.py``, with full-scan switch
allocation and one ``Flit`` object per flit.  It is adapted only as far as
today's API needs: the packet id rides on its ``Flit``, because
``SpikePacket`` is frozen; ``MeshConfig`` and ``PacketRecord`` are the
package's; the traffic ledger is gone; delivered packets are sorted by
``(eject_ps, pid)``.  Never optimise it.  A change that alters the model's
timing on purpose changes this file too, and says so.

Cycle-level 2D-mesh network model.

Wormhole switching with per-port virtual channels and credit-based flow
control; XY dimension-order routing (X fully resolved before Y) keeps the
channel dependency graph acyclic, so the network cannot deadlock.  A flit
becomes eligible for switch allocation ``router_pipeline_cycles`` after
entering an input buffer and crosses a link in ``link_cycles``; flits
arriving at their destination router are consumed immediately.

Each core-side interface owns the packet generator pipeline and its bounded
output queue, so back-pressure from the network stalls packet generation
without ever stalling the neuron update engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from spikenoc.core import CoreTiming, GenJob, SpikePacket
from spikenoc.noc import MeshConfig, PacketRecord

Coord = tuple[int, int]

DIRS = ("E", "W", "N", "S")
_DELTA = {"E": (1, 0), "W": (-1, 0), "N": (0, -1), "S": (0, 1)}
_OPP = {"E": "W", "W": "E", "N": "S", "S": "N"}

HEAD = "H"
BODY = "B"


class DeadlockError(Exception):
    """The watchdog saw buffered flits make no progress for too long."""


def xy_route(cur: Coord, dest: Coord) -> str:
    """Next output direction under XY order; EJECT at the destination."""
    if dest[0] > cur[0]:
        return "E"
    if dest[0] < cur[0]:
        return "W"
    if dest[1] > cur[1]:
        return "S"
    if dest[1] < cur[1]:
        return "N"
    return "EJECT"


def manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass
class Flit:
    packet: SpikePacket
    kind: str
    is_tail: bool
    seq: int
    pid: int


def packet_flits(packet: SpikePacket, pid: int) -> list[Flit]:
    flits = [Flit(packet, HEAD, False, 0, pid)]
    n = len(packet.indices)
    for i in range(n):
        flits.append(Flit(packet, BODY, i == n - 1, i + 1, pid))
    return flits


class _Router:
    __slots__ = ("coord", "cfg", "in_q", "route", "out_credit", "out_alloc",
                 "rr", "slots", "buffered")

    def __init__(self, coord: Coord, cfg: MeshConfig):
        self.coord = coord
        self.cfg = cfg
        ports = ("L",) + DIRS
        self.in_q = {(d, v): deque() for d in ports for v in range(cfg.vcs)}
        self.route: dict[tuple[str, int], tuple[str, int]] = {}
        self.out_credit = {(d, v): cfg.vc_buffer_depth
                           for d in DIRS for v in range(cfg.vcs)}
        self.out_alloc: dict[tuple[str, int], int | None] = {
            (d, v): None for d in DIRS for v in range(cfg.vcs)}
        self.rr = {d: 0 for d in DIRS}
        self.slots = [(p, v) for p in ports for v in range(cfg.vcs)]
        self.buffered = 0

    def tick(self, cycle: int, noc: "NocSim") -> bool:
        moved = False
        granted_inputs: set[str] = set()
        nslots = len(self.slots)
        for out_dir in DIRS:
            start = self.rr[out_dir]
            for k in range(nslots):
                in_dir, vc = self.slots[(start + k) % nslots]
                if in_dir in granted_inputs:
                    continue
                q = self.in_q[(in_dir, vc)]
                if not q:
                    continue
                flit, eligible = q[0]
                if eligible > cycle:
                    continue
                if flit.kind == HEAD:
                    if xy_route(self.coord, flit.packet.dest) != out_dir:
                        continue
                    dvc = None
                    for v in range(self.cfg.vcs):
                        if (self.out_alloc[(out_dir, v)] is None
                                and self.out_credit[(out_dir, v)] > 0):
                            dvc = v
                            break
                    if dvc is None:
                        continue
                else:
                    rt = self.route.get((in_dir, vc))
                    if rt is None or rt[0] != out_dir:
                        continue
                    dvc = rt[1]
                    if self.out_credit[(out_dir, dvc)] <= 0:
                        continue
                q.popleft()
                self.buffered -= 1
                if flit.kind == HEAD:
                    self.out_alloc[(out_dir, dvc)] = flit.pid
                    self.route[(in_dir, vc)] = (out_dir, dvc)
                if flit.is_tail:
                    self.route.pop((in_dir, vc), None)
                self.out_credit[(out_dir, dvc)] -= 1
                self.rr[out_dir] = (start + k + 1) % nslots
                granted_inputs.add(in_dir)
                noc._send(self, in_dir, vc, out_dir, dvc, flit, cycle)
                moved = True
                break
        return moved


class _Ni:
    """Network interface: generator pipeline, bounded output queue, injector."""

    __slots__ = ("coord", "cfg", "gen_ps_per_flit", "queue_cap", "gen_jobs",
                 "gen_busy_until", "gen_blocked", "gen_done_ps", "queue",
                 "current", "cur_vc", "out_credit", "out_alloc")

    def __init__(self, coord: Coord, cfg: MeshConfig, timing: CoreTiming):
        self.coord = coord
        self.cfg = cfg
        self.gen_ps_per_flit = timing.gen_cycles_per_flit * timing.core_period_ps
        self.queue_cap = timing.output_queue_packets
        self.gen_jobs: deque[GenJob] = deque()
        self.gen_busy_until = 0
        self.gen_blocked: tuple[int, SpikePacket] | None = None
        self.gen_done_ps = 0
        self.queue: deque[tuple[int, SpikePacket]] = deque()
        self.current: deque[Flit] | None = None
        self.cur_vc = 0
        self.out_credit = [cfg.vc_buffer_depth] * cfg.vcs
        self.out_alloc: list[int | None] = [None] * cfg.vcs

    @property
    def idle(self) -> bool:
        return (not self.gen_jobs and self.gen_blocked is None
                and not self.queue and self.current is None)

    def set_jobs(self, jobs: list[GenJob], start_ps: int) -> None:
        assert self.idle, "sources must drain before the next timestep"
        self.gen_jobs = deque(sorted(jobs, key=lambda j: j.create_ps))
        self.gen_busy_until = start_ps
        self.gen_done_ps = start_ps

    def advance_gen(self, now_ps: int) -> None:
        while True:
            if self.gen_blocked is not None:
                finish, packet = self.gen_blocked
                if len(self.queue) >= self.queue_cap:
                    return
                ready = max(finish, now_ps)
                self.queue.append((ready, packet))
                self.gen_busy_until = ready
                self.gen_done_ps = max(self.gen_done_ps, ready)
                self.gen_blocked = None
            if not self.gen_jobs:
                return
            job = self.gen_jobs[0]
            start = max(self.gen_busy_until, job.create_ps)
            finish = start + job.packet.flit_count * self.gen_ps_per_flit
            if finish > now_ps:
                return
            self.gen_jobs.popleft()
            if len(self.queue) < self.queue_cap:
                self.queue.append((finish, job.packet))
                self.gen_busy_until = finish
                self.gen_done_ps = max(self.gen_done_ps, finish)
            else:
                self.gen_blocked = (finish, job.packet)
                self.gen_busy_until = finish

    def next_gen_event_ps(self) -> int | None:
        if self.gen_blocked is not None or not self.gen_jobs:
            return None
        job = self.gen_jobs[0]
        start = max(self.gen_busy_until, job.create_ps)
        return start + job.packet.flit_count * self.gen_ps_per_flit

    def step(self, cycle: int, noc: "NocSim") -> None:
        now_ps = cycle * self.cfg.noc_period_ps
        self.advance_gen(now_ps)
        if self.current is None and self.queue and self.queue[0][0] <= now_ps:
            vc = None
            for v in range(self.cfg.vcs):
                if self.out_alloc[v] is None and self.out_credit[v] > 0:
                    vc = v
                    break
            if vc is not None:
                _, packet = self.queue.popleft()
                self.advance_gen(now_ps)  # a queue slot just freed
                pid = noc._next_pid()
                self.current = deque(packet_flits(packet, pid))
                self.cur_vc = vc
                self.out_alloc[vc] = pid
                noc._on_packet_injection(packet, pid, now_ps)
        if self.current is not None and self.out_credit[self.cur_vc] > 0:
            flit = self.current.popleft()
            self.out_credit[self.cur_vc] -= 1
            if self.current is not None and not self.current:
                self.current = None
            noc._on_flit_injection(self.coord, self.cur_vc, flit, cycle)


class NocSim:
    """Whole-mesh state, advanced timestep by timestep until drained."""

    def __init__(self, cfg: MeshConfig, timing: CoreTiming,
                 packet_records: list[PacketRecord] | None = None,
                 flit_trace: list | None = None):
        self.cfg = cfg
        self.timing = timing
        self.packet_records = packet_records if packet_records is not None else []
        self.flit_trace = flit_trace
        self.coords = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
        self.routers = {c: _Router(c, cfg) for c in self.coords}
        self.nis = {c: _Ni(c, cfg, timing) for c in self.coords}
        self.active: set[Coord] = set()
        self.arrivals: dict[int, list[tuple[Coord, str, int, Flit]]] = {}
        self.credits: dict[int, list[tuple[str, Coord, str, int, bool]]] = {}
        self.in_flight = 0
        self.pid_counter = 0
        self.timestep = 0
        self._records_by_pid: dict[int, PacketRecord] = {}
        self._delivered: list[tuple[SpikePacket, int, int]] = []
        self._progress = 0

    # -- bookkeeping hooks ----------------------------------------------------

    def _next_pid(self) -> int:
        pid = self.pid_counter
        self.pid_counter += 1
        return pid

    def _on_packet_injection(self, packet: SpikePacket, pid: int,
                             now_ps: int) -> None:
        rec = PacketRecord(pid, packet.src, packet.dest, packet.timestep,
                           len(packet.indices), now_ps)
        self.packet_records.append(rec)
        self._records_by_pid[pid] = rec

    def _on_flit_injection(self, coord: Coord, vc: int, flit: Flit, cycle: int) -> None:
        router = self.routers[coord]
        router.in_q[("L", vc)].append((flit, cycle + self.cfg.router_pipeline_cycles))
        router.buffered += 1
        self.active.add(coord)
        self.in_flight += 1
        self._progress += 1

    def _send(self, router: _Router, in_dir: str, vc: int, out_dir: str,
              dvc: int, flit: Flit, cycle: int) -> None:
        self._progress += 1
        # free the input slot: credit back to whoever fills this buffer
        self.credits.setdefault(cycle + 1, []).append(
            ("ni" if in_dir == "L" else "router", router.coord, in_dir, vc,
             flit.is_tail))
        target = (router.coord[0] + _DELTA[out_dir][0],
                  router.coord[1] + _DELTA[out_dir][1])
        self.arrivals.setdefault(cycle + self.cfg.link_cycles, []).append(
            (target, _OPP[out_dir], dvc, flit))
        if self.flit_trace is not None:
            self.flit_trace.append((cycle * self.cfg.noc_period_ps,
                                    f"{router.coord[0]},{router.coord[1]}>"
                                    f"{target[0]},{target[1]}",
                                    flit.pid, flit.kind))

    def _apply_credit(self, kind: str, coord: Coord, in_dir: str, vc: int,
                      was_tail: bool) -> None:
        if kind == "ni":
            ni = self.nis[coord]
            ni.out_credit[vc] += 1
            if was_tail:
                ni.out_alloc[vc] = None
        else:
            up = (coord[0] + _DELTA[in_dir][0], coord[1] + _DELTA[in_dir][1])
            router = self.routers[up]
            out_dir = _OPP[in_dir]
            router.out_credit[(out_dir, vc)] += 1
            if was_tail:
                router.out_alloc[(out_dir, vc)] = None

    def _arrive(self, coord: Coord, in_dir: str, vc: int, flit: Flit,
                cycle: int) -> None:
        self._progress += 1
        if coord == flit.packet.dest:
            self.in_flight -= 1
            eject_ps = cycle * self.cfg.noc_period_ps
            # consumed on arrival: the buffer slot frees right away
            self.credits.setdefault(cycle + 1, []).append(
                ("router", coord, in_dir, vc, flit.is_tail))
            if flit.is_tail:
                rec = self._records_by_pid.pop(flit.pid)
                rec.eject_ps = eject_ps
                self._delivered.append((flit.packet, eject_ps, flit.pid))
        else:
            router = self.routers[coord]
            router.in_q[(in_dir, vc)].append(
                (flit, cycle + self.cfg.router_pipeline_cycles))
            router.buffered += 1
            self.active.add(coord)

    # -- main loop --------------------------------------------------------------

    def run_timestep(self, jobs_by_core: dict[Coord, list[GenJob]], start_ps: int,
                     timestep: int) -> tuple[list[tuple[SpikePacket, int]], int,
                                             dict[Coord, int]]:
        """Feed per-core generation jobs, advance until every packet has been
        delivered; returns (delivered packets, drain time, generator-done times)."""
        self.timestep = timestep
        self._delivered = []
        period = self.cfg.noc_period_ps
        live = []
        for coord in sorted(jobs_by_core, key=lambda c: (c[1], c[0])):
            jobs = jobs_by_core[coord]
            for job in jobs:
                if job.packet.src == job.packet.dest:
                    raise ValueError("self-addressed packets bypass the mesh")
            self.nis[coord].set_jobs(jobs, start_ps)
            if jobs:
                live.append(coord)
        cycle = -(-start_ps // period)
        drain_ps = start_ps
        last_progress_cycle = cycle
        last_progress = self._progress

        while True:
            for coord, in_dir, vc, flit in self.arrivals.pop(cycle, ()):
                self._arrive(coord, in_dir, vc, flit, cycle)
            for item in self.credits.pop(cycle, ()):
                self._apply_credit(*item)
            for coord in live:
                self.nis[coord].step(cycle, self)
            for coord in sorted(self.active, key=lambda c: (c[1], c[0])):
                self.routers[coord].tick(cycle, self)
            self.active = {c for c in self.active if self.routers[c].buffered}

            if (self.in_flight == 0 and not self.arrivals
                    and all(self.nis[c].idle for c in live)):
                drain_ps = cycle * period
                break

            if self._progress != last_progress:
                last_progress = self._progress
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > self.cfg.watchdog_cycles:
                stuck = {str(c): r.buffered for c, r in self.routers.items()
                         if r.buffered}
                raise DeadlockError(
                    f"no flit progress for {self.cfg.watchdog_cycles} cycles at "
                    f"t={timestep}; buffered flits per router: {stuck}")

            cand = [cycle + 1] if self.active else []
            if self.arrivals:
                cand.append(min(self.arrivals))
            if self.credits:
                cand.append(min(self.credits))
            for coord in live:
                ni = self.nis[coord]
                if ni.current is not None:
                    cand.append(cycle + 1)
                elif ni.queue:
                    cand.append(max(cycle + 1, -(-ni.queue[0][0] // period)))
                nxt = ni.next_gen_event_ps()
                if nxt is not None:
                    cand.append(max(cycle + 1, -(-nxt // period)))
            cycle = max(cycle + 1, min(cand)) if cand else cycle + 1

        # flits are all delivered; apply the credit echoes left in flight
        for c in sorted(self.credits):
            for item in self.credits.pop(c):
                self._apply_credit(*item)
        if self._delivered:
            drain_ps = max(drain_ps, max(ps for _, ps, _ in self._delivered))
        gen_done = {c: self.nis[c].gen_done_ps for c in live}
        delivered = [(p, ps) for p, ps, _ in
                     sorted(self._delivered, key=lambda d: (d[1], d[2]))]
        return delivered, drain_ps, gen_done
