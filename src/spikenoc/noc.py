"""Cycle-level 2D-mesh network model.

Wormhole switching with per-port virtual channels and credit-based flow
control; XY dimension-order routing (X fully resolved before Y) keeps the
channel dependency graph acyclic, so the network cannot deadlock.  A flit
becomes eligible for switch allocation ``router_pipeline_cycles`` after
entering an input buffer and crosses a link in ``link_cycles``; flits
arriving at their destination router are consumed immediately.

Each core-side interface owns the packet generator pipeline and its bounded
output queue, so back-pressure from the network stalls packet generation
without ever stalling the neuron update engine.  A generated packet enters
the queue only while it has room, no earlier than the moment room last opened.

A flit is no object: it is its packet's ``(packet, record)`` pair plus a
sequence number, 0 for the head and ``len(indices)`` for the tail.  A freed
slot's credit is applied at the top of the next processed cycle, because
whatever could read it sooner makes the very next cycle an event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import CoreTiming, GenJob, SpikePacket

Coord = tuple[int, int]

DIRS = ("E", "W", "N", "S")
PORTS = ("L",) + DIRS       # input ports; L is the local injection port
_DELTA = {"E": (1, 0), "W": (-1, 0), "N": (0, -1), "S": (0, 1)}
_OPP = {"E": "W", "W": "E", "N": "S", "S": "N"}
_OUT = {d: o for o, d in enumerate(DIRS)}


class DeadlockError(Exception):
    """The watchdog saw buffered flits make no progress for too long."""


@dataclass(frozen=True)
class MeshConfig:
    width: int = 4
    height: int = 4
    vcs: int = 4
    vc_buffer_depth: int = 4
    router_pipeline_cycles: int = 2
    link_cycles: int = 1
    noc_period_ps: int = 6250      # 160 MHz
    watchdog_cycles: int = 50000

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.vcs < 1 or self.vc_buffer_depth < 1:
            raise ValueError("need at least one VC and one buffer slot")
        if (self.router_pipeline_cycles < 1 or self.link_cycles < 1
                or self.noc_period_ps <= 0):
            raise ValueError("pipeline, link and period must be positive")
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be at least 1")


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


@dataclass(slots=True)
class PacketRecord:
    pid: int
    src: Coord
    dest: Coord
    timestep: int
    body_count: int
    inject_ps: int
    eject_ps: int = -1


Packet = tuple[SpikePacket, PacketRecord]


class _Router:
    """One router's buffers and allocation state in flat lists.

    Input slot ``s = port * vcs + vc`` indexes ``PORTS``; output slot
    ``o * vcs + vc`` indexes ``DIRS``.  An input buffer holds flits of one
    packet at a time, because the upstream VC feeding it stays allocated to
    that packet until its tail has left the buffer.  So a head entering slot
    ``s`` sets the packet ``pkt[s]`` and output port ``out_of[s]`` for every
    flit behind it, and ``route[s]`` is the downstream VC it was granted; a
    buffered flit is its eligible cycle in ``in_q[s]``, and ``seq[s]`` numbers
    the front one.  A freed slot's credit returns on the next processed cycle.
    """

    __slots__ = ("coord", "rid", "vcs", "nslots", "in_q", "pkt", "seq",
                 "occupied", "out_of", "route", "out_credit", "out_alloc",
                 "rr", "up", "down", "link")

    def __init__(self, coord: Coord, cfg: MeshConfig):
        vcs = cfg.vcs
        self.coord = coord
        # ascending ids are (y, x) order, the order routers tick in
        self.rid = coord[1] * cfg.width + coord[0]
        self.vcs = vcs
        self.nslots = len(PORTS) * vcs
        # a buffer holds at most vc_buffer_depth flits, so a list beats a
        # deque in memory and in time
        self.in_q: list[list[int]] = [[] for _ in range(self.nslots)]
        self.pkt: list[Packet | None] = [None] * self.nslots
        self.seq = [0] * self.nslots
        self.occupied: set[int] = set()     # slots with a non-empty buffer
        self.out_of = [0] * self.nslots
        self.route = [0] * self.nslots
        self.out_credit = [cfg.vc_buffer_depth] * (len(DIRS) * vcs)
        self.out_alloc = [False] * (len(DIRS) * vcs)
        self.rr = [0] * len(DIRS)
        # wired by NocSim: per input slot, the (owner, output slot) whose
        # credit this buffer returns; per output, the neighbour router with
        # the base of its facing input port, and the trace label of the link
        self.up: list[tuple[object, int] | None] = [None] * self.nslots
        self.down: list[tuple[_Router, int] | None] = [None] * len(DIRS)
        self.link: list[str | None] = [None] * len(DIRS)

    def accept(self, s: int, pkt: Packet, seq: int, eligible: int) -> None:
        """Buffer flit ``seq`` of ``pkt`` in input slot ``s``; a head takes
        the slot and computes its route."""
        q = self.in_q[s]
        if not q:
            self.occupied.add(s)
        if not seq:
            self.pkt[s] = pkt
            self.seq[s] = 0
            self.out_of[s] = _OUT[xy_route(self.coord, pkt[0].dest)]
        q.append(eligible)

    def tick(self, cycle: int, noc: "NocSim") -> None:
        """Switch allocation: each output grants at most one flit and each
        input port wins at most one grant.  Outputs go in ``DIRS`` order; an
        output's winner is the first ready slot at or after ``rr[o]`` in
        cyclic slot order whose head can advance."""
        in_q = self.in_q
        out_of = self.out_of
        rr = self.rr
        nslots = self.nslots
        ready = []
        for s in self.occupied:
            if in_q[s][0] <= cycle:
                o = out_of[s]
                ready.append((o, (s - rr[o]) % nslots, s))
        if not ready:
            return
        if len(ready) > 1:
            ready.sort()
        vcs = self.vcs
        credit = self.out_credit
        alloc = self.out_alloc
        granted_ports = 0
        won = -1
        for o, _, s in ready:
            port_bit = 1 << (s // vcs)
            if o == won or granted_ports & port_bit:
                continue
            seq = self.seq[s]
            base = o * vcs
            if not seq:
                for dvc in range(vcs):
                    if not alloc[base + dvc] and credit[base + dvc] > 0:
                        break
                else:
                    continue
                alloc[base + dvc] = True
                self.route[s] = dvc
            else:
                dvc = self.route[s]
                if credit[base + dvc] <= 0:
                    continue
            q = in_q[s]
            del q[0]
            if not q:
                self.occupied.discard(s)
            self.seq[s] = seq + 1
            credit[base + dvc] -= 1
            rr[o] = (s + 1) % nslots
            granted_ports |= port_bit
            won = o
            noc._send(self, s, o, dvc, seq, cycle)


class _Ni:
    """Network interface: generator pipeline, bounded output queue, injector."""

    __slots__ = ("coord", "cfg", "router", "gen_ps_per_flit", "queue_cap",
                 "gen_jobs", "gen_busy_until", "room_ps", "queue", "current",
                 "cur_seq", "cur_vc", "out_credit", "out_alloc")

    def __init__(self, coord: Coord, cfg: MeshConfig, timing: CoreTiming,
                 router: _Router):
        self.coord = coord
        self.cfg = cfg
        self.router = router
        self.gen_ps_per_flit = timing.gen_cycles_per_flit * timing.core_period_ps
        self.queue_cap = timing.output_queue_packets
        self.gen_jobs: deque[GenJob] = deque()
        self.gen_busy_until = 0     # queue entry time of the last packet
        self.room_ps = 0            # when the full queue last freed a slot
        self.queue: deque[tuple[int, SpikePacket]] = deque()
        self.current: Packet | None = None     # the packet being injected
        self.cur_seq = 0                        # and its next flit
        self.cur_vc = 0
        self.out_credit = [cfg.vc_buffer_depth] * cfg.vcs
        self.out_alloc = [False] * cfg.vcs

    @property
    def idle(self) -> bool:
        return not self.gen_jobs and not self.queue and self.current is None

    def set_jobs(self, jobs: list[GenJob], start_ps: int) -> None:
        if not self.idle:
            raise RuntimeError("sources must drain before the next timestep")
        self.gen_jobs = deque(sorted(jobs, key=lambda j: j.create_ps))
        self.gen_busy_until = start_ps

    def advance_gen(self, now_ps: int) -> None:
        """Queue every packet generated by ``now_ps``, while the queue has
        room; one that waited for room enters when room opened."""
        while self.gen_jobs and len(self.queue) < self.queue_cap:
            finish = self.next_gen_event_ps()
            if finish > now_ps:
                return
            ready = max(finish, self.room_ps)
            self.queue.append((ready, self.gen_jobs.popleft().packet))
            self.gen_busy_until = ready

    def next_gen_event_ps(self) -> int | None:
        """When the next packet finishes generating; None while the queue
        is full or nothing is left to generate."""
        if not self.gen_jobs or len(self.queue) >= self.queue_cap:
            return None
        job = self.gen_jobs[0]
        start = max(self.gen_busy_until, job.create_ps)
        return start + job.packet.flit_count * self.gen_ps_per_flit

    def step(self, cycle: int, noc: "NocSim") -> None:
        now_ps = cycle * self.cfg.noc_period_ps
        self.advance_gen(now_ps)
        if self.current is None and self.queue and self.queue[0][0] <= now_ps:
            for vc in range(self.cfg.vcs):     # the first free VC
                if not self.out_alloc[vc] and self.out_credit[vc] > 0:
                    if len(self.queue) == self.queue_cap:
                        self.room_ps = now_ps
                    _, packet = self.queue.popleft()
                    self.advance_gen(now_ps)
                    record = noc._on_packet_injection(packet, now_ps)
                    self.current = (packet, record)
                    self.cur_seq = 0
                    self.cur_vc = vc
                    self.out_alloc[vc] = True
                    break
        pkt = self.current
        if pkt is not None and self.out_credit[self.cur_vc] > 0:
            seq = self.cur_seq
            self.out_credit[self.cur_vc] -= 1
            self.cur_seq = seq + 1
            if seq == len(pkt[0].indices):
                self.current = None
            noc._on_flit_injection(self, pkt, seq, cycle)


class NocSim:
    """Whole-mesh state, advanced timestep by timestep until drained."""

    def __init__(self, cfg: MeshConfig, timing: CoreTiming,
                 packet_records: list[PacketRecord] | None = None,
                 flit_trace: list | None = None):
        self.cfg = cfg
        self.packet_records = packet_records if packet_records is not None else []
        self.flit_trace = flit_trace
        self.coords = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
        self.routers = [_Router(c, cfg) for c in self.coords]
        self.nis = [_Ni(c, cfg, timing, r)
                    for c, r in zip(self.coords, self.routers)]
        self._wire()
        self.active: set[int] = set()       # ids of routers holding flits
        self.arrivals: dict[int, list[tuple[_Router, int, Packet, int]]] = {}
        # (upstream output, was tail) per slot freed in the last cycle
        self.credits: list[tuple[tuple[object, int], bool]] = []
        self._delivered: list[tuple[int, int, SpikePacket]] = []
        self._progress = 0

    def _wire(self) -> None:
        vcs = self.cfg.vcs
        for router, ni in zip(self.routers, self.nis):
            for vc in range(vcs):
                router.up[vc] = (ni, vc)
            x, y = router.coord
            for o, d in enumerate(DIRS):
                nx, ny = x + _DELTA[d][0], y + _DELTA[d][1]
                if not (0 <= nx < self.cfg.width and 0 <= ny < self.cfg.height):
                    continue
                nbr = self.routers[ny * self.cfg.width + nx]
                base = PORTS.index(_OPP[d]) * vcs
                router.down[o] = (nbr, base)
                router.link[o] = f"{x},{y}>{nx},{ny}"
                for vc in range(vcs):
                    nbr.up[base + vc] = (router, o * vcs + vc)

    # -- bookkeeping hooks ----------------------------------------------------

    def _on_packet_injection(self, packet: SpikePacket,
                             now_ps: int) -> PacketRecord:
        """Record the packet, numbered in injection order."""
        rec = PacketRecord(len(self.packet_records), packet.src, packet.dest,
                           packet.timestep, len(packet.indices), now_ps)
        self.packet_records.append(rec)
        return rec

    def _on_flit_injection(self, ni: _Ni, pkt: Packet, seq: int,
                           cycle: int) -> None:
        self._progress += 1
        ni.router.accept(ni.cur_vc, pkt, seq,
                         cycle + self.cfg.router_pipeline_cycles)
        self.active.add(ni.router.rid)

    def _send(self, router: _Router, s: int, o: int, dvc: int, seq: int,
              cycle: int) -> None:
        self._progress += 1
        pkt = router.pkt[s]
        # free the input slot: credit back to whoever fills this buffer
        self.credits.append((router.up[s], seq == len(pkt[0].indices)))
        target, base = router.down[o]
        self.arrivals.setdefault(cycle + self.cfg.link_cycles, []).append(
            (target, base + dvc, pkt, seq))
        if self.flit_trace is not None:
            self.flit_trace.append((cycle * self.cfg.noc_period_ps,
                                    router.link[o], pkt[1].pid,
                                    "H" if seq == 0 else "B"))

    def _apply_credit(self, up: tuple[object, int], was_tail: bool) -> None:
        """Return one buffer slot to the router or interface output ``up``."""
        owner, idx = up
        owner.out_credit[idx] += 1
        if was_tail:
            owner.out_alloc[idx] = False

    def _arrive(self, router: _Router, s: int, pkt: Packet, seq: int,
                cycle: int) -> None:
        self._progress += 1
        packet, rec = pkt
        if router.coord != packet.dest:
            router.accept(s, pkt, seq, cycle + self.cfg.router_pipeline_cycles)
            self.active.add(router.rid)
            return
        is_tail = seq == len(packet.indices)
        # consumed on arrival: the buffer slot frees right away
        self.credits.append((router.up[s], is_tail))
        if is_tail:
            rec.eject_ps = cycle * self.cfg.noc_period_ps
            self._delivered.append((rec.eject_ps, rec.pid, packet))

    # -- main loop --------------------------------------------------------------

    def run_timestep(self, jobs_by_core: dict[Coord, list[GenJob]], start_ps: int,
                     timestep: int) -> tuple[list[tuple[SpikePacket, int]], int,
                                             dict[Coord, int]]:
        """Feed per-core generation jobs, advance until every packet has been
        delivered; returns (delivered packets, drain time, generator-done times)."""
        for jobs in jobs_by_core.values():
            for job in jobs:
                if job.packet.src == job.packet.dest:
                    raise ValueError("self-addressed packets bypass the mesh")
                if not job.packet.indices:
                    raise ValueError("a packet carries at least one address")
        self._delivered = []
        period = self.cfg.noc_period_ps
        live = []
        for coord in sorted(jobs_by_core, key=lambda c: (c[1], c[0])):
            jobs = jobs_by_core[coord]
            ni = self.nis[coord[1] * self.cfg.width + coord[0]]
            ni.set_jobs(jobs, start_ps)
            if jobs:
                live.append(ni)
        routers = self.routers
        active = self.active
        arrivals = self.arrivals
        cycle = -(-start_ps // period)
        last_progress_cycle = cycle
        last_progress = self._progress

        while True:
            credits, self.credits = self.credits, []
            for up, was_tail in credits:
                self._apply_credit(up, was_tail)
            for router, s, pkt, seq in arrivals.pop(cycle, ()):
                self._arrive(router, s, pkt, seq, cycle)
            for ni in live:
                ni.step(cycle, self)
            for rid in sorted(active):
                router = routers[rid]
                router.tick(cycle, self)
                if not router.occupied:
                    active.discard(rid)

            if not active and not arrivals and all(ni.idle for ni in live):
                drain_ps = cycle * period
                break

            if self._progress != last_progress:
                last_progress = self._progress
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > self.cfg.watchdog_cycles:
                stuck = {str(r.coord): sum(len(r.in_q[s]) for s in r.occupied)
                         for r in routers if r.occupied}
                raise DeadlockError(
                    f"no flit progress for {self.cfg.watchdog_cycles} cycles at "
                    f"t={timestep}; buffered flits per router: {stuck}")

            if active:
                # a router holding flits ticks next cycle; no event is sooner
                cycle += 1
                continue
            cand = []
            if arrivals:
                cand.append(min(arrivals))
            for ni in live:
                if ni.current is not None:
                    cand.append(cycle + 1)
                elif ni.queue:
                    cand.append(max(cycle + 1, -(-ni.queue[0][0] // period)))
                nxt = ni.next_gen_event_ps()
                if nxt is not None:
                    cand.append(max(cycle + 1, -(-nxt // period)))
            cycle = max(cycle + 1, min(cand)) if cand else cycle + 1

        # flits are all delivered; apply the credit echoes left in flight
        for up, was_tail in self.credits:
            self._apply_credit(up, was_tail)
        self.credits = []
        gen_done = {ni.coord: ni.gen_busy_until for ni in live}
        delivered = [(p, ps) for ps, _, p in sorted(self._delivered)]
        return delivered, drain_ps, gen_done
