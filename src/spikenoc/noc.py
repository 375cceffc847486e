"""Cycle-level 2D-mesh network model.

Wormhole switching with per-port virtual channels and credit-based flow
control; XY dimension-order routing (X fully resolved before Y) keeps the
channel dependency graph acyclic, so the network cannot deadlock.  A flit
becomes eligible for switch allocation ``router_pipeline_cycles`` after
entering an input buffer and crosses a link in ``link_cycles``; flits
arriving at their destination router are consumed immediately.  A sent flit
enters the next buffer at once, eligible ``link_cycles +
router_pipeline_cycles`` later, so the mesh schedules only ejections.

Each core-side interface owns the packet generator pipeline and its bounded
output queue, so back-pressure from the network stalls packet generation
without ever stalling the neuron update engine.  A generated packet enters
the queue only while it has room, no earlier than the moment room last opened.
Only interfaces with work left are stepped: one leaves the cycle loop when it
injects the tail of its last packet, since an idle interface's step changes
nothing.

A flit is no object: it is its packet's ``(packet, record)`` pair plus a
sequence number, 0 for the head and ``len(indices)`` for the tail.  A freed
slot's credit is seen by its reader from the next cycle on: it returns at
once when the reader has already stepped in this cycle (interfaces step
first, then routers by ascending id), and is otherwise applied at the top
of the next processed cycle, as every ejection's credit is; whatever could
read it sooner makes the very next cycle an event.

Interfaces start every step fresh, so only the routers' round-robin pointers
and the NoC clock phase carry over between steps.  A step whose jobs, phase
and pointers repeat a stored one's is replayed, not simulated, shifted in
time and renumbered (see ``NocSim.run_timestep``).
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
# per core with jobs, in router order: its interface and its job list
LiveJobs = list[tuple["_Ni", list[GenJob]]]


def _same_jobs(a: LiveJobs, a_start: int, b: LiveJobs, b_start: int) -> bool:
    """Whether two steps hand the same cores the same jobs, in list order,
    at the same times relative to their starts; stops at the first
    difference."""
    if len(a) != len(b):
        return False
    shift = b_start - a_start
    for (ni_a, jobs_a), (ni_b, jobs_b) in zip(a, b):
        if ni_a is not ni_b or len(jobs_a) != len(jobs_b):
            return False
        for ja, jb in zip(jobs_a, jobs_b):
            if (ja.create_ps + shift != jb.create_ps
                    or ja.packet.dest != jb.packet.dest
                    or ja.packet.indices != jb.packet.indices):
                return False
    return True


@dataclass(slots=True)
class _StepMemo:
    """One simulated step's outcome, with times relative to its start, pids
    relative to its first and packets as indices into its flattened jobs.
    Interfaces start every step fresh, so the routers' pointers ``rr_after``
    are the only state it restores."""

    live: LiveJobs          # the key: jobs, start_ps's clock phase and rr
    start_ps: int
    rr: list[list[int]]
    records: list[tuple[int, int, int]]   # (packet, inject, eject) by pid
    trace: list | None                    # rows; None for an untraced step
    delivered: list[tuple[int, int]]      # (packet, eject), delivery order
    drain_ps: int
    gen_done: list[tuple[Coord, int]]
    rr_after: list[list[int]]


class _Router:
    """One router's buffers and allocation state in flat lists.

    Input slot ``s = port * vcs + vc`` indexes ``PORTS``; output slot
    ``o * vcs + vc`` indexes ``DIRS``.  An input buffer holds flits of one
    packet at a time, because the upstream VC feeding it stays allocated to
    that packet until its tail has left the buffer.  So a head entering slot
    ``s`` sets the packet ``pkt[s]`` and output port ``out_of[s]`` for every
    flit behind it, and its grant sets ``hop[s]``: the output slot, the next
    router, that router's input slot and whether it ejects the packet; the
    tail's leaving clears both, so an idle mesh holds no packet.  A
    buffered flit is its eligible cycle in ``in_q[s]`` (a flit still on its
    link is buffered already), and ``seq[s]`` numbers the front one.
    """

    __slots__ = ("coord", "rid", "vcs", "nslots", "in_q", "pkt", "seq",
                 "occupied", "out_of", "hop", "out_credit", "out_alloc",
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
        self.hop: list[tuple[int, _Router, int, bool] | None] = [None] * self.nslots
        self.out_credit = [cfg.vc_buffer_depth] * (len(DIRS) * vcs)
        self.out_alloc = [False] * (len(DIRS) * vcs)
        self.rr = [0] * len(DIRS)
        # wired by NocSim: per input slot, its feeder's credit and allocation
        # lists, output slot and whether it steps first; per output, the
        # neighbour with the base of its facing port, and the link's label
        self.up: list[tuple | None] = [None] * self.nslots
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

    def tick(self, cycle: int, noc: "NocSim") -> int:
        """Switch allocation: each output grants at most one flit and each
        input port wins at most one grant.  Outputs go in ``DIRS`` order; an
        output's winner is the first ready slot at or after ``rr[o]`` in
        cyclic slot order whose head can advance.  Returns the flits sent."""
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
            return 0
        if len(ready) > 1:
            ready.sort()
        vcs = self.vcs
        credit = self.out_credit
        alloc = self.out_alloc
        eligible = cycle + noc.hop_cycles
        trace = noc.flit_trace
        if trace is not None:       # the tick's rows share one time int
            now_ps = cycle * noc.cfg.noc_period_ps
        granted_ports = 0
        won = -1
        sent = 0
        for o, _, s in ready:
            port_bit = 1 << (s // vcs)
            if o == won or granted_ports & port_bit:
                continue
            seq = self.seq[s]
            pkt = self.pkt[s]
            if not seq:
                base = o * vcs
                for out in range(base, base + vcs):
                    if not alloc[out] and credit[out] > 0:
                        break
                else:
                    continue
                alloc[out] = True
                nbr, nbase = self.down[o]
                hop = self.hop[s] = (out, nbr, nbase + out - base,
                                     nbr.coord == pkt[0].dest)
            else:
                hop = self.hop[s]
                out = hop[0]
                if credit[out] <= 0:
                    continue
            q = in_q[s]
            del q[0]
            if not q:
                self.occupied.discard(s)
            self.seq[s] = seq + 1
            credit[out] -= 1
            rr[o] = (s + 1) % nslots
            granted_ports |= port_bit
            won = o
            sent += 1
            tail = seq == len(pkt[0].indices)
            if tail:    # the mesh holds no packet past its last flit
                self.pkt[s] = self.hop[s] = None
            # free the input slot: a feeder that has stepped this cycle
            # reads the credit next cycle either way, so it returns at once
            up = self.up[s]
            if up[3]:
                up[0][up[2]] += 1
                if tail:
                    up[1][up[2]] = False
            else:
                noc.credits.append((up, tail))
            _, nbr, t, ejects = hop
            if ejects:
                noc.ejecting.append((nbr.up[t], tail, pkt))
            else:
                nbr.accept(t, pkt, seq, eligible)
                noc.active.add(nbr.rid)
            if trace is not None:
                trace.append((now_ps, self.link[o], pkt[1].pid,
                              "H" if seq == 0 else "B"))
        return sent


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
        """Start a step: no earlier step's times reach this one's packets."""
        if not self.idle:
            raise RuntimeError("sources must drain before the next timestep")
        self.gen_jobs = deque(sorted(jobs, key=lambda j: j.create_ps))
        self.gen_busy_until = self.room_ps = start_ps

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

    def step(self, cycle: int, noc: "NocSim") -> bool:
        """Advance one cycle; True when this step injected the tail of the
        last packet, which leaves the interface idle."""
        now_ps = cycle * self.cfg.noc_period_ps
        self.advance_gen(now_ps)
        if self.current is None and self.queue and self.queue[0][0] <= now_ps:
            for vc in range(self.cfg.vcs):     # the first free VC
                if not self.out_alloc[vc] and self.out_credit[vc] > 0:
                    if len(self.queue) == self.queue_cap:
                        self.room_ps = now_ps
                    _, packet = self.queue.popleft()
                    self.advance_gen(now_ps)
                    # records are numbered in injection order
                    record = PacketRecord(
                        noc.injected, packet.src, packet.dest,
                        packet.timestep, len(packet.indices), now_ps)
                    noc.injected += 1
                    noc.packet_records.append(record)
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
            self.router.accept(self.cur_vc, pkt, seq,
                               cycle + self.cfg.router_pipeline_cycles)
            noc.active.add(self.router.rid)
            noc._progress += 1
            if seq == len(pkt[0].indices):
                self.current = None
                return not self.queue and not self.gen_jobs
        return False


class NocSim:
    """Whole-mesh state, advanced timestep by timestep until drained.

    Each injected packet's record is appended to ``packet_records``; pids
    count from 0 in injection order whether or not the caller clears the
    list between timesteps."""

    def __init__(self, cfg: MeshConfig, timing: CoreTiming,
                 packet_records: list[PacketRecord] | None = None,
                 flit_trace: list | None = None):
        self.cfg = cfg
        self.packet_records = packet_records if packet_records is not None else []
        self.injected = 0                   # packets injected so far
        self.flit_trace = flit_trace
        self.hop_cycles = cfg.link_cycles + cfg.router_pipeline_cycles
        self.coords = [(x, y) for y in range(cfg.height) for x in range(cfg.width)]
        self.on_mesh = frozenset(self.coords)
        self.routers = [_Router(c, cfg) for c in self.coords]
        self.nis = [_Ni(c, cfg, timing, r)
                    for c, r in zip(self.coords, self.routers)]
        self._wire()
        self.active: set[int] = set()       # ids of routers holding flits
        # per cycle that sent flits, in order: the cycle they land, and the
        # (credit feeder, was tail, packet) of each that leaves the mesh there
        self.landings: deque[tuple[int, list]] = deque()
        self.ejecting: list[tuple[tuple, bool, Packet]] = []
        # (feeder, was tail) per slot freed for the next processed cycle
        self.credits: list[tuple[tuple, bool]] = []
        self._delivered: list[tuple[int, int, SpikePacket]] = []
        self._progress = 0
        self.memo: _StepMemo | None = None      # the one stored step
        self._prev: tuple[LiveJobs, int] = ([], 0)  # last step with jobs
        self.replayed = 0                       # steps replayed so far

    def _wire(self) -> None:
        vcs = self.cfg.vcs
        for router, ni in zip(self.routers, self.nis):
            for vc in range(vcs):
                # interfaces step before every router
                router.up[vc] = (ni.out_credit, ni.out_alloc, vc, True)
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
                    nbr.up[base + vc] = (router.out_credit, router.out_alloc,
                                         o * vcs + vc, router.rid < nbr.rid)

    def _landed(self, router: _Router, cycle: int) -> int:
        """How many of ``router``'s buffered flits are off their link."""
        horizon = cycle + self.cfg.router_pipeline_cycles
        return sum(e <= horizon for s in router.occupied
                   for e in router.in_q[s])

    def _apply_credits(self) -> None:
        """Return every queued credit to its feeder."""
        credits, self.credits = self.credits, []
        for (credit, alloc, i, _), was_tail in credits:
            credit[i] += 1
            if was_tail:
                alloc[i] = False

    # -- main loop --------------------------------------------------------------

    def run_timestep(self, jobs_by_core: dict[Coord, list[GenJob]], start_ps: int,
                     timestep: int) -> tuple[list[tuple[SpikePacket, int]], int,
                                             dict[Coord, int]]:
        """Feed per-core generation jobs, advance until every packet has been
        delivered; returns (delivered packets, drain time, generator-done times).

        A step ends only once the mesh has drained, so at a step boundary
        every buffer is empty, every credit is back and every VC and
        interface queue is free, and each interface with jobs starts afresh
        at ``start_ps``; only the routers' round-robin pointers ``rr`` carry
        over, with the NoC clock phase ``start_ps % noc_period_ps``.  A step's
        outcome is therefore fixed by each core's jobs (``create_ps -
        start_ps``, dest and indices, in list order), that phase and every
        ``rr``.  When a step's jobs equal those of the last step that had
        jobs, its outcome is stored under that key, replacing the one stored
        before.  A later step with the same key is replayed: the stored
        records, trace rows, deliveries, drain and generator-done times are
        shifted to its start, with pids numbered on from ``injected`` and its
        own packets in place of the stored ones, and ``rr`` takes its stored
        after-step values.  A step without jobs leaves the store alone; one
        that raises stores nothing and drops what was stored."""
        width, height = self.cfg.width, self.cfg.height
        on_mesh = self.on_mesh
        for coord, jobs in jobs_by_core.items():
            for job in jobs:
                packet = job.packet
                if packet.src != coord:
                    why = f"is filed under core {coord}"
                elif coord not in on_mesh or packet.dest not in on_mesh:
                    why = f"leaves the {width}x{height} mesh"
                elif packet.src == packet.dest:
                    why = "is self-addressed; self-addressed packets bypass the mesh"
                elif not packet.indices:
                    why = "is empty; a packet carries at least one address"
                else:
                    continue
                raise ValueError(f"packet {packet.src}->{packet.dest} at "
                                 f"t={packet.timestep} {why}")
            if coord not in on_mesh:
                # only a key with no jobs gets here
                raise ValueError(f"core {coord} is off the {width}x{height} "
                                 f"mesh")
        live = [(self.nis[c[1] * width + c[0]], jobs_by_core[c])
                for c in sorted(jobs_by_core, key=lambda c: (c[1], c[0]))
                if jobs_by_core[c]]
        memo = self.memo
        if (live and memo is not None
                and (start_ps - memo.start_ps) % self.cfg.noc_period_ps == 0
                and all(r.rr == rr for r, rr in zip(self.routers, memo.rr))
                and _same_jobs(memo.live, memo.start_ps, live, start_ps)):
            out = self._replay(memo, live, start_ps)
        else:
            store = bool(live) and _same_jobs(*self._prev, live, start_ps)
            if store:
                before = (self.injected, len(self.packet_records),
                          len(self.flit_trace or ()),
                          [r.rr.copy() for r in self.routers])
            self.memo = None    # a step that raises leaves nothing to replay
            out = self._simulate(live, start_ps, timestep)
            self.memo = (self._capture(live, start_ps, before, *out)
                         if store else memo)
            self._delivered = []    # the step's packets are the caller's now
        if live:
            self._prev = (live, start_ps)
        return out

    def _capture(self, live: LiveJobs, start_ps: int, before: tuple,
                 delivered: list[tuple[SpikePacket, int]], drain_ps: int,
                 gen_done: dict[Coord, int]) -> _StepMemo | None:
        """The step just simulated as a memo; None when a packet object is
        handed in twice, so packets cannot stand for jobs."""
        pid0, n_records, n_trace, rr = before
        packets = [job.packet for _, jobs in live for job in jobs]
        index_of = {id(p): i for i, p in enumerate(packets)}
        if len(index_of) != len(packets):
            return None
        job_of = [0] * len(packets)
        for _, pid, packet in self._delivered:
            job_of[pid - pid0] = index_of[id(packet)]
        trace = None if self.flit_trace is None else [
            (t - start_ps, link, pid - pid0, kind)
            for t, link, pid, kind in self.flit_trace[n_trace:]]
        return _StepMemo(
            live, start_ps, rr,
            [(job_of[r.pid - pid0], r.inject_ps - start_ps,
              r.eject_ps - start_ps) for r in self.packet_records[n_records:]],
            trace,
            [(index_of[id(p)], ps - start_ps) for p, ps in delivered],
            drain_ps - start_ps,
            [(c, ps - start_ps) for c, ps in gen_done.items()],
            [r.rr.copy() for r in self.routers])

    def _replay(self, memo: _StepMemo, live: LiveJobs, start_ps: int):
        """``memo``'s outcome for this step's packets, starting at
        ``start_ps``; leaves the routers' pointers as simulating the step
        would."""
        packets = [job.packet for _, jobs in live for job in jobs]
        pid0 = self.injected
        records = self.packet_records
        for pid, (i, inject_ps, eject_ps) in enumerate(memo.records, pid0):
            p = packets[i]
            records.append(PacketRecord(pid, p.src, p.dest, p.timestep,
                                        len(p.indices), start_ps + inject_ps,
                                        start_ps + eject_ps))
        if self.flit_trace is not None:
            self.flit_trace.extend([(start_ps + t, link, pid0 + pid, kind)
                                    for t, link, pid, kind in memo.trace])
        self.injected += len(memo.records)
        for router, rr in zip(self.routers, memo.rr_after):
            router.rr[:] = rr
        self.replayed += 1
        return ([(packets[i], start_ps + ps) for i, ps in memo.delivered],
                start_ps + memo.drain_ps,
                {c: start_ps + ps for c, ps in memo.gen_done})

    def _simulate(self, live: LiveJobs, start_ps: int, timestep: int
                  ) -> tuple[list[tuple[SpikePacket, int]], int,
                             dict[Coord, int]]:
        """Run the step cycle by cycle until the mesh drains."""
        self._delivered = []
        period = self.cfg.noc_period_ps
        for ni, jobs in live:
            ni.set_jobs(jobs, start_ps)
        busy = [ni for ni, _ in live]   # the interfaces with work left
        routers = self.routers
        active = self.active
        landings = self.landings
        link = self.cfg.link_cycles
        cycle = -(-start_ps // period)
        last_progress_cycle = cycle
        last_progress = self._progress

        while True:
            self._apply_credits()
            if landings and landings[0][0] == cycle:
                # a landing is progress; flits at their destination leave the
                # mesh, and their slots free for the next processed cycle
                self._progress += 1
                now_ps = cycle * period
                for up, was_tail, (packet, rec) in landings.popleft()[1]:
                    self.credits.append((up, was_tail))
                    if was_tail:
                        rec.eject_ps = now_ps
                        self._delivered.append((now_ps, rec.pid, packet))
            went_idle = False
            for ni in busy:
                if ni.step(cycle, self):
                    went_idle = True
            if went_idle:
                busy = [ni for ni in busy if not ni.idle]
            sent = 0
            for rid in sorted(active):
                router = routers[rid]
                sent += router.tick(cycle, self)
                if not router.occupied:
                    active.discard(rid)
            if sent:
                self._progress += sent
                landings.append((cycle + link, self.ejecting))
                self.ejecting = []

            if not active and not landings and not busy:
                drain_ps = cycle * period
                break

            if self._progress != last_progress:
                last_progress = self._progress
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > self.cfg.watchdog_cycles:
                stuck = {str(r.coord): n for r in routers
                         if (n := self._landed(r, cycle))}
                raise DeadlockError(
                    f"no flit progress for {self.cfg.watchdog_cycles} cycles at "
                    f"t={timestep}; buffered flits per router: {stuck}")

            # a router holding a flit off its link ticks next cycle, and no
            # event is sooner; with no flit on a link, every flit is off one
            if (active if not landings else (
                    landings[0][0] == cycle + 1
                    or any(self._landed(routers[rid], cycle) for rid in active))):
                cycle += 1
                continue
            cand = [landings[0][0]] if landings else []
            for ni in busy:
                if ni.current is not None:
                    cand.append(cycle + 1)
                elif ni.queue:
                    cand.append(max(cycle + 1, -(-ni.queue[0][0] // period)))
                nxt = ni.next_gen_event_ps()
                if nxt is not None:
                    cand.append(max(cycle + 1, -(-nxt // period)))
            cycle = max(cycle + 1, min(cand)) if cand else cycle + 1

        # flits are all delivered; apply the credit echoes left in flight
        self._apply_credits()
        gen_done = {ni.coord: ni.gen_busy_until for ni, _ in live}
        delivered = [(p, ps) for ps, _, p in sorted(self._delivered)]
        return delivered, drain_ps, gen_done
