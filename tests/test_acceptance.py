"""Release gates: ten end-to-end checks with explicit pass/fail verdicts.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s` or in
the failure output) and asserts the same condition, so the suite doubles as a
health report covering delivery correctness, traffic accounting, dispatch
scheduling, partitioning, network timing, energy, and reproducibility.
"""

import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from spikenoc.artifact import build_bundle
from spikenoc.config import parse_layers
from spikenoc.core import (CoreTiming, GenJob, MODE_BASELINE, MODE_UNISPIKE,
                           SpikePacket)
from spikenoc.graph import (SnnGraph, build_brunel, build_conv_topology,
                            quantize_weight, reference_simulate)
from spikenoc.metrics import (EnergyCostTable, TrafficLedger, compare_reports,
                              redundancy_profile)
from spikenoc.neurons import LifParams
from spikenoc.noc import MeshConfig, NocSim, manhattan
from spikenoc.partition import (MemoryBudget, Partition,
                                destination_objective, initial_partition,
                                sss_refine)
from spikenoc.schedule import build_checking_table, validate_schedule
from spikenoc.stimulus import StimulusSpec, build_stimulus
from spikenoc.system import SystemConfig, deploy, run_experiment


def gate(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


W = quantize_weight(1.0, 8)
FAST = LifParams(tau_m=1.0, refractory_steps=0)
A, B = (0, 0), (1, 0)


def micro_bundle():
    """Three source neurons on one core, each wired to its own neuron on a
    second core; one pulse makes all three fire in the same step."""
    g = SnnGraph(6, [[(3, W)], [(4, W)], [(5, W)], [], [], []], model=FAST)
    bundle = build_bundle(g, {A: (0, 1, 2), B: (3, 4, 5)}, 2, 1,
                          MemoryBudget(neuron_bytes=3 * 24))
    cfg = SystemConfig(mesh=MeshConfig(2, 1),
                       budget=MemoryBudget(neuron_bytes=3 * 24), timesteps=3,
                       partitioner="hsfc")
    pulse = quantize_weight(2.0, 8)
    stim = [((0, pulse), (1, pulse), (2, pulse)), (), ()]
    return g, bundle, cfg, stim


def test_01_delivery_is_lossless_across_seeds():
    t0 = time.monotonic()
    checked = 0
    for seed in range(5):
        g = build_brunel(205, 51, conn_prob=0.1, w_exc=0.4, w_inh=-0.3,
                         seed=seed)
        cfg = SystemConfig(
            mesh=MeshConfig(4, 4), budget=MemoryBudget(neuron_bytes=1536),
            stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.1,
                                  seed=seed),
            timesteps=100, partitioner="hsfc")
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        want = reference_simulate(g, stim, cfg.timesteps, cfg.dt)
        assert want.total_spikes() > 0
        bundle = deploy(g, cfg)
        assert len(bundle.cores) > 1
        for mode in (MODE_BASELINE, MODE_UNISPIKE):
            got = run_experiment(bundle, replace(cfg, mode=mode), stim).train
            assert got.digest() == want.digest(), (seed, mode)
            checked += 1
    wall = time.monotonic() - t0
    gate("lossless delivery",
         checked == 10 and wall < 60,
         f"5 seeds x 2 modes x 100 steps on a 4x4 mesh match the "
         f"single-process reference, {wall:.1f}s wall")


def test_02_merged_flits_never_exceed_baseline():
    strict = ties = with_traffic = 0
    for i in range(50):
        sparse = i % 6 == 3   # a few near-silent runs exercise the tie case
        n_exc = 30 + (i % 5) * 10
        g = build_brunel(n_exc, max(5, n_exc // 4),
                         conn_prob=0.02 if sparse else 0.08 + 0.02 * (i % 3),
                         w_exc=0.4, w_inh=-0.3, seed=i)
        cfg = SystemConfig(
            mesh=MeshConfig(3, 3), budget=MemoryBudget(neuron_bytes=384),
            stimulus=StimulusSpec(kind="poisson", amplitude=12.0,
                                  rate=0.004 if sparse
                                  else 0.12 + 0.02 * (i % 4), seed=100 + i),
            timesteps=10, partitioner="hsfc")
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        bundle = deploy(g, cfg)
        base_records = []
        base = run_experiment(bundle, replace(cfg, mode=MODE_BASELINE), stim,
                              packet_sink=base_records.extend)
        uni = run_experiment(bundle, replace(cfg, mode=MODE_UNISPIKE), stim)
        b = base.report.traffic["injected_flits"]
        u = uni.report.traffic["injected_flits"]
        assert u <= b, f"workload {i}: merged {u} > baseline {b}"
        groups = Counter((r.src, r.dest, r.timestep) for r in base_records)
        mergeable = any(k >= 2 for k in groups.values())
        # equality exactly when no (source, destination, step) repeats
        assert (u == b) == (not mergeable), f"workload {i}"
        strict += mergeable
        ties += not mergeable
        with_traffic += b > 0
    gate("merged flits never exceed baseline",
         strict + ties == 50 and strict >= 25 and ties >= 3
         and with_traffic >= 40,
         f"50 workloads: {strict} strict wins, {ties} exact ties, "
         f"equality iff no repeated (src, dest, step)")


def test_03_three_senders_one_destination_saves_exactly_one_third():
    g, bundle, cfg, stim = micro_bundle()
    want = reference_simulate(g, stim, cfg.timesteps, cfg.dt)
    base = run_experiment(bundle, replace(cfg, mode=MODE_BASELINE), stim)
    uni = run_experiment(bundle, replace(cfg, mode=MODE_UNISPIKE), stim)
    assert base.train.digest() == uni.train.digest() == want.digest()
    b = base.report.traffic["injected_flits"]
    u = uni.report.traffic["injected_flits"]
    ratios = compare_reports(base.report, uni.report)
    gate("micro fan-in saving",
         b == 6 and u == 4 and ratios["traffic_saving"] == 1.5
         and ratios["traffic_saving_injected"] == 1.5,
         f"three one-spike packets ({b} flits) merge into one "
         f"three-address packet ({u} flits), saving exactly 1.5x")


def test_04_redundancy_profile_flags_repeats_and_empty_logs():
    g, bundle, cfg, stim = micro_bundle()
    base = run_experiment(bundle, replace(cfg, mode=MODE_BASELINE), stim)
    uni = run_experiment(bundle, replace(cfg, mode=MODE_UNISPIKE), stim)
    red_b = base.report.redundancy
    red_u = uni.report.redundancy
    silent = run_experiment(bundle, cfg, [()] * 3).report.redundancy
    prof = redundancy_profile([])
    gate("redundancy profile",
         red_b["total_packets"] == 3 and red_b["effective_packets"] == 1
         and red_b["ratio"] == pytest.approx(1 / 3)
         and red_u["ratio"] == 1.0
         and silent["empty"] is True and silent["ratio"] == 1.0
         and prof.empty and prof.ratio == 1.0,
         "3 same-destination packets profile as ratio 1/3; an empty log is "
         "flagged and reported as ratio 1")


def test_05_dispatch_tables_always_validate():
    # two worked examples first
    bm1 = {A: 0b0110, B: 0b1100}
    q1, t1 = build_checking_table(bm1, 4)
    assert q1 == [1, 2, 3, 0] and t1 == {2: [A], 3: [B]}
    assert validate_schedule(q1, t1, bm1, 4) == []
    bm2 = {A: 0b010, B: 0b110, (0, 1): 0b110}
    q2, t2 = build_checking_table(bm2, 3)
    assert q2 == [1, 2, 0] and t2 == {1: [A], 2: [B, (0, 1)]}
    assert validate_schedule(q2, t2, bm2, 3) == []

    rng = random.Random(99)
    coords = [(x, y) for x in range(4) for y in range(4) if (x, y) != (0, 0)]
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 40)
        rng.shuffle(coords)
        bm = {c: sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))
              for c in coords[:rng.randint(0, 10)]}
        queue, table = build_checking_table(bm, n)
        if validate_schedule(queue, table, bm, n):
            failures += 1
    gate("dispatch table construction", failures == 0,
         "1000 random connection-bitmap maps and 2 worked examples produce "
         "schedules with no structural violations")


def test_06_refinement_never_hurts_and_matches_ring_brute_force():
    worse = 0
    improved = 0
    for i in range(100):
        g = build_brunel(12 + (i % 6) * 2, 4, conn_prob=0.15, w_exc=0.3,
                         w_inh=-0.3, seed=i)
        budget = MemoryBudget(neuron_bytes=4 * 24)
        part = initial_partition(list(range(g.neuron_count)), g, budget)
        j_in = destination_objective(part, g)
        refined = sss_refine(part, g, budget, seed=i, iters=600)
        j_out = destination_objective(refined, g)
        worse += j_out > j_in
        improved += j_out < j_in
        assert sorted(i for c in refined.clusters for i in c) == \
            list(range(g.neuron_count))

    ring = SnnGraph(4, [[(1, W)], [(2, W)], [(3, W)], [(0, W)]], model=FAST)
    budget = MemoryBudget(neuron_bytes=2 * 24)
    covers = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    best = min(destination_objective(Partition.from_clusters(c, 4), ring)
               for c in covers)
    part = initial_partition([0, 2, 1, 3], ring, budget)
    refined = sss_refine(part, ring, budget, seed=0, iters=400)
    j_ring = destination_objective(refined, ring)
    gate("segment-swap refinement",
         worse == 0 and j_ring == best == 2,
         f"objective never worsened on 100 instances ({improved} improved); "
         f"4-neuron ring lands on the brute-force optimum J={best}")


def test_07_conv_workload_wins_on_congested_mesh():
    t0 = time.monotonic()
    g = build_conv_topology(parse_layers("1x16x16, 8x16x16 k3 s1 p1"), seed=3,
                            model=LifParams(refractory_steps=0))
    cfg = SystemConfig(
        mesh=MeshConfig(6, 6), budget=MemoryBudget(neuron_bytes=1536),
        stimulus=StimulusSpec(kind="constant", amplitude=12.0,
                              neurons=tuple(range(256))),
        timesteps=20, partitioner="hsfc")
    stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                          g.frac_bits)
    want = reference_simulate(g, stim, cfg.timesteps, cfg.dt)
    bundle = deploy(g, cfg)
    base = run_experiment(bundle, replace(cfg, mode=MODE_BASELINE), stim)
    uni = run_experiment(bundle, replace(cfg, mode=MODE_UNISPIKE), stim)
    ratios = compare_reports(base.report, uni.report)
    wall = time.monotonic() - t0
    lossless = base.train.digest() == uni.train.digest() == want.digest()
    gate("conv workload at scale",
         len(bundle.cores) >= 16 and lossless
         and ratios["traffic_saving"] >= 1.2 and ratios["speedup"] > 1.0
         and wall < 300,
         f"{len(bundle.cores)} cores, traffic saving "
         f"{ratios['traffic_saving']:.2f}x, speedup "
         f"{ratios['speedup']:.2f}x, lossless, {wall:.1f}s wall")


def test_08_network_conserves_flits_and_meets_timing():
    cfg = MeshConfig(8, 8)
    rng = random.Random(2024)
    jobs_by_core = {}
    for _ in range(10_000):
        src = (rng.randrange(8), rng.randrange(8))
        dest = src
        while dest == src:
            dest = (rng.randrange(8), rng.randrange(8))
        job = GenJob(rng.randrange(2_000_000),
                     SpikePacket(src, dest, 0, tuple(range(rng.randint(1, 16)))))
        jobs_by_core.setdefault(src, []).append(job)
    flat = [j for js in jobs_by_core.values() for j in js]
    flits = sum(j.packet.flit_count for j in flat)
    hops = sum(j.packet.flit_count * manhattan(j.packet.src, j.packet.dest)
               for j in flat)
    records = []
    sim = NocSim(cfg, CoreTiming(), records)
    delivered, _, _ = sim.run_timestep(jobs_by_core, 0, 0)
    ledger = TrafficLedger()
    ledger.count_packets(records)
    conserved = (len(delivered) == 10_000
                 and ledger.totals["injected_flits"] == flits
                 and ledger.totals["ejected_flits"] == flits
                 and ledger.totals["flit_hops"] == hops
                 and ledger.totals["packets"] == 10_000)
    bound = all(
        r.eject_ps - r.inject_ps
        >= (3 * manhattan(r.src, r.dest) + r.body_count) * cfg.noc_period_ps
        for r in records)

    exact = True
    for dest, body in [((1, 0), 1), ((7, 7), 16), ((0, 5), 4), ((3, 2), 9)]:
        recs = []
        solo = NocSim(cfg, CoreTiming(), recs)
        solo.run_timestep(
            {(0, 0): [GenJob(0, SpikePacket((0, 0), dest, 0,
                                            tuple(range(body))))]}, 0, 0)
        want = (3 * manhattan((0, 0), dest) + body) * cfg.noc_period_ps
        exact &= recs[0].eject_ps - recs[0].inject_ps == want
    gate("network conservation and timing",
         conserved and bound and exact,
         "10k packets on an 8x8 mesh: every flit ejected, hop count exact, "
         "latency never beats (3*hops + body) cycles, and uncontended "
         "packets meet it exactly")


def test_09_identical_configs_reproduce_byte_identical_reports(tmp_path):
    outs = []
    for run in range(2):
        g = build_brunel(48, 12, conn_prob=0.1, w_exc=0.4, w_inh=-0.3, seed=8)
        cfg = SystemConfig(
            mesh=MeshConfig(3, 3), budget=MemoryBudget(neuron_bytes=384),
            stimulus=StimulusSpec(kind="poisson", amplitude=12.0, rate=0.15,
                                  seed=8),
            timesteps=15, partitioner="hsfc-sss", sss_iters=1200)
        stim = build_stimulus(cfg.stimulus, g.neuron_count, cfg.timesteps,
                              g.frac_bits)
        records = []
        result = run_experiment(deploy(g, cfg), cfg, stim, workload="repro",
                                packet_sink=records.extend)
        path = tmp_path / f"report{run}.json"
        path.write_text(result.report.to_json())
        outs.append((path.read_bytes(),
                     [(r.pid, r.src, r.dest, r.timestep, r.body_count,
                       r.inject_ps, r.eject_ps) for r in records]))
    gate("byte-identical reruns",
         outs[0] == outs[1] and len(outs[0][1]) > 0,
         "two from-scratch runs of one configuration agree byte for byte "
         "on the report and packet for packet on the log")


def test_10_energy_follows_the_cost_table_exactly():
    g, bundle, cfg, stim = micro_bundle()
    result = run_experiment(bundle, replace(cfg, mode=MODE_UNISPIKE), stim)
    table = EnergyCostTable()
    # hand count: 6 neurons x 3 steps = 18 updates; one 4-flit packet over
    # 1 hop; 3 addresses decoded, 3 synapse accumulations at the receiver
    updates, hops, decoded, accums = 18, 4, 3, 3
    want_dyn = table.dynamic(flit_hops=hops, updates=updates,
                             decoded_body_flits=decoded,
                             sram_read_bytes=accums * 4 + updates * 24,
                             sram_write_bytes=updates * 24)
    span = result.report.modeled_time_ps
    want_static = table.static(2, 2, span)
    rep = result.report.energy
    linear = (table.static(3, 3, 2_000_000)
              == 2 * table.static(3, 3, 1_000_000))
    gate("energy accounting",
         rep["dynamic"] == pytest.approx(want_dyn, rel=1e-9)
         and rep["static"] == pytest.approx(want_static, rel=1e-9)
         and rep["total"] == rep["dynamic"] + rep["static"] and linear,
         f"hand-counted events reproduce dynamic {want_dyn:.1f} and static "
         f"{want_static:.3f} energy; static power is linear in time")
