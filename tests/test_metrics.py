import csv
import math
import random

import pytest

from spikenoc.metrics import (EnergyCostTable, RedundancyProfile, RunReport,
                              TimestepRow, TrafficLedger, compare_reports,
                              emit_report, parse_report, redundancy_profile,
                              step_attribution)
from spikenoc.noc import PacketRecord

A, B, C = (0, 0), (1, 0), (1, 1)


def record(src, dest, timestep, body, eject_ps=0):
    return PacketRecord(0, src, dest, timestep, body, 0, eject_ps)


def random_records(rng, n):
    out = []
    for _ in range(n):
        src = (rng.randrange(3), rng.randrange(3))
        dest = (rng.randrange(3), rng.randrange(3))
        out.append(record(src, dest, rng.randrange(6), rng.randint(1, 4),
                          rng.choice([-1, 1000])))
    return out


def ledger_state(led):
    """Every count and every key the ledger holds, zero entries included."""
    return (led.totals,
            {m: dict(c) for m, c in led.per_core_step.items()},
            {m: dict(c) for m, c in led.per_step.items()})


class TestLedger:
    def test_head_body_split(self):
        led = TrafficLedger()
        led.count_packets([record(A, (2, 1), 0, body=2, eject_ps=-1)])
        assert led.totals["packets"] == 1
        assert led.totals["injected_flits"] == 3
        assert led.totals["head_flits"] == 1
        assert led.totals["body_flits"] == 2
        assert led.totals["flit_hops"] == 3 * 3
        # never delivered: injected but not ejected
        assert led.totals["ejected_flits"] == 0
        led.count_packets([record(A, B, 0, body=2)])
        assert led.totals["ejected_flits"] == 3
        assert led.per_core_step["ejected_flits"] == {(B, 0): 3}

    def test_attribution_by_core_and_timestep(self):
        led = TrafficLedger()
        led.count_packets([record(A, C, 0, body=1), record(A, C, 1, body=1),
                           record(B, A, 1, body=3)])
        assert led.per_core_step["packets"] == {(A, 0): 1, (A, 1): 1,
                                                (B, 1): 1}
        assert led.per_core_step["ejected_flits"] == {(C, 0): 2, (C, 1): 2,
                                                      (A, 1): 4}
        assert led.timestep_total("packets", 0) == 1
        assert led.timestep_total("packets", 1) == 2
        assert led.per_step["flit_hops"] == {0: 4, 1: 4 + 4}
        assert led.timestep_total("packets", 99) == 0

    def test_per_step_totals_match_per_core_entries(self):
        led = TrafficLedger()
        led.count_packets(random_records(random.Random(5), 200))
        for metric, per_core in led.per_core_step.items():
            for t in range(7):
                want = sum(n for (_, step), n in per_core.items() if step == t)
                assert led.timestep_total(metric, t) == want
            assert sum(led.per_step[metric].values()) == led.totals[metric]

    @pytest.mark.parametrize("seed", range(5))
    def test_one_call_equals_split_calls(self, seed):
        rng = random.Random(seed)
        records = random_records(rng, 120)
        cut = rng.randrange(len(records) + 1)
        whole, split, single = TrafficLedger(), TrafficLedger(), TrafficLedger()
        whole.count_packets(records)
        split.count_packets(records[:cut])
        split.count_packets(records[cut:])
        for rec in records:
            single.count_packets([rec])
        assert ledger_state(whole) == ledger_state(split) \
            == ledger_state(single)


class TestEnergy:
    def test_dynamic_is_exact_weighted_sum(self):
        t = EnergyCostTable()
        got = t.dynamic(flit_hops=7, updates=3, decoded_body_flits=2,
                        sram_read_bytes=100, sram_write_bytes=40)
        assert got == 7 * (5.0 + 3.0) + 3 * 10.0 + 2 * 2.0 + 100 * 0.05 + 40 * 0.05

    def test_dynamic_defaults_to_zero(self):
        assert EnergyCostTable().dynamic() == 0.0

    def test_static_scales_linearly_with_span(self):
        t = EnergyCostTable()
        assert t.static(2, 4, 1000) == (2 * 2e-4 + 4 * 1e-4) * 1000
        assert t.static(3, 3, 2_000_000) == 2 * t.static(3, 3, 1_000_000)
        assert t.static(3, 3, 0) == 0.0

    def test_custom_table(self):
        t = EnergyCostTable(router_per_flit=1.0, link_per_flit=0.5,
                            neuron_update=2.0)
        assert t.dynamic(flit_hops=4, updates=1) == 4 * 1.5 + 2.0

    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_negative_or_non_finite_cost_rejected(self, value):
        with pytest.raises(ValueError, match="link_per_flit must be finite"):
            EnergyCostTable(link_per_flit=value)

    def test_zero_costs_accepted(self):
        names = ("router_per_flit", "link_per_flit", "neuron_update",
                 "decode_per_body_flit", "sram_read_per_byte",
                 "sram_write_per_byte", "core_static_per_ps",
                 "router_static_per_ps")
        t = EnergyCostTable(**dict.fromkeys(names, 0.0))
        assert t.dynamic(flit_hops=3, updates=2) == 0.0
        assert t.static(2, 2, 1000) == 0.0


def rec(src, dest, t, body=1, pid=0):
    return PacketRecord(pid, src, dest, t, body, 0, 0)


class TestRedundancy:
    def test_repeated_triple_counted_once(self):
        records = [rec(A, B, 0, body=1), rec(A, B, 0, body=2), rec(A, B, 0)]
        prof = redundancy_profile(records)
        assert prof == RedundancyProfile(3, 1, 4, 1 / 3, False)

    def test_distinct_triples_all_effective(self):
        records = [rec(A, B, 0), rec(A, C, 0), rec(A, B, 1)]
        prof = redundancy_profile(records)
        assert prof.total_packets == prof.effective_packets == 3
        assert prof.ratio == 1.0 and not prof.empty

    def test_empty_log_flagged_not_divided(self):
        prof = redundancy_profile([])
        assert prof.empty and prof.ratio == 1.0
        assert prof.total_packets == 0


def make_report(mode="unispike", flit_hops=100, injected=50, time_ps=8000,
                total_energy=250.0):
    rows = [TimestepRow(0, injected, flit_hops, 4, 6000, 2000, 200.0, 50.0)]
    return RunReport(
        workload="demo", mode=mode, partitioner="hsfc", config_digest="cafe",
        timesteps=1, modeled_time_ps=time_ps, spike_digest="d" * 16,
        total_spikes=9,
        traffic={"injected_flits": injected, "flit_hops": flit_hops,
                 "packets": 4},
        energy={"dynamic": 200.0, "static": 50.0, "total": total_energy},
        redundancy={"total_packets": 4, "effective_packets": 4, "ratio": 1.0},
        per_timestep=rows)


class TestReport:
    def test_json_round_trip(self):
        rep = make_report()
        back = RunReport.from_json(rep.to_json())
        assert back == rep

    def test_json_is_canonical(self):
        assert make_report().to_json() == make_report().to_json()
        assert make_report().to_json().endswith("\n")

    def test_emit_and_parse_files(self, tmp_path):
        rep = make_report()
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        emit_report(rep, str(jp), str(cp))
        assert parse_report(str(jp)) == rep
        with open(cp, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:3] == ["timestep", "mode", "injected_flits"]
        assert rows[1][0] == "0" and rows[1][1] == "unispike"
        assert float(rows[1][7]) == 200.0

    def test_csv_optional(self, tmp_path):
        jp = tmp_path / "r.json"
        emit_report(make_report(), str(jp))
        assert jp.exists()


class TestComparison:
    def test_ratios_above_one_mean_improvement(self):
        base = make_report(mode="baseline", flit_hops=300, injected=100,
                           time_ps=16000, total_energy=500.0)
        other = make_report(flit_hops=100, injected=50, time_ps=8000,
                            total_energy=250.0)
        got = compare_reports(base, other)
        assert got == {"traffic_saving": 3.0, "traffic_saving_injected": 2.0,
                       "speedup": 2.0, "energy_efficiency": 2.0}

    def test_zero_denominators(self):
        base = make_report(flit_hops=10)
        silent = make_report(flit_hops=0)
        assert compare_reports(base, silent)["traffic_saving"] == math.inf
        assert compare_reports(silent, silent)["traffic_saving"] == 1.0

    def test_step_attribution_splits_busy_time_from_tail(self):
        # steps end on a core, on the network, and on both at once
        rows = [TimestepRow(t, 0, 0, 0, busy, drain, 0.0, 0.0)
                for t, (busy, drain) in enumerate(
                    [(500, 500), (300, 800), (0, 0), (200, 450)])]
        assert step_attribution(rows) == {
            "busy_ps": 1000, "tail_ps": 750, "steps_ending_on_network": 2}
        assert step_attribution([]) == {
            "busy_ps": 0, "tail_ps": 0, "steps_ending_on_network": 0}
