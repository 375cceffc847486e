#!/usr/bin/env python3
"""Per-timestep head-to-head of the two transmission modes.

Runs one deployment in baseline (one packet per spike and destination) and
merged (one packet per destination, dispatched at its barrier neuron) mode
through ``run_comparison``, checks that both deliver the reference spike
train, and prints how flits, drain time, and redundancy evolve step by step.
Exits 1 when a train differs from the reference, 2 on a bad configuration.

Example:
    python scripts/mode_comparison.py --config experiments/conv.ini
    python scripts/mode_comparison.py            # built-in congested default
"""

import argparse
import sys
from dataclasses import replace

from spikenoc.config import (build_graph, load_config, parse_layers,
                             to_system_config)
from spikenoc.core import MODE_BASELINE, MODE_UNISPIKE
from spikenoc.graph import build_conv_topology
from spikenoc.neurons import LifParams
from spikenoc.noc import MeshConfig
from spikenoc.partition import MemoryBudget
from spikenoc.stimulus import StimulusSpec
from spikenoc.system import PARTITIONERS, SystemConfig, run_comparison


def default_setup():
    """A deliberately congested conv stack: 2304 neurons on 36 small cores."""
    graph = build_conv_topology(parse_layers("1x16x16, 8x16x16 k3 s1 p1"),
                                seed=3, model=LifParams(refractory_steps=0))
    spec = StimulusSpec(kind="constant", amplitude=12.0,
                        neurons=tuple(range(256)))
    cfg = SystemConfig(mesh=MeshConfig(6, 6),
                       budget=MemoryBudget(neuron_bytes=64 * 24),
                       stimulus=spec, timesteps=20, partitioner="hsfc")
    return graph, cfg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="experiment configuration (INI); "
                                     "omitted means a built-in conv demo")
    ap.add_argument("--partitioner", choices=PARTITIONERS,
                    help="override the partitioner")
    args = ap.parse_args(argv)

    try:
        if args.config:
            exp = load_config(args.config)
            graph = build_graph(exp)
            cfg = to_system_config(exp)
        else:
            graph, cfg = default_setup()
        if args.partitioner:
            cfg = replace(cfg, partitioner=args.partitioner)
        result = run_comparison(graph, cfg, partitioners=(cfg.partitioner,))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base = result.reports[(MODE_BASELINE, cfg.partitioner)]
    uni = result.reports[(MODE_UNISPIKE, cfg.partitioner)]
    print(f"{graph.neuron_count} neurons on {result.cores[cfg.partitioner]} "
          f"cores ({cfg.mesh.width}x{cfg.mesh.height} mesh), partitioner "
          f"{cfg.partitioner}, {cfg.timesteps} steps")
    print(f"{'step':>4}  {'flits(base)':>11}  {'flits(merged)':>13}  "
          f"{'drain(base)':>11}  {'drain(merged)':>13}")
    for rb, ru in zip(base.per_timestep, uni.per_timestep):
        print(f"{rb.timestep:>4}  {rb.injected_flits:>11}  "
              f"{ru.injected_flits:>13}  {rb.drain_ps:>11}  {ru.drain_ps:>13}")

    ratios = result.ratios[cfg.partitioner]
    red = base.redundancy
    lossless = result.spike_digests_equal and result.matches_reference
    print(f"\nbaseline redundancy: {red['total_packets']} packets for "
          f"{red['effective_packets']} (core, destination, step) triples "
          f"(ratio {red['ratio']:.3f})")
    print(f"traffic saving {ratios['traffic_saving']:.3f}x, speedup "
          f"{ratios['speedup']:.3f}x, energy efficiency "
          f"{ratios['energy_efficiency']:.3f}x")
    print(f"spike trains identical to reference: {'yes' if lossless else 'NO'}")
    return 0 if lossless else 1


if __name__ == "__main__":
    sys.exit(main())
