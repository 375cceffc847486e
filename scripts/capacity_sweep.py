#!/usr/bin/env python3
"""Sweep per-core neuron capacity and measure how the merged transmission
mode's advantage scales with mesh pressure.

Smaller cores spread a fixed network over more routers, so the same spike
volume turns into more remote packets and more contention.  Merged dispatch
removes duplicate head flits, which matters more the hotter the mesh gets;
this sweep makes that trend visible in one table.  Each capacity runs through
``run_comparison`` on one stimulus and one reference train, built once for
the sweep; the sweep stops with exit 1 at the first capacity whose spike
trains differ from the reference.

Example:
    python scripts/capacity_sweep.py --capacities 32,64,128 --timesteps 20
"""

import argparse
import csv
import math
import sys
import time
from dataclasses import replace

from spikenoc.config import parse_layers
from spikenoc.core import MODE_BASELINE
from spikenoc.graph import build_conv_topology, reference_simulate
from spikenoc.neurons import LifParams
from spikenoc.noc import MeshConfig
from spikenoc.partition import MemoryBudget, hsfc_order, initial_partition
from spikenoc.stimulus import StimulusSpec, build_stimulus
from spikenoc.system import SystemConfig, run_comparison


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1; got {value}")
    return value


def positive_list(text: str) -> list[int]:
    return [positive(c) for c in text.split(",")]


def mesh_dims(clusters: int) -> tuple[int, int]:
    w = max(1, math.ceil(math.sqrt(clusters)))
    return w, math.ceil(clusters / w)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layers", type=parse_layers,
                    default="1x16x16, 8x16x16 k3 s1 p1",
                    help="conv topology (CxWxH [kK] [sS] [pP], ...)")
    ap.add_argument("--capacities", type=positive_list,
                    default="32,48,64,96,128",
                    help="neurons per core, comma separated")
    ap.add_argument("--timesteps", type=positive, default=20)
    ap.add_argument("--amplitude", type=float, default=12.0,
                    help="constant drive on the input layer")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", help="also write the table as CSV")
    args = ap.parse_args(argv)
    try:
        return sweep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def sweep(args) -> int:
    layers = args.layers
    graph = build_conv_topology(layers, seed=args.seed,
                                model=LifParams(refractory_steps=0))
    input_neurons = tuple(range(layers[0].channels * layers[0].width
                                * layers[0].height))
    spec = StimulusSpec(kind="constant", amplitude=args.amplitude,
                        neurons=input_neurons)
    base = SystemConfig(stimulus=spec, timesteps=args.timesteps,
                        partitioner="hsfc")
    # neither depends on the deployment, so every capacity shares them
    stimulus = build_stimulus(spec, graph.neuron_count, args.timesteps,
                              graph.frac_bits)
    reference_digest = reference_simulate(graph, stimulus, args.timesteps,
                                          base.dt).digest()
    print(f"network: {graph.neuron_count} neurons, {graph.synapse_count} "
          f"synapses, {args.timesteps} steps")

    header = ["capacity", "cores", "mesh", "spikes", "saving", "speedup",
              "energy_eff", "lossless", "seconds"]
    print("  ".join(f"{h:>10}" for h in header))
    rows = []
    for cap in args.capacities:
        budget = MemoryBudget(neuron_bytes=cap * 24)
        # the mesh is sized to the cut, which the hsfc deploy repeats
        w, h = mesh_dims(len(initial_partition(hsfc_order(graph), graph,
                                               budget).clusters))
        cfg = replace(base, mesh=MeshConfig(w, h), budget=budget)
        t0 = time.monotonic()
        result = run_comparison(graph, cfg, partitioners=("hsfc",),
                                stimulus=stimulus,
                                reference_digest=reference_digest)
        seconds = time.monotonic() - t0
        ratios = result.ratios["hsfc"]
        lossless = result.spike_digests_equal and result.matches_reference
        row = [cap, result.cores["hsfc"], f"{w}x{h}",
               result.reports[(MODE_BASELINE, "hsfc")].total_spikes,
               f"{ratios['traffic_saving']:.3f}",
               f"{ratios['speedup']:.3f}",
               f"{ratios['energy_efficiency']:.3f}",
               "yes" if lossless else "NO", f"{seconds:.1f}"]
        rows.append(row)
        print("  ".join(f"{str(v):>10}" for v in row))
        if not lossless:
            print("error: spike trains differ from the reference, aborting",
                  file=sys.stderr)
            return 1

    if args.out:
        with open(args.out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
