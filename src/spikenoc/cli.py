"""Command-line front end.

Stages hand off through files: `generate` writes a network, `partition`
deploys it into a bundle directory, `simulate` validates and runs a deployed
bundle and writes reports, `compare` runs the whole mode/partitioner matrix,
and `validate` re-checks a bundle on disk.

Exit codes: 0 success, 1 runtime failure (deadlock, numeric blow-up),
2 configuration or validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .artifact import ArtifactError, build_bundle, load_bundle, save_bundle
from .config import (ConfigError, ExperimentConfig, build_graph, load_config,
                     override_seed, render_config, to_system_config)
from .core import MODES
from .graph import load_graph, save_binary, save_text
from .metrics import emit_report, step_attribution
from .neurons import NumericError
from .noc import DeadlockError
from .partition import destination_objective, map_clusters
from .stimulus import build_stimulus
from .system import (PARTITIONERS, deploy, make_partition, run_comparison,
                     run_experiment)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = override_seed(cfg, args.seed)
    return cfg


def workload_name(cfg: ExperimentConfig) -> str:
    w = cfg.workload
    if w.kind == "conv":
        return f"conv[{w.layers}]"
    if w.kind == "file":
        return f"file[{os.path.basename(w.path)}]"
    return f"{w.kind}-{w.n_exc}+{w.n_inh}"


PACKET_LOG_COLUMNS = ("pid", "timestep", "src_x", "src_y", "dest_x",
                      "dest_y", "body_flits", "inject_ps", "eject_ps")


# rows per ``write`` call, so a step's text is formatted a piece at a time
WRITE_ROWS = 1024


def write_packet_log(records, f) -> None:
    """Write one step's packet records, one ``PACKET_LOG_COLUMNS`` row each."""
    for i in range(0, len(records), WRITE_ROWS):
        f.write("".join([
            f"{r.pid},{r.timestep},{r.src[0]},{r.src[1]},{r.dest[0]},"
            f"{r.dest[1]},{r.body_count},{r.inject_ps},{r.eject_ps}\r\n"
            for r in records[i:i + WRITE_ROWS]]))


def write_flit_trace(rows, f) -> None:
    """Write one step's ``(time_ps, link, pid, kind)`` rows; a link label
    holds a comma, so it is quoted."""
    for i in range(0, len(rows), WRITE_ROWS):
        f.write("".join([f'{t},"{link}",{pid},{kind}\r\n'
                         for t, link, pid, kind in rows[i:i + WRITE_ROWS]]))


TRACE_COLUMNS = ("time_ps", "link", "pid", "kind")


@contextlib.contextmanager
def csv_sink(path: str, columns, write):
    """A ``run_experiment`` sink that writes a header row of ``columns`` to
    ``path``, then each step's rows with ``write(rows, f)`` as the step
    ends; the file is removed if the run fails.

    Rows are comma-separated and end in ``\r\n``, as ``csv.writer`` would
    write them; a writer quotes any field that holds a comma."""
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\r\n")
        try:
            yield lambda rows: write(rows, f)
        except BaseException:
            f.close()
            os.remove(path)
            raise


# -- subcommands ------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load(args)
    graph = build_graph(cfg)
    if args.format == "text" or (args.format == "auto"
                                 and args.out.endswith(".snn")):
        save_text(graph, args.out)
    else:
        save_binary(graph, args.out)
    print(f"wrote {args.out}: {graph.neuron_count} neurons, "
          f"{graph.synapse_count} synapses, digest {graph.digest()[:16]}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _load(args)
    if args.partitioner:
        cfg = dataclasses.replace(
            cfg, partition=dataclasses.replace(cfg.partition,
                                               partitioner=args.partitioner))
    sys_cfg = to_system_config(cfg)
    graph = load_graph(args.graph) if args.graph else build_graph(cfg)
    width, height = sys_cfg.mesh.width, sys_cfg.mesh.height
    part = make_partition(graph, sys_cfg)
    placement = map_clusters(part, width, height, sys_cfg.placement)
    save_bundle(build_bundle(graph, placement, width, height, sys_cfg.budget),
                args.out)
    j = destination_objective(part, graph)
    sizes = sorted(len(c) for c in part.clusters)
    print(f"wrote {args.out}: {len(part.clusters)} cores on "
          f"{width}x{height} mesh, "
          f"objective J={j}, cluster sizes {sizes[0]}..{sizes[-1]}")
    return EXIT_OK


def check_bundle_config(bundle, sys_cfg) -> None:
    """Raise ConfigError when the bundle's mesh or memory budget differs
    from the config's."""
    if (bundle.mesh_width, bundle.mesh_height) != (sys_cfg.mesh.width,
                                                   sys_cfg.mesh.height):
        raise ConfigError(
            f"bundle was deployed on a {bundle.mesh_width}x"
            f"{bundle.mesh_height} mesh but the config says "
            f"{sys_cfg.mesh.width}x{sys_cfg.mesh.height}")
    if bundle.budget != sys_cfg.budget:
        raise ConfigError(f"bundle was deployed under {bundle.budget} "
                          f"but the config says {sys_cfg.budget}")


def cmd_simulate(args) -> int:
    cfg = _load(args)
    run_over = {}
    if args.mode:
        run_over["mode"] = args.mode
    if args.trace:
        run_over["trace"] = True
    if run_over:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                               **run_over))
    sys_cfg = to_system_config(cfg)
    if args.bundle:
        bundle = load_bundle(args.bundle)
        check_bundle_config(bundle, sys_cfg)
    else:
        bundle = deploy(build_graph(cfg), sys_cfg)
    stimulus = build_stimulus(sys_cfg.stimulus, bundle.graph.neuron_count,
                              sys_cfg.timesteps, bundle.graph.frac_bits)

    os.makedirs(args.out, exist_ok=True)
    with contextlib.ExitStack() as sinks:
        packet_sink = sinks.enter_context(csv_sink(
            os.path.join(args.out, "packets.csv"), PACKET_LOG_COLUMNS,
            write_packet_log))
        trace_sink = sinks.enter_context(csv_sink(
            os.path.join(args.out, "trace.csv"), TRACE_COLUMNS,
            write_flit_trace)) if cfg.run.trace else None
        result = run_experiment(bundle, sys_cfg, stimulus,
                                workload=workload_name(cfg),
                                config_digest=cfg.digest(),
                                trace_sink=trace_sink,
                                packet_sink=packet_sink)
    report = result.report
    emit_report(report, os.path.join(args.out, "report.json"),
                os.path.join(args.out, "timesteps.csv"))
    result.train.save_text(os.path.join(args.out, "spikes.txt"))
    print(f"{report.mode}: {report.total_spikes} spikes over "
          f"{report.timesteps} steps, {report.traffic['injected_flits']} "
          f"flits injected, modeled time {report.modeled_time_ps} ps")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    sys_cfg = to_system_config(cfg)
    graph = build_graph(cfg)
    result = run_comparison(graph, sys_cfg, workload=workload_name(cfg),
                            config_digest=cfg.digest())
    os.makedirs(args.out, exist_ok=True)
    for (mode, part), report in sorted(result.reports.items()):
        emit_report(report, os.path.join(args.out, f"{mode}_{part}.json"))
    attribution: dict[str, dict] = {}
    for (mode, part), report in result.reports.items():
        attribution.setdefault(part, {})[mode] = step_attribution(
            report.per_timestep)
    summary = {
        "spike_digests_equal": result.spike_digests_equal,
        "matches_reference": result.matches_reference,
        "ratios": result.ratios,
        "step_attribution": attribution,
    }
    with open(os.path.join(args.out, "comparison.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")

    cols = ["partitioner", "traffic_saving", "speedup", "energy_efficiency"]
    print("  ".join(f"{c:>18}" for c in cols))
    for part in PARTITIONERS:
        if part not in result.ratios:
            continue
        r = result.ratios[part]
        print("  ".join([f"{part:>18}"] + [f"{r[c]:>18.4f}" for c in cols[1:]]))
    cols = ["partitioner", "mode", "busy_ps", "tail_ps",
            "steps_ending_on_network"]
    print("  ".join(f"{c:>18}" for c in cols))
    for part in PARTITIONERS:
        for mode, a in attribution.get(part, {}).items():
            print("  ".join([f"{part:>18}", f"{mode:>18}"]
                            + [f"{a[c]:>18}" for c in cols[2:]]))
    if not result.spike_digests_equal:
        print("error: spike trains diverged between runs", file=sys.stderr)
        return EXIT_RUNTIME
    if not result.matches_reference:
        print("error: spike trains differ from the reference simulation",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate(args) -> int:
    """Check a config, a bundle, or both; given both, the bundle must hold
    the config's network on its mesh under its budget."""
    if not args.config and not args.bundle:
        raise ConfigError("nothing to validate: pass --config and/or --bundle")
    if args.config:
        cfg = _load(args)
        print(f"{args.config}: ok")
    if args.bundle:
        bundle = load_bundle(args.bundle)
        print(f"{args.bundle}: {len(bundle.cores)} cores ok")
    if args.config and args.bundle:
        check_bundle_config(bundle, to_system_config(cfg))
        graph = build_graph(cfg)
        held, built = bundle.graph.digest(), graph.digest()
        if held != built:
            raise ConfigError(
                f"bundle holds a {bundle.graph.neuron_count}-neuron graph "
                f"with digest {held[:16]} but the config builds a "
                f"{graph.neuron_count}-neuron graph with digest {built[:16]}")
        print(f"{args.bundle}: holds the network of {args.config}")
    return EXIT_OK


def cmd_show_config(args) -> int:
    cfg = _load(args)
    sys.stdout.write(render_config(cfg))
    print(f"# digest: {cfg.digest()}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikenoc",
        description="Cycle-level many-core spiking network simulator with "
                    "address-merged multicast delivery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment configuration file (INI)")
        p.add_argument("--seed", type=int,
                       help="override every stochastic seed in the config")

    p = sub.add_parser("generate", help="build a network and write it to disk")
    common(p)
    p.add_argument("--out", required=True, help="output path (.snn or .snnb)")
    p.add_argument("--format", choices=["auto", "text", "binary"],
                   default="auto")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition",
                       help="deploy a network into a bundle directory")
    common(p)
    p.add_argument("--graph", help="network file; omitted means build from "
                                   "the config workload")
    p.add_argument("--partitioner", choices=list(PARTITIONERS),
                   help="override the config partitioner")
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="run a deployed bundle")
    common(p)
    p.add_argument("--bundle", help="bundle directory; omitted means deploy "
                                    "the config workload in memory")
    p.add_argument("--mode", choices=list(MODES),
                   help="override the config transmission mode")
    p.add_argument("--trace", action="store_true",
                   help="also write a per-flit link trace")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare",
                       help="run both modes across all partitioners")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="re-check a config or bundle on disk")
    common(p)
    p.add_argument("--bundle", help="bundle directory; with --config, it "
                                    "must hold the config's network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("show-config",
                       help="print the fully resolved configuration")
    common(p)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArtifactError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DeadlockError, NumericError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
