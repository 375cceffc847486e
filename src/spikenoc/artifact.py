"""Per-core deployment artifacts and the on-disk bundle.

A core artifact carries everything one core needs at runtime: its neuron
roster, the incoming synapse table, per-destination connection bitmaps, and
the execution queue plus checking table produced by the scheduler.  The
synapse table holds one row per source core, indexed by the source's local
index, with ``None`` where that neuron has no synapse on this core: a decode
reads ``row[idx]`` rather than hashing a ``(coord, idx)`` key, and rows take
less memory than such a dict once more than about one slot in eight is
filled, as on every benchmark workload.  The bitmaps are the one form of
"which local neurons feed destination d".  All of it follows from the graph
and the placement (core coord -> global neuron ids in local-index order), so
``build_bundle`` derives every core from it, in memory and on load alike.

A bundle directory holds two files:

- ``graph.snnb``: the network, in the binary graph format;
- ``manifest.json`` (version 2): the mesh size, ``frac_bits``, the graph's
  digest, the memory budget and, per core, its coordinate, its neuron ids in
  local-index order and its size report.

``load_bundle`` checks the graph against its digest and the placement with
``validate_placement`` before ``build_bundle``, then compares each derived
size report with the stored one.  ``save_bundle`` reads ``frac_bits`` and
the digest from the graph.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

from .graph import SnnGraph, load_binary, save_binary
from .partition import MemoryBudget, Placement
from .schedule import build_checking_table, validate_schedule

Coord = tuple[int, int]
# src core coord -> a row indexed by src local index: that neuron's
# ((local post index, raw weight), ...), or None where it has no synapse
# here; a row ends at its last filled index.  A slot costs 8 bytes where a
# (coord, index) key costs 60-115 with its dict entry, so rows are the
# smaller form once more than about one slot in eight is filled.
SynapseTable = dict[Coord, tuple[tuple[tuple[int, int], ...] | None, ...]]


def synapse_count(table: SynapseTable) -> int:
    """How many synapses ``table`` holds."""
    return sum(len(pairs) for row in table.values() for pairs in row
               if pairs is not None)


class ArtifactError(Exception):
    """Malformed or internally inconsistent deployment artifact."""


@dataclass(frozen=True)
class SizeReport:
    synapse_bytes: int
    neuron_bytes: int
    post_conn_bytes: int
    checking_table_bytes: int
    synapse_fits: bool
    neuron_fits: bool
    post_conn_fits: bool
    checking_table_fits: bool


@dataclass
class CoreArtifact:
    coord: Coord
    neuron_ids: tuple[int, ...]
    # the core's own coord keys its intra-core fan-out
    synapse_table: SynapseTable
    # remote destination -> bitmap of the local neurons connected to it, in
    # row-major destination order
    conn_bitmaps: dict[Coord, int]
    exec_queue: tuple[int, ...]
    checking_table: dict[int, tuple[Coord, ...]]
    size_report: SizeReport

    @property
    def local_count(self) -> int:
        return len(self.neuron_ids)


@dataclass
class DeploymentBundle:
    mesh_width: int
    mesh_height: int
    budget: MemoryBudget
    cores: list[CoreArtifact]
    graph: SnnGraph


def derive_tables(graph: SnnGraph, placement: Placement
                  ) -> dict[Coord, tuple[SynapseTable, dict[Coord, int]]]:
    """Each core's synapse table and connection bitmaps, as the graph gives
    them for ``placement`` (core coord -> global ids in local-index order).

    Source coords ascend; a remote sender's pairs ascend by (local post,
    raw), an intra-core sender's pairs follow the graph's post order;
    bitmaps are in row-major destination order.  The placement must hold
    every neuron of the graph exactly once.
    """
    where: list[tuple[Coord, int] | None] = [None] * graph.neuron_count
    senders: list[int] = []         # in synapse-key order
    for coord, ids in sorted(placement.items()):
        for i, nid in enumerate(ids):
            where[nid] = (coord, i)
            senders.append(nid)
    # per core: sender key -> (local post, raw) pairs, filled in key order;
    # equal pairs share one tuple
    incoming: dict[Coord, dict] = {coord: {} for coord in placement}
    pair_of: dict[int, tuple[int, int]] = {}
    for pre in senders:
        key = where[pre]
        for post, raw in graph.adjacency[pre]:
            to = where[post]
            pair = pair_of.setdefault(raw << 32 | to[1], (to[1], raw))
            incoming[to[0]].setdefault(key, []).append(pair)
    tables = {coord: ({}, {}) for coord in placement}
    for coord in sorted(placement, key=lambda c: (c[1], c[0])):
        rows = tables[coord][0]
        for (src, i), pairs in incoming[coord].items():
            if src != coord:
                pairs.sort()
                out = tables[src][1]
                out[coord] = out.get(coord, 0) | 1 << i
            row = rows.setdefault(src, [])
            row += [None] * (i - len(row))
            row.append(tuple(pairs))
        for src, row in rows.items():
            rows[src] = tuple(row)
    return tables


def build_bundle(graph: SnnGraph, placement: Placement, mesh_width: int,
                 mesh_height: int, budget: MemoryBudget) -> DeploymentBundle:
    """The bundle that deploys ``graph`` by ``placement``: every core's
    artifact, in placement order.

    Fails if any core exceeds its memory budget; the checking-table size is
    reported against its budget but does not fail.
    """
    cores = []
    for coord, (table, bitmaps) in derive_tables(graph, placement).items():
        n = len(placement[coord])
        queue, check = build_checking_table(bitmaps, n)
        problems = validate_schedule(queue, check, bitmaps, n)
        if problems:
            raise ArtifactError(f"core {coord}: {problems[0]}")
        check_t = {b: tuple(v) for b, v in check.items()}
        synapses, dests = synapse_count(table), len(bitmaps)
        if not budget.fits(synapses, n, dests):
            raise ArtifactError(f"core {coord}: cluster exceeds memory budget")
        # 2-byte entry count; per entry a 2-byte neuron index, 2-byte
        # destination count and 4 bytes (x, y as u16) per bound destination
        ct_bytes = 2 + sum(4 + 4 * len(v) for v in check_t.values())
        report = SizeReport(
            synapses * budget.bytes_per_synapse,
            n * budget.bytes_per_neuron_state,
            dests * budget.dest_entry_bytes, ct_bytes,
            budget.fits(synapses, 0, 0), budget.fits(0, n, 0),
            budget.fits(0, 0, dests), ct_bytes <= budget.checking_table_bytes)
        cores.append(CoreArtifact(coord, tuple(placement[coord]), table,
                                  bitmaps, tuple(queue), check_t, report))
    return DeploymentBundle(mesh_width, mesh_height, budget, cores, graph)


def validate_placement(graph: SnnGraph,
                       placed: list[tuple[Coord, tuple[int, ...]]],
                       mesh_width: int, mesh_height: int) -> list[str]:
    """Check ``(core coord, neuron ids)`` entries: every core on the mesh, no
    cell held twice, every id in the graph and every neuron on exactly one
    core.  Returns the violations, each naming its core."""
    problems = []
    seen: dict[int, Coord] = {}
    coords: set[Coord] = set()
    for coord, ids in placed:
        x, y = coord
        if not (0 <= x < mesh_width and 0 <= y < mesh_height):
            problems.append(f"core {coord}: outside the "
                            f"{mesh_width}x{mesh_height} mesh")
        if coord in coords:
            problems.append(f"core {coord}: coordinate held by two cores")
        coords.add(coord)
        for nid in ids:
            if not 0 <= nid < graph.neuron_count:
                problems.append(f"core {coord}: neuron {nid} is not in the "
                                f"graph")
            elif nid in seen:
                problems.append(f"core {coord}: neuron {nid} also on core "
                                f"{seen[nid]}")
            else:
                seen[nid] = coord
    missing = [n for n in range(graph.neuron_count) if n not in seen]
    if missing:
        problems.append(f"neurons {missing[:8]} not deployed on any core")
    return problems


# ---------------------------------------------------------------------------
# bundle directory

MANIFEST_VERSION = 2


def save_bundle(bundle: DeploymentBundle, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    save_binary(bundle.graph, os.path.join(path, "graph.snnb"))
    manifest = {
        "version": MANIFEST_VERSION,
        "mesh_width": bundle.mesh_width,
        "mesh_height": bundle.mesh_height,
        "frac_bits": bundle.graph.frac_bits,
        "graph_digest": bundle.graph.digest(),
        "budget": asdict(bundle.budget),
        "cores": [{"coord": list(core.coord),
                   "neurons": list(core.neuron_ids),
                   "size_report": asdict(core.size_report)}
                  for core in bundle.cores],
    }
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _is_ints(values) -> bool:
    return all(type(v) is int for v in values)


def load_bundle(path: str) -> DeploymentBundle:
    """Load a bundle directory, deriving every core from its graph and
    placement.  Raises ArtifactError naming the file or the core when the
    manifest is malformed or of another version, the graph does not match
    its digest, the placement is invalid, or a stored size report differs
    from the derived one."""
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise ArtifactError(f"{manifest_path}: {exc}") from None
    try:
        version = manifest["version"]
        if version != MANIFEST_VERSION:
            raise ArtifactError(f"{manifest_path}: unsupported bundle version "
                                f"{version!r} (this build reads version "
                                f"{MANIFEST_VERSION})")
        width, height, frac_bits = header = (
            manifest["mesh_width"], manifest["mesh_height"],
            manifest["frac_bits"])
        if not _is_ints(header):
            raise TypeError("mesh size and frac_bits must be integers")
        digest = manifest["graph_digest"]
        budget = MemoryBudget(**manifest["budget"])
        placed, stored = [], []
        for i, entry in enumerate(manifest["cores"]):
            x, y = entry["coord"]
            ids = tuple(entry["neurons"])
            if not _is_ints((x, y, *ids)):
                raise TypeError(f"core entry {i}: coordinates and neuron ids "
                                f"must be integers")
            placed.append(((x, y), ids))
            stored.append(entry["size_report"])
    except KeyError as exc:
        raise ArtifactError(f"{manifest_path}: no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{manifest_path}: malformed manifest: "
                            f"{exc}") from None
    graph_path = os.path.join(path, "graph.snnb")
    graph = load_binary(graph_path)
    if graph.digest() != digest:
        raise ArtifactError(f"{graph_path}: does not match the graph digest "
                            f"in {manifest_path}")
    if frac_bits != graph.frac_bits:
        raise ArtifactError(f"{manifest_path}: frac_bits {frac_bits} differs "
                            f"from the graph's {graph.frac_bits}")
    problems = validate_placement(graph, placed, width, height)
    if problems:
        raise ArtifactError(f"{manifest_path}: invalid bundle\n"
                            + "\n".join(problems))
    bundle = build_bundle(graph, dict(placed), width, height, budget)
    problems = [f"core {core.coord}: stored size report differs from the "
                f"derived one" for core, report in zip(bundle.cores, stored)
                if asdict(core.size_report) != report]
    if problems:
        raise ArtifactError(f"{manifest_path}: invalid bundle\n"
                            + "\n".join(problems))
    return bundle
