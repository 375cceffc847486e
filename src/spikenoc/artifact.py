"""Per-core deployment artifacts and the on-disk bundle.

A core artifact carries everything one core needs at runtime: its neuron
roster, the incoming synapse table keyed by (source core, source-local
index), per-destination connection bitmaps, and the execution queue plus
checking table produced by the scheduler.  The bitmaps are the one form of
"which local neurons feed destination d".  ``derive_tables`` derives the
synapse table and bitmaps from the graph, once for ``build_bundle`` and once
for ``validate_bundle`` to compare against.  The binary layout is
little-endian throughout (u16/u32 integer widths as noted field by field
below).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, asdict

from .graph import SnnGraph, load_binary, save_binary
from .partition import CoreMap, MemoryBudget, Partition
from .schedule import build_checking_table, validate_schedule

Coord = tuple[int, int]
# (src core coord, src local index) -> ((local post index, raw weight), ...)
SynapseTable = dict[tuple[Coord, int], tuple[tuple[int, int], ...]]


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
    # remote destination -> bitmap of the local neurons connected to it
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
    frac_bits: int
    graph_digest: str
    budget: MemoryBudget
    cores: list[CoreArtifact]
    graph: SnnGraph

    def core_at(self, coord: Coord) -> CoreArtifact:
        for c in self.cores:
            if c.coord == coord:
                return c
        raise KeyError(coord)


def _size_report(synapse_table, local_count: int, n_dests: int,
                 checking_table, budget: MemoryBudget) -> SizeReport:
    syn = (sum(len(v) for v in synapse_table.values())
           * budget.bytes_per_synapse)
    neu = local_count * budget.bytes_per_neuron_state
    post_b = n_dests * budget.dest_entry_bytes
    # 2-byte entry count; per entry a 2-byte neuron index, 2-byte destination
    # count and 4 bytes (x, y as u16) per bound destination
    ct_bytes = 2 + sum(4 + 4 * len(v) for v in checking_table.values())
    return SizeReport(syn, neu, post_b, ct_bytes,
                      syn <= budget.synapse_bytes, neu <= budget.neuron_bytes,
                      post_b <= budget.post_conn_bytes,
                      ct_bytes <= budget.checking_table_bytes)


def derive_tables(graph: SnnGraph, placement: dict[Coord, tuple[int, ...]]
                  ) -> dict[Coord, tuple[SynapseTable, dict[Coord, int]]]:
    """Each core's synapse table and connection bitmaps, as the graph gives
    them for ``placement`` (core coord -> global ids in local-index order).

    Keys ascend; a remote key's pairs ascend by (local post, raw), an
    intra-core key's pairs follow the graph's post order; bitmaps are in
    row-major destination order.  Neurons outside the graph are skipped.
    """
    where: list[tuple[Coord, int] | None] = [None] * graph.neuron_count
    senders: list[int] = []         # in synapse-key order
    for coord, ids in sorted(placement.items()):
        for i, nid in enumerate(ids):
            if 0 <= nid < graph.neuron_count:
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
            if to is not None:
                pair = pair_of.setdefault(raw << 32 | to[1], (to[1], raw))
                incoming[to[0]].setdefault(key, []).append(pair)
    tables = {coord: ({}, {}) for coord in placement}
    for coord in sorted(placement, key=lambda c: (c[1], c[0])):
        for key, pairs in incoming[coord].items():
            if key[0] != coord:
                pairs.sort()
                out = tables[key[0]][1]
                out[coord] = out.get(coord, 0) | 1 << key[1]
            tables[coord][0][key] = tuple(pairs)
    return tables


def build_bundle(graph: SnnGraph, partition: Partition, core_map: CoreMap,
                 budget: MemoryBudget) -> DeploymentBundle:
    """Assemble per-core artifacts from a placed partition.

    Fails if any cluster exceeds its memory budget; the checking-table size
    is reported against its budget but does not fail the build.
    """
    placement = dict(zip(core_map.placement, partition.clusters, strict=True))
    cores = []
    for coord, (table, bitmaps) in derive_tables(graph, placement).items():
        n = len(placement[coord])
        queue, check = build_checking_table(bitmaps, n)
        problems = validate_schedule(queue, check, bitmaps, n)
        if problems:
            raise ArtifactError(f"core {coord}: {problems[0]}")
        check_t = {b: tuple(v) for b, v in check.items()}
        report = _size_report(table, n, len(bitmaps), check_t, budget)
        if not (report.synapse_fits and report.neuron_fits
                and report.post_conn_fits):
            raise ArtifactError(f"core {coord}: cluster exceeds memory budget")
        cores.append(CoreArtifact(coord, tuple(placement[coord]), table,
                                  bitmaps, tuple(queue), check_t, report))

    return DeploymentBundle(core_map.mesh_width, core_map.mesh_height,
                            graph.frac_bits, graph.digest(), budget, cores, graph)


# ---------------------------------------------------------------------------
# binary core image

_CORE_MAGIC = b"SNCR"


def core_to_bytes(core: CoreArtifact) -> bytes:
    p = [_CORE_MAGIC, struct.pack("<HHHI", 1, core.coord[0], core.coord[1],
                                  core.local_count)]
    p.append(struct.pack(f"<{core.local_count}I", *core.neuron_ids))
    p.append(struct.pack("<I", len(core.synapse_table)))
    for (src, idx), pairs in core.synapse_table.items():
        p.append(struct.pack("<HHHH", src[0], src[1], idx, len(pairs)))
        for post, raw in pairs:
            p.append(struct.pack("<Hh", post, raw))
    bitmap_len = (core.local_count + 7) // 8
    p.append(struct.pack("<I", len(core.conn_bitmaps)))
    for coord, mask in core.conn_bitmaps.items():
        p.append(struct.pack("<HH", coord[0], coord[1]))
        p.append(mask.to_bytes(bitmap_len, "little"))
    p.append(struct.pack("<I", len(core.exec_queue)))
    p.append(struct.pack(f"<{len(core.exec_queue)}H", *core.exec_queue))
    p.append(struct.pack("<H", len(core.checking_table)))
    for n, coords in core.checking_table.items():
        p.append(struct.pack("<HH", n, len(coords)))
        for c in coords:
            p.append(struct.pack("<HH", c[0], c[1]))
    return b"".join(p)


def core_from_bytes(buf: bytes, budget: MemoryBudget) -> CoreArtifact:
    """Parse one core image.  Raises ArtifactError if the image is truncated,
    has trailing bytes, or names a local neuron index out of range."""
    if buf[:4] != _CORE_MAGIC:
        raise ArtifactError("bad core image magic")
    off = 4

    def take(fmt: str) -> tuple:
        nonlocal off
        try:
            values = struct.unpack_from(fmt, buf, off)
        except struct.error:
            raise ArtifactError(
                f"core image truncated at byte {off}") from None
        off += struct.calcsize(fmt)
        return values

    version, x, y, n_local = take("<HHHI")
    if version != 1:
        raise ArtifactError(f"unsupported core image version {version}")
    ids = take(f"<{n_local}I")
    table = {}
    for _ in range(take("<I")[0]):
        sx, sy, idx, n_pairs = take("<HHHH")
        flat = take("<" + "Hh" * n_pairs)
        table[((sx, sy), idx)] = tuple(zip(flat[::2], flat[1::2]))
    bitmap_fmt = f"<{(n_local + 7) // 8}s"
    bitmaps = {}
    for _ in range(take("<I")[0]):
        dx, dy = take("<HH")
        bitmaps[(dx, dy)] = int.from_bytes(take(bitmap_fmt)[0], "little")
    queue = take(f"<{take('<I')[0]}H")
    check = {}
    for _ in range(take("<H")[0]):
        n, n_coords = take("<HH")
        flat = take("<" + "HH" * n_coords)
        check[n] = tuple(zip(flat[::2], flat[1::2]))
    if off != len(buf):
        raise ArtifactError(f"{len(buf) - off} trailing bytes in core image")

    if (any(post >= n_local for pairs in table.values() for post, _ in pairs)
            or any(mask >> n_local for mask in bitmaps.values())
            or any(i >= n_local for i in queue)
            or any(n >= n_local for n in check)):
        raise ArtifactError(f"core ({x}, {y}): local index out of range "
                            f"for {n_local} neurons")
    report = _size_report(table, n_local, len(bitmaps), check, budget)
    return CoreArtifact((x, y), tuple(ids), table, bitmaps, tuple(queue),
                        check, report)


def save_bundle(bundle: DeploymentBundle, path: str) -> None:
    os.makedirs(os.path.join(path, "cores"), exist_ok=True)
    save_binary(bundle.graph, os.path.join(path, "graph.snnb"))
    manifest = {
        "version": 1,
        "mesh_width": bundle.mesh_width,
        "mesh_height": bundle.mesh_height,
        "frac_bits": bundle.frac_bits,
        "graph_digest": bundle.graph_digest,
        "budget": asdict(bundle.budget),
        "cores": [],
    }
    for core in bundle.cores:
        blob = core_to_bytes(core)
        name = f"core_{core.coord[0]}_{core.coord[1]}.bin"
        with open(os.path.join(path, "cores", name), "wb") as f:
            f.write(blob)
        manifest["cores"].append({
            "coord": list(core.coord),
            "file": f"cores/{name}",
            "neurons": core.local_count,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "size_report": asdict(core.size_report),
        })
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bundle(path: str) -> DeploymentBundle:
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest.get("version") != 1:
        raise ArtifactError("unsupported bundle version")
    budget = MemoryBudget(**manifest["budget"])
    graph = load_binary(os.path.join(path, "graph.snnb"))
    if graph.digest() != manifest["graph_digest"]:
        raise ArtifactError("graph file does not match manifest digest")
    cores = []
    for entry in manifest["cores"]:
        with open(os.path.join(path, entry["file"]), "rb") as f:
            blob = f.read()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise ArtifactError(f"{entry['file']}: checksum mismatch")
        cores.append(core_from_bytes(blob, budget))
    return DeploymentBundle(manifest["mesh_width"], manifest["mesh_height"],
                            manifest["frac_bits"], manifest["graph_digest"],
                            budget, cores, graph)


def validate_bundle(bundle: DeploymentBundle) -> list[str]:
    """Cross-check every core's coordinate, neurons, synapse table, bitmaps,
    schedule and sizes against the bundle's mesh and graph; returns
    violations."""
    problems = []
    graph = bundle.graph
    seen: dict[int, Coord] = {}
    coords: set[Coord] = set()
    for core in bundle.cores:
        x, y = core.coord
        if not (0 <= x < bundle.mesh_width and 0 <= y < bundle.mesh_height):
            problems.append(f"core {core.coord}: outside the "
                            f"{bundle.mesh_width}x{bundle.mesh_height} mesh")
        if core.coord in coords:
            problems.append(f"core {core.coord}: coordinate held by two cores")
        coords.add(core.coord)
        for nid in core.neuron_ids:
            if not 0 <= nid < graph.neuron_count:
                problems.append(f"core {core.coord}: neuron {nid} is not in "
                                f"the graph")
            elif nid in seen:
                problems.append(f"core {core.coord}: neuron {nid} also on "
                                f"core {seen[nid]}")
            seen[nid] = core.coord
    derived = derive_tables(graph, {c.coord: c.neuron_ids
                                    for c in bundle.cores})
    for core in bundle.cores:
        prefix = f"core {core.coord}"
        table, want = derived[core.coord]
        if core.synapse_table != table:
            for key in sorted(table.keys() | core.synapse_table.keys()):
                if core.synapse_table.get(key) != table.get(key):
                    problems.append(f"{prefix}: synapse entry {key} "
                                    f"disagrees with the graph")
        for coord, mask in core.conn_bitmaps.items():
            if coord == core.coord:
                problems.append(f"{prefix}: connection bitmap points at "
                                f"itself")
            elif mask != want.get(coord):
                problems.append(f"{prefix}: bitmap for {coord} disagrees with "
                                f"the graph")
        for coord in want.keys() - core.conn_bitmaps.keys():
            problems.append(f"{prefix}: destination {coord} has no bitmap")
        problems += [f"{prefix}: {v}" for v in validate_schedule(
            core.exec_queue, core.checking_table, core.conn_bitmaps,
            core.local_count)]
        r = core.size_report
        if not (r.synapse_fits and r.neuron_fits and r.post_conn_fits):
            problems.append(f"{prefix}: memory budget exceeded")
    missing = [n for n in range(graph.neuron_count) if n not in seen]
    if missing:
        problems.append(f"neurons {missing[:8]} not deployed on any core")
    return problems
