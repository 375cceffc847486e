"""Per-core deployment artifacts and the on-disk bundle.

A core artifact carries everything one core needs at runtime: its neuron
roster, the incoming synapse table keyed by (source core, source-local
index), per-destination connection bitmaps, and the execution queue plus
checking table produced by the scheduler.  The binary layout is little-endian
throughout (u16/u32 integer widths as noted field by field below).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, asdict

from .graph import SnnGraph, load_binary, save_binary
from .partition import CoreMap, MemoryBudget, Partition
from .schedule import build_checking_table, complete_queue, validate_schedule

Coord = tuple[int, int]


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


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    idx = 0
    while mask:
        if mask & 1:
            yield idx
        mask >>= 1
        idx += 1


@dataclass
class CoreArtifact:
    coord: Coord
    neuron_ids: tuple[int, ...]
    # (src core coord, src local index) -> ((local post index, raw weight), ...)
    # the core's own coord keys its intra-core fan-out
    synapse_table: dict[tuple[Coord, int], tuple[tuple[int, int], ...]]
    # remote destination -> bitmap of the local neurons connected to it
    conn_bitmaps: dict[Coord, int]
    exec_queue: tuple[int, ...]
    checking_table: dict[int, tuple[Coord, ...]]
    size_report: SizeReport

    @property
    def local_count(self) -> int:
        return len(self.neuron_ids)

    @property
    def dest_map(self) -> dict[Coord, frozenset[int]]:
        """Remote destination -> connected local neurons, from the bitmaps."""
        return {c: frozenset(iter_bits(mask))
                for c, mask in self.conn_bitmaps.items()}

    def local_dests(self, idx: int) -> tuple[Coord, ...]:
        """Remote destinations of one local neuron, row-major order."""
        out = [c for c, mask in self.conn_bitmaps.items() if mask >> idx & 1]
        return tuple(sorted(out, key=lambda c: (c[1], c[0])))


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


def build_bundle(graph: SnnGraph, partition: Partition, core_map: CoreMap,
                 budget: MemoryBudget) -> DeploymentBundle:
    """Assemble per-core artifacts from a placed partition.

    Fails if any cluster exceeds its memory budget; the checking-table size
    is reported against its budget but does not fail the build.
    """
    coords = [core_map.coord_of(ci) for ci in range(len(partition.clusters))]
    local_index: dict[int, int] = {}
    for cluster in partition.clusters:
        for i, n in enumerate(cluster):
            local_index[n] = i

    cores = []
    for ci, cluster in enumerate(partition.clusters):
        coord = coords[ci]
        table: dict[tuple[Coord, int], list[tuple[int, int]]] = {}
        dest_sets: dict[Coord, set[int]] = {}
        for i, n in enumerate(cluster):
            for post, raw in graph.posts(n):
                pc = partition.cluster_of[post]
                if pc == ci:
                    key = (coord, i)
                    table.setdefault(key, []).append((local_index[post], raw))
                else:
                    dest_sets.setdefault(coords[pc], set()).add(i)
        # incoming remote edges keyed by the sender's coordinates
        for i, n in enumerate(cluster):
            for pre, raw in graph.reverse_adjacency[n]:
                pc = partition.cluster_of[pre]
                if pc != ci:
                    key = (coords[pc], local_index[pre])
                    table.setdefault(key, []).append((i, raw))

        dest_map = {c: frozenset(m) for c, m in dest_sets.items()}
        queue, check = build_checking_table(dest_map)
        queue = complete_queue(queue, len(cluster))
        problems = validate_schedule(queue, check, dest_map, len(cluster))
        if problems:
            raise ArtifactError(f"core {coord}: {problems[0]}")
        bitmaps = {}
        for c in sorted(dest_sets, key=lambda c: (c[1], c[0])):
            bitmaps[c] = sum(1 << i for i in dest_sets[c])
        synapse_table = {k: tuple(v) for k, v in sorted(table.items())}
        check_t = {n: tuple(v) for n, v in check.items()}
        report = _size_report(synapse_table, len(cluster), len(bitmaps),
                              check_t, budget)
        if not (report.synapse_fits and report.neuron_fits
                and report.post_conn_fits):
            raise ArtifactError(f"core {coord}: cluster exceeds memory budget")
        cores.append(CoreArtifact(coord, tuple(cluster), synapse_table,
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
    """Cross-check every core's schedule, sizes, and connection bitmaps
    against the bundle's graph; returns violations."""
    problems = []
    graph = bundle.graph
    seen: dict[int, Coord] = {}
    for core in bundle.cores:
        for nid in core.neuron_ids:
            if not 0 <= nid < graph.neuron_count:
                problems.append(f"core {core.coord}: neuron {nid} is not in "
                                f"the graph")
            elif nid in seen:
                problems.append(f"core {core.coord}: neuron {nid} also on "
                                f"core {seen[nid]}")
            seen[nid] = core.coord
    for core in bundle.cores:
        prefix = f"core {core.coord}"
        # destination -> bitmap of the local neurons the graph connects to it
        want: dict[Coord, int] = {}
        for i, nid in enumerate(core.neuron_ids):
            if not 0 <= nid < graph.neuron_count:
                continue
            for post, _ in graph.posts(nid):
                dest = seen.get(post)
                if dest is not None and dest != core.coord:
                    want[dest] = want.get(dest, 0) | 1 << i
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
            list(core.exec_queue), {k: list(v) for k, v in core.checking_table.items()},
            core.dest_map, core.local_count)]
        r = core.size_report
        if not (r.synapse_fits and r.neuron_fits and r.post_conn_fits):
            problems.append(f"{prefix}: memory budget exceeded")
    missing = [n for n in range(graph.neuron_count) if n not in seen]
    if missing:
        problems.append(f"neurons {missing[:8]} not deployed on any core")
    return problems
