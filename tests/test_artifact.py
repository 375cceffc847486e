import json
import os
import re
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from spikenoc.artifact import (ArtifactError, build_bundle, load_bundle,
                               save_bundle, validate_placement)
from spikenoc.graph import SnnGraph, quantize_weight
from spikenoc.neurons import LifParams
from spikenoc.partition import MemoryBudget
from test_graph import reverse_adjacency

A, B = (0, 0), (1, 0)
W = quantize_weight(1.0, 8)
FAST = LifParams(tau_m=1.0, refractory_steps=0)


def two_core_bundle(extra_edges=(), budget=None):
    """Neurons 0-2 on core A, 3-5 on core B; i -> i+3 plus extras."""
    adjacency = [[(i + 3, W)] for i in range(3)] + [[], [], []]
    for pre, post in extra_edges:
        adjacency[pre].append((post, W))
    g = SnnGraph(6, adjacency, model=FAST)
    return build_bundle(g, {A: (0, 1, 2), B: (3, 4, 5)}, 2, 1,
                        budget or MemoryBudget(neuron_bytes=3 * 24))


def placed(bundle) -> list:
    """The bundle's cores as ``validate_placement`` entries."""
    return [(c.coord, c.neuron_ids) for c in bundle.cores]


class TestBuildBundle:
    def test_destination_map_and_bitmap(self):
        bundle = two_core_bundle()
        assert bundle.cores[0].conn_bitmaps == {B: 0b111}
        assert bundle.cores[1].conn_bitmaps == {}

    def test_bitmaps_in_row_major_destination_order(self):
        # core (1, 0) feeds (1, 1) through neuron 0 and (0, 0) through neuron 1
        g = SnnGraph(4, [[(2, W), (1, W)], [(3, W)], [], []], model=FAST)
        bundle = build_bundle(g, {(1, 0): (0, 1), (1, 1): (2,), A: (3,)},
                              2, 2, MemoryBudget(neuron_bytes=2 * 24))
        src = bundle.cores[0]
        assert list(src.conn_bitmaps.items()) == [(A, 0b10), ((1, 1), 0b01)]

    def test_remote_synapses_keyed_by_sender(self):
        bundle = two_core_bundle()
        b = bundle.cores[1]
        assert b.synapse_table == {(A, 0): ((0, W),), (A, 1): ((1, W),),
                                   (A, 2): ((2, W),)}

    def test_intra_core_fanout_keyed_by_own_coord(self):
        bundle = two_core_bundle(extra_edges=[(0, 1), (0, 2)])
        a = bundle.cores[0]
        assert a.synapse_table == {(A, 0): ((1, W), (2, W))}

    def test_schedule_fields(self):
        bundle = two_core_bundle()
        a = bundle.cores[0]
        assert a.exec_queue == (0, 1, 2)
        assert a.checking_table == {2: (B,)}
        b = bundle.cores[1]
        assert b.exec_queue == (0, 1, 2)
        assert b.checking_table == {}

    def test_local_dests(self):
        # a neuron's remote destinations are the bitmaps holding its bit
        bundle = two_core_bundle(extra_edges=[(4, 1)])
        a, b = bundle.cores[0], bundle.cores[1]
        assert [c for c, mask in a.conn_bitmaps.items() if mask & 1] == [B]
        assert [c for c, mask in b.conn_bitmaps.items() if mask & 1] == []
        assert [c for c, mask in b.conn_bitmaps.items() if mask & 2] == [A]

    def test_pair_order(self):
        # clusters list neurons out of id order: remote pairs ascend by
        # local post, intra-core pairs follow the graph's post order
        g = SnnGraph(6, [[(1, W), (2, 2 * W), (3, W), (4, W), (5, W)],
                         [], [], [], [], []], model=FAST)
        bundle = build_bundle(g, {A: (0, 2, 1), B: (5, 4, 3)}, 2, 1,
                              MemoryBudget(neuron_bytes=3 * 24))
        assert bundle.cores[0].synapse_table == {
            (A, 0): ((2, W), (1, 2 * W))}
        assert bundle.cores[1].synapse_table == {
            (A, 0): ((0, W), (1, W), (2, W))}

    def test_neuron_ids(self):
        bundle = two_core_bundle()
        assert bundle.cores[0].neuron_ids == (0, 1, 2)
        assert bundle.cores[1].neuron_ids == (3, 4, 5)

    def test_size_report(self):
        bundle = two_core_bundle()
        r = bundle.cores[0].size_report
        assert r.synapse_bytes == 0       # nothing points into core A
        assert r.neuron_bytes == 72
        assert r.post_conn_bytes == MemoryBudget(neuron_bytes=72).dest_entry_bytes
        assert r.checking_table_bytes == 2 + (4 + 4)
        assert r.synapse_fits and r.neuron_fits and r.post_conn_fits

    def test_budget_overflow_fails_build(self):
        with pytest.raises(ArtifactError, match="memory budget"):
            two_core_bundle(budget=MemoryBudget(neuron_bytes=3 * 24,
                                                synapse_bytes=2))


class TestBundleIo:
    def test_save_load_round_trip(self, tmp_path):
        bundle = two_core_bundle(extra_edges=[(0, 1)])
        d = str(tmp_path / "bundle")
        save_bundle(bundle, d)
        assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == [
            "graph.snnb", "manifest.json"]
        back = load_bundle(d)
        assert back.graph.digest() == bundle.graph.digest()
        assert (back.mesh_width, back.mesh_height) == (2, 1)
        assert back.budget == bundle.budget
        assert_same_cores(back.cores, bundle.cores)
        assert validate_placement(back.graph, placed(back), 2, 1) == []

    def test_corrupted_core_detected(self, tmp_path):
        # core A's entry lists neuron 4, which core B holds, instead of 2
        d = saved(tmp_path, two_core_bundle())
        edit_manifest(d, lambda m: m["cores"][0].update(neurons=[0, 1, 4]))
        with pytest.raises(ArtifactError) as err:
            load_bundle(d)
        assert f"core {B}: neuron 4 also on core {A}" in str(err.value)
        assert "neurons [2] not deployed on any core" in str(err.value)

    def test_wrong_graph_detected(self, tmp_path):
        from spikenoc.graph import save_binary, build_brunel
        bundle = two_core_bundle()
        d = str(tmp_path / "bundle")
        save_bundle(bundle, d)
        save_binary(build_brunel(10, 2, seed=0), str(tmp_path / "bundle" / "graph.snnb"))
        with pytest.raises(ArtifactError, match="digest"):
            load_bundle(d)

    def test_changed_size_report_detected(self, tmp_path):
        d = saved(tmp_path, two_core_bundle())
        edit_manifest(d, lambda m: m["cores"][1]["size_report"].update(
            synapse_bytes=4))
        with pytest.raises(ArtifactError,
                           match=re.escape(f"core {B}: stored size report")):
            load_bundle(d)

    def test_frac_bits_must_match_the_graph(self, tmp_path):
        d = saved(tmp_path, two_core_bundle())
        edit_manifest(d, lambda m: m.update(frac_bits=m["frac_bits"] + 1))
        with pytest.raises(ArtifactError, match="frac_bits"):
            load_bundle(d)

    def test_budget_overflow_on_load_names_the_core(self, tmp_path):
        d = saved(tmp_path, two_core_bundle())
        edit_manifest(d, lambda m: m["budget"].update(synapse_bytes=2))
        with pytest.raises(ArtifactError,
                           match=re.escape(f"core {B}: cluster exceeds memory")):
            load_bundle(d)


def saved(tmp_path, bundle) -> str:
    d = str(tmp_path / "bundle")
    save_bundle(bundle, d)
    return d


def edit_manifest(bundle_dir: str, edit) -> None:
    """Apply ``edit`` to the parsed manifest and write it back."""
    path = os.path.join(bundle_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    edit(manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)


def assert_same_cores(got, want) -> None:
    """Field by field, including the order of every table."""
    assert [c.coord for c in got] == [c.coord for c in want]
    for g, w in zip(got, want):
        assert g.neuron_ids == w.neuron_ids
        assert list(g.synapse_table.items()) == list(w.synapse_table.items())
        assert list(g.conn_bitmaps.items()) == list(w.conn_bitmaps.items())
        assert g.exec_queue == w.exec_queue
        assert (list(g.checking_table.items())
                == list(w.checking_table.items()))
        assert g.size_report == w.size_report


class TestCoreBytes:
    """The bytes a core is loaded from: its entry in ``manifest.json``,
    derived against ``graph.snnb``."""

    def test_round_trip(self, tmp_path):
        bundle = two_core_bundle(extra_edges=[(0, 1), (4, 3), (2, 4)])
        assert_same_cores(load_bundle(saved(tmp_path, bundle)).cores,
                          bundle.cores)

    def test_bad_magic_rejected(self, tmp_path):
        # the manifest's version identifies the format; version 1 stored
        # core images
        d = saved(tmp_path, two_core_bundle())
        edit_manifest(d, lambda m: m.update(version=1))
        with pytest.raises(ArtifactError,
                           match=r"manifest.json: unsupported bundle version 1"):
            load_bundle(d)


def local_indices_in_range(core) -> bool:
    n = core.local_count
    return (all(post < n for pairs in core.synapse_table.values()
                for post, _ in pairs)
            and all(mask >> n == 0 for mask in core.conn_bitmaps.values())
            and all(i < n for i in core.exec_queue)
            and all(i < n for i in core.checking_table))


class TestCoreBytesFuzz:
    """A malformed ``manifest.json`` raises ArtifactError, never a JSON,
    Unicode, Key or Type error, and never loads into a core that indexes past
    its neurons."""

    BUNDLE = two_core_bundle(extra_edges=[(0, 1), (4, 3), (2, 4)])

    @pytest.fixture
    def manifest(self, tmp_path):
        d = saved(tmp_path, self.BUNDLE)
        path = tmp_path / "bundle" / "manifest.json"
        return d, path, path.read_bytes()

    def test_every_prefix_rejected(self, manifest):
        d, path, blob = manifest
        assert blob.endswith(b"}\n")
        for end in range(len(blob) - 1):
            path.write_bytes(blob[:end])
            with pytest.raises(ArtifactError):
                load_bundle(d)

    def test_trailing_bytes_rejected(self, manifest):
        d, path, blob = manifest
        for tail in (b"\0", b"x", b"{}", b"]"):
            path.write_bytes(blob + tail)
            with pytest.raises(ArtifactError, match="manifest.json"):
                load_bundle(d)

    def test_every_byte_flip_rejected_or_in_range(self, manifest):
        d, path, blob = manifest
        for pos in range(len(blob)):
            for bits in (0x01, 0x80, 0xFF):
                bad = bytearray(blob)
                bad[pos] ^= bits
                path.write_bytes(bytes(bad))
                try:
                    back = load_bundle(d)
                except ArtifactError:
                    continue
                assert validate_placement(back.graph, placed(back),
                                          back.mesh_width,
                                          back.mesh_height) == [], (pos, bits)
                assert all(local_indices_in_range(c) for c in back.cores), (
                    pos, bits)


class TestManifestFuzz:
    """Every malformed placement or manifest field raises ArtifactError that
    names the manifest (and the core, where there is one), never KeyError,
    TypeError or a half-built bundle."""

    BUNDLE = two_core_bundle(extra_edges=[(0, 1), (4, 3), (2, 4)])

    def load_edited(self, tmp_path, edit) -> str:
        d = saved(tmp_path, self.BUNDLE)
        edit_manifest(d, edit)
        with pytest.raises(ArtifactError) as err:
            load_bundle(d)
        message = str(err.value)
        assert "manifest.json" in message
        return message

    @pytest.mark.parametrize("entry", [0, 1])
    def test_every_truncated_entry_rejected(self, tmp_path, entry):
        for keep in range(3):
            message = self.load_edited(tmp_path, lambda m: m["cores"][entry]
                                       .update(neurons=m["cores"][entry]
                                               ["neurons"][:keep]))
            assert "not deployed on any core" in message

    @pytest.mark.parametrize("entry", [0, 1])
    def test_missing_entry_rejected(self, tmp_path, entry):
        message = self.load_edited(tmp_path,
                                   lambda m: m["cores"].pop(entry))
        assert "not deployed on any core" in message

    @pytest.mark.parametrize("entry", [0, 1])
    def test_duplicated_entry_rejected(self, tmp_path, entry):
        coord = self.BUNDLE.cores[entry].coord
        message = self.load_edited(tmp_path, lambda m: m["cores"].append(
            m["cores"][entry]))
        assert f"core {coord}: coordinate held by two cores" in message
        assert f"core {coord}: neuron" in message

    @pytest.mark.parametrize("nid", [6, -1, 2 ** 40])
    def test_id_outside_graph_rejected(self, tmp_path, nid):
        message = self.load_edited(tmp_path, lambda m: m["cores"][1].update(
            neurons=[3, 4, nid]))
        assert f"core {B}: neuron {nid} is not in the graph" in message

    @pytest.mark.parametrize("coord", [[2, 0], [0, 1], [-1, 0]])
    def test_core_off_mesh_rejected(self, tmp_path, coord):
        message = self.load_edited(tmp_path, lambda m: m["cores"][1].update(
            coord=coord))
        assert f"core {tuple(coord)}: outside the 2x1 mesh" in message

    @pytest.mark.parametrize("field,value", [
        ("neuron_bytes", 384.5), ("post_conn_bytes", 1e300),
        ("synapse_bytes", 103168.0), ("bytes_per_neuron_state", True)])
    def test_non_integer_budget_field_rejected(self, tmp_path, field, value):
        message = self.load_edited(tmp_path, lambda m: m["budget"].update(
            {field: value}))
        assert f"{field} must be an integer" in message

    @pytest.mark.parametrize("key", ["coord", "neurons", "size_report"])
    def test_every_bad_entry_field_rejected(self, tmp_path, key):
        for value in (None, "x", 1.5, True, [], [0], [5, 5], ["0", 0],
                      {"coord": 1}):
            def edit(m):
                m["cores"][0][key] = value
            self.load_edited(tmp_path, edit)
        self.load_edited(tmp_path, lambda m: m["cores"][0].pop(key))

    @pytest.mark.parametrize("key", ["version", "mesh_width", "mesh_height",
                                     "frac_bits", "graph_digest", "budget",
                                     "cores"])
    def test_every_bad_header_field_rejected(self, tmp_path, key):
        for value in (None, "x", 1.5, [], {"a": 1}):
            def edit(m):
                m[key] = value
            self.load_edited(tmp_path, edit)
        self.load_edited(tmp_path, lambda m: m.pop(key))


class TestValidateBundle:
    """``validate_placement`` over a bundle's placement, edited."""

    BUNDLE = two_core_bundle()

    def test_clean(self):
        assert validate_placement(self.BUNDLE.graph, placed(self.BUNDLE),
                                  2, 1) == []

    def test_neuron_outside_graph_detected(self):
        problems = validate_placement(self.BUNDLE.graph,
                                      [(A, (0, 1, 99)), (B, (3, 4, 5))], 2, 1)
        assert any("99 is not in the graph" in v for v in problems)
        assert any("not deployed" in v for v in problems)

    def test_duplicate_deployment_detected(self):
        problems = validate_placement(self.BUNDLE.graph,
                                      [(A, (0, 1, 2)), (B, (0, 4, 5))], 2, 1)
        assert any("also on core" in v for v in problems)
        assert any("not deployed" in v for v in problems)

    def test_core_off_mesh_detected(self):
        problems = validate_placement(self.BUNDLE.graph,
                                      [(A, (0, 1, 2)), ((2, 0), (3, 4, 5))],
                                      2, 1)
        assert f"core (2, 0): outside the 2x1 mesh" in problems

    def test_shared_coordinate_detected(self):
        problems = validate_placement(self.BUNDLE.graph,
                                      [(A, (0, 1, 2)), (A, (3, 4, 5))], 2, 1)
        assert f"core {A}: coordinate held by two cores" in problems


# -- random deployments --------------------------------------------------------

@st.composite
def deployments(draw):
    """A random small graph, cut into random clusters, placed on random
    cells of a random mesh."""
    n = draw(st.integers(2, 24))
    raw = st.integers(-300, 300).filter(bool)
    adjacency = [draw(st.lists(st.tuples(st.integers(0, n - 1), raw),
                               max_size=6)) for _ in range(n)]
    g = SnnGraph(n, adjacency, model=FAST)
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(n, 6)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1,
                                max_size=k - 1, unique=True)))
    clusters = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    width = draw(st.integers(1, 4))
    height = draw(st.integers(-(-len(clusters) // width), 6))
    cells = [(x, y) for y in range(height) for x in range(width)]
    coords = draw(st.permutations(cells))[:len(clusters)]
    cap = max(len(c) for c in clusters)
    bundle = build_bundle(g, dict(zip(coords, clusters)), width, height,
                          MemoryBudget(neuron_bytes=cap * 24))
    return bundle, draw(st.randoms(use_true_random=False))


def names(core, problems) -> bool:
    return any(p.startswith(f"core {core.coord}:") for p in problems)


def two_pass_tables(graph, clusters, coords):
    """Each core's synapse table and bitmaps as the deployment code built
    them before ``derive_tables``: outgoing edges give the intra-core keys
    and the bitmaps, incoming edges (in the reverse adjacency's order)
    give the remote keys."""
    cluster_of = {n: ci for ci, c in enumerate(clusters) for n in c}
    local_index = {n: i for c in clusters for i, n in enumerate(c)}
    reverse = reverse_adjacency(graph)
    out = []
    for ci, cluster in enumerate(clusters):
        coord = coords[ci]
        table, dest_sets = {}, {}
        for i, n in enumerate(cluster):
            for post, raw in graph.posts(n):
                if cluster_of[post] == ci:
                    table.setdefault((coord, i), []).append(
                        (local_index[post], raw))
                else:
                    dest_sets.setdefault(coords[cluster_of[post]],
                                         set()).add(i)
        for i, n in enumerate(cluster):
            for pre, raw in reverse[n]:
                if cluster_of[pre] != ci:
                    key = (coords[cluster_of[pre]], local_index[pre])
                    table.setdefault(key, []).append((i, raw))
        bitmaps = {c: sum(1 << i for i in dest_sets[c])
                   for c in sorted(dest_sets, key=lambda c: (c[1], c[0]))}
        out.append(({k: tuple(v) for k, v in sorted(table.items())}, bitmaps))
    return out


@given(deployments())
@settings(max_examples=100, deadline=None)
def test_random_bundle_validates(case):
    bundle, _ = case
    assert validate_placement(bundle.graph, placed(bundle), bundle.mesh_width,
                              bundle.mesh_height) == []


@given(deployments())
@settings(max_examples=100, deadline=None)
def test_tables_equal_two_pass_derivation(case):
    bundle, _ = case
    want = two_pass_tables(bundle.graph, [c.neuron_ids for c in bundle.cores],
                           [c.coord for c in bundle.cores])
    for core, (table, bitmaps) in zip(bundle.cores, want):
        assert list(core.synapse_table.items()) == list(table.items())
        assert list(core.conn_bitmaps.items()) == list(bitmaps.items())


@given(deployments())
@settings(max_examples=75, deadline=None)
def test_core_moved_off_mesh_names_the_core(case):
    bundle, rng = case
    entries = placed(bundle)
    i = rng.randrange(len(entries))
    coord = rng.choice([(bundle.mesh_width, rng.randrange(8)),
                        (rng.randrange(8), bundle.mesh_height)])
    entries[i] = (coord, entries[i][1])
    problems = validate_placement(bundle.graph, entries, bundle.mesh_width,
                                  bundle.mesh_height)
    assert f"core {coord}: outside the {bundle.mesh_width}x" \
           f"{bundle.mesh_height} mesh" in problems


@given(deployments())
@settings(max_examples=60, deadline=None)
def test_save_load_equals_build_bundle(case):
    bundle, _ = case
    with tempfile.TemporaryDirectory() as d:
        save_bundle(bundle, d)
        back = load_bundle(d)
    assert (back.mesh_width, back.mesh_height, back.graph.frac_bits,
            back.graph.digest(), back.budget) == (
        bundle.mesh_width, bundle.mesh_height, bundle.graph.frac_bits,
        bundle.graph.digest(), bundle.budget)
    assert_same_cores(back.cores, bundle.cores)
