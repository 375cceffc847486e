import pytest

from spikenoc.artifact import (ArtifactError, build_bundle, core_from_bytes,
                               core_to_bytes, load_bundle, save_bundle,
                               validate_bundle)
from spikenoc.graph import SnnGraph, quantize_weight
from spikenoc.neurons import LifParams
from spikenoc.partition import CoreMap, MemoryBudget, Partition

A, B = (0, 0), (1, 0)
W = quantize_weight(1.0, 8)


def two_core_bundle(extra_edges=(), budget=None):
    """Neurons 0-2 on core A, 3-5 on core B; i -> i+3 plus extras."""
    adjacency = [[(i + 3, W)] for i in range(3)] + [[], [], []]
    for pre, post in extra_edges:
        adjacency[pre].append((post, W))
    g = SnnGraph(6, adjacency, model=LifParams(tau_m=1.0, refractory_steps=0))
    part = Partition.from_clusters([(0, 1, 2), (3, 4, 5)], 6)
    cm = CoreMap(2, 1, (A, B))
    return build_bundle(g, part, cm, budget or MemoryBudget(neuron_bytes=3 * 24))


class TestBuildBundle:
    def test_destination_map_and_bitmap(self):
        bundle = two_core_bundle()
        a = bundle.core_at(A)
        assert a.dest_map == {B: frozenset({0, 1, 2})}
        assert a.conn_bitmaps == {B: 0b111}
        assert bundle.core_at(B).dest_map == {}

    def test_remote_synapses_keyed_by_sender(self):
        bundle = two_core_bundle()
        b = bundle.core_at(B)
        assert b.synapse_table == {(A, 0): ((0, W),), (A, 1): ((1, W),),
                                   (A, 2): ((2, W),)}

    def test_intra_core_fanout_keyed_by_own_coord(self):
        bundle = two_core_bundle(extra_edges=[(0, 1), (0, 2)])
        a = bundle.core_at(A)
        assert a.synapse_table == {(A, 0): ((1, W), (2, W))}

    def test_schedule_fields(self):
        bundle = two_core_bundle()
        a = bundle.core_at(A)
        assert a.exec_queue == (0, 1, 2)
        assert a.checking_table == {2: (B,)}
        b = bundle.core_at(B)
        assert b.exec_queue == (0, 1, 2)
        assert b.checking_table == {}

    def test_local_dests(self):
        bundle = two_core_bundle()
        a = bundle.core_at(A)
        assert a.local_dests(0) == (B,)
        assert bundle.core_at(B).local_dests(0) == ()

    def test_neuron_ids(self):
        bundle = two_core_bundle()
        assert bundle.core_at(A).neuron_ids == (0, 1, 2)
        assert bundle.core_at(B).neuron_ids == (3, 4, 5)

    def test_size_report(self):
        bundle = two_core_bundle()
        r = bundle.core_at(A).size_report
        assert r.synapse_bytes == 0       # nothing points into core A
        assert r.neuron_bytes == 72
        assert r.post_conn_bytes == MemoryBudget(neuron_bytes=72).dest_entry_bytes
        assert r.checking_table_bytes == 2 + (4 + 4)
        assert r.synapse_fits and r.neuron_fits and r.post_conn_fits

    def test_budget_overflow_fails_build(self):
        with pytest.raises(ArtifactError, match="memory budget"):
            two_core_bundle(budget=MemoryBudget(neuron_bytes=3 * 24,
                                                synapse_bytes=2))


class TestCoreBytes:
    def test_round_trip(self):
        bundle = two_core_bundle(extra_edges=[(0, 1), (4, 3), (2, 4)])
        for core in bundle.cores:
            back = core_from_bytes(core_to_bytes(core), bundle.budget)
            assert back.coord == core.coord
            assert back.neuron_ids == core.neuron_ids
            assert back.synapse_table == core.synapse_table
            assert back.dest_map == core.dest_map
            assert back.conn_bitmaps == core.conn_bitmaps
            assert back.exec_queue == core.exec_queue
            assert back.checking_table == core.checking_table
            assert back.size_report == core.size_report

    def test_bad_magic_rejected(self):
        bundle = two_core_bundle()
        blob = core_to_bytes(bundle.cores[0])
        with pytest.raises(ArtifactError):
            core_from_bytes(b"XXXX" + blob[4:], bundle.budget)


def local_indices_in_range(core) -> bool:
    n = core.local_count
    return (all(post < n for pairs in core.synapse_table.values()
                for post, _ in pairs)
            and all(mask >> n == 0 for mask in core.conn_bitmaps.values())
            and all(i < n for i in core.exec_queue)
            and all(i < n for i in core.checking_table))


class TestCoreBytesFuzz:
    """Malformed images raise ArtifactError, never struct.error or
    IndexError, and never parse into a core that indexes past its neurons."""

    BUNDLE = two_core_bundle(extra_edges=[(0, 1), (4, 3), (2, 4)])
    BLOBS = [core_to_bytes(core) for core in BUNDLE.cores]

    def test_every_prefix_rejected(self):
        for blob in self.BLOBS:
            for end in range(len(blob)):
                with pytest.raises(ArtifactError):
                    core_from_bytes(blob[:end], self.BUNDLE.budget)

    def test_trailing_bytes_rejected(self):
        for blob in self.BLOBS:
            with pytest.raises(ArtifactError, match="trailing"):
                core_from_bytes(blob + b"\0", self.BUNDLE.budget)

    def test_every_byte_flip_rejected_or_in_range(self):
        for blob in self.BLOBS:
            for pos in range(len(blob)):
                for bits in (0x01, 0x80, 0xFF):
                    bad = bytearray(blob)
                    bad[pos] ^= bits
                    try:
                        core = core_from_bytes(bytes(bad), self.BUNDLE.budget)
                    except ArtifactError:
                        continue
                    assert local_indices_in_range(core), (pos, bits)


class TestBundleIo:
    def test_save_load_round_trip(self, tmp_path):
        bundle = two_core_bundle(extra_edges=[(0, 1)])
        d = str(tmp_path / "bundle")
        save_bundle(bundle, d)
        back = load_bundle(d)
        assert back.graph_digest == bundle.graph_digest
        assert back.graph.digest() == bundle.graph.digest()
        assert (back.mesh_width, back.mesh_height) == (2, 1)
        assert back.budget == bundle.budget
        for orig, loaded in zip(bundle.cores, back.cores):
            assert core_to_bytes(orig) == core_to_bytes(loaded)
        assert validate_bundle(back) == []

    def test_corrupted_core_detected(self, tmp_path):
        bundle = two_core_bundle()
        d = str(tmp_path / "bundle")
        save_bundle(bundle, d)
        target = tmp_path / "bundle" / "cores" / "core_0_0.bin"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            load_bundle(d)

    def test_wrong_graph_detected(self, tmp_path):
        from spikenoc.graph import save_binary, build_brunel
        bundle = two_core_bundle()
        d = str(tmp_path / "bundle")
        save_bundle(bundle, d)
        save_binary(build_brunel(10, 2, seed=0), str(tmp_path / "bundle" / "graph.snnb"))
        with pytest.raises(ArtifactError, match="digest"):
            load_bundle(d)


class TestValidateBundle:
    def test_clean(self):
        assert validate_bundle(two_core_bundle()) == []

    def test_bitmap_mismatch_detected(self):
        bundle = two_core_bundle()
        bundle.core_at(A).conn_bitmaps[B] = 0b101
        assert any("bitmap" in v for v in validate_bundle(bundle))

    def test_missing_bitmap_detected(self):
        bundle = two_core_bundle()
        del bundle.core_at(A).conn_bitmaps[B]
        assert any("has no bitmap" in v for v in validate_bundle(bundle))

    def test_neuron_outside_graph_detected(self):
        bundle = two_core_bundle()
        bundle.core_at(A).neuron_ids = (0, 1, 99)
        problems = validate_bundle(bundle)
        assert any("99 is not in the graph" in v for v in problems)
        assert any("not deployed" in v for v in problems)

    def test_duplicate_deployment_detected(self):
        bundle = two_core_bundle()
        bundle.core_at(B).neuron_ids = (0, 4, 5)
        problems = validate_bundle(bundle)
        assert any("also on core" in v for v in problems)
        assert any("not deployed" in v for v in problems)

    def test_self_destination_detected(self):
        bundle = two_core_bundle()
        a = bundle.core_at(A)
        a.conn_bitmaps[A] = 0b1
        assert any("itself" in v for v in validate_bundle(bundle))
