import gc
import hashlib
import math
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spikenoc.graph import (ConvLayerSpec, LayerTag, SnnGraph, SpikeTrain,
                            _pack_model, build_brunel, build_conv_topology,
                            load_binary, load_graph, load_text,
                            quantize_weight, reference_simulate, save_binary,
                            save_text, sha256)
from spikenoc.neurons import (IzhikevichParams, LifParams, model_kind,
                              params_to_fields)


def chain_graph(n=3, w=1.0, model=None):
    """0 -> 1 -> ... -> n-1 with uniform weight."""
    adjacency = [[(i + 1, quantize_weight(w, 8))] if i + 1 < n else []
                 for i in range(n)]
    return SnnGraph(n, adjacency, model=model or LifParams(tau_m=1.0,
                                                           refractory_steps=0))


class TestQuantize:
    def test_rounding(self):
        assert quantize_weight(0.1, 8) == 26          # 25.6 rounds up
        assert quantize_weight(-0.5, 8) == -128
        assert quantize_weight(0.0, 8) == 0
        assert quantize_weight(1.0, 4) == 16

    def test_saturation(self):
        assert quantize_weight(1000.0, 8) == 32767
        assert quantize_weight(-1000.0, 8) == -32768

    def test_saturation_when_the_product_overflows(self):
        # 1e307 * 2**15 is not a finite float
        assert quantize_weight(1e307, 15) == 32767
        assert quantize_weight(-1e307, 15) == -32768
        assert quantize_weight(-1e307, 0) == -32768

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            quantize_weight(float("nan"), 8)


class TestRandomBuilders:
    def test_edge_count_within_binomial_bounds(self):
        n_exc, n_inh, p = 160, 40, 0.1
        g = build_brunel(n_exc, n_inh, conn_prob=p, seed=11)
        n = n_exc + n_inh
        trials = n * (n - 1)
        mean = trials * p
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(g.synapse_count - mean) <= 3 * sigma

    def test_no_self_connections(self):
        g = build_brunel(40, 10, seed=2)
        for pre in range(g.neuron_count):
            assert all(post != pre for post, _ in g.posts(pre))

    def test_weight_depends_on_presynaptic_population(self):
        g = build_brunel(40, 10, w_exc=0.1, w_inh=-0.5, seed=3)
        w_exc_raw = quantize_weight(0.1, 8)
        w_inh_raw = quantize_weight(-0.5, 8)
        for pre in range(40):
            assert all(raw == w_exc_raw for _, raw in g.posts(pre))
        for pre in range(40, 50):
            assert all(raw == w_inh_raw for _, raw in g.posts(pre))

    def test_same_seed_same_graph(self):
        a = build_brunel(30, 10, seed=7)
        b = build_brunel(30, 10, seed=7)
        assert a.digest() == b.digest()
        assert build_brunel(30, 10, seed=8).digest() != a.digest()

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            build_brunel(0, 0)
        with pytest.raises(ValueError):
            build_brunel(10, 10, conn_prob=0.0)
        with pytest.raises(ValueError):
            build_brunel(10, 10, conn_prob=1.5)
        with pytest.raises(ValueError, match="must be finite"):
            build_brunel(10, 10, w_inh=float("-inf"))

    @pytest.mark.parametrize("frac_bits", [-1, 16])
    def test_frac_bits_checked_before_quantising(self, frac_bits):
        # -1 used to surface as the shift's own "negative shift count"
        want = rf"frac_bits must be in \[0, 15\]; got {frac_bits}"
        with pytest.raises(ValueError, match=want):
            build_brunel(4, 1, frac_bits=frac_bits)
        with pytest.raises(ValueError, match=want):
            build_conv_topology([ConvLayerSpec(1, 2, 2),
                                 ConvLayerSpec(1, 2, 2, kernel=1)],
                                frac_bits=frac_bits)


class TestConvTopology:
    def test_valid_padding_window_synapse_count(self):
        # 4x4 input, 3x3 kernel, stride 1, no padding -> 2x2 output,
        # every output reads a full 3x3 window: 4 * 9 = 36 synapses
        g = build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 2, 2, kernel=3)])
        assert g.neuron_count == 20
        assert g.synapse_count == 36

    def test_window_membership(self):
        g = build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 2, 2, kernel=3)])
        # output (xo, yo) at id 16 + 2*yo + xo reads inputs x in xo..xo+2,
        # y in yo..yo+2 at id 4*y + x
        for yo in range(2):
            for xo in range(2):
                post = 16 + 2 * yo + xo
                want = {4 * y + x
                        for y in range(yo, yo + 3) for x in range(xo, xo + 3)}
                got = {pre for pre in range(16)
                       if any(p == post for p, _ in g.posts(pre))}
                assert got == want

    def test_kernel_weights_shared_across_positions(self):
        g = build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 2, 2, kernel=3)], seed=3)

        def weight(pre, post):
            return dict(g.posts(pre))[post]

        # same kernel tap (ky=1, kx=1) at both output positions
        assert weight(4 * 1 + 1, 16) == weight(4 * 2 + 2, 19)
        # tap (0, 0) vs (0, 0) of the other corner
        assert weight(0, 16) == weight(4 * 1 + 1, 19)

    def test_same_position_channels_share_targets(self):
        g = build_conv_topology([ConvLayerSpec(2, 4, 4),
                                 ConvLayerSpec(3, 2, 2, kernel=3)], seed=1)
        # channel 0 and channel 1 of input position (1, 1); (1, 1) lies in
        # all four 3x3 windows, so 4 positions x 3 channels
        a = {p for p, _ in g.posts(4 * 1 + 1)}
        b = {p for p, _ in g.posts(16 + 4 * 1 + 1)}
        assert a == b and len(a) == 12

    def test_padding_clips_windows(self):
        g = build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 4, 4, kernel=3, stride=1,
                                               padding=1)])
        # output (0, 0) window is x, y in -1..1 clipped to 0..1: 4 inputs
        post = 16
        got = {pre for pre in range(16)
               if any(p == post for p, _ in g.posts(pre))}
        assert got == {0, 1, 4, 5}

    def test_layer_tags_cover_all_neurons(self):
        g = build_conv_topology([ConvLayerSpec(2, 3, 3),
                                 ConvLayerSpec(1, 3, 3, kernel=1)])
        assert g.layer_tags is not None and len(g.layer_tags) == g.neuron_count
        assert g.layer_tags[0] == LayerTag(0, 0, 0, 0)
        assert g.layer_tags[3] == LayerTag(0, 0, 0, 1)   # row-major within channel
        assert g.layer_tags[9] == LayerTag(0, 1, 0, 0)   # next channel
        assert g.layer_tags[18] == LayerTag(1, 0, 0, 0)  # next layer

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 3, 3, kernel=3)])
        with pytest.raises(ValueError):
            build_conv_topology([ConvLayerSpec(1, 4, 4),
                                 ConvLayerSpec(1, 2, 2, kernel=3, stride=0)])
        with pytest.raises(ValueError):
            build_conv_topology([])

    def test_weight_range_must_be_ordered(self):
        layers = [ConvLayerSpec(1, 3, 3), ConvLayerSpec(1, 3, 3, kernel=3,
                                                        padding=1)]
        with pytest.raises(ValueError, match="w_lo <= w_hi"):
            build_conv_topology(layers, w_lo=1.0, w_hi=0.0)
        g = build_conv_topology(layers, w_lo=0.5, w_hi=0.5)
        assert {raw for edges in g.adjacency for _, raw in edges} == {128}


def reverse_adjacency(g: SnnGraph) -> list[list[tuple[int, int]]]:
    """``[post] -> sorted (pre, raw)``, built from the forward adjacency."""
    rev: list[list[tuple[int, int]]] = [[] for _ in range(g.neuron_count)]
    for pre, edges in enumerate(g.adjacency):
        for post, raw in edges:
            rev[post].append((pre, raw))
    return [sorted(r) for r in rev]


class TestGraphStructure:
    def test_reverse_adjacency_consistent(self):
        g = build_brunel(30, 10, seed=9)
        rev = reverse_adjacency(g)
        forward = {(pre, post, raw)
                   for pre in range(g.neuron_count)
                   for post, raw in g.posts(pre)}
        backward = {(pre, post, raw)
                    for post in range(g.neuron_count)
                    for pre, raw in rev[post]}
        assert forward == backward
        assert list(g.in_degrees) == [len(r) for r in rev]

    def test_in_degree(self):
        g = chain_graph(3)
        assert g.in_degrees == (0, 1, 1)

    def test_weight_scale(self):
        assert chain_graph().weight_scale() == 1.0 / 256
        g = build_brunel(10, 2, seed=0, frac_bits=4)
        assert g.weight_scale() == 1.0 / 16

    def test_adjacency_is_sorted_by_post(self):
        g = build_brunel(40, 10, seed=4)
        for pre in range(g.neuron_count):
            posts = [p for p, _ in g.posts(pre)]
            assert posts == sorted(posts)

    @pytest.mark.parametrize("nid", [-1, 2, 9])
    def test_model_override_outside_graph_rejected(self, nid):
        with pytest.raises(ValueError,
                           match=f"model override for neuron {nid} out of range"):
            SnnGraph(2, [[], []], model_overrides={nid: LifParams()})


class TestReferenceSimulate:
    def test_chain_fires_one_step_apart(self):
        g = chain_graph(3)
        # drive neuron 0 during step 0
        stim = [((0, quantize_weight(1.0, 8)),)] + [()] * 4
        train = reference_simulate(g, stim, 5)
        assert train.steps == ((), (0,), (1,), (2,), ())

    def test_step_zero_never_fires_from_rest(self):
        g = build_brunel(30, 10, seed=1)
        stim = [tuple((i, 10_000) for i in range(40))] * 3
        train = reference_simulate(g, stim, 3)
        assert train.steps[0] == ()
        assert len(train.steps[1]) == 40

    def test_no_stimulus_means_silence(self):
        g = build_brunel(30, 10, seed=1)
        assert reference_simulate(g, None, 10).total_spikes() == 0

    def test_stimulus_too_short_rejected(self):
        g = chain_graph(2)
        with pytest.raises(ValueError):
            reference_simulate(g, [()], 5)

    def test_inhibition_cancels_excitation(self):
        # two inputs of +1.0 and -1.0 into neuron 2: net zero, never fires
        adj = [[(2, quantize_weight(1.0, 8))], [(2, quantize_weight(-1.0, 8))], []]
        g = SnnGraph(3, adj, model=LifParams(tau_m=1.0, refractory_steps=0))
        amp = quantize_weight(2.0, 8)
        stim = [((0, amp), (1, amp))] * 6
        train = reference_simulate(g, stim, 6)
        assert all(2 not in fired for fired in train.steps)


class TestSpikeTrain:
    def test_round_trip(self, tmp_path):
        train = SpikeTrain(5, ((), (0, 3), (1,), ()))
        path = str(tmp_path / "spikes.txt")
        train.save_text(path)
        back = SpikeTrain.load_text(path)
        assert back == train
        assert back.digest() == train.digest()

    def test_digest_sensitive_to_timing(self):
        a = SpikeTrain(4, ((0,), ()))
        b = SpikeTrain(4, ((), (0,)))
        assert a.digest() != b.digest()

    def test_total(self):
        assert SpikeTrain(4, ((0, 1), (2,), ())).total_spikes() == 3

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("not a train\n")
        with pytest.raises(ValueError):
            SpikeTrain.load_text(str(p))


class TestSerialization:
    @pytest.mark.parametrize("save,load", [(save_text, load_text),
                                           (save_binary, load_binary)])
    def test_round_trip_preserves_everything(self, tmp_path, save, load):
        g = build_conv_topology([ConvLayerSpec(2, 3, 3),
                                 ConvLayerSpec(2, 3, 3, kernel=3, padding=1)],
                                seed=6, model=IzhikevichParams(a=0.03),
                                frac_bits=7)
        path = str(tmp_path / "net.bin")
        save(g, path)
        back = load(path)
        assert back.digest() == g.digest()
        assert back.frac_bits == g.frac_bits
        assert back.model == g.model
        assert back.layer_tags == g.layer_tags
        assert back.adjacency == g.adjacency

    def test_round_trip_without_tags(self, tmp_path):
        g = build_brunel(20, 5, seed=1)
        path = str(tmp_path / "net.snnb")
        save_binary(g, path)
        back = load_binary(path)
        assert back.digest() == g.digest()
        assert back.layer_tags is None

    def test_load_graph_dispatches_on_content(self, tmp_path):
        g = build_brunel(12, 3, seed=2)
        t = str(tmp_path / "a.snn")
        b = str(tmp_path / "a.snnb")
        save_text(g, t)
        save_binary(g, b)
        assert load_graph(t).digest() == g.digest()
        assert load_graph(b).digest() == g.digest()

    def test_truncated_binary_names_file_and_offset(self, tmp_path):
        # a tagged graph with a model override, so every block is present
        g = SnnGraph(3, [[(1, 5), (2, -3)], [(2, 7)], []],
                     model=IzhikevichParams(a=0.03),
                     model_overrides={1: LifParams(tau_m=4.0)}, frac_bits=7,
                     layer_tags=tuple(LayerTag(0, 0, x, 0) for x in range(3)))
        path = str(tmp_path / "net.snnb")
        save_binary(g, path)
        with open(path, "rb") as f:
            blob = f.read()
        cut = str(tmp_path / "cut.snnb")
        for n in range(len(blob)):
            with open(cut, "wb") as f:
                f.write(blob[:n])
            want = "bad magic" if n < 4 else "truncated at byte"
            with pytest.raises(ValueError, match=want) as err:
                load_binary(cut)
            assert str(err.value).startswith(cut)
        with open(cut, "wb") as f:
            f.write(blob + b"\0")
        with pytest.raises(ValueError,
                           match=f"trailing bytes at byte {len(blob)}"):
            load_binary(cut)
        assert load_binary(path).digest() == g.digest()

    @pytest.mark.parametrize("line,needle", [
        ("syn 7 1 5", "neuron id 7 outside 0..2"),
        ("syn -1 1 5", "neuron id -1 outside 0..2"),
        ("syn 0 3 5", "neuron id 3 outside 0..2"),
        ("tag 5 0 0 0 0", "neuron id 5 outside 0..2"),
        ("tag 0 0 0 0", "index out of range"),
        ("nmodel 9 lif tau_m=2.0", "neuron id 9 outside 0..2"),
        ("neurons 4", "repeated neurons record"),
        ("syn 0 1 99999", "raw weight 99999 outside i16"),
        ("syn 0 1 -32769", "raw weight -32769 outside i16"),
    ])
    def test_text_ids_checked_with_file_and_line(self, tmp_path, line, needle):
        path = tmp_path / "net.snn"
        path.write_text(f"snn 1\nneurons 3\nsyn 0 1 5\n{line}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: .*{needle}"):
            load_text(str(path))

    def test_text_id_before_neuron_count_rejected(self, tmp_path):
        path = tmp_path / "net.snn"
        path.write_text("snn 1\nsyn 0 1 5\nneurons 3\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: neuron "
                                             r"id before the neurons record"):
            load_text(str(path))

    @pytest.mark.parametrize("count", [0, -2])
    def test_text_empty_graph_named_with_file_and_line(self, tmp_path, count):
        path = tmp_path / "net.snn"
        path.write_text(f"snn 1\nneurons {count}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "
                                             r"graph needs at least one neuron"):
            load_text(str(path))

    def test_binary_empty_graph_named_with_file(self, tmp_path):
        path = tmp_path / "net.snnb"
        save_binary(SnnGraph(1, [[]]), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 0)     # magic, version, frac, tags
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: "
                                             r"graph needs at least one neuron"):
            load_binary(str(path))

    @pytest.mark.parametrize("what", ["synapse source", "synapse target",
                                      "model override"])
    def test_binary_ids_checked_with_file(self, tmp_path, what):
        g = SnnGraph(3, [[(1, 5), (2, -3)], [(2, 7)], []],
                     model_overrides={1: LifParams(tau_m=4.0)})
        path = tmp_path / "net.snnb"
        save_binary(g, str(path))
        blob = bytearray(path.read_bytes())
        m = g.synapse_count
        offset = {"synapse source": len(blob) - 10 * m,
                  "synapse target": len(blob) - 6 * m,
                  # magic, header, default model, override count
                  "model override": 4 + 8 + len(_pack_model(g.model)) + 4}
        struct.pack_into("<I", blob, offset[what], 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: {what} "
                                 r"neuron 7 outside 0\.\.2"):
            load_binary(str(path))

    @pytest.mark.parametrize("value,needle", [
        ("0.0", "tau_m must be positive; got 0.0"),
        ("nan", "tau_m must be finite; got nan"),
    ])
    def test_bad_model_parameter_named_with_file_and_line(self, tmp_path,
                                                          value, needle):
        path = tmp_path / "net.snn"
        path.write_text(f"snn 1\nneurons 3\nmodel lif tau_m={value}\n")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:3: {needle}"):
            load_text(str(path))

    @pytest.mark.parametrize("value,needle", [
        (0.0, "tau_m must be positive; got 0.0"),
        (float("nan"), "tau_m must be finite; got nan"),
    ])
    def test_bad_model_parameter_named_with_file(self, tmp_path, value,
                                                 needle):
        path = tmp_path / "net.snnb"
        save_binary(SnnGraph(3, [[], [], []]), str(path))
        blob = bytearray(path.read_bytes())
        at = blob.index(b"tau_m") + len(b"tau_m")
        struct.pack_into("<d", blob, at, value)
        path.write_bytes(bytes(blob))
        # the default model record follows the magic and the header
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: model record "
                                 rf"at byte 12: {needle}"):
            load_binary(str(path))

    def test_digest_changes_with_weights(self):
        a = build_brunel(20, 5, w_exc=0.1, seed=1)
        b = build_brunel(20, 5, w_exc=0.2, seed=1)
        assert a.digest() != b.digest()


@given(st.lists(st.binary(max_size=300), max_size=12))
@settings(max_examples=200, deadline=None)
def test_sha256_equals_hashlib(chunks):
    ours, theirs = sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.hexdigest() == theirs.hexdigest()
    assert sha256(b"".join(chunks)).hexdigest() == theirs.hexdigest()


def per_synapse_digest(g: SnnGraph) -> str:
    """``SnnGraph.digest`` as first written: one ``struct.pack`` and one
    hash update per synapse."""
    h = hashlib.sha256()
    h.update(f"n={g.neuron_count};fb={g.frac_bits};"
             f"model={model_kind(g.model)}"
             f"{sorted(params_to_fields(g.model).items())}".encode())
    for nid in sorted(g.model_overrides):
        p = g.model_overrides[nid]
        h.update(f"ov={nid}:{model_kind(p)}"
                 f"{sorted(params_to_fields(p).items())}".encode())
    if g.layer_tags is not None:
        for t in g.layer_tags:
            h.update(f"t={t.layer},{t.channel},{t.x},{t.y}".encode())
    for pre, edges in enumerate(g.adjacency):
        for post, raw in edges:
            h.update(struct.pack("<IIh", pre, post, raw))
    return h.hexdigest()


@st.composite
def graphs(draw):
    """Graphs with empty rows, extreme weights, model overrides and tags."""
    n = draw(st.integers(1, 12))
    raws = st.sampled_from([-(1 << 15), -1, 0, 1, (1 << 15) - 1])
    adjacency = [draw(st.dictionaries(st.integers(0, n - 1),
                                      raws | st.integers(-300, 300),
                                      max_size=n)).items()
                 for _ in range(n)]
    models = st.sampled_from([LifParams(), LifParams(tau_m=3.0),
                              IzhikevichParams()])
    overrides = draw(st.dictionaries(st.integers(0, n - 1), models,
                                     max_size=3))
    tags = draw(st.none() | st.just(tuple(
        LayerTag(i % 2, i % 3, i, n - i) for i in range(n))))
    return SnnGraph(n, [list(e) for e in adjacency], model=draw(models),
                    model_overrides=overrides, frac_bits=draw(st.integers(0, 15)),
                    layer_tags=tags)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_digest_equals_the_per_synapse_formula(g):
    assert g.digest() == per_synapse_digest(g)


@pytest.fixture
def built_from(monkeypatch):
    """Every adjacency handed to ``SnnGraph``, copied as it arrived."""
    seen = []
    init = SnnGraph.__init__

    def recording(self, neuron_count, adjacency, *args, **kwargs):
        seen.append([list(edges) for edges in adjacency])
        init(self, neuron_count, adjacency, *args, **kwargs)

    monkeypatch.setattr(SnnGraph, "__init__", recording)
    return seen


def plain_adjacency(adjacency):
    """The constructor's adjacency without any sharing of equal pairs."""
    return tuple(tuple(sorted(edges)) for edges in adjacency)


def tuples_per_post(adjacency) -> list[int]:
    """How many distinct pair objects, by identity, each post is named by."""
    ids: list[set[int]] = [set() for _ in range(len(adjacency))]
    for edges in adjacency:
        for pair in edges:
            ids[pair[0]].add(id(pair))
    return [len(s) for s in ids]


class TestPairSharing:
    def test_brunel_post_holds_one_tuple_per_population(self, tmp_path,
                                                        built_from):
        g = build_brunel(480, 120, 0.1, seed=3)
        path = str(tmp_path / "g.snnb")
        save_binary(g, path)
        loaded = load_binary(path)
        for graph, adjacency in zip((g, loaded), built_from):
            # builder and loader alike make no tuple per synapse on the way
            assert max(tuples_per_post(adjacency)) <= 2
            assert max(tuples_per_post(graph.adjacency)) <= 2
            assert graph.adjacency == plain_adjacency(adjacency)
            assert graph.digest() == g.digest()

    def test_conv_adjacency_is_unchanged(self, tmp_path, built_from):
        layers = [ConvLayerSpec(2, 8, 8), ConvLayerSpec(3, 6, 6, kernel=3),
                  ConvLayerSpec(2, 3, 3, kernel=2, stride=2)]
        g = build_conv_topology(layers, seed=5)
        assert g.adjacency == plain_adjacency(built_from[0])
        assert g.synapse_count == sum(map(len, built_from[0]))
        path = str(tmp_path / "g.snnb")
        save_binary(g, path)
        loaded = load_binary(path)
        assert loaded.adjacency == g.adjacency
        assert loaded.digest() == g.digest()

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(-3, 3)),
                                      max_size=6),
                             min_size=n, max_size=n))))
    @settings(max_examples=150, deadline=None)
    def test_sharing_keeps_every_synapse(self, case):
        n, adjacency = case
        g = SnnGraph(n, adjacency)
        assert g.adjacency == plain_adjacency(adjacency)
        assert g.in_degrees == tuple(
            sum(post == i for edges in adjacency for post, _ in edges)
            for i in range(n))


def traced(fn):
    """``fn()``, with the traced memory it leaves held and its traced peak,
    both counted from the call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def test_brunel_build_and_load_peak_near_the_graph(tmp_path):
    # a tuple per synapse on the way, as a fresh (post, raw) per append,
    # reads 6.4x the graph on build and 9.7x on load
    build_brunel(10, 2)         # first-use allocations land here
    g, graph_bytes, peak = traced(lambda: build_brunel(480, 120,
                                                      conn_prob=0.1))
    assert peak <= 2.5 * graph_bytes
    path = str(tmp_path / "g.snnb")
    save_binary(g, path)
    loaded, _, peak = traced(lambda: load_binary(path))
    assert loaded.digest() == g.digest()
    assert peak <= 4 * graph_bytes
