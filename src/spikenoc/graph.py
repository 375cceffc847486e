"""Spiking network container, workload builders, and file formats.

Weights are signed 16-bit fixed point with ``frac_bits`` fractional bits so
that synaptic accumulation is integer arithmetic: the sum of incoming raw
weights is exact and order-independent, which keeps every execution mode
bit-identical regardless of packet arrival order.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

# CPython's built-in SHA-256, as random.py takes its _sha512: importing
# hashlib loads OpenSSL, which costs several MiB of resident memory
try:
    from _sha256 import sha256          # CPython <= 3.11
except ImportError:
    try:
        from _sha2 import sha256        # CPython >= 3.12
    except ImportError:
        from hashlib import sha256

from .neurons import (ModelParams, LifParams, model_kind, params_from_fields,
                      params_to_fields)
from .stimulus import MAX_FRAC_BITS, StepEvents, check_stimulus

RAW_MIN = -(1 << 15)
RAW_MAX = (1 << 15) - 1

_SYNAPSE = struct.Struct("<IIh")    # (pre, post, raw) as the digest hashes it


def quantize_weight(value: float, frac_bits: int) -> int:
    """Round to the nearest representable raw weight, saturating at i16
    even where the product overflows; NaN, kept by min and max, fails."""
    return round(max(min(value * (1 << frac_bits), RAW_MAX), RAW_MIN))


@dataclass(frozen=True)
class LayerTag:
    """Topology coordinates used by locality-aware partitioning."""

    layer: int
    channel: int
    x: int
    y: int


class SnnGraph:
    """Directed weighted synapse graph over neurons ``0..neuron_count-1``.

    ``adjacency[pre]`` is a tuple of ``(post, raw_weight)`` sorted by post id,
    the one copy of the synapses; ``in_degrees[post]`` counts those into post.
    A pair equal to the last one seen for its post (in ascending pre order)
    is that same tuple, so a post whose weight depends only on the pre's
    population holds one tuple per population.  Treated as immutable after
    construction.
    """

    def __init__(self, neuron_count: int, adjacency: list[list[tuple[int, int]]],
                 model: ModelParams | None = None,
                 model_overrides: dict[int, ModelParams] | None = None,
                 frac_bits: int = 8,
                 layer_tags: tuple[LayerTag, ...] | None = None):
        if neuron_count <= 0:
            raise ValueError("graph needs at least one neuron")
        if len(adjacency) != neuron_count:
            raise ValueError("adjacency length != neuron_count")
        check_frac_bits(frac_bits)
        if layer_tags is not None and len(layer_tags) != neuron_count:
            raise ValueError("layer_tags must cover every neuron")
        for nid in model_overrides or {}:
            if not (0 <= nid < neuron_count):
                raise ValueError(f"model override for neuron {nid} out of "
                                 f"range")
        self.neuron_count = neuron_count
        self.frac_bits = frac_bits
        self.model = model if model is not None else LifParams()
        self.model_overrides = dict(model_overrides or {})
        self.layer_tags = layer_tags
        in_degrees = [0] * neuron_count
        last: list[tuple[int, int] | None] = [None] * neuron_count
        rows = []
        for pre, edges in enumerate(adjacency):
            row = sorted(edges)
            for i, pair in enumerate(row):
                post, raw = pair
                if not (0 <= post < neuron_count):
                    raise ValueError(f"synapse {pre}->{post} out of range")
                if not (RAW_MIN <= raw <= RAW_MAX):
                    raise ValueError(f"raw weight {raw} outside i16")
                in_degrees[post] += 1
                seen = last[post]
                if seen is not None and seen[1] == raw:
                    row[i] = seen
                else:
                    last[post] = pair
            rows.append(tuple(row))
        self.adjacency: tuple[tuple[tuple[int, int], ...], ...] = tuple(rows)
        self.in_degrees: tuple[int, ...] = tuple(in_degrees)

    def posts(self, pre: int) -> tuple[tuple[int, int], ...]:
        return self.adjacency[pre]

    def params_of(self, nid: int) -> ModelParams:
        return self.model_overrides.get(nid, self.model)

    @property
    def synapse_count(self) -> int:
        return sum(len(e) for e in self.adjacency)

    def weight_scale(self) -> float:
        return 1.0 / (1 << self.frac_bits)

    def digest(self) -> str:
        h = sha256()
        h.update(f"n={self.neuron_count};fb={self.frac_bits};"
                 f"model={model_kind(self.model)}{sorted(params_to_fields(self.model).items())}".encode())
        for nid in sorted(self.model_overrides):
            p = self.model_overrides[nid]
            h.update(f"ov={nid}:{model_kind(p)}{sorted(params_to_fields(p).items())}".encode())
        if self.layer_tags is not None:
            for t in self.layer_tags:
                h.update(f"t={t.layer},{t.channel},{t.x},{t.y}".encode())
        pack = _SYNAPSE.pack
        for pre, edges in enumerate(self.adjacency):
            h.update(b"".join([pack(pre, post, raw) for post, raw in edges]))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# workload builders
#
# The builders and the config parser range-check a workload with the same
# functions, so a value that would fail a build fails when it is parsed.

def check_frac_bits(frac_bits: int) -> None:
    if not (0 <= frac_bits <= MAX_FRAC_BITS):
        raise ValueError(f"frac_bits must be in [0, {MAX_FRAC_BITS}]; got "
                         f"{frac_bits}")


def check_random_params(n_exc: int, n_inh: int, conn_prob: float,
                        w_exc: float, w_inh: float, frac_bits: int) -> None:
    """Range-check a Brunel network's parameters."""
    check_frac_bits(frac_bits)
    if n_exc < 0 or n_inh < 0 or n_exc + n_inh <= 0:
        raise ValueError(f"n_exc {n_exc} and n_inh {n_inh} must be "
                         f"non-negative with a positive total")
    if not (0.0 < conn_prob <= 1.0):
        raise ValueError(f"conn_prob {conn_prob} outside (0, 1]")
    if not (math.isfinite(w_exc) and math.isfinite(w_inh)):
        raise ValueError(f"weights w_exc {w_exc} and w_inh {w_inh} must be "
                         f"finite")


def build_brunel(n_exc: int, n_inh: int, conn_prob: float = 0.1,
                 w_exc: float = 0.1, w_inh: float = -0.5, seed: int = 0,
                 model: ModelParams | None = None, frac_bits: int = 8) -> SnnGraph:
    """Sparse random excitatory/inhibitory network (classic 4:1 balance).

    Every ordered pair ``pre != post`` is connected independently with
    ``conn_prob``; weight depends on the presynaptic population only.
    """
    import random
    check_random_params(n_exc, n_inh, conn_prob, w_exc, w_inh, frac_bits)
    rng = random.Random(seed)
    n = n_exc + n_inh
    raw_exc = quantize_weight(w_exc, frac_bits)
    raw_inh = quantize_weight(w_inh, frac_bits)
    # one (post, raw) tuple per population and post, shared by its synapses
    pairs_exc = [(post, raw_exc) for post in range(n)]
    pairs_inh = [(post, raw_inh) for post in range(n)]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pre in range(n):
        pairs = pairs_exc if pre < n_exc else pairs_inh
        row = adjacency[pre]
        for post in range(n):
            if pre != post and rng.random() < conn_prob:
                row.append(pairs[post])
    return SnnGraph(n, adjacency, model=model, frac_bits=frac_bits)


@dataclass(frozen=True)
class ConvLayerSpec:
    """One layer of a feed-forward convolutional stack.

    ``kernel``/``stride``/``padding`` describe the convolution that produces
    this layer from the previous one; they are ignored on the first layer.
    """

    channels: int
    width: int
    height: int
    kernel: int = 1
    stride: int = 1
    padding: int = 0


def check_conv_params(layers: list[ConvLayerSpec], w_lo: float, w_hi: float,
                      frac_bits: int) -> None:
    """Range-check a convolutional stack: layer shapes that follow from the
    conv arithmetic, and a finite weight range with ``w_lo <= w_hi``."""
    check_frac_bits(frac_bits)
    if not layers:
        raise ValueError("need at least one layer")
    for i, spec in enumerate(layers):
        if spec.channels < 1 or spec.width < 1 or spec.height < 1:
            raise ValueError(f"layer {i}: non-positive shape")
        if i > 0:
            if spec.kernel < 1 or spec.stride < 1 or spec.padding < 0:
                raise ValueError(f"layer {i}: bad kernel/stride/padding")
            prev = layers[i - 1]
            for name, got, src in (("width", spec.width, prev.width),
                                   ("height", spec.height, prev.height)):
                span = src + 2 * spec.padding - spec.kernel
                if span < 0 or span % spec.stride != 0 or span // spec.stride + 1 != got:
                    raise ValueError(
                        f"layer {i}: declared {name} {got} does not match conv "
                        f"arithmetic from {src} (k={spec.kernel}, s={spec.stride}, "
                        f"p={spec.padding})")
    if not (math.isfinite(w_lo) and math.isfinite(w_hi) and w_lo <= w_hi):
        raise ValueError(f"weight range w_lo {w_lo}, w_hi {w_hi} must be "
                         f"finite with w_lo <= w_hi")


def build_conv_topology(layers: list[ConvLayerSpec], seed: int = 0,
                        w_lo: float = 0.05, w_hi: float = 0.2,
                        model: ModelParams | None = None,
                        frac_bits: int = 8) -> SnnGraph:
    """Unrolled convolutional stack with shared kernels per layer transition.

    Neuron ids are assigned layer-major, then channel, row, column.  Neurons
    at the same (x, y) of different channels in one layer project to exactly
    the same set of targets, since every output channel reads every input
    channel.
    """
    import random
    check_conv_params(layers, w_lo, w_hi, frac_bits)
    rng = random.Random(seed)
    offsets = []
    total = 0
    for spec in layers:
        offsets.append(total)
        total += spec.channels * spec.width * spec.height

    def nid(layer: int, c: int, x: int, y: int) -> int:
        spec = layers[layer]
        return offsets[layer] + c * spec.width * spec.height + y * spec.width + x

    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    for li in range(1, len(layers)):
        src, dst = layers[li - 1], layers[li]
        # one shared kernel per (out_channel, in_channel); drawn once, reused
        # at every spatial position
        kernels = [[[ [quantize_weight(rng.uniform(w_lo, w_hi), frac_bits)
                       for _ in range(dst.kernel)] for _ in range(dst.kernel)]
                    for _ in range(src.channels)] for _ in range(dst.channels)]
        for co in range(dst.channels):
            for yo in range(dst.height):
                for xo in range(dst.width):
                    post = nid(li, co, xo, yo)
                    for ky in range(dst.kernel):
                        yi = yo * dst.stride - dst.padding + ky
                        if not (0 <= yi < src.height):
                            continue
                        for kx in range(dst.kernel):
                            xi = xo * dst.stride - dst.padding + kx
                            if not (0 <= xi < src.width):
                                continue
                            for ci in range(src.channels):
                                adjacency[nid(li - 1, ci, xi, yi)].append(
                                    (post, kernels[co][ci][ky][kx]))

    tags = []
    for li, spec in enumerate(layers):
        for c in range(spec.channels):
            for y in range(spec.height):
                for x in range(spec.width):
                    tags.append(LayerTag(li, c, x, y))
    return SnnGraph(total, adjacency, model=model, frac_bits=frac_bits,
                    layer_tags=tuple(tags))


# ---------------------------------------------------------------------------
# spike trains

@dataclass(frozen=True)
class SpikeTrain:
    """Per-timestep firing sets, each stored as a sorted tuple of neuron ids."""

    neuron_count: int
    steps: tuple[tuple[int, ...], ...]

    def digest(self) -> str:
        h = sha256()
        h.update(f"n={self.neuron_count}".encode())
        for t, fired in enumerate(self.steps):
            h.update(f";{t}:{','.join(map(str, fired))}".encode())
        return h.hexdigest()

    def total_spikes(self) -> int:
        return sum(len(s) for s in self.steps)

    def save_text(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(f"spikes {self.neuron_count} {len(self.steps)}\n")
            for t, fired in enumerate(self.steps):
                f.write(f"{t}: {' '.join(map(str, fired))}\n")

    @staticmethod
    def load_text(path: str) -> "SpikeTrain":
        with open(path) as f:
            head = f.readline().split()
            if len(head) != 3 or head[0] != "spikes":
                raise ValueError(f"{path}: not a spike train file")
            n, t_count = int(head[1]), int(head[2])
            steps = []
            for line in f:
                _, _, rest = line.partition(":")
                steps.append(tuple(int(x) for x in rest.split()))
        if len(steps) != t_count:
            raise ValueError(f"{path}: expected {t_count} timesteps, got {len(steps)}")
        return SpikeTrain(n, tuple(steps))


def reference_simulate(graph: SnnGraph, stimulus: list[StepEvents] | None,
                       timesteps: int, dt: float = 1.0) -> SpikeTrain:
    """Golden single-process simulation of the whole network.

    Synaptic and external input presented during step t is integrated by the
    update that produces step t+1, i.e. both carry one timestep of delay.
    Step 0 therefore never fires from rest.
    """
    n = graph.neuron_count
    check_stimulus(stimulus, n, timesteps)
    states = [None] * n
    params = [None] * n
    from .neurons import rest_state
    for i in range(n):
        params[i] = graph.params_of(i)
        states[i] = rest_state(params[i])
    scale = graph.weight_scale()
    acc = [0] * n
    steps: list[tuple[int, ...]] = []
    from .neurons import step_neuron
    for t in range(timesteps):
        fired = []
        for i in range(n):
            if step_neuron(states[i], params[i], acc[i] * scale, dt):
                fired.append(i)
        steps.append(tuple(fired))
        acc = [0] * n
        for pre in fired:
            for post, raw in graph.posts(pre):
                acc[post] += raw
        if stimulus is not None:
            for i, raw in stimulus[t]:
                acc[i] += raw
    return SpikeTrain(n, tuple(steps))


# ---------------------------------------------------------------------------
# serialization

def _model_lines(graph: SnnGraph) -> list[str]:
    lines = []
    fields = params_to_fields(graph.model)
    body = " ".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    lines.append(f"model {model_kind(graph.model)} {body}")
    for nid in sorted(graph.model_overrides):
        p = graph.model_overrides[nid]
        fields = params_to_fields(p)
        body = " ".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        lines.append(f"nmodel {nid} {model_kind(p)} {body}")
    return lines


def save_text(graph: SnnGraph, path: str) -> None:
    with open(path, "w") as f:
        f.write("snn 1\n")
        f.write(f"neurons {graph.neuron_count}\n")
        f.write(f"frac_bits {graph.frac_bits}\n")
        for line in _model_lines(graph):
            f.write(line + "\n")
        if graph.layer_tags is not None:
            for nid, t in enumerate(graph.layer_tags):
                f.write(f"tag {nid} {t.layer} {t.channel} {t.x} {t.y}\n")
        for pre, edges in enumerate(graph.adjacency):
            for post, raw in edges:
                f.write(f"syn {pre} {post} {raw}\n")


def _parse_params(kind: str, tokens: list[str]) -> ModelParams:
    fields = {}
    for tok in tokens:
        name, _, val = tok.partition("=")
        fields[name] = float(val)
    return params_from_fields(kind, fields)


def load_text(path: str) -> SnnGraph:
    neuron_count = None
    frac_bits = 8
    model: ModelParams | None = None
    overrides: dict[int, ModelParams] = {}
    tags: dict[int, LayerTag] = {}
    synapses: list[tuple[int, int, int]] = []

    def neuron_id(token: str) -> int:
        nid = int(token)
        if neuron_count is None:
            raise ValueError("neuron id before the neurons record")
        if not (0 <= nid < neuron_count):
            raise ValueError(f"neuron id {nid} outside 0..{neuron_count - 1}")
        return nid

    with open(path) as f:
        first = f.readline().split()
        if first[:2] != ["snn", "1"]:
            raise ValueError(f"{path}: not a network file")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "neurons":
                    if neuron_count is not None:
                        raise ValueError("repeated neurons record")
                    neuron_count = int(parts[1])
                    if neuron_count < 1:
                        raise ValueError("graph needs at least one neuron")
                elif parts[0] == "frac_bits":
                    frac_bits = int(parts[1])
                elif parts[0] == "model":
                    model = _parse_params(parts[1], parts[2:])
                elif parts[0] == "nmodel":
                    overrides[neuron_id(parts[1])] = _parse_params(parts[2],
                                                                   parts[3:])
                elif parts[0] == "tag":
                    tags[neuron_id(parts[1])] = LayerTag(
                        *(int(parts[i]) for i in range(2, 6)))
                elif parts[0] == "syn":
                    pre, post = neuron_id(parts[1]), neuron_id(parts[2])
                    raw = int(parts[3])
                    if not (RAW_MIN <= raw <= RAW_MAX):
                        raise ValueError(f"raw weight {raw} outside i16")
                    synapses.append((pre, post, raw))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if neuron_count is None:
        raise ValueError(f"{path}: missing neuron count")
    adjacency = _shared_rows(neuron_count, synapses)
    layer_tags = None
    if tags:
        if len(tags) != neuron_count:
            raise ValueError(f"{path}: tags cover {len(tags)} of {neuron_count} neurons")
        layer_tags = tuple(tags[i] for i in range(neuron_count))
    return SnnGraph(neuron_count, adjacency, model=model, model_overrides=overrides,
                    frac_bits=frac_bits, layer_tags=layer_tags)


def _shared_rows(neuron_count: int, synapses) -> list[list[tuple[int, int]]]:
    """Adjacency rows of ``(pre, post, raw)`` synapses with in-range posts,
    under ``SnnGraph``'s rule: a pair equal to the last one seen for its
    post is that same tuple.  A post's pairs share one post int too."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(neuron_count)]
    last: list[tuple[int, int] | None] = [None] * neuron_count
    for pre, post, raw in synapses:
        pair = last[post]
        if pair is None:
            pair = last[post] = (post, raw)
        elif pair[1] != raw:
            pair = last[post] = (pair[0], raw)
        adjacency[pre].append(pair)
    return adjacency


_MAGIC = b"SNNB"


def _pack_model(params: ModelParams) -> bytes:
    kind = model_kind(params).encode()
    fields = params_to_fields(params)
    out = struct.pack("<B", len(kind)) + kind + struct.pack("<B", len(fields))
    for name in sorted(fields):
        nb = name.encode()
        out += struct.pack("<B", len(nb)) + nb + struct.pack("<d", float(fields[name]))
    return out


class _Reader:
    """Reads little-endian fields in order; a short buffer is a ValueError
    naming the file and the byte offset."""

    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.path = path
        self.off = 0

    def take_bytes(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated at byte {self.off}")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def take(self, fmt: str):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_array(self, items, count: int):
        """Fill the empty ``array`` ``items`` with ``count`` little-endian
        items, read without copying the bytes first; returns it."""
        n = count * items.itemsize
        if self.off + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated at byte {self.off}")
        items.frombytes(memoryview(self.buf)[self.off:self.off + n])
        self.off += n
        if sys.byteorder == "big":
            items.byteswap()
        return items


def _unpack_model(r: _Reader) -> ModelParams:
    start = r.off
    (klen,) = r.take("B")
    kind = r.take_bytes(klen)
    (nfields,) = r.take("B")
    fields = {}
    for _ in range(nfields):
        (nlen,) = r.take("B")
        name = r.take_bytes(nlen)
        fields[name] = r.take("d")[0]
    try:
        return params_from_fields(kind.decode(), {
            name.decode(): val for name, val in fields.items()})
    except ValueError as exc:
        raise ValueError(f"{r.path}: model record at byte {start}: "
                         f"{exc}") from None


def save_binary(graph: SnnGraph, path: str) -> None:
    """Compact little-endian form: header, model records, optional tag block,
    then parallel pre/post/weight arrays."""
    parts = [_MAGIC, struct.pack("<HBBI", 1, graph.frac_bits,
                                 1 if graph.layer_tags is not None else 0,
                                 graph.neuron_count)]
    parts.append(_pack_model(graph.model))
    parts.append(struct.pack("<I", len(graph.model_overrides)))
    for nid in sorted(graph.model_overrides):
        parts.append(struct.pack("<I", nid))
        parts.append(_pack_model(graph.model_overrides[nid]))
    if graph.layer_tags is not None:
        for t in graph.layer_tags:
            parts.append(struct.pack("<iiii", t.layer, t.channel, t.x, t.y))
    pres, posts, raws = [], [], []
    for pre, edges in enumerate(graph.adjacency):
        for post, raw in edges:
            pres.append(pre)
            posts.append(post)
            raws.append(raw)
    m = len(pres)
    parts.append(struct.pack("<Q", m))
    parts.append(struct.pack(f"<{m}I", *pres))
    parts.append(struct.pack(f"<{m}I", *posts))
    parts.append(struct.pack(f"<{m}h", *raws))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_binary(path: str) -> SnnGraph:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic")
    r = _Reader(buf, path)
    r.off = 4
    version, frac_bits, has_tags, neuron_count = r.take("HBBI")
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    if neuron_count < 1:
        raise ValueError(f"{path}: graph needs at least one neuron")
    model = _unpack_model(r)
    (n_over,) = r.take("I")
    overrides = {}
    for _ in range(n_over):
        (nid,) = r.take("I")
        overrides[nid] = _unpack_model(r)
    tags = None
    if has_tags:
        tags = tuple(LayerTag(*r.take("iiii")) for _ in range(neuron_count))
    (m,) = r.take("Q")
    # array is a shared library: only a binary graph's load maps it in
    from array import array
    u32 = "I" if array("I").itemsize == 4 else "L"
    pres = r.take_array(array(u32), m)
    posts = r.take_array(array(u32), m)
    raws = r.take_array(array("h"), m)
    if r.off != len(buf):
        raise ValueError(f"{path}: trailing bytes at byte {r.off}")
    for what, ids in (("synapse source", pres), ("synapse target", posts),
                      ("model override", overrides)):
        if ids and max(ids) >= neuron_count:
            raise ValueError(f"{path}: {what} neuron {max(ids)} outside "
                             f"0..{neuron_count - 1}")
    adjacency = _shared_rows(neuron_count, zip(pres, posts, raws))
    del buf, r, pres, posts, raws       # the rows hold the synapses now
    return SnnGraph(neuron_count, adjacency, model=model,
                    model_overrides=overrides, frac_bits=frac_bits,
                    layer_tags=tags)


def load_graph(path: str) -> SnnGraph:
    """Dispatch on file magic, accepting either format."""
    with open(path, "rb") as f:
        head = f.read(4)
    return load_binary(path) if head == _MAGIC else load_text(path)
