"""Golden outputs: the exact bytes ``spikenoc simulate --trace`` and
``spikenoc partition`` write.

The simulate digests were taken from the simulator before its NoC hot path
was rewritten.  A change to arbitration order, flit timing or accounting shows
up here as a changed ``trace.csv``, ``packets.csv`` or ``report.json``, even
when the spike trains and totals still agree.  The bundle digests pin the
on-disk bundle format: ``graph.snnb`` and the version-2 ``manifest.json``
(placement, budget and size reports; the per-core tables are derived on
load, not stored).  The ``graph.snnb`` digests predate that format and did
not change with it.  Regenerate these digests only with a change that means
to alter the model's output or the bundle format, and say so in CHANGES.md.
"""

import hashlib

import pytest

from spikenoc.cli import main

BRUNEL = """
[workload]
kind = brunel
n_exc = 80
n_inh = 20
conn_prob = 0.1
w_exc = 0.4
w_inh = -0.3
seed = 5

[run]
timesteps = 12
stimulus = poisson
stim_amplitude = 12.0
stim_rate = 0.15
stim_seed = 5

[partition]
partitioner = hsfc
neuron_bytes = 288

[mesh]
width = 3
height = 3
"""

CONV = """
[workload]
kind = conv
layers = 1x8x8, 4x8x8 k3 s1 p1
seed = 2

[run]
timesteps = 8
stimulus = constant
stim_amplitude = 12.0

[partition]
partitioner = hsfc
neuron_bytes = 480

[mesh]
width = 4
height = 4
"""

# LIF's 2-step refractory period under constant drive repeats the traffic
# every third step, so most of these steps are replayed, not simulated
CONV_30 = CONV.replace("timesteps = 8", "timesteps = 30")

NETWORKS = {"brunel": BRUNEL, "conv": CONV, "conv30": CONV_30}

# (network, buffers, mode) -> sha256 of report.json, packets.csv, trace.csv
GOLDEN = {
    ("brunel", "default", "baseline"): (
        "d1e7b5f960506dac476e2be43ca1f29ae9c4305c48d35575139a347898f90fe8",
        "f79d1be20051baffa20d6e78afa77a172457ff12c34a8cc8f15f1981f11b5a80",
        "b7e1047b7c64dfb3674ea24f1a0f04c8208d2ce11e91649d3c1575d9a6a42da0"),
    ("brunel", "default", "unispike"): (
        "68eaca3be2cbc67f8dbfd1c5ca4aadd82b81d17d6392e0ddf10079e04e6ce6ce",
        "98f02f2b28771113a17a936eb95997421691c9217c4ec18753af484ef8ab53fe",
        "ff2d980fd845574ba84cb0c68d4f202057ae239a7264000d4e16e55f5ef893b7"),
    ("brunel", "edge", "baseline"): (
        "7bac52e8809b13ba711156b518b6cce0f40dd487f3177cc2706f5e9d80672d2c",
        "abcecef820dfd17908a6381a33f621f1043699e5cff296f075356b617b95868e",
        "6de4c8df203acf788c73f756f3f8948bf12cb943b3b60cc04d2c9bbf5cbe7458"),
    ("brunel", "edge", "unispike"): (
        "c0b01f3152e404b47669f73d551b650a9550ba66d12a70680b6df71584a58ccc",
        "20f383255d14851a3940b81fb139efe8f309f8a284040c12631f3d4728d977fd",
        "677f031131ad873acb8c351cd07e61e7aaff6455c0990716ce16b019f69994d5"),
    ("conv", "default", "baseline"): (
        "e36b675eb1994f820a68e1577755199412ad6ea44a3b38ebc74aa242fdba2a3e",
        "7d51df83bf01da7cfebea7128cb5f7b27a07a19ebdf6807f18993d31959d9f1e",
        "046d3dd4aaced3353b8da054b2315e8f3dc71f25cea75360b2e9f9d76c36e55b"),
    ("conv", "default", "unispike"): (
        "2875fff70aabfd4907f939f432912561d63d4d21f4609aada8f86cdc914622cc",
        "acb9f97cd1736db95cf53319c375d9051b0478d68994066ad469fa5f2cf8d109",
        "1c50880db9ea46b640f6c2c91acc9d5073238133e5d613e81fa71e5a402e8bc4"),
    ("conv", "edge", "baseline"): (
        "59bf76c129ce8df4185fa2be39fc29f1f4a5e74a4e64c6c562ae2491819785bb",
        "263dde604da20d9cb251e776a69e624f634794bc5f1c11130dacb37a3f606795",
        "694d0be782ded61d819e34961e74b242f27adad0d1f86bab451f2252937d90ce"),
    ("conv", "edge", "unispike"): (
        "ef0afe183325684f10c960aaa0cba6bb1b94ae8593c0d235d6b72a5b95a1b0f8",
        "764687a51992cc93b6e52b233bc1bb101dd1c294f7cd7e5df90bd21fb0ed0133",
        "95d4f370afcc524e4a79633c605797b46430d464e10def46b3d46570601f39c4"),
    # taken from the simulator before it replayed repeated steps
    ("conv30", "default", "baseline"): (
        "dad835903650af7bdc2086619b56e9632c7e117df1353758d97af46a3c8082c2",
        "f66585645f51ded5cef497075b18ac3b589100c1c83c091c2f23e21cc2845816",
        "0ef1f3e6c9e753aeb7647681b79f5a581e18a3f8416b63e10fef429550f7805d"),
    ("conv30", "default", "unispike"): (
        "eba90260dccb97180642186670260606e05f86afc97535106ca58899d4949340",
        "0cef8eb12873e54a615ba7070d2e5b61fc9f19fc7d9170823bab4045a8e5d9e9",
        "f4bb5104fe8113c551ebba365a3e75fed6793168644465818bc6dee59c0b4973"),
    ("conv30", "edge", "baseline"): (
        "bf9a5ce94a988ff945776f19ee7c50487e13ffa7aaa92a6a57a4d028802a2999",
        "9c4fe117d8a61542729f92a0093c73c747627e357fb2cc0dfa18a9cd53a8c829",
        "8c1ff45084b3bbc9a0b53f308be897e87999beff5a2d97a5cb1c96d40464d90f"),
    ("conv30", "edge", "unispike"): (
        "9dcf045347cdcfc93c694350324849f6f5e92effc1d65d5c231175f67177bf87",
        "66cc423583b04e9441eebf4a6cae9ec6e506ab35c48f4f10cbc0b6f1cf05c125",
        "660de853aa9fae3d8b2c1a6515580da7494b6f2e9c4e30d6cce8de7f026583c2"),
}


def _config(network: str, buffers: str) -> str:
    text = NETWORKS[network]
    if buffers == "edge":
        # the smallest buffers every knob allows
        text = text.replace("[mesh]\n", "[mesh]\nvcs = 1\nvc_buffer_depth = 1\n")
        text += "\n[core]\noutput_queue_packets = 1\nmax_body = 1\n"
    return text


def simulate_digests(tmp_path, network: str, buffers: str, mode: str):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_config(network, buffers))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--mode", mode, "--trace",
                 "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("report.json", "packets.csv", "trace.csv"))


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_simulate_outputs_match_golden_digests(tmp_path, key):
    assert simulate_digests(tmp_path, *key) == GOLDEN[key]


# (network, partitioner) -> sha256 of every file ``spikenoc partition`` writes
BUNDLE_GOLDEN = {
    ("brunel", "hsfc"): {
        "manifest.json":
            "1289d1b14d3d35f4275c616bf8276bac12e7d6cdf6b06fa5ea3bad17f7935152",
        "graph.snnb":
            "f5fc2eb002fb778bab6dd96b15be7c0f4c9b13c21450900c95fc8e0bc9533090",
    },
    ("brunel", "hsfc-sss"): {
        "manifest.json":
            "c7a68538fd877e292a00ee9e2c95132669dbe8ca11f8213cef649504a768e6ae",
        "graph.snnb":
            "f5fc2eb002fb778bab6dd96b15be7c0f4c9b13c21450900c95fc8e0bc9533090",
    },
    ("conv", "hsfc"): {
        "manifest.json":
            "d84d6b217525dcca38a85316e6ce136c1110d0a0051913447c0729ad916662c9",
        "graph.snnb":
            "41683c758cf100d18ad3aca76dfe80831caae435afd065461ca2b9a85b7450e1",
    },
    ("conv", "hsfc-sss"): {
        "manifest.json":
            "d84d6b217525dcca38a85316e6ce136c1110d0a0051913447c0729ad916662c9",
        "graph.snnb":
            "41683c758cf100d18ad3aca76dfe80831caae435afd065461ca2b9a85b7450e1",
    },
}


def partition_digests(tmp_path, network: str, partitioner: str):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(NETWORKS[network])
    out = tmp_path / "bundle"
    assert main(["partition", "--config", str(cfg), "--partitioner",
                 partitioner, "--out", str(out)]) == 0
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*") if path.is_file()}


@pytest.mark.parametrize("key", sorted(BUNDLE_GOLDEN), ids="-".join)
def test_partition_outputs_match_golden_digests(tmp_path, key):
    assert partition_digests(tmp_path, *key) == BUNDLE_GOLDEN[key]
