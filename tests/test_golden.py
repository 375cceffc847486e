"""Golden outputs: the exact bytes ``spikenoc simulate --trace`` and
``spikenoc partition`` write.

The simulate digests were taken from the simulator before its NoC hot path
was rewritten.  A change to arbitration order, flit timing or accounting shows
up here as a changed ``trace.csv``, ``packets.csv`` or ``report.json``, even
when the spike trains and totals still agree.  The bundle digests were taken
before the core artifact stopped storing its destination map next to its
connection bitmaps; they pin the on-disk bundle format.  Regenerate these
digests only with a change that means to alter the model's output or the
bundle format, and say so in CHANGES.md.
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

NETWORKS = {"brunel": BRUNEL, "conv": CONV}

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
            "076121af8e91e44910ac43a1121d0047d6edc2e0cfa303b831eef977a62d21c4",
        "graph.snnb":
            "f5fc2eb002fb778bab6dd96b15be7c0f4c9b13c21450900c95fc8e0bc9533090",
        "cores/core_0_0.bin":
            "fc7dd00e79c1288cb4c9aaed58446cbd36d9e99c2a200fe74d59c0cf4834bffd",
        "cores/core_0_1.bin":
            "d12b42a1298a138a1610a2d2089c20e9f2f645374d4bbe0636b5a53a8dec5032",
        "cores/core_0_2.bin":
            "9dbd29f45769b86483edee05775cfbeb2913fed5869c99b81b44fe12918e7bb5",
        "cores/core_1_0.bin":
            "866aa1ea47e778dd590e99dcf445ef674cae42483636feebbe01fa5a217bc125",
        "cores/core_1_1.bin":
            "c3a37a10b4b8600b38827d903c74d8b493f5c938e62455238c828e144280121a",
        "cores/core_1_2.bin":
            "feccf2222ec01fc79583c45437613af4969184c1b092ea1084509a43baef19dd",
        "cores/core_2_0.bin":
            "3a9afe02a54151ed1105db257f00df93c230d764ae27bcb6fa8daa14d35ab14f",
        "cores/core_2_1.bin":
            "9f469ceee7ef59a8e4d2a5ef8c93e5f678c2ca2cf1a33c35f0e9ab9aa7169a0b",
        "cores/core_2_2.bin":
            "5b1212415920dcba646ace1b1c691ef95bf59dfb6a3e13341e17ec6a9dcb38e0",
    },
    ("brunel", "hsfc-sss"): {
        "manifest.json":
            "46a182297898374b4408c5dff4a906e621ae233b603c2448b9003c4782e11cc3",
        "graph.snnb":
            "f5fc2eb002fb778bab6dd96b15be7c0f4c9b13c21450900c95fc8e0bc9533090",
        "cores/core_0_0.bin":
            "42d44a204c181d5899e0f82543c2a3c60e2456eae7e489c61cf119f92ee17074",
        "cores/core_0_1.bin":
            "a10d43cc6987f6bdf25be62b8a96d4c44bef871d2b8e4108bcd4f21ee78a09bf",
        "cores/core_0_2.bin":
            "57198070460f27257e6f89562fa780c74097284bebbdcb9263d68f13e000c225",
        "cores/core_1_0.bin":
            "df75ddce2148c57b5437925d59a223bf20a0dc74784a445275d3e79233941df6",
        "cores/core_1_1.bin":
            "4661ea9bd6d756c3d80e28ef1acd5525c6e58a6d0e0e1515fb5c8b0cd51df759",
        "cores/core_1_2.bin":
            "c9bc9177845ec3aa454511b033d2dcf15e20c9f31bab135f259585ec6c9317ed",
        "cores/core_2_0.bin":
            "8854c640940908ce8933e8f701f61071bdf125da87612967d3c988845b257e9c",
        "cores/core_2_1.bin":
            "8656e9894f6e3cb4eeff64e10a333a2e3ad4be15eb0cf1467c4ca203bd976424",
        "cores/core_2_2.bin":
            "d164806ce2e29f6010556e9b9109c40dbe3840f01e89a5b908b60741fd5a42b7",
    },
    ("conv", "hsfc"): {
        "manifest.json":
            "f3b9b7a40243540624178e70d90689a4a129354b5e84116ff82e47f4a6cd5c1a",
        "graph.snnb":
            "41683c758cf100d18ad3aca76dfe80831caae435afd065461ca2b9a85b7450e1",
        "cores/core_0_0.bin":
            "63db1395a60345072f1c8dc8b5d6a272836f075d9c81889c3b6aabb39d9a62d0",
        "cores/core_0_1.bin":
            "a0107603f99ff91a2f7ef57d4322ef607d341c0e8ced27afc90c471f841bc4a3",
        "cores/core_0_2.bin":
            "7e41413259334b1fab22810802157999819255096f25dfc7c61b3ff902581d21",
        "cores/core_0_3.bin":
            "3682ac687d094a86420ddefdef5ede87a4e8d6ca9825ace9426e1f97293bfcbc",
        "cores/core_1_0.bin":
            "c82d2c0288b036780aba2382c5460ab13131bdc06766df5fb887c752616ac784",
        "cores/core_1_1.bin":
            "17d618fa16f390003bc446602e23be1ed72f8f52e57d8aef28b643531649b841",
        "cores/core_1_2.bin":
            "1507096a964c1ab0ffb7f74336d1ff3263cc8f795ad7a6e6d6f867ffe727ac72",
        "cores/core_1_3.bin":
            "9124b860a7658c4bbf61ba1ab4efc9e9add6c935a10ca2cccf3998f01f07c7c4",
        "cores/core_2_0.bin":
            "73976feeceb82691c3904dfb783d8960d5f14bdfd66bf497128477051e1dea98",
        "cores/core_2_1.bin":
            "fadf4cdb17eaf97b1a57d9ccb74802b53a6f47ec6e097681fb8f0acf802daa26",
        "cores/core_2_2.bin":
            "534649b4e12ba2edb6dc217b94e6d0d13d9d87e0e847bdf8a814147867f48790",
        "cores/core_2_3.bin":
            "7cb72bd6bcf60d399d39d9148029e10b11d54fb9ebb90296edbe8c0e067da9cb",
        "cores/core_3_0.bin":
            "ddbf9632bb029a6aa62183d34a76317f485b9d6332d506f3f07e1d85d5a365df",
        "cores/core_3_1.bin":
            "ab7591c0271791e030909f6e6c468de7f41299a3b0405de76773a3342f6cb487",
        "cores/core_3_2.bin":
            "ea96c5009e52a87cfae0fa55682656aca201da0d7d0e6a19d9665ee563ee4138",
        "cores/core_3_3.bin":
            "6ddd92e1dbab4e4a401b2020f6cc2d3d847200299ba502ad30e2dd69a9fe1207",
    },
    ("conv", "hsfc-sss"): {
        "manifest.json":
            "f3b9b7a40243540624178e70d90689a4a129354b5e84116ff82e47f4a6cd5c1a",
        "graph.snnb":
            "41683c758cf100d18ad3aca76dfe80831caae435afd065461ca2b9a85b7450e1",
        "cores/core_0_0.bin":
            "63db1395a60345072f1c8dc8b5d6a272836f075d9c81889c3b6aabb39d9a62d0",
        "cores/core_0_1.bin":
            "a0107603f99ff91a2f7ef57d4322ef607d341c0e8ced27afc90c471f841bc4a3",
        "cores/core_0_2.bin":
            "7e41413259334b1fab22810802157999819255096f25dfc7c61b3ff902581d21",
        "cores/core_0_3.bin":
            "3682ac687d094a86420ddefdef5ede87a4e8d6ca9825ace9426e1f97293bfcbc",
        "cores/core_1_0.bin":
            "c82d2c0288b036780aba2382c5460ab13131bdc06766df5fb887c752616ac784",
        "cores/core_1_1.bin":
            "17d618fa16f390003bc446602e23be1ed72f8f52e57d8aef28b643531649b841",
        "cores/core_1_2.bin":
            "1507096a964c1ab0ffb7f74336d1ff3263cc8f795ad7a6e6d6f867ffe727ac72",
        "cores/core_1_3.bin":
            "9124b860a7658c4bbf61ba1ab4efc9e9add6c935a10ca2cccf3998f01f07c7c4",
        "cores/core_2_0.bin":
            "73976feeceb82691c3904dfb783d8960d5f14bdfd66bf497128477051e1dea98",
        "cores/core_2_1.bin":
            "fadf4cdb17eaf97b1a57d9ccb74802b53a6f47ec6e097681fb8f0acf802daa26",
        "cores/core_2_2.bin":
            "534649b4e12ba2edb6dc217b94e6d0d13d9d87e0e847bdf8a814147867f48790",
        "cores/core_2_3.bin":
            "7cb72bd6bcf60d399d39d9148029e10b11d54fb9ebb90296edbe8c0e067da9cb",
        "cores/core_3_0.bin":
            "ddbf9632bb029a6aa62183d34a76317f485b9d6332d506f3f07e1d85d5a365df",
        "cores/core_3_1.bin":
            "ab7591c0271791e030909f6e6c468de7f41299a3b0405de76773a3342f6cb487",
        "cores/core_3_2.bin":
            "ea96c5009e52a87cfae0fa55682656aca201da0d7d0e6a19d9665ee563ee4138",
        "cores/core_3_3.bin":
            "6ddd92e1dbab4e4a401b2020f6cc2d3d847200299ba502ad30e2dd69a9fe1207",
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
