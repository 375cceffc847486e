import pytest

from spikenoc.stimulus import StimulusSpec, build_stimulus


def test_none_kind_returns_none():
    assert build_stimulus(StimulusSpec(kind="none"), 10, 5, 8) is None


def test_constant_drives_selected_neurons_every_step():
    spec = StimulusSpec(kind="constant", amplitude=1.0, neurons=(1, 3))
    rows = build_stimulus(spec, 5, 4, 8)
    assert len(rows) == 4
    for row in rows:
        assert row == [0, 256, 0, 256, 0]


def test_pulse_hits_listed_steps_only():
    spec = StimulusSpec(kind="pulse", amplitude=0.5, at=(0, 2, 99))
    rows = build_stimulus(spec, 3, 4, 8)
    amp = 128
    assert rows[0] == [amp] * 3
    assert rows[1] == [0] * 3
    assert rows[2] == [amp] * 3
    assert rows[3] == [0] * 3   # step 99 is beyond the run and ignored


def test_poisson_rate_and_determinism():
    spec = StimulusSpec(kind="poisson", amplitude=1.0, rate=0.25, seed=42)
    rows = build_stimulus(spec, 100, 200, 8)
    hits = sum(1 for row in rows for v in row if v)
    # 20000 Bernoulli(0.25) trials: mean 5000, sigma ~61
    assert abs(hits - 5000) < 4 * 61.3
    assert build_stimulus(spec, 100, 200, 8) == rows
    other = build_stimulus(StimulusSpec(kind="poisson", amplitude=1.0,
                                        rate=0.25, seed=43), 100, 200, 8)
    assert other != rows


def test_amplitude_quantized_like_weights():
    spec = StimulusSpec(kind="constant", amplitude=0.1)
    rows = build_stimulus(spec, 1, 1, 8)
    assert rows[0][0] == 26


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        build_stimulus(StimulusSpec(kind="bananas"), 4, 2, 8)
    with pytest.raises(ValueError):
        build_stimulus(StimulusSpec(kind="poisson", rate=1.5), 4, 2, 8)
    with pytest.raises(ValueError):
        build_stimulus(StimulusSpec(kind="constant", neurons=(5,)), 4, 2, 8)


@pytest.mark.parametrize("bad", [dict(kind="bananas"),
                                 dict(kind="poisson", rate=1.5),
                                 dict(amplitude=float("nan")),
                                 dict(amplitude=float("inf"))])
def test_bad_spec_rejected_at_construction(bad):
    with pytest.raises(ValueError):
        StimulusSpec(**bad)
