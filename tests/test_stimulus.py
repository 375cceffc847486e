import hashlib

import pytest

from spikenoc.stimulus import StimulusSpec, build_stimulus


def event_digest(steps):
    """sha256 of every ``(step, neuron, raw)`` event, in step order."""
    h = hashlib.sha256()
    for t, events in enumerate(steps):
        for n, raw in events:
            h.update(f"{t} {n} {raw}\n".encode())
    return h.hexdigest()


# (spec, neuron count, timesteps, frac_bits) -> event count and digest.  The
# digests were taken from the non-zero entries of the dense [step][neuron]
# rows that the builder returned before it produced events, so the drive
# every pinned run sees is unchanged.  The last case is izh-quiet's drive.
PINNED_EVENTS = [
    (StimulusSpec(kind="constant", amplitude=12.0,
                  neurons=tuple(range(256))), 2304, 20, 8, 5120,
     "5aab9999040321aa01b9a125eae662c4bc7555a577f1e936d544f2071b44d8e5"),
    (StimulusSpec(kind="pulse", amplitude=0.75, at=(0, 3, 7, 99),
                  neurons=(5, 1, 9, 2)), 12, 10, 8, 12,
     "0a9ece47f7dbc211825cb52745b28c41eca3b0c19da484039ccddb29957925c5"),
    (StimulusSpec(kind="poisson", amplitude=-1.5, rate=0.3,
                  neurons=(40, 3, 17, 8, 29, 3), seed=9), 50, 60, 6, 109,
     "023a68f4aef0f709dcf79a36afae51dd274a9a91fb7f44581580601b679e2d56"),
    (StimulusSpec(kind="poisson", amplitude=12.0, rate=0.02, seed=3),
     5120, 300, 8, 30553,
     "5a2a6b39bdb818b0271dd7e00b00775f9c86aa5a226acc282350c8eb0d8ec643"),
]


@pytest.mark.parametrize("spec, neurons, timesteps, frac_bits, count, digest",
                         PINNED_EVENTS,
                         ids=["constant", "pulse", "poisson", "izh-quiet"])
def test_events_are_pinned(spec, neurons, timesteps, frac_bits, count,
                           digest):
    steps = build_stimulus(spec, neurons, timesteps, frac_bits)
    assert len(steps) == timesteps
    for events in steps:
        ids = [n for n, _ in events]
        assert ids == sorted(set(ids))      # ascending, each neuron once
        assert all(raw != 0 for _, raw in events)
    assert sum(len(events) for events in steps) == count
    assert event_digest(steps) == digest


def test_duplicate_targets_and_steps_drive_once():
    amp = 256
    pulse = build_stimulus(StimulusSpec(kind="pulse", amplitude=1.0,
                                        at=(2, 2, 0), neurons=(3, 1, 3)),
                           4, 3, 8)
    assert pulse == [((1, amp), (3, amp)), (), ((1, amp), (3, amp))]
    constant = build_stimulus(StimulusSpec(kind="constant", amplitude=1.0,
                                           neurons=(2, 0, 2)), 3, 2, 8)
    assert constant == [((0, amp), (2, amp))] * 2
    # at rate 1 every draw hits, and a twice-listed neuron still gets amp once
    poisson = build_stimulus(StimulusSpec(kind="poisson", amplitude=1.0,
                                          rate=1.0, neurons=(1, 1, 0)),
                             2, 2, 8)
    assert poisson == [((0, amp), (1, amp))] * 2


def test_zero_amplitude_presents_no_events():
    spec = StimulusSpec(kind="constant", amplitude=0.001)    # rounds to 0
    assert build_stimulus(spec, 4, 3, 8) == [(), (), ()]


def test_none_kind_returns_none():
    assert build_stimulus(StimulusSpec(kind="none"), 10, 5, 8) is None


def test_constant_drives_selected_neurons_every_step():
    spec = StimulusSpec(kind="constant", amplitude=1.0, neurons=(1, 3))
    steps = build_stimulus(spec, 5, 4, 8)
    assert len(steps) == 4
    for events in steps:
        assert events == ((1, 256), (3, 256))


def test_pulse_hits_listed_steps_only():
    spec = StimulusSpec(kind="pulse", amplitude=0.5, at=(0, 2, 99))
    steps = build_stimulus(spec, 3, 4, 8)
    amp = 128
    assert steps[0] == ((0, amp), (1, amp), (2, amp))
    assert steps[1] == ()
    assert steps[2] == ((0, amp), (1, amp), (2, amp))
    assert steps[3] == ()   # step 99 is beyond the run and ignored


def test_poisson_rate_and_determinism():
    spec = StimulusSpec(kind="poisson", amplitude=1.0, rate=0.25, seed=42)
    steps = build_stimulus(spec, 100, 200, 8)
    hits = sum(len(events) for events in steps)
    # 20000 Bernoulli(0.25) trials: mean 5000, sigma ~61
    assert abs(hits - 5000) < 4 * 61.3
    assert build_stimulus(spec, 100, 200, 8) == steps
    other = build_stimulus(StimulusSpec(kind="poisson", amplitude=1.0,
                                        rate=0.25, seed=43), 100, 200, 8)
    assert other != steps


def test_amplitude_quantized_like_weights():
    spec = StimulusSpec(kind="constant", amplitude=0.1)
    steps = build_stimulus(spec, 1, 1, 8)
    assert steps[0] == ((0, 26),)


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


@pytest.mark.parametrize("amplitude", [1e307, -1e307])
def test_amplitude_must_stay_finite_in_fixed_point(amplitude):
    with pytest.raises(ValueError, match="not finite in fixed point"):
        StimulusSpec(amplitude=amplitude)


def test_largest_fixed_point_amplitude_accepted():
    amplitude = 1.7e308 / (1 << 15)
    steps = build_stimulus(StimulusSpec(kind="constant", amplitude=amplitude),
                           1, 1, 15)
    assert steps[0] == ((0, round(amplitude * (1 << 15))),)


@pytest.mark.parametrize("spec", [
    StimulusSpec(kind="poisson", amplitude=1.0, rate=0.5, seed=4,
                 neurons=(7, 2, 9, 2, 30)),
    StimulusSpec(kind="poisson", amplitude=1.0, rate=0.3, seed=5),
    StimulusSpec(kind="constant", amplitude=0.5, neurons=(3, 1, 4)),
    StimulusSpec(kind="pulse", amplitude=2.0, at=(1, 4, 6)),
])
def test_equal_events_share_one_tuple(spec):
    steps = build_stimulus(spec, 40, 12, 8)
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for events in steps:
        for event in events:
            assert first.setdefault(event, event) is event
    assert sum(map(len, steps)) > len(first)    # some event did repeat
