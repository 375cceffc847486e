import math

import pytest
from hypothesis import example, given, settings, strategies as st

from spikenoc.neurons import (AdexParams, IzhikevichParams, LifParams,
                              NeuronState, NumericError, model_kind,
                              params_from_fields, params_to_fields, rest_state,
                              step_neuron, step_population)


def run_trace(params, currents, dt=1.0):
    state = rest_state(params)
    fired = []
    for i_in in currents:
        fired.append(step_neuron(state, params, i_in, dt))
    return state, fired


class TestLif:
    def test_constant_drive_matches_closed_form(self):
        # v_n = I (1 - (1 - dt/tau)^n) for v_rest = 0 and constant I
        p = LifParams(tau_m=10.0, refractory_steps=0)
        state = rest_state(p)
        for n in range(1, 12):
            step_neuron(state, p, 1.2)
            expected = 1.2 * (1.0 - 0.9 ** n)
            assert state.v == pytest.approx(expected, rel=1e-12)

    def test_first_crossing_step(self):
        # 1.2 (1 - 0.9^n) >= 1 first holds at n = 18
        p = LifParams(tau_m=10.0, refractory_steps=0)
        state = rest_state(p)
        fired_at = None
        for n in range(1, 40):
            if step_neuron(state, p, 1.2):
                fired_at = n
                break
        assert fired_at == 18

    def test_threshold_is_inclusive(self):
        p = LifParams(tau_m=1.0, v_th=1.0, refractory_steps=0)
        state = rest_state(p)
        # dt/tau = 1 makes v jump straight to i_in
        assert step_neuron(state, p, 1.0) is True

    def test_reset_and_refractory_hold(self):
        p = LifParams(tau_m=1.0, v_th=1.0, v_reset=0.25, refractory_steps=2)
        state = rest_state(p)
        assert step_neuron(state, p, 5.0) is True
        assert state.v == 0.25
        # two held steps ignore arbitrarily strong input
        assert step_neuron(state, p, 100.0) is False
        assert state.v == 0.25
        assert step_neuron(state, p, 100.0) is False
        # integration resumes from v_reset
        assert step_neuron(state, p, 5.0) is True

    def test_decay_towards_rest(self):
        p = LifParams(tau_m=10.0, v_rest=-0.5, refractory_steps=0)
        state = rest_state(p)
        state.v = 1.0
        step_neuron(state, p, 0.0)
        assert state.v == pytest.approx(1.0 + 0.1 * (-1.5))

    def test_subthreshold_never_fires(self):
        # steady state is I < v_th, so no crossing ever happens
        p = LifParams(refractory_steps=0)
        _, fired = run_trace(p, [0.9] * 200)
        assert not any(fired)


class TestIzhikevich:
    def test_two_steps_by_hand(self):
        p = IzhikevichParams()
        state = rest_state(p)
        assert (state.v, state.w) == (-65.0, 0.2 * -65.0)
        v, u = -65.0, -13.0
        for _ in range(2):
            v, u = (v + (0.04 * v * v + 5.0 * v + 140.0 - u + 10.0),
                    u + 0.02 * (0.2 * v - u))
        step_neuron(state, p, 10.0)
        step_neuron(state, p, 10.0)
        assert state.v == pytest.approx(v, rel=1e-12)
        assert state.w == pytest.approx(u, rel=1e-12)

    def test_recovery_uses_pre_update_potential(self):
        p = IzhikevichParams(a=0.5, b=1.0)
        state = rest_state(p)
        v0, u0 = state.v, state.w
        step_neuron(state, p, 0.0)
        assert state.w == pytest.approx(u0 + 0.5 * (v0 - u0))

    def test_fires_and_resets(self):
        p = IzhikevichParams()
        state = rest_state(p)
        fired = False
        for _ in range(200):
            if step_neuron(state, p, 15.0):
                fired = True
                break
        assert fired
        assert state.v == p.c

    def test_regular_spiking_rate_sane(self):
        # tonic drive at 10 produces repetitive firing, not silence or blow-up
        p = IzhikevichParams()
        _, fired = run_trace(p, [10.0] * 500)
        assert 5 <= sum(fired) <= 100


class TestAdex:
    def test_rest_is_stable_without_input(self):
        # the exponential term leaves a tiny positive drift; the leak pins the
        # equilibrium within a millivolt of e_l
        p = AdexParams()
        state = rest_state(p)
        for _ in range(200):
            assert step_neuron(state, p, 0.0) is False
        assert state.v == pytest.approx(p.e_l, abs=1e-3)

    def test_strong_step_current_fires(self):
        p = AdexParams()
        state = rest_state(p)
        fired_steps = [step_neuron(state, p, 1200.0) for _ in range(300)]
        assert any(fired_steps)
        assert state.w > 0.0   # spike-triggered adaptation accumulated

    def test_reset_rule(self):
        p = AdexParams()
        state = rest_state(p)
        w_before = None
        for _ in range(300):
            w_before = state.w
            if step_neuron(state, p, 1200.0):
                break
        assert state.v == p.v_reset
        # w moved by one continuous step (small) plus the spike jump b
        assert p.b - 10.0 < state.w - w_before < p.b + 20.0

    def test_exponential_clamp_keeps_state_finite(self):
        p = AdexParams()
        state = rest_state(p)
        state.v = 1e4   # exp((v - v_t)/delta_t) would overflow unclamped
        step_neuron(state, p, 0.0)
        assert math.isfinite(state.v)

    def test_adaptation_relaxes(self):
        p = AdexParams()
        state = rest_state(p)
        state.w = 100.0
        step_neuron(state, p, 0.0)
        assert state.w == pytest.approx(100.0 + (0.0 - 100.0) / p.tau_w)


def test_non_finite_input_raises():
    p = LifParams(refractory_steps=0)
    state = rest_state(p)
    with pytest.raises(NumericError):
        step_neuron(state, p, math.inf)


def test_unknown_params_rejected():
    with pytest.raises(TypeError):
        step_neuron(rest_state(LifParams()), object(), 0.0)
    with pytest.raises(TypeError):
        rest_state(object())


def test_params_field_round_trip():
    for params in (LifParams(tau_m=7.5, refractory_steps=3),
                   IzhikevichParams(a=0.1), AdexParams(b=10.0)):
        kind = model_kind(params)
        fields = params_to_fields(params)
        assert params_from_fields(kind, fields) == params


@pytest.mark.parametrize("cls,name,value,needle", [
    (LifParams, "tau_m", 0.0, "tau_m must be positive"),
    (LifParams, "tau_m", -2.0, "tau_m must be positive"),
    (LifParams, "tau_m", math.nan, "tau_m must be finite"),
    (LifParams, "v_th", math.inf, "v_th must be finite"),
    (LifParams, "refractory_steps", -1, "refractory_steps must be non-neg"),
    (IzhikevichParams, "d", -math.inf, "d must be finite"),
    (AdexParams, "c_m", 0.0, "c_m must be positive"),
    (AdexParams, "delta_t", -1.0, "delta_t must be positive"),
    (AdexParams, "tau_w", 0.0, "tau_w must be positive"),
    (AdexParams, "g_l", math.nan, "g_l must be finite"),
])
def test_params_range_checked(cls, name, value, needle):
    with pytest.raises(ValueError, match=needle):
        cls(**{name: value})


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_count_rejected_from_fields(value):
    with pytest.raises(ValueError, match="refractory_steps must be finite"):
        params_from_fields("lif", {"refractory_steps": value})


def test_params_from_fields_rejects_unknowns():
    with pytest.raises(ValueError):
        params_from_fields("lif", {"tau_q": 1.0})
    with pytest.raises(ValueError):
        params_from_fields("hodgkin", {})


# the clamped exponential lifts v by about 2e6 in one step: below this
# threshold, so the clamped value itself is compared
ADEX_NO_FIRE = AdexParams(v_th=1e7)


# zero input and dt = 1.0 each take a branch of their own in the Izhikevich
# kernel, and a uniform draw would almost never hit either
_RAW = st.one_of(st.just(0), st.integers(-4000, 4000))
_DT = st.one_of(st.just(1.0), st.floats(0.01, 2.0))


@st.composite
def _population(draw, v_lo, v_hi, w_lo, w_hi, refrac_hi):
    """A population as a list of (v, w, refractory count, raw input), and
    the members to step: either all of them in index order, as ``CoreState``
    passes them, or a random subset in random order."""
    neurons = draw(st.lists(st.tuples(
        st.floats(v_lo, v_hi), st.floats(w_lo, w_hi),
        st.integers(0, refrac_hi), _RAW), max_size=12))
    order = draw(st.permutations(range(len(neurons))))
    members = draw(st.one_of(st.just(list(range(len(neurons)))),
                             st.integers(0, len(order)).map(
                                 lambda k: order[:k])))
    return neurons, members


def _izhikevich_oracle(params, members, v, w, acc, scale, dt):
    """The Izhikevich loop of ``step_population`` before it skipped zero
    inputs and unit-dt products, kept verbatim.  Unlike ``step_neuron`` it
    steps non-finite states without raising."""
    fired = []
    a, b, c, d = params.a, params.b, params.c, params.d
    v_peak = params.v_peak
    for i in members:
        x, u = v[i], w[i]
        nx = x + dt * (0.04 * x * x + 5.0 * x + 140.0 - u + acc[i] * scale)
        nu = u + dt * (a * (b * x - u))
        if nx >= v_peak:
            v[i] = c
            w[i] = nu + d
            fired.append(i)
        else:
            v[i] = nx
            w[i] = nu
    return fired


class TestPopulationKernel:
    """``step_population`` gives the same floats, bit for bit, and the same
    fired set as ``step_neuron`` called on each member in turn."""

    @staticmethod
    def check(params, neurons, dt, members):
        scale = 1.0 / 256
        v = [n[0] for n in neurons]
        w = [n[1] for n in neurons]
        refrac = [n[2] for n in neurons]
        acc = [n[3] for n in neurons]
        states = [NeuronState(*n[:3]) for n in neurons]
        want_fired = [i for i in members
                      if step_neuron(states[i], params, acc[i] * scale, dt)]
        fired = step_population(params, members, v, w, refrac, acc, scale, dt)
        assert fired == want_fired
        for got, want in ((v, [s.v for s in states]),
                          (w, [s.w for s in states]),
                          (refrac, [s.refrac_left for s in states])):
            assert got == want
            assert list(map(repr, got)) == list(map(repr, want))
        return fired

    @settings(max_examples=100, deadline=None)
    @given(population=_population(-2.0, 2.0, 0.0, 0.0, 3),
           params=st.builds(LifParams, tau_m=st.floats(0.5, 20.0),
                            v_rest=st.floats(-0.5, 0.5),
                            refractory_steps=st.integers(0, 3)),
           dt=_DT)
    def test_lif(self, population, params, dt):
        neurons, members = population
        self.check(params, neurons, dt, members)

    @settings(max_examples=100, deadline=None)
    @given(population=_population(-90.0, 40.0, -20.0, 20.0, 0),
           params=st.sampled_from([IzhikevichParams(),
                                   IzhikevichParams(a=0.1, d=2.0)]),
           dt=_DT)
    # x = 0, u = 140 makes the bracket exactly +0.0; then signed zeros in v
    # and u, each with and without input, at unit and general dt
    @example(population=([(0.0, 140.0, 0, 0), (0.0, 140.0, 0, 5)], [0, 1]),
             params=IzhikevichParams(), dt=1.0)
    @example(population=([(0.0, 140.0, 0, 0), (-0.0, 140.0, 0, 0)], [1, 0]),
             params=IzhikevichParams(), dt=0.5)
    @example(population=([(-0.0, 0.0, 0, 0), (-0.0, -0.0, 0, -3)], [0, 1]),
             params=IzhikevichParams(), dt=1.0)
    @example(population=([(-0.0, 0.0, 0, 0), (0.0, -0.0, 0, 0)], [0, 1]),
             params=IzhikevichParams(a=0.1, d=2.0), dt=0.5)
    def test_izhikevich(self, population, params, dt):
        neurons, members = population
        self.check(params, neurons, dt, members)

    @settings(max_examples=100, deadline=None)
    @given(population=_population(-90.0, -1.0, -200.0, 200.0, 0),
           params=st.sampled_from([AdexParams(), ADEX_NO_FIRE]),
           dt=_DT)
    def test_adex(self, population, params, dt):
        neurons, members = population
        self.check(params, neurons, dt, members)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(), u=st.floats(), raw=_RAW,
           dt=st.one_of(st.just(1.0), st.floats()))
    @example(x=0.0, u=math.inf, raw=0, dt=1.0)
    @example(x=0.0, u=-math.inf, raw=7, dt=0.5)
    @example(x=0.0, u=math.nan, raw=0, dt=0.5)
    @example(x=math.nan, u=0.0, raw=-7, dt=1.0)
    def test_izhikevich_matches_old_loop_on_any_float(self, x, u, raw, dt):
        # step_neuron raises on a non-finite state, so the old loop is the
        # oracle here, compared by repr so NaN and signed zeros count
        params = IzhikevichParams()
        got_v, got_w, want_v, want_w = [x], [u], [x], [u]
        fired = step_population(params, [0], got_v, got_w, [0], [raw],
                                1.0 / 256, dt)
        assert fired == _izhikevich_oracle(params, [0], want_v, want_w,
                                           [raw], 1.0 / 256, dt)
        assert (repr(got_v), repr(got_w)) == (repr(want_v), repr(want_w))

    def test_examples_reach_every_branch(self):
        # a refractory LIF counts down while a driven one fires and resets
        lif = self.check(LifParams(), [(0.5, 0.0, 2, 0), (0.9, 0.0, 0, 512)],
                         1.0, [0, 1])
        assert lif == [1]
        izh = self.check(IzhikevichParams(), [(29.0, -13.0, 0, 2560)], 1.0, [0])
        assert izh == [0]
        # v above v_t + 16 * delta_t takes the clamped exponential; with the
        # threshold out of reach the clamped value is kept, not reset
        assert (-10.0 - ADEX_NO_FIRE.v_t) / ADEX_NO_FIRE.delta_t > 16.0
        assert self.check(ADEX_NO_FIRE, [(-10.0, 0.0, 0, 0)], 1.0, [0]) == []
        assert self.check(AdexParams(), [(-10.0, 0.0, 0, 0)], 1.0, [0]) == [0]

    def test_unknown_params_rejected(self):
        with pytest.raises(TypeError):
            step_population(object(), [0], [0.0], [0.0], [0], [0], 1.0)

