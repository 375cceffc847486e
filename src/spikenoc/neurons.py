"""Point-neuron dynamics shared by the reference simulator and the core model.

All models advance with forward-Euler integration at a fixed timestep ``dt``
(milliseconds).  A neuron fires when its membrane potential reaches threshold
(``v >= v_th``), after which the model's reset rule is applied.  The golden
single-process simulation steps one neuron at a time with ``step_neuron``; the
per-core simulation steps a core's neurons of one parameter set together with
``step_population``, which performs the same floating-point operations in the
same order, so both produce bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NumericError(Exception):
    """Membrane state became non-finite (diverging parameters or inputs)."""


def _check_params(params, positive=(), non_negative=()) -> None:
    """Raise ValueError unless every field of ``params`` is finite, the
    fields in ``positive`` are above zero and those in ``non_negative`` are
    not below it."""
    for name in params.__dataclass_fields__:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite; got {value}")
        if value <= 0 and name in positive:
            raise ValueError(f"{name} must be positive; got {value}")
        if value < 0 and name in non_negative:
            raise ValueError(f"{name} must be non-negative; got {value}")


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire.

    dv = (dt / tau_m) * (-(v - v_rest) + i_in)

    The membrane resistance is folded into the synaptic weights, so ``i_in``
    already has voltage units.  While ``refractory_steps`` is counting down
    the neuron holds ``v_reset`` and ignores input.
    """

    tau_m: float = 10.0
    v_rest: float = 0.0
    v_reset: float = 0.0
    v_th: float = 1.0
    refractory_steps: int = 2

    def __post_init__(self):
        _check_params(self, ("tau_m",), ("refractory_steps",))


@dataclass(frozen=True)
class IzhikevichParams:
    """Izhikevich 2007 two-variable model.

    dv = dt * (0.04 v^2 + 5 v + 140 - u + i_in)
    du = dt * a (b v - u)

    Fires at v >= v_peak, then v <- c and u <- u + d.
    """

    a: float = 0.02
    b: float = 0.2
    c: float = -65.0
    d: float = 8.0
    v_peak: float = 30.0

    def __post_init__(self):
        _check_params(self)


@dataclass(frozen=True)
class AdexParams:
    """Adaptive exponential integrate-and-fire (Brette-Gerstner values).

    C dv = dt * (-g_l (v - e_l) + g_l delta_t exp((v - v_t)/delta_t) - w + i_in)
    tau_w dw = dt * (a (v - e_l) - w)

    Fires at v >= v_th, then v <- v_reset and w <- w + b.  The exponential
    argument is clamped at +16 so an overshooting Euler step raises the
    membrane quickly but stays finite; the spike is detected on the next
    comparison either way.
    """

    c_m: float = 281.0
    g_l: float = 30.0
    e_l: float = -70.6
    v_t: float = -50.4
    delta_t: float = 2.0
    a: float = 4.0
    b: float = 80.5
    tau_w: float = 144.0
    v_th: float = 0.0
    v_reset: float = -70.6

    def __post_init__(self):
        _check_params(self, ("c_m", "delta_t", "tau_w"))


ModelParams = LifParams | IzhikevichParams | AdexParams

_EXP_CLAMP = 16.0


@dataclass
class NeuronState:
    """Mutable per-neuron state: membrane potential plus one recovery/adaptation
    variable (unused by LIF) and a refractory countdown (LIF only)."""

    v: float = 0.0
    w: float = 0.0
    refrac_left: int = 0


def rest_state(params: ModelParams) -> NeuronState:
    """Initial state with every neuron at its resting point."""
    if isinstance(params, LifParams):
        return NeuronState(v=params.v_rest)
    if isinstance(params, IzhikevichParams):
        return NeuronState(v=params.c, w=params.b * params.c)
    if isinstance(params, AdexParams):
        return NeuronState(v=params.e_l, w=0.0)
    raise TypeError(f"unknown model params: {params!r}")


def step_neuron(state: NeuronState, params: ModelParams, i_in: float,
                dt: float = 1.0) -> bool:
    """Advance one timestep in place; return True if the neuron fired."""
    if not math.isfinite(i_in):
        raise NumericError(f"non-finite input current {i_in}")
    if isinstance(params, LifParams):
        if state.refrac_left > 0:
            state.refrac_left -= 1
            state.v = params.v_reset
            return False
        state.v += (dt / params.tau_m) * (-(state.v - params.v_rest) + i_in)
        fired = state.v >= params.v_th
        if fired:
            state.v = params.v_reset
            state.refrac_left = params.refractory_steps
    elif isinstance(params, IzhikevichParams):
        v, u = state.v, state.w
        state.v = v + dt * (0.04 * v * v + 5.0 * v + 140.0 - u + i_in)
        state.w = u + dt * (params.a * (params.b * v - u))
        fired = state.v >= params.v_peak
        if fired:
            state.v = params.c
            state.w += params.d
    elif isinstance(params, AdexParams):
        v, w = state.v, state.w
        exp_arg = min((v - params.v_t) / params.delta_t, _EXP_CLAMP)
        dv = (-params.g_l * (v - params.e_l)
              + params.g_l * params.delta_t * math.exp(exp_arg)
              - w + i_in)
        state.v = v + dt * dv / params.c_m
        state.w = w + dt * (params.a * (v - params.e_l) - w) / params.tau_w
        fired = state.v >= params.v_th
        if fired:
            state.v = params.v_reset
            state.w += params.b
    else:
        raise TypeError(f"unknown model params: {params!r}")

    if not (math.isfinite(state.v) and math.isfinite(state.w)):
        raise NumericError(f"non-finite neuron state v={state.v} w={state.w}")
    return fired


def step_population(params: ModelParams, members: list[int], v: list[float],
                    w: list[float], refrac: list[int], acc: list[int],
                    scale: float, dt: float = 1.0) -> list[int]:
    """Advance the neurons ``members``, which all share ``params``, one
    timestep in place; return the members that fired, in ``members`` order.

    ``v``, ``w`` and ``refrac`` hold the state of neuron ``i`` at index ``i``,
    and its input current is ``acc[i] * scale``.  Each neuron goes through the
    same floating-point operations in the same order as ``step_neuron``, so
    the results are bit-identical.  Unlike ``step_neuron`` this does not check
    for non-finite values: the caller checks inputs and states afterwards.
    """
    fired = []
    if isinstance(params, LifParams):
        k = dt / params.tau_m
        v_rest, v_reset, v_th = params.v_rest, params.v_reset, params.v_th
        refractory_steps = params.refractory_steps
        for i in members:
            if refrac[i] > 0:
                refrac[i] -= 1
                v[i] = v_reset
                continue
            x = v[i]
            x += k * (-(x - v_rest) + acc[i] * scale)
            if x >= v_th:
                v[i] = v_reset
                refrac[i] = refractory_steps
                fired.append(i)
            else:
                v[i] = x
    elif isinstance(params, IzhikevichParams):
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
    elif isinstance(params, AdexParams):
        c_m, e_l, v_t = params.c_m, params.e_l, params.v_t
        delta_t, a, b, tau_w = params.delta_t, params.a, params.b, params.tau_w
        v_th, v_reset = params.v_th, params.v_reset
        # step_neuron evaluates -g_l and g_l * delta_t first (unary minus
        # binds tighter, and * runs left to right), so these are its floats
        neg_g_l = -params.g_l
        g_l_delta_t = params.g_l * params.delta_t
        exp = math.exp
        for i in members:
            x, y = v[i], w[i]
            exp_arg = (x - v_t) / delta_t
            if exp_arg > _EXP_CLAMP:    # min(exp_arg, clamp), NaN kept
                exp_arg = _EXP_CLAMP
            dv = (neg_g_l * (x - e_l) + g_l_delta_t * exp(exp_arg) - y
                  + acc[i] * scale)
            nx = x + dt * dv / c_m
            ny = y + dt * (a * (x - e_l) - y) / tau_w
            if nx >= v_th:
                v[i] = v_reset
                w[i] = ny + b
                fired.append(i)
            else:
                v[i] = nx
                w[i] = ny
    else:
        raise TypeError(f"unknown model params: {params!r}")
    return fired


_MODEL_KINDS = {"lif": LifParams, "izhikevich": IzhikevichParams, "adex": AdexParams}


def model_kind(params: ModelParams) -> str:
    for kind, cls in _MODEL_KINDS.items():
        if isinstance(params, cls):
            return kind
    raise TypeError(f"unknown model params: {params!r}")


def params_to_fields(params: ModelParams) -> dict[str, float]:
    out = {}
    for name in params.__dataclass_fields__:
        out[name] = getattr(params, name)
    return out


def params_from_fields(kind: str, fields: dict[str, float]) -> ModelParams:
    cls = _MODEL_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown neuron model kind {kind!r}; expected one "
                         f"of {', '.join(_MODEL_KINDS)}")
    typed = {}
    for name, val in fields.items():
        if name not in cls.__dataclass_fields__:
            raise ValueError(f"unknown parameter {name!r} for model {kind!r}")
        want = cls.__dataclass_fields__[name].type
        # a non-finite count stays a float, for the class to reject
        typed[name] = (int(val) if want == "int" and math.isfinite(val)
                       else float(val))
    return cls(**typed)
