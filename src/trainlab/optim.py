"""Adam with per-layer base learning rates and effective-step queries.

Besides the standard bias-corrected update, the optimizer exposes the two
preconditioning summaries the diagnostics are built on:

  - ``effective_step``: the mean elementwise multiplier actually applied,
    eta / ((1 - beta1^t) * (sqrt(vhat) + eps));
  - ``agg_step``: the aggregate scale eta / (RMS(sqrt(vhat)) + eps), where
    RMS(sqrt(vhat)) = sqrt(mean(vhat)).

``reset`` is ``init_adam`` again at the initial per-layer rates, so a reset
state passes the same checks as a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError, StateError
from .nn import GLOBAL_SCOPE, ParamSet, check_finite, zeros_like


@dataclass
class AdamState:
    m: ParamSet
    v: ParamSet
    t: int
    beta1: float
    beta2: float
    eps: float
    eta: dict[str, float]
    initial_eta: dict[str, float]  # what reset restores
    # two n_params scratch rows for adam_step, made on its first call
    work: np.ndarray | None = field(default=None, repr=False, compare=False)


def check_adam(etas: Iterable[float], beta1: float, beta2: float, eps: float) -> None:
    """Raise ConfigError unless every setting of an Adam run is usable."""
    if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
        raise ConfigError(f"betas must be in [0, 1), got {beta1}, {beta2}")
    if not eps > 0.0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    if any(not v > 0.0 for v in etas):
        raise ConfigError("all per-layer learning rates must be > 0")


def init_adam(
    params: ParamSet,
    eta: float | dict[str, float] = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    ids = params.layer_ids()
    eta_map = {lid: float(eta) for lid in ids} if np.isscalar(eta) else dict(eta)
    if sorted(eta_map) != sorted(ids):
        raise ConfigError("per-layer learning-rate map does not match the layer ids")
    check_adam(eta_map.values(), beta1, beta2, eps)
    m, v = zeros_like(params), zeros_like(params)
    return AdamState(m, v, 0, beta1, beta2, eps, eta_map, dict(eta_map))


def adam_step(state: AdamState, params: ParamSet, grads: ParamSet):
    """One bias-corrected Adam update, each layer with its own base LR.

    L2 decay is not applied here; weight decay enters through the loss
    gradient.  Mutates ``state`` and ``params`` in place and returns them.
    The update is eta * m_hat / (sqrt(v_hat) + eps), evaluated in that
    order in two scratch rows kept on ``state``, so the update allocates no
    parameter-sized array.
    """
    check_finite(grads, "non-finite gradient")
    g = grads.vector
    if state.work is None:
        state.work = np.empty((2, g.size))
    step, denom = state.work
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v = state.m.vector, state.v.vector
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=step)
    v *= state.beta2
    np.square(g, out=step)
    v += np.multiply(step, 1.0 - state.beta2, out=step)
    np.divide(m, bc1, out=step)  # m_hat
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += state.eps
    for lid, seg in params.slices().items():
        step[seg] *= state.eta[lid]
    step /= denom
    params.vector -= step
    return state, params


def effective_step(state: AdamState, scope: str = GLOBAL_SCOPE) -> float:
    """Mean elementwise step multiplier over the scoped parameters.

    Each layer contributes with its own base LR; requires at least one step.
    """
    if state.t < 1:
        raise StateError("effective_step requires at least one optimizer step")
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    v_hat = state.v.segment(scope) / bc2
    eta = state.v.per_entry(state.eta, scope)
    return float(np.mean(eta / (bc1 * (np.sqrt(v_hat) + state.eps))))


def agg_step(state: AdamState, scope: str = GLOBAL_SCOPE) -> float:
    """eta / (RMS(sqrt(vhat)) + eps) over the scoped parameters.

    For the global scope, eta is the parameter-weighted mean of the
    per-layer base LRs (identical to the shared LR when none differ).
    """
    if state.t < 1:
        raise StateError("agg_step requires at least one optimizer step")
    bc2 = 1.0 - state.beta2**state.t
    rms = float(np.sqrt(np.mean(state.v.segment(scope) / bc2)))
    eta = float(np.mean(state.v.per_entry(state.eta, scope)))
    return eta / (rms + state.eps)


def reset(state: AdamState) -> AdamState:
    """Fresh state: zero moments, t=0, base LRs restored to their initial values."""
    return init_adam(state.m, state.initial_eta, state.beta1, state.beta2, state.eps)
