"""Adam with per-layer base learning rates and effective-step queries.

Besides the standard bias-corrected update, the optimizer exposes the two
preconditioning summaries the diagnostics are built on:

  - ``effective_step``: the mean elementwise multiplier actually applied,
    eta / ((1 - beta1^t) * (sqrt(vhat) + eps));
  - ``agg_step``: the aggregate scale eta / (RMS(sqrt(vhat)) + eps), where
    RMS(sqrt(vhat)) = sqrt(mean(vhat)).

``AdamState.eta`` is the one copy of the per-layer rates, each read as a
scalar; the global scope's rate in ``agg_step`` is their parameter-weighted
mean, correctly rounded, so it is exactly eta when every layer has rate eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError
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
    # two n_params scratch rows for adam_step
    work: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class OptimConfig:
    eta: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if not 0.0 < self.eta < np.inf:
            raise ConfigError(f"eta must be finite and > 0, got {self.eta}")


def init_adam(
    params: ParamSet,
    eta: float = OptimConfig.eta,
    beta1: float = OptimConfig.beta1,
    beta2: float = OptimConfig.beta2,
    eps: float = OptimConfig.eps,
) -> AdamState:
    """Fresh Adam state with every layer at rate ``eta``; the controller
    alone changes a layer's rate afterwards, through ``AdamState.eta``."""
    OptimConfig(eta, beta1, beta2, eps)
    work = np.empty((2, params.n_params))
    eta_map = dict.fromkeys(params.layer_ids(), eta)
    return AdamState(zeros_like(params), zeros_like(params), 0, beta1, beta2, eps, eta_map, work)


def adam_step(state: AdamState, params: ParamSet, grads: ParamSet) -> None:
    """One bias-corrected Adam update, each layer with its own base LR.

    L2 decay is not applied here; weight decay enters through the loss
    gradient.  Updates ``state`` and ``params`` in place.
    The update is eta * m_hat / (sqrt(v_hat) + eps), evaluated in that
    order in two scratch rows kept on ``state``, so the update allocates no
    parameter-sized array.
    """
    check_finite(grads, "non-finite gradient")
    g = grads.vector
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


def _scoped(v: ParamSet, scope: str) -> list[tuple[str, np.ndarray]]:
    """Each layer id in ``scope`` with its segment of ``v``, in layout order."""
    ids = v.layer_ids() if scope == GLOBAL_SCOPE else [scope]
    return [(lid, v.segment(lid)) for lid in ids]


def effective_step(state: AdamState, scope: str = GLOBAL_SCOPE) -> float:
    """Mean elementwise step multiplier over the scoped parameters.

    Each layer contributes with its own base LR; requires at least one step.
    """
    if state.t < 1:
        raise ValueError("effective_step requires at least one optimizer step")
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    mult = [
        state.eta[lid] / (bc1 * (np.sqrt(v / bc2) + state.eps)) for lid, v in _scoped(state.v, scope)
    ]
    return float(np.mean(np.concatenate(mult)))


def agg_step(state: AdamState, scope: str = GLOBAL_SCOPE) -> float:
    """eta / (RMS(sqrt(vhat)) + eps) over the scoped parameters.

    A layer's eta is its own rate; the global scope's is the
    parameter-weighted mean of the per-layer rates, correctly rounded.
    """
    if state.t < 1:
        raise ValueError("agg_step requires at least one optimizer step")
    bc2 = 1.0 - state.beta2**state.t
    rms = float(np.sqrt(np.mean(state.v.segment(scope) / bc2)))
    sizes = {lid: v.size for lid, v in _scoped(state.v, scope)}
    eta = float(sum(Fraction(state.eta[lid]) * n for lid, n in sizes.items()) / sum(sizes.values()))
    return eta / (rms + state.eps)
