"""Trainability signals: gradient noise, sharpness volatility, critical steps.

Two complementary per-layer safety limits on the effective step, plus their
combination:

  - gradient-noise critical step   alpha_g*   = B * ||g||^2 / sigma_ps^2
  - volatility critical step       alpha_vol* = 1 / (kappa * Vol)
  - combined limit                 alpha~*    = B * ||g||^2 / sigma~^2,
    with the volatility-inflated noise sigma~^2 = sigma_ps^2
    + beta * ||g||^2 * Vol

where Vol = windowed variance of the normalized sharpness over its EMA mean
(plus EPS_VOL), and a Cantelli-style tail cap
2 / (mu + sigma * sqrt((1-delta)/delta)) is reported alongside.  Every bound
is one ratio read through ``_ratio``: a zero denominator, a non-finite ratio
or a ratio above CAP reads CAP and is flagged capped.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .nn import GLOBAL_SCOPE, ParamSet

CAP = 1e6  # every bound reads at most this, so comparisons against it stay finite
EPS_VOL = 1e-8  # keeps vol = var / (mu + EPS_VOL) finite at a zero EMA mean


@dataclass(frozen=True)
class BoundConfig:
    kappa: float = 1.0
    beta: float = 0.5
    delta: float = 0.1

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")


class BoundValue(NamedTuple):
    value: float
    capped: bool


def _ratio(num: float, den: float) -> BoundValue:
    """num / den, or CAP flagged when den is zero or the ratio is non-finite or above CAP."""
    if den == 0.0:
        return BoundValue(CAP, True)
    value = num / den
    if value > CAP or not math.isfinite(value):
        return BoundValue(CAP, True)
    return BoundValue(value, False)


# ---------------------------------------------------------------------------
# gradient-noise estimation


def minibatch_grad_variance(
    per_sample: Sequence[ParamSet], scope: str = GLOBAL_SCOPE
) -> float:
    """Exact within-minibatch per-sample gradient variance.

    (1/B) * sum_i ||g_i - gbar||^2 restricted to the scoped parameters.
    This estimates the per-sample variance sigma_ps^2; the minibatch-mean
    noise is sigma_ps^2 / B.
    """
    if len(per_sample) == 0:
        raise ValueError("empty per-sample gradient list")
    G = np.stack([g.segment(scope) for g in per_sample])
    gbar = G.mean(axis=0)
    return float(np.mean(np.sum((G - gbar) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# normalized sharpness and its rolling statistics


def normalized_sharpness(lambda_max: float, alpha_agg: float) -> float:
    """Top Hessian eigenvalue rescaled by the aggregate Adam preconditioning."""
    if not alpha_agg > 0.0:
        raise ValueError(f"alpha_agg must be > 0, got {alpha_agg}")
    return alpha_agg * lambda_max


class WindowSnapshot(NamedTuple):
    mu: float
    var: float
    vol: float
    count: int
    armed: bool


@dataclass
class WindowStats:
    """EMA mean plus a fixed-length queue of normalized-sharpness samples.

    With fewer than two samples the variance reports 0 and the snapshot is
    not armed; consumers must treat bounds built from it as provisional.
    """

    capacity: int = 30
    ema_decay: float = 0.1
    ema_mu: float | None = field(default=None, init=False)
    _queue: deque = field(init=False, repr=False)

    def __post_init__(self):
        if self.capacity < 2:  # a window of one sample never arms
            raise ConfigError(f"window capacity must be >= 2, got {self.capacity}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        self._queue = deque(maxlen=self.capacity)


def push_and_stats(ws: WindowStats, lambda_bar: float) -> WindowSnapshot:
    """Push one sample, then report the window as ``window_stats`` does."""
    lam = float(lambda_bar)
    if not math.isfinite(lam):
        raise NumericError(f"non-finite normalized sharpness {lam}")
    ws._queue.append(lam)
    ws.ema_mu = lam if ws.ema_mu is None else (1.0 - ws.ema_decay) * ws.ema_mu + ws.ema_decay * lam
    return window_stats(ws)


def window_stats(ws: WindowStats) -> WindowSnapshot:
    """EMA mean, windowed variance and volatility of the samples pushed so far.

    vol = var / (mu + EPS_VOL); a nonpositive denominator with nonzero variance
    reports +inf (curvature statistics unusable at that point).  An empty
    window reads mu = var = vol = 0, count 0, unarmed.
    """
    samples = np.fromiter(ws._queue, dtype=np.float64)
    mu = 0.0 if ws.ema_mu is None else ws.ema_mu
    if samples.size < 2 or samples.min() == samples.max():
        var = 0.0  # a constant queue reports exactly zero spread
    else:
        var = float(np.mean((samples - samples.mean()) ** 2))
    denom = mu + EPS_VOL
    if var == 0.0:
        vol = 0.0
    elif denom > 0.0:
        vol = var / denom
    else:
        vol = math.inf
    return WindowSnapshot(mu, var, vol, samples.size, samples.size >= 2)


# ---------------------------------------------------------------------------
# critical steps


def alpha_g_star(grad_sq_norm: float, sigma_ps_sq: float, B: int) -> BoundValue:
    """Batch-size-aware critical step B * ||g||^2 / sigma_ps^2, capped at CAP."""
    if grad_sq_norm < 0.0 or sigma_ps_sq < 0.0:
        raise ValueError("squared norms must be nonnegative")
    if B < 1:
        raise ValueError(f"batch size must be >= 1, got {B}")
    return _ratio(B * grad_sq_norm, sigma_ps_sq)


def alpha_vol_star(vol: float, cfg: BoundConfig) -> BoundValue:
    """Volatility-controlled critical step 1 / (kappa * Vol), capped at CAP.

    An infinite Vol (curvature statistics unusable) gives 0, unflagged.
    """
    if vol < 0.0:
        raise ValueError(f"vol must be nonnegative, got {vol}")
    return _ratio(1.0, cfg.kappa * vol)


def cantelli_cap(mu: float, sigma: float, delta: float) -> BoundValue:
    """Tail-probability step cap 2 / (mu + sigma * sqrt((1-delta)/delta)), capped at CAP."""
    if mu < 0.0 or sigma < 0.0:
        raise ValueError("mu and sigma must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _ratio(2.0, mu + sigma * math.sqrt((1.0 - delta) / delta))


class CombinedBound(NamedTuple):
    sigma_tilde_sq: float
    alpha_tilde_star: float
    capped: bool


def combined_bound(
    grad_sq_norm: float, sigma_ps_sq: float, vol: float, B: int, cfg: BoundConfig
) -> CombinedBound:
    """Volatility-inflated noise proxy and the resulting critical step.

    sigma~^2 = sigma_ps^2 + beta * ||g||^2 * Vol;  alpha~* = B * ||g||^2 / sigma~^2,
    capped at CAP.  With beta = 0 this reduces exactly to alpha_g_star.
    """
    if grad_sq_norm < 0.0 or sigma_ps_sq < 0.0 or vol < 0.0:
        raise ValueError("inputs must be nonnegative")
    if B < 1:
        raise ValueError(f"batch size must be >= 1, got {B}")
    inflation = 0.0 if cfg.beta * grad_sq_norm == 0.0 else cfg.beta * grad_sq_norm * vol
    sigma_tilde_sq = sigma_ps_sq + inflation
    return CombinedBound(sigma_tilde_sq, *_ratio(B * grad_sq_norm, sigma_tilde_sq))


# ---------------------------------------------------------------------------
# per-layer threshold report


@dataclass(frozen=True)
class ThresholdReport:
    """Immutable snapshot of one layer's effective step against its limits."""

    layer_id: str
    alpha: float
    alpha_g_star: float
    alpha_vol_star: float
    cantelli_cap: float
    sigma_ps_sq: float
    sigma_tilde_sq: float
    alpha_tilde_star: float
    vol: float
    armed: bool
    flags: tuple[str, ...] = ()

    @property
    def crossed(self) -> bool:
        """Raw (unscaled by gamma) crossing alpha > alpha~* for the predictor.

        Strict inequality; False while the window is unarmed or alpha~* is capped.
        """
        capped = "tilde_capped" in self.flags
        return self.armed and not capped and self.alpha > self.alpha_tilde_star


def build_report(
    layer_id: str,
    alpha: float,
    grad_sq_norm: float,
    sigma_ps_sq: float,
    window: WindowSnapshot,
    batch_size: int,
    cfg: BoundConfig,
) -> ThresholdReport:
    """Assemble one layer's ThresholdReport from raw statistics.

    Every bound reads at most CAP (flagged per bound); a negative EMA mean is
    clamped to zero for the Cantelli denominator and flagged.
    """
    g = alpha_g_star(grad_sq_norm, sigma_ps_sq, batch_size)
    v = alpha_vol_star(window.vol, cfg)
    c = cantelli_cap(max(window.mu, 0.0), math.sqrt(window.var), cfg.delta)
    comb = combined_bound(grad_sq_norm, sigma_ps_sq, window.vol, batch_size, cfg)
    flags = (
        ("g_capped", g.capped),
        ("vol_capped", v.capped),
        ("mu_clamped", window.mu < 0.0),
        ("cantelli_capped", c.capped),
        ("tilde_capped", comb.capped),
        ("unarmed", not window.armed),
    )
    return ThresholdReport(
        layer_id=layer_id,
        alpha=alpha,
        alpha_g_star=g.value,
        alpha_vol_star=v.value,
        cantelli_cap=c.value,
        sigma_ps_sq=sigma_ps_sq,
        sigma_tilde_sq=comb.sigma_tilde_sq,
        alpha_tilde_star=comb.alpha_tilde_star,
        vol=window.vol,
        armed=window.armed,
        flags=tuple(name for name, on in flags if on),
    )


# ---------------------------------------------------------------------------
# single-metric diagnostics


@dataclass(frozen=True)
class Diagnostics:
    weight_norm: float
    grad_norm: float
    grad_param_ratio: float
    unit_sign_entropy: float
    ratio_defined: bool = True


def _binary_entropy_bits(p: np.ndarray) -> np.ndarray:
    ent = np.zeros_like(p)
    for q in (p, 1.0 - p):
        mask = q > 0.0
        ent[mask] -= q[mask] * np.log2(q[mask])
    return ent


def diagnostics(
    params: ParamSet, grads: ParamSet, hidden_preacts: Sequence[np.ndarray]
) -> Diagnostics:
    """Weight/grad norms, their ratio, and unit-sign entropy.

    Unit-sign entropy: per hidden unit, the base-2 binary entropy of the
    fraction of probe samples with positive pre-activation, averaged over all
    hidden units.  Always-on or always-dead units contribute zero.
    """
    wn = float(np.linalg.norm(params.vector))
    gn = float(np.linalg.norm(grads.vector))
    if wn > 0.0:
        ratio, defined = gn / wn, True
    else:
        ratio, defined = 0.0, False
    if hidden_preacts:
        fracs = np.concatenate([np.mean(z > 0.0, axis=0) for z in hidden_preacts])
        use = float(np.mean(_binary_entropy_bits(fracs)))
    else:
        use = 0.0
    return Diagnostics(wn, gn, ratio, use, defined)
