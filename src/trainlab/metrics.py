"""Trainability signals: gradient noise, sharpness volatility, critical steps.

Two complementary per-layer safety limits on the effective step, plus their
combination:

  - gradient-noise critical step   alpha_g*   = B * ||g||^2 / sigma_ps^2
  - volatility critical step       alpha_vol* = 1 / (kappa * Vol)
  - combined limit                 alpha~*    = B * ||g||^2 / sigma~^2,
    with the volatility-inflated noise sigma~^2 = sigma_ps^2
    + beta * ||g||^2 * Vol

where Vol = windowed variance of the normalized sharpness over its EMA mean
(plus a small epsilon), and a Cantelli-style tail cap
2 / (mu + sigma * sqrt((1-delta)/delta)) is reported alongside.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .nn import GLOBAL_SCOPE, ParamSet, param_norm

DEFAULT_CAP = 1e6


@dataclass(frozen=True)
class BoundConfig:
    kappa: float = 1.0
    beta: float = 0.5
    delta: float = 0.1
    cap: float = DEFAULT_CAP

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if not self.cap > 0.0:
            raise ConfigError(f"cap must be > 0, got {self.cap}")


class BoundValue(NamedTuple):
    value: float
    capped: bool


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
    eps_vol: float = 1e-8
    ema_mu: float | None = None
    _queue: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError(f"window capacity must be >= 1, got {self.capacity}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        if not self.eps_vol > 0.0:
            raise ConfigError(f"eps_vol must be > 0, got {self.eps_vol}")
        self._queue = deque(self._queue, maxlen=self.capacity)


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

    vol = var / (mu + eps); a nonpositive denominator with nonzero variance
    reports +inf (curvature statistics unusable at that point).  An empty
    window reads mu = var = vol = 0, count 0, unarmed.
    """
    samples = np.fromiter(ws._queue, dtype=np.float64)
    mu = 0.0 if ws.ema_mu is None else ws.ema_mu
    if samples.size < 2 or samples.min() == samples.max():
        var = 0.0  # a constant queue reports exactly zero spread
    else:
        var = float(np.mean((samples - samples.mean()) ** 2))
    denom = mu + ws.eps_vol
    if var == 0.0:
        vol = 0.0
    elif denom > 0.0:
        vol = var / denom
    else:
        vol = math.inf
    return WindowSnapshot(mu, var, vol, samples.size, samples.size >= 2)


# ---------------------------------------------------------------------------
# critical steps


def alpha_g_star(
    grad_sq_norm: float, sigma_ps_sq: float, B: int, cap: float = DEFAULT_CAP
) -> BoundValue:
    """Batch-size-aware critical step B * ||g||^2 / sigma_ps^2.

    Zero measured noise returns the finite cap with the capped flag set.
    """
    if grad_sq_norm < 0.0 or sigma_ps_sq < 0.0:
        raise ValueError("squared norms must be nonnegative")
    if B < 1:
        raise ValueError(f"batch size must be >= 1, got {B}")
    if sigma_ps_sq == 0.0:
        return BoundValue(cap, True)
    return BoundValue(B * grad_sq_norm / sigma_ps_sq, False)


def alpha_vol_star(vol: float, cfg: BoundConfig) -> BoundValue:
    """Volatility-controlled critical step 1 / (kappa * Vol)."""
    if vol < 0.0:
        raise ValueError(f"vol must be nonnegative, got {vol}")
    if vol == 0.0:
        return BoundValue(cfg.cap, True)
    return BoundValue(1.0 / (cfg.kappa * vol), False)


def cantelli_cap(
    mu: float, sigma: float, delta: float, cap: float = DEFAULT_CAP
) -> BoundValue:
    """Tail-probability step cap 2 / (mu + sigma * sqrt((1-delta)/delta))."""
    if mu < 0.0 or sigma < 0.0:
        raise ValueError("mu and sigma must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    denom = mu + sigma * math.sqrt((1.0 - delta) / delta)
    if denom == 0.0:
        return BoundValue(cap, True)
    return BoundValue(2.0 / denom, False)


class CombinedBound(NamedTuple):
    sigma_tilde_sq: float
    alpha_tilde_star: float
    capped: bool


def combined_bound(
    grad_sq_norm: float, sigma_ps_sq: float, vol: float, B: int, cfg: BoundConfig
) -> CombinedBound:
    """Volatility-inflated noise proxy and the resulting critical step.

    sigma~^2 = sigma_ps^2 + beta * ||g||^2 * Vol;  alpha~* = B * ||g||^2 / sigma~^2.
    With beta = 0 this reduces exactly to alpha_g_star.
    """
    if grad_sq_norm < 0.0 or sigma_ps_sq < 0.0 or vol < 0.0:
        raise ValueError("inputs must be nonnegative")
    if B < 1:
        raise ValueError(f"batch size must be >= 1, got {B}")
    inflation = 0.0 if cfg.beta * grad_sq_norm == 0.0 else cfg.beta * grad_sq_norm * vol
    sigma_tilde_sq = sigma_ps_sq + inflation
    if sigma_tilde_sq == 0.0:
        return CombinedBound(0.0, cfg.cap, True)
    return CombinedBound(sigma_tilde_sq, B * grad_sq_norm / sigma_tilde_sq, False)


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


def _capped(value: float, cap: float, already: bool) -> tuple[float, bool]:
    if already:
        return value, True
    if value > cap or not math.isfinite(value):
        return cap, True
    return value, False


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

    All bound values are clamped to cfg.cap (flagged per bound) so downstream
    comparisons stay finite; a negative EMA mean is clamped to zero for the
    Cantelli denominator and flagged.
    """
    flags: list[str] = []
    vol = window.vol if window.vol >= 0.0 else 0.0

    g = alpha_g_star(grad_sq_norm, sigma_ps_sq, batch_size, cap=cfg.cap)
    g_val, g_cap = _capped(g.value, cfg.cap, g.capped)
    if g_cap:
        flags.append("g_capped")

    v = alpha_vol_star(vol, cfg) if math.isfinite(vol) else BoundValue(0.0, False)
    v_val, v_cap = _capped(v.value, cfg.cap, v.capped)
    if v_cap:
        flags.append("vol_capped")

    mu = window.mu
    if mu < 0.0:
        mu = 0.0
        flags.append("mu_clamped")
    c = cantelli_cap(mu, math.sqrt(window.var), cfg.delta, cap=cfg.cap)
    c_val, c_cap = _capped(c.value, cfg.cap, c.capped)
    if c_cap:
        flags.append("cantelli_capped")

    comb = combined_bound(grad_sq_norm, sigma_ps_sq, vol, batch_size, cfg)
    t_val, t_cap = _capped(comb.alpha_tilde_star, cfg.cap, comb.capped)
    if t_cap:
        flags.append("tilde_capped")

    if not window.armed:
        flags.append("unarmed")

    return ThresholdReport(
        layer_id=layer_id,
        alpha=alpha,
        alpha_g_star=g_val,
        alpha_vol_star=v_val,
        cantelli_cap=c_val,
        sigma_ps_sq=sigma_ps_sq,
        sigma_tilde_sq=comb.sigma_tilde_sq,
        alpha_tilde_star=t_val,
        vol=vol,
        armed=window.armed,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# loss-of-trainability predictor


class LotPrediction(NamedTuple):
    per_task: list[float]
    rho_hat: float


def _step_crossed(entry) -> bool:
    if isinstance(entry, Mapping):
        return any(bool(v) for v in entry.values())
    if isinstance(entry, (bool, np.bool_, int)):
        return bool(entry)
    if isinstance(entry, Iterable):
        return any(bool(v) for v in entry)
    return bool(entry)


def predict_lot(crossing_flags: Sequence, window: int) -> LotPrediction:
    """Per-task fraction of steps where any layer crosses its combined bound.

    ``crossing_flags`` is one entry per step (a bool, or per-layer booleans);
    consecutive groups of ``window`` steps form one task (a shorter trailing
    group is kept).  Also reports the run-level fraction over all steps.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    crossed = [_step_crossed(e) for e in crossing_flags]
    chunks = [crossed[start : start + window] for start in range(0, len(crossed), window)]
    per_task = [sum(chunk) / len(chunk) for chunk in chunks]
    rho_hat = sum(crossed) / len(crossed) if crossed else 0.0
    return LotPrediction(per_task, rho_hat)


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
    wn = param_norm(params)
    gn = param_norm(grads)
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
