"""Hessian-vector products, power iteration, and exact small-net Hessians.

The HVP is realized as a central finite difference of the gradient along the
probe direction, with the step scaled by the parameter scale and the probe
norm.  Power iteration follows a ~100-step budget with per-step normalization
and returns the signed Rayleigh quotient of the dominant (largest-magnitude)
eigendirection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, NumericError
from .nn import Activation, Batch, ParamSet, Regularizer, add_scaled, loss_grad, param_norm

EXACT_HESSIAN_MAX_PARAMS = 2000


@dataclass(frozen=True)
class CurvatureProbe:
    power_iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.power_iters < 1:
            raise ConfigError(f"power_iters must be >= 1, got {self.power_iters}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")


def hvp(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer, v: ParamSet
) -> ParamSet:
    """H @ v for the Hessian of the full (loss + regularizer) objective.

    Central finite difference of the gradient along v with step
    h = 1e-4 * (1 + ||w||) / ||v||, so the actual parameter perturbation
    h * v has norm 1e-4 * (1 + ||w||) regardless of the probe's scale.
    """
    nv = param_norm(v)
    if nv == 0.0:
        raise ValueError("hvp probe vector must be nonzero")
    h = 1e-4 * (1.0 + param_norm(params)) / nv
    g_plus = loss_grad(add_scaled(params, v, h), act, batch, reg).grads
    g_minus = loss_grad(add_scaled(params, v, -h), act, batch, reg).grads
    result = add_scaled(g_plus, g_minus, -1.0)
    result.vector *= 1.0 / (2.0 * h)
    if not np.all(np.isfinite(result.vector)):
        raise NumericError("non-finite Hessian-vector product")
    return result


class TopEigen(NamedTuple):
    lambda_max: float
    converged: bool
    iterations: int


def top_eigenvalue(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer, probe: CurvatureProbe
) -> TopEigen:
    """Largest-magnitude Hessian eigenvalue via power iteration.

    The start vector is a deterministic unit Gaussian from ``probe.seed``.
    Convergence is declared when the Rayleigh quotient's relative change
    drops below ``probe.tol``; an exactly-zero HVP reports eigenvalue 0.
    """
    rng = np.random.default_rng(probe.seed)
    v = rng.standard_normal(params.n_params)
    v /= np.linalg.norm(v)
    lam_prev = None
    lam = 0.0
    for i in range(1, probe.power_iters + 1):
        w = hvp(params, act, batch, reg, params.from_vector(v)).vector
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return TopEigen(0.0, True, i)
        lam = float(v @ w)
        converged = lam_prev is not None and abs(lam - lam_prev) <= probe.tol * max(
            abs(lam), 1e-30
        )
        lam_prev = lam
        v = w / wnorm
        if converged:
            return TopEigen(lam, True, i)
    return TopEigen(lam, False, probe.power_iters)


def exact_hessian(
    params: ParamSet,
    act: Activation,
    batch: Batch,
    reg: Regularizer,
    symmetrize: bool = True,
) -> np.ndarray:
    """Dense Hessian assembled column-by-column from HVPs on basis vectors.

    Guarded to small nets; symmetrized as (H + H.T)/2 unless disabled (the
    raw matrix is useful for checking the HVP's self-adjointness).
    """
    n = params.n_params
    if n > EXACT_HESSIAN_MAX_PARAMS:
        raise CapacityError(f"{n} parameters exceeds exact-Hessian guard {EXACT_HESSIAN_MAX_PARAMS}")
    H = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        H[:, j] = hvp(params, act, batch, reg, params.from_vector(e)).vector
        e[j] = 0.0
    if symmetrize:
        H = 0.5 * (H + H.T)
    return H


def effective_rank(eigs: np.ndarray, rel_threshold: float) -> int:
    """Count of eigenvalues above ``rel_threshold`` times the top magnitude."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.size == 0:
        raise ValueError("empty eigenvalue list")
    if not 0.0 < rel_threshold < 1.0:
        raise ValueError(f"rel_threshold must be in (0, 1), got {rel_threshold}")
    top = np.max(np.abs(eigs))
    if top == 0.0:
        return 0
    return int(np.sum(np.abs(eigs) > rel_threshold * top))
