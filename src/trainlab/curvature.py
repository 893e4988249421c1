"""Hessian-vector products, the top Hessian eigenvalue, and exact small-net Hessians.

The product ``H v`` is Pearlmutter's R-op (*Fast exact multiplication by
the Hessian*, 1994): the directional derivative of the hand-written
gradient.  Everything it shares across directions at one parameter point
(the forward pass, the softmax and each layer's output gradient) is built
once as a ``BasePoint``; a product is then one R-forward and one R-backward
pass.  The activations are piecewise linear, so ``phi''`` is zero almost
everywhere and the product is exact away from the kinks.  The penalties'
Hessians are multiples of the identity on the weights: ``2 lam`` for L2 and
``2 lam / n`` for the Wasserstein penalty of an n-entry layer, whose sort
permutation is fixed almost everywhere.  No penalty is evaluated inside a
product.

The top eigenvalue comes from a Lanczos three-term recurrence that stores
no basis (Ghorbani et al., arXiv:1901.10159).  After each product it takes
the largest-magnitude Ritz value of the tridiagonal matrix, keeping its
sign, and stops once that value's residual is small relative to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, NumericError
from .nn import (
    Activation,
    Batch,
    ParamSet,
    Regularizer,
    _act_backward,
    _act_tangent,
    _forward,
    _mean_ce_slope,
    _softmax_stats,
)

# Off the product path, but bound here: bench/tracing.py wraps this name in this module.
from .nn import loss_grad  # noqa: F401

EXACT_HESSIAN_MAX_PARAMS = 2000


@dataclass(frozen=True)
class CurvatureProbe:
    """``power_iters`` caps the Hessian-vector products of one eigensolve;
    ``tol`` is the relative tolerance on the eigenvalue."""

    power_iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.power_iters < 1:
            raise ConfigError(f"power_iters must be >= 1, got {self.power_iters}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")


@dataclass
class BasePoint:
    """What every Hessian-vector product at one parameter point shares."""

    layer_inputs: list[np.ndarray]  # (B, in) per layer
    preacts: list[np.ndarray]  # (B, width) per hidden layer
    probs: np.ndarray  # (B, C) softmax of the logits
    out_grads: list[np.ndarray]  # (B, out) per layer: dL/d(its output), 1/B included
    penalty_curvature: list[float]  # per layer: the penalty's Hessian on its weights, times I


def base_point(params: ParamSet, act: Activation, batch: Batch, reg: Regularizer) -> BasePoint:
    """One forward pass and one reverse sweep of output gradients at ``params``."""
    logits, preacts, layer_inputs = _forward(params, act, batch.inputs)
    _, probs = _softmax_stats(logits, batch.labels)
    out_grads: list = [None] * len(params.layers)
    d = _mean_ce_slope(probs, batch.labels)
    for i in range(len(params.layers) - 1, -1, -1):
        out_grads[i] = d
        if i > 0:
            d = _act_backward(act, preacts[i - 1], d @ params.layers[i].weights)
    if reg.kind == "none" or reg.lam == 0.0:
        curv = [0.0] * len(params.layers)
    elif reg.kind == "l2":
        curv = [2.0 * reg.lam] * len(params.layers)
    else:  # wasserstein
        curv = [2.0 * reg.lam / lay.weights.size for lay in params.layers]
    return BasePoint(layer_inputs, preacts, probs, out_grads, curv)


def hvp(
    params: ParamSet,
    act: Activation,
    batch: Batch,
    reg: Regularizer,
    v: ParamSet,
    base: BasePoint | None = None,
) -> ParamSet:
    """H @ v for the Hessian of the full (loss + regularizer) objective.

    ``base`` is ``base_point(params, act, batch, reg)``, built here when not
    given; callers making many products at one point pass it in.
    """
    if not np.any(v.vector):
        raise ValueError("hvp probe vector must be nonzero")
    if base is None:
        base = base_point(params, act, batch, reg)
    last = len(params.layers) - 1
    # R-forward: the tangent of each layer's input (zero for the data) and of the logits
    r_inputs: list[np.ndarray | None] = [None]
    for i, (lay, dv) in enumerate(zip(params.layers, v.layers)):
        rz = base.layer_inputs[i] @ dv.weights.T + dv.bias
        if r_inputs[i] is not None:
            rz += r_inputs[i] @ lay.weights.T
        if i < last:
            r_inputs.append(_act_tangent(act, base.preacts[i], rz))
    # tangent of the mean cross-entropy's slope (softmax - one-hot) / B
    p = base.probs
    rd = p * (rz - np.sum(p * rz, axis=1, keepdims=True)) / p.shape[0]
    # R-backward: phi'' = 0, so each layer's output-gradient tangent is linear in rd
    out = params.like(np.empty(params.n_params))
    for i in range(last, -1, -1):
        lay, dv, o = params.layers[i], v.layers[i], out.layers[i]
        np.matmul(rd.T, base.layer_inputs[i], out=o.weights)
        if r_inputs[i] is not None:
            o.weights += base.out_grads[i].T @ r_inputs[i]
        if base.penalty_curvature[i] != 0.0:
            o.weights += base.penalty_curvature[i] * dv.weights
        np.sum(rd, axis=0, out=o.bias)
        if i > 0:
            r_dx = rd @ lay.weights + base.out_grads[i] @ dv.weights
            rd = _act_backward(act, base.preacts[i - 1], r_dx)
    if not np.all(np.isfinite(out.vector)):
        raise NumericError("non-finite Hessian-vector product")
    return out


class TopEigen(NamedTuple):
    lambda_max: float
    converged: bool
    iterations: int  # Hessian-vector products made
    residual: float  # the Ritz residual ||H y - lambda y|| of the returned value


def _top_ritz(alphas: list[float], betas: list[float]) -> tuple[float, float]:
    """The largest-magnitude eigenvalue of the Lanczos tridiagonal matrix and
    the last entry of its unit eigenvector."""
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, evecs = np.linalg.eigh(T)
    j = int(np.argmax(np.abs(evals)))
    return float(evals[j]), float(evecs[-1, j])


def top_eigenvalue(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer, probe: CurvatureProbe
) -> TopEigen:
    """Largest-magnitude Hessian eigenvalue, signed, via Lanczos.

    The start vector is a deterministic unit Gaussian from ``probe.seed``.
    Step k makes one product and gives the Ritz value theta of the k x k
    tridiagonal matrix with the largest magnitude; its residual is
    ``|beta_k s_k|`` (``s`` its eigenvector).  The solve converges when that
    residual is at most ``sqrt(probe.tol) * |theta|`` or when ``beta_k`` is
    0 (an invariant subspace, as for a zero Hessian).  A Ritz value's error
    is about (residual / |theta|)^2, so ``probe.tol`` stays a relative
    tolerance on the eigenvalue.  Only the last two Lanczos vectors are kept.
    """
    base = base_point(params, act, batch, reg)
    stop = math.sqrt(probe.tol)
    rng = np.random.default_rng(probe.seed)
    v = rng.standard_normal(params.n_params)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    for k in range(1, probe.power_iters + 1):
        w = hvp(params, act, batch, reg, params.like(v), base).vector
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        theta, s_last = _top_ritz(alphas, betas)
        residual = abs(beta * s_last)
        if beta == 0.0 or residual <= stop * abs(theta):
            return TopEigen(theta, True, k, residual)
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    return TopEigen(theta, False, probe.power_iters, residual)


def exact_hessian(
    params: ParamSet,
    act: Activation,
    batch: Batch,
    reg: Regularizer,
    symmetrize: bool = True,
) -> np.ndarray:
    """Dense Hessian assembled column by column from R-op products on basis vectors.

    Guarded to small nets; symmetrized as (H + H.T)/2 unless disabled (the
    raw matrix is useful for checking the product's self-adjointness).
    """
    n = params.n_params
    if n > EXACT_HESSIAN_MAX_PARAMS:
        raise CapacityError(f"{n} parameters exceeds exact-Hessian guard {EXACT_HESSIAN_MAX_PARAMS}")
    base = base_point(params, act, batch, reg)
    H = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        H[:, j] = hvp(params, act, batch, reg, params.like(e), base).vector
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
