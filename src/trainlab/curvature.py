"""Hessian-vector products and the top Hessian eigenvalue.

The product ``H v`` is Pearlmutter's R-op (*Fast exact multiplication by
the Hessian*, 1994): the directional derivative of the hand-written
gradient.  Everything it shares across directions at one parameter point
(the forward pass, the softmax and each layer's output gradient) is in the
``Sweep`` that ``nn.loss_grad`` gives there, made once per point; a probe
hands its noise pass's ``Sweep`` to ``top_eigenvalue``.  A product is then
one R-forward and one R-backward pass.  The activations are piecewise linear,
so ``phi''`` is zero almost everywhere and the product is exact away from
the kinks.  The penalty's Hessian is a multiple of the identity on each
layer's weights, which ``nn`` gives per kind (``_penalty_curvature``).  No
penalty is evaluated inside a product.

The top eigenvalue comes from a Lanczos three-term recurrence that stores
no basis (Ghorbani et al., arXiv:1901.10159).  After each product it takes
the largest-magnitude Ritz value of the tridiagonal matrix, keeping its
sign, and stops once that value's error bound, its squared residual over
its gap to the other Ritz values, is within the tolerance.  The dense
Hessian the tests check both against is in ``tests/oracles.py``.

The first layer sees the data only through the batch ``X`` (B x d), so
every solve runs in the batch's row space (``row_space``): from ``X^T = QR``
the first layer's weights become ``(out, min(d, B))`` on the input ``R^T``.
With d <= B that is a rotation.  With d > B a first-layer product costs
B x B x out instead of B x d x out, and the directions left out (``X dW^T =
0``) are eigenvectors of eigenvalue ``c1``, that layer's penalty curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .nn import (
    Activation,
    Batch,
    Layer,
    ParamSet,
    Regularizer,
    Sweep,
    _act_backward,
    _act_tangent,
    _penalty_curvature,
    check_finite,
    loss_grad,
)


@dataclass(frozen=True)
class CurvatureProbe:
    """``power_iters`` caps the Hessian-vector products of one eigensolve;
    ``tol`` bounds the eigenvalue's relative error (see ``top_eigenvalue``)."""

    power_iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.power_iters < 1:
            raise ConfigError(f"power_iters must be >= 1, got {self.power_iters}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")


def hvp(
    params: ParamSet,
    act: Activation,
    batch: Batch,
    reg: Regularizer,
    v: ParamSet,
    base: Sweep | None = None,
) -> ParamSet:
    """H @ v for the Hessian of the full (loss + regularizer) objective.

    ``base`` is ``loss_grad(params, act, batch, reg)``, built here when not
    given.  The product takes its layout from ``v`` and reads the first
    layer's weights only for its penalty curvature, so the ``row_space``
    base and layout give the product in the batch's row space.
    """
    if not np.any(v.vector):
        raise ValueError("hvp probe vector must be nonzero")
    if base is None:
        base = loss_grad(params, act, batch, reg)
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
    out = v.like(np.empty(v.n_params))
    for i in range(last, -1, -1):
        lay, dv, o = params.layers[i], v.layers[i], out.layers[i]
        np.matmul(rd.T, base.layer_inputs[i], out=o.weights)
        if r_inputs[i] is not None:
            o.weights += base.out_grads[i].T @ r_inputs[i]
        curv = _penalty_curvature(reg, lay)
        if curv != 0.0:
            o.weights += curv * dv.weights
        np.sum(rd, axis=0, out=o.bias)
        if i > 0:
            r_dx = rd @ lay.weights + base.out_grads[i] @ dv.weights
            rd = _act_backward(act, base.preacts[i - 1], r_dx)
    check_finite(out, "non-finite Hessian-vector product")
    return out


class TopEigen(NamedTuple):
    lambda_max: float
    converged: bool
    iterations: int  # Hessian-vector products made
    residual: float  # the Ritz residual ||H y - lambda y|| of the returned value


def _top_ritz(alphas: list[float], betas: list[float]) -> tuple[float, float, float]:
    """The largest-magnitude eigenvalue of the Lanczos tridiagonal matrix, the
    last entry of its unit eigenvector, and its distance to the nearest other
    eigenvalue (0 when it is the only one)."""
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, evecs = np.linalg.eigh(T)
    j = int(np.argmax(np.abs(evals)))
    others = np.delete(evals, j)
    gap = float(np.min(np.abs(others - evals[j]))) if others.size else 0.0
    return float(evals[j]), float(evecs[-1, j]), gap


def row_space(params: ParamSet, base: Sweep) -> tuple[ParamSet, Sweep]:
    """Coordinates of the batch's row space for the first layer.

    With the batch ``X`` (B x d) factored once as ``X^T = QR`` (``R`` is
    k x B, k = min(d, B)), a first-layer direction ``N Q^T`` (``N`` is
    ``(out, k)``) enters the loss only through ``X Q N^T = R^T N^T``.
    Returns a layout whose first-layer weights are ``(out, k)`` (its values
    unused) and ``base`` with ``R^T`` as the first layer's input; ``hvp``
    over the two maps ``(N, rest)`` to the first-layer block ``M`` and the
    rest of ``H (N Q^T, rest)``, whose first-layer block is ``M Q^T``.  Only
    ``R`` is computed.
    """
    first = params.layers[0]
    r = np.linalg.qr(base.layer_inputs[0].T, mode="r")
    first_row = Layer(first.layer_id, np.zeros((first.weights.shape[0], r.shape[0])), first.bias)
    layout = ParamSet([first_row] + params.layers[1:])
    return layout, replace(base, layer_inputs=[r.T] + base.layer_inputs[1:])


def top_eigenvalue(
    params: ParamSet,
    act: Activation,
    batch: Batch,
    reg: Regularizer,
    probe: CurvatureProbe,
    base: Sweep | None = None,
) -> TopEigen:
    """Largest-magnitude Hessian eigenvalue, signed, via Lanczos.

    The start vector is a deterministic unit Gaussian from ``probe.seed``.
    Step k makes one product and gives the Ritz value theta of the k x k
    tridiagonal matrix with the largest magnitude; its residual is
    ``|beta_k s_k|`` (``s`` its eigenvector).  By Kato-Temple (Parlett, *The
    Symmetric Eigenvalue Problem*, 1998) theta is within residual^2 / gap of
    an eigenvalue, gap being its distance to the rest of the spectrum, read
    here as its distance to the nearest other Ritz value (none, so 0, after
    one product).  The solve converges when ``residual^2 <= probe.tol *
    |theta| * min(|theta|, gap)``, which also keeps the residual within
    ``sqrt(probe.tol) * |theta|``, or when ``beta_k`` is 0 (an invariant
    subspace, as for a zero Hessian).
    Only the last two Lanczos vectors are kept.  Every product reads
    ``base`` (``loss_grad`` at ``params``), built here when not given.

    The recurrence and its start vector are in ``row_space`` coordinates.
    When d > B the first-layer directions they leave out are eigenvectors
    with eigenvalue ``c1``, so theta is returned unless ``|theta| < c1``,
    and then ``c1`` with residual 0.
    """
    if base is None:
        base = loss_grad(params, act, batch, reg)
    layout, base = row_space(params, base)
    c1 = _penalty_curvature(reg, params.layers[0]) if layout.n_params < params.n_params else 0.0
    rng = np.random.default_rng(probe.seed)
    v = rng.standard_normal(layout.n_params)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    for k in range(1, probe.power_iters + 1):
        w = hvp(params, act, batch, reg, layout.like(v), base).vector
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        theta, s_last, gap = _top_ritz(alphas, betas)
        residual = abs(beta * s_last)
        converged = beta == 0.0 or residual**2 <= probe.tol * abs(theta) * min(abs(theta), gap)
        if converged:
            break
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    if abs(theta) < c1:
        return TopEigen(c1, converged, k, 0.0)
    return TopEigen(theta, converged, k, residual)
