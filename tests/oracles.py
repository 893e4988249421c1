"""Slow reference implementations that the tests check trainlab against.

Nothing on trainlab's run path calls these: each one is the plain, direct
form of something the package computes faster or in factored form (the
dense Hessian, finite differences, a stable-sort penalty, Adam with every
per-layer rate repeated over its entries), or a summary that only the tests
read (effective rank, the window-chunked crossing predictor).  numpy and
trainlab are the only imports, so the benchmark can use this module too.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from trainlab.nn import GLOBAL_SCOPE, loss_grad

EXACT_HESSIAN_MAX_PARAMS = 2000


# ---------------------------------------------------------------------------
# curvature


def effective_rank(eigs, rel_threshold):
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


def fd_hvp(params, act, batch, reg, v, h):
    """Central difference of the gradient along v: (g(w + h v) - g(w - h v)) / 2h.

    A reference for the exact product only where the gradient is smooth on
    the segment [w - h v, w + h v]: no hidden pre-activation may change sign
    there, and no Wasserstein sort order may change.
    """
    up = loss_grad(params.like(params.vector + h * v.vector), act, batch, reg).grads.vector
    down = loss_grad(params.like(params.vector - h * v.vector), act, batch, reg).grads.vector
    return (up - down) / (2.0 * h)


def exact_hessian(params, act, batch, reg, symmetrize=True):
    """Dense Hessian assembled column by column from ``fd_hvp`` on basis
    vectors (h = 1e-5): central differences of the gradient, so it checks
    ``curvature.hvp`` without calling it.

    Valid only where no hidden pre-activation changes sign and no
    Wasserstein sort order changes within h of ``params``.  Guarded to small
    nets (ValueError above EXACT_HESSIAN_MAX_PARAMS); symmetrized as
    (H + H.T)/2 unless disabled.
    """
    n = params.n_params
    if n > EXACT_HESSIAN_MAX_PARAMS:
        raise ValueError(f"{n} parameters exceeds exact-Hessian guard {EXACT_HESSIAN_MAX_PARAMS}")
    H = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        H[:, j] = fd_hvp(params, act, batch, reg, params.like(e), h=1e-5)
        e[j] = 0.0
    if symmetrize:
        H = 0.5 * (H + H.T)
    return H


def param_dot(a, b):
    return float(np.vdot(a.vector, b.vector))


# ---------------------------------------------------------------------------
# gradients and penalties


def fd_gradient(params, act, batch, reg, h=1e-4):
    """Central finite differences of the scalar loss, parameter by parameter."""
    base = params.copy()
    grad = []
    vec = base.to_vector()
    for j in range(vec.size):
        vp = vec.copy()
        vp[j] += h
        vm = vec.copy()
        vm[j] -= h
        lp = loss_grad(base.from_vector(vp), act, batch, reg).loss
        lm = loss_grad(base.from_vector(vm), act, batch, reg).loss
        grad.append((lp - lm) / (2 * h))
    return np.array(grad)


def stable_wasserstein_penalty(current, init_sorted):
    """The Wasserstein penalty through one stable argsort on every call: the
    reference for ``nn.wasserstein_penalty``, whose fast sort must give the
    same value, gradient and gradient signs (ties ordered by index)."""
    flat = current.ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")
    diffs = flat[order] - init_sorted
    value = float(np.mean(diffs**2))
    grad_flat = np.zeros_like(flat)
    grad_flat[order] = (2.0 / n) * diffs
    return value, grad_flat.reshape(current.shape)


# ---------------------------------------------------------------------------
# Adam


def repeated_rates(ps, eta, scope=GLOBAL_SCOPE):
    """Each layer's rate in ``eta`` repeated over its scoped entries of ``ps``."""
    ids = ps.layer_ids() if scope == GLOBAL_SCOPE else [scope]
    return np.repeat([float(eta[lid]) for lid in ids], [ps.segment(lid).size for lid in ids])


def reference_effective_step(state, scope=GLOBAL_SCOPE):
    """The mean elementwise multiplier over the scope's repeated rates: the
    reference for ``optim.effective_step``, which must give the same bits."""
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    v_hat = state.v.segment(scope) / bc2
    eta = repeated_rates(state.v, state.eta, scope)
    return float(np.mean(eta / (bc1 * (np.sqrt(v_hat) + state.eps))))


def reference_agg_step(state, scope=GLOBAL_SCOPE):
    """``optim.agg_step`` with the scope's rate taken as the mean of the
    repeated rates, which is not a layer's rate exactly (1e-3 + 4.3e-19 over
    32,832 entries)."""
    bc2 = 1.0 - state.beta2**state.t
    rms = float(np.sqrt(np.mean(state.v.segment(scope) / bc2)))
    return float(np.mean(repeated_rates(state.v, state.eta, scope))) / (rms + state.eps)


def reference_adam_step(state, params, grads):
    """Adam with every intermediate a fresh array and the per-layer LRs
    repeated over their entries: the reference for ``optim.adam_step``.
    Skips the finite check and the scratch rows."""
    g = grads.vector
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    m, v = state.m.vector, state.v.vector
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g**2
    m_hat = m / bc1
    v_hat = v / bc2
    params.vector -= repeated_rates(params, state.eta) * m_hat / (np.sqrt(v_hat) + state.eps)
    return state, params


# ---------------------------------------------------------------------------
# loss-of-trainability predictor


class LotPrediction(NamedTuple):
    per_task: list[float]
    rho_hat: float


def _step_crossed(entry) -> bool:
    if isinstance(entry, Mapping):
        return any(bool(v) for v in entry.values())
    if isinstance(entry, (bool, np.bool_)):
        return bool(entry)
    raise TypeError(f"a crossing entry is a bool or a layer -> bool mapping, not {entry!r}")


def predict_lot(crossing_flags: Sequence, window: int) -> LotPrediction:
    """Per-task fraction of steps where any layer crosses its combined bound.

    ``crossing_flags`` is one entry per step: a bool, or a mapping of layer
    id to bool (any other entry raises TypeError).  Consecutive groups of
    ``window`` steps form one task (a shorter trailing group is kept).  Also
    reports the run-level fraction over all steps.  The reference for
    ``runner.summarize``, which groups logged records by their task column.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    crossed = [_step_crossed(e) for e in crossing_flags]
    chunks = [crossed[start : start + window] for start in range(0, len(crossed), window)]
    per_task = [sum(chunk) / len(chunk) for chunk in chunks]
    rho_hat = sum(crossed) / len(crossed) if crossed else 0.0
    return LotPrediction(per_task, rho_hat)
