import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from trainlab.nn import Activation, Batch, Regularizer, init_mlp, loss_grad

ACTIVATIONS = [
    Activation("relu"),
    Activation("leaky_relu", 0.3),
    Activation("crelu"),
    Activation("linear"),
]


REPO = Path(__file__).resolve().parent.parent


def load_bench_module(name):
    """Import ``bench/<name>.py`` (read only) without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def make_net(in_dim, hidden, n_classes, act, seed=0):
    rng = np.random.default_rng(seed)
    return init_mlp(in_dim, [hidden] if np.isscalar(hidden) else list(hidden), n_classes, act, rng)


def make_batch(in_dim, n_classes, B, seed=0):
    rng = np.random.default_rng(seed + 1000)
    return Batch(rng.normal(size=(B, in_dim)), rng.integers(0, n_classes, size=B))


def make_reg(kind, params, lam=1e-2, perturb_seed=None):
    """A regularizer for tests; the wasserstein snapshot is optionally a
    perturbed copy so the penalty is nonzero at the current point."""
    if kind == "none":
        return Regularizer("none")
    if kind == "l2":
        return Regularizer("l2", lam)
    snap = params.copy()
    if perturb_seed is not None:
        rng = np.random.default_rng(perturb_seed)
        for lay in snap.layers:
            lay.weights += 0.3 * rng.normal(size=lay.weights.shape)
    return Regularizer("wasserstein", lam, snap)


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


def fd_hvp(params, act, batch, reg, v, h):
    """Central difference of the gradient along v: (g(w + h v) - g(w - h v)) / 2h.

    A reference for the exact product only where the gradient is smooth on
    the segment [w - h v, w + h v]: no hidden pre-activation may change sign
    there, and no Wasserstein sort order may change.
    """
    up = loss_grad(params.like(params.vector + h * v.vector), act, batch, reg).grads.vector
    down = loss_grad(params.like(params.vector - h * v.vector), act, batch, reg).grads.vector
    return (up - down) / (2.0 * h)


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
    params.vector -= params.per_entry(state.eta) * m_hat / (np.sqrt(v_hat) + state.eps)
    return state, params


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
