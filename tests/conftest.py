import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from trainlab.nn import Activation, Batch, Regularizer, init_mlp

ACTIVATIONS = [
    Activation("relu"),
    Activation("leaky_relu", 0.3),
    Activation("crelu"),
    Activation("linear"),
]


REG_KINDS = ["none", "l2", "wasserstein"]


def with_depths(cases):
    """pytest params for each ``(id, values)`` case twice: with one hidden
    layer of 6 under the case's own id, then with three hidden layers
    (6, 5, 4) under the id plus ``-depth3``.  The widths come last."""
    return [pytest.param(*values, hidden, id=case_id + suffix)
            for suffix, hidden in (("", 6), ("-depth3", (6, 5, 4)))
            for case_id, values in cases]


# every activation with every penalty, ids as stacked parametrize names them
ACT_REG_CASES = [(f"{reg}-{act.kind}", (act, reg)) for reg in REG_KINDS for act in ACTIVATIONS]


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


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
