import sys
import tracemalloc

import numpy as np
import pytest

import trainlab.curvature as curvature_mod
from trainlab import config
from trainlab.curvature import CurvatureProbe, hvp, top_eigenvalue
from trainlab.errors import NumericError
from trainlab.nn import (
    Activation,
    Batch,
    Layer,
    ParamSet,
    Regularizer,
    forward,
    loss_grad,
    probe_grads,
)

from conftest import (
    ACT_REG_CASES,
    ACTIVATIONS,
    REG_KINDS,
    load_bench_module,
    make_batch,
    make_net,
    make_reg,
    rel_err,
    with_depths,
)
import oracles
from oracles import effective_rank, exact_hessian, fd_hvp, param_dot

NONE = Regularizer("none")
LIN = Activation("linear")
RELU = Activation("relu")


def softmax_closed_form_hessian(params, batch):
    """Analytic Hessian of mean softmax cross-entropy for a 1-layer linear net.

    With logits z = W x + b and p = softmax(z), the Hessian w.r.t. the
    stacked parameters is (1/B) sum_s K_s kron a_s a_s^T in the (class, aug
    input) index pair, where K_s = diag(p_s) - p_s p_s^T and a_s = [x_s; 1].
    Flattening order matches ParamSet.to_vector (weights row-major, then bias).
    """
    W, b = params.layers[0].weights, params.layers[0].bias
    C, d = W.shape
    B = batch.size
    n = C * d + C
    H = np.zeros((n, n))
    for s in range(B):
        x = batch.inputs[s]
        z = W @ x + b
        p = np.exp(z - z.max())
        p /= p.sum()
        K = np.diag(p) - np.outer(p, p)
        a = np.concatenate([x, [1.0]])  # augmented input
        block = np.kron(K, np.outer(a, a))  # index ((o, i), (o', i')) with i in aug coords
        H += block / B
    # reorder from (class, aug-input) blocks to [W.ravel(), b] flat layout
    idx = np.concatenate(
        [np.arange(C * (d + 1)).reshape(C, d + 1)[:, :d].ravel(),
         np.arange(C * (d + 1)).reshape(C, d + 1)[:, d]]
    )
    return H[np.ix_(idx, idx)]


def random_direction(params, seed):
    rng = np.random.default_rng(seed)
    return params.from_vector(rng.normal(size=params.n_params))


# ---------------------------------------------------------------------------
# hvp


def test_hvp_matches_closed_form_softmax_hessian():
    params = make_net(3, [], 4, LIN, seed=1)  # single linear layer
    batch = make_batch(3, 4, 8, seed=1)
    H = softmax_closed_form_hessian(params, batch)
    v = random_direction(params, 2)
    got = hvp(params, LIN, batch, NONE, v).to_vector()
    assert rel_err(got, H @ v.to_vector()) < 1e-4


def test_hvp_linearity():
    params = make_net(2, 6, 3, RELU, seed=3)
    batch = make_batch(2, 3, 5, seed=3)
    v = random_direction(params, 4)
    two_v = v.like(v.vector + 1.0 * v.vector)
    h1 = hvp(params, RELU, batch, NONE, v).to_vector()
    h2 = hvp(params, RELU, batch, NONE, two_v).to_vector()
    assert rel_err(h2, 2.0 * h1) < 1e-3
    u = random_direction(params, 5)
    combo = v.like(v.vector + 0.5 * u.vector)
    hc = hvp(params, RELU, batch, NONE, combo).to_vector()
    hu = hvp(params, RELU, batch, NONE, u).to_vector()
    assert rel_err(hc, h1 + 0.5 * hu) < 1e-3


def test_hvp_symmetry_pairs():
    params = make_net(2, 8, 3, Activation("leaky_relu", 0.3), seed=6)
    batch = make_batch(2, 3, 6, seed=6)
    act = Activation("leaky_relu", 0.3)
    for k in range(20):
        u = random_direction(params, 100 + k)
        v = random_direction(params, 200 + k)
        uhv = param_dot(u, hvp(params, act, batch, NONE, v))
        vhu = param_dot(v, hvp(params, act, batch, NONE, u))
        assert abs(uhv - vhu) <= 1e-3 * max(abs(uhv), abs(vhu), 1e-30)


def test_hvp_matches_dense_hessian():
    params = make_net(2, 8, 3, RELU, seed=7)
    batch = make_batch(2, 3, 6, seed=7)
    H = exact_hessian(params, RELU, batch, NONE)
    v = random_direction(params, 8)
    got = hvp(params, RELU, batch, NONE, v).to_vector()
    assert rel_err(got, H @ v.to_vector()) < 1e-3


def _smooth_pattern(params, act, batch, reg):
    """What must not change along a finite-difference segment: the sign of
    every hidden pre-activation and, for the Wasserstein penalty, each
    layer's sort order."""
    out = [z > 0.0 for z in forward(params, act, batch).hidden_preacts]
    if reg.kind == "wasserstein":
        out += [np.argsort(lay.weights.ravel(), kind="stable") for lay in params.layers]
    return out


@pytest.mark.parametrize("reg_kind", ["none", "l2", "wasserstein"])
@pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
def test_hvp_matches_fd_oracle(act, reg_kind):
    """The R-op product against a central difference of the gradient along
    seeded unit directions whose +-h segment stays on one side of every kink."""
    params = make_net(5, 16, 4, act, seed=21)
    batch = make_batch(5, 4, 12, seed=21)
    reg = make_reg(reg_kind, params, lam=1e-2, perturb_seed=3)
    rng = np.random.default_rng([21, 0x6AD])
    h = 1e-5
    checked = 0
    for _ in range(20):
        v = rng.standard_normal(params.n_params)
        v = params.like(v / np.linalg.norm(v))
        up = _smooth_pattern(params.like(params.vector + h * v.vector), act, batch, reg)
        down = _smooth_pattern(params.like(params.vector - h * v.vector), act, batch, reg)
        if any(np.any(a != b) for a, b in zip(up, down)):
            continue
        got = hvp(params, act, batch, reg, v).vector
        assert rel_err(got, fd_hvp(params, act, batch, reg, v, h)) <= 1e-6
        checked += 1
        if checked == 3:
            break
    assert checked == 3, "no three kink-free directions in 20 draws"


def test_hvp_zero_vector_rejected():
    params = make_net(2, 4, 3, RELU)
    batch = make_batch(2, 3, 4)
    with pytest.raises(ValueError):
        hvp(params, RELU, batch, NONE, params.from_vector(np.zeros(params.n_params)))


# ---------------------------------------------------------------------------
# top_eigenvalue


def saturated_net_and_batch():
    """Deeply saturated logistic pair: gradients are exactly zero in a whole
    neighborhood (exp underflow), so every HVP vanishes identically."""
    params = ParamSet([Layer("fc1", np.zeros((2, 1)), np.array([1000.0, -1000.0]))])
    batch = Batch(np.ones((2, 1)), np.array([0, 0]))
    return params, batch


def test_top_eigenvalue_zero_hessian():
    params, batch = saturated_net_and_batch()
    res = top_eigenvalue(params, LIN, batch, NONE, CurvatureProbe(seed=0))
    assert res.lambda_max == 0.0
    assert res.converged


def test_top_eigenvalue_matches_dense_eig():
    params = make_net(3, 8, 4, RELU, seed=9)
    batch = make_batch(3, 4, 6, seed=9)
    H = exact_hessian(params, RELU, batch, NONE)
    eigs = np.linalg.eigvalsh(H)
    dense_top = eigs[np.argmax(np.abs(eigs))]
    res = top_eigenvalue(params, RELU, batch, NONE, CurvatureProbe(power_iters=100, seed=1))
    assert abs(res.lambda_max - dense_top) <= 0.01 * abs(dense_top)


def test_top_eigenvalue_deterministic():
    params = make_net(2, 5, 3, RELU, seed=10)
    batch = make_batch(2, 3, 4, seed=10)
    probe = CurvatureProbe(power_iters=30, seed=77)
    a = top_eigenvalue(params, RELU, batch, NONE, probe)
    b = top_eigenvalue(params, RELU, batch, NONE, probe)
    assert a == b


def test_top_eigenvalue_ritz_residual():
    params = make_net(2, 6, 3, RELU, seed=11)
    batch = make_batch(2, 3, 5, seed=11)
    res = top_eigenvalue(params, RELU, batch, NONE, CurvatureProbe(power_iters=200, tol=1e-10, seed=5))
    eigs = np.linalg.eigvalsh(exact_hessian(params, RELU, batch, NONE))
    dense_top = eigs[np.argmax(np.abs(eigs))]
    assert res.converged
    assert res.residual <= 1e-5 * abs(res.lambda_max)
    assert abs(res.lambda_max - dense_top) <= 1e-8 * abs(dense_top)


def test_top_eigenvalue_meets_its_tolerance_with_a_close_second_eigenvalue():
    """The top two eigenvalues are 9% apart, so a residual of sqrt(tol) *
    |lambda| leaves an error of about tol / 0.09: a stop on the residual
    alone misses tol (3.6 tol here); the stop on residual^2 / gap meets it."""
    act = Activation("crelu")
    params = make_net(4, 4, 2, act, seed=17)
    batch = make_batch(4, 2, 10, seed=17)
    eigs = np.linalg.eigvalsh(exact_hessian(params, act, batch, NONE))
    top, second = sorted(eigs, key=abs)[-1:-3:-1]
    assert abs(top - second) < 0.1 * abs(top)
    tol = 1e-6
    res = top_eigenvalue(params, act, batch, NONE, CurvatureProbe(power_iters=100, tol=tol, seed=0))
    assert res.converged
    assert abs(res.lambda_max - top) <= tol * abs(top)


@pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
@pytest.mark.parametrize("reg_kind", ["none", "l2", "wasserstein"])
def test_top_eigenvalue_reads_a_caller_built_sweep_bit_for_bit(act, reg_kind):
    """Given the sweep, as the runner passes the one its noise pass made, the
    solve returns the same TopEigen as one that builds its own."""
    params = make_net(4, 6, 3, act, seed=11)
    batch = make_batch(4, 3, 9, seed=11)
    reg = make_reg(reg_kind, params, perturb_seed=11)
    probe = CurvatureProbe(power_iters=40, tol=1e-10, seed=5)
    own = top_eigenvalue(params, act, batch, reg, probe)
    assert own.iterations > 1
    for base in (loss_grad(params, act, batch, reg), probe_grads(params, act, batch, reg).sweep):
        assert top_eigenvalue(params, act, batch, reg, probe, base=base) == own


@pytest.mark.parametrize("budget", [3, 100])
def test_top_eigenvalue_counts_its_products(monkeypatch, budget):
    """One curvature.hvp call per iteration, whether the solve converges
    (budget 100) or runs out its budget (3)."""
    params = make_net(3, 8, 4, RELU, seed=9)
    batch = make_batch(3, 4, 6, seed=9)
    calls = []
    real = curvature_mod.hvp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(curvature_mod, "hvp", counting)
    res = top_eigenvalue(params, RELU, batch, NONE, CurvatureProbe(power_iters=budget, seed=1))
    assert res.converged == (budget == 100)
    assert len(calls) == res.iterations
    assert res.iterations == budget or res.converged


def test_top_eigenvalue_stores_no_basis():
    """At 203k parameters the solve's peak allocation stays below 16
    parameter-sized vectors over more than 16 products: no k x n basis."""
    params = make_net(784, 256, 10, RELU, seed=2)
    batch = make_batch(784, 10, 256, seed=2)
    reg = Regularizer("l2", 1e-3)
    vector_bytes = params.n_params * 8
    probe = CurvatureProbe(power_iters=100, tol=1e-20, seed=3)  # tight, for a long solve
    tracemalloc.start()
    try:
        res = top_eigenvalue(params, RELU, batch, reg, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"{res.iterations} products, peak {peak / vector_bytes:.1f} parameter vectors")
    assert res.iterations > 16
    assert peak < 16 * vector_bytes


# ---------------------------------------------------------------------------
# the first layer in the batch's row space (input width d > batch size B)

WIDE_D, WIDE_B = 9, 5


def wide_net(act, reg_kind, hidden, seed):
    params = make_net(WIDE_D, hidden, 3, act, seed=seed)
    batch = make_batch(WIDE_D, 3, WIDE_B, seed=seed)
    return params, batch, make_reg(reg_kind, params, perturb_seed=seed)


@pytest.mark.parametrize("act, reg_kind, hidden", with_depths(ACT_REG_CASES))
def test_row_space_top_eigenvalue_matches_dense_eig(act, reg_kind, hidden):
    # the depth-3 net at seed 31 has a ReLU pre-activation within exact_hessian's
    # FD step of its kink, where the dense oracle is wrong; at seed 5 none is
    seed = 31 if hidden == 6 else 5
    params, batch, reg = wide_net(act, reg_kind, hidden, seed)
    eigs = np.linalg.eigvalsh(exact_hessian(params, act, batch, reg))
    dense_top = eigs[np.argmax(np.abs(eigs))]
    res = top_eigenvalue(params, act, batch, reg, CurvatureProbe(power_iters=300, tol=1e-16, seed=4))
    assert res.converged
    assert abs(res.lambda_max - dense_top) <= 1e-8 * abs(dense_top)


def _lift(params, v_row, q):
    """The full-space direction whose first-layer block is N Q^T."""
    first = v_row.layers[0].weights @ q.T
    return params.like(np.concatenate([first.ravel(), v_row.vector[v_row.layers[0].weights.size :]]))


@pytest.mark.parametrize("act, reg_kind, hidden", with_depths(ACT_REG_CASES))
def test_row_space_product_is_the_full_product(act, reg_kind, hidden):
    """With the first-layer block of v written as N Q^T (X^T = QR, reduced),
    the row-space product, its first-layer block times Q^T, is H v."""
    params, batch, reg = wide_net(act, reg_kind, hidden, seed=32)
    base = loss_grad(params, act, batch, reg)
    layout, row_base = curvature_mod.row_space(params, base)
    q, r = np.linalg.qr(batch.inputs.T)
    np.testing.assert_array_equal(row_base.layer_inputs[0], r.T)
    assert layout.layers[0].weights.shape == (6, WIDE_B)
    rng = np.random.default_rng(32)
    for _ in range(3):
        v_row = layout.like(rng.standard_normal(layout.n_params))
        got = hvp(params, act, batch, reg, v_row, row_base)
        want = hvp(params, act, batch, reg, _lift(params, v_row, q), base).vector
        assert rel_err(_lift(params, got, q).vector, want) <= 1e-12


@pytest.mark.parametrize("reg_kind, hidden", with_depths([(reg, (reg,)) for reg in REG_KINDS]))
def test_direction_orthogonal_to_the_batch_is_a_penalty_eigenvector(reg_kind, hidden):
    """A first-layer direction P with X P^T = 0 (zero elsewhere) gives
    H v = c1 v: 2 lam for L2, 2 lam / n for the Wasserstein penalty of the
    n-entry first layer, 0 without a penalty."""
    act = Activation("relu")
    params, batch, reg = wide_net(act, reg_kind, hidden, seed=33)
    q, _ = np.linalg.qr(batch.inputs.T)
    rng = np.random.default_rng(33)
    first = params.layers[0].weights
    p = rng.standard_normal(first.shape)
    p -= (p @ q) @ q.T
    assert np.max(np.abs(batch.inputs @ p.T)) <= 1e-12
    v = params.like(np.zeros(params.n_params))
    v.layers[0].weights[...] = p
    c1 = {"none": 0.0, "l2": 2.0 * reg.lam, "wasserstein": 2.0 * reg.lam / first.size}[reg_kind]
    got = hvp(params, act, batch, reg, v).vector
    assert np.linalg.norm(got - c1 * v.vector) <= 1e-12 * np.linalg.norm(v.vector)


@pytest.mark.parametrize("reg_kind", ["none", "l2", "wasserstein"])
def test_complement_eigenvalue_guard(reg_kind):
    """On a saturated net the data Hessian is zero, so the row-space operator
    is c1 on the first layer's weights and zero on its biases.  A one-product
    solve's Ritz value c1 ||v_w||^2 is below c1; the complement's eigenvalue
    c1 is returned (exact, residual 0).  Without a penalty c1 is 0 and the
    Ritz value stands."""
    params = ParamSet([Layer("fc1", np.zeros((2, 3)), np.array([1000.0, -1000.0]))])
    batch = Batch(np.ones((2, 3)), np.array([0, 0]))
    reg = make_reg(reg_kind, params, lam=0.25)
    res = top_eigenvalue(params, LIN, batch, reg, CurvatureProbe(power_iters=1, seed=2))
    c1 = {"none": 0.0, "l2": 0.5, "wasserstein": 0.5 / 6}[reg_kind]
    assert res.iterations == 1
    assert res.converged == (c1 == 0.0)  # a zero operator is an invariant subspace at once
    assert res.lambda_max == c1
    if c1 > 0.0:
        assert res.residual == 0.0


@pytest.mark.parametrize("d, shape", [(WIDE_D, (6, WIDE_B)), (4, (6, 4))])
def test_every_product_is_made_in_the_row_space_layout(monkeypatch, d, shape):
    """A probe with d > B makes every product with an (out, B) first layer;
    with d <= B, with the (out, d) one."""
    params = make_net(d, 6, 3, RELU, seed=34)
    batch = make_batch(d, 3, WIDE_B, seed=34)
    shapes = []
    real = curvature_mod.hvp

    def recording(params, act, batch, reg, v, base=None, worker=None):
        shapes.append(v.layers[0].weights.shape)
        return real(params, act, batch, reg, v, base, worker)

    monkeypatch.setattr(curvature_mod, "hvp", recording)
    res = top_eigenvalue(params, RELU, batch, NONE, CurvatureProbe(power_iters=50, tol=1e-12, seed=3))
    assert len(shapes) == res.iterations > 1
    assert set(shapes) == {shape}


@pytest.mark.parametrize("in_dim, hidden, n_classes, seed", [(2, 10, 3, 101), (7, 7, 3, 111)])
def test_a_probe_with_d_at_most_b_solves_through_row_space(monkeypatch, in_dim, hidden, n_classes, seed):
    """Criterion 3's shapes (B = 8, d <= 7): the solve factors the batch once
    through row_space, and every product reads the base it returns, with the
    first layer's (out, d) shape."""
    params = make_net(in_dim, hidden, n_classes, RELU, seed=seed)
    batch = make_batch(in_dim, n_classes, 8, seed=seed)
    bases, products = [], []
    real_row_space, real_hvp = curvature_mod.row_space, curvature_mod.hvp

    def recording_row_space(params, base):
        out = real_row_space(params, base)
        bases.append(out[1])
        return out

    def recording_hvp(params, act, batch, reg, v, base=None, worker=None):
        products.append((v.layers[0].weights.shape, base))
        return real_hvp(params, act, batch, reg, v, base, worker)

    monkeypatch.setattr(curvature_mod, "row_space", recording_row_space)
    monkeypatch.setattr(curvature_mod, "hvp", recording_hvp)
    res = top_eigenvalue(params, RELU, batch, NONE, CurvatureProbe(power_iters=100, seed=1))
    assert len(bases) == 1
    assert bases[0].layer_inputs[0].shape == (8, in_dim)
    assert len(products) == res.iterations > 1
    assert all(shape == (hidden, in_dim) and base is bases[0] for shape, base in products)


def duplicated_rows_batch(in_dim, n_classes, distinct, B, seed):
    """A batch of ``distinct`` random rows repeated in order up to B rows:
    rank ``distinct``, so the QR's R has numerically zero trailing rows."""
    rows = make_batch(in_dim, n_classes, distinct, seed=seed).inputs
    labels = np.random.default_rng(seed).integers(0, n_classes, size=B)
    return Batch(np.resize(rows, (B, in_dim)), labels)


@pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
@pytest.mark.parametrize("reg_kind", ["l2", "wasserstein"])
@pytest.mark.parametrize("in_dim, B", [(4, 8), (WIDE_D, WIDE_B)], ids=["d_le_b", "d_gt_b"])
def test_rank_deficient_batch_top_eigenvalue_matches_dense_eig(act, reg_kind, in_dim, B):
    """A batch with duplicated rows gives row_space an R whose trailing rows
    are numerically zero; the solve still returns the dense top eigenvalue."""
    params = make_net(in_dim, 6, 3, act, seed=36)
    batch = duplicated_rows_batch(in_dim, 3, 2, B, seed=36)
    reg = make_reg(reg_kind, params, perturb_seed=36)
    r = np.linalg.qr(batch.inputs.T, mode="r")
    assert np.max(np.abs(r[2:])) <= 1e-12 * np.max(np.abs(r))
    eigs = np.linalg.eigvalsh(exact_hessian(params, act, batch, reg))
    dense_top = eigs[np.argmax(np.abs(eigs))]
    res = top_eigenvalue(params, act, batch, reg, CurvatureProbe(power_iters=300, tol=1e-16, seed=4))
    assert res.converged
    assert abs(res.lambda_max - dense_top) <= 1e-8 * abs(dense_top)


def test_hvp_rejects_a_nonfinite_product():
    """A NaN in the direction's first layer reaches every block of the
    product; the error names the first layer."""
    params = make_net(3, 4, 2, RELU, seed=35)
    batch = make_batch(3, 2, 5, seed=35)
    v = random_direction(params, 35)
    v.layers[0].bias[0] = np.nan
    with pytest.raises(NumericError) as exc:
        hvp(params, RELU, batch, NONE, v)
    assert exc.value.layer_id == "fc1"


@pytest.mark.parametrize("workload", ["desk_l2_scheduled", "desk_crelu_w2_train"])
def test_benchmark_sharpness_check(workload, tmp_path):
    """The benchmark's own sharpness check on its fixed desk-shape probe:
    ReLU with L2 at a 50-product budget, CReLU with the Wasserstein penalty
    at 10, against ARPACK over a central difference too small to cross a kink."""
    pytest.importorskip("scipy")
    checks = load_bench_module("checks")
    text = load_bench_module("workloads").WORKLOADS[workload].config_text(0, tmp_path)
    cfg = config.build_run_config(config.parse_config_text(text))
    probe = checks.sharpness_probe(cfg)
    check = checks.sharpness_check(checks.sharpness_top(probe, cfg), checks.sharpness_reference(probe))
    print(check.detail)
    assert check.ok, check.detail


# ---------------------------------------------------------------------------
# exact_hessian


def test_exact_hessian_diagonal_matches_second_difference():
    params = make_net(1, [], 2, LIN, seed=12)
    batch = make_batch(1, 2, 4, seed=12)
    H = exact_hessian(params, LIN, batch, NONE)
    vec = params.to_vector()
    h = 1e-3

    def loss_at(j, delta):
        v = vec.copy()
        v[j] += delta
        return loss_grad(params.from_vector(v), LIN, batch, NONE).loss

    for j in range(vec.size):
        second = (loss_at(j, h) - 2 * loss_at(j, 0.0) + loss_at(j, -h)) / h**2
        assert abs(H[j, j] - second) <= 1e-3 * max(abs(second), 1e-12)


def test_exact_hessian_near_symmetric_before_symmetrization():
    params = make_net(2, 6, 3, RELU, seed=13)
    batch = make_batch(2, 3, 5, seed=13)
    raw = exact_hessian(params, RELU, batch, NONE, symmetrize=False)
    assert np.max(np.abs(raw - raw.T)) <= 1e-3 * np.max(np.abs(raw))


def test_exact_hessian_closed_form_linear_net():
    params = make_net(2, [], 3, LIN, seed=14)
    batch = make_batch(2, 3, 7, seed=14)
    H = exact_hessian(params, LIN, batch, NONE)
    assert rel_err(H, softmax_closed_form_hessian(params, batch)) < 1e-3


def test_exact_hessian_catches_a_doubled_hvp(monkeypatch):
    """The dense Hessian of acceptance criterion 2 comes from the gradient
    alone, so an ``hvp`` that returns twice the product cannot agree with it."""
    real = curvature_mod.hvp

    def doubled(*args, **kwargs):
        out = real(*args, **kwargs)
        return out.like(2.0 * out.vector)

    # every module that binds the name, so the oracle's columns see the fault if they use hvp
    for mod in (curvature_mod, oracles, sys.modules[__name__]):
        if getattr(mod, "hvp", None) is real:
            monkeypatch.setattr(mod, "hvp", doubled)
    act = Activation("crelu")
    params = make_net(8, 24, 6, act, seed=7)  # criterion 2's net and batch
    batch = make_batch(8, 6, 10, seed=7)
    H = exact_hessian(params, act, batch, NONE)
    v = params.from_vector(np.random.default_rng(11).normal(size=params.n_params))
    assert rel_err(hvp(params, act, batch, NONE, v).to_vector(), H @ v.to_vector()) > 0.4


def test_exact_hessian_capacity_guard():
    params = make_net(50, 50, 10, RELU)
    batch = make_batch(50, 10, 2)
    with pytest.raises(ValueError, match="exact-Hessian guard"):
        exact_hessian(params, RELU, batch, NONE)


# ---------------------------------------------------------------------------
# effective_rank


def test_effective_rank_examples():
    assert effective_rank(np.array([5.0, 0.0, 0.0]), 0.01) == 1
    assert effective_rank(np.full(7, 3.3), 0.5) == 7
    # direct evaluation of the relative rule: cut = thr * max|eig|
    assert effective_rank(np.array([10.0, 0.5, 0.05]), 0.001) == 3
    assert effective_rank(np.array([10.0, 0.5, 0.05]), 0.01) == 2
    assert effective_rank(np.array([10.0, 0.5, 0.05]), 0.1) == 1


def test_effective_rank_zero_and_errors():
    assert effective_rank(np.zeros(4), 0.1) == 0
    with pytest.raises(ValueError):
        effective_rank(np.array([]), 0.1)
    with pytest.raises(ValueError):
        effective_rank(np.ones(3), 1.5)


def test_effective_rank_scale_invariant(rng):
    eigs = rng.normal(size=20)
    base = effective_rank(eigs, 0.03)
    for c in (2.0, -5.0, 1e-6, 1e6):
        assert effective_rank(c * eigs, 0.03) == base
