import math

import numpy as np
import pytest

from trainlab.errors import ConfigError, NumericError
from trainlab.metrics import minibatch_grad_variance
from trainlab import nn
from trainlab.nn import (
    Activation,
    Batch,
    Layer,
    ParamSet,
    Regularizer,
    crelu_apply,
    forward,
    loss_grad,
    mean_params,
    per_sample_grads,
    probe_grads,
    regularizer_penalty,
    wasserstein_penalty,
    zeros_like,
)
from trainlab.tasks import StreamConfig, SyntheticSource, batches, load_source, prepare, task_labels

from conftest import ACT_REG_CASES, ACTIVATIONS, make_batch, make_net, make_reg, rel_err, with_depths
from oracles import fd_gradient, stable_wasserstein_penalty

NONE = Regularizer("none")


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_uniform_loss():
    params = zeros_like(make_net(5, 8, 10, Activation("relu")))
    batch = make_batch(5, 10, 7)
    res = forward(params, Activation("relu"), batch)
    assert np.all(res.logits == 0.0)
    lg = loss_grad(params, Activation("relu"), batch, NONE)
    assert lg.loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_forward_linear_identity():
    params = ParamSet([Layer("fc1", np.eye(4), np.zeros(4))])
    batch = make_batch(4, 4, 6)
    res = forward(params, Activation("linear"), batch)
    np.testing.assert_array_equal(res.logits, batch.inputs)


def test_forward_matches_handrolled_matmul():
    act = Activation("relu")
    params = make_net(2, 16, 10, act, seed=3)
    batch = make_batch(2, 10, 5, seed=3)
    # independent oracle: explicit per-sample, per-unit loops
    logits = np.zeros((5, 10))
    for s in range(5):
        h = np.zeros(16)
        for o in range(16):
            acc = params.layers[0].bias[o]
            for i in range(2):
                acc += params.layers[0].weights[o, i] * batch.inputs[s, i]
            h[o] = max(acc, 0.0)
        for o in range(10):
            acc = params.layers[1].bias[o]
            for i in range(16):
                acc += params.layers[1].weights[o, i] * h[i]
            logits[s, o] = acc
    res = forward(params, act, batch)
    assert rel_err(res.logits, logits) < 1e-12


def test_forward_shape_mismatch_is_config_error():
    params = make_net(3, 8, 4, Activation("relu"))
    batch = make_batch(5, 4, 2)
    with pytest.raises(ConfigError):
        forward(params, Activation("relu"), batch)
    bad_bias = ParamSet([Layer("fc1", np.zeros((2, 5)), np.zeros(3))])
    with pytest.raises(ConfigError, match="bias shape"):
        forward(bad_bias, Activation("relu"), batch)
    with pytest.raises(ConfigError, match="no layers"):
        forward(ParamSet([]), Activation("relu"), batch)


def _two_layers():
    return [Layer("fc1", np.zeros((2, 3)), np.zeros(2)), Layer("fc2", np.zeros((1, 2)), np.zeros(1))]


BAD_INPUTS = {
    "paramset_duplicate_ids": lambda: ParamSet([Layer("fc1", np.zeros((2, 3)), np.zeros(2))] * 2),
    "paramset_vector_shape": lambda: ParamSet(_two_layers(), np.zeros(10)),
    "paramset_vector_2d": lambda: ParamSet(_two_layers(), np.zeros((1, 11))),
    "from_vector_size": lambda: ParamSet(_two_layers()).from_vector(np.zeros(12)),
    "leaky_relu_zero_slope": lambda: Activation("leaky_relu"),  # a ReLU under another name
    "batch_1d_inputs": lambda: Batch(np.zeros(3), np.zeros(3, dtype=int)),
    "batch_label_count": lambda: Batch(np.zeros((3, 2)), np.zeros(2, dtype=int)),
    "batch_no_rows": lambda: Batch(np.zeros((0, 2)), np.zeros(0, dtype=int)),
    "penalty_snapshot_layers": lambda: regularizer_penalty(
        ParamSet(_two_layers()[:1]), Regularizer("wasserstein", 0.1, ParamSet(_two_layers()))
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_containers_reject_bad_inputs(case):
    with pytest.raises(ConfigError):
        BAD_INPUTS[case]()


def test_mean_params_rejects_an_empty_list():
    with pytest.raises(ValueError, match="empty"):
        mean_params([])


def test_forward_crelu_width_doubles():
    act = Activation("crelu")
    params = make_net(3, 6, 4, act)
    assert params.layers[1].weights.shape == (4, 12)
    res = forward(params, act, make_batch(3, 4, 5))
    assert res.hidden_preacts[0].shape == (5, 6)


# ---------------------------------------------------------------------------
# crelu


def test_crelu_sign_split():
    np.testing.assert_array_equal(crelu_apply(np.array([1.0, -2.0])), [1.0, 0.0, 0.0, 2.0])


def test_crelu_zero():
    np.testing.assert_array_equal(crelu_apply(np.zeros(2)), np.zeros(4))


def test_crelu_reconstruction_identity(rng):
    x = rng.normal(size=37)
    y = crelu_apply(x)
    np.testing.assert_array_equal(y[:37] - y[37:], x)
    assert np.all(y >= 0.0)


# ---------------------------------------------------------------------------
# loss_grad vs finite differences (the gradient oracle)


@pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
@pytest.mark.parametrize("reg_kind", ["none", "l2", "wasserstein"])
def test_loss_grad_matches_finite_differences(act, reg_kind):
    params = make_net(2, 8, 3, act, seed=11)
    batch = make_batch(2, 3, 6, seed=11)
    reg = make_reg(reg_kind, params, lam=1e-2, perturb_seed=7)
    lg = loss_grad(params, act, batch, reg)
    fd = fd_gradient(params, act, batch, reg)
    assert rel_err(lg.grads.to_vector(), fd) < 1e-4


def test_l2_gradient_on_dataless_weights():
    # zero inputs make the data gradient of the weights vanish, leaving 2*lam*w
    lam = 0.05
    params = make_net(3, 4, 3, Activation("relu"), seed=2)
    batch = Batch(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
    lg = loss_grad(params, Activation("relu"), batch, Regularizer("l2", lam))
    for lay, g in zip(params.layers, lg.grads.layers):
        if lay.layer_id == "fc1":
            np.testing.assert_allclose(g.weights, 2.0 * lam * lay.weights, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# per-sample gradients


def test_per_sample_single_equals_batch():
    act = Activation("relu")
    params = make_net(4, 6, 3, act, seed=5)
    batch = make_batch(4, 3, 1, seed=5)
    ps = per_sample_grads(params, act, batch, NONE)
    assert len(ps) == 1
    lg = loss_grad(params, act, batch, NONE)
    assert rel_err(ps[0].to_vector(), lg.grads.to_vector()) < 1e-12


def test_per_sample_duplicated_sample_symmetry():
    act = Activation("leaky_relu", 0.3)
    params = make_net(3, 5, 4, act, seed=6)
    rng = np.random.default_rng(6)
    row = rng.normal(size=3)
    batch = Batch(np.stack([row, row]), np.array([2, 2]))
    ps = per_sample_grads(params, act, batch, NONE)
    np.testing.assert_array_equal(ps[0].to_vector(), ps[1].to_vector())


@pytest.mark.parametrize("B", [1, 2, 16, 64])
@pytest.mark.parametrize("reg_kind", ["none", "l2"])
def test_per_sample_mean_matches_batch_gradient(B, reg_kind):
    act = Activation("crelu")
    params = make_net(4, 6, 5, act, seed=8)
    batch = make_batch(4, 5, B, seed=8 + B)
    reg = make_reg(reg_kind, params)
    ps = per_sample_grads(params, act, batch, reg)
    lg = loss_grad(params, act, batch, reg)
    assert rel_err(mean_params(ps).to_vector(), lg.grads.to_vector()) < 1e-8


# ---------------------------------------------------------------------------
# wasserstein penalty


def _sorted(a):
    return np.sort(a, axis=None, kind="stable")


def test_wasserstein_identity_zero():
    w = np.arange(6.0).reshape(2, 3)
    value, grad = wasserstein_penalty(w, _sorted(w))
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(w))


def test_wasserstein_singleton_hand_value():
    value, grad = wasserstein_penalty(np.array([[0.0]]), np.array([1.0]))
    assert value == pytest.approx(1.0)
    assert grad[0, 0] == pytest.approx(-2.0)


def test_wasserstein_grad_matches_finite_differences(rng):
    cur = rng.normal(size=(4, 4))
    ref = _sorted(rng.normal(size=(4, 4)))
    _, grad = wasserstein_penalty(cur, ref)
    h = 1e-6
    fd = np.zeros_like(cur)
    for idx in np.ndindex(cur.shape):
        p = cur.copy()
        p[idx] += h
        m = cur.copy()
        m[idx] -= h
        fd[idx] = (wasserstein_penalty(p, ref)[0] - wasserstein_penalty(m, ref)[0]) / (2 * h)
    assert rel_err(grad, fd) < 1e-5


def test_wasserstein_permutation_invariant_nonnegative(rng):
    cur = rng.normal(size=12)
    ref = rng.normal(size=12)
    v0, _ = wasserstein_penalty(cur, _sorted(ref))
    for _ in range(5):
        v1, _ = wasserstein_penalty(rng.permutation(cur), _sorted(rng.permutation(ref)))
        assert v1 == pytest.approx(v0, rel=1e-12)
        assert v1 >= 0.0
    # zero iff sorted arrays equal
    v2, _ = wasserstein_penalty(rng.permutation(ref), _sorted(ref))
    assert v2 == pytest.approx(0.0, abs=1e-30)


def test_wasserstein_shape_mismatch():
    """Only the entry counts must agree; a reference of another size is refused."""
    assert wasserstein_penalty(np.zeros((2, 2)), np.zeros(4))[0] == 0.0
    with pytest.raises(ConfigError):
        wasserstein_penalty(np.zeros((2, 2)), np.zeros(5))


@pytest.mark.parametrize(
    "kind, lam", [("l1", 0.1), ("l2", -1e-3), ("l2", math.nan), ("none", math.inf), ("wasserstein", 0.1)]
)
def test_regularizer_rejects_unknown_kinds_and_unusable_coefficients(kind, lam):
    with pytest.raises(ConfigError):
        Regularizer(kind, lam)


def test_regularizer_presorted_snapshot_matches_per_call_penalty():
    act = Activation("crelu")
    params = make_net(4, 6, 3, act, seed=8)
    reg = make_reg("wasserstein", params, lam=0.5, perturb_seed=9)
    value, grads = regularizer_penalty(params, reg)
    want_value = 0.0
    for lay, ref, g in zip(params.layers, reg.init_snapshot.layers, grads.layers):
        v, gw = wasserstein_penalty(lay.weights, _sorted(ref.weights))
        want_value += reg.lam * v
        np.testing.assert_array_equal(g.weights, reg.lam * gw)
        np.testing.assert_array_equal(g.bias, 0.0)
    assert value == want_value


def _tie_cases():
    rng = np.random.default_rng(31)
    signed_zeros = np.where(rng.random(256) < 0.5, -0.0, 0.0)
    signed_zeros[::7] = rng.normal(size=signed_zeros[::7].size)
    with_inf = rng.normal(size=300)
    with_inf[[3, 50, 120]] = np.inf
    with_inf[[7, 200]] = -np.inf
    return {
        "random_64x512": (rng.normal(size=(64, 512)), rng.normal(size=64 * 512)),
        "rounded_ties": (np.round(rng.normal(size=(40, 50)), 1), rng.normal(size=2000)),
        "signed_zeros": (signed_zeros.reshape(16, 16), rng.permutation(signed_zeros)),
        "duplicated_inf": (with_inf.reshape(10, 30), rng.normal(size=300)),
    }


@pytest.mark.parametrize("case", sorted(_tie_cases()))
def test_wasserstein_matches_stable_sort_reference(case):
    current, init = _tie_cases()[case]
    init_sorted = np.sort(init, kind="stable")
    value, grad = wasserstein_penalty(current, init_sorted)
    want_value, want_grad = stable_wasserstein_penalty(current, init_sorted)
    assert value == want_value
    np.testing.assert_array_equal(grad, want_grad)
    np.testing.assert_array_equal(np.signbit(grad), np.signbit(want_grad))


def _count_argsort_kinds(monkeypatch):
    kinds = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return kinds


def test_wasserstein_stable_sort_only_on_ties(monkeypatch):
    params = make_net(8, [16, 16], 4, Activation("crelu"), seed=6)
    reg = make_reg("wasserstein", params, lam=0.5, perturb_seed=7)
    kinds = _count_argsort_kinds(monkeypatch)
    regularizer_penalty(params, reg)
    assert len(kinds) == len(params.layers)
    assert "stable" not in kinds
    kinds.clear()
    w = params.layers[1].weights
    w[0, 1] = w[3, 2]  # one tie, in one layer
    regularizer_penalty(params, reg)
    assert kinds.count("stable") == 1


@pytest.mark.parametrize("reg_kind", ["none", "l2", "wasserstein"])
def test_loss_grad_is_data_gradient_plus_penalty_bit_for_bit(reg_kind):
    """The gradient written in one buffer against the data gradient and the
    penalty's gradient summed as separate vectors."""
    act = Activation("relu")
    params = make_net(6, [7, 5], 4, act, seed=12)
    batch = make_batch(6, 4, 11, seed=12)
    reg = make_reg(reg_kind, params, perturb_seed=12)
    sw = loss_grad(params, act, batch, reg)
    data = zeros_like(params)
    for x, d, g in zip(sw.layer_inputs, sw.out_grads, data.layers):
        g.weights += d.T @ x
        g.bias += d.sum(axis=0)
    value, penalty = regularizer_penalty(params, reg)
    np.testing.assert_array_equal(sw.grads.vector, data.vector + penalty.vector)
    assert sw.loss == float(np.mean(nn._softmax_stats(sw.logits, batch.labels)[0])) + value


def test_one_penalty_call_per_sweep(monkeypatch):
    """loss_grad and probe_grads each evaluate the penalty once."""
    act = Activation("crelu")
    params = make_net(4, 6, 3, act, seed=13)
    batch = make_batch(4, 3, 8, seed=13)
    reg = make_reg("wasserstein", params, perturb_seed=13)
    calls = []
    real = nn.regularizer_penalty

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nn, "regularizer_penalty", counting)
    for fn in (loss_grad, probe_grads):
        calls.clear()
        fn(params, act, batch, reg)
        assert len(calls) == 1, fn.__name__


def test_regularizer_penalty_adds_into_out():
    params = make_net(3, 4, 2, Activation("relu"), seed=14)
    reg = make_reg("l2", params)
    _, alone = regularizer_penalty(params, reg)
    start = np.random.default_rng(14).normal(size=params.n_params)
    out = params.like(start.copy())
    _, got = regularizer_penalty(params, reg, out=out)
    assert got is out
    np.testing.assert_array_equal(out.vector, start + alone.vector)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("layer", [0, 1, 2])
def test_check_finite_names_the_layer(bad, layer):
    params = make_net(3, [4, 4], 2, Activation("relu"), seed=15)
    params.layers[layer].bias[1] = bad
    with pytest.raises(NumericError) as exc:
        nn.check_finite(params, "bad entry")
    assert exc.value.layer_id == params.layer_ids()[layer]
    assert str(exc.value) == "bad entry"


def test_check_finite_passes_huge_finite_entries():
    """1e200 squared overflows the dot product; the scan then finds no
    non-finite entry."""
    params = make_net(3, [4, 4], 2, Activation("relu"), seed=16)
    params.vector[:] = 1e200
    params.vector[::2] *= -1.0
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(params.vector, params.vector))
        nn.check_finite(params, "bad entry")


@pytest.mark.parametrize("layer_id", ["fc1", "fc2"])
def test_nonfinite_loss_names_the_first_nonfinite_layer(layer_id):
    """An inf weight makes the loss non-finite.  Every pass names the first
    layer with a non-finite pre-activation, or the read-out when none has."""
    params = make_net(3, [4], 2, Activation("relu"), seed=17)
    params.layers[params.layer_ids().index(layer_id)].weights[:] = np.inf
    batch = make_batch(3, 2, 5, seed=17)
    for pass_ in (loss_grad, probe_grads, per_sample_grads):
        with pytest.raises(NumericError, match="non-finite loss") as exc:
            pass_(params, Activation("relu"), batch, NONE)
        assert exc.value.layer_id == layer_id, pass_.__name__


# ---------------------------------------------------------------------------
# the flat parameter layout


def test_layer_views_write_through_to_vector():
    params = make_net(3, 5, 2, Activation("relu"), seed=1)
    params.layers[1].weights[0, 2] = 7.5
    params.layers[0].bias[4] = -2.0
    vec = params.to_vector()
    assert vec[5 * 3 + 5 + 2] == 7.5  # fc1 weights, fc1 bias, then fc2 weights
    assert vec[5 * 3 + 4] == -2.0
    params.vector[0] = 3.0
    assert params.layers[0].weights[0, 0] == 3.0


def test_layout_segments_and_scalar_layers():
    params = ParamSet([Layer("fc1", np.ones((2, 3)), np.full(2, 2.0)),
                       Layer("fc2", np.full((1, 2), 3.0), np.full(1, 4.0))])
    np.testing.assert_array_equal(params.to_vector(), [1] * 6 + [2, 2, 3, 3, 4])
    np.testing.assert_array_equal(params.segment("fc2"), [3, 3, 4])
    with pytest.raises(ConfigError):
        params.segment("fc3")


def test_copies_share_no_memory():
    params = make_net(3, 5, 2, Activation("relu"), seed=2)
    vec = params.to_vector()
    for other in (params.copy(), params.from_vector(vec), zeros_like(params)):
        assert not np.shares_memory(other.vector, params.vector)
        assert not np.shares_memory(other.vector, vec)
        np.testing.assert_array_equal(other.layers[0].weights.shape, (5, 3))
    assert not np.shares_memory(vec, params.vector)


def test_per_sample_rows_match_one_sample_gradients():
    act = Activation("leaky_relu", 0.3)
    params = make_net(3, 5, 4, act, seed=4)
    batch = make_batch(3, 4, 6, seed=4)
    reg = make_reg("l2", params, lam=0.1)
    ps = per_sample_grads(params, act, batch, reg)
    for i, g in enumerate(ps):
        one = Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1])
        want = loss_grad(params, act, one, reg).grads.to_vector()
        assert rel_err(g.to_vector(), want) < 1e-13


# ---------------------------------------------------------------------------
# factored per-sample variance


def _short_final_batch():
    """The trailing batch of a real epoch: 53 samples in batches of 16 leave 5."""
    cfg = StreamConfig(SyntheticSource(n=60, d=4, classes=5, seed=3), subsample_n=53,
                       tasks=1, epochs_per_task=1, batch_size=16, base_seed=3)
    base = prepare(load_source(cfg), cfg)
    *_, last = batches(base.inputs, task_labels(base, 0, cfg), 0, 0, cfg)
    assert last.size == 5
    return last


@pytest.mark.parametrize("act, reg_kind, hidden", with_depths(ACT_REG_CASES))
def test_probe_grads_match_materialized_oracle(act, reg_kind, hidden):
    """Each layer's and the global variance against per_sample_grads +
    minibatch_grad_variance at criterion 4's bound; g_bar bit for bit against
    loss_grad (both read the same sweep); the pre-activations against forward."""
    cases = [make_batch(4, 5, B, seed=70 + B) for B in (1, 2, 17, 256)] + [_short_final_batch()]
    for batch in cases:
        params = make_net(4, hidden, 5, act, seed=batch.size)
        reg = make_reg(reg_kind, params, perturb_seed=batch.size)
        pg = probe_grads(params, act, batch, reg)
        ps = per_sample_grads(params, act, batch, reg)
        assert list(pg.sigma_sq) == params.layer_ids()
        got = dict(pg.sigma_sq, **{"global": sum(pg.sigma_sq.values())})
        for scope, value in got.items():
            oracle = minibatch_grad_variance(ps, scope)
            assert abs(value - oracle) / max(abs(oracle), 1.0) <= 1e-12, (batch.size, scope)
            if batch.size == 1:
                assert value == 0.0
            else:
                assert value > 0.0
        want_g = loss_grad(params, act, batch, reg).grads.vector
        np.testing.assert_array_equal(pg.sweep.grads.vector, want_g)
        want = forward(params, act, batch).hidden_preacts
        assert len(pg.sweep.preacts) == len(want)
        for z, w in zip(pg.sweep.preacts, want):
            np.testing.assert_array_equal(z, w)


def test_probe_grads_identical_samples_clamped_at_zero():
    """Duplicated samples have no spread; here the unclamped difference is a
    negative rounding residue, which the clamp holds at 0."""
    act = Activation("relu")
    params = make_net(3, 5, 4, act, seed=9)
    row = np.random.default_rng(9).normal(size=3)
    batch = Batch(np.tile(row, (7, 1)), np.full(7, 2))
    pg = probe_grads(params, act, batch, NONE)
    for value in pg.sigma_sq.values():
        assert 0.0 <= value <= 1e-12


# ---------------------------------------------------------------------------
# determinism


def test_init_and_grad_determinism():
    a = make_net(3, 7, 4, Activation("relu"), seed=42)
    b = make_net(3, 7, 4, Activation("relu"), seed=42)
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())
    batch = make_batch(3, 4, 9, seed=42)
    g1 = loss_grad(a, Activation("relu"), batch, NONE)
    g2 = loss_grad(b, Activation("relu"), batch, NONE)
    assert g1.loss == g2.loss
    np.testing.assert_array_equal(g1.grads.to_vector(), g2.grads.to_vector())
