import math

import numpy as np
import pytest

from trainlab.errors import NumericError
from trainlab.metrics import (
    CAP,
    BoundConfig,
    WindowStats,
    alpha_g_star,
    alpha_vol_star,
    build_report,
    cantelli_cap,
    combined_bound,
    diagnostics,
    minibatch_grad_variance,
    normalized_sharpness,
    push_and_stats,
    window_stats,
)
from trainlab.nn import Activation, Layer, ParamSet, forward, per_sample_grads, zeros_like

from conftest import make_batch, make_net, make_reg
from oracles import predict_lot

CFG = BoundConfig()


def grad_list(vectors, layer_shapes=((1, 2),)):
    """Wrap flat vectors as single-layer ParamSets (weights only, zero bias)."""
    out = []
    for vec in vectors:
        w = np.asarray(vec, dtype=float).reshape(layer_shapes[0])
        out.append(ParamSet([Layer("fc1", w, np.zeros(layer_shapes[0][0]))]))
    return out


# ---------------------------------------------------------------------------
# minibatch_grad_variance


def test_variance_identical_gradients_zero():
    g = grad_list([[1.0, 2.0]] * 5)
    assert minibatch_grad_variance(g) == 0.0


def test_variance_symmetric_pair():
    g = grad_list([[1.0, 0.0], [-1.0, 0.0]])
    assert minibatch_grad_variance(g) == pytest.approx(1.0)


def test_variance_matches_two_pass_oracle(rng):
    act = Activation("relu")
    params = make_net(3, 6, 4, act, seed=1)
    batch = make_batch(3, 4, 16, seed=1)
    ps = per_sample_grads(params, act, batch, make_reg("none", params))
    got = minibatch_grad_variance(ps)
    # independently coded two-pass oracle: explicit mean, then explicit loop
    flats = [g.to_vector() for g in ps]
    mean = sum(flats) / len(flats)
    total = 0.0
    for f in flats:
        diff = f - mean
        total += float(diff @ diff)
    expected = total / len(flats)
    assert abs(got - expected) <= 1e-12 * max(abs(expected), 1.0)


def test_variance_layer_scope():
    gs = []
    for a, b in [(1.0, 5.0), (-1.0, 5.0)]:
        gs.append(
            ParamSet(
                [
                    Layer("fc1", np.array([[a]]), np.zeros(1)),
                    Layer("fc2", np.array([[b]]), np.zeros(1)),
                ]
            )
        )
    assert minibatch_grad_variance(gs, "fc1") == pytest.approx(1.0)
    assert minibatch_grad_variance(gs, "fc2") == 0.0
    assert minibatch_grad_variance(gs, "global") == pytest.approx(1.0)


def test_variance_empty_list_rejected():
    with pytest.raises(ValueError):
        minibatch_grad_variance([])


# ---------------------------------------------------------------------------
# normalized sharpness


def test_normalized_sharpness_values():
    assert normalized_sharpness(0.0, 0.5) == 0.0
    assert normalized_sharpness(3.25, 1.0) == 3.25
    assert normalized_sharpness(150.0, 2e-3) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        normalized_sharpness(1.0, 0.0)


# ---------------------------------------------------------------------------
# window statistics


def test_window_constant_stream():
    ws = WindowStats()
    for _ in range(50):
        snap = push_and_stats(ws, 0.2)
        assert snap.var == 0.0
        assert snap.vol == 0.0
    assert snap.mu == pytest.approx(0.2)
    assert snap.armed


def test_window_alternating_two_cycle():
    # EMA fixed points for the {0, 2} cycle with decay 0.1:
    #   after pushing 0: a = 0.9*(0.9*a + 0.2)  ->  a = 0.18/0.19
    #   after pushing 2: b = 0.9*a + 0.2
    a = 0.18 / 0.19
    b = 0.9 * a + 0.2
    ws = WindowStats(capacity=30, ema_decay=0.1)
    for i in range(400):
        snap = push_and_stats(ws, 2.0 if i % 2 == 0 else 0.0)
    assert snap.var == pytest.approx(1.0)  # queue holds 15 zeros and 15 twos
    assert snap.mu == pytest.approx(a, rel=1e-10)
    vol_after_zero = snap.vol
    snap2 = push_and_stats(ws, 2.0)
    assert snap2.mu == pytest.approx(b, rel=1e-10)
    avg_vol = 0.5 * (vol_after_zero + snap2.vol)
    assert avg_vol == pytest.approx(1.0, abs=0.01)  # oscillates around 1/(mu+eps) ~ 1


def test_window_single_sample_unarmed():
    ws = WindowStats()
    snap = push_and_stats(ws, 1.3)
    assert snap.var == 0.0
    assert snap.count == 1
    assert not snap.armed


def test_window_stats_reads_without_pushing():
    ws = WindowStats()
    empty = window_stats(ws)
    assert empty == (0.0, 0.0, 0.0, 0, False)
    cfg = BoundConfig()
    rep = build_report("fc1", 1e-3, 1.0, 0.5, empty, 8, cfg)
    assert not rep.armed and rep.vol == 0.0 and rep.alpha_vol_star == CAP
    for s in (0.4, 1.1, 0.7):
        pushed = push_and_stats(ws, s)
    assert window_stats(ws) == pushed
    assert window_stats(ws).count == 3  # reading adds no sample


def test_window_eviction_and_two_pass_equality(rng):
    ws = WindowStats(capacity=5)
    samples = rng.normal(size=12)
    for s in samples:
        snap = push_and_stats(ws, s)
    tail = samples[-5:]
    assert snap.var == pytest.approx(np.mean((tail - tail.mean()) ** 2), rel=1e-14)


def test_window_rejects_nonfinite():
    ws = WindowStats()
    with pytest.raises(NumericError):
        push_and_stats(ws, math.inf)


# ---------------------------------------------------------------------------
# critical steps


def test_alpha_g_star_examples():
    assert alpha_g_star(1.0, 256.0, 256).value == pytest.approx(1.0)
    capped = alpha_g_star(1.0, 0.0, 8)
    assert capped.capped and capped.value == 1e6
    assert alpha_g_star(CAP / 2, 1.0, 2) == (CAP, False)  # only a ratio above CAP is capped
    assert alpha_g_star(0.5, 64.0, 32).value == pytest.approx(0.25)
    with pytest.raises(ValueError):
        alpha_g_star(-1.0, 1.0, 4)
    with pytest.raises(ValueError):
        alpha_g_star(1.0, 1.0, 0)


def test_alpha_vol_star_examples():
    assert alpha_vol_star(0.0, CFG).capped
    assert alpha_vol_star(4.0, BoundConfig(kappa=1.0)).value == pytest.approx(0.25)
    assert alpha_vol_star(0.5, BoundConfig(kappa=2.0)).value == pytest.approx(1.0)
    # an infinite vol (a window whose EMA mean is not positive) allows no step, unflagged
    assert alpha_vol_star(math.inf, CFG) == (0.0, False)
    with pytest.raises(ValueError):
        alpha_vol_star(-1e-12, CFG)


@pytest.mark.parametrize(
    "bound",
    [
        lambda: alpha_g_star(1.0, 1e-12, 8),
        lambda: alpha_vol_star(1e-12, CFG),
        lambda: cantelli_cap(1e-12, 0.0, 0.5),
        lambda: combined_bound(1.0, 1e-12, 0.0, 8, CFG)[1:],
    ],
    ids=["alpha_g_star", "alpha_vol_star", "cantelli_cap", "combined_bound"],
)
def test_bound_above_cap_reads_cap_flagged(bound):
    """Each bound's ratio lies above CAP here (8e12, 1e12, 2e12, 8e12): it reads CAP, capped."""
    assert tuple(bound()) == (CAP, True)


def test_cantelli_examples():
    assert cantelli_cap(1.0, 0.0, 0.5).value == pytest.approx(2.0)
    assert cantelli_cap(1.0, 0.0, 0.001).value == pytest.approx(2.0)
    assert cantelli_cap(1.0, 1.0, 0.2).value == pytest.approx(2.0 / 3.0)
    # delta -> 1 limit: cap -> 2/mu
    assert cantelli_cap(4.0, 1.0, 1 - 1e-12).value == pytest.approx(0.5, rel=1e-5)
    assert cantelli_cap(0.0, 0.0, 0.1).capped
    for mu, sigma, delta in [(-1.0, 1.0, 0.1), (1.0, -1.0, 0.1), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError):
            cantelli_cap(mu, sigma, delta)


def test_cantelli_monotonicity():
    caps_sigma = [cantelli_cap(1.0, s, 0.1).value for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(caps_sigma, caps_sigma[1:]))
    caps_delta = [cantelli_cap(1.0, 1.0, d).value for d in (0.5, 0.2, 0.1, 0.01)]
    assert all(a > b for a, b in zip(caps_delta, caps_delta[1:]))


def test_combined_bound_reduces_exactly_at_beta_zero():
    cfg = BoundConfig(beta=0.0)
    for g2, s2, vol, B in [(1.3, 0.7, 2.0, 16), (0.2, 5.0, 9.0, 256)]:
        comb = combined_bound(g2, s2, vol, B, cfg)
        assert comb.alpha_tilde_star == alpha_g_star(g2, s2, B).value  # bitwise


def test_combined_bound_hand_value():
    comb = combined_bound(1.0, 1.0, 1.0, 1, BoundConfig(beta=1.0))
    assert comb.sigma_tilde_sq == pytest.approx(2.0)
    assert comb.alpha_tilde_star == pytest.approx(0.5)
    for g2, s2, vol, B in [(-1.0, 1.0, 1.0, 8), (1.0, -1.0, 1.0, 8), (1.0, 1.0, -1.0, 8), (1.0, 1.0, 1.0, 0)]:
        with pytest.raises(ValueError):
            combined_bound(g2, s2, vol, B, CFG)


def test_combined_bound_monotone_in_vol():
    cfg = BoundConfig(beta=0.5)
    values = [combined_bound(1.0, 1.0, v, 8, cfg).alpha_tilde_star for v in (0, 0.5, 1, 2, 4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    big = combined_bound(1.0, 1.0, 1e12, 8, cfg).alpha_tilde_star
    assert big < 1e-9


def test_combined_bound_monotonicities():
    cfg = BoundConfig(beta=0.5)
    base = combined_bound(1.0, 1.0, 1.0, 8, cfg).alpha_tilde_star
    assert combined_bound(1.0, 2.0, 1.0, 8, cfg).alpha_tilde_star < base  # more noise
    assert combined_bound(1.0, 1.0, 1.0, 16, cfg).alpha_tilde_star > base  # bigger batch
    assert combined_bound(2.0, 1.0, 1.0, 8, cfg).alpha_tilde_star > base  # stronger signal
    # alpha~* <= alpha_g* always
    for g2 in (0.1, 1.0, 7.0):
        for vol in (0.0, 0.3, 4.0):
            tilde = combined_bound(g2, 1.0, vol, 8, cfg).alpha_tilde_star
            assert tilde <= alpha_g_star(g2, 1.0, 8).value + 1e-15


def test_combined_bound_degenerate_capped():
    comb = combined_bound(0.0, 0.0, 3.0, 4, CFG)
    assert comb.capped and comb.alpha_tilde_star == CAP


# ---------------------------------------------------------------------------
# empirical Cantelli validity


def truncated_normal(mu, sigma, size, rng):
    """Rejection-sampled Gaussian conditioned on being >= 0."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        draw = rng.normal(mu, sigma, size=2 * (size - filled))
        draw = draw[draw >= 0.0]
        take = min(draw.size, size - filled)
        out[filled : filled + take] = draw[:take]
        filled += take
    return out


@pytest.mark.parametrize("dist", ["truncated_normal", "exponential", "lognormal"])
def test_cantelli_empirical_validity(dist):
    rng = np.random.default_rng(2024)
    n = 100_000
    delta = 0.1
    if dist == "truncated_normal":
        samples = truncated_normal(1.0, 1.0, n, rng)
    elif dist == "exponential":
        samples = rng.exponential(1.0, size=n)
    else:
        samples = rng.lognormal(0.0, 0.75, size=n)
    mu, sigma = samples.mean(), samples.std()
    alpha = cantelli_cap(mu, sigma, delta).value
    frac = float(np.mean(alpha * samples >= 2.0))
    margin = 3.0 * math.sqrt(delta * (1 - delta) / n)
    assert frac <= delta + margin


# ---------------------------------------------------------------------------
# descent condition on a noisy quadratic (independent oracle for alpha_g*)


def test_descent_condition_on_noisy_quadratic():
    # loss lam/2 w^2; per-sample grads g + xi, Var xi = sigma_ps^2; B-sample batches
    lam, w, sigma_ps, B = 2.0, 0.5, 4.0, 4
    g = lam * w
    g2 = g * g
    a_star = alpha_g_star(g2, sigma_ps**2, B).value  # B g^2 / sigma^2 = 0.25
    assert a_star == pytest.approx(0.25)
    threshold = 2.0 * a_star / lam

    rng = np.random.default_rng(77)

    def mean_delta_loss(alpha, trials=1000):
        xi = rng.normal(0.0, sigma_ps, size=(trials, B)).mean(axis=1)
        ghat = g + xi
        w_next = w - alpha * ghat
        return 0.5 * lam * (w_next**2 - w**2)

    def bootstrap_ci(deltas, reps=1000):
        boot_rng = np.random.default_rng(88)
        idx = boot_rng.integers(0, deltas.size, size=(reps, deltas.size))
        means = deltas[idx].mean(axis=1)
        return np.quantile(means, 0.025), np.quantile(means, 0.975)

    low = mean_delta_loss(0.5 * threshold)
    lo_ci, hi_ci = bootstrap_ci(low)
    assert hi_ci < 0.0  # descent with 95% sign confidence

    high = mean_delta_loss(4.0 * threshold)
    lo_ci, hi_ci = bootstrap_ci(high)
    assert lo_ci > 0.0  # the violated condition yields nonnegative change


# ---------------------------------------------------------------------------
# predictor


def test_predict_lot_no_crossings():
    pred = predict_lot([{"fc1": False, "fc2": False}] * 9, window=3)
    assert pred.per_task == [0.0, 0.0, 0.0]
    assert pred.rho_hat == 0.0


def test_predict_lot_saturated():
    pred = predict_lot([{"fc1": True, "fc2": False}] * 6, window=2)
    assert pred.per_task == [1.0, 1.0, 1.0]
    assert pred.rho_hat == 1.0


def test_predict_lot_hand_counts():
    flags = [False, False, True]
    pred = predict_lot(flags, window=3)
    assert pred.per_task == [pytest.approx(1 / 3)]
    assert pred.rho_hat == pytest.approx(1 / 3)


def test_predict_lot_partial_trailing_task():
    flags = [True, False, False, True, True]
    pred = predict_lot(flags, window=2)
    assert pred.per_task == [0.5, 0.5, 1.0]
    assert pred.rho_hat == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        predict_lot(flags, window=0)


def test_predict_lot_reads_bools_and_mappings_only():
    pred = predict_lot([np.bool_(True), {"fc1": np.bool_(False), "fc2": False}], window=1)
    assert pred.per_task == [1.0, 0.0]
    for entry in (1, 0, [True], (False,), None, "crossed"):
        with pytest.raises(TypeError, match="crossing entry"):
            predict_lot([True, entry], window=2)


# ---------------------------------------------------------------------------
# threshold report assembly


def push_n(ws, values):
    for v in values:
        snap = push_and_stats(ws, v)
    return snap


def test_build_report_armed_and_bounds():
    ws = WindowStats()
    snap = push_n(ws, [0.5, 1.5, 0.5, 1.5])
    rep = build_report("fc1", alpha=0.3, grad_sq_norm=1.0, sigma_ps_sq=4.0,
                       window=snap, batch_size=8, cfg=CFG)
    assert rep.armed
    assert rep.alpha_g_star == pytest.approx(2.0)
    assert rep.alpha_tilde_star <= rep.alpha_g_star
    assert rep.vol == snap.vol
    assert "unarmed" not in rep.flags


def test_build_report_unarmed_and_caps():
    ws = WindowStats()
    snap = push_n(ws, [1.0])
    rep = build_report("fc1", alpha=0.3, grad_sq_norm=0.5, sigma_ps_sq=0.0,
                       window=snap, batch_size=8, cfg=CFG)
    assert not rep.armed
    assert "unarmed" in rep.flags
    assert "g_capped" in rep.flags
    assert "vol_capped" in rep.flags  # zero variance window
    assert rep.alpha_g_star == CAP
    assert rep.alpha_tilde_star <= CAP


def test_build_report_negative_mu_clamped():
    ws = WindowStats()
    snap = push_n(ws, [-2.0, -1.0, -3.0])
    rep = build_report("fc1", alpha=0.1, grad_sq_norm=1.0, sigma_ps_sq=1.0,
                       window=snap, batch_size=4, cfg=CFG)
    assert "mu_clamped" in rep.flags
    assert rep.cantelli_cap > 0.0
    assert rep.alpha_tilde_star >= 0.0


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_zero_grads():
    params = make_net(3, 4, 2, Activation("relu"), seed=0)
    d = diagnostics(params, zeros_like(params), [np.ones((5, 4))])
    assert d.grad_norm == 0.0
    assert d.grad_param_ratio == 0.0
    assert d.ratio_defined


def test_diagnostics_zero_weights_flagged():
    params = zeros_like(make_net(3, 4, 2, Activation("relu")))
    d = diagnostics(params, params, [])
    assert d.weight_norm == 0.0 and d.grad_param_ratio == 0.0
    assert not d.ratio_defined


def test_unit_sign_entropy_half_active():
    params = make_net(2, 2, 2, Activation("relu"))
    pre = np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0], [-2.0, 2.0]])  # each unit active half the time
    d = diagnostics(params, zeros_like(params), [pre])
    assert d.unit_sign_entropy == pytest.approx(1.0)


def test_unit_sign_entropy_degenerate_units():
    params = make_net(2, 2, 2, Activation("relu"))
    always_on = np.ones((6, 2))
    always_off = -np.ones((6, 2))
    assert diagnostics(params, zeros_like(params), [always_on]).unit_sign_entropy == 0.0
    assert diagnostics(params, zeros_like(params), [always_off]).unit_sign_entropy == 0.0


def test_unit_sign_entropy_from_forward():
    act = Activation("relu")
    params = make_net(3, 8, 4, act, seed=5)
    batch = make_batch(3, 4, 32, seed=5)
    res = forward(params, act, batch)
    d = diagnostics(params, zeros_like(params), res.hidden_preacts)
    assert 0.0 <= d.unit_sign_entropy <= 1.0
