import math

import numpy as np
import pytest

from trainlab import nn
from trainlab.errors import ConfigError, NumericError
from trainlab.nn import Activation, Layer, ParamSet, loss_grad
from trainlab.optim import adam_step, agg_step, effective_step, init_adam

from conftest import make_batch, make_net, make_reg
from oracles import (
    reference_adam_step,
    reference_agg_step,
    reference_effective_step,
    stable_wasserstein_penalty,
)


def scalar_param(w0=1.0):
    return ParamSet([Layer("fc1", np.array([[w0]]), np.zeros(1))])


def grads_like(params, values):
    return ParamSet(
        [Layer(l.layer_id, np.full_like(l.weights, v), np.zeros_like(l.bias))
         for l, v in zip(params.layers, values)]
    )


class ReferenceScalarAdam:
    """Independent reference: plain-float Adam on one scalar."""

    def __init__(self, w, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
        self.w, self.lr, self.b1, self.b2, self.eps = w, lr, b1, b2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, g):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        self.w -= self.lr * m_hat / (math.sqrt(v_hat) + self.eps)
        return self.w


def test_first_step_on_scalar_quadratic():
    params = scalar_param(1.0)
    state = init_adam(params, eta=0.1)
    g = params.layers[0].weights[0, 0]  # loss w^2/2 -> grad w
    adam_step(state, params, grads_like(params, [g]))
    assert params.layers[0].weights[0, 0] == pytest.approx(0.9, abs=1e-7)


def test_five_steps_match_reference_scalar_adam():
    params = scalar_param(1.0)
    state = init_adam(params, eta=0.1)
    ref = ReferenceScalarAdam(1.0, lr=0.1)
    for _ in range(5):
        g = params.layers[0].weights[0, 0]
        adam_step(state, params, grads_like(params, [g]))
        ref.step(ref.w)
        assert abs(params.layers[0].weights[0, 0] - ref.w) < 1e-12


def test_zero_gradient_fixed_point():
    params = scalar_param(0.7)
    state = init_adam(params, eta=0.1)
    state.t = 3  # zero moments, t >= 1
    before = params.layers[0].weights.copy()
    adam_step(state, params, grads_like(params, [0.0]))
    np.testing.assert_array_equal(params.layers[0].weights, before)


def test_nonfinite_grads_identify_layer():
    params = ParamSet(
        [Layer("fc1", np.ones((2, 2)), np.zeros(2)), Layer("fc2", np.ones((1, 2)), np.zeros(1))]
    )
    state = init_adam(params)
    bad = grads_like(params, [0.0, np.nan])
    with pytest.raises(NumericError) as exc:
        adam_step(state, params, bad)
    assert exc.value.layer_id == "fc2"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("layer", ["fc1", "fc2"])
def test_nonfinite_entry_names_its_layer(bad, layer):
    """One non-finite entry, in either layer, fails the step naming that
    layer; the state and parameters are left as they were."""
    params = ParamSet(
        [Layer("fc1", np.ones((2, 3)), np.zeros(2)), Layer("fc2", np.ones((1, 2)), np.zeros(1))]
    )
    state = init_adam(params)
    grads = grads_like(params, [0.5, 0.5])
    grads.layers[params.layer_ids().index(layer)].weights[0, 1] = bad
    before = params.to_vector()
    with pytest.raises(NumericError) as exc:
        adam_step(state, params, grads)
    assert exc.value.layer_id == layer
    assert state.t == 0
    np.testing.assert_array_equal(params.vector, before)


def test_huge_finite_gradient_is_not_rejected():
    """Entries of 1e200 overflow the dot product the finite check tries first;
    the entry-by-entry scan then finds every entry finite, and the step runs."""
    params = ParamSet(
        [Layer("fc1", np.ones((2, 3)), np.zeros(2)), Layer("fc2", np.ones((1, 2)), np.zeros(1))]
    )
    state = init_adam(params)
    grads = grads_like(params, [1e200, -1e200])
    with np.errstate(over="ignore"):
        adam_step(state, params, grads)
    assert state.t == 1


def two_layer_state(etas=None, steps=3, seed=0):
    rng = np.random.default_rng(seed)
    params = ParamSet(
        [
            Layer("fc1", rng.normal(size=(3, 2)), rng.normal(size=3)),
            Layer("fc2", rng.normal(size=(2, 3)), rng.normal(size=2)),
        ]
    )
    state = init_adam(params, eta=1e-3)
    state.eta.update(etas or {})  # per-layer rates, as a controller sets them
    history = []
    for _ in range(steps):
        g = ParamSet(
            [Layer(l.layer_id, rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape))
             for l in params.layers]
        )
        history.append(g)
        adam_step(state, params, g)
    return params, state, history


# ---------------------------------------------------------------------------
# effective_step


def test_effective_step_uniform_vhat():
    params, state, _ = two_layer_state(steps=1)
    t = 1000
    state.t = t
    bc2 = 1 - state.beta2**t
    for lay in state.v.layers:  # make v_hat == 1 everywhere
        lay.weights[:] = bc2
        lay.bias[:] = bc2
    alpha = effective_step(state, "global")
    assert alpha == pytest.approx(1e-3 / (1 + 1e-8), rel=1e-12)
    assert alpha == pytest.approx(9.99999e-4, rel=1e-5)


def test_effective_step_layer_scope_uses_own_eta():
    params, state, _ = two_layer_state(etas={"fc1": 1e-3, "fc2": 4e-3}, steps=2)
    a1 = effective_step(state, "fc1")
    a2 = effective_step(state, "fc2")
    # homogeneity: doubling fc2's LR doubles alpha exactly
    state.eta["fc2"] *= 2
    assert effective_step(state, "fc2") == pytest.approx(2 * a2, rel=1e-15)
    assert effective_step(state, "fc1") == a1


def test_effective_step_matches_elementwise_oracle():
    params, state, _ = two_layer_state(steps=4)
    bc1 = 1 - state.beta1**state.t
    bc2 = 1 - state.beta2**state.t
    mults = []
    for lay in state.v.layers:
        eta = state.eta[lay.layer_id]
        for arr in (lay.weights, lay.bias):
            v_hat = arr / bc2
            mults.extend((eta / (bc1 * (np.sqrt(v_hat) + state.eps))).ravel().tolist())
    expected = sum(mults) / len(mults)
    assert abs(effective_step(state, "global") - expected) < 1e-14


def desk_state(etas=None, steps=3):
    """Adam on the desk net (512-64-100, 32,832 + 6,500 parameters) after
    ``steps`` updates with random gradients, at 1e-3 or the per-layer ``etas``."""
    params = make_net(512, 64, 100, Activation("relu"), seed=7)
    state = init_adam(params, eta=1e-3)
    state.eta.update(etas or {})
    rng = np.random.default_rng(8)
    for _ in range(steps):
        adam_step(state, params, params.like(rng.normal(size=params.n_params)))
    return state


@pytest.mark.parametrize("scope", ["global", "fc1", "fc2"])
def test_effective_step_matches_repeated_rate_reference(scope):
    """Built layer by layer from each layer's scalar rate, the multiplier is
    the repeated-rate reference's array, so the mean has the same bits."""
    for state in (two_layer_state(etas={"fc1": 1e-3, "fc2": 4e-3}, steps=3)[1],
                  desk_state({"fc1": 1.3e-3, "fc2": 0.7e-3})):
        assert effective_step(state, scope) == reference_effective_step(state, scope)


def test_agg_step_reads_each_layer_rate_exactly():
    state = desk_state()
    bc2 = 1 - state.beta2**state.t
    for lid in ("fc1", "fc2"):
        rms = float(np.sqrt(np.mean(state.v.segment(lid) / bc2)))
        assert agg_step(state, lid) == state.eta[lid] / (rms + state.eps)
    # the mean of fc1's 32,832 repeated rates is not its rate
    assert reference_agg_step(state, "fc1") != agg_step(state, "fc1")


def test_agg_step_global_rate_is_the_weighted_mean():
    state = desk_state()
    bc2 = 1 - state.beta2**state.t
    rms = float(np.sqrt(np.mean(state.v.vector / bc2)))
    assert agg_step(state, "global") == 1e-3 / (rms + state.eps)  # every rate is eta: exactly eta
    state.eta = {"fc1": 1.3e-3, "fc2": 0.7e-3}
    eta_bar = (1.3e-3 * 32832 + 0.7e-3 * 6500) / 39332
    assert agg_step(state, "global") == pytest.approx(eta_bar / (rms + state.eps), rel=1e-15)
    assert agg_step(state, "global") == pytest.approx(reference_agg_step(state), rel=1e-14)


def test_init_adam_takes_one_rate():
    """Every layer starts at the run's one rate; a rate map is not a rate,
    and a bad scalar setting is a ConfigError."""
    params = make_net(3, 4, 2, Activation("relu"))
    assert init_adam(params, 2e-3).eta == {"fc1": 2e-3, "fc2": 2e-3}
    with pytest.raises(TypeError):
        init_adam(params, {"fc1": 1e-3, "fc2": 1e-3})
    for bad in ({"eta": 0.0}, {"eta": np.nan}, {"beta1": 1.0}, {"beta2": -0.1}, {"eps": np.inf}):
        with pytest.raises(ConfigError):
            init_adam(params, **bad)


def test_effective_step_requires_steps():
    params = scalar_param()
    state = init_adam(params)
    with pytest.raises(ValueError, match="effective_step requires at least one optimizer step"):
        effective_step(state)
    with pytest.raises(ConfigError):
        state.t = 1
        effective_step(state, "nope")


# ---------------------------------------------------------------------------
# agg_step


def set_vhat(state, value):
    bc2 = 1 - state.beta2**state.t
    for lay in state.v.layers:
        lay.weights[:] = value * bc2
        lay.bias[:] = value * bc2


def test_agg_step_constant_vhat():
    params, state, _ = two_layer_state(steps=2)
    set_vhat(state, 4.0)
    assert agg_step(state, "global") == pytest.approx(1e-3 / (2 + 1e-8), rel=1e-14)


def test_agg_step_zero_vhat():
    params, state, _ = two_layer_state(steps=2)
    set_vhat(state, 0.0)
    assert agg_step(state, "global") == pytest.approx(1e-3 / 1e-8, rel=1e-14)


def test_agg_step_mixed_vhat_hand_value():
    params = ParamSet([Layer("fc1", np.array([[0.0]]), np.zeros(1))])
    state = init_adam(params, eta=1e-3)
    state.t = 50
    bc2 = 1 - state.beta2**state.t
    state.v.layers[0].weights[0, 0] = 1.0 * bc2
    state.v.layers[0].bias[0] = 9.0 * bc2
    expected = 1e-3 / (math.sqrt(5.0) + 1e-8)  # RMS(sqrt({1,9})) = sqrt(mean) = sqrt(5)
    assert agg_step(state, "global") == pytest.approx(expected, rel=1e-14)


def test_agg_step_requires_steps():
    state = init_adam(scalar_param())
    with pytest.raises(ValueError, match="agg_step requires at least one optimizer step"):
        agg_step(state)


# ---------------------------------------------------------------------------
# reset: init_adam again with the run's settings, as reset mode does


def test_reset_contract():
    params, state, _ = two_layer_state(etas={"fc1": 1e-3, "fc2": 2e-3}, steps=3)
    state.eta["fc1"] = 5e-4  # as if a controller had cooled it
    fresh = init_adam(params, 2e-3)
    assert fresh.t == 0
    assert np.all(fresh.m.vector == 0.0)
    assert np.all(fresh.v.vector == 0.0)
    assert fresh.eta == {"fc1": 2e-3, "fc2": 2e-3}
    with pytest.raises(ValueError, match="effective_step requires at least one optimizer step"):
        effective_step(fresh)
    twice = init_adam(init_adam(params, 2e-3).m, 2e-3)
    assert twice.t == fresh.t and twice.eta == fresh.eta


def test_reset_replays_first_step():
    params_a = scalar_param(1.0)
    state_a = init_adam(params_a, eta=0.1)
    g = grads_like(params_a, [0.33])
    for _ in range(4):
        adam_step(state_a, params_a, g)
    params_a = scalar_param(1.0)
    state_a = init_adam(params_a, eta=0.1)
    adam_step(state_a, params_a, g)

    params_b = scalar_param(1.0)
    state_b = init_adam(params_b, eta=0.1)
    adam_step(state_b, params_b, g)
    np.testing.assert_array_equal(params_a.to_vector(), params_b.to_vector())


# ---------------------------------------------------------------------------
# invariants


def test_bias_corrected_moment_identities():
    params, state, history = two_layer_state(steps=5, seed=4)
    b1, b2 = state.beta1, state.beta2
    # recompute moments directly from the gradient history
    m = np.zeros_like(state.m.vector)
    v = np.zeros_like(state.v.vector)
    for g in history:
        m = b1 * m + (1 - b1) * g.vector
        v = b2 * v + (1 - b2) * g.vector**2
    np.testing.assert_allclose(state.m.vector, m, rtol=1e-12)
    np.testing.assert_allclose(state.v.vector, v, rtol=1e-12)


def test_update_equals_formula_elementwise():
    rng = np.random.default_rng(9)
    params = ParamSet([Layer("fc1", rng.normal(size=(4, 3)), rng.normal(size=4))])
    state = init_adam(params, eta=2e-3)
    g = ParamSet([Layer("fc1", rng.normal(size=(4, 3)), rng.normal(size=4))])
    adam_step(state, params, g)  # warm up
    before = params.copy()
    g2 = ParamSet([Layer("fc1", rng.normal(size=(4, 3)), rng.normal(size=4))])
    adam_step(state, params, g2)
    bc1 = 1 - state.beta1**state.t
    bc2 = 1 - state.beta2**state.t
    for lay_b, lay_a, m, v in zip(before.layers, params.layers, state.m.layers, state.v.layers):
        for b_arr, a_arr, m_arr, v_arr in (
            (lay_b.weights, lay_a.weights, m.weights, v.weights),
            (lay_b.bias, lay_a.bias, m.bias, v.bias),
        ):
            expected = b_arr - 2e-3 * (m_arr / bc1) / (np.sqrt(v_arr / bc2) + state.eps)
            np.testing.assert_array_equal(a_arr, expected)


def test_determinism_bitwise():
    a = two_layer_state(steps=6, seed=21)
    b = two_layer_state(steps=6, seed=21)
    np.testing.assert_array_equal(a[0].to_vector(), b[0].to_vector())
    np.testing.assert_array_equal(a[1].v.to_vector(), b[1].v.to_vector())


# ---------------------------------------------------------------------------
# whole training steps against the reference step


@pytest.mark.parametrize("act_kind, reg_kind", [("crelu", "wasserstein"), ("relu", "l2")])
def test_training_trajectory_matches_reference_step(monkeypatch, act_kind, reg_kind):
    """50 steps of loss_grad + adam_step, bit for bit against the stable-sort
    penalty and the reference Adam, through a per-layer LR rebind (as the
    controller makes) and an optimizer reset."""
    act = Activation(act_kind)
    params = make_net(12, [16, 16], 4, act, seed=3)
    reg = make_reg(reg_kind, params, lam=0.1, perturb_seed=4)
    ref_params = params.copy()
    state = init_adam(params, eta=1e-2)
    ref_state = init_adam(ref_params, eta=1e-2)
    for step in range(50):
        if step == 20:
            etas = {"fc1": 2e-2, "fc2": 5e-3, "fc3": 1e-2}
            state.eta, ref_state.eta = dict(etas), dict(etas)
        if step == 35:
            state, ref_state = init_adam(params, eta=1e-2), init_adam(ref_params, eta=1e-2)
        batch = make_batch(12, 4, 32, seed=step)
        adam_step(state, params, loss_grad(params, act, batch, reg).grads)
        with monkeypatch.context() as mp:
            mp.setattr(nn, "wasserstein_penalty", stable_wasserstein_penalty)
            ref_grads = loss_grad(ref_params, act, batch, reg).grads
        reference_adam_step(ref_state, ref_params, ref_grads)
        np.testing.assert_array_equal(params.vector, ref_params.vector)
        np.testing.assert_array_equal(state.m.vector, ref_state.m.vector)
        np.testing.assert_array_equal(state.v.vector, ref_state.v.vector)
    assert state.t == ref_state.t == 15
