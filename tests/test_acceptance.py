"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they complete; `-m "not slow"` leaves out the desk-scale criteria 10-12.  The desk-scale experiment behind criteria 10 and 12 runs once
in a module fixture and takes a few minutes.  Criterion 11 runs on its own
stream: the desk stream with 2 tasks of 2400 steps instead of 6 tasks of 240,
because learning-rate decay only appears once a task outlasts Adam's
second-moment horizon (about 2 minutes per seed).  Everything else is fast.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from trainlab.curvature import CurvatureProbe, exact_hessian, hvp, top_eigenvalue
from trainlab.metrics import (
    BoundConfig,
    ThresholdReport,
    alpha_g_star,
    cantelli_cap,
    combined_bound,
    minibatch_grad_variance,
    predict_lot,
)
from trainlab.nn import (
    Activation,
    Layer,
    ParamSet,
    Regularizer,
    loss_grad,
    mean_params,
    param_dot,
    per_sample_grads,
    probe_grads,
)
from trainlab.optim import adam_step, effective_step, init_adam
from trainlab.runner import (
    ModelConfig,
    OptimConfig,
    RunConfig,
    format_log,
    run_seed,
)
from trainlab.scheduler import COOLED, ControllerConfig, decide
from trainlab.tasks import StreamConfig, SyntheticSource, load_source, prepare

from conftest import ACTIVATIONS, fd_gradient, make_batch, make_net, make_reg, rel_err


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for act in ACTIVATIONS:
        for reg_kind in ("none", "l2", "wasserstein"):
            params = make_net(2, 8, 3, act, seed=31)
            batch = make_batch(2, 3, 6, seed=31)
            reg = make_reg(reg_kind, params, lam=1e-2, perturb_seed=3)
            grads = loss_grad(params, act, batch, reg).grads.to_vector()
            fd = fd_gradient(params, act, batch, reg, h=1e-4)
            worst = max(worst, rel_err(grads, fd))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    assert verdict(1, ok, f"grad vs central FD worst rel err {worst:.2e} "
                          f"(12 act x reg combos, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: HVP correctness and symmetry


def test_criterion_2_hvp_against_dense_hessian():
    act = Activation("crelu")
    params = make_net(8, 24, 6, act, seed=7)  # 510 parameters
    assert params.n_params <= 600
    batch = make_batch(8, 6, 10, seed=7)
    reg = Regularizer("none")
    H = exact_hessian(params, act, batch, reg)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        v = params.from_vector(rng.normal(size=params.n_params))
        worst = max(worst, rel_err(hvp(params, act, batch, reg, v).to_vector(),
                                   H @ v.to_vector()))
    worst_sym = 0.0
    for _ in range(20):
        u = params.from_vector(rng.normal(size=params.n_params))
        v = params.from_vector(rng.normal(size=params.n_params))
        uhv = param_dot(u, hvp(params, act, batch, reg, v))
        vhu = param_dot(v, hvp(params, act, batch, reg, u))
        worst_sym = max(worst_sym, abs(uhv - vhu) / max(abs(uhv), abs(vhu), 1e-30))
    ok = worst <= 1e-3 and worst_sym <= 1e-3
    assert verdict(2, ok, f"hvp vs dense H: rel {worst:.2e}; symmetry over 20 pairs: {worst_sym:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: power iteration vs dense eigendecomposition

# random small nets in generic position (no preactivation within the FD step
# of a ReLU kink, where the Hessian itself is ill-defined)
POWER_NETS = [
    (3, 8, 4, "relu", 100),
    (2, 10, 3, "leaky_relu", 101),
    (4, 6, 5, "crelu", 102),
    (3, 12, 4, "linear", 103),
    (6, 6, 4, "leaky_relu", 106),
    (3, 10, 5, "crelu", 107),
    (4, 12, 3, "relu", 108),
    (5, 10, 4, "linear", 109),
    (2, 8, 5, "relu", 110),
    (7, 7, 3, "relu", 111),
]


def test_criterion_3_power_iteration_accuracy():
    reg = Regularizer("none")
    worst = 0.0
    for in_dim, hidden, n_classes, kind, seed in POWER_NETS:
        act = Activation(kind, 0.3 if kind == "leaky_relu" else 0.0)
        params = make_net(in_dim, hidden, n_classes, act, seed=seed)
        batch = make_batch(in_dim, n_classes, 8, seed=seed)
        eigs = np.linalg.eigvalsh(exact_hessian(params, act, batch, reg))
        dense_top = eigs[np.argmax(np.abs(eigs))]
        res = top_eigenvalue(params, act, batch, reg, CurvatureProbe(power_iters=100, seed=1))
        worst = max(worst, abs(res.lambda_max - dense_top) / abs(dense_top))
    ok = worst <= 0.01
    assert verdict(3, ok, f"power iteration vs dense eig on 10 nets, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: per-sample gradient variance


def test_criterion_4_per_sample_variance_and_mean():
    act = Activation("relu")
    reg = Regularizer("l2", 1e-3)
    worst_var = 0.0
    worst_mean = 0.0
    worst_factored = 0.0
    for B in (1, 2, 16, 64):
        params = make_net(5, 10, 4, act, seed=40 + B)
        batch = make_batch(5, 4, B, seed=40 + B)
        ps = per_sample_grads(params, act, batch, reg)
        got = minibatch_grad_variance(ps)
        flats = [g.to_vector() for g in ps]
        mean = sum(flats) / len(flats)
        oracle = sum(float((f - mean) @ (f - mean)) for f in flats) / len(flats)
        worst_var = max(worst_var, abs(got - oracle) / max(abs(oracle), 1.0))
        lg = loss_grad(params, act, batch, reg)
        worst_mean = max(worst_mean, rel_err(mean_params(ps).to_vector(), lg.grads.to_vector()))
        factored = sum(probe_grads(params, act, batch, reg).sigma_sq.values())
        worst_factored = max(worst_factored, abs(factored - oracle) / max(abs(oracle), 1.0))
    ok = worst_var <= 1e-12 and worst_mean <= 1e-8 and worst_factored <= 1e-12
    assert verdict(4, ok, f"two-pass oracle dev {worst_var:.2e}; mean-vs-batch rel {worst_mean:.2e}; "
                          f"factored dev {worst_factored:.2e} over B in {{1,2,16,64}}")


# ---------------------------------------------------------------------------
# criterion 5: Adam conformance


def test_criterion_5_adam_conformance():
    # independent plain-float scalar Adam
    w_ref, m, v = 1.0, 0.0, 0.0
    params = ParamSet([Layer("fc1", np.array([[1.0]]), np.zeros(1))])
    state = init_adam(params, eta=0.1)
    worst = 0.0
    for t in range(1, 6):
        g = params.layers[0].weights[0, 0]
        g_ref = w_ref
        grads = ParamSet([Layer("fc1", np.array([[g]]), np.zeros(1))])
        adam_step(state, params, grads)
        m = 0.9 * m + 0.1 * g_ref
        v = 0.999 * v + 0.001 * g_ref * g_ref
        w_ref -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        worst = max(worst, abs(params.layers[0].weights[0, 0] - w_ref))

    rng = np.random.default_rng(55)
    params2 = make_net(3, 6, 4, Activation("relu"), seed=55)
    state2 = init_adam(params2, eta=2e-3)
    for _ in range(4):
        g = ParamSet([Layer(l.layer_id, rng.normal(size=l.weights.shape),
                            rng.normal(size=l.bias.shape)) for l in params2.layers])
        adam_step(state2, params2, g)
    bc1 = 1 - state2.beta1**state2.t
    bc2 = 1 - state2.beta2**state2.t
    mults = []
    for lay in state2.v.layers:
        for arr in (lay.weights, lay.bias):
            mults.extend((2e-3 / (bc1 * (np.sqrt(arr / bc2) + state2.eps))).ravel().tolist())
    eff_dev = abs(effective_step(state2, "global") - sum(mults) / len(mults))
    ok = worst <= 1e-12 and eff_dev <= 1e-14
    assert verdict(5, ok, f"5-step scalar dev {worst:.1e}; effective-step oracle dev {eff_dev:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: descent condition on a noisy quadratic


def test_criterion_6_descent_condition():
    t0 = time.time()
    lam, w, sigma_ps, B = 2.0, 0.5, 4.0, 4
    g = lam * w
    a_star = alpha_g_star(g * g, sigma_ps**2, B).value
    threshold = 2.0 * a_star / lam
    rng = np.random.default_rng(606)

    def trials(alpha, n=1000):
        ghat = g + rng.normal(0.0, sigma_ps, size=(n, B)).mean(axis=1)
        w_next = w - alpha * ghat
        return 0.5 * lam * (w_next**2 - w**2)

    def ci(deltas, reps=1000):
        boot = np.random.default_rng(707)
        idx = boot.integers(0, deltas.size, size=(reps, deltas.size))
        means = deltas[idx].mean(axis=1)
        return float(np.quantile(means, 0.025)), float(np.quantile(means, 0.975))

    low = trials(0.5 * threshold)
    lo_low, hi_low = ci(low)
    high = trials(4.0 * threshold)
    lo_high, hi_high = ci(high)
    elapsed = time.time() - t0
    ok = hi_low < 0.0 and lo_high >= 0.0 and elapsed < 30.0
    assert verdict(6, ok, f"E[dloss] at 0.5x: {low.mean():+.4f} (95% CI < 0: {hi_low:+.4f}); "
                          f"at 4x: {high.mean():+.4f} (95% CI >= 0: {lo_high:+.4f}); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: Cantelli validity


def test_criterion_7_cantelli_validity():
    rng = np.random.default_rng(2024)
    n, delta = 100_000, 0.1
    out = np.empty(n)
    filled = 0
    while filled < n:  # rejection-sample the >= 0 truncation
        draw = rng.normal(1.0, 1.0, size=2 * (n - filled))
        draw = draw[draw >= 0.0]
        take = min(draw.size, n - filled)
        out[filled : filled + take] = draw[:take]
        filled += take
    alpha = cantelli_cap(out.mean(), out.std(), delta).value
    frac = float(np.mean(alpha * out >= 2.0))
    margin = 3.0 * math.sqrt(delta * (1 - delta) / n)
    ok = frac <= delta + margin
    assert verdict(7, ok, f"P(alpha*lam >= 2) = {frac:.5f} <= {delta} + {margin:.5f}")


# ---------------------------------------------------------------------------
# criterion 8: bound algebra


def test_criterion_8_bound_algebra():
    exact = True
    for g2, s2, vol, B in [(1.3, 0.7, 2.0, 16), (0.2, 5.0, 9.0, 256), (4.0, 0.1, 0.3, 64)]:
        comb = combined_bound(g2, s2, vol, B, BoundConfig(beta=0.0))
        exact = exact and comb.alpha_tilde_star == alpha_g_star(g2, s2, B).value
    sweep = [combined_bound(1.0, 1.0, v, 8, BoundConfig(beta=0.5)).alpha_tilde_star
             for v in (0.0, 0.5, 1.0, 2.0, 4.0)]
    decreasing = all(a > b for a, b in zip(sweep, sweep[1:]))
    ok = exact and decreasing
    assert verdict(8, ok, f"beta=0 reduction exact: {exact}; strict decrease over vol sweep: "
                          f"{[round(v, 4) for v in sweep]}")


# ---------------------------------------------------------------------------
# criterion 9: scheduler mechanics


def _report(layer_id, alpha, safe, armed=True):
    return ThresholdReport(layer_id, alpha, safe * 2, safe * 3, safe * 4, 1.0, 2.0,
                           safe, 0.5, armed, ())


def test_criterion_9_scheduler_mechanics():
    cfg = ControllerConfig()
    etas = {"fc1": 1e-3}
    cooled_all = True
    for _ in range(50):
        dec = decide([_report("fc1", alpha=0.5, safe=0.01)], t=900, T=1000, etas=etas, cfg=cfg)
        cooled_all = cooled_all and dec.labels["fc1"] == COOLED
        etas = dec.etas
    geometric = math.isclose(etas["fc1"], 1e-3 * 0.99**50, rel_tol=1e-12)

    floor_ok = True
    for safe in (1e-9, 0.01, 0.05):
        dec = decide([_report("fc1", alpha=0.12, safe=safe)], t=900, T=1000,
                     etas={"fc1": 1e-3}, cfg=cfg)
        floor_ok = floor_ok and dec.labels["fc1"] != COOLED

    warm_ok = True
    for t in (300, 500, 999):
        dec = decide([_report("fc1", alpha=1e-6, safe=10.0)], t=t, T=1000,
                     etas={"fc1": 1e-3}, cfg=cfg)
        warm_ok = warm_ok and dec.labels["fc1"] == "held"

    ok = cooled_all and geometric and floor_ok and warm_ok
    assert verdict(9, ok, f"geometric cooling at 0.99 over 50 decisions: {geometric}; "
                          f"0.12 floor guard: {floor_ok}; no warming at t >= 0.3T: {warm_ok}")


# ---------------------------------------------------------------------------
# criteria 10-12: desk-scale qualitative reproduction

DESK_SEEDS = (0, 1, 2)


def desk_config(mode: str) -> RunConfig:
    return RunConfig(
        stream=StreamConfig(
            source=SyntheticSource(n=2000, d=512, classes=100, seed=0),
            subsample_n=2000,
            tasks=6,
            epochs_per_task=30,
            batch_size=256,
            randomize_frac=1.0,
            base_seed=0,
        ),
        model=ModelConfig(hidden_width=64, activation=Activation("relu"),
                          regularizer="l2", reg_lambda=1e-3),
        optimizer=OptimConfig(eta=1e-3),
        bounds=BoundConfig(),
        controller=ControllerConfig(interval_k=20) if mode == "scheduled" else None,
        mode=mode,
        log_interval=40,
        power_iters=50,
        seeds=DESK_SEEDS,
    )


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.time()
    results = {}
    for mode in ("vanilla", "scheduled"):
        cfg = desk_config(mode)
        base = prepare(load_source(cfg.stream), cfg.stream)
        results[mode] = [run_seed(cfg, s, base) for s in DESK_SEEDS]
    results["elapsed"] = time.time() - t0
    return results


@pytest.mark.slow
def test_criterion_10_desk_scale_reproduction(desk_runs):
    vans = desk_runs["vanilla"]
    scheds = desk_runs["scheduled"]
    assert all(not r.aborted for r in vans + scheds)

    van_acc = np.array([r.per_task_accuracy for r in vans])  # (seeds, tasks)
    sch_acc = np.array([r.per_task_accuracy for r in scheds])
    van_final_two = float(van_acc[:, -2:].mean())
    sch_final_two = float(sch_acc[:, -2:].mean())
    gap = sch_final_two - van_final_two

    van_task1 = float(van_acc[:, 1].mean())
    van_first = float(van_acc[:, 0].mean())
    van_final = float(van_acc[:, -1].mean())
    decay = van_final < van_task1 and van_final < van_first

    elapsed = desk_runs["elapsed"]
    ok = gap >= 0.03 and decay and elapsed < 900.0
    assert verdict(
        10, ok,
        f"scheduled {sch_final_two:.3f} vs vanilla {van_final_two:.3f} over final two tasks "
        f"(gap {gap:+.3f} >= 0.03); vanilla decay {van_final:.3f} < task-1 {van_task1:.3f}: "
        f"{decay}; runtime {elapsed:.0f}s < 900s",
    )


@pytest.fixture(scope="module")
def long_task_runs():
    """Scheduled desk config with only the task count and length changed.

    Desk tasks are 240 steps, a quarter of Adam's second-moment horizon
    1/(1 - beta2) = 1000 steps.  Each task ends before it is fitted, so the
    effective step stays flat (alpha / alpha~* about 0.25 at most, below gamma =
    0.8), no decision ever cools, and the 20 warm-phase decisions leave eta
    at 1.01**20 * eta0.  With 300 epochs (2400 steps) every task fits and
    alpha crosses gamma * alpha~* within task 0, so the controller warms and
    then cools.  Two tasks instead of six only bound the cost.
    """
    cfg = desk_config("scheduled")
    cfg = dataclasses.replace(
        cfg, stream=dataclasses.replace(cfg.stream, tasks=2, epochs_per_task=300)
    )
    base = prepare(load_source(cfg.stream), cfg.stream)
    return cfg, [run_seed(cfg, s, base) for s in DESK_SEEDS]


@pytest.mark.slow
def test_criterion_11_lr_trajectory_direction(long_task_runs):
    cfg, runs = long_task_runs
    eta0 = cfg.optimizer.eta
    finals = []
    peaks = []
    for r in runs:
        finals.append(float(np.mean([r.final_state.eta[lid] for lid in r.layer_ids])))
        peaks.append(max(float(np.mean([rec.layers[lid].eta for lid in r.layer_ids]))
                         for rec in r.records))
    ok = not any(r.aborted for r in runs) and all(f < eta0 for f in finals)
    assert verdict(
        11, ok,
        f"final mean per-layer eta {['%.3e' % f for f in finals]} "
        f"(logged peak {['%.3e' % p for p in peaks]}) vs initial {eta0:.0e} on 2 x 2400-step "
        f"tasks (cooled below start for every seed: {ok})",
    )


@pytest.mark.slow
def test_criterion_12_determinism(desk_runs):
    first = desk_runs["scheduled"][0]
    cfg = desk_config("scheduled")
    rerun = run_seed(cfg, DESK_SEEDS[0])
    log_a = format_log(first.records, first.layer_ids)
    log_b = format_log(rerun.records, rerun.layer_ids)
    ok = log_a.encode() == log_b.encode() and first.per_task_accuracy == rerun.per_task_accuracy
    assert verdict(12, ok, f"rerun of seed {DESK_SEEDS[0]} byte-identical log "
                           f"({len(log_a)} bytes): {ok}")


# ---------------------------------------------------------------------------
# criterion 13: predictor plumbing


def test_criterion_13_predictor_plumbing():
    # hand-planted crossings: 3 tasks x 4 steps
    flags = [
        {"fc1": False, "fc2": False}, {"fc1": True, "fc2": False},
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},  # task 0: 1/4
        {"fc1": False, "fc2": True}, {"fc1": True, "fc2": True},
        {"fc1": False, "fc2": False}, {"fc1": True, "fc2": False},  # task 1: 3/4
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},  # task 2: 0/4
    ]
    pred = predict_lot(flags, window=4)
    expected = [0.25, 0.75, 0.0]
    ok = pred.per_task == expected and pred.rho_hat == pytest.approx(4 / 12)
    assert verdict(13, ok, f"per-task fractions {pred.per_task} == {expected}; "
                           f"rho_hat {pred.rho_hat:.4f} == 4/12")
