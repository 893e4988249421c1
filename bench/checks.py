"""Output checks, run after the timed region.

Each check is computed apart from the code it checks, or tests a property
the method must have; none compares against a stored copy of earlier
output.  A check reports the task it speaks of, so that a failure fails that
task's operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from trainlab import curvature, metrics, nn, runner, tasks
from trainlab.rng import stream

# Tolerances, chosen from what each computation can reach in float64.
BOUND_RTOL = 1e-9  # log floats carry 17 significant digits; the algebra a few ulps
ETA_RTOL = 1e-10  # a product of a few cool/warm factors against repeated multiplication
NOISE_RTOL = 1e-10  # two float64 summation orders of the same squared norms
GRAD_RTOL = 1e-6  # of ||g||: central difference at h = 1e-6 along a unit direction
GRAD_MAX_DRAWS = 20
PENALTY_RTOL = 1e-12
EIG_RTOL = 1e-3  # see README: power-iteration stopping rule against ARPACK at 1e-8
NORM_ATOL = 1e-9


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str
    task: int  # the task whose operation fails with this check; -1 the sharpness probe


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# log records


def read_log_rows(path) -> list[dict[str, str]]:
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh if line.strip()]


def _probe_batch_size(cfg, n: int, step: int) -> int:
    """Size of the batch a probe at ``step`` ran on: the step's own batch."""
    B = cfg.stream.batch_size
    index = (step - 1) % math.ceil(n / B)
    return min(B, n - index * B)


def record_checks(cfg, n: int, layer_ids, rows) -> list[Check]:
    """Bound algebra and learning-rate trajectory on every record and layer."""
    out: list[Check] = []
    beta, kappa = cfg.bounds.beta, cfg.bounds.kappa
    eta0 = cfg.optimizer.eta
    ctl = cfg.controller
    prev_step = 0
    prev_eta = {lid: eta0 for lid in layer_ids}
    for row in rows:
        flags = set(row["flags"].split(";"))
        task, step = int(row["task"]), int(row["step"])
        if any(f.startswith("aborted") for f in flags):
            out.append(Check("run_completed", False, f"aborted at step {step}", task))
            continue
        B = _probe_batch_size(cfg, n, step)
        for lid in layer_ids:
            alpha, ag, at, av, vol, eta = (
                float(row[f"{lid}.{key}"])
                for key in ("alpha", "alpha_g_star", "alpha_tilde_star", "alpha_vol_star", "vol", "eta")
            )
            where = f"step {step} {lid}"
            capped_g = f"{lid}:g_capped" in flags
            capped_t = f"{lid}:tilde_capped" in flags
            if math.isfinite(vol) and not capped_g and not capped_t and ag > 0.0 and at > 0.0:
                ok = _close(1.0 / at, 1.0 / ag + beta * vol / B, BOUND_RTOL)
                out.append(Check("bound_tilde", ok, f"{where}: 1/a~*={1 / at!r} 1/ag*={1 / ag!r}", task))
            if 0.0 < vol < math.inf and f"{lid}:vol_capped" not in flags:
                ok = _close(av, 1.0 / (kappa * vol), BOUND_RTOL)
                out.append(Check("bound_vol", ok, f"{where}: avol*={av!r} vol={vol!r}", task))
            if f"{lid}:unarmed" not in flags and not capped_t:
                ok = (row[f"{lid}.crossed"] == "1") == (alpha > at)
                out.append(Check("crossed", ok, f"{where}: alpha={alpha!r} a~*={at!r}", task))
            if ctl is None:
                out.append(Check("eta_fixed", eta == eta0, f"{where}: eta={eta!r}", task))
            else:
                ok = ctl.eta_min <= eta <= ctl.eta_max
                if ok and f"{lid}:eta_clamped" not in flags:
                    n_dec = step // ctl.interval_k - prev_step // ctl.interval_k
                    ratio = eta / prev_eta[lid]
                    ok = any(
                        _close(ratio, ctl.cool**a * ctl.warm**b, ETA_RTOL)
                        for a in range(n_dec + 1)
                        for b in range(n_dec + 1 - a)
                    )
                out.append(Check("eta_trajectory", ok, f"{where}: eta={eta!r}", task))
                prev_eta[lid] = eta
        prev_step = step
    return out


# ---------------------------------------------------------------------------
# the final parameters
#
# The checks flatten and shift parameters through the layer arrays alone,
# not through ParamSet's vector helpers, so that they keep working when the
# parameter container changes.


def _flat(ps) -> np.ndarray:
    return np.concatenate([a.ravel() for lay in ps.layers for a in (lay.weights, lay.bias)])


def _layer_slices(ps) -> dict[str, slice]:
    out, k = {}, 0
    for lay in ps.layers:
        size = lay.weights.size + lay.bias.size
        out[lay.layer_id] = slice(k, k + size)
        k += size
    return out


def _shifted(ps, vec: np.ndarray, h: float):
    """A copy of ``ps`` moved by ``h * vec`` (vec in flat layer order)."""
    out = ps.copy()
    k = 0
    for lay in out.layers:
        for a in (lay.weights, lay.bias):
            a += h * vec[k : k + a.size].reshape(a.shape)
            k += a.size
    return out


class Probe(NamedTuple):
    params: object
    act: object
    batch: object
    reg: object


def make_probe(cfg, base, seed: int, final_params) -> Probe:
    """The final parameters, a seeded batch with the last task's labels, and
    the run's regularizer (its snapshot re-drawn from the seed's init stream)."""
    act = cfg.model.activation
    rng = np.random.default_rng([seed, 0xC4EC])
    rows = rng.choice(base.inputs.shape[0], size=cfg.stream.batch_size, replace=False)
    labels = tasks.task_labels(base, cfg.stream.tasks - 1, cfg.stream)
    batch = nn.Batch(base.inputs[rows], labels[rows])
    init = nn.init_mlp(
        base.inputs.shape[1], [cfg.model.hidden_width], base.n_classes, act, stream(seed, "init")
    )
    return Probe(final_params, act, batch, runner.build_regularizer(cfg.model, init))


def noise_checks(p: Probe, task: int) -> list[Check]:
    """(1/B) sum_i ||g_i - g_bar||^2 per layer and globally, from B one-sample
    gradients in two passes, against per_sample_grads + minibatch_grad_variance."""
    ps = nn.per_sample_grads(p.params, p.act, p.batch, p.reg)
    slices = _layer_slices(p.params)
    program = {lid: metrics.minibatch_grad_variance(ps, lid) for lid in slices}
    program_global = metrics.minibatch_grad_variance(ps, "global")
    del ps
    B = p.batch.size
    # Each g_i carries the whole penalty gradient, as in per_sample_grads;
    # it is computed once rather than once per sample.
    reg_grad = _flat(nn.regularizer_penalty(p.params, p.reg)[1])
    no_reg = nn.Regularizer("none")

    def sample_grad(i):
        one = nn.Batch(p.batch.inputs[i : i + 1], p.batch.labels[i : i + 1])
        return _flat(nn.loss_grad(p.params, p.act, one, no_reg).grads) + reg_grad

    gbar = sum(sample_grad(i) for i in range(B)) / B
    own = dict.fromkeys(slices, 0.0)
    for i in range(B):
        dev = sample_grad(i) - gbar
        for lid, sl in slices.items():
            own[lid] += float(dev[sl] @ dev[sl]) / B
    out = [
        Check("noise_layer", _close(program[lid], own[lid], NOISE_RTOL),
              f"{lid}: program={program[lid]!r} own={own[lid]!r}", task)
        for lid in slices
    ]
    total = sum(program.values())
    out.append(Check("noise_global_sum", _close(program_global, total, NOISE_RTOL),
                     f"global={program_global!r} sum of layers={total!r}", task))
    return out


def _kink_pattern(params, act, batch) -> list[np.ndarray]:
    return [z > 0.0 for z in nn.forward(params, act, batch).hidden_preacts]


def gradient_checks(p: Probe, seed: int, task: int, directions: int = 3) -> list[Check]:
    """Directional derivative g.v against a central difference of the loss.

    The difference is a valid reference only where the loss is smooth on
    the segment [w - hv, w + hv], so a seeded direction along which some
    hidden pre-activation changes sign is skipped for the next one.
    """
    grad = _flat(nn.loss_grad(p.params, p.act, p.batch, p.reg).grads)
    rng = np.random.default_rng([seed, 0x6AD])
    h = 1e-6
    out = []
    for attempt in range(GRAD_MAX_DRAWS):
        if len(out) == directions:
            break
        v = rng.standard_normal(grad.size)
        v /= np.linalg.norm(v)
        up_params, down_params = _shifted(p.params, v, h), _shifted(p.params, v, -h)
        up_signs = _kink_pattern(up_params, p.act, p.batch)
        down_signs = _kink_pattern(down_params, p.act, p.batch)
        if any(np.any(a != b) for a, b in zip(up_signs, down_signs)):
            continue
        up = nn.loss_grad(up_params, p.act, p.batch, p.reg).loss
        down = nn.loss_grad(down_params, p.act, p.batch, p.reg).loss
        fd = (up - down) / (2.0 * h)
        analytic = float(grad @ v)
        ok = abs(fd - analytic) <= GRAD_RTOL * float(np.linalg.norm(grad))
        out.append(Check("gradient_fd", ok, f"draw {attempt}: g.v={analytic!r} fd={fd!r}", task))
    if len(out) < directions:
        out.append(Check("gradient_fd", False, f"no kink-free direction in {GRAD_MAX_DRAWS} draws", task))
    return out


def penalty_check(p: Probe, task: int) -> Check:
    """Wasserstein penalty against (lam/n) sum (sort(w) - sort(w0))^2 per layer."""
    value, _ = nn.regularizer_penalty(p.params, p.reg)
    own = sum(
        p.reg.lam * float(np.mean((np.sort(w.weights.ravel()) - np.sort(w0.weights.ravel())) ** 2))
        for w, w0 in zip(p.params.layers, p.reg.init_snapshot.layers)
    )
    return Check("wasserstein_penalty", _close(value, own, PENALTY_RTOL),
                 f"program={value!r} own={own!r}", task)


# Desk-scale shape of the fixed sharpness probe: the size at which the
# program's finite-difference HVP starts to cross ReLU kinks.
SHARP_D, SHARP_WIDTH, SHARP_CLASSES, SHARP_B = 512, 64, 100, 256


def sharpness_probe(cfg) -> Probe:
    """A fixed probe: the workload's activation and regularizer at the desk
    shape, at its seed-0 init, on a seed-0 synthetic batch.  Its inputs do
    not depend on the workload seed."""
    act = cfg.model.activation
    raw = tasks.synthesize(tasks.SyntheticSource(n=SHARP_B, d=SHARP_D, classes=SHARP_CLASSES, seed=0))
    x = (raw.images - raw.images.mean()) / raw.images.std()
    params = nn.init_mlp(SHARP_D, [SHARP_WIDTH], SHARP_CLASSES, act, stream(0, "init"))
    return Probe(params, act, nn.Batch(x, raw.labels), runner.build_regularizer(cfg.model, params))


def sharpness_top(p: Probe, cfg):
    """The program's top_eigenvalue on the probe, with the run's power-iteration budget."""
    probe = curvature.CurvatureProbe(cfg.power_iters, cfg.power_tol, 0)
    return curvature.top_eigenvalue(p.params, p.act, p.batch, p.reg, probe)


def sharpness_reference(p: Probe) -> float:
    """ARPACK's largest-magnitude eigenvalue over a central-difference HVP
    whose parameter step, 1e-7 * (1 + ||w||), is small enough to stay on one
    side of the ReLU kinks."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    w = _flat(p.params)
    step = 1e-7 * (1.0 + float(np.linalg.norm(w)))

    def grad_at(v, h):
        return _flat(nn.loss_grad(_shifted(p.params, v, h), p.act, p.batch, p.reg).grads)

    def matvec(v):
        v = np.asarray(v, dtype=np.float64).ravel()
        h = step / float(np.linalg.norm(v))
        return (grad_at(v, h) - grad_at(v, -h)) / (2.0 * h)

    op = LinearOperator((w.size, w.size), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(w.size)
    return float(eigsh(op, k=1, which="LM", v0=v0, tol=1e-8, return_eigenvectors=False)[0])


def sharpness_check(top, ref: float) -> Check:
    return Check(
        "sharpness_eigsh", _close(top.lambda_max, ref, EIG_RTOL),
        f"power={top.lambda_max!r} ({top.iterations} HVPs, converged={top.converged}) eigsh={ref!r}",
        -1,
    )


def input_checks(cfg, base, raw_expected) -> list[Check]:
    """IDX round trip (when the benchmark wrote the files) and normalization."""
    out = []
    if raw_expected is not None:
        raw = runner.load_source(cfg.stream)
        images, labels = raw_expected
        ok = np.array_equal(raw.images, images) and np.array_equal(raw.labels, labels)
        out.append(Check("idx_round_trip", ok, f"{raw.images.shape} images", 0))
    mean, std = float(np.mean(base.inputs)), float(np.std(base.inputs))
    ok = abs(mean) <= NORM_ATOL and abs(std - 1.0) <= NORM_ATOL
    out.append(Check("normalized", ok, f"mean={mean!r} std={std!r}", 0))
    return out
