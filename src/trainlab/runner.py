"""Experiment orchestration: training loops, metric probes, log files.

Runs vanilla / reset-at-task / scheduled modes over a task stream.  Metric
probes fire at log intervals and, in scheduled mode, at the controller's own
decision interval; every probe writes one record, so every decision is
logged.  A probe makes one forward pass and one reverse sweep (``nn.sweep``,
through ``probe_grads``), and everything it measures reads that sweep: the
per-layer gradient variance in factored form, the diagnostics and every R-op
product of the Lanczos solve for the top Hessian eigenvalue; window
statistics and threshold reports follow.  When the
eigensolve runs out its product budget, the record is flagged
``sharpness_unconverged``, its eigenvalue is kept out of the volatility
windows (the bounds read each window as it stands) and a decision on it
holds every layer.
Probes draw no randomness from the training streams, so a run's parameter
trajectory is identical with probes on or off.

Logs are append-only delimited text: one header line declaring the column
order, then one record per line with floats at 17 significant digits, so two
runs of the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .curvature import CurvatureProbe, top_eigenvalue
from .errors import ConfigError, NumericError
from .metrics import (
    BoundConfig,
    Diagnostics,
    ThresholdReport,
    WindowStats,
    build_report,
    diagnostics,
    normalized_sharpness,
    predict_lot,
    push_and_stats,
    window_stats,
)
from .nn import (
    GLOBAL_SCOPE,
    REGULARIZER_KINDS,
    Activation,
    ParamSet,
    Regularizer,
    init_mlp,
    loss_grad,
    probe_grads,
)
from .optim import AdamState, adam_step, agg_step, check_adam, effective_step, init_adam, reset
from .rng import derive_seed, stream
from .scheduler import HELD, ControllerConfig, decide
from .tasks import BaseDataset, StreamConfig, batches, load_source, make_task, prepare, steps_per_epoch

# Off the run path, but bound here: bench/tracing.py wraps these names in this module.
from .metrics import minibatch_grad_variance  # noqa: F401
from .nn import forward, mean_params, per_sample_grads  # noqa: F401

MODES = ("vanilla", "reset", "scheduled")
ABSENT = "-"


@dataclass(frozen=True)
class ModelConfig:
    hidden_width: int = 256
    activation: Activation = Activation("relu")
    regularizer: str = "none"
    reg_lambda: float = 0.0

    def __post_init__(self):
        if self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.regularizer not in REGULARIZER_KINDS:
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")
        if self.reg_lambda < 0.0:
            raise ConfigError(f"reg_lambda must be >= 0, got {self.reg_lambda}")


@dataclass(frozen=True)
class OptimConfig:
    eta: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_adam([self.eta], self.beta1, self.beta2, self.eps)


@dataclass
class RunConfig:
    stream: StreamConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    bounds: BoundConfig = field(default_factory=BoundConfig)
    controller: ControllerConfig | None = None
    mode: str = "vanilla"
    log_interval: int = 40
    power_iters: int = 100
    power_tol: float = 1e-6
    window: int = 30
    ema_decay: float = 0.1
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "scheduled" and self.controller is None:
            raise ConfigError("scheduled mode requires a controller config")
        if self.log_interval < 1:
            raise ConfigError(f"log_interval must be >= 1, got {self.log_interval}")
        # the probe's own checks, made here so that a bad setting fails before any data loads
        CurvatureProbe(self.power_iters, self.power_tol)
        WindowStats(self.window, self.ema_decay)
        if not self.seeds:
            raise ConfigError("at least one seed is required")


@dataclass(frozen=True)
class LayerMetrics:
    alpha: float
    alpha_g_star: float
    alpha_vol_star: float
    alpha_tilde_star: float
    vol: float
    eta: float
    decision: str
    crossed: bool


@dataclass(frozen=True)
class MetricRecord:
    seed: int
    task: int
    epoch: int
    step: int
    train_accuracy: float
    lambda_max: float
    lambda_bar: float
    sigma_mb_sq: float
    weight_norm: float
    grad_norm: float
    grad_param_ratio: float
    use: float
    layers: dict[str, LayerMetrics]
    flags: tuple[str, ...] = ()


# The log schema: each layer's cells, and the record's global cells (those
# between train_accuracy and layers), in field order.
LAYER_FIELDS = tuple(f.name for f in fields(LayerMetrics))
_RECORD_FIELDS = [f.name for f in fields(MetricRecord)]
GLOBAL_FIELDS = tuple(
    _RECORD_FIELDS[_RECORD_FIELDS.index("train_accuracy") + 1 : _RECORD_FIELDS.index("layers")]
)
# the cells of a layer that a record does not cover (an abort record), by field type
_ABSENT_CELL = {"float": math.nan, "str": ABSENT, "bool": False}
_ABSENT_LAYER = LayerMetrics(**{f.name: _ABSENT_CELL[f.type] for f in fields(LayerMetrics)})


@dataclass
class SeedResult:
    seed: int
    layer_ids: list[str]
    records: list[MetricRecord]
    per_task_accuracy: list[float]
    aborted: bool = False
    abort_message: str | None = None
    final_params: ParamSet | None = None
    final_state: AdamState | None = None


@dataclass
class RunResult:
    config: RunConfig
    base: BaseDataset
    seed_results: list[SeedResult]

    @property
    def aborted(self) -> bool:
        return any(r.aborted for r in self.seed_results)


def build_regularizer(model: ModelConfig, init_snapshot: ParamSet) -> Regularizer:
    if model.regularizer == "none":
        return Regularizer("none")
    if model.regularizer == "l2":
        return Regularizer("l2", model.reg_lambda)
    return Regularizer("wasserstein", model.reg_lambda, init_snapshot.copy())


# ---------------------------------------------------------------------------
# metric probe


@dataclass
class ProbeResult:
    reports: list[ThresholdReport]
    lambda_max: float
    lambda_bar: float
    sigma_mb_sq: float
    diag: Diagnostics
    sharpness_converged: bool


def _probe(cfg: RunConfig, seed: int, step: int, params, act, batch, reg, state, windows):
    pg = probe_grads(params, act, batch, reg)
    probe = CurvatureProbe(cfg.power_iters, cfg.power_tol, derive_seed(seed, "power", step))
    eig = top_eigenvalue(params, act, batch, reg, probe, base=pg.sweep)
    lam = eig.lambda_max
    lam_bar = normalized_sharpness(lam, agg_step(state, GLOBAL_SCOPE))
    reports = []
    for lid in params.layer_ids():
        g = pg.grads.segment(lid)
        if eig.converged:
            snapshot = push_and_stats(windows[lid], normalized_sharpness(lam, agg_step(state, lid)))
        else:  # a solve that ran out its budget adds no sample to the window
            snapshot = window_stats(windows[lid])
        reports.append(
            build_report(
                lid,
                effective_step(state, lid),
                float(np.vdot(g, g)),
                pg.sigma_sq[lid],
                snapshot,
                batch.size,
                cfg.bounds,
            )
        )
    sigma_global = sum(pg.sigma_sq.values())
    diag = diagnostics(params, pg.grads, pg.sweep.preacts)
    return ProbeResult(reports, lam, lam_bar, sigma_global, diag, eig.converged)


# ---------------------------------------------------------------------------
# the training loop


def run(cfg: RunConfig) -> RunResult:
    """Execute every configured seed over the shared prepared dataset."""
    base = prepare(load_source(cfg.stream), cfg.stream)
    results = [run_seed(cfg, seed, base) for seed in cfg.seeds]
    return RunResult(cfg, base, results)


def _fresh_windows(cfg: RunConfig, layer_ids) -> dict[str, WindowStats]:
    return {lid: WindowStats(capacity=cfg.window, ema_decay=cfg.ema_decay) for lid in layer_ids}


def run_seed(cfg: RunConfig, seed: int, base: BaseDataset | None = None) -> SeedResult:
    if base is None:
        base = prepare(load_source(cfg.stream), cfg.stream)
    act = cfg.model.activation
    params = init_mlp(
        base.inputs.shape[1],
        [cfg.model.hidden_width],
        base.n_classes,
        act,
        stream(seed, "init"),
    )
    init_snapshot = params.copy()
    reg = build_regularizer(cfg.model, init_snapshot)
    state = init_adam(
        params,
        cfg.optimizer.eta,
        cfg.optimizer.beta1,
        cfg.optimizer.beta2,
        cfg.optimizer.eps,
    )
    layer_ids = params.layer_ids()
    windows = _fresh_windows(cfg, layer_ids)

    n = base.inputs.shape[0]
    spe = steps_per_epoch(n, cfg.stream.batch_size)
    total_steps = cfg.stream.tasks * cfg.stream.epochs_per_task * spe

    result = SeedResult(seed, layer_ids, [], [])
    global_step = 0
    acc_sum, acc_n = 0.0, 0

    for task_i in range(cfg.stream.tasks):
        if task_i > 0 and cfg.mode == "reset":
            params = init_snapshot.copy()
            state = reset(state)
            windows = _fresh_windows(cfg, layer_ids)
        view = make_task(base, task_i, cfg.stream)
        task_final_acc = 0.0
        for epoch in range(cfg.stream.epochs_per_task):
            ep_sum, ep_n = 0.0, 0
            for batch in batches(view, epoch, cfg.stream):
                global_step += 1
                is_decide = (
                    cfg.mode == "scheduled"
                    and global_step % cfg.controller.interval_k == 0
                )
                probe = None
                try:
                    lg = loss_grad(params, act, batch, reg)
                    adam_step(state, params, lg.grads)
                    if is_decide or global_step % cfg.log_interval == 0:
                        probe = _probe(
                            cfg, seed, global_step, params, act, batch, reg, state, windows
                        )
                except NumericError as err:
                    result.aborted = True
                    result.abort_message = str(err)
                    result.records.append(
                        _error_record(seed, task_i, epoch, global_step, err)
                    )
                    result.final_params, result.final_state = params, state
                    return result
                acc = float(np.mean(np.argmax(lg.logits, axis=1) == batch.labels))
                acc_sum += acc
                acc_n += 1
                ep_sum += acc
                ep_n += 1
                if probe is None:
                    continue
                decision_labels: dict[str, str] = {}
                clamped: frozenset[str] = frozenset()
                if is_decide and not probe.sharpness_converged:
                    # an eigensolve that ran out its budget gives no sharpness to act on
                    decision_labels = dict.fromkeys(layer_ids, HELD)
                elif is_decide:
                    dec = decide(
                        probe.reports, global_step, total_steps, state.eta, cfg.controller
                    )
                    state.eta = dec.etas
                    decision_labels = dec.labels
                    clamped = dec.clamped
                result.records.append(
                    _build_record(
                        seed,
                        task_i,
                        epoch,
                        global_step,
                        acc_sum / acc_n,
                        probe,
                        state,
                        decision_labels,
                        clamped,
                    )
                )
                acc_sum, acc_n = 0.0, 0
            if epoch == cfg.stream.epochs_per_task - 1 and ep_n > 0:
                task_final_acc = ep_sum / ep_n
        result.per_task_accuracy.append(task_final_acc)
    result.final_params, result.final_state = params, state
    return result


def _build_record(seed, task, epoch, step, train_acc, probe: ProbeResult, state, labels, clamped):
    flags: list[str] = []
    layer_metrics: dict[str, LayerMetrics] = {}
    for rep in probe.reports:
        lid = rep.layer_id
        layer_metrics[lid] = LayerMetrics(
            alpha=rep.alpha,
            alpha_g_star=rep.alpha_g_star,
            alpha_vol_star=rep.alpha_vol_star,
            alpha_tilde_star=rep.alpha_tilde_star,
            vol=rep.vol,
            eta=state.eta[lid],
            decision=labels.get(lid, ABSENT),
            crossed=rep.crossed,
        )
        flags.extend(f"{lid}:{f}" for f in rep.flags)
        if lid in clamped:
            flags.append(f"{lid}:eta_clamped")
    if not probe.diag.ratio_defined:
        flags.append("ratio_undefined")
    if not probe.sharpness_converged:
        flags.append("sharpness_unconverged")
    return MetricRecord(
        seed=seed,
        task=task,
        epoch=epoch,
        step=step,
        train_accuracy=train_acc,
        lambda_max=probe.lambda_max,
        lambda_bar=probe.lambda_bar,
        sigma_mb_sq=probe.sigma_mb_sq,
        weight_norm=probe.diag.weight_norm,
        grad_norm=probe.diag.grad_norm,
        grad_param_ratio=probe.diag.grad_param_ratio,
        use=probe.diag.unit_sign_entropy,
        layers=layer_metrics,
        flags=tuple(flags),
    )


def _error_record(seed, task, epoch, step, err: NumericError) -> MetricRecord:
    detail = str(err).replace(",", ";").replace("\n", " ")
    flags = ["aborted:" + detail]
    if err.layer_id is not None:
        flags.append(f"aborted_layer:{err.layer_id}")
    return MetricRecord(
        seed=seed,
        task=task,
        epoch=epoch,
        step=step,
        train_accuracy=math.nan,
        **dict.fromkeys(GLOBAL_FIELDS, math.nan),
        layers={},
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# log serialization


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    """One per-layer log cell: a label as is, a flag as 1/0, a number at 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return _fmt(value)


def log_columns(layer_ids: Sequence[str]) -> list[str]:
    cols = ["seed", "task", "epoch", "step", "train_accuracy"]
    cols.extend(GLOBAL_FIELDS)
    for lid in layer_ids:
        cols.extend(f"{lid}.{f}" for f in LAYER_FIELDS)
    cols.append("flags")
    return cols


def format_log(records: Sequence[MetricRecord], layer_ids: Sequence[str]) -> str:
    lines = [",".join(log_columns(layer_ids))]
    for rec in records:
        row = [str(rec.seed), str(rec.task), str(rec.epoch), str(rec.step), _fmt(rec.train_accuracy)]
        row.extend(_fmt(getattr(rec, f)) for f in GLOBAL_FIELDS)
        for lid in layer_ids:
            lm = rec.layers.get(lid, _ABSENT_LAYER)
            row.extend(_cell(getattr(lm, f)) for f in LAYER_FIELDS)
        row.append(";".join(rec.flags) if rec.flags else ABSENT)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_log(records: Sequence[MetricRecord], layer_ids: Sequence[str], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_log(records, layer_ids))


def read_log(path) -> tuple[list[dict], list[str]]:
    """Parse a metric log back into row dicts plus the layer-id list."""
    with open(path, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"empty metric log {path}")
    header = lines[0].split(",")
    layer_ids: list[str] = []
    for col in header:
        if col.endswith(".alpha"):
            layer_ids.append(col[: -len(".alpha")])
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed log line with {len(parts)} fields, expected {len(header)}")
        row: dict = {}
        for col, val in zip(header, parts):
            if col in ("seed", "task", "epoch", "step"):
                row[col] = int(val)
            elif col == "flags" or col.endswith(".decision"):
                row[col] = val
            elif col.endswith(".crossed"):
                row[col] = val == "1"
            else:
                row[col] = float(val)
        rows.append(row)
    return rows, layer_ids


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class TaskSummary:
    task: int
    accuracy: float
    crossing_fraction: float
    scaled_prediction: float


@dataclass
class Summary:
    per_task: list[TaskSummary]
    rho_hat: float
    scale_degenerate: bool


def summarize(rows: Sequence[dict], layer_ids: Sequence[str]) -> Summary:
    """Per-task accuracy, crossing fractions, and a range-scaled overlay.

    Accuracy per task is the mean logged train accuracy over the task's final
    logged epoch; the crossing-fraction series is min-max scaled onto the
    accuracy range for plotting (a flat series is flagged degenerate and
    pinned to the mid-range).
    """
    clean = [r for r in rows if not any(f.startswith("aborted") for f in r["flags"].split(";"))]
    if not clean:
        raise ConfigError("metric log contains no usable records")
    tasks = sorted({r["task"] for r in clean})
    accs: list[float] = []
    fracs: list[float] = []
    for t in tasks:
        trows = [r for r in clean if r["task"] == t]
        last_epoch = max(r["epoch"] for r in trows)
        final = [r for r in trows if r["epoch"] == last_epoch]
        accs.append(sum(r["train_accuracy"] for r in final) / len(final))
        crossed = [any(r[f"{lid}.crossed"] for lid in layer_ids) for r in trows]
        fracs.append(predict_lot(crossed, window=len(crossed)).per_task[0])
    all_crossed = [any(r[f"{lid}.crossed"] for lid in layer_ids) for r in clean]
    rho_hat = predict_lot(all_crossed, window=max(len(all_crossed), 1)).rho_hat

    lo_a, hi_a = min(accs), max(accs)
    lo_f, hi_f = min(fracs), max(fracs)
    degenerate = hi_f == lo_f or hi_a == lo_a
    scaled = []
    for f in fracs:
        if degenerate:
            scaled.append(0.5 * (lo_a + hi_a))
        else:
            scaled.append(lo_a + (f - lo_f) * (hi_a - lo_a) / (hi_f - lo_f))
    per_task = [
        TaskSummary(t, a, f, s) for t, a, f, s in zip(tasks, accs, fracs, scaled)
    ]
    return Summary(per_task, rho_hat, degenerate)


def format_summary(summary: Summary) -> str:
    lines = [
        f"# rho_hat={_fmt(summary.rho_hat)}",
        f"# scale_degenerate={1 if summary.scale_degenerate else 0}",
        "task,accuracy,crossing_fraction,scaled_prediction",
    ]
    for ts in summary.per_task:
        lines.append(
            f"{ts.task},{_fmt(ts.accuracy)},{_fmt(ts.crossing_fraction)},{_fmt(ts.scaled_prediction)}"
        )
    return "\n".join(lines) + "\n"


def write_summary(summary: Summary, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_summary(summary))


def format_accuracy(result: SeedResult) -> str:
    lines = ["task,accuracy"]
    for t, a in enumerate(result.per_task_accuracy):
        lines.append(f"{t},{_fmt(a)}")
    return "\n".join(lines) + "\n"
