"""Experiment orchestration: one seed's training loop, metric probes, log files.

``run_seed`` runs one seed in vanilla / reset-at-task / scheduled mode over a
task stream and returns its records; a caller that runs several seeds
prepares the dataset once (``prepare(load_source(...))``) and passes it to
each.  Metric probes fire at log intervals and, in scheduled mode, at the
controller's own decision interval; every probe writes one record, so every
decision is logged.  The training step is one ``nn.loss_grad`` pass, dropped
once Adam and the accuracy have read it.  ``_probe`` takes a probe to its
record's cells: one ``loss_grad`` pass (through ``probe_grads``) that every
measurement reads (the factored per-layer gradient variance, the diagnostics
and every R-op product of the Lanczos solve for the top Hessian eigenvalue),
the window statistics and threshold reports, all at the learning rates from
before any decision, then the controller's decision on a decision step.
When the eigensolve runs out its product budget, the record is flagged
``sharpness_unconverged``, its eigenvalue is kept out of the volatility
windows (the bounds read each window as it stands) and a decision on it
holds every layer.  Probes draw no randomness from the training streams, so
a run's parameter trajectory is identical with probes on or off.

Logs are append-only delimited text: one header line declaring the column
order, then one record per line with ints in full and floats at 17
significant digits, so two runs of the same config and seed produce
byte-identical files.  The columns walk the record's fields: its scalar
fields (every ``MetricRecord`` field but ``layers`` and ``flags``), each
layer's ``LayerMetrics`` fields, then the flags.  ``read_log`` reads back
the ``MetricRecord``s that ``format_log`` wrote, and refuses a log whose
header departs from that schema.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .curvature import CurvatureProbe, top_eigenvalue
from .errors import ConfigError, FormatError, NumericError
from .metrics import (
    BoundConfig,
    WindowStats,
    build_report,
    diagnostics,
    normalized_sharpness,
    push_and_stats,
    window_stats,
)
from .nn import (
    GLOBAL_SCOPE,
    Activation,
    ParamSet,
    Regularizer,
    check_regularizer,
    init_mlp,
    loss_grad,
    probe_grads,
)
from .optim import AdamState, adam_step, agg_step, check_adam, effective_step, init_adam
from .rng import derive_seed, stream
from .scheduler import HELD, ControllerConfig, decide
from .tasks import BaseDataset, StreamConfig, batches, load_source, prepare, steps_per_epoch, task_labels

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
        check_regularizer(self.regularizer, self.reg_lambda)


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
    power_iters: int = CurvatureProbe.power_iters
    power_tol: float = CurvatureProbe.tol
    window: int = WindowStats.capacity
    ema_decay: float = WindowStats.ema_decay
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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {','.join(map(str, self.seeds))}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")


@dataclass(frozen=True)
class LayerMetrics:
    """One layer's log cells: the ``ThresholdReport`` values of the same
    names, and the learning rate and decision after the probe's decision."""

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


# The log schema, from the record's fields: each layer's cells, the record's
# scalar cells (every field but layers and flags), and each cell's type.
_LAYER_TYPES = {f.name: f.type for f in fields(LayerMetrics)}
_RECORD_TYPES = {f.name: f.type for f in fields(MetricRecord)}
LAYER_FIELDS = tuple(_LAYER_TYPES)
SCALAR_FIELDS = tuple(f for f in _RECORD_TYPES if f not in ("layers", "flags"))
# a layer's cells taken from its ThresholdReport by name; the controller gives the other two
_REPORT_CELLS = tuple(f for f in LAYER_FIELDS if f not in ("eta", "decision"))
# the cells of a layer that a record does not cover (an abort record), by field type
_ABSENT_CELL = {"float": math.nan, "str": ABSENT, "bool": False}
_ABSENT_LAYER = LayerMetrics(**{name: _ABSENT_CELL[t] for name, t in _LAYER_TYPES.items()})
# a log cell's parser, by field type (a bool cell is 1 or 0), in the schema's order
_PARSE_CELL = {"int": int, "float": float, "str": str, "bool": {"1": True, "0": False}.__getitem__}
_SCALAR_PARSERS = [_PARSE_CELL[_RECORD_TYPES[f]] for f in SCALAR_FIELDS]
_LAYER_PARSERS = [_PARSE_CELL[t] for t in _LAYER_TYPES.values()]


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


def build_regularizer(model: ModelConfig, init_snapshot: ParamSet) -> Regularizer:
    """The run's penalty; only the Wasserstein penalty keeps a copy of the init."""
    snapshot = init_snapshot.copy() if model.regularizer == "wasserstein" else None
    return Regularizer(model.regularizer, model.reg_lambda, snapshot)


# ---------------------------------------------------------------------------
# metric probe


def _probe(
    cfg: RunConfig, seed: int, step: int, params, act, batch, reg, state, windows,
    *, is_decide: bool, total_steps: int,
) -> dict:
    """One probe at ``step``, taken to its record: every ``MetricRecord``
    field from ``lambda_max`` on, as keyword arguments.

    One ``probe_grads`` pass feeds the noise, the eigensolve and the
    diagnostics.  Every global cell and every report reads the state as the
    probe found it.  On a decision step the controller then acts on the
    reports, and each layer's ``eta`` and ``decision`` cells read its result.
    """
    pg = probe_grads(params, act, batch, reg)
    probe = CurvatureProbe(cfg.power_iters, cfg.power_tol, derive_seed(seed, "power", step))
    eig = top_eigenvalue(params, act, batch, reg, probe, base=pg.sweep)
    lam, grads = eig.lambda_max, pg.sweep.grads
    lam_bar = normalized_sharpness(lam, agg_step(state, GLOBAL_SCOPE))
    reports = []
    for lid in params.layer_ids():
        if eig.converged:
            snapshot = push_and_stats(windows[lid], normalized_sharpness(lam, agg_step(state, lid)))
        else:  # a solve that ran out its budget adds no sample to the window
            snapshot = window_stats(windows[lid])
        g = grads.segment(lid)
        alpha, g_sq = effective_step(state, lid), float(np.vdot(g, g))
        rep = build_report(lid, alpha, g_sq, pg.sigma_sq[lid], snapshot, batch.size, cfg.bounds)
        reports.append(rep)
    diag = diagnostics(params, grads, pg.sweep.preacts)
    labels, clamped = {}, frozenset()
    if is_decide and not eig.converged:
        # an eigensolve that ran out its budget gives no sharpness to act on
        labels = dict.fromkeys(params.layer_ids(), HELD)
    elif is_decide:
        dec = decide(reports, step, total_steps, state.eta, cfg.controller)
        state.eta, labels, clamped = dec.etas, dec.labels, dec.clamped
    layers: dict[str, LayerMetrics] = {}
    flags: list[str] = []
    for rep in reports:
        lid = rep.layer_id
        shared = {f: getattr(rep, f) for f in _REPORT_CELLS}
        layers[lid] = LayerMetrics(**shared, eta=state.eta[lid], decision=labels.get(lid, ABSENT))
        flags.extend(f"{lid}:{f}" for f in rep.flags)
        if lid in clamped:
            flags.append(f"{lid}:eta_clamped")
    if not diag.ratio_defined:
        flags.append("ratio_undefined")
    if not eig.converged:
        flags.append("sharpness_unconverged")
    return dict(
        lambda_max=lam,
        lambda_bar=lam_bar,
        sigma_mb_sq=sum(pg.sigma_sq.values()),
        weight_norm=diag.weight_norm,
        grad_norm=diag.grad_norm,
        grad_param_ratio=diag.grad_param_ratio,
        use=diag.unit_sign_entropy,
        layers=layers,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# the training loop


def _fresh_windows(cfg: RunConfig, layer_ids) -> dict[str, WindowStats]:
    return {lid: WindowStats(capacity=cfg.window, ema_decay=cfg.ema_decay) for lid in layer_ids}


def run_seed(cfg: RunConfig, seed: int, base: BaseDataset | None = None) -> SeedResult:
    if base is None:
        base = prepare(load_source(cfg.stream), cfg.stream)
    act = cfg.model.activation
    init_snapshot = init_mlp(
        base.inputs.shape[1], [cfg.model.hidden_width], base.n_classes, act, stream(seed, "init")
    )
    reg = build_regularizer(cfg.model, init_snapshot)
    layer_ids = init_snapshot.layer_ids()

    spe = steps_per_epoch(base.inputs.shape[0], cfg.stream.batch_size)
    total_steps = cfg.stream.tasks * cfg.stream.epochs_per_task * spe

    result = SeedResult(seed, layer_ids, [], [])
    global_step = 0
    acc_sum, acc_n = 0.0, 0
    try:
        for task_i in range(cfg.stream.tasks):
            if task_i == 0 or cfg.mode == "reset":  # a reset task starts as the first one does
                params = init_snapshot.copy()
                state = init_adam(params, **vars(cfg.optimizer))
                windows = _fresh_windows(cfg, layer_ids)
            labels = task_labels(base, task_i, cfg.stream)
            for epoch in range(cfg.stream.epochs_per_task):
                ep_sum = 0.0
                for batch in batches(base.inputs, labels, task_i, epoch, cfg.stream):
                    global_step += 1
                    sw = loss_grad(params, act, batch, reg)
                    adam_step(state, params, sw.grads)
                    acc = float(np.mean(np.argmax(sw.logits, axis=1) == batch.labels))
                    del sw  # the probe makes its own pass; holding this one too adds to the peak
                    acc_sum += acc
                    acc_n += 1
                    ep_sum += acc
                    is_decide = cfg.mode == "scheduled" and global_step % cfg.controller.interval_k == 0
                    if is_decide or global_step % cfg.log_interval == 0:
                        cells = _probe(cfg, seed, global_step, params, act, batch, reg, state,
                                       windows, is_decide=is_decide, total_steps=total_steps)
                        result.records.append(
                            MetricRecord(seed, task_i, epoch, global_step, acc_sum / acc_n, **cells)
                        )
                        acc_sum, acc_n = 0.0, 0
            # every epoch runs spe steps, so this is the task's final-epoch mean
            result.per_task_accuracy.append(ep_sum / spe)
    except NumericError as err:
        result.aborted, result.abort_message = True, str(err)
        result.records.append(_error_record(err, seed, task_i, epoch, global_step))
    result.final_params, result.final_state = params, state
    return result


def _error_record(err: NumericError, *where) -> MetricRecord:
    """The record of an aborted step: ``where`` fills the leading scalar
    cells (seed, task, epoch, step), every other scalar cell is NaN."""
    flags = ["aborted:" + str(err).replace(",", ";").replace("\n", " ")]
    if err.layer_id is not None:
        flags.append(f"aborted_layer:{err.layer_id}")
    nan_cells = dict.fromkeys(SCALAR_FIELDS[len(where) :], math.nan)
    return MetricRecord(*where, **nan_cells, layers={}, flags=tuple(flags))


# ---------------------------------------------------------------------------
# log serialization


def _cell(value) -> str:
    """One log cell: a label as is, a flag as 1/0, an int in full, a float at 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def log_columns(layer_ids: Sequence[str]) -> list[str]:
    return [*SCALAR_FIELDS, *(f"{lid}.{f}" for lid in layer_ids for f in LAYER_FIELDS), "flags"]


def format_log(records: Sequence[MetricRecord], layer_ids: Sequence[str]) -> str:
    lines = [",".join(log_columns(layer_ids))]
    for rec in records:
        row = [_cell(getattr(rec, f)) for f in SCALAR_FIELDS]
        for lid in layer_ids:
            lm = rec.layers.get(lid, _ABSENT_LAYER)
            row.extend(_cell(getattr(lm, f)) for f in LAYER_FIELDS)
        row.append(";".join(rec.flags) if rec.flags else ABSENT)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_log(records: Sequence[MetricRecord], layer_ids: Sequence[str], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_log(records, layer_ids))


def read_text(path) -> str:
    """A text file's contents; FormatError naming the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text at byte {err.start}", offset=err.start) from None


def read_log(path) -> tuple[list[MetricRecord], list[str]]:
    """The records and layer ids that ``format_log`` wrote: the ``.alpha``
    columns name the layers, any header but their ``log_columns`` is a
    FormatError, and each cell is typed by its place in that schema."""
    lines = [(no, ln) for no, ln in enumerate(read_text(path).split("\n"), start=1) if ln.strip()]
    if not lines:
        raise FormatError(f"empty metric log {path}")
    header = lines[0][1].split(",")
    key = "." + LAYER_FIELDS[0]  # the column that names each layer once
    layer_ids = [col.removesuffix(key) for col in header if col.endswith(key)]
    for i, (got, exp) in enumerate(zip_longest(header, log_columns(layer_ids))):
        if got != exp:
            raise FormatError(f"{path}: header column {i + 1} is {got!r}, expected {exp!r}")
    if not layer_ids:
        raise FormatError(f"{path}: the header has no layer columns")
    parsers = [*_SCALAR_PARSERS, *_LAYER_PARSERS * len(layer_ids), str]
    n, w = len(SCALAR_FIELDS), len(LAYER_FIELDS)
    records = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise FormatError(f"{path}: line {lineno} has {len(parts)} fields, expected {len(header)}")
        cells = []
        for col, parse, val in zip(header, parsers, parts):
            try:
                cells.append(parse(val))
            except (KeyError, ValueError):
                raise FormatError(f"{path}: line {lineno}, column {col!r}: cannot parse {val!r}") from None
        layers = {lid: LayerMetrics(*cells[n + i * w : n + (i + 1) * w]) for i, lid in enumerate(layer_ids)}
        flags = () if cells[-1] == ABSENT else tuple(cells[-1].split(";"))
        records.append(MetricRecord(*cells[:n], layers=layers, flags=flags))
    return records, layer_ids


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


def summarize(records: Sequence[MetricRecord], layer_ids: Sequence[str]) -> Summary:
    """Per-task accuracy, crossing fractions, and a range-scaled overlay.

    A task's accuracy is the mean train accuracy of the records logged in its
    final epoch.  A record averages the steps since the record before it, so
    that mean spans earlier epochs when the log interval is longer than an
    epoch (``format_accuracy`` has the exact final-epoch mean).  The crossing
    fractions are min-max scaled onto the accuracy range for plotting (a flat
    series is flagged degenerate and pinned to the mid-range).
    """
    by_task: dict[int, list[MetricRecord]] = {}
    for r in records:
        if not any(f.startswith("aborted") for f in r.flags):
            by_task.setdefault(r.task, []).append(r)
    if not by_task:
        raise ConfigError("metric log contains no usable records")
    tasks = sorted(by_task)
    accs, fracs, n_crossed = [], [], 0
    for trecs in map(by_task.get, tasks):
        last_epoch = max(r.epoch for r in trecs)
        final = [r.train_accuracy for r in trecs if r.epoch == last_epoch]
        accs.append(sum(final) / len(final))
        crossed = sum(any(r.layers[lid].crossed for lid in layer_ids) for r in trecs)
        fracs.append(crossed / len(trecs))
        n_crossed += crossed
    rho_hat = n_crossed / sum(map(len, by_task.values()))

    lo_a, hi_a = min(accs), max(accs)
    lo_f, hi_f = min(fracs), max(fracs)
    degenerate = hi_f == lo_f or hi_a == lo_a
    if degenerate:
        scaled = [0.5 * (lo_a + hi_a)] * len(fracs)
    else:
        scaled = [lo_a + (f - lo_f) * (hi_a - lo_a) / (hi_f - lo_f) for f in fracs]
    per_task = [TaskSummary(*cells) for cells in zip(tasks, accs, fracs, scaled)]
    return Summary(per_task, rho_hat, degenerate)


def format_summary(summary: Summary) -> str:
    lines = [
        f"# rho_hat={_cell(summary.rho_hat)}",
        f"# scale_degenerate={_cell(summary.scale_degenerate)}",
        ",".join(f.name for f in fields(TaskSummary)),
    ]
    lines.extend(",".join(map(_cell, astuple(ts))) for ts in summary.per_task)
    return "\n".join(lines) + "\n"


def format_accuracy(result: SeedResult) -> str:
    lines = ["task,accuracy", *(f"{t},{_cell(a)}" for t, a in enumerate(result.per_task_accuracy))]
    return "\n".join(lines) + "\n"
