"""Experiment orchestration: one seed's training loop, metric probes, log files.

``run_seed`` runs one seed in vanilla / reset-at-task / scheduled mode over a
task stream and returns its records; a caller that runs several seeds
prepares the dataset once (``prepare(load_source(...))``) and passes it to
each.  Metric probes fire at log intervals and, in scheduled mode, at the
controller's own decision interval; every probe writes one record, so every
decision is logged.  The training step is one ``nn.loss_grad`` pass, dropped
once Adam and the accuracy have read it.

Each seed owns one worker thread, which the seed closes when it ends, also
on an abort, and gives it one of two whole jobs, and only at one BLAS
thread (``one_blas_thread``); with more, BLAS's own threads take the free
core, and the worker stays idle.  A seed of at least ``nn.WIDE``
parameters makes half of each wide matmul of its training step and of
Adam's update there (see ``nn.split``).  Any other seed, Wasserstein or
not, runs its probes there, ahead: a probe reads a snapshot of its step
(the parameters, Adam's m, v, t and rates, the task and accuracy sums)
while the seed's thread trains on.  The probe is settled, its record
appended, once it is done or the next probe is due; a training error waits
for it first.  If its decision moved a layer's rate (a warm, a cool or a
clamp), the seed goes back to the snapshot, which holds the decided rates,
and replays the steps since, so every record, accuracy and final state is
the inline run's to the byte.  A probe that raises aborts the seed at its
own step, with the snapshot as the final state, and wins over a training
error met meanwhile.  A probe runs inline at the seed's last step, and at
a decision step after a moved decision, since moved decisions come in
streaks (the warm phase).  A probe itself never hands work off, so the
same ``_probe`` call runs inline on the seed's thread or ahead on the
worker.

``_probe`` takes a probe to its record's cells: one ``loss_grad`` pass
(through ``probe_grads``) that every measurement reads (the factored
per-layer gradient variance, the diagnostics and every R-op product of the
Lanczos solve for the top Hessian eigenvalue), the window statistics and
threshold reports, all at the learning rates from before any decision, then
the controller's decision on a decision step.
When the eigensolve runs out its product budget, the record is flagged
``sharpness_unconverged``, its eigenvalue is kept out of the volatility
windows (the bounds read each window as it stands) and a decision on it
holds every layer.  Probes draw no randomness from the training streams, so
a run's parameter trajectory is identical with probes on or off.

Logs are append-only delimited text: one header line declaring the column
order, then one record per line with ints in full and floats at 17
significant digits, so two runs of the same config and seed produce
byte-identical files.  The columns walk the record's fields: its scalar
fields (every ``MetricRecord`` field but ``layers`` and ``flags``; the
eigensolve's products and residual among them), each layer's
``LayerMetrics`` fields (every bound its report holds, the Cantelli cap
among them), then the flags.  ``read_log`` reads back
the ``MetricRecord``s that ``format_log`` wrote, and refuses a log whose
header departs from that schema.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import zip_longest
from typing import TYPE_CHECKING, Sequence

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
    WIDE,
    Activation,
    Batch,
    ParamSet,
    Regularizer,
    check_regularizer,
    hand_off,
    init_mlp,
    loss_grad,
    probe_grads,
)
from .optim import AdamState, OptimConfig, adam_step, agg_step, effective_step, init_adam
from .rng import derive_seed, stream
from .scheduler import HELD, ControllerConfig, decide
from .tasks import BaseDataset, StreamConfig, batches, load_source, prepare, steps_per_epoch, task_labels

if TYPE_CHECKING:
    from concurrent.futures import Future

# Off the run path, but bound here: bench/tracing.py wraps these names in this module.
from .metrics import minibatch_grad_variance  # noqa: F401
from .nn import forward, mean_params, per_sample_grads  # noqa: F401

MODES = ("vanilla", "reset", "scheduled")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
    cantelli_cap: float
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
    lambda_iters: int  # Hessian-vector products the eigensolve made
    lambda_residual: float  # its Ritz residual
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
# the cells that a record does not cover (an abort record's probe cells and layers), by field type
_ABSENT_CELL = {"int": 0, "float": math.nan, "str": ABSENT, "bool": False}
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
    abort_message: str | None = None
    final_params: ParamSet | None = None
    final_state: AdamState | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_message is not None


def build_regularizer(model: ModelConfig, init_snapshot: ParamSet) -> Regularizer:
    """The run's penalty; only the Wasserstein penalty keeps a copy of the init."""
    snapshot = init_snapshot.copy() if model.regularizer == "wasserstein" else None
    return Regularizer(model.regularizer, model.reg_lambda, snapshot)


# ---------------------------------------------------------------------------
# metric probe


def _probe(
    cfg: RunConfig, seed: int, step: int, params, act, batch, reg, state, windows,
    is_decide: bool, total_steps: int,
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
        lambda_iters=eig.iterations,
        lambda_residual=eig.residual,
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


def one_blas_thread() -> bool:
    """Whether the BLAS thread variables read 1: one of ``BLAS_THREAD_VARS``
    is set, and every one that is set reads 1."""
    values = [os.environ[var].strip() for var in BLAS_THREAD_VARS if var in os.environ]
    return bool(values) and all(v == "1" for v in values)


@dataclass
class _Cursor:
    """The training loop's state at its step ``step``: all that a replay from
    there starts from."""

    step: int
    params: ParamSet
    state: AdamState
    windows: dict[str, WindowStats]
    labels: np.ndarray | None = None  # the task's labels
    ep_sum: float = 0.0  # the epoch's accuracy sum
    acc_sum: float = 0.0  # the accuracy sum and count since the last record
    acc_n: int = 0
    per_task_accuracy: list[float] = field(default_factory=list)

    def snapshot(self) -> _Cursor:
        """A copy that the steps after this one leave as it is; the windows
        are shared, since only a probe pushes to them."""
        state = replace(self.state, m=self.state.m.copy(), v=self.state.v.copy(), eta=dict(self.state.eta))
        return replace(self, params=self.params.copy(), state=state,
                       per_task_accuracy=list(self.per_task_accuracy))


@dataclass
class _Ahead:
    """A probe running ahead on the worker: its future cells and the
    snapshot it reads, whose rates its decision sets."""

    cells: Future
    at: _Cursor
    train_accuracy: float
    is_decide: bool


def run_seed(cfg: RunConfig, seed: int, base: BaseDataset | None = None) -> SeedResult:
    # about 6 ms to import, so only a run pays it
    from concurrent.futures import ThreadPoolExecutor

    if base is None:
        base = prepare(load_source(cfg.stream), cfg.stream)
    with ThreadPoolExecutor(max_workers=1) as worker:
        return _SeedRun(cfg, seed, base, worker).run()


class _SeedRun:
    """One seed's training loop and its probes, inline or ahead on the
    worker (see the module docstring)."""

    def __init__(self, cfg: RunConfig, seed: int, base: BaseDataset, worker):
        self.cfg, self.seed, self.base = cfg, seed, base
        self.act = cfg.model.activation
        self.init = init_mlp(
            base.inputs.shape[1], [cfg.model.hidden_width], base.n_classes, self.act, stream(seed, "init")
        )
        self.reg = build_regularizer(cfg.model, self.init)
        self.spe = steps_per_epoch(base.inputs.shape[0], cfg.stream.batch_size)
        self.total_steps = cfg.stream.tasks * cfg.stream.epochs_per_task * self.spe
        # the worker's one job in this seed, at one BLAS thread: the wide halves, or else the probes
        one_thread = one_blas_thread()
        self.split_worker = worker if one_thread and self.init.n_params >= WIDE else None
        self.probe_worker = worker if one_thread and self.split_worker is None else None
        self.result = SeedResult(seed, self.init.layer_ids(), [], [])
        self.at = _Cursor(0, *self.fresh())
        self.batches = None  # the rest of the cursor's epoch
        self.ahead: _Ahead | None = None
        self.moved = False  # whether the last decision moved a rate

    def fresh(self) -> tuple[ParamSet, AdamState, dict[str, WindowStats]]:
        """The parameters, Adam's state and the windows a seed starts from."""
        params = self.init.copy()
        state = init_adam(params, **vars(self.cfg.optimizer))
        return params, state, _fresh_windows(self.cfg, params.layer_ids())

    def where(self, step: int) -> tuple[int, int, int]:
        """The task, the epoch and the batch index of a step (from 1)."""
        task, rest = divmod(step - 1, self.cfg.stream.epochs_per_task * self.spe)
        return (task, *divmod(rest, self.spe))

    def run(self) -> SeedResult:
        try:
            while self.at.step < self.total_steps or self.ahead:
                try:
                    if self.ahead and (self.at.step == self.total_steps or self.ahead.cells.done()):
                        self.settle()
                    else:
                        self.step()
                except NumericError:
                    # a step's error waits for the probe ahead: its own error, or a rewind, wins
                    if not self.ahead or not self.settle():
                        raise
        except NumericError as err:
            task_i, epoch, _ = self.where(self.at.step)
            del self.at.per_task_accuracy[task_i:]  # the task of the abort never ended
            self.result.abort_message = str(err)
            self.result.records.append(_error_record(err, self.seed, task_i, epoch, self.at.step))
        self.result.final_params, self.result.final_state = self.at.params, self.at.state
        self.result.per_task_accuracy = self.at.per_task_accuracy
        return self.result

    def step(self) -> None:
        """The cursor's next step, and its probe when one is due."""
        cfg, at = self.cfg, self.at
        at.step += 1
        g = at.step
        task_i, epoch, i = self.where(g)
        if i == 0 and epoch == 0:
            if task_i > 0 and cfg.mode == "reset":  # a reset task starts as the first one does
                at.params, at.state, at.windows = self.fresh()
            at.labels = task_labels(self.base, task_i, cfg.stream)
        if i == 0:
            self.batches = batches(self.base.inputs, at.labels, task_i, epoch, cfg.stream)
            at.ep_sum = 0.0
        batch = next(self.batches)
        sw = loss_grad(at.params, self.act, batch, self.reg, self.split_worker)
        adam_step(at.state, at.params, sw.grads, self.split_worker)
        acc = float(np.mean(np.argmax(sw.logits, axis=1) == batch.labels))
        del sw  # the probe makes its own pass; holding this one too adds to the peak
        at.acc_sum += acc
        at.acc_n += 1
        at.ep_sum += acc
        if i == self.spe - 1 and epoch == cfg.stream.epochs_per_task - 1:
            # every epoch runs spe steps, so this is the task's final-epoch mean
            at.per_task_accuracy.append(at.ep_sum / self.spe)
        is_decide = cfg.mode == "scheduled" and g % cfg.controller.interval_k == 0
        if is_decide or g % cfg.log_interval == 0:
            if self.ahead and self.settle():
                return  # back at the settled probe's step
            self.probe(batch, is_decide)

    def probe(self, batch: Batch, is_decide: bool) -> None:
        """The probe at the cursor's step: ahead on the worker, or inline."""
        cfg, at = self.cfg, self.at
        train_accuracy = at.acc_sum / at.acc_n
        at.acc_sum, at.acc_n = 0.0, 0
        ahead = self.probe_worker and at.step < self.total_steps and not (is_decide and self.moved)
        src = at.snapshot() if ahead else at
        args = (cfg, self.seed, src.step, src.params, self.act, batch, self.reg, src.state, src.windows,
                is_decide, self.total_steps)
        if ahead:
            self.ahead = _Ahead(hand_off(self.probe_worker, _probe, *args), src, train_accuracy, is_decide)
            return
        eta = at.state.eta
        cells = _probe(*args)
        self.record(at.step, train_accuracy, cells)
        if is_decide:
            self.moved = at.state.eta != eta

    def settle(self) -> bool:
        """Waits for the probe ahead and appends its record.  True when its
        decision moved a rate, and the cursor is then back at its step
        (where the probe's error, raised here, also puts it).  The live
        cursor still holds the rates the probe started from, since only a
        decision changes a rate."""
        ahead, self.ahead = self.ahead, None
        try:
            cells = ahead.cells.result()
        except NumericError:
            self.at = ahead.at
            raise
        self.record(ahead.at.step, ahead.train_accuracy, cells)
        moved = ahead.at.state.eta != self.at.state.eta
        if ahead.is_decide:
            self.moved = moved
        if moved:
            self.at = ahead.at
            task_i, epoch, i = self.where(self.at.step)
            self.batches = batches(self.base.inputs, self.at.labels, task_i, epoch, self.cfg.stream,
                                   first=i + 1)
        return moved

    def record(self, step: int, train_accuracy: float, cells: dict) -> None:
        task_i, epoch, _ = self.where(step)
        self.result.records.append(MetricRecord(self.seed, task_i, epoch, step, train_accuracy, **cells))


def _error_record(err: NumericError, *where) -> MetricRecord:
    """The record of an aborted step: ``where`` fills the leading scalar
    cells (seed, task, epoch, step), every other scalar cell is absent (NaN;
    0 products for ``lambda_iters``)."""
    flags = ["aborted:" + str(err).replace(",", ";").replace("\n", " ")]
    if err.layer_id is not None:
        flags.append(f"aborted_layer:{err.layer_id}")
    absent = {f: _ABSENT_CELL[_RECORD_TYPES[f]] for f in SCALAR_FIELDS[len(where) :]}
    return MetricRecord(*where, **absent, layers={}, flags=tuple(flags))


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
    write_text(path, format_log(records, layer_ids))


def write_text(path, text: str, mode: str = "w") -> None:
    """Write (or, at ``mode="a"``, append) ``text`` with ``\\n`` line ends on every platform."""
    with open(path, mode, newline="\n") as fh:
        fh.write(text)


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
