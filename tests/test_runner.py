import copy
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import trainlab.curvature as curvature_mod
import trainlab.nn as nn_mod
import trainlab.runner as runner_mod
from trainlab.cli import EXIT_NUMERIC, main
from trainlab.config import config_lines
from trainlab.errors import ConfigError, FormatError, NumericError
from trainlab.metrics import BoundConfig, push_and_stats
from trainlab.nn import Activation, Regularizer, loss_grad
from trainlab.optim import adam_step, init_adam
from trainlab.runner import (
    LayerMetrics,
    MetricRecord,
    ModelConfig,
    OptimConfig,
    RunConfig,
    format_log,
    log_columns,
    read_log,
    run_seed,
    summarize,
    write_log,
)
from trainlab.scheduler import ControllerConfig
from trainlab.tasks import StreamConfig, SyntheticSource

from conftest import make_batch, make_net, make_reg
from oracles import predict_lot


def tiny_config(**kw):
    mode = kw.pop("mode", "vanilla")
    controller = kw.pop("controller", None)
    if mode == "scheduled" and controller is None:
        controller = ControllerConfig(interval_k=kw.pop("interval_k", 2))
    stream = kw.pop(
        "stream",
        StreamConfig(
            source=SyntheticSource(n=64, d=6, classes=3, seed=0),
            subsample_n=48,
            tasks=2,
            epochs_per_task=2,
            batch_size=16,
            base_seed=5,
        ),
    )
    defaults = dict(
        stream=stream,
        model=ModelConfig(hidden_width=8, activation=Activation("relu")),
        optimizer=OptimConfig(eta=1e-3),
        bounds=BoundConfig(),
        controller=controller,
        mode=mode,
        log_interval=2,
        power_iters=8,
        seeds=(0,),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_scheduled_mode_requires_controller():
    base = tiny_config()
    with pytest.raises(ConfigError):
        RunConfig(
            stream=base.stream,
            model=base.model,
            optimizer=base.optimizer,
            bounds=base.bounds,
            controller=None,
            mode="scheduled",
        )


def test_vanilla_run_holds_eta_and_decisions():
    cfg = tiny_config()
    res = run_seed(cfg, seed=0)
    assert not res.aborted
    assert len(res.per_task_accuracy) == 2
    assert res.records, "expected records at the log interval"
    for rec in res.records:
        for lid, lm in rec.layers.items():
            assert lm.decision == "-"
            assert lm.eta == 1e-3
    # 2 tasks * 2 epochs * 3 steps = 12 steps, log every 2 -> 6 records
    assert len(res.records) == 6
    assert [r.step for r in res.records] == [2, 4, 6, 8, 10, 12]


def test_every_decision_is_logged():
    """A decision probe between log steps writes its record too."""
    cfg = tiny_config(mode="scheduled", interval_k=2, log_interval=4, power_iters=100)
    res = run_seed(cfg, seed=0)
    assert not res.aborted
    assert [r.step for r in res.records] == [2, 4, 6, 8, 10, 12]
    for rec in res.records:
        assert all(lm.decision != "-" for lm in rec.layers.values())


def test_reset_mode_replays_fresh_state():
    # ns=0 keeps labels identical across tasks; full-batch epochs make the
    # per-(task, epoch) shuffles differ only by summation order
    stream = StreamConfig(
        source=SyntheticSource(n=32, d=5, classes=3, seed=1),
        subsample_n=16,
        tasks=3,
        epochs_per_task=2,
        batch_size=16,
        randomize_frac=0.0,
        base_seed=9,
    )
    cfg = tiny_config(stream=stream, mode="reset", log_interval=1, power_iters=100)
    res = run_seed(cfg, seed=3)
    assert not res.aborted
    # first logged record of each task is at the task's first step (t=1 post-reset)
    firsts = [rec for rec in res.records if rec.step % 2 == 1]
    assert len(firsts) == 3
    base = firsts[0]
    for rec in firsts[1:]:
        for lid in rec.layers:
            assert rec.layers[lid].alpha == pytest.approx(base.layers[lid].alpha, rel=1e-12)
        # probe start vectors differ per step, so lambda agrees only to
        # power-iteration accuracy, not bitwise
        assert rec.lambda_max == pytest.approx(base.lambda_max, rel=1e-2)
    # optimizer state after the run reflects only the final task (2 epochs x 1 step)
    assert res.final_state.t == 2


def test_reset_mode_restores_moments_and_counter():
    cfg = tiny_config(mode="reset")
    res = run_seed(cfg, seed=0)
    # 12 total steps, 6 per task; reset at the final boundary leaves t = 6
    assert res.final_state.t == 6


def test_scheduled_forced_cooling_geometric_eta():
    # gamma ~ 0 forces cooling whenever alpha > 0.12 and the window is armed;
    # a large base LR keeps alpha far above the floor.  The eigensolve gets a
    # budget it converges within (6-11 products here), since a decision on an
    # unconverged probe holds every layer.
    controller = ControllerConfig(gamma=1e-9, interval_k=1)
    cfg = tiny_config(
        mode="scheduled",
        controller=controller,
        optimizer=OptimConfig(eta=0.05),
        log_interval=1,
        power_iters=100,
    )
    res = run_seed(cfg, seed=0)
    assert not res.aborted
    for rec in res.records:
        for lm in rec.layers.values():
            assert lm.alpha > 0.12
    # first decision is held (single window sample, unarmed); all later cooled
    labels = [rec.layers["fc1"].decision for rec in res.records]
    assert labels[0] == "held"
    assert all(lab == "cooled" for lab in labels[1:])
    etas = [rec.layers["fc1"].eta for rec in res.records]
    for prev, cur in zip(etas[1:], etas[2:]):
        assert cur == pytest.approx(0.99 * prev, rel=1e-15)


def test_probes_are_side_effect_free():
    probed = run_seed(tiny_config(log_interval=2), seed=4)
    silent = run_seed(tiny_config(log_interval=10**9), seed=4)
    assert silent.records == []
    np.testing.assert_array_equal(
        probed.final_params.to_vector(), silent.final_params.to_vector()
    )
    assert probed.final_state.t == silent.final_state.t


def test_run_determinism_byte_identical_logs():
    cfg = tiny_config(mode="scheduled", interval_k=2, seeds=(0,))
    a = run_seed(cfg, seed=0)
    b = run_seed(cfg, seed=0)
    assert format_log(a.records, a.layer_ids) == format_log(b.records, b.layer_ids)
    assert a.per_task_accuracy == b.per_task_accuracy


def test_numeric_abort_partial_log_other_seeds_continue(monkeypatch, tmp_path):
    real_step = runner_mod.adam_step
    tripped = {"done": False}

    def sabotaged(state, params, grads):
        if not tripped["done"] and state.t == 2:
            tripped["done"] = True
            raise NumericError("synthetic blow-up", layer_id="fc1")
        return real_step(state, params, grads)

    monkeypatch.setattr(runner_mod, "adam_step", sabotaged)
    cfg_path, out = tmp_path / "cfg.txt", tmp_path / "out"
    cfg_path.write_text("\n".join(config_lines(tiny_config(seeds=(0, 1)))))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_NUMERIC
    meta = (out / "meta.txt").read_text().splitlines()
    assert [ln for ln in meta if ln.startswith("aborted.")] == ["aborted.seed0=synthetic blow-up"]
    first, _ = read_log(out / "metrics_seed0.csv")
    assert first, "abort must leave an error record"
    last_flags = first[-1].flags
    assert any(f.startswith("aborted") for f in last_flags)
    assert "aborted_layer:fc1" in last_flags
    assert math.isnan(first[-1].train_accuracy)
    second, _ = read_log(out / "metrics_seed1.csv")
    assert not any(f.startswith("aborted") for rec in second for f in rec.flags)
    assert len((out / "accuracy_seed1.csv").read_text().splitlines()) == 1 + 2


def test_probe_abort_leaves_the_same_error_record(monkeypatch):
    def broken(*args, **kwargs):
        raise NumericError("probe blow-up", layer_id="fc2")

    monkeypatch.setattr(runner_mod, "top_eigenvalue", broken)
    cfg = tiny_config()
    res = run_seed(cfg, seed=0)
    assert res.aborted and res.abort_message == "probe blow-up"
    assert [r.step for r in res.records] == [cfg.log_interval]
    assert "aborted_layer:fc2" in res.records[0].flags
    assert res.final_state.t == cfg.log_interval  # the probed step was taken
    cells = format_log(res.records, res.layer_ids).splitlines()[1].split(",")
    assert cells[-9:-1] == ["nan"] * 6 + ["-", "0"]  # fc2's cells, then flags


def test_sharpness_unconverged_flag():
    short = run_seed(tiny_config(power_iters=1), seed=0)
    assert short.records
    assert all("sharpness_unconverged" in rec.flags for rec in short.records)
    converged = run_seed(tiny_config(power_iters=100), seed=0)
    assert converged.records
    assert not any("sharpness_unconverged" in rec.flags for rec in converged.records)


def test_unconverged_probe_holds_every_layer():
    """A one-product budget never converges, so the controller never acts:
    the same forced-cooling run as above holds every layer at every decision."""
    cfg = tiny_config(
        mode="scheduled",
        controller=ControllerConfig(gamma=1e-9, interval_k=1),
        optimizer=OptimConfig(eta=0.05),
        log_interval=1,
        power_iters=1,
    )
    res = run_seed(cfg, seed=0)
    assert not res.aborted and len(res.records) == 12
    for rec in res.records:
        assert "sharpness_unconverged" in rec.flags
        for lm in rec.layers.values():
            assert lm.decision == "held"
            assert lm.eta == 0.05
    assert res.final_state.eta == {"fc1": 0.05, "fc2": 0.05}


def test_warming_into_eta_max_is_flagged_clamped():
    """The controller warms a layer whose step sits far below its bound; at
    eta_max = eta that warming is clamped, and the record says so."""
    ctl = ControllerConfig(interval_k=2, warm_phase_frac=1.0, eta_max=1e-3)
    res = run_seed(tiny_config(mode="scheduled", controller=ctl, power_iters=100), seed=0)
    assert not res.aborted
    clamped = [rec for rec in res.records if "fc1:eta_clamped" in rec.flags]
    assert clamped
    for rec in clamped:
        assert rec.layers["fc1"].decision == "warmed" and rec.layers["fc1"].eta == 1e-3
    assert res.final_state.eta["fc1"] == 1e-3


def _probe_inputs(cfg, reg_kind="l2"):
    act = Activation("relu")
    params = make_net(6, 8, 3, act, seed=2)
    batch = make_batch(6, 3, 16, seed=2)
    reg = make_reg(reg_kind, params, perturb_seed=2)
    state = init_adam(params, cfg.optimizer.eta)
    adam_step(state, params, loss_grad(params, act, batch, reg).grads)
    return params, act, batch, reg, state


@pytest.mark.parametrize("reg_kind", ["l2", "wasserstein"])
def test_probe_makes_one_forward_pass_and_one_penalty_evaluation(monkeypatch, reg_kind):
    """The noise pass, the diagnostics and every product of the eigensolve
    read one sweep: a probe runs one forward pass and evaluates the penalty
    once, whatever the number of products."""
    cfg = tiny_config(power_iters=100)
    params, act, batch, reg, state = _probe_inputs(cfg, reg_kind)
    windows = runner_mod._fresh_windows(cfg, params.layer_ids())
    calls = dict.fromkeys(("_forward", "regularizer_penalty"), 0)
    products = []
    for name in calls:
        real = getattr(nn_mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        # every module that binds the name, so a pass made through any of them counts
        for mod in (nn_mod, curvature_mod, runner_mod):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    real_hvp = curvature_mod.hvp
    monkeypatch.setattr(
        curvature_mod, "hvp", lambda *a, **kw: products.append(1) or real_hvp(*a, **kw)
    )
    cells = runner_mod._probe(
        cfg, 0, 1, params, act, batch, reg, state, windows, is_decide=False, total_steps=1
    )
    assert "sharpness_unconverged" not in cells["flags"] and len(products) > 1
    assert calls == {"_forward": 1, "regularizer_penalty": 1}


def test_probe_at_zero_parameters_flags_the_ratio_undefined():
    cfg = tiny_config(power_iters=100)
    params, act, batch, reg, state = _probe_inputs(cfg)
    params.vector[...] = 0.0
    windows = runner_mod._fresh_windows(cfg, params.layer_ids())
    cells = runner_mod._probe(
        cfg, 0, 1, params, act, batch, reg, state, windows, is_decide=False, total_steps=1
    )
    assert "ratio_undefined" in cells["flags"]
    assert cells["weight_norm"] == 0.0 and cells["grad_param_ratio"] == 0.0


def test_unconverged_probe_adds_no_window_sample(monkeypatch):
    """A solve that ran out its budget leaves every window as it stands; the
    bounds then read an empty window as unarmed, with vol 0."""
    made = []

    def capture(cfg, layer_ids, _real=runner_mod._fresh_windows):
        made.append(_real(cfg, layer_ids))
        return made[-1]

    monkeypatch.setattr(runner_mod, "_fresh_windows", capture)
    res = run_seed(tiny_config(mode="scheduled", interval_k=2, power_iters=1), seed=0)
    assert not res.aborted and res.records and made
    for windows in made:
        for ws in windows.values():
            assert len(ws._queue) == 0 and ws.ema_mu is None
    for rec in res.records:
        assert "sharpness_unconverged" in rec.flags
        for lid, lm in rec.layers.items():
            assert lm.vol == 0.0 and f"{lid}:unarmed" in rec.flags

    cfg = tiny_config(power_iters=100)
    params, act, batch, reg, state = _probe_inputs(cfg)
    windows = made[-1]
    cells = runner_mod._probe(
        cfg, 0, 1, params, act, batch, reg, state, windows, is_decide=False, total_steps=1
    )
    assert "sharpness_unconverged" not in cells["flags"]
    assert all(len(ws._queue) == 1 for ws in windows.values())


def test_decision_leaves_the_probed_cells():
    """A decision that moves eta changes a record's eta and decision cells
    alone: every global cell (lambda_bar included, which reads eta) and every
    other per-layer cell is what the same probe gives off a decision step."""
    ctl = ControllerConfig(
        interval_k=1, gamma=1.0, abs_floor=0.0, warm_phase_frac=1.0, timid_frac=0.999
    )
    cfg = tiny_config(mode="scheduled", controller=ctl, power_iters=100)
    params, act, batch, reg, state = _probe_inputs(cfg)
    windows = runner_mod._fresh_windows(cfg, params.layer_ids())
    for ws in windows.values():  # one sample each, so the probe's own arms the window
        push_and_stats(ws, 1.0)
    state_off, windows_off = copy.deepcopy(state), copy.deepcopy(windows)
    probe_inputs = (cfg, 0, 1, params, act, batch, reg)
    on = runner_mod._probe(*probe_inputs, state, windows, is_decide=True, total_steps=100)
    off = runner_mod._probe(*probe_inputs, state_off, windows_off, is_decide=False, total_steps=100)
    assert state.eta != state_off.eta
    for name in runner_mod.SCALAR_FIELDS[runner_mod.SCALAR_FIELDS.index("lambda_max") :]:
        assert on[name] == off[name], name
    assert on["flags"] == off["flags"]
    for lid, lm in on["layers"].items():
        lm_off = off["layers"][lid]
        assert lm.decision in ("cooled", "warmed") and lm_off.decision == "-"
        assert lm.eta == state.eta[lid] and lm_off.eta == state_off.eta[lid]
        for name in runner_mod.LAYER_FIELDS:
            if name not in ("eta", "decision"):
                assert getattr(lm, name) == getattr(lm_off, name), (lid, name)


def test_bench_record_checks_pass_where_eta_moves(tmp_path):
    """The benchmark's bound and learning-rate checks hold on a scheduled log
    whose controller both cools and warms."""
    from conftest import load_bench_module

    checks = load_bench_module("checks")
    cfg = tiny_config(
        mode="scheduled",
        controller=ControllerConfig(interval_k=2, gamma=0.5, warm_phase_frac=0.5),
        stream=StreamConfig(
            source=SyntheticSource(n=64, d=6, classes=3, seed=0),
            subsample_n=64,
            tasks=3,
            epochs_per_task=20,
            batch_size=16,
            base_seed=0,
        ),
        optimizer=OptimConfig(eta=1e-2),
        power_iters=100,
    )
    res = run_seed(cfg, seed=0)
    assert not res.aborted
    path = tmp_path / "metrics.csv"
    write_log(res.records, res.layer_ids, path)
    rows = checks.read_log_rows(path)
    decisions = [row[f"{lid}.decision"] for row in rows for lid in res.layer_ids]
    assert "cooled" in decisions and "warmed" in decisions
    got = checks.record_checks(cfg, cfg.stream.subsample_n, res.layer_ids, rows)
    failed = [c for c in got if not c.ok]
    assert len(got) > 4 * len(rows) and not failed, failed[:3]


def test_materialized_per_sample_oracle_is_off_the_run_path(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("the per-sample oracle ran inside a run")

    for name in ("per_sample_grads", "mean_params", "minibatch_grad_variance", "forward"):
        monkeypatch.setattr(runner_mod, name, oracle)
    res = run_seed(tiny_config(mode="scheduled", interval_k=2), seed=0)
    assert not res.aborted and len(res.records) == 6


def test_probe_holds_no_per_sample_gradient_tensor():
    """A probe's peak allocation stays far below one B x n_params buffer."""
    act = Activation("relu")
    params = make_net(200, 64, 10, act, seed=1)
    batch = make_batch(200, 10, 128, seed=1)
    reg = Regularizer("l2", 1e-3)
    cfg = tiny_config(power_iters=5)
    state = init_adam(params, cfg.optimizer.eta)
    adam_step(state, params, loss_grad(params, act, batch, reg).grads)
    windows = runner_mod._fresh_windows(cfg, params.layer_ids())
    one_buffer = batch.size * params.n_params * 8
    tracemalloc.start()
    try:
        runner_mod._probe(
            cfg, 0, 1, params, act, batch, reg, state, windows, is_decide=False, total_steps=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"probe peak {peak / 1e6:.2f} MB, one B x n_params buffer {one_buffer / 1e6:.2f} MB")
    assert peak < one_buffer / 4


def test_tracing_spans_resolve():
    """Every function the benchmark's tracer patches is still looked up by
    that name in that module, so a traced benchmark run can install it."""
    import importlib

    from conftest import load_bench_module

    for module_name, name, _metric in load_bench_module("tracing").SPANS:
        assert callable(getattr(importlib.import_module(module_name), name, None)), (
            f"{module_name}.{name}"
        )


# ---------------------------------------------------------------------------
# log serialization


def test_log_write_read_roundtrip(tmp_path):
    cfg = tiny_config(mode="scheduled", interval_k=2)
    res = run_seed(cfg, seed=1)
    path = tmp_path / "metrics.csv"
    write_log(res.records, res.layer_ids, path)
    back, layer_ids = read_log(path)
    assert layer_ids == res.layer_ids
    assert len(back) == len(res.records)
    for rec, got in zip(res.records, back):
        assert got.step == rec.step
        assert got.lambda_max == rec.lambda_max  # 17 sig digits round-trip exactly
        for lid, lm in rec.layers.items():
            assert got.layers[lid].alpha == lm.alpha
            assert got.layers[lid].eta == lm.eta
            assert got.layers[lid].crossed == lm.crossed
            assert got.layers[lid].decision == lm.decision
    assert back == res.records


@pytest.mark.parametrize(
    "mode, eta",
    [("vanilla", 1e-3), ("reset", 1e-3), ("scheduled", 1e-3), ("vanilla", 1e308)],
    ids=["vanilla", "reset", "scheduled", "aborted"],
)
def test_read_log_reads_back_the_bytes_format_log_wrote(tmp_path, mode, eta):
    """``format_log(*read_log(p))`` is the log at ``p``, byte for byte, for
    each run mode and for an aborted run's NaN cells, absent layers and
    abort flags."""
    res = run_seed(tiny_config(mode=mode, optimizer=OptimConfig(eta=eta)), seed=1)
    assert res.aborted == (eta == 1e308)
    path = tmp_path / "metrics.csv"
    write_log(res.records, res.layer_ids, path)
    records, layer_ids = read_log(path)
    assert format_log(records, layer_ids).encode() == path.read_bytes()
    if res.aborted:
        [rec] = records
        assert math.isnan(rec.train_accuracy) and rec.flags[0].startswith("aborted:")
        assert any(f.startswith("aborted_layer:") for f in rec.flags)
        assert all(lm.decision == "-" and math.isnan(lm.alpha) for lm in rec.layers.values())


def test_log_header_is_the_record_schema():
    """The derived column tables spell the header as it has always been."""
    assert ",".join(log_columns(["fc1"])) == (
        "seed,task,epoch,step,train_accuracy,lambda_max,lambda_bar,sigma_mb_sq,weight_norm,"
        "grad_norm,grad_param_ratio,use,fc1.alpha,fc1.alpha_g_star,fc1.alpha_vol_star,"
        "fc1.alpha_tilde_star,fc1.vol,fc1.eta,fc1.decision,fc1.crossed,flags"
    )


# one fc1 record, as log cells by column
GOOD_CELLS = dict(
    zip(
        log_columns(["fc1"]),
        "3,0,1,7,0.25,2,1.5,0.125,4,0.5,0.5,0.5,2,3,4,3,0.75,0.001,held,1,-".split(","),
    )
)


def write_cells(path, *rows):
    path.write_text("\n".join([",".join(GOOD_CELLS), *(",".join(row.values()) for row in rows)]) + "\n")


def test_read_log_types_cells_by_field_and_rejects_unknown_columns(tmp_path):
    path = tmp_path / "metrics.csv"
    write_cells(path, GOOD_CELLS)
    records, layer_ids = read_log(path)
    assert layer_ids == ["fc1"]
    scalars = dict(seed=3, task=0, epoch=1, step=7, train_accuracy=0.25, lambda_max=2.0, lambda_bar=1.5,
                   sigma_mb_sq=0.125, weight_norm=4.0, grad_norm=0.5, grad_param_ratio=0.5, use=0.5)
    fc1 = LayerMetrics(2.0, 3.0, 4.0, 3.0, 0.75, 0.001, "held", True)
    assert records == [MetricRecord(**scalars, layers={"fc1": fc1}, flags=())]
    assert [type(getattr(records[0], f)) for f in scalars] == [int] * 4 + [float] * 8
    assert [type(v) for v in vars(records[0].layers["fc1"]).values()] == [float] * 6 + [str, bool]
    path.write_text(",".join(GOOD_CELLS).replace("fc1.vol", "fc1.bogus") + "\n")
    with pytest.raises(FormatError, match="header column 17 is 'fc1.bogus', expected 'fc1.vol'"):
        read_log(path)


def test_read_log_rejects_an_empty_file_and_a_short_line(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("")
    with pytest.raises(FormatError, match="empty metric log"):
        read_log(path)
    short = dict(list(GOOD_CELLS.items())[:-1])
    write_cells(path, GOOD_CELLS, short)
    with pytest.raises(FormatError, match="line 3 has 20 fields, expected 21"):
        read_log(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (log_columns([]), "the header has no layer columns"),
        (log_columns(["fc1", "fc2"])[:-1], "header column 29 is None, expected 'flags'"),
        (log_columns(["fc1"]) + ["extra"], "header column 22 is 'extra', expected None"),
    ],
    ids=["schema_no_layers", "no_flags_with_layers", "extra_column"],
)
def test_read_log_rejects_a_header_that_is_not_the_log_schema(tmp_path, header, message):
    """Beside the headers the CLI test refuses: every scalar column but no
    layer, layer columns but no flags, and one column past the flags."""
    path = tmp_path / "metrics.csv"
    path.write_text(",".join(header) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_log(path)


@pytest.mark.parametrize(
    "column, cell", [("use", "abc"), ("step", "7.5"), ("fc1.crossed", "yes")]
)
def test_read_log_names_the_line_and_column_of_an_unparsable_cell(tmp_path, column, cell):
    path = tmp_path / "metrics.csv"
    write_cells(path, GOOD_CELLS, {}, dict(GOOD_CELLS, **{column: cell}))
    with pytest.raises(FormatError, match=f"line 4, column '{column}': cannot parse '{cell}'"):
        read_log(path)


def test_write_log_byte_identical(tmp_path):
    cfg = tiny_config()
    res = run_seed(cfg, seed=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log(res.records, res.layer_ids, p1)
    write_log(run_seed(cfg, seed=2).records, res.layer_ids, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# summarize


def make_record(task, epoch, step, acc, crossed, flags=()):
    """A record of ``task`` with one layer per ``crossed`` entry (layer id to crossed)."""
    layers = {lid: LayerMetrics(0.1, 0.2, 0.2, 0.2, 0.0, 1e-3, "-", c) for lid, c in crossed.items()}
    return MetricRecord(0, task, epoch, step, acc, *[0.0] * 7, layers=layers, flags=flags)


def synthetic_records(crossed_pattern, accs, layer_ids=("fc1",)):
    """Records as read_log returns them: one task per accs entry."""
    records = []
    step = 0
    for task, (acc, crossings) in enumerate(zip(accs, crossed_pattern)):
        for epoch, crossed in enumerate(crossings):
            step += 1
            records.append(make_record(task, epoch, step, acc, dict.fromkeys(layer_ids, bool(crossed))))
    return records


def test_summarize_hand_counts():
    records = synthetic_records(
        crossed_pattern=[[0, 0, 1], [1, 1, 0], [0, 0, 0]],
        accs=[0.9, 0.6, 0.3],
    )
    s = summarize(records, ["fc1"])
    assert [t.crossing_fraction for t in s.per_task] == [
        pytest.approx(1 / 3),
        pytest.approx(2 / 3),
        0.0,
    ]
    assert s.rho_hat == pytest.approx(3 / 9)
    assert not s.scale_degenerate
    # min-max scaling maps the fraction range onto the accuracy range
    scaled = [t.scaled_prediction for t in s.per_task]
    assert min(scaled) == pytest.approx(0.3)
    assert max(scaled) == pytest.approx(0.9)


def test_summarize_zero_crossings():
    records = synthetic_records([[0, 0], [0, 0]], accs=[0.8, 0.5])
    s = summarize(records, ["fc1"])
    assert all(t.crossing_fraction == 0.0 for t in s.per_task)
    assert s.rho_hat == 0.0
    assert s.scale_degenerate  # flat prediction series cannot be range-scaled


def test_summarize_constant_accuracy_degenerate():
    records = synthetic_records([[1, 0], [0, 1]], accs=[0.5, 0.5])
    s = summarize(records, ["fc1"])
    assert s.scale_degenerate
    assert all(t.scaled_prediction == pytest.approx(0.5) for t in s.per_task)


def test_summarize_uses_final_epoch_accuracy():
    first, final = synthetic_records([[0, 0]], accs=[0.0])
    records = [replace(first, train_accuracy=0.2), replace(final, train_accuracy=0.8)]  # epochs 0, 1
    s = summarize(records, ["fc1"])
    assert s.per_task[0].accuracy == pytest.approx(0.8)


def test_summarize_skips_aborted_records():
    records = synthetic_records([[1, 0], [0, 0]], accs=[0.7, 0.4])
    records.append(replace(records[-1], flags=("aborted:boom",), train_accuracy=float("nan")))
    s = summarize(records, ["fc1"])
    assert len(s.per_task) == 2
    assert not math.isnan(s.per_task[-1].accuracy)


def test_summarize_matches_predict_lot_on_criterion_13_pattern():
    """Acceptance criterion 13 plants 3 tasks x 4 records of crossings and
    checks the window-chunked oracle; ``summarize``, which groups a log's
    records by their task column, gives the same fractions and rho_hat."""
    flags = [
        {"fc1": False, "fc2": False}, {"fc1": True, "fc2": False},
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},  # task 0: 1/4
        {"fc1": False, "fc2": True}, {"fc1": True, "fc2": True},
        {"fc1": False, "fc2": False}, {"fc1": True, "fc2": False},  # task 1: 3/4
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},
        {"fc1": False, "fc2": False}, {"fc1": False, "fc2": False},  # task 2: 0/4
    ]
    records = [make_record(i // 4, i % 4, i + 1, 0.5, f) for i, f in enumerate(flags)]
    s = summarize(records, ["fc1", "fc2"])
    want = predict_lot(flags, window=4)
    assert want.per_task == [0.25, 0.75, 0.0]
    assert [t.crossing_fraction for t in s.per_task] == want.per_task
    assert s.rho_hat == want.rho_hat == 4 / 12


def test_summarize_rejects_a_log_of_aborted_records_only():
    records = [replace(r, flags=("aborted:boom",)) for r in synthetic_records([[1, 0]], accs=[0.7])]
    with pytest.raises(ConfigError, match="no usable records"):
        summarize(records, ["fc1"])
