import copy
import math
import tracemalloc

import numpy as np
import pytest

import trainlab.curvature as curvature_mod
import trainlab.nn as nn_mod
import trainlab.runner as runner_mod
from trainlab.errors import ConfigError, NumericError
from trainlab.metrics import BoundConfig, push_and_stats
from trainlab.nn import Activation, Regularizer, loss_grad
from trainlab.optim import adam_step, init_adam
from trainlab.runner import (
    ModelConfig,
    OptimConfig,
    RunConfig,
    format_log,
    log_columns,
    read_log,
    run,
    run_seed,
    summarize,
    write_log,
)
from trainlab.scheduler import ControllerConfig
from trainlab.tasks import StreamConfig, SyntheticSource

from conftest import make_batch, make_net, make_reg


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
    a = run(cfg)
    b = run(cfg)
    log_a = format_log(a.seed_results[0].records, a.seed_results[0].layer_ids)
    log_b = format_log(b.seed_results[0].records, b.seed_results[0].layer_ids)
    assert log_a == log_b
    assert a.seed_results[0].per_task_accuracy == b.seed_results[0].per_task_accuracy


def test_numeric_abort_partial_log_other_seeds_continue(monkeypatch):
    real_step = runner_mod.adam_step
    tripped = {"done": False}

    def sabotaged(state, params, grads):
        if not tripped["done"] and state.t == 2:
            tripped["done"] = True
            raise NumericError("synthetic blow-up", layer_id="fc1")
        return real_step(state, params, grads)

    monkeypatch.setattr(runner_mod, "adam_step", sabotaged)
    cfg = tiny_config(seeds=(0, 1))
    res = run(cfg)
    first, second = res.seed_results
    assert first.aborted and not second.aborted
    assert res.aborted
    assert first.abort_message == "synthetic blow-up"
    assert first.records, "abort must leave an error record"
    last = first.records[-1]
    assert any(f.startswith("aborted") for f in last.flags)
    assert any(f == "aborted_layer:fc1" for f in last.flags)
    assert math.isnan(last.train_accuracy)
    assert len(second.per_task_accuracy) == 2


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
    rows, layer_ids = read_log(path)
    assert layer_ids == res.layer_ids
    assert len(rows) == len(res.records)
    for rec, row in zip(res.records, rows):
        assert row["step"] == rec.step
        assert row["lambda_max"] == rec.lambda_max  # 17 sig digits round-trip exactly
        for lid, lm in rec.layers.items():
            assert row[f"{lid}.alpha"] == lm.alpha
            assert row[f"{lid}.eta"] == lm.eta
            assert row[f"{lid}.crossed"] == lm.crossed
            assert row[f"{lid}.decision"] == lm.decision


def test_log_header_is_the_record_schema():
    """The derived column tables spell the header as it has always been."""
    assert ",".join(log_columns(["fc1"])) == (
        "seed,task,epoch,step,train_accuracy,lambda_max,lambda_bar,sigma_mb_sq,weight_norm,"
        "grad_norm,grad_param_ratio,use,fc1.alpha,fc1.alpha_g_star,fc1.alpha_vol_star,"
        "fc1.alpha_tilde_star,fc1.vol,fc1.eta,fc1.decision,fc1.crossed,flags"
    )


def test_read_log_types_cells_by_field_and_rejects_unknown_columns(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("seed,step,use,fc1.alpha,fc1.decision,fc1.crossed,flags\n3,7,0.5,2,held,1,-\n")
    rows, layer_ids = read_log(path)
    assert layer_ids == ["fc1"]
    want = {"seed": 3, "step": 7, "use": 0.5, "fc1.alpha": 2.0, "fc1.decision": "held"}
    assert rows == [dict(want, **{"fc1.crossed": True, "flags": "-"})]
    assert [type(v) for v in rows[0].values()] == [int, int, float, float, str, bool, str]
    path.write_text("seed,fc1.alpha,fc1.bogus,flags\n3,2,0.5,-\n")
    with pytest.raises(ConfigError, match="fc1.bogus"):
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


def synthetic_rows(crossed_pattern, accs, layer_ids=("fc1",)):
    """Rows shaped like read_log output: one task per accs entry."""
    rows = []
    step = 0
    for task, (acc, crossings) in enumerate(zip(accs, crossed_pattern)):
        for epoch, crossed in enumerate(crossings):
            step += 1
            row = {
                "seed": 0,
                "task": task,
                "epoch": epoch,
                "step": step,
                "train_accuracy": acc,
                "flags": "-",
            }
            for lid in layer_ids:
                row[f"{lid}.crossed"] = bool(crossed)
                row[f"{lid}.alpha"] = 0.1
                row[f"{lid}.alpha_tilde_star"] = 0.2
            rows.append(row)
    return rows


def test_summarize_hand_counts():
    rows = synthetic_rows(
        crossed_pattern=[[0, 0, 1], [1, 1, 0], [0, 0, 0]],
        accs=[0.9, 0.6, 0.3],
    )
    s = summarize(rows, ["fc1"])
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
    rows = synthetic_rows([[0, 0], [0, 0]], accs=[0.8, 0.5])
    s = summarize(rows, ["fc1"])
    assert all(t.crossing_fraction == 0.0 for t in s.per_task)
    assert s.rho_hat == 0.0
    assert s.scale_degenerate  # flat prediction series cannot be range-scaled


def test_summarize_constant_accuracy_degenerate():
    rows = synthetic_rows([[1, 0], [0, 1]], accs=[0.5, 0.5])
    s = summarize(rows, ["fc1"])
    assert s.scale_degenerate
    assert all(t.scaled_prediction == pytest.approx(0.5) for t in s.per_task)


def test_summarize_uses_final_epoch_accuracy():
    rows = synthetic_rows([[0, 0]], accs=[0.0])
    rows[0]["train_accuracy"] = 0.2  # epoch 0
    rows[1]["train_accuracy"] = 0.8  # epoch 1 (final)
    s = summarize(rows, ["fc1"])
    assert s.per_task[0].accuracy == pytest.approx(0.8)


def test_summarize_skips_aborted_records():
    rows = synthetic_rows([[1, 0], [0, 0]], accs=[0.7, 0.4])
    rows.append(dict(rows[-1], flags="aborted:boom", train_accuracy=float("nan")))
    s = summarize(rows, ["fc1"])
    assert len(s.per_task) == 2
    assert not math.isnan(s.per_task[-1].accuracy)
