import concurrent.futures
import copy
import math
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import trainlab.curvature as curvature_mod
import trainlab.nn as nn_mod
import trainlab.runner as runner_mod
from trainlab.cli import EXIT_NUMERIC, main
from trainlab.config import build_run_config, config_lines, parse_config_text
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

from conftest import REPO, make_batch, make_net, make_reg
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


@pytest.mark.slow
def test_desk_lot_stream_loses_trainability():
    """Seed 0 of configs/desk_lot.txt: vanilla's mean final-epoch accuracy
    over tasks 35-39 is at least 0.05 below its mean over tasks 0-4, and
    reset's is not, so what vanilla loses is trainability, not capacity.
    Scheduled mode is not asserted on; README reports it."""
    values = parse_config_text((REPO / "configs" / "desk_lot.txt").read_text())
    drops = {}
    for mode in ("vanilla", "reset"):
        acc = run_seed(build_run_config({**values, "mode": mode}), seed=0).per_task_accuracy
        assert len(acc) == 40
        drops[mode] = float(np.mean(acc[:5]) - np.mean(acc[35:]))
    print(f"desk_lot seed 0, tasks 0-4 -> 35-39 drop: vanilla {drops['vanilla']:.3f}, "
          f"reset {drops['reset']:.3f}")
    assert drops["vanilla"] >= 0.05
    assert drops["reset"] < 0.05


def test_numeric_abort_partial_log_other_seeds_continue(monkeypatch, tmp_path):
    real_step = runner_mod.adam_step
    tripped = {"done": False}

    def sabotaged(state, params, grads, worker=None):
        if not tripped["done"] and state.t == 2:
            tripped["done"] = True
            raise NumericError("synthetic blow-up", layer_id="fc1")
        return real_step(state, params, grads, worker)

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
    assert cells[-10:-1] == ["nan"] * 7 + ["-", "0"]  # fc2's cells, then flags


def test_sharpness_unconverged_flag():
    short = run_seed(tiny_config(power_iters=1), seed=0)
    assert short.records
    assert all("sharpness_unconverged" in rec.flags for rec in short.records)
    converged = run_seed(tiny_config(power_iters=100), seed=0)
    assert converged.records
    assert not any("sharpness_unconverged" in rec.flags for rec in converged.records)


def test_lambda_iters_counts_the_products_of_each_probe(monkeypatch):
    """Each record's ``lambda_iters`` is the number of ``curvature.hvp`` calls
    its probe made, and a solve that ran out its budget reads the budget."""
    counts = []
    real_eig, real_hvp = runner_mod.top_eigenvalue, curvature_mod.hvp

    def counting_eig(*args, **kwargs):
        counts.append(0)
        return real_eig(*args, **kwargs)

    def counting_hvp(*args, **kwargs):
        counts[-1] += 1
        return real_hvp(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "top_eigenvalue", counting_eig)
    monkeypatch.setattr(curvature_mod, "hvp", counting_hvp)
    converged = unconverged = 0
    for power_iters in (8, 100):
        counts.clear()
        res = run_seed(tiny_config(power_iters=power_iters), seed=0)
        assert [rec.lambda_iters for rec in res.records] == counts
        for rec in res.records:
            assert rec.lambda_residual >= 0.0
            if "sharpness_unconverged" in rec.flags:
                unconverged += 1
                assert rec.lambda_iters == power_iters and rec.lambda_residual > 0.0
            else:
                converged += 1
                assert 1 <= rec.lambda_iters <= power_iters
    assert converged and unconverged


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


def wide_config(**kw):
    """A 2-task L2 run whose first layer holds nn.WIDE weights (512 -> 128) on
    128-row batches, so that its wide passes split across the seed's worker."""
    stream = StreamConfig(source=SyntheticSource(n=256, d=512, classes=10, seed=0), subsample_n=256,
                          tasks=2, epochs_per_task=2, batch_size=128, base_seed=5)
    model = ModelConfig(hidden_width=128, activation=Activation("relu"), regularizer="l2", reg_lambda=1e-3)
    return tiny_config(stream=stream, model=model, **kw)


def _one_blas_thread(monkeypatch, value="1"):
    """Every BLAS thread variable set to ``value`` (deleted for None), as
    ``runner.one_blas_thread`` reads them."""
    for var in runner_mod.BLAS_THREAD_VARS:
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


def _recording_hand_offs(monkeypatch):
    """Each job handed to a worker, as (its function's name, the thread it ran on)."""
    jobs = []
    real = nn_mod.hand_off

    def recording(worker, fn, *args):
        def job(*args):
            jobs.append((fn.__qualname__, threading.current_thread()))
            return fn(*args)

        return real(worker, job, *args)

    monkeypatch.setattr(nn_mod, "hand_off", recording)
    monkeypatch.setattr(runner_mod, "hand_off", recording)
    return jobs


@pytest.mark.parametrize("case", ["completed", "aborted", "wide-completed", "wide-aborted", "ahead-completed",
                                  "ahead-step-aborted", "ahead-probe-aborted"])
def test_run_seed_leaves_no_thread_behind(monkeypatch, case):
    """At one BLAS thread half of a wide L2 seed's training passes, Adam's
    update among them, run on a thread of its own, as do a narrow seed's
    probes, Wasserstein or L2; the seed closes that thread when it ends,
    also when it aborts, and also when it aborts with a probe in flight,
    whether the probe or the step raised.  Every training step makes its
    penalty on the seed's own thread, and a probe hands no work off, so a
    Wasserstein seed's probe makes its one penalty on the thread it runs
    on."""
    penalty_threads = []
    real = nn_mod.regularizer_penalty

    def recording(*args, **kwargs):
        penalty_threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(nn_mod, "regularizer_penalty", recording)
    jobs = _recording_hand_offs(monkeypatch)
    eta = 1e308 if case in ("aborted", "wide-aborted") else 1e-3
    if case.startswith("wide"):
        _one_blas_thread(monkeypatch)
        cfg = wide_config(optimizer=OptimConfig(eta=eta))
    elif case.startswith("ahead"):
        _one_blas_thread(monkeypatch)
        cfg = tiny_config(model=ModelConfig(hidden_width=8, regularizer="l2", reg_lambda=1e-3))
        real_eig, real_step, in_flight = runner_mod.top_eigenvalue, runner_mod.adam_step, threading.Event()

        def held_eig(*args, **kwargs):  # the probe at step 2 runs on once step 3 has begun
            in_flight.wait(10)
            if case == "ahead-probe-aborted":
                raise NumericError("probe blow-up")
            return real_eig(*args, **kwargs)

        def step_3_raises(state, params, grads, worker=None):
            if state.t == 2:
                in_flight.set()
                if case == "ahead-step-aborted":
                    raise NumericError("step blow-up")
            return real_step(state, params, grads, worker)

        monkeypatch.setattr(runner_mod, "top_eigenvalue", held_eig)
        monkeypatch.setattr(runner_mod, "adam_step", step_3_raises)
    else:
        _one_blas_thread(monkeypatch)
        model = ModelConfig(hidden_width=8, activation=Activation("crelu"), regularizer="wasserstein",
                            reg_lambda=1e-2)
        cfg = tiny_config(model=model, optimizer=OptimConfig(eta=eta))
    before = threading.enumerate()
    res = run_seed(cfg, seed=0)
    assert res.aborted == case.endswith("aborted")
    names, threads = {name for name, _ in jobs}, {thread for _, thread in jobs}
    if case.startswith("wide"):
        assert "adam_step.<locals>.update" in names and "_matmul.<locals>.<lambda>" in names
        assert threads and threading.main_thread() not in threads
    elif case.startswith("ahead"):
        assert names == {"_probe"} and threading.main_thread() not in threads
        if case != "ahead-completed":
            assert res.abort_message == case.split("-")[1] + " blow-up"
            assert [r.step for r in res.records] == [2] + [3] * (case == "ahead-step-aborted")
    else:  # the aborted seed aborts at step 2, before any probe
        assert names == ({"_probe"} if case == "completed" else set())
        assert threading.main_thread() not in threads
        off_main = [t for t in penalty_threads if t is not threading.main_thread()]
        assert off_main == [thread for _, thread in jobs]
        assert len(penalty_threads) > len(off_main)
    assert threading.enumerate() == before


@pytest.mark.parametrize("blas", [None, "1", "2"], ids=["unset", "one", "two"])
@pytest.mark.parametrize("reg_kind", ["l2", "wasserstein", "wide"])
def test_run_seed_splits_only_at_one_blas_thread(monkeypatch, blas, reg_kind):
    """Each pass of a training step gets the seed's worker at one BLAS thread
    alone (more BLAS threads take the free core), and only in a wide seed,
    for its halves; a Wasserstein seed's pass makes its penalty inline.  The
    worker takes a narrow seed's probes at one BLAS thread instead, and
    every pass then runs inline; at any other BLAS setting it takes
    nothing."""
    _one_blas_thread(monkeypatch, blas)
    jobs = _recording_hand_offs(monkeypatch)
    got = {}
    for name in ("loss_grad", "adam_step"):
        real = getattr(runner_mod, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            worker = kwargs["worker"] if "worker" in kwargs else args[-1]
            on_main = threading.current_thread() is threading.main_thread()
            got.setdefault(_name, set()).add((worker is not None, on_main))
            return _real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, name, recording)
    if reg_kind == "wide":
        cfg = wide_config(mode="scheduled")
    else:
        model = ModelConfig(hidden_width=8, activation=Activation("relu"), regularizer=reg_kind,
                            reg_lambda=1e-2)
        cfg = tiny_config(model=model, mode="scheduled")
    run_seed(cfg, seed=0)
    splits = blas == "1" and reg_kind == "wide"
    assert got["loss_grad"] == {(splits, True)}
    assert got["adam_step"] == {(splits, True)}
    if blas != "1":
        assert jobs == []
    elif not splits:
        assert {name for name, _ in jobs} == {"_probe"}


@pytest.mark.parametrize("reg_kind", ["wasserstein", "wide", "l2"])
def test_a_probe_hands_no_work_off(monkeypatch, reg_kind):
    """At one BLAS thread a seed's worker takes its wide halves or, in a
    narrow seed, Wasserstein or L2, its probes and nothing else; no probe
    hands work off, whether it runs inline on the seed's thread or ahead on
    the worker."""
    _one_blas_thread(monkeypatch)
    inside = threading.local()
    real_probe, real_hand_off = runner_mod._probe, nn_mod.hand_off
    probe_threads, from_probe = [], []

    def probe(*args, **kwargs):
        probe_threads.append(threading.current_thread())
        inside.probe = True
        try:
            return real_probe(*args, **kwargs)
        finally:
            inside.probe = False

    def hand_off(worker, fn, *args):
        from_probe.append(getattr(inside, "probe", False))
        return real_hand_off(worker, fn, *args)

    monkeypatch.setattr(runner_mod, "_probe", probe)
    for mod in (nn_mod, runner_mod):
        monkeypatch.setattr(mod, "hand_off", hand_off)
    if reg_kind == "wide":
        cfg = wide_config(mode="scheduled")
    else:
        act = Activation("crelu" if reg_kind == "wasserstein" else "relu")
        model = ModelConfig(hidden_width=8, activation=act, regularizer=reg_kind, reg_lambda=1e-2)
        cfg = tiny_config(model=model, mode="scheduled")
    res = run_seed(cfg, seed=0)
    assert not res.aborted and len(probe_threads) == len(res.records)
    assert from_probe and not any(from_probe)
    on_worker = {thread is not threading.main_thread() for thread in probe_threads}
    assert on_worker == ({False} if reg_kind == "wide" else {False, True})


def test_the_training_sweep_is_freed_before_an_inline_probe(monkeypatch):
    """A step drops its ``Sweep`` once Adam and the accuracy have read it,
    so an inline probe's own pass is never alive beside it, which would add
    a second sweep to the peak memory."""
    _one_blas_thread(monkeypatch, None)  # no worker: every probe runs inline
    real_loss_grad, real_probe = runner_mod.loss_grad, runner_mod._probe
    sweeps, alive = [], []

    def tracked_loss_grad(*args, **kwargs):
        sw = real_loss_grad(*args, **kwargs)
        sweeps.append(weakref.ref(sw))
        return sw

    def probe(*args, **kwargs):
        alive.append(sweeps[-1]() is not None)
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "loss_grad", tracked_loss_grad)
    monkeypatch.setattr(runner_mod, "_probe", probe)
    res = run_seed(tiny_config(mode="scheduled", interval_k=2), seed=0)
    assert not res.aborted and len(alive) == len(res.records) > 0
    assert not any(alive)


@pytest.mark.parametrize("env, expected", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": " 1 "}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OPENBLAS_NUM_THREADS": ""}, False),
])
def test_one_blas_thread_reads_every_blas_thread_variable(monkeypatch, env, expected):
    _one_blas_thread(monkeypatch, None)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert runner_mod.one_blas_thread() == expected


def test_a_wide_run_logs_the_bytes_of_an_unsplit_one(monkeypatch, tmp_path):
    """A wide scheduled L2 run hands work to its worker and writes the log, to
    the byte, that the same run writes with nn.WIDE out of reach (no split)."""
    _one_blas_thread(monkeypatch)
    cfg = wide_config(mode="scheduled", interval_k=2)
    jobs = _recording_hand_offs(monkeypatch)
    logs, final = [], []
    for wide in (nn_mod.WIDE, 2**62):
        monkeypatch.setattr(nn_mod, "WIDE", wide)
        jobs.clear()
        res = run_seed(cfg, seed=0)
        assert not res.aborted and bool(jobs) == (wide == 2**16)
        path = tmp_path / f"metrics_{wide}.csv"
        write_log(res.records, res.layer_ids, path)
        logs.append(path.read_bytes())
        final.append(res.final_params.vector.tobytes() + res.final_state.v.vector.tobytes())
    assert logs[0] == logs[1] and final[0] == final[1]


# ---------------------------------------------------------------------------
# probes run ahead on the worker


class _EagerExecutor:
    """Runs each job at ``submit``: every probe is settled before the next
    step, so no step runs ahead of one."""

    def __init__(self, max_workers=1):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as err:
            future.set_exception(err)
        return future


class _LazyFuture:
    """A job that runs only when its result or its exception is asked for."""

    def __init__(self, fn, args):
        self._job = lambda: fn(*args)
        self._outcome = None  # (result, exception) once run

    def done(self):
        return self._outcome is not None

    def exception(self):
        if self._outcome is None:
            try:
                self._outcome = (self._job(), None)
            except BaseException as err:
                self._outcome = (None, err)
        return self._outcome[1]

    def result(self):
        err = self.exception()
        if err is not None:
            raise err
        return self._outcome[0]


class _LazyExecutor(_EagerExecutor):
    """Runs each job only when its ``result()`` is called, so the seed runs
    ahead to the next probe every time, and each moved decision rewinds."""

    def submit(self, fn, *args):
        return _LazyFuture(fn, args)


EXECUTORS = {"eager": _EagerExecutor, "lazy": _LazyExecutor, "real": concurrent.futures.ThreadPoolExecutor}
# the reference: with the BLAS threads unset every probe runs inline, and the executor takes no job
INLINE = None


def _long_config(**kw):
    """``tiny_config`` over 2 tasks of 6 epochs (36 steps)."""
    stream = StreamConfig(source=SyntheticSource(n=64, d=6, classes=3, seed=0), subsample_n=48, tasks=2,
                          epochs_per_task=6, batch_size=16, base_seed=5)
    return tiny_config(stream=stream, **kw)


def _outcome(monkeypatch, cfg, executor, seed=0):
    """A run of ``cfg`` at one BLAS thread with ``executor`` as the seed's
    worker (``INLINE``: with the BLAS threads unset): its log bytes, task
    accuracies, final parameters, Adam state and abort message, and the
    training steps it took, replays included."""
    _one_blas_thread(monkeypatch, None if executor is INLINE else "1")
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", executor or _EagerExecutor)
    real_step, steps = runner_mod.adam_step, []

    def counting(*args):
        steps.append(1)
        return real_step(*args)

    with monkeypatch.context() as patch:
        patch.setattr(runner_mod, "adam_step", counting)
        res = run_seed(cfg, seed)
    return _bytes_of(res), len(steps)


def _bytes_of(res):
    """A seed's log bytes, task accuracies, final parameters, Adam state and abort message."""
    st = res.final_state
    return (format_log(res.records, res.layer_ids), np.array(res.per_task_accuracy).tobytes(),
            res.final_params.vector.tobytes(), st.m.vector.tobytes(), st.v.vector.tobytes(), st.t, st.eta,
            res.abort_message)


def _outcomes(monkeypatch, cfg):
    """``_outcome`` inline and with each executor; each one's outcome and step count."""
    runs = {"inline": INLINE, **EXECUTORS}
    return {name: _outcome(monkeypatch, cfg, executor) for name, executor in runs.items()}


@pytest.mark.parametrize("mode", runner_mod.MODES)
@pytest.mark.parametrize("act, reg_kind", [("relu", "l2"), ("leaky_relu", "none")])
def test_probes_run_ahead_to_the_inline_bytes(monkeypatch, mode, act, reg_kind):
    """At one BLAS thread a narrow seed's probes run ahead on its worker.
    Settled at once, settled only when the next probe is due, or settled
    whenever the worker is done, they give one run to the byte."""
    model = ModelConfig(hidden_width=8, activation=Activation(act, slope=0.1 if act == "leaky_relu" else 0.0),
                        regularizer=reg_kind, reg_lambda=1e-3 if reg_kind == "l2" else 0.0)
    out = _outcomes(monkeypatch, _long_config(mode=mode, model=model, log_interval=4))
    assert out["inline"][0] == out["eager"][0] == out["lazy"][0] == out["real"][0]
    assert out["inline"][1] == 36


@pytest.mark.parametrize("controller, eta, moved", [
    (ControllerConfig(interval_k=2, warm_phase_frac=1.0), 1e-3, ",warmed,"),
    (ControllerConfig(gamma=1e-9, interval_k=3), 0.05, ",cooled,"),
    (ControllerConfig(interval_k=2, warm_phase_frac=1.0, eta_max=1.02e-3), 1e-3, "fc1:eta_clamped"),
    # the warming at step 12 is settled at step 18, after the end of task 0 is counted
    (ControllerConfig(interval_k=6, warm_phase_frac=1.0), 1e-3, ",warmed,"),
], ids=["warms", "cools", "clamps", "across-a-task"])
def test_a_moved_decision_rewinds_to_the_inline_bytes(monkeypatch, controller, eta, moved):
    """A decision that moves a rate sends the run back to its step, which it
    replays at the decided rate: the lazy executor replays steps, and every
    executor gives the inline bytes."""
    cfg = _long_config(mode="scheduled", controller=controller, optimizer=OptimConfig(eta=eta),
                       log_interval=controller.interval_k, power_iters=100)
    out = _outcomes(monkeypatch, cfg)
    assert out["inline"][0] == out["eager"][0] == out["lazy"][0] == out["real"][0]
    assert out["inline"][1] == 36 < out["lazy"][1]
    assert moved in out["inline"][0][0]


def test_a_decision_after_a_moved_one_runs_inline(monkeypatch):
    """Moved decisions come in streaks (the warm phase), so the decision probe
    after a moved decision runs inline and the one after a held decision
    runs ahead again; the probe at the seed's last step runs inline."""
    real, ahead = runner_mod.hand_off, []

    def recording(worker, fn, cfg, seed, step, *args):
        ahead.append(step)
        return real(worker, fn, cfg, seed, step, *args)

    monkeypatch.setattr(runner_mod, "hand_off", recording)
    _one_blas_thread(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _LazyExecutor)
    cfg = _long_config(mode="scheduled", controller=ControllerConfig(interval_k=3, warm_phase_frac=0.5),
                       log_interval=3, power_iters=100)
    res = run_seed(cfg, seed=0)
    eta = {lid: cfg.optimizer.eta for lid in res.layer_ids}
    moved = []
    for rec in res.records:
        moved.append(any(rec.layers[lid].eta != eta[lid] for lid in res.layer_ids))
        eta = {lid: rec.layers[lid].eta for lid in res.layer_ids}
    want = [rec.step for rec, after_moved in zip(res.records, [False] + moved) if not after_moved and rec.step < 36]
    assert ahead == want == [3, 6, 21, 24, 27, 30, 33]


def test_a_probe_abort_ahead_ends_at_the_probes_step(monkeypatch):
    """A probe that raises on the worker aborts the seed at its own step, with
    that step's state, however far the run went on meanwhile."""
    real, calls = runner_mod.top_eigenvalue, []

    def third_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise NumericError("probe blow-up", layer_id="fc2")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "top_eigenvalue", third_raises)
    out, steps = {}, {}
    for name, executor in {"inline": INLINE, **EXECUTORS}.items():
        calls.clear()
        out[name], steps[name] = _outcome(monkeypatch, _long_config(log_interval=6), executor)
    assert out["inline"] == out["eager"] == out["lazy"] == out["real"]
    log, acc, *_, t, _, message = out["inline"]
    # the third probe is at task 0's last step, so that task never ended
    assert message == "probe blow-up" and t == 18 and acc == b""
    # the lazy run trained on to the next probe's step before its probe at step 18 raised
    assert steps["inline"] == steps["eager"] == 18 and steps["lazy"] == 24
    assert [ln.split(",")[3] for ln in log.splitlines()[1:]] == ["6", "12", "18"]


@pytest.mark.parametrize("keyed_on_eta", [False, True], ids=["any-eta", "pre-decision-eta"])
def test_a_training_abort_waits_for_the_probe_ahead(monkeypatch, keyed_on_eta):
    """A step that raises while a probe runs ahead waits for it.  The step's
    error stands if the decided rate meets it too; one that only the
    pre-decision rate meets vanishes with the rewind, so only the lazy
    executor's run meets it."""
    real, raised = runner_mod.adam_step, []

    def sabotaged(state, params, grads, worker=None):
        if state.t == 4 and (state.eta["fc1"] == 0.05 or not keyed_on_eta):  # the fifth step
            raised.append(1)
            raise NumericError("step blow-up", layer_id="fc1")
        return real(state, params, grads, worker)

    monkeypatch.setattr(runner_mod, "adam_step", sabotaged)
    # the decision at step 2 holds (its window is not armed yet) and the one at step 4 cools
    cfg = _long_config(mode="scheduled", controller=ControllerConfig(gamma=1e-9, interval_k=2),
                       optimizer=OptimConfig(eta=0.05), log_interval=2, power_iters=100)
    out, met = {}, {}
    for name, executor in {"inline": INLINE, **EXECUTORS}.items():
        raised.clear()
        out[name], _ = _outcome(monkeypatch, cfg, executor)
        met[name] = len(raised)
    assert out["inline"] == out["eager"] == out["lazy"] == out["real"]
    log, *_, message = out["inline"]
    assert [ln.split(",")[-3] for ln in log.splitlines()[1:3]] == ["held", "cooled"]
    if keyed_on_eta:
        assert message is None and met["inline"] == met["eager"] == 0 and met["lazy"] == 1
    else:
        assert message == "step blow-up" and met["inline"] == met["eager"] == 1 and met["lazy"] == 2


def test_seeds_on_more_threads_than_cores_rewind_to_the_inline_bytes(monkeypatch):
    """Three seeds at once, each with its probes ahead on its own worker (six
    threads on a machine of two cores or fewer), switching threads every
    microsecond: every seed writes the inline bytes of a run that warms."""
    cfg = _long_config(mode="scheduled", controller=ControllerConfig(interval_k=3, warm_phase_frac=1.0),
                       log_interval=3, power_iters=100)
    inline = {seed: _outcome(monkeypatch, cfg, INLINE, seed)[0] for seed in range(3)}
    assert all(",warmed," in log for log, *_ in inline.values())
    _one_blas_thread(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", EXECUTORS["real"])
    got = {}

    def run(seed):
        got[seed] = _bytes_of(run_seed(cfg, seed=seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == inline


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
    """The derived column tables spell the header: the eigensolve's cost after
    its eigenvalue, the Cantelli cap among each layer's bounds."""
    assert ",".join(log_columns(["fc1"])) == (
        "seed,task,epoch,step,train_accuracy,lambda_max,lambda_bar,lambda_iters,lambda_residual,"
        "sigma_mb_sq,weight_norm,grad_norm,grad_param_ratio,use,fc1.alpha,fc1.alpha_g_star,"
        "fc1.alpha_vol_star,fc1.cantelli_cap,fc1.alpha_tilde_star,fc1.vol,fc1.eta,fc1.decision,"
        "fc1.crossed,flags"
    )


# one fc1 record, as log cells by column
GOOD_CELLS = dict(
    zip(
        log_columns(["fc1"]),
        "3,0,1,7,0.25,2,1.5,5,0.0625,0.125,4,0.5,0.5,0.5,2,3,4,8,3,0.75,0.001,held,1,-".split(","),
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
                   lambda_iters=5, lambda_residual=0.0625, sigma_mb_sq=0.125, weight_norm=4.0,
                   grad_norm=0.5, grad_param_ratio=0.5, use=0.5)
    fc1 = LayerMetrics(2.0, 3.0, 4.0, 8.0, 3.0, 0.75, 0.001, "held", True)
    assert records == [MetricRecord(**scalars, layers={"fc1": fc1}, flags=())]
    types = [int] * 4 + [float] * 3 + [int] + [float] * 6
    assert [type(getattr(records[0], f)) for f in scalars] == types
    assert [type(v) for v in vars(records[0].layers["fc1"]).values()] == [float] * 7 + [str, bool]
    path.write_text(",".join(GOOD_CELLS).replace("fc1.vol", "fc1.bogus") + "\n")
    with pytest.raises(FormatError, match="header column 20 is 'fc1.bogus', expected 'fc1.vol'"):
        read_log(path)


def test_read_log_rejects_an_empty_file_and_a_short_line(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("")
    with pytest.raises(FormatError, match="empty metric log"):
        read_log(path)
    short = dict(list(GOOD_CELLS.items())[:-1])
    write_cells(path, GOOD_CELLS, short)
    with pytest.raises(FormatError, match="line 3 has 23 fields, expected 24"):
        read_log(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (log_columns([]), "the header has no layer columns"),
        (log_columns(["fc1", "fc2"])[:-1], "header column 33 is None, expected 'flags'"),
        (log_columns(["fc1"]) + ["extra"], "header column 25 is 'extra', expected None"),
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
    layers = {lid: LayerMetrics(0.1, 0.2, 0.2, 2.0, 0.2, 0.0, 1e-3, "-", c) for lid, c in crossed.items()}
    return MetricRecord(0, task, epoch, step, acc, 0.0, 0.0, 5, *[0.0] * 6, layers=layers, flags=flags)


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


def test_summarize_zero_crossings():
    records = synthetic_records([[0, 0], [0, 0]], accs=[0.8, 0.5])
    s = summarize(records, ["fc1"])
    assert all(t.crossing_fraction == 0.0 for t in s.per_task)
    assert s.rho_hat == 0.0


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
