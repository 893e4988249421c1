import functools
import gzip
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import trainlab.cli as cli_mod
from trainlab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from trainlab.runner import BLAS_THREAD_VARS
from trainlab.config import KEYS, build_run_config, config_lines, parse_config_text
from trainlab.errors import ConfigError
from trainlab.runner import SeedResult, format_accuracy, format_log, log_columns, read_log, run_seed
from trainlab.tasks import MnistSource, SyntheticSource

from conftest import REG_KINDS, REPO, load_bench_module
from test_acceptance import desk_config

CONFIGS = REPO / "configs"

TINY_CONFIG = """
# desk-scale smoke config
mode=vanilla
seeds=0
stream.source=synthetic
stream.synthetic.n=64
stream.synthetic.d=6
stream.synthetic.classes=3
stream.subsample_n=48
stream.tasks=2
stream.epochs_per_task=2
stream.batch_size=16
stream.base_seed=5
model.hidden_width=8
optimizer.eta=1e-3
log_interval=2
power_iters=6
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    values = parse_config_text(TINY_CONFIG)
    assert values["mode"] == "vanilla"
    assert values["stream.tasks"] == "2"
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line")


def test_build_run_config_defaults_and_types():
    cfg = build_run_config(parse_config_text(TINY_CONFIG))
    assert cfg.mode == "vanilla"
    assert cfg.controller is None
    assert cfg.stream.batch_size == 16
    assert cfg.optimizer.eta == 1e-3
    assert cfg.seeds == (0,)
    assert isinstance(cfg.stream.source, SyntheticSource)


def test_build_run_config_scheduled_controller():
    values = parse_config_text(TINY_CONFIG)
    values["mode"] = "scheduled"
    values["controller.cool"] = "0.95"
    values["controller.interval_k"] = "4"
    cfg = build_run_config(values)
    assert cfg.controller is not None
    assert cfg.controller.cool == 0.95
    assert cfg.controller.interval_k == 4
    # controller keys tolerated but inert outside scheduled mode
    values["mode"] = "reset"
    assert build_run_config(values).controller is None


def test_build_run_config_rejects_unknown_key():
    values = {"stream.tasks": "2", "nonsense.key": "1"}
    with pytest.raises(ConfigError):
        build_run_config(values)


def test_build_run_config_rejects_bad_types():
    with pytest.raises(ConfigError):
        build_run_config({"stream.tasks": "two"})
    with pytest.raises(ConfigError):
        build_run_config({"optimizer.eta": "fast"})
    with pytest.raises(ConfigError):
        build_run_config({"mode": "warp"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("power_iters", "0"),
        ("power_tol", "0"),
        ("controller.window", "0"),
        ("controller.window", "1"),
        ("ema_decay", "0"),
        ("ema_decay", "1"),
        ("optimizer.eta", "0"),
        ("optimizer.beta1", "1"),
        ("optimizer.beta2", "-0.1"),
        ("optimizer.eps", "0"),
        ("model.hidden_width", "0"),
        ("model.activation", "bogus"),
        ("model.regularizer", "l1"),
        ("model.reg_lambda", "-1e-3"),
        ("model.reg_lambda", "nan"),
        ("model.reg_lambda", "inf"),
        ("bounds.kappa", "0"),
        ("bounds.beta", "1.5"),
        ("bounds.delta", "1"),
        ("log_interval", "0"),
        ("seeds", ""),
        ("seeds", "0,1,0"),
        ("seeds", "0,-1"),
        ("stream.base_seed", "-1"),
        ("stream.synthetic.seed", "-1"),
        ("stream.tasks", "0"),
        ("stream.source", "cifar"),
    ],
)
def test_build_run_config_rejects_bad_settings(key, value):
    """A setting the run cannot use fails when the config is built, before any data loads."""
    values = parse_config_text(TINY_CONFIG)
    values[key] = value
    with pytest.raises(ConfigError):
        build_run_config(values)


@pytest.mark.parametrize("slope", ["2", "-0.5", "nan", "0"])
def test_build_run_config_rejects_a_leaky_slope_outside_0_1(slope):
    values = parse_config_text(TINY_CONFIG)
    values.update({"model.activation": "leaky_relu", "model.leaky_slope": slope})
    with pytest.raises(ConfigError, match="slope must be in"):
        build_run_config(values)


@pytest.mark.parametrize(
    "key, value",
    [
        ("controller.interval_k", "0"),
        ("controller.warm_phase_frac", "1.5"),
        ("controller.timid_frac", "1"),
        ("controller.abs_floor", "nan"),
        ("controller.eta_min", "nan"),
    ],
)
def test_build_run_config_rejects_bad_controller_settings(key, value):
    """The controller, built in scheduled mode only, checks its settings then."""
    values = parse_config_text(TINY_CONFIG)
    values.update({"mode": "scheduled", key: value})
    with pytest.raises(ConfigError):
        build_run_config(values)


def test_build_run_config_seeds_list():
    cfg = build_run_config({"seeds": "3,1,2"})
    assert cfg.seeds == (3, 1, 2)


@pytest.mark.parametrize(
    "extra",
    [
        "",
        "mode=scheduled\ncontroller.cool=0.95\ncontroller.window=12",
        "stream.source=mnist_idx\nstream.mnist.images=/data/images.idx\n"
        "stream.mnist.labels=/data/labels.idx",
        "model.activation=leaky_relu\nmodel.leaky_slope=0.05",
        "model.activation=crelu\nmodel.regularizer=wasserstein\nmodel.reg_lambda=1e-3",
    ],
    ids=["vanilla_synthetic", "scheduled", "mnist_idx", "leaky_relu", "crelu_wasserstein"],
)
def test_config_lines_roundtrip(extra, monkeypatch):
    monkeypatch.delenv("TRAINLAB_DATA_DIR", raising=False)
    cfg = build_run_config(parse_config_text(TINY_CONFIG + extra))
    again = build_run_config(parse_config_text("\n".join(config_lines(cfg))))
    assert again == cfg


def test_config_accepts_exactly_the_derived_keys():
    assert len(KEYS) == 42
    assert "controller.window" in KEYS and "stream.synthetic.n" in KEYS
    for gone in ("window", "bounds.c_contraction", "bounds.cap", "eps_vol", "stream.synthetic.spectrum"):
        with pytest.raises(ConfigError):
            build_run_config({gone: "1"})


def test_leaky_slope_default_and_unused_elsewhere():
    leaky = build_run_config({"model.activation": "leaky_relu"})
    assert leaky.model.activation.slope == 0.3
    relu = build_run_config({"model.activation": "relu", "model.leaky_slope": "0.2"})
    assert relu.model.activation.slope == 0.0


@pytest.mark.parametrize("mode", ["vanilla", "reset", "scheduled"])
def test_controller_window_sets_window_in_every_mode(mode):
    values = parse_config_text((CONFIGS / "desk_l2.txt").read_text())
    values["mode"] = mode
    values["controller.window"] = "10"
    assert build_run_config(values).window == 10


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.txt")), ids=lambda p: p.name)
@pytest.mark.parametrize("mode", ["vanilla", "reset", "scheduled"])
def test_shipped_configs_build(path, mode):
    values = parse_config_text(path.read_text())
    values["mode"] = mode
    cfg = build_run_config(values)
    assert cfg.mode == mode
    assert build_run_config(parse_config_text("\n".join(config_lines(cfg)))) == cfg


@pytest.mark.parametrize("mode", ["vanilla", "scheduled"])
def test_desk_config_file_is_the_acceptance_config(mode):
    """configs/desk_l2.txt is the criterion-10 config: editing one without the other fails here."""
    values = parse_config_text((CONFIGS / "desk_l2.txt").read_text())
    values["mode"] = mode
    assert build_run_config(values) == desk_config(mode)


@pytest.mark.parametrize("name", ["desk_l2_scheduled", "desk_crelu_w2_train", "idx_wide_scheduled"])
def test_benchmark_workloads_build(name, tmp_path):
    workloads = load_bench_module("workloads")
    text = workloads.WORKLOADS[name].config_text(3, tmp_path)
    cfg = build_run_config(parse_config_text(text))
    assert cfg.stream.base_seed == 3


def test_mnist_paths_resolved_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("TRAINLAB_DATA_DIR", str(tmp_path))
    cfg = build_run_config(
        {
            "stream.source": "mnist_idx",
            "stream.mnist.images": "train-images.idx",
            "stream.mnist.labels": "train-labels.idx",
        }
    )
    src = cfg.stream.source
    assert isinstance(src, MnistSource)
    assert src.images == str(tmp_path / "train-images.idx")
    assert src.labels == str(tmp_path / "train-labels.idx")


def test_config_lines_roundtrip_with_relative_data_dir(monkeypatch):
    monkeypatch.setenv("TRAINLAB_DATA_DIR", "data")
    cfg = build_run_config(
        {
            "stream.source": "mnist_idx",
            "stream.mnist.images": "img",
            "stream.mnist.labels": "lbl",
        }
    )
    assert cfg.stream.source.images == os.path.abspath(os.path.join("data", "img"))
    assert build_run_config(parse_config_text("\n".join(config_lines(cfg)))) == cfg


# ---------------------------------------------------------------------------
# CLI end to end


def write_config(tmp_path, text=TINY_CONFIG):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


def test_cli_run_and_summarize(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == EXIT_OK
    log_path = out_dir / "metrics_seed0.csv"
    assert log_path.exists()
    assert (out_dir / "accuracy_seed0.csv").exists()
    meta = (out_dir / "meta.txt").read_text().splitlines()
    assert "normalization=global-scalar" in meta
    assert any(line.startswith("data.mean=") for line in meta)
    env = ["env.OPENBLAS_NUM_THREADS=1", "env.OMP_NUM_THREADS=unset", "env.MKL_NUM_THREADS=2"]
    assert [f"numpy.version={np.__version__}", *env] == [
        line for line in meta if line.startswith(("numpy.", "env."))
    ]

    summary_path = tmp_path / "summary.csv"
    code = main(["summarize", "--log", str(log_path), "--out", str(summary_path)])
    assert code == EXIT_OK
    lines = summary_path.read_text().splitlines()
    assert lines[0].startswith("# rho_hat=")
    assert lines[1] == "task,accuracy,crossing_fraction"
    assert not any(line.startswith("# scale_degenerate") for line in lines)


def test_cli_override_and_seed_flag(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            cfg_path,
            "--out",
            str(out_dir),
            "--seeds=7",
            "--stream.tasks=1",
            "--log_interval=3",
        ]
    )
    assert code == EXIT_OK
    records, _ = read_log(out_dir / "metrics_seed7.csv")
    assert {r.seed for r in records} == {7}
    assert {r.task for r in records} == {0}
    assert all(r.step % 3 == 0 for r in records)


def test_cli_mode_flag_switches_controller(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--config", cfg_path, "--out", str(out_dir), "--mode=scheduled",
         "--controller.interval_k=2"]
    )
    assert code == EXIT_OK
    records, _ = read_log(out_dir / "metrics_seed0.csv")
    assert any(r.layers["fc1"].decision != "-" for r in records)


@pytest.mark.parametrize("flag", [["--mode", "scheduled"], ["--seed", "7"]])
def test_cli_takes_mode_and_seeds_only_as_overrides(tmp_path, capsys, flag):
    """``--mode X`` and ``--seed N`` are not options of ``run``: the keys are
    set as ``--mode=X`` and ``--seeds=N`` like every other key."""
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--out", str(out), *flag]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "expected --key=value" in err
    assert not out.exists()


def test_cli_unknown_key_exits_2(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", cfg_path, "--bogus.key=1"]) == EXIT_CONFIG


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.txt")]) == EXIT_CONFIG


def test_cli_malformed_override_exits_2(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", cfg_path, "--no-equals-sign"]) == EXIT_CONFIG


def test_cli_numeric_abort_exits_3(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)

    def fake_run_seed(cfg, seed, base):
        return SeedResult(
            seed=seed,
            layer_ids=["fc1", "fc2"],
            records=[],
            per_task_accuracy=[0.5],
            abort_message="synthetic",
        )

    monkeypatch.setattr(cli_mod, "run_seed", fake_run_seed)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERIC


def test_cli_crash_keeps_the_files_of_earlier_seeds(tmp_path, monkeypatch):
    """Each seed's files are written when it ends: a crash in the second seed
    propagates and leaves the first seed's files, byte-identical to a one-seed
    run's, beside meta.txt's settings."""
    cfg_path = write_config(tmp_path)
    alone, out = tmp_path / "alone", tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(alone)]) == EXIT_OK
    real_run_seed = cli_mod.run_seed

    def crashing(cfg, seed, base):
        if seed == 1:
            raise RuntimeError("worker lost")
        return real_run_seed(cfg, seed, base)

    monkeypatch.setattr(cli_mod, "run_seed", crashing)
    with pytest.raises(RuntimeError, match="worker lost"):
        main(["run", "--config", cfg_path, "--out", str(out), "--seeds=0,1"])
    for name in ("metrics_seed0.csv", "accuracy_seed0.csv"):
        assert (out / name).read_bytes() == (alone / name).read_bytes(), name
    assert not (out / "metrics_seed1.csv").exists()
    meta = (out / "meta.txt").read_text().splitlines()
    cfg = build_run_config(parse_config_text(TINY_CONFIG + "\nseeds=0,1"))
    assert meta[: len(config_lines(cfg))] == config_lines(cfg)
    assert meta[-1] == "normalization=global-scalar"


def test_cli_run_refuses_an_out_dir_that_holds_a_run(tmp_path):
    """A second run into a directory with a meta.txt exits 2 with one error
    line naming that file, and leaves every file there as it was."""
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seeds=0,1"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    done = _run_subprocess(["run", "--config", cfg_path, "--out", str(out), "--seeds=0"])
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert str(out / "meta.txt") in done.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _run_subprocess(args, env_extra=None):
    """``python -m trainlab.cli *args`` with every BLAS thread variable at 1."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    env.update(env_extra or {})
    cmd = [sys.executable, "-m", "trainlab.cli", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def test_cli_entry_point_in_a_subprocess(tmp_path):
    """``python -m trainlab.cli`` runs the entry point: exit 0 and the three
    output files, and exit 2 on an unknown key."""
    cmd = ["run", "--config", write_config(tmp_path)]
    out = tmp_path / "out"
    done = _run_subprocess([*cmd, "--out", str(out)])
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("seed 0: ok, tasks=2, ")
    assert sorted(p.name for p in out.iterdir()) == [
        "accuracy_seed0.csv", "meta.txt", "metrics_seed0.csv"
    ]
    bad = _run_subprocess([*cmd, "--bogus.key=1"])
    assert bad.returncode == EXIT_CONFIG
    assert bad.stderr.startswith("error: unknown config key")


def test_cli_summarize_missing_log_exits_2(tmp_path):
    assert (
        main(["summarize", "--log", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")])
        == EXIT_CONFIG
    )


# a one-record log of one layer: its header is log_columns(["fc1"])
SUMMARY_LOG = (
    ",".join(log_columns(["fc1"]))
    + "\n0,0,0,2,{acc},2,1.5,0.125,4,0.5,0.5,0.5,2,3,4,3,0.75,0.001,held,1,-\n"
)
# logs whose header is not a log schema: no flags and no layers, or flags but no layers
BAD_HEADER_LOGS = {
    "summarize_header_without_flags": "seed,task,epoch,step,train_accuracy\n0,0,0,2,0.5\n",
    "summarize_header_without_layers": "seed,task,epoch,step,train_accuracy,flags\n0,0,0,2,0.5,-\n",
}


@pytest.mark.parametrize(
    "case",
    [
        "run_out_is_a_file",
        "run_repeated_seed",
        "run_corrupt_gzip",
        "run_constant_pixels",
        "summarize_log_is_a_dir",
        "summarize_out_is_a_dir",
        "summarize_unparsable_cell",
        "run_config_not_utf8",
        "summarize_log_not_utf8",
        *BAD_HEADER_LOGS,
    ],
)
def test_cli_input_and_file_errors_exit_2(tmp_path, case):
    """A file the program cannot read or write, or an input it cannot
    parse, stops the command with exit code 2 and one error line."""
    cfg = write_config(tmp_path)
    log = tmp_path / "metrics.csv"
    log.write_text(SUMMARY_LOG.format(acc="abc" if case == "summarize_unparsable_cell" else "0.5"))
    bad_header = tmp_path / "header.csv"
    bad_header.write_text(BAD_HEADER_LOGS.get(case, ""))
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"\xff" + TINY_CONFIG.encode())
    a_file = tmp_path / "taken"
    a_file.write_text("")
    images = tmp_path / "images.gz"
    images.write_bytes(gzip.compress(b"\0" * 64)[:20])
    flat_images = tmp_path / "flat_images.idx"  # 48 images of 2 x 3 pixels, all of one value
    flat_images.write_bytes(struct.pack(">IIII", 0x00000803, 48, 2, 3) + bytes([7]) * 48 * 6)
    flat_labels = tmp_path / "flat_labels.idx"
    flat_labels.write_bytes(struct.pack(">II", 0x00000801, 48) + bytes(i % 3 for i in range(48)))
    args = {
        "run_out_is_a_file": ["run", "--config", cfg, "--out", str(a_file)],
        "run_repeated_seed": ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seeds=0,0"],
        "run_corrupt_gzip": [
            "run", "--config", cfg, "--out", str(tmp_path / "o"), "--stream.source=mnist_idx",
            f"--stream.mnist.images={images}", f"--stream.mnist.labels={images}",
        ],
        "run_constant_pixels": [
            "run", "--config", cfg, "--out", str(tmp_path / "o"), "--stream.source=mnist_idx",
            f"--stream.mnist.images={flat_images}", f"--stream.mnist.labels={flat_labels}",
        ],
        "summarize_log_is_a_dir": ["summarize", "--log", str(tmp_path), "--out", str(a_file)],
        "summarize_out_is_a_dir": ["summarize", "--log", str(log), "--out", str(tmp_path)],
        "summarize_unparsable_cell": ["summarize", "--log", str(log), "--out", str(a_file)],
        "run_config_not_utf8": ["run", "--config", str(not_utf8), "--out", str(tmp_path / "o")],
        "summarize_log_not_utf8": ["summarize", "--log", str(not_utf8), "--out", str(a_file)],
        **dict.fromkeys(BAD_HEADER_LOGS, ["summarize", "--log", str(bad_header), "--out", str(a_file)]),
    }[case]
    done = _run_subprocess(args)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr
    if case.endswith("not_utf8"):
        assert f"{not_utf8}: not UTF-8 text at byte 0" in done.stderr
    if case in BAD_HEADER_LOGS:
        assert f"{bad_header}: header column 6 is " in done.stderr
    if case == "run_constant_pixels":
        assert "zero pixel standard deviation" in done.stderr
    if case.startswith("summarize") and case != "summarize_out_is_a_dir":
        assert a_file.read_text() == ""
    assert not (tmp_path / "o").exists()


def test_cli_run_replays_byte_identically_across_processes(tmp_path):
    """Two processes with different string-hash seeds write the same bytes."""
    cfg = write_config(tmp_path)
    outs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"out{hash_seed}"
        done = _run_subprocess(["run", "--config", cfg, "--out", str(out)], {"PYTHONHASHSEED": hash_seed})
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(out)
    for name in ("metrics_seed0.csv", "accuracy_seed0.csv", "meta.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _idx_files(tmp_path, labels, rows=2):
    """Plain IDX files with one rows x 2 image per label (at most 64 labels),
    named by their row count."""
    images = tmp_path / f"images{rows}.idx"
    images.write_bytes(
        struct.pack(">IIII", 0x00000803, len(labels), rows, 2)
        + bytes(range(2 * rows * len(labels)))
    )
    label_file = tmp_path / f"labels{rows}.idx"
    label_file.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + bytes(labels))
    return [f"--stream.mnist.images={images}", f"--stream.mnist.labels={label_file}"]


@pytest.mark.parametrize(
    "setting",
    [
        "eta_max",
        "separation",
        "idx_label",
        "idx_zero_rows",
        "reg_lambda_nan",
        "reg_lambda_inf",
        "abs_floor_nan",
        "eta_min_nan",
        "negative_seed",
        "eta_inf",
        "eps_inf",
        "separation_inf",
    ],
)
def test_cli_out_of_range_setting_exits_2(tmp_path, capsys, setting):
    """A setting the program cannot run on stops with one error line and
    exit code 2, before any training step."""
    overrides = {
        # eta_min=-1 keeps eta_min <= eta_max; the run decides every 2 steps on
        # converged sharpness
        "eta_max": [
            "--mode=scheduled",
            "--controller.interval_k=2",
            "--power_iters=100",
            "--controller.eta_min=-1",
            "--controller.eta_max=0",
        ],
        "separation": ["--stream.synthetic.separation=-1"],
        "idx_label": [
            "--stream.source=mnist_idx",
            "--stream.randomize_frac=0.5",
            *_idx_files(tmp_path, [3] * 50 + [12] + [4] * 13),
        ],
        "idx_zero_rows": [
            "--stream.source=mnist_idx",
            *_idx_files(tmp_path, [3] * 64, rows=0),
        ],
        # a run on these would abort at its first step with a non-finite loss
        "reg_lambda_nan": ["--model.regularizer=l2", "--model.reg_lambda=nan"],
        "reg_lambda_inf": ["--model.regularizer=l2", "--model.reg_lambda=inf"],
        # a NaN floor would switch cooling off, a NaN eta_min the lower clamp
        "abs_floor_nan": ["--mode=scheduled", "--controller.abs_floor=nan"],
        "eta_min_nan": ["--mode=scheduled", "--controller.eta_min=nan"],
        # rng draws from the seed as it is, and SeedSequence takes no negative entropy
        "negative_seed": ["--seeds=-1"],
        # an infinite eta or separation ends in a non-finite loss, an infinite eps in a
        # zero effective step at the first probe
        "eta_inf": ["--optimizer.eta=inf"],
        "eps_inf": ["--optimizer.eps=inf"],
        "separation_inf": ["--stream.synthetic.separation=inf"],
    }[setting]
    out = tmp_path / "out"
    code = main(["run", "--config", write_config(tmp_path), "--out", str(out), *overrides])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0,,1", "0,", ",0", "", "0, ,1"],
                         ids=["inner", "trailing", "leading", "alone", "blank"])
def test_cli_rejects_an_empty_seed(tmp_path, capsys, seeds):
    """An empty item of ``seeds`` is a malformed value, not one seed fewer: it
    stops with the key's usual error line and exit code 2, before any run."""
    out = tmp_path / "out"
    code = main(["run", "--config", write_config(tmp_path), "--out", str(out), f"--seeds={seeds}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: seeds: expected comma-separated integers, got {seeds!r}\n"
    assert not out.exists()


def test_cli_huge_finite_eta_is_a_numeric_abort(tmp_path, capsys):
    """eta = 1e308 is a usable setting that overflows in training: exit 3."""
    code = main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
                 "--optimizer.eta=1e308"])
    assert code == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().out


# fc1 of 512 x 128 = 2^16 weights on 128-row batches: at one BLAS thread the passes split across
# the worker
WIDE_OVERRIDES = ["--model.regularizer=l2", "--stream.synthetic.d=512", "--model.hidden_width=128",
                  "--stream.synthetic.n=128", "--stream.subsample_n=128", "--stream.batch_size=128"]


@pytest.mark.parametrize("overrides", [[f"--model.regularizer={reg}"] for reg in REG_KINDS] + [WIDE_OVERRIDES],
                         ids=[*REG_KINDS, "wide"])
def test_cli_numeric_abort_warns_nothing(tmp_path, overrides):
    """With every warning an error (``python -W error``, here through
    PYTHONWARNINGS) the overflow still ends in the abort line and exit 3,
    not in a RuntimeWarning traceback: also where the Wasserstein penalty,
    or the half of a wide matmul, overflows on the run's worker thread."""
    args = ["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
            "--optimizer.eta=1e308", "--model.reg_lambda=1e-3", *overrides]
    done = _run_subprocess(args, {"PYTHONWARNINGS": "error"})
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert done.stdout.startswith("seed 0: aborted: non-finite loss"), done.stdout
    assert done.stderr == ""


def test_bounds_delta_reaches_the_metrics_log(tmp_path):
    """``bounds.delta`` sets the Cantelli cap alone, and the log keeps each
    layer's cap: two scheduled runs that differ only in it log differently.
    Their eigensolves converge, so the windows fill and the caps sit below CAP."""
    logs = []
    for delta in ("0.1", "0.3"):
        out = tmp_path / delta
        args = ["run", "--config", write_config(tmp_path), "--mode=scheduled", "--power_iters=100",
                f"--bounds.delta={delta}", "--out", str(out)]
        assert main(args) == EXIT_OK
        logs.append((out / "metrics_seed0.csv").read_bytes())
    assert logs[0] != logs[1]


# a scheduled run of 2 tasks x 2 epochs x 3 steps on 8 inputs that probes and decides at every step
_LIVE_BASE = {
    "stream.synthetic.n": "32", "stream.synthetic.d": "8", "stream.synthetic.classes": "3",
    "stream.subsample_n": "24", "stream.tasks": "2", "stream.epochs_per_task": "2", "stream.batch_size": "8",
    "model.hidden_width": "6", "model.regularizer": "l2", "model.reg_lambda": "1e-3", "optimizer.eta": "1e-2",
    "mode": "scheduled", "controller.interval_k": "1", "log_interval": "1", "power_iters": "30",
    "controller.window": "3",
}
# key -> a value other than the base run's, and the settings over the base that make the key live
_LIVE = {
    "stream.synthetic.n": ("40", {}),
    "stream.synthetic.d": ("9", {}),
    "stream.synthetic.classes": ("4", {}),
    "stream.synthetic.seed": ("1", {}),
    "stream.synthetic.separation": ("0.5", {}),
    "stream.subsample_n": ("16", {}),
    "stream.tasks": ("3", {}),
    "stream.epochs_per_task": ("3", {}),
    "stream.batch_size": ("12", {}),
    "stream.randomize_frac": ("0.5", {}),
    "stream.base_seed": ("1", {}),
    "model.hidden_width": ("7", {}),
    "model.activation": ("crelu", {}),
    "model.leaky_slope": ("0.1", {"model.activation": "leaky_relu"}),
    "model.regularizer": ("wasserstein", {}),
    "model.reg_lambda": ("1e-2", {}),
    "optimizer.eta": ("2e-2", {}),
    "optimizer.beta1": ("0.8", {}),
    "optimizer.beta2": ("0.99", {}),
    "optimizer.eps": ("1e-3", {}),
    "bounds.kappa": ("2.0", {}),
    "bounds.beta": ("1.0", {}),
    "bounds.delta": ("0.2", {}),
    "controller.gamma": ("0.3", {}),
    "controller.cool": ("0.9", {}),
    "controller.warm": ("1.1", {}),
    "controller.interval_k": ("2", {}),
    # the base run cools layers whose effective step is about 1, above the floor
    "controller.abs_floor": ("1.0", {}),
    "controller.warm_phase_frac": ("1", {}),
    "controller.timid_frac": ("0.9", {}),
    # each clamp binds: the base run's rate, 1e-2, is below this eta_min and above this eta_max
    "controller.eta_min": ("1e-1", {}),
    "controller.eta_max": ("1e-3", {}),
    "mode": ("vanilla", {}),
    "log_interval": ("2", {"mode": "vanilla"}),
    "power_iters": ("2", {}),
    "power_tol": ("1e-2", {}),
    "controller.window": ("4", {}),
    "ema_decay": ("0.5", {}),
}
# keys that no change within one run of the base's source shows, and why
_EXEMPT = {
    "stream.source": "picks the source; the synthetic source's keys are live above, and the IDX source "
                     "needs files on disk (tests/test_tasks.py reads them)",
    "stream.mnist.images": "read by the IDX source alone; the synthetic source drops it",
    "stream.mnist.labels": "read by the IDX source alone; the synthetic source drops it",
    "seeds": "names which seeds run, each into a log of its own, not a setting of one seed's run",
}


@functools.cache
def _logged(items: frozenset) -> bytes:
    """The metrics and accuracy log bytes of the one seed of a run of these settings."""
    cfg = build_run_config(dict(items))
    res = run_seed(cfg, cfg.seeds[0])
    return (format_log(res.records, res.layer_ids) + format_accuracy(res)).encode()


@pytest.mark.parametrize("key", list(KEYS))
def test_every_config_key_reaches_a_logged_byte(key):
    """Changing any key, in a tiny run where it is live, changes a byte of the
    metrics or accuracy log: no key is a knob that nothing reads.  A key in
    neither table fails here until it is given a live run or a reason."""
    assert (key in _LIVE) != (key in _EXEMPT), key
    if key in _EXEMPT:
        return
    value, context = _LIVE[key]
    values = {**_LIVE_BASE, **context}
    assert _logged(frozenset({**values, key: value}.items())) != _logged(frozenset(values.items()))


def test_cli_rejects_mnist_without_paths():
    assert main(["run", "--stream.source=mnist_idx"]) == EXIT_CONFIG
