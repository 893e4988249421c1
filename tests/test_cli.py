import pytest

import trainlab.cli as cli_mod
from trainlab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from trainlab.config import KEYS, build_run_config, config_lines, parse_config_text
from trainlab.errors import ConfigError
from trainlab.runner import RunResult, SeedResult, read_log
from trainlab.tasks import MnistSource, SyntheticSource

from conftest import REPO, load_bench_module

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
    assert len(KEYS) == 45
    assert "controller.window" in KEYS and "stream.synthetic.n" in KEYS
    for gone in ("window", "bounds.c_contraction"):
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
    assert src.images_path == str(tmp_path / "train-images.idx")
    assert src.labels_path == str(tmp_path / "train-labels.idx")


# ---------------------------------------------------------------------------
# CLI end to end


def write_config(tmp_path, text=TINY_CONFIG):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


def test_cli_run_and_summarize(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == EXIT_OK
    log_path = out_dir / "metrics_seed0.csv"
    assert log_path.exists()
    assert (out_dir / "accuracy_seed0.csv").exists()
    meta = (out_dir / "meta.txt").read_text()
    assert "normalization=global-scalar" in meta
    assert "data.mean=" in meta

    summary_path = tmp_path / "summary.csv"
    code = main(["summarize", "--log", str(log_path), "--out", str(summary_path)])
    assert code == EXIT_OK
    text = summary_path.read_text()
    assert text.startswith("# rho_hat=")
    assert "task,accuracy,crossing_fraction,scaled_prediction" in text


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
            "--seed",
            "7",
            "--stream.tasks=1",
            "--log_interval=3",
        ]
    )
    assert code == EXIT_OK
    rows, _ = read_log(out_dir / "metrics_seed7.csv")
    assert {r["seed"] for r in rows} == {7}
    assert {r["task"] for r in rows} == {0}
    assert all(r["step"] % 3 == 0 for r in rows)


def test_cli_mode_flag_switches_controller(tmp_path):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--config", cfg_path, "--out", str(out_dir), "--mode", "scheduled",
         "--controller.interval_k=2"]
    )
    assert code == EXIT_OK
    rows, _ = read_log(out_dir / "metrics_seed0.csv")
    assert any(r["fc1.decision"] != "-" for r in rows)


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

    class FakeBase:
        mean, std = 0.0, 1.0

    def fake_run(cfg):
        sr = SeedResult(
            seed=0,
            layer_ids=["fc1", "fc2"],
            records=[],
            per_task_accuracy=[0.5],
            aborted=True,
            abort_message="synthetic",
        )
        return RunResult(cfg, FakeBase(), [sr])

    monkeypatch.setattr(cli_mod, "run", fake_run)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERIC


def test_cli_summarize_missing_log_exits_2(tmp_path):
    assert (
        main(["summarize", "--log", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")])
        == EXIT_CONFIG
    )


def test_cli_rejects_mnist_without_paths():
    assert main(["run", "--stream.source=mnist_idx"]) == EXIT_CONFIG
