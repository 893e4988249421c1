"""Command-line interface.

    trainlab run --config cfg.txt [--mode scheduled] [--seed 0] [--out DIR] [--key=value ...]
    trainlab summarize --log metrics_seed0.csv --out summary.csv

``run`` writes each seed's ``metrics_seed{S}.csv`` and ``accuracy_seed{S}.csv``
when that seed ends, so a crash loses only the running seed.  ``meta.txt``
holds the settings, the numpy version and BLAS thread variables the log's
bytes depend on, the data statistics, then an ``aborted.seed{S}=`` line per
aborted seed.  ``run`` refuses an ``--out`` that already holds a ``meta.txt``.

Exit codes: 0 success, 2 configuration, input or file error, 3 numeric abort in some seed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .config import build_run_config, config_lines, parse_config_text
from .errors import ConfigError, NumericError, TrainlabError
from .runner import format_accuracy, format_summary, read_log, read_text, run_seed, summarize, write_log
from .tasks import load_source, prepare

_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.]+)=(.*)$")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trainlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--config", help="path to a key=value config file")
    p_run.add_argument("--mode", help="vanilla | reset | scheduled")
    p_run.add_argument("--seed", type=int, help="run a single seed (overrides the config list)")
    p_run.add_argument("--out", default="runs", help="output directory")

    p_sum = sub.add_parser("summarize", help="summarize a metric log")
    p_sum.add_argument("--log", required=True, help="metric log path")
    p_sum.add_argument("--out", required=True, help="summary output path")
    return parser


def _collect_overrides(extras: list[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for arg in extras:
        m = _OVERRIDE_RE.match(arg)
        if not m:
            raise ConfigError(f"unrecognized argument {arg!r} (expected --key=value)")
        values[m.group(1)] = m.group(2)
    return values


def _cmd_run(args, extras: list[str]) -> int:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_text(read_text(args.config)))
    values.update(_collect_overrides(extras))
    if args.mode is not None:
        values["mode"] = args.mode
    if args.seed is not None:
        values["seeds"] = str(args.seed)
    cfg = build_run_config(values)
    meta = os.path.join(args.out, "meta.txt")
    if os.path.exists(meta):
        raise ConfigError(f"{meta} exists: --out already holds a run")

    base = prepare(load_source(cfg.stream), cfg.stream)
    os.makedirs(args.out, exist_ok=True)
    env = [f"env.{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS]
    data = [f"data.mean={base.mean!r}", f"data.std={base.std!r}", "normalization=global-scalar"]
    _write(meta, _lines(config_lines(cfg) + [f"numpy.version={np.__version__}"] + env + data))
    aborted = []
    for seed in cfg.seeds:  # a seed's files are on disk before the next seed starts
        sr = run_seed(cfg, seed, base)
        write_log(sr.records, sr.layer_ids, os.path.join(args.out, f"metrics_seed{seed}.csv"))
        _write(os.path.join(args.out, f"accuracy_seed{seed}.csv"), format_accuracy(sr))
        status = f"aborted: {sr.abort_message}" if sr.aborted else "ok"
        final = sr.per_task_accuracy[-1] if sr.per_task_accuracy else float("nan")
        tasks = len(sr.per_task_accuracy)
        print(f"seed {seed}: {status}, tasks={tasks}, final_accuracy={final:.4f}", flush=True)
        if sr.aborted:
            aborted.append(f"aborted.seed{seed}={sr.abort_message}")
    _write(meta, _lines(aborted), mode="a")
    return EXIT_NUMERIC if aborted else EXIT_OK


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _write(path: str, text: str, mode: str = "w") -> None:
    with open(path, mode, newline="\n") as fh:
        fh.write(text)


def _cmd_summarize(args) -> int:
    rows, layer_ids = read_log(args.log)
    summary = summarize(rows, layer_ids)
    _write(args.out, format_summary(summary))
    print(f"wrote {args.out}: {len(summary.per_task)} tasks, rho_hat={summary.rho_hat:.6f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, extras)
        return _cmd_summarize(args)
    except (TrainlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(err, NumericError) else EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
