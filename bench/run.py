"""trainlab benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload desk_l2_scheduled --seed 1 --seconds 30 --trace 0

A run builds the workload's config from ``--seed`` (and, for the IDX
workload, writes its gzip IDX files), then makes the calls ``trainlab run``
makes: ``build_run_config``, ``load_source``, ``prepare``, ``run_seed`` and
``write_log``.  It repeats whole rounds of ``run_seed`` + ``write_log`` on
the same inputs for about ``--seconds`` seconds, checks the outputs, prints
each seed's log SHA-256 and the checks, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (set-up time, median round
time, peak resident memory, final accuracy).  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead.

An operation is one task of one seed; it fails if the seed aborts within it
or a check on it fails.  Each round also holds one sharpness operation on
fixed inputs (``checks.sharpness_probe``).  ``correct`` is false if any
check fails except the sharpness one, whose failure is a known fault of the
program and is counted in ``failed`` alone.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine extra threads add spread, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
if not (SRC_DIR / "trainlab").is_dir():
    sys.exit(f"error: no trainlab sources at {SRC_DIR}; run from a checkout of the repository")
sys.path.insert(0, str(SRC_DIR))

from trainlab import config, runner  # noqa: E402

import workloads  # noqa: E402

SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
TRACE_SETUPS = 3  # in-process set-ups traced for the tasks.* metrics
MIN_ROUNDS = 2  # a traced run needs one untraced and one traced round
CHILD_TIMEOUT_S = 120


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(text: str):
    cfg = config.build_run_config(config.parse_config_text(text))
    return cfg, runner.prepare(runner.load_source(cfg.stream), cfg.stream)


def _setup_probe_s(args) -> float:
    """Seconds from spawning a fresh interpreter to a prepared dataset."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _round(cfg, base, log_dir: Path):
    """One round: every configured seed through run_seed, then its log."""
    t0 = time.perf_counter()
    results = [runner.run_seed(cfg, seed, base) for seed in cfg.seeds]
    paths = []
    for res in results:
        path = log_dir / f"metrics_seed{res.seed}.csv"
        runner.write_log(res.records, res.layer_ids, path)
        paths.append(path)
    return time.perf_counter() - t0, results, paths


def main(argv=None) -> int:
    args = _args(argv)
    wl = workloads.WORKLOADS[args.workload]
    work = BENCH_DIR / "_work" / wl.name
    data_dir = work / "data"
    text = wl.config_text(args.seed, data_dir)
    if args.setup_probe:
        _setup(text)
        print("ready", flush=True)
        return 0

    import checks
    import tracing

    log_dir = work / "logs"
    shutil.rmtree(work, ignore_errors=True)
    log_dir.mkdir(parents=True)
    try:
        if wl.idx_inputs:
            workloads.write_idx(args.seed, data_dir)
        setup_tracer = tracing.Tracer()
        if args.trace:
            with setup_tracer.installed():
                for _ in range(TRACE_SETUPS):
                    cfg, base = _setup(text)
        else:
            setup_s = statistics.median(_setup_probe_s(args) for _ in range(SETUP_PROBES))
            cfg, base = _setup(text)
        n = base.inputs.shape[0]
        last = cfg.stream.tasks - 1
        sharp_probe = checks.sharpness_probe(cfg)

        # Timed rounds.  Checks on each round's logs and the sharpness
        # operation run between rounds, outside the round's timer.
        round_tracer = tracing.Tracer()
        plain_s, traced_s, hashes, sharp_tops = [], [], [], []
        all_checks: list[checks.Check] = []
        attempted, failed = 0, set()
        t_begin = time.perf_counter()
        while True:
            if args.trace and len(plain_s) > len(traced_s):
                with round_tracer.installed():
                    dt, results, paths = _round(cfg, base, log_dir)
                traced_s.append(dt)
            else:
                dt, results, paths = _round(cfg, base, log_dir)
                plain_s.append(dt)
            n_round = len(plain_s) + len(traced_s)
            hashes.append([_sha256(p) for p in paths])
            for res, path in zip(results, paths):
                attempted += cfg.stream.tasks
                failed.update((n_round, res.seed, t) for t in range(len(res.per_task_accuracy), last + 1))
                got = checks.record_checks(cfg, n, res.layer_ids, checks.read_log_rows(path))
                failed.update((n_round, res.seed, c.task) for c in got if not c.ok)
                all_checks += got
            sharp_tops.append(checks.sharpness_top(sharp_probe, cfg))
            attempted += 1
            elapsed = time.perf_counter() - t_begin
            if n_round >= MIN_ROUNDS and elapsed + max(plain_s + traced_s) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # The sharpness reference needs scipy, imported only after the peak is read.
        sharp_ref = checks.sharpness_reference(sharp_probe)
        sharp = [checks.sharpness_check(top, sharp_ref) for top in sharp_tops]
        failed.update((i, "sharpness") for i, c in enumerate(sharp) if not c.ok)

        # Checks on the inputs and on the final parameters of the last round.
        raw_expected = workloads.idx_arrays(args.seed) if wl.idx_inputs else None
        final_checks = [checks.Check("replay", all(h == hashes[0] for h in hashes),
                                     f"{len(hashes)} rounds", last)]
        final_checks += checks.input_checks(cfg, base, raw_expected)
        del raw_expected
        if not all(c.ok for c in final_checks):
            failed.update((n_round, seed, last) for seed in cfg.seeds)
        for res in results:
            if res.aborted:
                continue
            p = checks.make_probe(cfg, base, res.seed, res.final_params)
            got = checks.noise_checks(p, last) + checks.gradient_checks(p, res.seed, last)
            if cfg.model.regularizer == "wasserstein":
                got.append(checks.penalty_check(p, last))
            acc, chance = res.per_task_accuracy[-1], 1.0 / base.n_classes
            got.append(checks.Check("above_chance", acc > chance,
                                    f"seed {res.seed}: final_acc={acc!r} chance={chance!r}", last))
            failed.update((n_round, res.seed, c.task) for c in got if not c.ok)
            final_checks += got
        all_checks += final_checks
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    for res, digest in zip(results, hashes[-1]):
        print(f"replay seed={res.seed} sha256={digest}")
    counts: dict[str, int] = {}
    for c in all_checks:
        counts[c.name] = counts.get(c.name, 0) + 1
    bad = [c for c in all_checks if not c.ok]
    print("checks: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) + f"; failed={len(bad)}")
    for c in final_checks + sharp[-1:]:
        print(f"check {c.name}: {'ok' if c.ok else 'FAIL'} {c.detail}")
    for c in bad[:20]:
        print(f"FAILED {c.name} (task {c.task}): {c.detail}")
    print(f"rounds: plain={[round(x, 4) for x in plain_s]} traced={[round(x, 4) for x in traced_s]}")

    if args.trace:
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        values = tracing.per_layer(setup_tracer, round_tracer, TRACE_SETUPS, len(traced_s), overhead)
    else:
        done = [r.per_task_accuracy[-1] for r in results if not r.aborted]
        values = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(plain_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "final_acc": (statistics.fmean(done) if done else 0.0, "frac"),
        }
    summary = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
