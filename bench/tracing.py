"""Span tracing of trainlab's layers from outside the package.

trainlab's modules bind the functions they call by name at import (the
runner does ``from .nn import loss_grad``), so a span wrapper has to replace
each name in the module where it is looked up.  ``Tracer.installed()`` swaps
the wrappers in and restores the originals on exit.  Each span records its
duration and the time its traced children covered; self time is the
difference, so the per-layer seconds of one round add up to the traced run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (module where the name is looked up, name, metric).  The training step's
# loss_grad is the runner's binding and the probe's is curvature's, so the
# two are told apart by where they are called from.
SPANS = (
    ("trainlab.runner", "load_source", "tasks.load_source"),
    ("trainlab.runner", "prepare", "tasks.prepare"),
    ("trainlab.runner", "run_seed", "runner.run_seed"),
    ("trainlab.runner", "write_log", "runner.write_log"),
    ("trainlab.runner", "loss_grad", "nn.loss_grad_train"),
    ("trainlab.runner", "per_sample_grads", "nn.per_sample_grads"),
    ("trainlab.runner", "mean_params", "nn.mean_params"),
    ("trainlab.runner", "forward", "nn.forward"),
    ("trainlab.nn", "regularizer_penalty", "nn.regularizer_penalty"),
    ("trainlab.runner", "adam_step", "optim.adam_step"),
    ("trainlab.runner", "effective_step", "optim.step_stats"),
    ("trainlab.runner", "agg_step", "optim.step_stats"),
    ("trainlab.runner", "top_eigenvalue", "curvature.top_eigenvalue"),
    ("trainlab.curvature", "hvp", "curvature.hvp"),
    ("trainlab.curvature", "loss_grad", "nn.loss_grad_hvp"),
    ("trainlab.runner", "minibatch_grad_variance", "metrics.grad_variance"),
    ("trainlab.runner", "push_and_stats", "metrics.report"),
    ("trainlab.runner", "build_report", "metrics.report"),
    ("trainlab.runner", "diagnostics", "metrics.report"),
    ("trainlab.runner", "normalized_sharpness", "metrics.report"),
    ("trainlab.runner", "decide", "scheduler.decide"),
)


class Tracer:
    """Self time, total time and calls per metric, plus observed counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_s: list[float] = []  # one accumulator per open span

    def _wrap(self, fn, metric):
        observe = _OBSERVERS.get(metric)

        def span(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                self.self_s[metric] += dt - child
                self.total_s[metric] += dt
                self.calls[metric] += 1
                if self._child_s:
                    self._child_s[-1] += dt
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return span

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, name, metric in SPANS:
                module = importlib.import_module(module_name)
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, metric))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)


def _observe_eigen(counts, args, out):
    counts["converged"] += bool(out.converged)


def _observe_per_sample(counts, args, out):
    params, _act, batch = args[:3]
    counts["per_sample_grads_mb"] = max(
        counts["per_sample_grads_mb"], batch.size * params.n_params * 8 / 1e6
    )


def _observe_decide(counts, args, out):
    labels = list(out.labels.values())
    counts["cooled"] += labels.count("cooled")
    counts["warmed"] += labels.count("warmed")


def _observe_write_log(counts, args, out):
    counts["log_bytes"] += os.path.getsize(args[2])


_OBSERVERS = {
    "curvature.top_eigenvalue": _observe_eigen,
    "nn.per_sample_grads": _observe_per_sample,
    "scheduler.decide": _observe_decide,
    "runner.write_log": _observe_write_log,
}


# Self-time metrics per traced round, and the ones whose call counts are reported.
ROUND_SPANS = (
    "nn.loss_grad_train",
    "nn.regularizer_penalty",
    "nn.per_sample_grads",
    "nn.mean_params",
    "nn.forward",
    "nn.loss_grad_hvp",
    "optim.adam_step",
    "optim.step_stats",
    "curvature.top_eigenvalue",
    "curvature.hvp",
    "metrics.grad_variance",
    "metrics.report",
    "scheduler.decide",
    "runner.write_log",
)
COUNTED_SPANS = (
    "nn.loss_grad_train",
    "nn.regularizer_penalty",
    "nn.per_sample_grads",
    "nn.loss_grad_hvp",
    "optim.adam_step",
    "metrics.grad_variance",
)


def per_layer(setup: Tracer, rounds: Tracer, n_setups: int, n_rounds: int, overhead_s: float):
    """Per-layer metrics: set-up spans per set-up, everything else per traced round."""
    out: dict[str, tuple[float, str]] = {}
    for name in ("tasks.load_source", "tasks.prepare"):
        out[f"{name}_s"] = (setup.self_s[name] / n_setups, "s")
    for name in ROUND_SPANS:
        out[f"{name}_s"] = (rounds.self_s[name] / n_rounds, "s")
    for name in COUNTED_SPANS:
        out[f"{name}_calls"] = (rounds.calls[name] / n_rounds, "count")
    probes = rounds.calls["curvature.top_eigenvalue"]
    out["nn.per_sample_grads_mb"] = (rounds.counts["per_sample_grads_mb"], "MB")
    out["curvature.probes"] = (probes / n_rounds, "count")
    out["curvature.hvps_per_probe"] = (rounds.calls["curvature.hvp"] / max(probes, 1), "count")
    out["curvature.converged_frac"] = (rounds.counts["converged"] / max(probes, 1), "frac")
    out["scheduler.decisions"] = (rounds.calls["scheduler.decide"] / n_rounds, "count")
    out["scheduler.cooled"] = (rounds.counts["cooled"] / n_rounds, "count")
    out["scheduler.warmed"] = (rounds.counts["warmed"] / n_rounds, "count")
    out["runner.run_seed_s"] = (rounds.total_s["runner.run_seed"] / n_rounds, "s")
    out["runner.self_s"] = (rounds.self_s["runner.run_seed"] / n_rounds, "s")
    out["runner.log_bytes"] = (rounds.counts["log_bytes"] / n_rounds, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
