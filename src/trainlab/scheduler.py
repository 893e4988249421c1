"""Per-layer sharpness-aware learning-rate controller.

Every K steps, each layer's effective step is compared against the
safety-scaled combined critical step: a layer stepping past gamma times its
safe limit (and past an absolute floor) is cooled by a multiplicative
factor; a layer far below the limit is warmed, but only during the early
fraction of the run.  All changes are clamped to a configured LR range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ConfigError
from .metrics import ThresholdReport

COOLED = "cooled"
WARMED = "warmed"
HELD = "held"


@dataclass(frozen=True)
class ControllerConfig:
    gamma: float = 0.8  # safety factor on the combined bound
    cool: float = 0.99
    warm: float = 1.01
    interval_k: int = 40  # steps between decisions
    abs_floor: float = 0.12  # never cool below this effective step
    warm_phase_frac: float = 0.3  # warm only while t < frac * T
    timid_frac: float = 0.5  # "far below" means alpha < timid_frac * gamma * safe
    eta_min: float = 1e-6
    eta_max: float = 1e-1

    def __post_init__(self):
        if not 0.0 < self.cool < 1.0 < self.warm:
            raise ConfigError(f"need 0 < cool < 1 < warm, got {self.cool}, {self.warm}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not self.eta_max > 0.0:
            raise ConfigError(f"eta_max must be > 0, got {self.eta_max}")
        if self.eta_min > self.eta_max:
            raise ConfigError(f"eta_min {self.eta_min} > eta_max {self.eta_max}")
        if self.interval_k < 1:
            raise ConfigError(f"interval_k must be >= 1, got {self.interval_k}")
        if not 0.0 <= self.warm_phase_frac <= 1.0:
            raise ConfigError(f"warm_phase_frac must be in [0, 1], got {self.warm_phase_frac}")
        if not 0.0 < self.timid_frac < 1.0:
            raise ConfigError(f"timid_frac must be in (0, 1), got {self.timid_frac}")


class Decision(NamedTuple):
    etas: dict[str, float]
    labels: dict[str, str]
    clamped: frozenset[str]


def decide(
    layer_reports: Sequence[ThresholdReport],
    t: int,
    T: int,
    etas: dict[str, float],
    cfg: ControllerConfig,
) -> Decision:
    """One controller decision over all layers (call only at K-step marks).

    Cooling is conjunctive: alpha must exceed both gamma * safe and the
    absolute floor.  Warming requires t < warm_phase_frac * T and
    alpha < timid_frac * gamma * safe.  Unarmed layers are held.  Returns a
    new LR map; clamped layers are reported by id.
    """
    new_etas = dict(etas)
    labels: dict[str, str] = {}
    clamped: set[str] = set()
    for rep in layer_reports:
        lid = rep.layer_id
        if lid not in etas:
            raise ConfigError(f"unknown layer id {lid!r} in controller decision")
        if not rep.armed:
            labels[lid] = HELD
            continue
        safe = rep.alpha_tilde_star
        if rep.alpha > cfg.gamma * safe and rep.alpha > cfg.abs_floor:
            value = etas[lid] * cfg.cool
            labels[lid] = COOLED
        elif t < cfg.warm_phase_frac * T and rep.alpha < cfg.timid_frac * cfg.gamma * safe:
            value = etas[lid] * cfg.warm
            labels[lid] = WARMED
        else:
            value = etas[lid]
            labels[lid] = HELD
        bounded = min(max(value, cfg.eta_min), cfg.eta_max)
        if bounded != value:
            clamped.add(lid)
        new_etas[lid] = bounded
    return Decision(new_etas, labels, frozenset(clamped))

