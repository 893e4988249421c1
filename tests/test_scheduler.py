import math

import pytest

from trainlab.errors import ConfigError
from trainlab.metrics import ThresholdReport
from trainlab.scheduler import (
    COOLED,
    HELD,
    WARMED,
    ControllerConfig,
    decide,
)

CFG = ControllerConfig()


def report(layer_id="fc1", alpha=0.2, safe=0.1875, armed=True, flags=(), vol=0.5):
    return ThresholdReport(
        layer_id=layer_id,
        alpha=alpha,
        alpha_g_star=safe * 2,
        alpha_vol_star=safe * 3,
        cantelli_cap=safe * 4,
        sigma_ps_sq=1.0,
        sigma_tilde_sq=2.0,
        alpha_tilde_star=safe,
        vol=vol,
        armed=armed,
        flags=tuple(flags),
    )


def test_cooling_example():
    # gamma * safe = 0.8 * 0.1875 = 0.15 < alpha = 0.2, and alpha > 0.12
    dec = decide([report(alpha=0.2, safe=0.1875)], t=100, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == COOLED
    assert dec.etas["fc1"] == pytest.approx(0.99e-3, rel=1e-15)


def test_absolute_floor_blocks_cooling():
    dec = decide([report(alpha=0.05, safe=1e-9)], t=100, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == HELD
    assert dec.etas["fc1"] == 1e-3


def test_warm_window_closed_midrun():
    dec = decide([report(alpha=1e-6, safe=10.0)], t=500, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == HELD


def test_warming_early_timid_layer():
    # alpha < timid_frac * gamma * safe = 0.5 * 0.8 * 10 = 4
    dec = decide([report(alpha=0.01, safe=10.0)], t=10, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == WARMED
    assert dec.etas["fc1"] == pytest.approx(1.01e-3, rel=1e-15)


def test_no_warming_at_exact_phase_boundary():
    dec = decide([report(alpha=0.01, safe=10.0)], t=300, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == HELD


def test_timid_threshold_is_strict():
    safe = 1.0
    boundary = CFG.timid_frac * CFG.gamma * safe
    dec = decide([report(alpha=boundary, safe=safe)], t=1, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
    assert dec.labels["fc1"] == HELD


def test_unarmed_layers_held():
    dec = decide(
        [report(alpha=5.0, safe=1e-9, armed=False, flags=("unarmed",))],
        t=100,
        T=1000,
        etas={"fc1": 1e-3},
        cfg=CFG,
    )
    assert dec.labels["fc1"] == HELD
    assert dec.etas["fc1"] == 1e-3


def test_unknown_layer_id():
    with pytest.raises(ConfigError):
        decide([report(layer_id="nope")], t=1, T=10, etas={"fc1": 1e-3}, cfg=CFG)


def test_geometric_decay_closed_form():
    etas = {"fc1": 1e-3}
    for k in range(100):
        dec = decide([report(alpha=0.5, safe=0.01)], t=1000, T=1000, etas=etas, cfg=CFG)
        assert dec.labels["fc1"] == COOLED
        etas = dec.etas
    assert etas["fc1"] == pytest.approx(1e-3 * 0.99**100, rel=1e-12)


def test_single_factor_per_decision():
    for alpha, safe, t in [(0.5, 0.01, 900), (0.01, 10.0, 10), (0.1, 0.5, 900)]:
        dec = decide([report(alpha=alpha, safe=safe)], t=t, T=1000, etas={"fc1": 1e-3}, cfg=CFG)
        ratio = dec.etas["fc1"] / 1e-3
        assert ratio in (CFG.cool, CFG.warm, 1.0)
        assert abs(math.log(ratio)) <= max(abs(math.log(CFG.cool)), math.log(CFG.warm)) + 1e-12


def test_eta_clamped_to_range():
    cfg = ControllerConfig(eta_min=9.95e-4, eta_max=1.005e-3)
    dec = decide([report(alpha=0.5, safe=0.01)], t=900, T=1000, etas={"fc1": 1e-3}, cfg=cfg)
    assert dec.etas["fc1"] == cfg.eta_min
    assert "fc1" in dec.clamped
    dec = decide([report(alpha=0.01, safe=10.0)], t=10, T=1000, etas={"fc1": 1e-3}, cfg=cfg)
    assert dec.etas["fc1"] == cfg.eta_max
    assert "fc1" in dec.clamped


def test_multi_layer_independent_decisions():
    reports = [
        report("fc1", alpha=0.5, safe=0.01),
        report("fc2", alpha=0.01, safe=10.0),
    ]
    dec = decide(reports, t=10, T=1000, etas={"fc1": 1e-3, "fc2": 2e-3}, cfg=CFG)
    assert dec.labels == {"fc1": COOLED, "fc2": WARMED}
    assert dec.etas["fc1"] == pytest.approx(0.99e-3)
    assert dec.etas["fc2"] == pytest.approx(2.02e-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        ControllerConfig(cool=1.2)
    with pytest.raises(ConfigError):
        ControllerConfig(warm=0.9)
    with pytest.raises(ConfigError):
        ControllerConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        ControllerConfig(eta_min=1.0, eta_max=0.1)
    for eta_max in (0.0, -1e-3, float("nan")):
        with pytest.raises(ConfigError, match="eta_max"):
            ControllerConfig(eta_min=-1.0, eta_max=eta_max)
    with pytest.raises(ConfigError, match="eta_min"):
        ControllerConfig(eta_min=float("nan"))
    with pytest.raises(ConfigError, match="abs_floor"):
        ControllerConfig(abs_floor=float("nan"))
    ControllerConfig(eta_min=-1.0, abs_floor=-1.0)  # negative bounds stay legal


# ---------------------------------------------------------------------------
# the crossing test on the report


def test_crossing_strict_inequality():
    assert not report(alpha=0.1875, safe=0.1875).crossed


def test_crossing_capped_or_unarmed_false_with_flag():
    reports = [
        report("fc1", alpha=9.0, safe=1.0, flags=("tilde_capped",)),
        report("fc2", alpha=9.0, safe=1.0, armed=False),
        report("fc3", alpha=9.0, safe=1.0),
    ]
    assert {r.layer_id: r.crossed for r in reports} == {"fc1": False, "fc2": False, "fc3": True}


def test_crossing_direct_comparison():
    assert report(alpha=0.3, safe=0.2).crossed is True
