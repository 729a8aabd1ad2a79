"""Closed-loop simulator tests: determinism, trace I/O, integrator order,
and jump-resolution semantics."""

import dataclasses

import numpy as np
import pytest

from attkit.config import preset
from attkit.sim import (
    SimTrace,
    _renorm,
    SimulationError,
    load_trace,
    resolve_jumps,
    rk4_step,
    run_scenario,
    save_trace,
)

_ARRAY_FIELDS = [
    f.name
    for f in dataclasses.fields(SimTrace)
    if f.name not in ("name", "kind", "dt", "events")
]


def _short(name, seconds, **kwargs):
    cfg = preset(name, **kwargs)
    cfg.sim.t_final_s = seconds
    return cfg


def test_run_scenario_is_bitwise_deterministic():
    cfg = _short("example1", 5.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for field in _ARRAY_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field
    assert a.events == b.events


def test_trace_round_trip(tmp_path):
    trace = run_scenario(_short("example2", 5.0))
    save_trace(trace, tmp_path)
    loaded = load_trace(tmp_path)
    assert (loaded.name, loaded.kind, loaded.dt) == (trace.name, trace.kind, trace.dt)
    for field in _ARRAY_FIELDS:
        assert np.array_equal(getattr(loaded, field), getattr(trace, field), equal_nan=True), field
    assert loaded.events == trace.events


def test_rk4_step_exact_on_cubic():
    # RK4's quadrature is degree three, so y' = 3t^2 integrates exactly.
    y1 = rk4_step(lambda t, y: np.array([3.0 * t * t]), 2.0, np.array([8.0]), 0.5)
    assert y1[0] == pytest.approx(2.5**3, rel=1e-15)


def test_rk4_fourth_order_convergence(rk4_error_slopes):
    for slope in rk4_error_slopes:
        assert 3.7 < slope < 4.3


def test_resolve_jumps_full_state():
    assert resolve_jumps("full_state", 1, 1, -0.5, -0.9, 0.3) == (-1, 1, True)
    assert resolve_jumps("full_state", 1, 1, 0.9, 0.9, 0.3) == (1, 1, False)
    assert resolve_jumps("full_state", -1, 1, -0.2, 0.0, 0.3) == (-1, 1, False)


def test_resolve_jumps_biased_gyro_independent_logic():
    assert resolve_jumps("biased_gyro", 1, 1, -0.5, -0.4, 0.3) == (-1, -1, True)
    assert resolve_jumps("biased_gyro", 1, 1, 0.5, -0.4, 0.3) == (1, -1, True)
    # a non-violating h_tilde is left alone even if h jumps
    assert resolve_jumps("biased_gyro", 1, -1, -0.5, 0.2, 0.3) == (-1, -1, True)


def test_resolve_jumps_attitude_only_joint_reset():
    # the joint reset re-syncs *both* logic variables to their scalars
    assert resolve_jumps("attitude_only", 1, -1, -0.5, 0.2, 0.3) == (-1, 1, True)
    assert resolve_jumps("attitude_only", -1, 1, 0.5, -0.4, 0.3) == (1, -1, True)
    assert resolve_jumps("attitude_only", 1, -1, 0.9, -0.2, 0.3) == (1, -1, False)


def test_benchmark_noisy_run_records_one_jump(ex1_noisy):
    trace = ex1_noisy[0.6]
    assert len(trace.events) == 1
    ev = trace.events[0]
    assert 1.0 <= ev.t <= 2.0
    assert (ev.h_pre, ev.h_post) == (1, -1)
    assert (ev.ht_pre, ev.ht_post) == (1, 1)
    assert trace.h[ev.step] == -1 and trace.h[ev.step - 1] == 1


def test_all_benchmark_variants_jump_once(ex1_clean, ex1_noisy):
    for traces in (ex1_clean, ex1_noisy):
        for alpha1, trace in traces.items():
            assert len(trace.events) == 1, alpha1


def test_initial_lyapunov_value_and_nan_columns(ex1_clean):
    trace = ex1_clean[0.6]
    assert trace.v1[0] == pytest.approx(4.669014049064342, rel=1e-12)
    assert np.isnan(trace.v2).all() and np.isnan(trace.v3).all()
    assert np.isnan(trace.q_est_err).all()


def test_initial_logic_value_honored():
    cfg = _short("example1", 1.0, uncertainties=False)
    cfg.controller.h0 = -1
    trace = run_scenario(cfg)
    assert trace.h[0] == -1
    assert not any(ev.step == 0 for ev in trace.events)


def test_invalid_initial_logic_rejected():
    cfg = _short("example1", 1.0)
    cfg.controller.h0 = 0
    with pytest.raises(ValueError, match="h0 must be"):
        run_scenario(cfg)


def test_norm_drift_guard_trips_on_coarse_fast_spin():
    cfg = _short("fig3", 50.0)
    cfg.plant.omega0_rad_s = [3.0, 3.0, 3.0]
    cfg.sim.dt_s = 0.1
    with pytest.raises(SimulationError, match="norm drifted"):
        run_scenario(cfg)


def test_norm_drift_guard_trips_on_nan():
    with pytest.raises(SimulationError, match="drifted nan at step 3"):
        _renorm(np.array([1.0, np.nan, 0.0, 0.0]), 3)


def test_biased_gyro_trace_columns(ex2_clean):
    trace = ex2_clean
    assert trace.kind == "biased_gyro"
    b0 = np.array([0.01, -0.05, 0.02])
    assert np.array_equal(trace.b, np.broadcast_to(b0, trace.b.shape))  # no walk when clean
    assert np.linalg.norm(trace.b_hat[-1] - b0) < 1e-5
    assert np.isfinite(trace.v2).all() and np.isfinite(trace.v2m).all()
    assert np.isfinite(trace.q_est_err).all()
    assert np.isnan(trace.v3).all() and np.isnan(trace.v3m).all()
