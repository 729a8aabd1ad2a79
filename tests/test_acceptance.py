"""Release gate: every benchmark criterion checked at its stated tolerance.

One test per sub-criterion, so `pytest -v` reads as a pass/fail scorecard.
Failing entries here are real, reproducible properties of the implementation;
they are kept failing deliberately instead of loosening the criterion.
"""

import numpy as np
import pytest

from attkit.analysis import (
    ERROR_SYSTEMS,
    bound_checks,
    convergence_metrics,
    chord_rate,
    dilation_weights,
    error_norm,
    full_state_reduced_field,
    full_state_remainder,
    homogeneity_check,
    min_jump_decrease,
    observer_error_flow,
    observer_reduced_field,
    observer_remainder,
    output_feedback_reduced_field,
    output_feedback_remainder,
    perturbation_vanishing_check,
    potential_term,
)
from attkit.config import preset
from attkit.controllers import FullStateGains, ObserverGains, OutputFeedbackGains
from attkit.quat import (
    axis_pow,
    chord_gap,
    chord_pow,
    random_unit_quat,
)
from attkit.rigid_body import Inertia, sinusoid_trajectory
from attkit.sim import rk4_step, run_scenario

from conftest import from_axis_angle

FS_GAINS = FullStateGains(k1=1.1, k2=4.0, alpha1=0.6, delta=0.3)
OBS_GAINS = ObserverGains(mu1=0.33, mu2=0.12, beta1=0.75)
OF_GAINS = OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=0.75, delta=0.3)
INERTIA = Inertia([[15.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]])

SIGMA1 = 1.1534011537010715
SIGMA2 = 0.13233584473001533  # mu2, beta1, delta = 0.12, 0.75, 0.3
SIGMA3 = 1.2167631362748972


def _settling(trace):
    return convergence_metrics(trace).settling_time_s


# ---------------------------------------------------------------------------
# 1. Full-state benchmark settling times (threshold 1e-3, last crossing)


def test_c01a_settling_alpha1_06(ex1_clean):
    # The 55 s +-30% centre has no stated source in this repository (the
    # paper's abstract gives no settling times).  Measured: 43.04 s from the
    # simulator, 42.997 s when analysis.full_state_error_flow is integrated
    # directly (dt = 1e-3 s).  Both lie inside.
    assert 38.5 <= _settling(ex1_clean[0.6]) <= 71.5


def test_c01b_settling_alpha1_08(ex1_clean):
    # Measured settling under this threshold convention is ~43.3 s, below the
    # stated 75 s +-30% window.  The window is kept as stated: the controller
    # reaches the 1e-3 error floor faster than the window anticipates, and
    # widening it here would hide that discrepancy.  The stated pair (55 s at
    # alpha1 = 0.6, 75 s at 0.8) expects a clear slowdown; the program gives
    # 43.04 s against 43.26 s.  The source of the 75 s figure (the paper's
    # simulation section and parameters) is not in this repository.
    assert 52.5 <= _settling(ex1_clean[0.8]) <= 97.5


def test_c01c_smooth_limit_settles_slowest(ex1_clean):
    t06, t08, t10 = (_settling(ex1_clean[a]) for a in (0.6, 0.8, 1.0))
    assert t10 > t06 and t10 > t08


# ---------------------------------------------------------------------------
# 2. Rest-to-rest 180-degree regulation


def test_c02_regulation_settling(fig3_trace):
    assert 24.5 <= _settling(fig3_trace) <= 45.5


# ---------------------------------------------------------------------------
# 3. Hysteresis behavior on the noisy benchmark


def test_c03_single_early_jump(ex1_noisy):
    events = ex1_noisy[0.6].events
    assert len(events) == 1
    ev = events[0]
    assert 1.0 <= ev.t <= 2.0
    assert (ev.h_pre, ev.h_post) == (1, -1)


# ---------------------------------------------------------------------------
# 4. Lyapunov certificates along continuous error flows


def test_c04a_flow_monotonicity(flow_full_state, flow_observer, flow_attitude_only):
    assert flow_full_state.flow_excess["v1"] <= 0.0
    assert flow_observer.flow_excess["v2_matched"] <= 0.0
    assert flow_attitude_only.flow_excess["v3_matched"] <= 0.0


def test_c04b_jump_decreases(flow_full_state, flow_observer_jump):
    assert flow_full_state.jump_drops["v1"][0] >= SIGMA1 - 1e-9
    assert flow_observer_jump.jump_drops["v2"][0] >= SIGMA2 - 1e-9


def test_c04c_v1_rate_matches_finite_difference(flow_full_state):
    assert flow_full_state.fd_rel_error["v1"] <= 1e-4


def test_c04d_v2_rate_matches_finite_difference(flow_observer):
    # The certified observer candidate, v2_matched (potential exponent
    # 1 + beta2, the one cli.verify and c04a use), follows its rate.
    assert flow_observer.fd_rel_error["v2_matched"] <= 1e-4
    # The reference candidate v2 (potential exponent 1 + beta1) follows its
    # exact derivative along observer_error_flow, whose bias channel is
    # mu2 chord_pow(h~ Q_err, 1 - beta2) with beta2 = 2 beta1 - 1:
    #   -mu1 mu2 |K_a|^2 + mu2 b_err'(K_b - K_a),
    # K_a = chord_pow(h~ Q_err, 1 - beta1), K_b = chord_pow(h~ Q_err, 1 - beta2).
    # Its reported rate, chord_rate with a = b = beta1, omits the cross term,
    # which vanishes only at beta1 = 1 and has no sign, so it misses the same
    # bound on the same states.  beta2 = 2 beta1 - 1 is what makes the reduced field homogeneous
    # (c09a), so the flow cannot be bent to the reference rate.  States are
    # sampled each second over the first 10 s of the fixture's jump-free run
    # (h~ = 1 throughout), and the rate is a central difference along the
    # flow vector.
    assert flow_observer.jump_times == ()
    g = OBS_GAINS
    flow = observer_error_flow(g)
    v2 = lambda yy: 0.5 * yy[4:7] @ yy[4:7] + potential_term(g.mu2, yy[0], 1.0 + g.beta1)
    y = np.concatenate([from_axis_angle([1.0, -2.0, 0.5], 2.0), [0.01, -0.05, 0.02]])
    dt, eps = 5e-3, 1e-6
    exact_err, reported_err = [], []
    for _ in range(11):
        q_err, b_err = y[0:4], y[4:7]
        f = np.asarray(flow(0.0, y, 1, 1))
        fd = (v2(y + eps * f) - v2(y - eps * f)) / (2.0 * eps)
        k_a = np.asarray(chord_pow(q_err, 1.0 - g.beta1))
        k_b = np.asarray(chord_pow(q_err, 1.0 - g.beta2))
        exact = -g.mu1 * g.mu2 * (k_a @ k_a) + g.mu2 * (b_err @ (k_b - k_a))
        reported = chord_rate(tuple(q_err[:, None]), np.ones(1), g.mu1 * g.mu2, g.beta1, g.beta1)[0]
        exact_err.append(abs(fd - exact) / abs(exact))
        reported_err.append(abs(fd - reported) / abs(reported))
        for _ in range(200):  # 1 s; the flow is autonomous
            y = np.asarray(rk4_step(lambda t, yy: flow(t, yy, 1, 1), 0.0, y, dt))
            y[0:4] /= np.linalg.norm(y[0:4])
    assert max(exact_err) <= 1e-4
    assert max(reported_err) > 1e-4


# ---------------------------------------------------------------------------
# 5. Jump-count bounds over randomized initial conditions


@pytest.fixture(scope="module")
def randomized_batches():
    rng = np.random.default_rng(20240823)
    traj = sinusoid_trajectory()
    reports = []
    total_events = 0
    for _ in range(50):
        cfg = preset("example1", uncertainties=False)
        cfg.plant.q0 = list(random_unit_quat(rng))
        cfg.plant.omega0_rad_s = list(rng.uniform(-0.5, 0.5, 3))
        cfg.sim.t_final_s = 25.0
        trace = run_scenario(cfg)
        total_events += len(trace.events)
        reports.append(bound_checks(trace, FS_GAINS, INERTIA, traj))
    for _ in range(50):
        cfg = preset("example2", uncertainties=False)
        cfg.plant.q0 = list(random_unit_quat(rng))
        cfg.plant.omega0_rad_s = list(rng.uniform(-0.5, 0.5, 3))
        cfg.plant.bias0_rad_s = list(rng.uniform(-0.05, 0.05, 3))
        cfg.observer.q_hat0 = list(random_unit_quat(rng))
        cfg.sim.t_final_s = 30.0
        trace = run_scenario(cfg)
        total_events += len(trace.events)
        reports.append(bound_checks(trace, FS_GAINS, INERTIA, traj, observer_gains=OBS_GAINS))
    return reports, total_events


def test_c05_jump_counts_within_lyapunov_budget(randomized_batches):
    reports, total_events = randomized_batches
    assert len(reports) == 100
    assert all(rep.jump_ok for rep in reports)
    assert total_events >= 1  # the budget is exercised, not vacuously satisfied


# ---------------------------------------------------------------------------
# 6. Torque bounds


def test_c06_torque_within_closed_form_bound(ex1_noisy, ex2_noisy, ex3_noisy, fig3_trace):
    trace = ex1_noisy[0.6]
    rep = bound_checks(trace, FS_GAINS, INERTIA, sinusoid_trajectory())
    assert (np.abs(trace.u_cmd) < rep.torque_bound_nm).all()
    for tr in (ex1_noisy[0.6], ex2_noisy, ex3_noisy[0.75], fig3_trace):
        assert float(np.abs(tr.u_cmd).max()) < 5.0  # never reaches the actuator limit


# ---------------------------------------------------------------------------
# 7. Gyro-bias estimation


def test_c07a_bias_recovered_in_half_horizon(ex2_clean):
    err = np.abs(ex2_clean.b - ex2_clean.b_hat).max(axis=1)  # per-axis accuracy
    above = np.flatnonzero(err >= 1e-6)
    assert above.size > 0 and above[-1] < err.size - 1
    t_rec = float(ex2_clean.t[above[-1] + 1])
    assert t_rec <= 0.5 * float(ex2_clean.t[-1])


def test_c07b_noisy_bias_error_near_walk_floor(ex2_noisy):
    cfg = preset("example2")
    walk = cfg.noise.bias_walk_rad_s2
    floor = walk * np.sqrt(cfg.sim.dt_s * cfg.sim.t_final_s)
    err = np.linalg.norm(ex2_noisy.b - ex2_noisy.b_hat, axis=1)
    tail = err[int(np.floor(0.8 * err.size)):]
    assert float(np.sqrt(np.mean(tail**2))) < 5.0 * floor


# ---------------------------------------------------------------------------
# 8. Velocity-free benchmark


def test_c08a_attitude_only_converges(ex3_clean):
    # converged at 1e-2: the error norm ends the run below it
    for alpha3, trace in ex3_clean.items():
        assert error_norm(trace)[-1] < 1e-2, alpha3


def test_c08b_noisy_floor_shrinks_as_exponent_drops(ex3_noisy):
    # Same direction as the full-state benchmark: the more aggressive
    # fractional exponent gives the smaller noisy steady-state floor.
    sse = {a: convergence_metrics(tr).steady_state_error for a, tr in ex3_noisy.items()}
    assert sse[1.0] > sse[0.85] > sse[0.75]


# ---------------------------------------------------------------------------
# 9. Homogeneity of the reduced closed loops


def test_c09a_reduced_fields_homogeneous():
    cases = [
        (full_state_reduced_field(INERTIA, FS_GAINS), dilation_weights(FS_GAINS.alpha1, 1)),
        (observer_reduced_field(OBS_GAINS), dilation_weights(OBS_GAINS.beta2, 1)),
        (output_feedback_reduced_field(INERTIA, OF_GAINS), dilation_weights(OF_GAINS.alpha1, 2)),
    ]
    for field, weights in cases:
        assert homogeneity_check(field, weights, n_samples=10_000) < 1e-9


def test_c09b_perturbations_vanish_under_dilation():
    traj = sinusoid_trajectory()
    cases = [
        (full_state_remainder(INERTIA, FS_GAINS, traj), dilation_weights(FS_GAINS.alpha1, 1)),
        (observer_remainder(OBS_GAINS), dilation_weights(OBS_GAINS.beta2, 1)),
        (output_feedback_remainder(INERTIA, OF_GAINS, traj), dilation_weights(OF_GAINS.alpha1, 2)),
    ]
    n_blocks = 0
    for (remainder, weights), system in zip(cases, ("full_state", "observer", "attitude_only")):
        blocks = ERROR_SYSTEMS[system].blocks
        report = perturbation_vanishing_check(remainder, weights, blocks, n_samples=200)
        for name, ratios in report.items():
            n_blocks += 1
            assert all(a > b for a, b in zip(ratios, ratios[1:])), (name, ratios)
    assert n_blocks == 7


# ---------------------------------------------------------------------------
# 10. Numerical foundations


def test_c10a_chord_pow_bounded_on_unit_quaternions():
    rng = np.random.default_rng(100)
    for _ in range(100_000):
        q = random_unit_quat(rng)
        a = rng.uniform(0.0, 1.0)
        assert float(np.linalg.norm(chord_pow(q, a))) <= 1.0 + 1e-12


def test_c10b_chord_gap_near_identity_ratio():
    # (chord_gap . axis_pow) / (rho^2 ||axis_pow||^2) -> -alpha/8 as rho -> 0;
    # the measured rho^2 coefficient of the deviation is <= 0.045 over this
    # sampling range, so 0.08 bounds it with margin.
    rng = np.random.default_rng(321)
    n = 100_000
    rho = 10.0 ** rng.uniform(-3.0, np.log10(0.5), n)
    alpha = rng.uniform(0.0, 1.0, n)
    for i in range(n):
        ax = rng.standard_normal(3)
        ax /= np.linalg.norm(ax)
        q = np.concatenate(([np.sqrt(1.0 - rho[i] ** 2)], rho[i] * ax))
        k0 = axis_pow(q[1:], alpha[i])
        ratio = float(chord_gap(q, alpha[i]) @ k0) / (rho[i] ** 2 * float(k0 @ k0))
        assert abs(ratio + alpha[i] / 8.0) <= 0.08 * rho[i] ** 2 + 1e-12


def test_c10c_error_coordinates_consistent(
    dual_gap_full_state, dual_gap_observer, dual_gap_attitude_only
):
    assert dual_gap_full_state <= 1e-6
    assert dual_gap_observer <= 1e-6
    assert dual_gap_attitude_only <= 1e-6


def test_c10d_integrator_is_fourth_order(rk4_error_slopes):
    for slope in rk4_error_slopes:
        assert 3.7 < slope < 4.3
