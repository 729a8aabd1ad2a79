"""Lyapunov candidates, homogeneity machinery, and run-bound tests.

Reference values were computed independently at 40-digit precision and frozen
here as nearest-double literals.
"""

import itertools
import json
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from attkit import analysis, controllers, rigid_body
from attkit.analysis import (
    ERROR_SYSTEMS,
    DilationWeights,
    bound_checks,
    chord_rate,
    convergence_metrics,
    dilation_weights,
    error_norm,
    full_state_reduced_field,
    full_state_remainder,
    homogeneity_check,
    lyapunov_v1,
    min_joint_jump_decrease,
    min_jump_decrease,
    observer_reduced_field,
    observer_remainder,
    output_feedback_reduced_field,
    output_feedback_remainder,
    perturbation_vanishing_check,
    v1_flow_rate,
)
from attkit.config import preset
from attkit.controllers import (
    FullStateGains,
    ObserverGains,
    OutputFeedbackGains,
    full_state_torque,
    output_feedback_torque,
)
from attkit.integrate import rk4_step
from attkit.quat import (
    ZERO_TOL,
    chord_potential,
    chord_pow,
    chord_pow_columns,
    dot,
    random_unit_quat,
    sat_pow,
)
from attkit.rigid_body import DesiredTrajectory, Inertia, sinusoid_trajectory
from attkit.sim import run_scenario

from conftest import composed_error_dynamics_rate, kinematics_rate, stable_chord_pow

BENCH_J = [[15.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]]
BENCH_Q_E0 = np.array([0.0, 0.6, -0.8, 0.0])
BENCH_W_E0 = np.array([0.3, -0.4, 0.0])

FS_GAINS = FullStateGains(k1=1.1, k2=4.0, alpha1=0.6, delta=0.3)
OBS_GAINS = ObserverGains(mu1=0.33, mu2=0.12, beta1=0.75)
OF_GAINS = OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=0.75, delta=0.3)

INERTIA = Inertia(BENCH_J)
FLIP_X = np.array([0.0, 1.0, 0.0, 0.0])
IDENT = np.array([1.0, 0.0, 0.0, 0.0])
ZERO3 = np.zeros(3)

V1_BENCH = 4.669014049064342
V2_REF = 0.2777711089932813
V2_MATCHED = 0.29533685288118866
V3_REF = 7.721290708677512
V3_MATCHED = 8.07260558643566
SIGMA1 = 1.1534011537010715
SIGMA2_PRINTED = 0.13233584473001533
SIGMA2_MATCHED = 0.12167631362748972
SIGMA3 = 1.2167631362748972
V1_RATE = -0.23925580499539528
V2M_RATE = -0.030535774343077228
V2R_RATE = -0.033299498044047096
V3M_RATE = -2.0357182895384818
V3R_RATE = -2.6639598435237675

EX1_TORQUE_BOUND = 5.109464101615138  # k1 + k2 + (w1^2 + w2)*||J||
EX1_TORQUE_ALT = 5.449874263128913  # k1 + k2 + (w1 + w2)*||J||
EX3_TORQUE_BOUND = 3.949874263128913
EX3_TORQUE_ALT = 3.609464101615138


# ---------------------------------------------------------------------------
# Lyapunov candidates and jump decreases


def test_lyapunov_v1_reference_value():
    v = lyapunov_v1(BENCH_Q_E0, BENCH_W_E0, 1, INERTIA, 1.1, 0.6)
    assert v == pytest.approx(V1_BENCH, rel=1e-13)


def test_lyapunov_v1_zeros_at_matched_equilibria():
    assert abs(lyapunov_v1(IDENT, ZERO3, 1, INERTIA, 1.1, 0.6)) <= 1e-12
    assert abs(lyapunov_v1(-IDENT, ZERO3, -1, INERTIA, 1.1, 0.6)) <= 1e-12
    # the equilibrium with the opposite logic sign carries the full potential
    assert lyapunov_v1(-IDENT, ZERO3, 1, INERTIA, 1.1, 0.6) > 1.0


def test_lyapunov_v2_reference_values():
    y = np.concatenate([FLIP_X, [0.1, -0.2, 0.05]])  # mu2 = 0.12, beta1 = 0.75
    v = ERROR_SYSTEMS["observer"].candidates(y, 1, 1, OBS_GAINS, None)
    assert v["v2"] == pytest.approx(V2_REF, rel=1e-13)
    assert v["v2_matched"] == pytest.approx(V2_MATCHED, rel=1e-13)


def test_lyapunov_v3_reference_values():
    y = np.concatenate([FLIP_X, FLIP_X, ZERO3])
    v = ERROR_SYSTEMS["attitude_only"].candidates(y, 1, 1, OF_GAINS, INERTIA)
    assert v["v3"] == pytest.approx(V3_REF, rel=1e-13)
    assert v["v3_matched"] == pytest.approx(V3_MATCHED, rel=1e-13)


def test_min_jump_decrease_values():
    assert min_jump_decrease(1.1, 0.6, 0.3) == pytest.approx(SIGMA1, rel=1e-13)
    assert min_jump_decrease(0.12, 0.75, 0.3) == pytest.approx(SIGMA2_PRINTED, rel=1e-13)
    assert min_jump_decrease(0.12, 0.5, 0.3) == pytest.approx(SIGMA2_MATCHED, rel=1e-13)
    assert min_joint_jump_decrease(OF_GAINS, 0.3) == pytest.approx(SIGMA3, rel=1e-13)
    # same exponent and delta, gain ratio 1.2/0.12
    assert SIGMA3 == pytest.approx(10.0 * SIGMA2_MATCHED, rel=1e-15)


@pytest.mark.parametrize(
    "kind, gains",
    [("full_state", FS_GAINS), ("observer", OBS_GAINS), ("attitude_only", OF_GAINS)],
)
def test_sigma_uses_the_delta_it_is_handed(kind, gains):
    # attitude_only's sigma read g.delta, so sigma(g, 0.6) was sigma at 0.3
    sigma = ERROR_SYSTEMS[kind].sigma
    assert sigma(gains, 0.6) > sigma(gains, 0.3)


def test_min_jump_decrease_matches_potential_difference():
    for gain, alpha, delta in [(1.1, 0.6, 0.3), (0.12, 0.5, 0.3), (2.4, 0.5, 0.1)]:
        a = 1.0 + alpha
        direct = (2.0 * gain / a) * (chord_potential(-delta, a) - chord_potential(delta, a))
        assert min_jump_decrease(gain, alpha, delta) == pytest.approx(direct, rel=1e-14)


def _point(y):
    """One point as a tuple of (1,) columns, the form the rate kernels take."""
    return tuple(np.array([x]) for x in np.asarray(y, dtype=float).tolist())


def test_flow_rate_reference_values():
    assert v1_flow_rate(_point([0.2, 0.0, 0.0]), FS_GAINS)[0] == pytest.approx(
        V1_RATE, rel=1e-13
    )
    one = np.ones(1)
    r2 = ERROR_SYSTEMS["observer"].rates(_point([*FLIP_X, *ZERO3]), one, one, OBS_GAINS)
    assert r2["v2_matched"][0] == pytest.approx(V2M_RATE, rel=1e-13)
    assert r2["v2"][0] == pytest.approx(V2R_RATE, rel=1e-13)
    y3 = _point([*FLIP_X, *FLIP_X, *ZERO3])
    r3 = ERROR_SYSTEMS["attitude_only"].rates(y3, one, one, OF_GAINS)
    assert r3["v3_matched"][0] == pytest.approx(V3M_RATE, rel=1e-13)
    assert r3["v3"][0] == pytest.approx(V3R_RATE, rel=1e-13)


# ---------------------------------------------------------------------------
# Homogeneity of the reduced fields


def test_dilation_weights_validation():
    w = DilationWeights(np.array([1.0, 2.0]), -0.2)
    assert np.allclose(w.scale(np.array([3.0, 3.0]), 0.5), [1.5, 0.75])
    with pytest.raises(ValueError):
        DilationWeights(np.array([1.0, 0.0]), -0.2)
    assert DilationWeights(np.array([1.0, 1.0]), 0.0).k == 0.0  # the linear limit's degree
    with pytest.raises(ValueError, match="must not be positive"):
        DilationWeights(np.array([1.0, 2.0]), 0.1)


def test_scale_takes_a_column_block_row_by_row():
    # a square block is where scaling by column instead of by row would go unseen
    weights = dilation_weights(FS_GAINS.alpha1, 1)
    xs = np.random.default_rng(3).standard_normal((6, 6))
    got = weights.scale(xs, 0.1)
    for i in range(6):
        assert np.array_equal(got[i], 0.1 ** weights.r[i] * xs[i]), i
        assert np.array_equal(got[:, i], weights.scale(xs[:, i], 0.1)), i


def test_weight_builders_reject_degenerate_exponents():
    # p = beta2 = 0 at beta1 = 0.5 has no dilation, nor does p outside (0, 1]
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="0 < p <= 1"):
            dilation_weights(p, 1)
    # p = 1 (alpha1 = 1, beta1 = 1, alpha3 = 1) is the standard dilation of degree 0
    for quat_blocks in (1, 2):
        weights = dilation_weights(1.0, quat_blocks)
        assert np.array_equal(weights.r, np.ones(3 * quat_blocks + 3)) and weights.k == 0.0
    assert dilation_weights(FS_GAINS.alpha1, 1).r.size == 6
    assert dilation_weights(OBS_GAINS.beta2, 1).r.size == 6
    assert dilation_weights(OF_GAINS.alpha1, 2).r.size == 9


def test_reduced_fields_are_homogeneous():
    checks = [
        (full_state_reduced_field(INERTIA, FS_GAINS), dilation_weights(FS_GAINS.alpha1, 1)),
        (observer_reduced_field(OBS_GAINS), dilation_weights(OBS_GAINS.beta2, 1)),
        (output_feedback_reduced_field(INERTIA, OF_GAINS), dilation_weights(OF_GAINS.alpha1, 2)),
    ]
    for field, weights in checks:
        assert homogeneity_check(field, weights, n_samples=2000) < 1e-9


def test_homogeneity_check_is_exact_at_unit_dilation(monkeypatch):
    field = full_state_reduced_field(INERTIA, FS_GAINS)
    weights = dilation_weights(FS_GAINS.alpha1, 1)
    monkeypatch.setattr(analysis, "HOMOGENEITY_EPS", (1.0,))
    assert homogeneity_check(field, weights, n_samples=50) == 0.0


def test_homogeneity_check_flags_wrong_weights():
    field = full_state_reduced_field(INERTIA, FS_GAINS)
    good = dilation_weights(FS_GAINS.alpha1, 1)
    bad = DilationWeights(good.r * np.array([1.0, 1.0, 1.0, 1.1, 1.1, 1.1]), good.k)
    assert homogeneity_check(field, bad, n_samples=200) > 1e-3


def test_perturbation_blocks_vanish_under_dilation():
    traj = sinusoid_trajectory()
    cases = [
        (full_state_remainder(INERTIA, FS_GAINS, traj), dilation_weights(FS_GAINS.alpha1, 1)),
        (observer_remainder(OBS_GAINS), dilation_weights(OBS_GAINS.beta2, 1)),
        (output_feedback_remainder(INERTIA, OF_GAINS, traj), dilation_weights(OF_GAINS.alpha1, 2)),
    ]
    seen = []
    for (remainder, weights), system in zip(cases, ("full_state", "observer", "attitude_only")):
        blocks = ERROR_SYSTEMS[system].blocks
        report = perturbation_vanishing_check(remainder, weights, blocks, n_samples=100)
        for name, ratios in report.items():
            seen.append(name)
            assert all(a > b for a, b in zip(ratios, ratios[1:])), (name, ratios)
    assert len(seen) == 7


def test_remainder_trajectory_coupling_vanishes_under_dilation():
    # At t = 0 the sinusoid's rate is zero, which leaves the remainder's
    # trajectory-coupling terms (gyroscopic transport of w_d) unexercised; a
    # constant nonzero desired rate drives them.
    def held(w_d):
        return DesiredTrajectory(
            q_d_fn=lambda t: (1.0, 0.0, 0.0, 0.0),
            omega_fn=lambda t: w_d,
            omega_dot_fn=lambda t: (0.0, 0.0, 0.0),
            omega_bound=float(np.linalg.norm(w_d)),
            omega_dot_bound=0.0,
        )

    for system, gains in (("full_state", FS_GAINS), ("attitude_only", OF_GAINS)):
        es = ERROR_SYSTEMS[system]
        report, still = (
            perturbation_vanishing_check(es.remainder(gains, INERTIA, traj), es.weights(gains),
                                         es.blocks)
            for traj in (held((0.05, -0.03, 0.02)), held((0.0, 0.0, 0.0)))
        )
        for name, ratios in report.items():
            assert all(a > b for a, b in zip(ratios, ratios[1:])), (system, name, ratios)
        # the coupling is what the dynamic block carries beyond the w_d = 0
        # remainder at every eps, and what dominates it as eps -> 0
        coupled, bare = report["dynamic"], still["dynamic"]
        assert all(c > b for c, b in zip(coupled, bare)), (system, coupled, bare)
        assert coupled[-1] >= 100.0 * bare[-1], (system, coupled, bare)


@pytest.mark.parametrize(
    "system, gains, exponent",
    [("full_state", FS_GAINS, "alpha1"), ("attitude_only", OF_GAINS, "alpha3")],
)
def test_perturbation_ratios_are_continuous_at_the_linear_limit(system, gains, exponent):
    # one dilation for every exponent: just below p = 1 each block's ratios
    # are the standard dilation's, with no branch between them
    es = ERROR_SYSTEMS[system]
    traj = sinusoid_trajectory()
    at, near = (
        perturbation_vanishing_check(es.remainder(g, INERTIA, traj), es.weights(g), es.blocks)
        for g in (replace(gains, **{exponent: p}) for p in (1.0, 1.0 - 1e-6))
    )
    for name in es.blocks:
        assert near[name] == pytest.approx(at[name], rel=1e-6), (name, near[name], at[name])


@pytest.mark.parametrize(
    "system, gains",
    [("full_state", FS_GAINS), ("observer", OBS_GAINS), ("attitude_only", OF_GAINS)],
)
def test_fields_map_a_column_block_as_its_points(system, gains):
    # the dilation checks evaluate every sample at once as a (dim, n) block;
    # a constant nonzero desired rate drives the remainders' transport terms
    es = ERROR_SYSTEMS[system]
    w_d = (0.05, -0.03, 0.02)
    traj = DesiredTrajectory(lambda t: IDENT, lambda t: w_d, lambda t: (0.0, 0.0, 0.0), 0.07, 0.0)
    weights = es.weights(gains)
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((200, weights.r.size)).T
    xs /= np.linalg.norm(xs, axis=0)
    for field in (es.reduced_field(gains, INERTIA), es.remainder(gains, INERTIA, traj)):
        for eps in (1e-3, 0.1, 1.0):
            points = weights.scale(xs, eps)
            want = np.stack([field(x) for x in points.T], axis=1)
            got = field(points)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (system, eps)


def test_kinematic_remainder_decays_fast():
    report = perturbation_vanishing_check(
        full_state_remainder(INERTIA, FS_GAINS, sinusoid_trajectory()),
        dilation_weights(FS_GAINS.alpha1, 1),
        ERROR_SYSTEMS["full_state"].blocks,
        n_samples=100,
    )
    ratios = report["kinematic"]
    assert all(a / b >= 2.0 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize(
    "system, gains",
    [("full_state", FS_GAINS), ("observer", OBS_GAINS), ("attitude_only", OF_GAINS)],
)
def test_remainder_is_error_flow_less_reduced_field(monkeypatch, system, gains):
    # Lift x at h = h_tilde = 1, take the error flow's vector-part rows and
    # subtract the reduced field; a nonzero desired rate and acceleration at
    # t = 0 exercise the gyroscopic and transport terms.  The flows take
    # stable_chord_pow for chord_pow: near identity chord_pow forms 1 - q0 by
    # subtraction, which loses its digits there (the observer's bias-block gap
    # reads 2e-3 at eps = 1e-3), while the remainder's chord_gap keeps them.
    monkeypatch.setattr(analysis, "chord_pow", stable_chord_pow)
    monkeypatch.setattr(controllers, "chord_pow", stable_chord_pow)
    es = ERROR_SYSTEMS[system]
    w_d, w_d_dot = np.array([0.01, -0.02, 0.015]), np.array([1e-3, 2e-3, -1e-3])
    traj = DesiredTrajectory(lambda t: IDENT, lambda t: w_d, lambda t: w_d_dot, 0.03, 3e-3)
    flow = es.flow(gains, INERTIA, traj, 1, 1)
    reduced = es.reduced_field(gains, INERTIA)
    remainder = es.remainder(gains, INERTIA, traj)
    weights = es.weights(gains)
    n_quat = len(es.quat_blocks)
    scalar_rows = [4 * i for i in range(n_quat)]
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((50, weights.r.size)).T
    xs /= np.linalg.norm(xs, axis=0)
    for eps in analysis.REMAINDER_EPS:
        gap = np.zeros(len(es.blocks))
        size = np.zeros(len(es.blocks))
        for x in weights.scale(xs, eps).T:
            charts = [x[3 * i : 3 * i + 3] for i in range(n_quat)]
            lifted = [np.r_[np.sqrt(1.0 - c @ c), c] for c in charts]
            y = np.concatenate(lifted + [x[3 * n_quat :]])
            want = np.delete(flow(0.0, y), scalar_rows) - reduced(x)
            got = remainder(x)
            for b in range(len(es.blocks)):
                rows = slice(3 * b, 3 * b + 3)
                gap[b] = max(gap[b], np.linalg.norm(got[rows] - want[rows]))
                size[b] = max(size[b], np.linalg.norm(got[rows]))
        assert np.all(gap <= 1e-6 * size), (eps, dict(zip(es.blocks, gap / size)))


def test_error_flows_close_the_feedforward_without_the_desired_acceleration(monkeypatch):
    # the feedforward's J R(Q_e) wdot_d cancels in the error flow, so a trajectory
    # whose acceleration cannot be read gives the same flows and remainders, and
    # each flow evaluation rotates w_d into the body frame once: one rotate call,
    # inside its one error_dynamics_rate call
    w_d = (0.05, -0.03, 0.02)

    def unreadable(t):
        raise AssertionError("omega_dot_fn read at t = %r" % t)

    seen = DesiredTrajectory(lambda t: IDENT, lambda t: w_d, lambda t: (1e-3, 2e-3, -1e-3), 0.07, 3e-3)
    blind = replace(seen, omega_dot_fn=unreadable)
    rng = np.random.default_rng(6)
    for system, gains in (("full_state", FS_GAINS), ("attitude_only", OF_GAINS)):
        es = ERROR_SYSTEMS[system]
        y = np.concatenate([random_unit_quat(rng) for _ in es.quat_blocks] + [[0.3, -0.4, 0.1]])
        x = 0.2 * rng.standard_normal((es.weights(gains).r.size, 20))
        want_flow = es.flow(gains, INERTIA, seen, 1, -1)(2.0, tuple(y))
        want_rem = es.remainder(gains, INERTIA, seen)(x)
        assert es.flow(gains, INERTIA, blind, 1, -1)(2.0, tuple(y)) == want_flow, system
        assert np.array_equal(es.remainder(gains, INERTIA, blind)(x), want_rem), system

        calls = {"rotate": 0, "error_dynamics_rate": 0}

        def counted(module, name):
            real = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        flow = es.flow(gains, INERTIA, blind, 1, 1)
        with monkeypatch.context() as m:
            m.setattr(rigid_body, "rotate", counted(rigid_body, "rotate"))
            m.setattr(analysis, "error_dynamics_rate", counted(analysis, "error_dynamics_rate"))
            for t in (0.0, 0.5, 1.0):
                flow(t, tuple(y))
        assert calls == {"rotate": 3, "error_dynamics_rate": 3}, system


# ---------------------------------------------------------------------------
# Trace metrics


def _toy_trace(err, dt=0.1):
    n = len(err)
    q_e = np.zeros((n, 4))
    q_e[:, 0] = 1.0
    q_e[:, 1] = err
    return SimpleNamespace(
        t=np.arange(n) * dt,
        q_e=q_e,
        w_e=np.zeros((n, 3)),
        u_cmd=np.zeros((n, 3)),
        events=[],
    )


def test_convergence_metrics_zero_error():
    rep = convergence_metrics(_toy_trace(np.zeros(10)))
    assert rep.settling_time_s == 0.0 and rep.converged
    assert rep.steady_state_error == 0.0 and rep.jump_count == 0


def test_convergence_metrics_never_settles():
    rep = convergence_metrics(_toy_trace(np.ones(10)))
    assert rep.settling_time_s == float("inf") and not rep.converged


def test_convergence_metrics_last_crossing():
    err = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rep = convergence_metrics(_toy_trace(err))
    assert rep.settling_time_s == pytest.approx(0.5, rel=1e-15)
    assert rep.converged and rep.steady_state_error == 0.0


def test_error_norm_takes_componentwise_max():
    trace = _toy_trace(np.array([0.5, 0.0]))
    trace.w_e[1] = [0.0, 0.7, 0.0]
    assert np.allclose(error_norm(trace), [0.5, 0.7])


# ---------------------------------------------------------------------------
# Run bounds on the benchmark traces


def test_bound_checks_full_state(ex1_noisy):
    rep = bound_checks(ex1_noisy[0.6], FS_GAINS, INERTIA, sinusoid_trajectory())
    assert rep.torque_bound_nm == pytest.approx(EX1_TORQUE_BOUND, rel=1e-12)
    assert rep.torque_bound_alt_nm == pytest.approx(EX1_TORQUE_ALT, rel=1e-12)
    assert rep.torque_ok and rep.jump_ok and rep.gronwall_ok
    assert rep.jump_count == 1


def test_bound_checks_biased_gyro(ex2_noisy):
    with pytest.raises(ValueError, match="observer gains"):
        bound_checks(ex2_noisy, FS_GAINS, INERTIA, sinusoid_trajectory())
    rep = bound_checks(
        ex2_noisy, FS_GAINS, INERTIA, sinusoid_trajectory(), observer_gains=OBS_GAINS
    )
    assert rep.torque_bound_nm == pytest.approx(EX1_TORQUE_BOUND, rel=1e-12)
    assert rep.torque_ok and rep.jump_ok and rep.gronwall_ok


def test_bound_checks_attitude_only(ex3_noisy):
    rep = bound_checks(ex3_noisy[0.75], OF_GAINS, INERTIA, sinusoid_trajectory())
    assert rep.torque_bound_nm == pytest.approx(EX3_TORQUE_BOUND, rel=1e-12)
    assert rep.torque_bound_alt_nm == pytest.approx(EX3_TORQUE_ALT, rel=1e-12)
    assert rep.torque_ok and rep.jump_ok and rep.gronwall_ok


def test_torque_bound_ignores_the_sinusoid_sign():
    # a negative amplitude or frequency is the same motion shifted in time
    bounds = []
    for amplitude, frequency in ((0.01, 0.01), (-0.01, 0.01), (0.01, -0.01)):
        cfg = preset("example3", uncertainties=False)
        cfg.trajectory.amplitude_rad_s, cfg.trajectory.frequency_rad_s = amplitude, frequency
        cfg.sim.t_final_s = 1.0
        rep = bound_checks(
            run_scenario(cfg), cfg.controller.build(), cfg.inertia(), cfg.trajectory.build()
        )
        bounds.append(rep.torque_bound_nm)
    assert bounds == [pytest.approx(EX3_TORQUE_BOUND, rel=1e-12)] * 3


def test_bound_checks_regulation(fig3_trace):
    rep = bound_checks(fig3_trace, FS_GAINS, INERTIA, sinusoid_trajectory(0.0))
    assert rep.torque_bound_nm == pytest.approx(5.1, rel=1e-12)  # k1 + k2, no trajectory terms
    assert rep.torque_ok and rep.jump_ok and rep.gronwall_ok


@pytest.mark.parametrize("amplitude", [0.01, -0.01])
def test_a_zero_frequency_is_rest_with_no_rate_budget(amplitude):
    # amplitude * sin(0) would give rates of -0.0 at a negative amplitude, and the bounds
    # would budget |amplitude| sqrt(3) for a feedforward the run never applies
    cfg = preset("example1", uncertainties=False)
    cfg.trajectory.amplitude_rad_s, cfg.trajectory.frequency_rad_s = amplitude, 0.0
    cfg.sim.t_final_s = 1.0
    traj = cfg.trajectory.build()
    for t in (0.0, 1.0, -3.0, 1e4):
        assert np.array_equal(np.signbit(traj.omega_fn(t) + traj.omega_dot_fn(t)), [False] * 6)
        assert traj.omega_fn(t) == traj.omega_dot_fn(t) == (0.0, 0.0, 0.0)
    assert traj.omega_bound == traj.omega_dot_bound == 0.0
    rep = bound_checks(run_scenario(cfg), cfg.controller.build(), cfg.inertia(), traj)
    assert rep.torque_bound_nm == rep.torque_bound_alt_nm == cfg.controller.k1 + cfg.controller.k2
    assert rep.torque_bound_nm == pytest.approx(5.1, rel=1e-15)


def test_bound_checks_zero_jump_budget():
    cfg = preset("example1", uncertainties=False)
    cfg.plant.q0 = [1.0, 0.0, 0.0, 0.0]
    cfg.plant.omega0_rad_s = [0.1, 0.0, 0.0]
    cfg.sim.t_final_s = 20.0
    trace = run_scenario(cfg)
    rep = bound_checks(trace, FS_GAINS, INERTIA, sinusoid_trajectory())
    # v1(0) = 0.075 buys less than one guaranteed-decrease jump
    assert rep.jump_bound < 1.0
    assert rep.jump_count == 0 and rep.jump_ok


# ---------------------------------------------------------------------------
# Flow reports (continuous-feedback error systems)


def test_flow_report_full_state(flow_full_state):
    rep = flow_full_state
    assert rep.flow_excess["v1"] <= 0.0
    assert rep.max_rate["v1"] <= 1e-9
    assert rep.fd_rel_error["v1"] < 1e-4
    assert len(rep.jump_times) == 1 and 1.0 < rep.jump_times[0] < 2.5
    assert rep.jump_drops["v1"][0] >= SIGMA1 - 1e-9


def test_flow_report_observer(flow_observer):
    rep = flow_observer
    assert rep.jump_times == ()
    assert rep.flow_excess["v2_matched"] <= 0.0
    assert rep.fd_rel_error["v2_matched"] <= 1e-4
    # the reference-form candidate measurably grows along the same flow and
    # its finite-differenced derivative is nowhere near the reported rate
    assert rep.flow_excess["v2"] > 0.0
    assert rep.max_rate["v2"] > 0.0
    assert rep.fd_rel_error["v2"] > 1.0


def test_flow_report_observer_jump(flow_observer_jump):
    rep = flow_observer_jump
    assert rep.jump_times[0] == 0.0
    assert rep.jump_drops["v2"][0] >= SIGMA2_PRINTED - 1e-9
    assert rep.jump_drops["v2_matched"][0] >= SIGMA2_MATCHED - 1e-9


def test_flow_report_attitude_only(flow_attitude_only):
    rep = flow_attitude_only
    assert rep.flow_excess["v3_matched"] <= 0.0
    assert rep.fd_rel_error["v3_matched"] <= 1e-4
    assert rep.flow_excess["v3"] > 0.0
    assert rep.max_rate["v3"] > 0.0
    assert rep.fd_rel_error["v3"] > 0.5
    assert len(rep.jump_times) == 1
    assert rep.jump_drops["v3_matched"][0] >= SIGMA3 - 1e-9


def test_flow_report_validation():
    from attkit.analysis import lyapunov_flow_report

    with pytest.raises(ValueError, match="R\\^7"):
        lyapunov_flow_report(
            "full_state",
            FS_GAINS,
            y0=np.zeros(6),
            inertia=INERTIA,
            trajectory=sinusoid_trajectory(),
        )
    with pytest.raises(ValueError, match="unknown"):
        lyapunov_flow_report("observer2", OBS_GAINS, y0=np.zeros(7))
    with pytest.raises(ValueError, match=r"t_final = 0\.001 at dt = 0\.001 gives 1 steps"):
        lyapunov_flow_report(
            "observer", OBS_GAINS, y0=np.concatenate([FLIP_X, ZERO3]), delta=0.3, t_final=1e-3
        )
    with pytest.raises(ValueError, match="full_state flow check needs inertia and trajectory"):
        lyapunov_flow_report("full_state", FS_GAINS, y0=np.concatenate([BENCH_Q_E0, BENCH_W_E0]))
    observer_y0 = np.concatenate([FLIP_X, ZERO3])
    for kwargs, name in (({"dt": -1e-3, "t_final": -0.5}, "dt"), ({"dt": 0.0}, "dt"),
                         ({"t_final": float("inf")}, "t_final"),
                         ({"t_final": float("nan")}, "t_final")):
        with pytest.raises(ValueError, match=name + " must be positive and finite, got"):
            lyapunov_flow_report("observer", OBS_GAINS, y0=observer_y0, delta=0.3, **kwargs)
    # the rate-feedback systems jump at their gains' delta; another delta is refused
    y0s = {"full_state": np.concatenate([BENCH_Q_E0, BENCH_W_E0]),
           "attitude_only": np.concatenate([BENCH_Q_E0, BENCH_Q_E0, BENCH_W_E0])}
    for system, gains in (("full_state", FS_GAINS), ("attitude_only", OF_GAINS)):
        with pytest.raises(ValueError, match=r"delta = 0\.9 differs from the gains' delta = 0\.3"):
            lyapunov_flow_report(system, gains, y0=y0s[system], inertia=INERTIA,
                                 trajectory=sinusoid_trajectory(), delta=0.9, t_final=0.05)
    # a NaN or an infinity anywhere in y0 is named before any step, not blamed on dt
    y0s["observer"] = observer_y0
    for system, gains in (("full_state", FS_GAINS), ("observer", OBS_GAINS),
                          ("attitude_only", OF_GAINS)):
        for k in (0, len(y0s[system]) - 1):
            for bad in (np.nan, np.inf):
                y0 = y0s[system].copy()
                y0[k] = bad
                with pytest.raises(ValueError, match=r"^y0 is not finite: \["):
                    lyapunov_flow_report(system, gains, y0=y0, inertia=INERTIA,
                                         trajectory=sinusoid_trajectory(), delta=0.3,
                                         t_final=0.05)
    # a logic value is the int +1 or -1, as in a config
    for name in ("h0", "h_tilde0"):
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match=r"^%s must be \+1 or -1, got %r$" % (name, bad)):
                lyapunov_flow_report("observer", OBS_GAINS, y0=observer_y0, delta=0.3,
                                     t_final=0.05, **{name: bad})


_REST = [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "system, gains, y0, amplitude",
    [
        ("full_state", FS_GAINS, _REST + [0.0] * 3, 0.0),
        ("full_state", FS_GAINS, _REST + [0.0] * 3, 0.01),
        ("observer", OBS_GAINS, _REST + [0.0] * 3, None),
        ("attitude_only", OF_GAINS, _REST + _REST + [0.0] * 3, 0.0),
        ("attitude_only", OF_GAINS, _REST + _REST + [0.0] * 3, 0.01),
    ],
    ids=["full_state-regulation", "full_state-sinusoid", "observer",
         "attitude_only-regulation", "attitude_only-sinusoid"],
)
def test_flow_report_at_equilibrium_selects_no_fd_step(system, gains, y0, amplitude):
    # every rate is 0 at rest, so no step has a relative error: nan, and no 0/0 warning
    kwargs = {"delta": 0.3} if amplitude is None else {
        "inertia": INERTIA, "trajectory": sinusoid_trajectory(amplitude)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analysis.lyapunov_flow_report(system, gains, y0=y0, t_final=0.05, **kwargs)
    assert report.fd_rel_error and all(np.isnan(e) for e in report.fd_rel_error.values())
    assert report.jump_times == ()


def test_the_observer_flow_report_needs_its_delta():
    # the simulator jumps h_tilde at the controller's delta; the report takes no default
    y0 = [0.9, 0.3, 0.3, 0.1, 0.01, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^the observer flow check needs delta\b"):
        analysis.lyapunov_flow_report("observer", OBS_GAINS, y0=y0, t_final=0.05)


def test_the_flow_report_step_count_follows_the_one_rule():
    y0 = [0.9, 0.3, 0.3, 0.1, 0.01, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^t_final / dt = 30\.0 / 1e-308 overflows"):
        analysis.lyapunov_flow_report("observer", OBS_GAINS, y0=y0, delta=0.3, dt=1e-308)
    message = (r"^t_final = 0\.0505 is not a whole number of dt = 0\.001 steps;"
               r" 50 steps run to 0\.05 s$")
    with pytest.warns(UserWarning, match=message) as caught:
        analysis.lyapunov_flow_report("observer", OBS_GAINS, y0=y0, delta=0.3, t_final=0.0505)
    assert len(caught) == 1


@pytest.mark.parametrize("delta", [0.0, -0.95, 1.0, 1.5])
def test_flow_report_rejects_observer_delta_outside_the_unit_interval(delta):
    # at delta <= 0 a "jump" may keep the value it holds; at delta >= 1 none can fire
    y0 = [0.9, 0.3, 0.3, 0.1, 0.01, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\), got"):
        analysis.lyapunov_flow_report("observer", OBS_GAINS, y0=y0, delta=delta, t_final=0.05)


_EDGE_Q = [-0.25, float(np.sqrt(1.0 - 0.0625)), 0.0, 0.0]
#: (gains, y0) per error system: the flow report crosses one jump within 0.3 s
_ONE_JUMP = {
    "full_state": (FS_GAINS, _EDGE_Q + [0.8, 0.0, 0.0]),
    "observer": (OBS_GAINS, _EDGE_Q + [-1.0, 0.0, 0.0]),
    "attitude_only": (OF_GAINS, _EDGE_Q + _EDGE_Q + [0.8, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(_ONE_JUMP))
def test_flow_report_forms_its_candidates_once_over_the_record(name, monkeypatch):
    es = ERROR_SYSTEMS[name]
    calls = []

    def candidates(y, h, ht, g, j):
        calls.append((y, h, ht, es.candidates(y, h, ht, g, j)))
        return calls[-1][-1]

    monkeypatch.setitem(ERROR_SYSTEMS, name, replace(es, candidates=candidates))
    gains, y0 = _ONE_JUMP[name]
    rep = analysis.lyapunov_flow_report(
        name, gains, y0=y0, inertia=INERTIA, trajectory=sinusoid_trajectory(), delta=0.3,
        t_final=0.3,
    )
    assert len(rep.jump_times) == 1
    # two column calls per run: the recorded rows, then the jump rows
    assert len(calls) == 2 and all(np.ndim(c[1]) == 1 for c in calls)
    (cols, h, ht, got), (jump_cols, h_pre, ht_pre, before) = calls
    assert np.shape(h) == np.shape(ht) == np.shape(cols[0]) == (301,)

    def row(i):
        return tuple(float(c[i]) for c in cols)

    # each column equals the float candidates row by row, at the recorded pair
    want = [es.candidates(row(i), int(h[i]), int(ht[i]), gains, INERTIA) for i in range(301)]
    for nm in rep.jump_drops:
        assert np.array_equal(got[nm], [w[nm] for w in want]), nm
    # each drop: the jump row's candidates at its pre-jump pair less those after it,
    # each equal to the float candidates
    k = round(rep.jump_times[0] / 1e-3)
    assert [c.tolist() for c in jump_cols] == [[x] for x in row(k)]
    pre_pair = (int(h_pre[0]), int(ht_pre[0]))
    assert pre_pair != (h[k], ht[k])
    want_pre = es.candidates(row(k), *pre_pair, gains, INERTIA)
    for nm, drops in rep.jump_drops.items():
        assert before[nm].tolist() == [want_pre[nm]], nm
        assert drops == (want_pre[nm] - want[k][nm],), nm


def test_flow_climb_adds_up_small_rises_and_restarts_at_each_jump(monkeypatch):
    # v1 stubbed: falling to the jump, up at it, then rising by 1e-9 per step, under the
    # per-step tolerance, so flow_excess stays negative while flow_climb adds the rises
    # up from the jump row, not from the lower values before it
    es = ERROR_SYSTEMS["full_state"]

    def candidates(y, h, ht, g, j):
        v = es.candidates(y, h, ht, g, j)
        if np.size(h) > 1:
            k = int(np.argmax(h != h[0]))
            i = np.arange(np.size(h))
            v["v1"] = np.where(i < k, 1.0 - 1e-3 * i, 2.0 + 1e-9 * (i - k))
        return v

    monkeypatch.setitem(ERROR_SYSTEMS, "full_state", replace(es, candidates=candidates))
    gains, y0 = _ONE_JUMP["full_state"]
    rep = analysis.lyapunov_flow_report(
        "full_state", gains, y0=y0, inertia=INERTIA, trajectory=sinusoid_trajectory(),
        t_final=0.3,
    )
    k = round(rep.jump_times[0] / 1e-3)
    assert 0 < k < 300
    assert rep.flow_excess["v1"] < 0.0
    assert rep.flow_climb["v1"] == pytest.approx((300 - k) * 1e-9, rel=1e-6)


@pytest.mark.parametrize("name", sorted(_ONE_JUMP))
def test_flow_report_forms_its_rates_once_over_the_record(name, monkeypatch):
    es = ERROR_SYSTEMS[name]
    calls = []

    def rates(y, h, ht, g):
        calls.append((y, h, ht, es.rates(y, h, ht, g)))
        return calls[-1][-1]

    monkeypatch.setitem(ERROR_SYSTEMS, name, replace(es, rates=rates))
    gains, y0 = _ONE_JUMP[name]
    rep = analysis.lyapunov_flow_report(
        name, gains, y0=y0, inertia=INERTIA, trajectory=sinusoid_trajectory(), delta=0.3,
        t_final=0.3,
    )
    assert len(rep.jump_times) == 1
    # one call on the recorded columns per run, and no float call
    assert len(calls) == 1
    cols, h, ht, got = calls[0]
    assert len(cols) == es.size
    assert {np.shape(c) for c in (h, ht, *cols)} == {(301,)}
    assert set(got) == set(rep.fd_rel_error)

    def row(i):
        return tuple(float(c[i]) for c in cols)

    # each rate column equals the rates of each row alone, at the recorded pair
    want = [es.rates(tuple(c[i : i + 1] for c in cols), h[i : i + 1], ht[i : i + 1], gains)
            for i in range(301)]
    for nm in got:
        assert np.array_equal(got[nm], [w[nm][0] for w in want]), nm


def _same_bits(a, b):
    """Equal as doubles bit for bit, so that 0.0 and -0.0 differ."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_column_rates_match_the_float_calls_at_the_edges():
    # q0 = 1 exactly, and 1 - q0 on both sides of chord_pow's identity guard
    near = 1.0 - ZERO_TOL
    steps = [np.nextafter(near, 0.0), near, np.nextafter(near, 2.0)]
    guarded = [1.0 - q0 <= ZERO_TOL for q0 in steps]
    assert True in guarded and False in guarded
    q0s = [1.0, *steps, 0.3, -0.7]
    q0s += [-x for x in q0s]  # at h = -1 these are the rows next to identity
    rows = [(x, *(np.sqrt(max(1.0 - x * x, 0.0)) * np.array([0.6, -0.8, 0.0])).tolist())
            for x in q0s]
    rows = [(r, hk) for r in rows for hk in (1, -1)]
    q = tuple(np.array(c) for c in zip(*(r for r, _ in rows)))
    h = np.array([float(hk) for _, hk in rows])
    for alpha in (0.25, 0.5):  # chord_rate's factors, whose signs cancel in it
        got = np.transpose(chord_pow_columns(q, alpha, h))
        assert _same_bits(got, [chord_pow(r, alpha, hk) for r, hk in rows]), alpha
    for c, a, b in [(0.0396, 0.75, 0.75), (0.0396, 0.75, 0.5), (2.9, 0.6, 0.3)]:
        got = chord_rate(q, h, c, a, b)
        want = [-c * dot(chord_pow(r, 1.0 - a, hk), chord_pow(r, 1.0 - b, hk)) for r, hk in rows]
        assert got.shape == (len(rows),) and _same_bits(got, want), (a, b)

    # w_e rows of every mix of zero of either sign, saturated and tiny entries,
    # then a spread of interior ones, where NumPy's power would round unlike **
    rows = list(itertools.product([0.0, -0.0, 1.5, -1.5, 1e-300, -1e-300], repeat=3))
    rows += [(x, -0.7 * x, 0.3 * x) for x in np.linspace(-1.2, 1.2, 41).tolist()]
    got = v1_flow_rate(tuple(np.array(c) for c in zip(*rows)), FS_GAINS)
    p, k2 = FS_GAINS.alpha2, FS_GAINS.k2
    want = [-k2 * (w1 * sat_pow(w1, p) + w2 * sat_pow(w2, p) + w3 * sat_pow(w3, p))
            for w1, w2, w3 in rows]
    assert got.shape == (len(rows),) and _same_bits(got, want)


def _composed_flow(name, g, j, tr, h, ht):
    """Each error flow as it was composed of kernel calls: the reference for its bits."""
    if name == "observer":
        def flow(t, y):
            q_err = y[0:4]
            b1, b2, b3 = y[4:7]
            a1, a2, a3 = chord_pow(q_err, 1.0 - g.beta1, ht)
            dq = kinematics_rate(q_err, (-b1 - g.mu1 * a1, -b2 - g.mu1 * a2, -b3 - g.mu1 * a3))
            c1, c2, c3 = chord_pow(q_err, 1.0 - g.beta2, ht)
            return (*dq, g.mu2 * c1, g.mu2 * c2, g.mu2 * c3)
    elif name == "full_state":
        def flow(t, y):
            q_e, w_e = y[0:4], y[4:7]
            u_fb = full_state_torque(g, q_e, w_e, h)
            dq, dw = composed_error_dynamics_rate(j, q_e, w_e, tr.omega_fn(t), u_fb)
            return dq + dw
    else:
        def flow(t, y):
            q_lag, q_e, w_e = y[0:4], y[4:8], y[8:11]
            u_fb = output_feedback_torque(g, q_e, q_lag, h, ht)
            dq, dw = composed_error_dynamics_rate(j, q_e, w_e, tr.omega_fn(t), u_fb)
            e1, e2, e3 = w_e
            c1, c2, c3 = chord_pow(q_lag, 1.0 - g.alpha3, ht)
            dlag = kinematics_rate(q_lag, (e1 - g.k3 * c1, e2 - g.k3 * c2, e3 - g.k3 * c3))
            return dlag + dq + dw
    return flow


def test_error_flows_equal_their_composed_forms_bit_for_bit():
    # quaternion rows as test_column_rates_match_the_float_calls_at_the_edges builds them:
    # q0 = +-1 and 1 -+ q0 on both sides of chord_pow's identity guard, then two interior rows
    near = 1.0 - ZERO_TOL
    q0s = [1.0, np.nextafter(near, 0.0), near, np.nextafter(near, 2.0), 0.3, -0.7]
    q0s += [-x for x in q0s]
    quats = [(x, *(np.sqrt(max(1.0 - x * x, 0.0)) * np.array([0.6, -0.8, 0.0])).tolist())
             for x in q0s]
    vecs = [(0.0, -0.0, 1.5), (-1.5, 1e-300, -1e-300), (0.3, -0.7, 0.2)]
    inertia = Inertia([[15.0, 0.5, -0.3], [0.5, 20.0, 0.2], [-0.3, 0.2, 10.0]])
    tr = sinusoid_trajectory(0.05, 0.3)
    states = {
        "full_state": [(*q, *w) for q in quats for w in vecs],
        "observer": [(*q, *b) for q in quats for b in vecs],
        "attitude_only": [(*ql, *q, *w) for ql in quats for q in quats[::3] for w in vecs],
    }
    gains = {"full_state": FS_GAINS, "observer": OBS_GAINS, "attitude_only": OF_GAINS}
    for name, ys in states.items():
        for h, ht in itertools.product((1, -1), repeat=2):
            args = (gains[name], inertia, tr, h, ht)
            flow, want = ERROR_SYSTEMS[name].flow(*args), _composed_flow(name, *args)
            for y in ys:
                assert _same_bits(flow(0.37, y), want(0.37, y)), (name, h, ht, y)


@pytest.mark.parametrize("name, want", [
    ("full_state", (4, 4, 0, 0)),
    ("observer", (0, 0, 0, 8)),
    ("attitude_only", (4, 0, 4, 4)),
])
def test_one_step_of_each_error_flow_calls_its_kernels_by_name(name, want, monkeypatch):
    # every call goes through the analysis module's globals, which perfbench hooks; the
    # flow is built first, so that a kernel it captured when built escapes the count
    gains, y0 = _ONE_JUMP[name]
    flow = ERROR_SYSTEMS[name].flow(gains, INERTIA, sinusoid_trajectory(), 1, 1)
    kernels = ("error_dynamics_rate", "full_state_torque", "output_feedback_torque", "chord_pow")
    calls = dict.fromkeys(kernels, 0)
    for kernel in kernels:
        def counted(*args, _kernel=kernel, _real=getattr(analysis, kernel)):
            calls[_kernel] += 1
            return _real(*args)

        monkeypatch.setattr(analysis, kernel, counted)
    rk4_step(flow, 0.0, tuple(y0), 1e-3)
    assert tuple(calls[k] for k in kernels) == want


@pytest.mark.parametrize("name, per_eval", [
    ("full_state", {"analysis": 0, "rigid_body": 1}),
    ("observer", {"analysis": 1, "rigid_body": 0}),
    ("attitude_only", {"analysis": 1, "rigid_body": 1}),
])
def test_each_error_flow_evaluation_calls_kinematics_rate(name, per_eval, monkeypatch):
    # the quaternion rows come from rigid_body.kinematics_rate, through each caller's
    # global: error_dynamics_rate's Q_e rows and the observer's and filter lag's rows
    gains, y0 = _ONE_JUMP[name]
    flow = ERROR_SYSTEMS[name].flow(gains, INERTIA, sinusoid_trajectory(), 1, 1)
    calls = dict.fromkeys(per_eval, 0)
    for module in (analysis, rigid_body):
        def counted(*args, _key=module.__name__.rsplit(".", 1)[1], _real=module.kinematics_rate):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, "kinematics_rate", counted)
    rk4_step(flow, 0.0, tuple(y0), 1e-3)
    assert calls == {k: 4 * n for k, n in per_eval.items()}


def test_a_flow_report_too_long_to_record_names_both_fields():
    # 1e300 steps overflow NumPy's index before any memory is asked for
    y0 = [0.9, 0.3, 0.3, 0.1, 0.01, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"^t_final / dt gives 1e\+300 steps, too many to record"):
        analysis.lyapunov_flow_report("observer", OBS_GAINS, y0=y0, delta=0.3, dt=1.0,
                                      t_final=1e300)


def test_flow_report_warns_when_it_normalizes_y0():
    from attkit.analysis import lyapunov_flow_report

    def report(y0):
        rep = lyapunov_flow_report(
            "attitude_only", OF_GAINS, y0=y0, inertia=INERTIA,
            trajectory=sinusoid_trajectory(), t_final=0.05,
        )
        return json.dumps(asdict(rep), sort_keys=True)

    unit = np.concatenate([BENCH_Q_E0, BENCH_Q_E0, BENCH_W_E0])
    scaled = unit.copy()
    scaled[0:4] *= 2.0  # exact: the normalized block is the same to the bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = report(unit)
    with pytest.warns(UserWarning, match=r"y0\[0:4\] not unit norm") as caught:
        got = report(scaled)
    assert len(caught) == 1
    assert got == want


def test_flow_report_guards_renormalization():
    # the flow report renormalizes under the simulator's drift guard: a step
    # far too coarse for the initial tumble stops the check at that step
    from attkit.analysis import lyapunov_flow_report
    from attkit.integrate import SimulationError

    with pytest.raises(SimulationError, match="norm drifted .* at step 0; reduce dt"):
        lyapunov_flow_report(
            "full_state",
            FS_GAINS,
            y0=np.concatenate([BENCH_Q_E0, BENCH_W_E0]),
            inertia=INERTIA,
            trajectory=sinusoid_trajectory(),
            dt=0.5,
            t_final=20.0,
        )


def test_simulator_hold_floors_dissipation_accuracy(ex1_clean):
    """The zero-order hold keeps the recorded V1 from tracking its continuous
    rate to finite-difference accuracy; the mismatch floor is well above the
    continuous-flow figure yet still small in absolute terms."""
    trace = ex1_clean[0.6]
    rate = v1_flow_rate(tuple(trace.w_e.T), FS_GAINS)
    fd = (trace.v1[2:] - trace.v1[:-2]) / (2.0 * trace.dt)
    keep = np.abs(rate[1:-1]) >= 1e-3 * np.abs(rate).max()
    for ev in trace.events:
        lo = max(ev.step - 2, 0)
        keep[lo : ev.step + 2] = False
    rel = np.abs(fd[keep] - rate[1:-1][keep]) / np.abs(rate[1:-1][keep])
    worst = float(rel.max())
    assert 1e-4 < worst < 0.05


# ---------------------------------------------------------------------------
# Dual-formulation consistency and benchmark orderings


def test_error_coordinates_match_absolute_loop(dual_gap_full_state):
    assert dual_gap_full_state <= 1e-6


def test_observer_error_flow_matches_full_loop(dual_gap_observer):
    assert dual_gap_observer <= 1e-6


def test_lag_coordinates_match_filter_loop(dual_gap_attitude_only):
    assert dual_gap_attitude_only <= 1e-6


def test_noisy_steady_state_error_grows_with_exponent(ex1_noisy):
    sse = {
        a: convergence_metrics(tr).steady_state_error for a, tr in ex1_noisy.items()
    }
    assert sse[0.6] < sse[0.8] < sse[1.0]
