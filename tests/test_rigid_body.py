"""Rigid-body dynamics, trajectory, and tracking-error geometry tests."""

import math

import numpy as np
import pytest

from attkit.quat import quat_conj, quat_mul, random_unit_quat, rotate
from attkit.rigid_body import (
    DesiredTrajectory,
    Inertia,
    error_dynamics_rate,
    error_quaternion,
    error_velocity,
    feedforward_torque,
    sinusoid_trajectory,
)
from attkit.integrate import _renorm
from attkit.sim import rk4_step

from conftest import (
    bits,
    composed_error_dynamics_rate,
    dynamics_rate,
    from_axis_angle,
    kinematics_rate,
    with_signed_zeros,
)

BENCH_J = np.diag([15.0, 20.0, 10.0])


def test_inertia_validation_and_cached_quantities():
    j = Inertia(BENCH_J)
    assert j.lambda_min == pytest.approx(10.0, rel=1e-12)
    assert j.spectral_norm == pytest.approx(20.0, rel=1e-12)
    assert np.allclose(j.inverse, np.diag([1.0 / 15.0, 1.0 / 20.0, 0.1]))
    with pytest.raises(ValueError):
        Inertia(np.eye(2))
    with pytest.raises(ValueError):
        Inertia([[15.0, 1.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]])  # asymmetric
    with pytest.raises(ValueError):
        Inertia(np.diag([15.0, -20.0, 10.0]))  # indefinite


@pytest.mark.parametrize("attr", ["matrix", "inverse", "lambda_min", "spectral_norm"])
def test_inertia_is_read_only(attr):
    j = Inertia(BENCH_J)
    before = getattr(j, attr)
    with pytest.raises(AttributeError, match="^Inertia is read-only"):
        setattr(j, attr, before)
    with pytest.raises(AttributeError, match="^Inertia is read-only"):
        delattr(j, attr)
    assert getattr(j, attr) == before


def test_free_tumble_gyroscopic_rate():
    # w x Jw = [0, 0, -0.6] for w = [0.3, -0.4, 0], J = diag(15, 20, 10)
    wdot = dynamics_rate(Inertia(BENCH_J), np.array([0.3, -0.4, 0.0]), np.zeros(3))
    assert np.allclose(wdot, [0.0, 0.0, 0.06], rtol=1e-12)


def test_dynamics_rate_applies_inverse_inertia():
    wdot = dynamics_rate(Inertia(BENCH_J), np.zeros(3), np.array([1.5, -2.0, 0.5]))
    assert np.allclose(wdot, [0.1, -0.1, 0.05])


def test_kinematics_rate_identity_and_orthogonality():
    w = np.array([0.2, -0.4, 0.6])
    assert np.allclose(kinematics_rate(np.array([1.0, 0.0, 0.0, 0.0]), w), [0.0, 0.1, -0.2, 0.3])
    rng = np.random.default_rng(10)
    for _ in range(20):
        q = random_unit_quat(rng)
        assert q @ kinematics_rate(q, rng.standard_normal(3)) == pytest.approx(0.0, abs=1e-14)


def test_kinematics_rate_equals_quaternion_product():
    rng = np.random.default_rng(15)
    for _ in range(200):
        q, w = random_unit_quat(rng), rng.standard_normal(3)
        assert np.array_equal(kinematics_rate(q, w), 0.5 * np.asarray(quat_mul(q, np.concatenate(([0.0], w)))))


def test_sinusoid_trajectory_values_and_bounds():
    traj = sinusoid_trajectory(0.01, 0.01)
    assert traj.q_d_fn(0.0) == (1.0, 0.0, 0.0, 0.0)
    assert np.allclose(traj.omega_fn(0.0), 0.0)
    t_peak = 0.5 * np.pi / 0.01
    assert np.allclose(traj.omega_fn(t_peak), 0.01)
    assert np.allclose(traj.omega_dot_fn(0.0), 1e-4)
    assert traj.omega_bound == pytest.approx(0.01 * np.sqrt(3.0), rel=1e-15)
    assert traj.omega_dot_bound == pytest.approx(1e-4 * np.sqrt(3.0), rel=1e-15)
    # the bounds are norms: a sign flip of the amplitude or the frequency is
    # the same motion shifted in time
    for amplitude, frequency in ((-0.01, 0.01), (0.01, -0.01), (-0.01, -0.01)):
        flipped = sinusoid_trajectory(amplitude, frequency)
        assert flipped.omega_bound == traj.omega_bound > 0.0
        assert flipped.omega_dot_bound == traj.omega_dot_bound > 0.0


Q_D0 = tuple((np.array([0.3, -0.5, 0.7, 0.2]) / np.linalg.norm([0.3, -0.5, 0.7, 0.2])).tolist())


@pytest.mark.parametrize("amplitude, frequency", [(0.01, 0.01), (-0.3, 0.7), (0.3, -0.7)])
def test_closed_form_reference_starts_at_q_d0_and_stays_unit(amplitude, frequency):
    q_d_fn = sinusoid_trajectory(amplitude, frequency, Q_D0).q_d_fn
    assert q_d_fn(0.0) == Q_D0
    for t in np.linspace(0.0, 500.0, 2001).tolist():
        assert abs(math.sqrt(sum(c * c for c in q_d_fn(t))) - 1.0) <= 4.5e-16


def test_closed_form_reference_agrees_with_rk4_integration():
    # the reference the simulator used to carry: RK4 on Qdot_d = 0.5 Q_d * [0, w_d], dt = 1e-3,
    # renormalized each step; over 200 s (three periods, half angles up to 0.87 rad) the two
    # differed by at most 2.5e-13
    traj = sinusoid_trajectory(0.05, 0.1, Q_D0)
    dt, worst, q_d = 1e-3, 0.0, Q_D0

    def flow(t, q):
        return kinematics_rate(q, traj.omega_fn(t))

    for i in range(1, 200_001):
        q_d = _renorm(rk4_step(flow, (i - 1) * dt, q_d, dt), i)
        if i % 100 == 0:
            worst = max(worst, np.abs(np.subtract(traj.q_d_fn(i * dt), q_d)).max())
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "amplitude, frequency", [(0.01, 0.01), (0.05, 0.1), (-0.05, 0.1), (0.05, -0.1), (-0.3, -0.7)]
)
def test_closed_form_reference_obeys_the_kinematics(amplitude, frequency):
    traj = sinusoid_trajectory(amplitude, frequency, Q_D0)
    eps = 1e-4
    for t in (0.3, 7.0, 12.0, 31.4, 100.0, 250.0):
        fd = np.subtract(traj.q_d_fn(t + eps), traj.q_d_fn(t - eps)) / (2.0 * eps)
        want = 0.5 * np.asarray(quat_mul(traj.q_d_fn(t), (0.0, *traj.omega_fn(t))))
        assert np.allclose(fd, want, rtol=0.0, atol=1e-9), (t, fd, want)


@pytest.mark.parametrize("amplitude, frequency", [(0.0, 0.01), (0.01, 0.0), (0.0, 0.0), (-0.0, -0.0)])
def test_a_zero_amplitude_or_frequency_holds_q_d0(amplitude, frequency):
    q_d_fn = sinusoid_trajectory(amplitude, frequency, Q_D0).q_d_fn
    for t in (0.0, 1.0, 123.4, -5.0, 1e6):
        assert q_d_fn(t) == Q_D0


def test_regulation_trajectory_is_rest():
    traj = sinusoid_trajectory(0.0)
    assert np.array_equal(traj.omega_fn(12.3), np.zeros(3))
    assert np.array_equal(traj.omega_dot_fn(12.3), np.zeros(3))
    assert traj.omega_bound == traj.omega_dot_bound == 0.0


def test_error_quaternion_equals_the_conjugate_product_bit_for_bit():
    rng = np.random.default_rng(16)
    q_d, q = with_signed_zeros(rng, (4, 500)), with_signed_zeros(rng, (4, 500))
    for a, b in zip(q_d.T, q.T):
        a, b = tuple(a.tolist()), tuple(b.tolist())
        assert bits(error_quaternion(a, b)) == bits(quat_mul(quat_conj(a), b))
    columns_d, columns = tuple(q_d), tuple(q)
    got = error_quaternion(columns_d, columns)
    assert bits(got) == bits(quat_mul(quat_conj(columns_d), columns))
    assert bits(got) == bits(np.transpose([error_quaternion(a, b) for a, b in zip(q_d.T, q.T)]))


def test_error_dynamics_rate_equals_its_composed_form_bit_for_bit():
    rng = np.random.default_rng(18)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        inertia = Inertia(m @ m.T + 3.0 * np.eye(3))
        args = [with_signed_zeros(rng, k).tolist() for k in (4, 3, 3, 3)]
        dq, dw = error_dynamics_rate(inertia, *args)
        want_q, want_w = composed_error_dynamics_rate(inertia, *args)
        assert bits(dq) == bits(want_q) and bits(dw) == bits(want_w)
    # (n,) columns as the remainders hand them: blocks for Q_e, w_e and u_fb, floats for w_d
    q_e, w_e, u_fb = (with_signed_zeros(rng, (k, 300)) for k in (4, 3, 3))
    w_d = with_signed_zeros(rng, 3).tolist()
    dq, dw = error_dynamics_rate(inertia, q_e, w_e, w_d, u_fb)
    want_q, want_w = composed_error_dynamics_rate(inertia, q_e, w_e, w_d, u_fb)
    assert bits(dq) == bits(want_q) and bits(dw) == bits(want_w)
    points = [error_dynamics_rate(inertia, a, b, w_d, c) for a, b, c in zip(q_e.T, w_e.T, u_fb.T)]
    assert bits(dw) == bits(np.transpose([p for _, p in points]))


def test_error_quaternion_identity_and_composition():
    rng = np.random.default_rng(11)
    for _ in range(10):
        q_d = random_unit_quat(rng)
        p = random_unit_quat(rng)
        assert np.allclose(error_quaternion(q_d, q_d), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(error_quaternion(q_d, quat_mul(q_d, p)), p, atol=1e-13)


def test_error_velocity_at_zero_attitude_error():
    w = np.array([0.3, -0.4, 0.0])
    w_d = np.array([0.01, 0.02, -0.01])
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w_e = error_velocity(q, w, w_d)
    assert np.allclose(w_e, w - w_d)
    assert np.allclose(rotate(q, w_d), w_d)


def test_xi_matrix_antisymmetric():
    # under the feedforward alone (zero feedback) J wdot_e = Xi w_e, and the
    # skew-symmetric gyroscopic coupling Xi does no work: w_e' Xi w_e = 0
    inertia = Inertia(BENCH_J)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q_e, w_e, w_d = random_unit_quat(rng), rng.standard_normal(3), rng.standard_normal(3)
        _, dw = error_dynamics_rate(inertia, q_e, w_e, w_d, np.zeros(3))
        assert w_e @ (np.asarray(inertia.matrix) @ dw) == pytest.approx(0.0, abs=1e-12)


def test_feedforward_at_zero_error_reference_value():
    # u_d(0) = J wdot_d(0) = diag(15, 20, 10) @ [1e-4, 1e-4, 1e-4]
    traj = sinusoid_trajectory(0.01, 0.01)
    u = feedforward_torque(
        Inertia(BENCH_J), np.array([1.0, 0.0, 0.0, 0.0]), traj.omega_fn(0.0), traj.omega_dot_fn(0.0)
    )
    assert np.allclose(u, [0.0015, 0.002, 0.001], rtol=1e-12)


def test_feedforward_renders_zero_error_invariant():
    inertia = Inertia(BENCH_J)
    traj = sinusoid_trajectory(0.01, 0.01)
    t = 50.0
    q_e = np.array([1.0, 0.0, 0.0, 0.0])
    dq, dw = error_dynamics_rate(inertia, q_e, np.zeros(3), traj.omega_fn(t), np.zeros(3))
    assert np.allclose(dq, 0.0, atol=1e-16)
    assert np.allclose(dw, 0.0, atol=1e-16)


def test_error_dynamics_matches_absolute_difference():
    """Centered difference of the error computed from absolute states must
    reproduce error_dynamics_rate, confirming the gyroscopic coupling terms.
    The plant applies u; the error flow takes u less feedforward_torque, so
    this also pins the feedforward and its desired-acceleration cancellation."""
    inertia = Inertia(BENCH_J)
    traj = sinusoid_trajectory(0.01, 0.01)
    q = from_axis_angle([0.3, -1.0, 0.5], 1.2)
    w = np.array([0.2, -0.1, 0.3])
    q_d = from_axis_angle([0.1, 0.9, -0.4], 0.7)
    u = np.array([0.5, -0.2, 0.1])
    t0 = 12.0

    def absolute(t, y):
        return np.concatenate(
            [
                kinematics_rate(y[0:4], y[4:7]),
                dynamics_rate(inertia, y[4:7], u),
                kinematics_rate(y[7:11], traj.omega_fn(t)),
            ]
        )

    def error_state(y, t):
        q_e = error_quaternion(y[7:11], y[0:4])
        w_e = error_velocity(q_e, y[4:7], traj.omega_fn(t))
        return np.asarray(q_e), np.asarray(w_e)

    eps = 1e-4
    y0 = np.concatenate([q, w, q_d])
    qe_p, we_p = error_state(rk4_step(absolute, t0, y0, eps), t0 + eps)
    qe_m, we_m = error_state(rk4_step(absolute, t0, y0, -eps), t0 - eps)
    fd_dq = (qe_p - qe_m) / (2.0 * eps)
    fd_dw = (we_p - we_m) / (2.0 * eps)

    q_e0, w_e0 = error_state(y0, t0)
    w_d, w_d_dot = traj.omega_fn(t0), traj.omega_dot_fn(t0)
    u_fb = u - feedforward_torque(inertia, q_e0, w_d, w_d_dot)
    dq, dw = error_dynamics_rate(inertia, q_e0, w_e0, w_d, u_fb)
    assert np.allclose(fd_dq, dq, atol=1e-8)
    assert np.allclose(fd_dw, dw, atol=1e-8)


def test_desired_trajectory_is_plain_container():
    traj = DesiredTrajectory(
        q_d_fn=lambda t: np.array([1.0, 0.0, 0.0, 0.0]),
        omega_fn=lambda t: np.zeros(3),
        omega_dot_fn=lambda t: np.zeros(3),
        omega_bound=0.0,
        omega_dot_bound=0.0,
    )
    assert traj.omega_bound == 0.0
