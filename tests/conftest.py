"""Session fixtures: benchmark traces, flow reports, and dual-formulation gaps.

Everything here is deterministic but costs real simulation time, so each
artifact is built once per session and shared read-only across test modules.
Test modules import the quaternion helpers IDENTITY_QUAT and from_axis_angle,
and composed_error_dynamics_rate, from here (`from conftest import ...`); the
package itself needs none of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from attkit import analysis, config, sim
from attkit.controllers import (
    FullStateGains,
    ObserverGains,
    OutputFeedbackGains,
    filter_flow_rate,
    full_state_torque,
    observer_flow_rate,
    output_feedback_torque,
)
from attkit.quat import ZERO_TOL, cross, mat_vec, quat_conj, quat_mul, rotate
from attkit.rigid_body import (
    Inertia,
    dynamics_rate,
    error_dynamics_rate,
    error_quaternion,
    error_velocity,
    feedforward_torque,
    kinematics_rate,
    sinusoid_trajectory,
)

BENCH_J = [[15.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]]
BENCH_Q_E0 = np.array([0.0, 0.6, -0.8, 0.0])
BENCH_W_E0 = np.array([0.3, -0.4, 0.0])

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation of `angle` about `axis` (normalized here)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm <= ZERO_TOL:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], (np.sin(half) / norm) * axis))


def composed_error_dynamics_rate(inertia, q_e, w_e, w_d, u_fb):
    """The kernel calls error_dynamics_rate replaced: the reference for its bits."""
    w_d_body = d1, d2, d3 = rotate(q_e, w_d)
    e1, e2, e3 = w_e
    f1, f2, f3 = cross(w_d_body, mat_vec(inertia.matrix, w_d_body))
    u1, u2, u3 = u_fb
    a1, a2, a3 = dynamics_rate(inertia, (e1 + d1, e2 + d2, e3 + d3), (f1 + u1, f2 + u2, f3 + u3))
    c1, c2, c3 = cross(w_e, w_d_body)
    return kinematics_rate(q_e, w_e), (a1 + c1, a2 + c2, a3 + c3)


# ---------------------------------------------------------------------------
# Benchmark traces


@pytest.fixture(scope="session")
def ex1_clean():
    """Noise-free full-state benchmark, keyed by alpha1."""
    return {
        a: sim.run_scenario(config.preset("example1", alpha1=a, uncertainties=False))
        for a in (0.6, 0.8, 1.0)
    }


@pytest.fixture(scope="session")
def ex1_noisy():
    """Full-state benchmark with sensor noise and disturbance, keyed by alpha1."""
    return {a: sim.run_scenario(config.preset("example1", alpha1=a)) for a in (0.6, 0.8, 1.0)}


@pytest.fixture(scope="session")
def ex2_clean():
    return sim.run_scenario(config.preset("example2", uncertainties=False))


@pytest.fixture(scope="session")
def ex2_noisy():
    return sim.run_scenario(config.preset("example2"))


@pytest.fixture(scope="session")
def ex3_clean():
    """Noise-free velocity-free benchmark, keyed by alpha3."""
    return {
        a: sim.run_scenario(config.preset("example3", alpha3=a, uncertainties=False))
        for a in (0.75, 0.85, 1.0)
    }


@pytest.fixture(scope="session")
def ex3_noisy():
    return {a: sim.run_scenario(config.preset("example3", alpha3=a)) for a in (0.75, 0.85, 1.0)}


@pytest.fixture(scope="session")
def fig3_trace():
    return sim.run_scenario(config.preset("fig3"))


# ---------------------------------------------------------------------------
# Continuous-feedback flow reports.  The simulator's zero-order hold floors
# its dissipation accuracy; these close the loop continuously in error
# coordinates, which is where the per-step Lyapunov tolerances are meaningful.


@pytest.fixture(scope="session")
def flow_full_state():
    """Hybrid full-state error flow from the benchmark initial condition."""
    return analysis.lyapunov_flow_report(
        "full_state",
        FullStateGains(1.1, 4.0, 0.6, 0.3),
        y0=np.concatenate([BENCH_Q_E0, BENCH_W_E0]),
        inertia=Inertia(BENCH_J),
        trajectory=sinusoid_trajectory(),
        dt=1e-3,
        t_final=60.0,
    )


@pytest.fixture(scope="session")
def flow_observer():
    """Observer error flow from an interior (jump-free) initial condition.

    The initial estimation error sits well away from both the identity (the
    fractional powers' nonsmooth point) and the jump-set boundary, so the
    strict per-step tolerance applies along the whole run.
    """
    y0 = np.concatenate([from_axis_angle([1.0, -2.0, 0.5], 2.0), [0.01, -0.05, 0.02]])
    return analysis.lyapunov_flow_report(
        "observer", ObserverGains(0.33, 0.12, 0.75), y0=y0, delta=0.3, dt=5e-4, t_final=30.0
    )


@pytest.fixture(scope="session")
def flow_observer_jump():
    """Observer error flow started inside the jump set (one step-0 jump)."""
    q_e0 = np.array([-0.5, 0.5, -0.6, 0.4])
    y0 = np.concatenate([q_e0 / np.linalg.norm(q_e0), [0.01, -0.05, 0.02]])
    return analysis.lyapunov_flow_report(
        "observer", ObserverGains(0.33, 0.12, 0.75), y0=y0, delta=0.3, dt=5e-4, t_final=30.0
    )


@pytest.fixture(scope="session")
def flow_attitude_only():
    """Velocity-free error flow from the benchmark initial condition."""
    y0 = np.concatenate([BENCH_Q_E0, BENCH_Q_E0, BENCH_W_E0])
    return analysis.lyapunov_flow_report(
        "attitude_only",
        OutputFeedbackGains(1.2, 2.4, 1.1, 0.75, 0.3),
        y0=y0,
        inertia=Inertia(BENCH_J),
        trajectory=sinusoid_trajectory(),
        dt=1e-3,
        t_final=60.0,
    )


# ---------------------------------------------------------------------------
# Dual-formulation gaps: integrate the same loop in two coordinate systems
# with the same stepper and compare the terminal states.  The logic variables
# are held fixed so both sides stay on the continuous flow being compared.

_DT_DUAL = 1e-3
_N_DUAL = 10_000  # 10 s


def _integrate(flow, y0, quat_blocks):
    y = np.asarray(y0, dtype=float).copy()
    for i in range(_N_DUAL):
        y = np.asarray(sim.rk4_step(flow, i * _DT_DUAL, y, _DT_DUAL))
        for sl in quat_blocks:
            y[sl] /= np.linalg.norm(y[sl])
    return y


@pytest.fixture(scope="session")
def dual_gap_full_state():
    """Absolute closed loop (Q, w, Q_d) vs the error-coordinate flow (Q_e, w_e)."""
    inertia = Inertia(BENCH_J)
    gains = FullStateGains(1.1, 4.0, 0.6, 0.3)
    traj = sinusoid_trajectory()
    q0 = from_axis_angle([0.3, -1.0, 0.5], 1.2)  # error scalar stays clear of the jump set
    w0 = np.array([0.3, -0.4, 0.0])
    h = 1

    def absolute(t, y):
        q, w, q_d = y[0:4], y[4:7], y[7:11]
        w_d = traj.omega_fn(t)
        q_e = error_quaternion(q_d, q)
        w_e = error_velocity(q_e, w, w_d)
        u_ff = feedforward_torque(inertia, q_e, w_d, traj.omega_dot_fn(t))
        u = np.add(u_ff, full_state_torque(gains, q_e, w_e, h))
        return np.concatenate(
            [kinematics_rate(q, w), dynamics_rate(inertia, w, u), kinematics_rate(q_d, w_d)]
        )

    err_flow = analysis.full_state_error_flow(inertia, gains, traj, h, 1)
    q_d0 = traj.q_d_fn(0.0)
    q_e0 = error_quaternion(q_d0, q0)
    w_e0 = error_velocity(q_e0, w0, traj.omega_fn(0.0))

    y = _integrate(absolute, np.concatenate([q0, w0, q_d0]), (slice(0, 4), slice(7, 11)))
    z = _integrate(err_flow, np.concatenate([q_e0, w_e0]), (slice(0, 4),))
    q_e_end = error_quaternion(y[7:11], y[0:4])
    w_e_end = error_velocity(q_e_end, y[4:7], traj.omega_fn(_N_DUAL * _DT_DUAL))
    return float(max(np.abs(q_e_end - z[0:4]).max(), np.abs(w_e_end - z[4:7]).max()))


@pytest.fixture(scope="session")
def dual_gap_observer():
    """Observer on a tumbling plant vs the autonomous estimation-error flow."""
    inertia = Inertia(BENCH_J)
    obs = ObserverGains(0.33, 0.12, 0.75)
    bias = np.array([0.01, -0.05, 0.02])
    p = from_axis_angle([1.0, -2.0, 0.5], 2.0)  # initial estimation error
    q0 = from_axis_angle([0.2, 0.5, -0.3], 0.9)
    w0 = np.array([0.3, -0.4, 0.0])
    q_hat0 = quat_mul(q0, quat_conj(p))  # conj(Q_hat0) * Q0 = p
    ht = 1

    def full(t, y):
        q, w, q_hat, b_hat = y[0:4], y[4:7], y[7:11], y[11:14]
        dq = kinematics_rate(q, w)
        dw = dynamics_rate(inertia, w, np.zeros(3))  # free tumble
        dqh, dbh = observer_flow_rate(obs, q_hat, b_hat, ht, q, w + bias)
        return np.concatenate([dq, dw, dqh, dbh])

    err_flow = analysis.observer_error_flow(obs, 1, ht)
    y = _integrate(
        full,
        np.concatenate([q0, w0, q_hat0, np.zeros(3)]),
        (slice(0, 4), slice(7, 11)),
    )
    z = _integrate(err_flow, np.concatenate([p, bias]), (slice(0, 4),))
    q_err_end = error_quaternion(y[7:11], y[0:4])
    b_err_end = bias - y[11:14]
    return float(max(np.abs(q_err_end - z[0:4]).max(), np.abs(b_err_end - z[4:7]).max()))


@pytest.fixture(scope="session")
def dual_gap_attitude_only():
    """Filter-implemented velocity-free loop vs the lag-coordinate error flow."""
    inertia = Inertia(BENCH_J)
    gains = OutputFeedbackGains(1.2, 2.4, 1.1, 0.75, 0.3)
    traj = sinusoid_trajectory()
    h = ht = 1

    def full(t, y):
        q_e, w_e, q_f = y[0:4], y[4:7], y[7:11]
        q_lag = error_quaternion(q_f, q_e)
        u_fb = output_feedback_torque(gains, q_e, q_lag, h, ht)
        dq, dw = error_dynamics_rate(inertia, q_e, w_e, traj.omega_fn(t), u_fb)
        dqf = filter_flow_rate(gains, q_f, ht, q_e)
        return np.concatenate([dq, dw, dqf])

    err_flow = analysis.output_feedback_error_flow(inertia, gains, traj, h, ht)
    q_f0 = IDENTITY_QUAT.copy()  # filter initialized at the desired frame
    lag0 = error_quaternion(q_f0, BENCH_Q_E0)

    y = _integrate(
        full,
        np.concatenate([BENCH_Q_E0, BENCH_W_E0, q_f0]),
        (slice(0, 4), slice(7, 11)),
    )
    z = _integrate(
        err_flow,
        np.concatenate([lag0, BENCH_Q_E0, BENCH_W_E0]),
        (slice(0, 4), slice(4, 8)),
    )
    lag_end = error_quaternion(y[7:11], y[0:4])
    return float(
        max(
            np.abs(lag_end - z[0:4]).max(),
            np.abs(y[0:4] - z[4:8]).max(),
            np.abs(y[4:7] - z[8:11]).max(),
        )
    )


# ---------------------------------------------------------------------------
# Integrator order measurement, shared between the unit and acceptance suites.


@pytest.fixture(scope="session")
def rk4_error_slopes():
    """log2 error ratios of a free-tumble integration under step halving."""
    inertia = Inertia(BENCH_J)

    def flow(t, y):
        return np.concatenate(
            [kinematics_rate(y[0:4], y[4:7]), dynamics_rate(inertia, y[4:7], np.zeros(3))]
        )

    y0 = np.concatenate([IDENTITY_QUAT, [0.3, -0.4, 0.2]])
    t_end = 2.0

    def terminal(dt):
        y = y0.copy()
        for i in range(int(round(t_end / dt))):
            y = sim.rk4_step(flow, i * dt, y, dt)
        return np.asarray(y)

    ref = terminal(1.25e-3)
    errs = [float(np.abs(terminal(dt) - ref).max()) for dt in (0.02, 0.01, 0.005)]
    return tuple(np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))
