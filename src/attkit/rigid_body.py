"""Rigid-body attitude kinematics, dynamics, and tracking-error geometry.

States: unit quaternion Q (scalar-first, body relative to inertial) and body
angular velocity w [rad/s].  The tracking error is Q_e = conj(Q_d) * Q with
error velocity w_e = w - R(Q_e) w_d, where w_d is the desired rate expressed
in the desired frame and R(Q_e) maps desired-frame coordinates into the body
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quat import Array, cross, quat_conj, quat_mul, rotate


class Inertia:
    """Inertia matrix [kg m^2] with cached inverse and norm bounds.

    Validates symmetry and positive definiteness at construction.
    """

    def __init__(self, matrix) -> None:
        j = np.asarray(matrix, dtype=float)
        if j.shape != (3, 3):
            raise ValueError("inertia must be 3x3, got shape %r" % (j.shape,))
        scale = max(1.0, float(np.abs(j).max()))
        if np.abs(j - j.T).max() > 1e-12 * scale:
            raise ValueError("inertia must be symmetric")
        eigs = np.linalg.eigvalsh(j)
        if eigs[0] <= 0.0:
            raise ValueError("inertia must be positive definite, eigenvalues %s" % eigs)
        self.matrix = j
        self.inverse = np.linalg.inv(j)
        self.lambda_min = float(eigs[0])
        self.spectral_norm = float(eigs[-1])

    def __repr__(self) -> str:  # pragma: no cover
        return "Inertia(%s)" % self.matrix.tolist()


@dataclass
class DesiredTrajectory:
    """Desired attitude motion: initial quaternion plus rate and acceleration laws.

    omega_fn / omega_dot_fn give the desired angular velocity [rad/s] and its
    time derivative in the desired frame.  omega_bound / omega_dot_bound are
    uniform norm bounds used by the torque-bound checks.
    """

    q_d0: Array
    omega_fn: Callable[[float], Array]
    omega_dot_fn: Callable[[float], Array]
    omega_bound: float
    omega_dot_bound: float


def sinusoid_trajectory(amplitude: float = 0.01, frequency: float = 0.01) -> DesiredTrajectory:
    """All-axes sinusoid w_d(t) = amplitude*sin(frequency*t)*[1,1,1] from identity."""
    ones = np.ones(3)

    def omega(t: float) -> Array:
        return amplitude * np.sin(frequency * t) * ones

    def omega_dot(t: float) -> Array:
        return amplitude * frequency * np.cos(frequency * t) * ones

    return DesiredTrajectory(
        q_d0=np.array([1.0, 0.0, 0.0, 0.0]),
        omega_fn=omega,
        omega_dot_fn=omega_dot,
        omega_bound=amplitude * np.sqrt(3.0),
        omega_dot_bound=amplitude * frequency * np.sqrt(3.0),
    )


def regulation_trajectory() -> DesiredTrajectory:
    """Rest-to-rest pointing: desired frame fixed at identity."""
    zero = np.zeros(3)
    return DesiredTrajectory(
        q_d0=np.array([1.0, 0.0, 0.0, 0.0]),
        omega_fn=lambda t: zero,
        omega_dot_fn=lambda t: zero,
        omega_bound=0.0,
        omega_dot_bound=0.0,
    )


def kinematics_rate(q: Array, w: Array) -> Array:
    """Qdot = 0.5 * Q * [0, w] = 0.5 * [-q.w, E(q) w]."""
    q0, q1, q2, q3 = q.tolist()
    w1, w2, w3 = w.tolist()
    return np.array(
        [
            0.5 * (-q1 * w1 - q2 * w2 - q3 * w3),
            0.5 * (q0 * w1 + q2 * w3 - q3 * w2),
            0.5 * (q0 * w2 - q1 * w3 + q3 * w1),
            0.5 * (q0 * w3 + q1 * w2 - q2 * w1),
        ]
    )


def dynamics_rate(inertia: Inertia, w: Array, torque: Array) -> Array:
    """Euler's equation: wdot = J^-1 (-w x Jw + torque)."""
    return inertia.inverse @ (torque - cross(w, inertia.matrix @ w))


def error_quaternion(q_d: Array, q: Array) -> Array:
    """Attitude of the body frame relative to the desired frame: conj(Q_d) * Q."""
    return quat_mul(quat_conj(q_d), q)


def error_velocity(q_e: Array, w: Array, w_d: Array) -> tuple[Array, Array]:
    """Return (w_e, w_d_body): the error rate and the desired rate in body axes."""
    w_d_body = rotate(q_e, w_d)
    return w - w_d_body, w_d_body


def feedforward_torque(inertia: Inertia, q_e: Array, w_d: Array, w_d_dot: Array) -> Array:
    """Torque that renders (Q_e, w_e) = (identity, 0) invariant.

    u_d = w_d_body x J w_d_body + J R(Q_e) wdot_d.
    """
    w_d_body = rotate(q_e, w_d)
    return cross(w_d_body, inertia.matrix @ w_d_body) + inertia.matrix @ rotate(q_e, w_d_dot)


def error_dynamics_rate(
    inertia: Inertia,
    q_e: Array,
    w_e: Array,
    w_d: Array,
    w_d_dot: Array,
    torque: Array,
) -> tuple[Array, Array]:
    """Flow of the tracking error under an applied torque.

    Qdot_e = 0.5 Q_e * [0, w_e];
    wdot_e = wdot - R(Q_e) wdot_d + w_e x w_d_body, where wdot is Euler's
    equation at the body rate w = w_e + w_d_body and the last two terms
    transport the desired rate into the turning body frame.
    """
    w_d_body = rotate(q_e, w_d)
    dw = dynamics_rate(inertia, w_e + w_d_body, torque) - rotate(q_e, w_d_dot)
    return kinematics_rate(q_e, w_e), dw + cross(w_e, w_d_body)
