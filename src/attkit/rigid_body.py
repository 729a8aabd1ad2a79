"""Rigid-body attitude kinematics, dynamics, and tracking-error geometry.

States: unit quaternion Q (scalar-first, body relative to inertial) and body
angular velocity w [rad/s].  The tracking error is Q_e = conj(Q_d) * Q with
error velocity w_e = w - R(Q_e) w_d, where w_d is the desired rate expressed
in the desired frame and R(Q_e) maps desired-frame coordinates into the body
frame.  The error flow is stated under feedforward_torque plus feedback, where
the desired acceleration cancels; only the simulator's plant reads it.

The error kernels take float sequences and return float tuples, as the quat
kernels do.  error_dynamics_rate forms its algebra in one frame, bit for bit
the composition of quat kernels its docstring names.  The plant's own rates,
the kinematics and Euler's equation, are formed in the simulator's flow
(sim._plant_flow), in one frame too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .quat import cross, mat_vec, quat_mul, rotate


class Inertia:
    """Inertia matrix [kg m^2] with cached inverse and norm bounds; read-only.

    matrix and inverse are 3x3 tuples of float rows (np.asarray turns them
    into arrays).  Validates symmetry and positive definiteness at
    construction.  inertia_of builds one instance per distinct matrix and
    hands it to every caller, so no attribute can be set once built.
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
        fill = super().__setattr__
        fill("matrix", tuple(map(tuple, j.tolist())))
        fill("inverse", tuple(map(tuple, np.linalg.inv(j).tolist())))
        fill("lambda_min", float(eigs[0]))
        fill("spectral_norm", float(eigs[-1]))

    def __setattr__(self, name, *value) -> None:
        raise AttributeError("Inertia is read-only; build a new one for another matrix")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # pragma: no cover
        return "Inertia(%s)" % (self.matrix,)


def inertia_of(matrix) -> Inertia:
    """The Inertia of matrix, factorized once per distinct float64 matrix.

    Matrices share an instance only when their float64 bits are equal (0.0
    and -0.0 do not); the cache keeps the 32 latest.  A bad matrix raises
    Inertia's ValueError on every call, as nothing is cached for it.
    """
    j = np.asarray(matrix, dtype=float)
    return _inertia_of_bits(j.shape, j.tobytes())


@lru_cache(maxsize=32)
def _inertia_of_bits(shape: tuple, bits: bytes) -> Inertia:
    return Inertia(np.frombuffer(bits).reshape(shape))


@dataclass
class DesiredTrajectory:
    """Desired attitude motion: attitude, rate and acceleration laws of time.

    q_d_fn maps a time t [s] to the desired attitude Q_d(t), a unit
    quaternion as a 4-tuple of floats.  omega_fn / omega_dot_fn map t to the
    desired angular velocity w_d [rad/s] and its time derivative in the
    desired frame, each a 3-tuple of floats (any float sequence works), with
    Qdot_d = 0.5 Q_d * [0, w_d].  omega_bound / omega_dot_bound are uniform
    norm bounds used by the torque-bound checks, both 0 at rest.
    """

    q_d_fn: Callable[[float], tuple]
    omega_fn: Callable[[float], tuple]
    omega_dot_fn: Callable[[float], tuple]
    omega_bound: float
    omega_dot_bound: float


def sinusoid_trajectory(
    amplitude: float = 0.01, frequency: float = 0.01, q_d0=(1.0, 0.0, 0.0, 0.0)
) -> DesiredTrajectory:
    """All-axes sinusoid w_d(t) = amplitude*sin(frequency*t)*[1,1,1] from unit q_d0.

    The rate turns about the fixed axis [1,1,1]/sqrt(3), so Q_d has a closed
    form, q_d0 * [cos phi, (sin phi/sqrt(3)) [1,1,1]] with the half angle
    phi(t) = sqrt(3) amplitude sin^2(frequency t/2)/frequency: the sin^2 form
    of (1 - cos(frequency t))/2 has no cancellation.  Q_d(0) is q_d0.
    Amplitude or frequency 0 is rest-to-rest pointing at q_d0: rates of exact
    +0.0 and both bounds 0.
    """
    q_d0 = tuple(map(float, q_d0))
    if not (amplitude and frequency):
        rest = lambda t: (0.0, 0.0, 0.0)
        return DesiredTrajectory(lambda t: q_d0, rest, rest, 0.0, 0.0)
    root3 = math.sqrt(3.0)
    half_f, k = 0.5 * frequency, root3 * amplitude / frequency

    def attitude(t: float) -> tuple:
        s = math.sin(half_f * t)
        phi = k * s * s
        v = math.sin(phi) / root3
        return quat_mul(q_d0, (math.cos(phi), v, v, v))

    def omega(t: float) -> tuple:
        s = amplitude * math.sin(frequency * t)
        return (s, s, s)

    def omega_dot(t: float) -> tuple:
        c = amplitude * frequency * math.cos(frequency * t)
        return (c, c, c)

    return DesiredTrajectory(
        q_d_fn=attitude,
        omega_fn=omega,
        omega_dot_fn=omega_dot,
        omega_bound=abs(amplitude) * root3,
        omega_dot_bound=abs(amplitude * frequency) * root3,
    )


def error_quaternion(q_d, q) -> tuple:
    """Attitude of the body frame relative to the desired frame: conj(Q_d) * Q.

    The conjugate is folded into the Hamilton product: a - (-x) y is a + x y
    exactly in IEEE arithmetic, so this equals quat_mul(quat_conj(q_d), q)
    bit for bit, on floats and on (n,) columns.
    """
    w1, x1, y1, z1 = q_d
    w2, x2, y2, z2 = q
    return (
        w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2,
        w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2,
        w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2,
        w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2,
    )


def error_velocity(q_e, w, w_d) -> tuple:
    """The error rate w_e = w - R(Q_e) w_d."""
    d1, d2, d3 = rotate(q_e, w_d)
    w1, w2, w3 = w
    return (w1 - d1, w2 - d2, w3 - d3)


def feedforward_torque(inertia: Inertia, q_e, w_d, w_d_dot) -> tuple:
    """Torque that renders (Q_e, w_e) = (identity, 0) invariant.

    u_d = w_d_body x J w_d_body + J R(Q_e) wdot_d.
    """
    w_d_body = rotate(q_e, w_d)
    c1, c2, c3 = cross(w_d_body, mat_vec(inertia.matrix, w_d_body))
    a1, a2, a3 = mat_vec(inertia.matrix, rotate(q_e, w_d_dot))
    return (c1 + a1, c2 + a2, c3 + a3)


def error_dynamics_rate(inertia: Inertia, q_e, w_e, w_d, u_fb) -> tuple[tuple, tuple]:
    """Flow of the tracking error under feedforward_torque plus a feedback torque u_fb.

    Qdot_e = 0.5 Q_e * [0, w_e];
    wdot_e = J^-1 (w_d_body x J w_d_body - w x Jw + u_fb) + w_e x w_d_body,
    w_d_body = R(Q_e) w_d, w = w_e + w_d_body: the feedforward's J R(Q_e) wdot_d
    cancels exactly (Wen & Kreutz-Delgado, IEEE TAC 1991), so wdot_d is not read.
    Formed in one frame: bit for bit, on floats and on (n,) columns, the kinematics
    rows 0.5 * [-q.w_e, q0 w_e + q x w_e] and mat_vec(inertia.inverse, t - cross(w,
    J w)) + cross(w_e, d) for d = rotate(q_e, w_d), w = w_e + d, t = cross(d, J d) +
    u_fb and J v = mat_vec(inertia.matrix, v), as the tests compose them.
    """
    q0, q1, q2, q3 = q_e
    e1, e2, e3 = w_e
    v1, v2, v3 = w_d
    s = q0 * q0 - (q1 * q1 + q2 * q2 + q3 * q3)
    qv, c0 = 2.0 * (q1 * v1 + q2 * v2 + q3 * v3), 2.0 * q0
    d1 = s * v1 + qv * q1 - c0 * (q2 * v3 - q3 * v2)
    d2 = s * v2 + qv * q2 - c0 * (q3 * v1 - q1 * v3)
    d3 = s * v3 + qv * q3 - c0 * (q1 * v2 - q2 * v1)
    (a, b, c), (d, e, f), (g, h, k) = inertia.matrix
    j1, j2, j3 = a * d1 + b * d2 + c * d3, d * d1 + e * d2 + f * d3, g * d1 + h * d2 + k * d3
    u1, u2, u3 = u_fb
    t1, t2, t3 = (d2 * j3 - d3 * j2) + u1, (d3 * j1 - d1 * j3) + u2, (d1 * j2 - d2 * j1) + u3
    w1, w2, w3 = e1 + d1, e2 + d2, e3 + d3
    j1, j2, j3 = a * w1 + b * w2 + c * w3, d * w1 + e * w2 + f * w3, g * w1 + h * w2 + k * w3
    r1, r2, r3 = t1 - (w2 * j3 - w3 * j2), t2 - (w3 * j1 - w1 * j3), t3 - (w1 * j2 - w2 * j1)
    (a, b, c), (d, e, f), (g, h, k) = inertia.inverse
    return (
        0.5 * (-q1 * e1 - q2 * e2 - q3 * e3),
        0.5 * (q0 * e1 + q2 * e3 - q3 * e2),
        0.5 * (q0 * e2 - q1 * e3 + q3 * e1),
        0.5 * (q0 * e3 + q1 * e2 - q2 * e1),
    ), (
        a * r1 + b * r2 + c * r3 + (e2 * d3 - e3 * d2),
        d * r1 + e * r2 + f * r3 + (e3 * d1 - e1 * d3),
        g * r1 + h * r2 + k * r3 + (e1 * d2 - e2 * d1),
    )
