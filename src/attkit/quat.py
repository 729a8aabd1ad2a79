"""Quaternion algebra and the nonsmooth feedback maps used by the controllers.

Scalar-first convention throughout: Q = [q0, q1, q2, q3] with q0 the scalar
part and q = [q1, q2, q3] the vector part.  Unit quaternions double-cover the
rotation group, so Q and -Q describe the same physical attitude; nothing in
this module forces a hemisphere, because the hybrid controllers need both
antipodes as distinct equilibria.

The attitude matrix convention is passive: rotation_matrix(Q) maps coordinates
of the reference frame into the rotated (body) frame.
"""

from __future__ import annotations

import warnings

import numpy as np

Array = np.ndarray

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

#: vector parts (or chord lengths) below this are treated as exactly zero
ZERO_TOL = 1e-12


def quat_mul(q: Array, p: Array) -> Array:
    """Hamilton product q * p, scalar-first."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = p
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conj(q: Array) -> Array:
    """Conjugate [q0, -q]; the inverse rotation for unit input."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: Array) -> Array:
    """Rescale to unit norm.  Raises ValueError on (near-)zero input."""
    n = float(np.linalg.norm(q))
    if n <= ZERO_TOL:
        raise ValueError("cannot normalize quaternion with norm %.3e" % n)
    return np.asarray(q, dtype=float) / n


def unit_or_warn(q: Array, label: str) -> Array:
    """Normalize a configured quaternion, warning when it was not unit norm."""
    n = float(np.linalg.norm(q))
    if n <= 1e-12:
        raise ValueError("%s has zero norm" % label)
    if abs(n - 1.0) > 1e-9:
        warnings.warn("%s not unit norm (|Q| = %.6f); renormalizing" % (label, n))
    return q / n


def skew(v: Array) -> Array:
    """Cross-product matrix: skew(v) @ u == np.cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def e_matrix(q: Array) -> Array:
    """E(q) = q^x + q0*I, the vector-part kinematics operator."""
    return skew(q[1:]) + q[0] * np.eye(3)


def rotation_matrix(q: Array) -> Array:
    """Attitude matrix (q0^2 - q.q) I + 2 q q^T - 2 q0 q^x (reference -> body)."""
    q0 = q[0]
    qv = q[1:]
    return (q0 * q0 - qv @ qv) * np.eye(3) + 2.0 * np.outer(qv, qv) - 2.0 * q0 * skew(qv)


def from_axis_angle(axis: Array, angle: float) -> Array:
    """Unit quaternion for a rotation of `angle` about `axis` (normalized here)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm <= ZERO_TOL:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], (np.sin(half) / norm) * axis))


def to_axis_angle(q: Array) -> tuple[Array, float]:
    """Eigenaxis and angle in [0, 2*pi); axis defaults to +x for tiny rotations."""
    s = float(np.linalg.norm(q[1:]))
    if s <= ZERO_TOL:
        return np.array([1.0, 0.0, 0.0]), 0.0
    return q[1:] / s, 2.0 * float(np.arctan2(s, q[0]))


def random_unit_quat(rng: np.random.Generator) -> Array:
    """Uniform random unit quaternion (normalized 4-d Gaussian)."""
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def sgn_pow(x, alpha: float):
    """Signed power sgn(x)*|x|^alpha, elementwise; continuous for alpha > 0."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** alpha


def sat_pow(x, alpha: float):
    """Saturated signed power sgn(x)*min(|x|^alpha, 1), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.minimum(np.abs(x) ** alpha, 1.0)


def axis_pow(q: Array, alpha: float) -> Array:
    """Vector part scaled by ||q||^-alpha; defined as 0 at ||q|| = 0.

    For 0 <= alpha < 1 this is continuous on the unit sphere and vanishes only
    at the two attitude equilibria +-[1, 0, 0, 0].
    """
    qv = np.asarray(q[1:], dtype=float)
    n = float(np.linalg.norm(qv))
    if n <= ZERO_TOL:
        return np.zeros(3)
    return qv / n**alpha


def chord_len(q0: float) -> float:
    """Chord distance from a unit quaternion with scalar part q0 to identity.

    ||Q - [1,0,0,0]|| = sqrt((q0-1)^2 + ||q||^2) = sqrt(2(1-q0)) for unit Q.
    """
    return float(np.sqrt(max(2.0 * (1.0 - q0), 0.0)))


def chord_pow(q: Array, alpha: float) -> Array:
    """Vector part scaled by the chord to identity raised to -alpha.

    q / sqrt(2(1-q0))^alpha, defined as 0 at q0 = 1.  Bounded by 1 in norm for
    unit input and 0 <= alpha <= 1, and continuous there.
    """
    q0 = float(q[0])
    if 1.0 - q0 <= ZERO_TOL:
        return np.zeros(3)
    return np.asarray(q[1:], dtype=float) / chord_len(q0) ** alpha


def chord_gap(q: Array, alpha: float) -> Array:
    """Difference chord_pow(q, alpha) - axis_pow(q, alpha).

    Near identity (q0 -> 1) this behaves like -(alpha/8) ||q||^2 axis_pow(q, alpha),
    i.e. it vanishes two orders faster than either term.  Subtracting the two
    directly would cancel catastrophically there, so use the exact identity
    ||q_v||^2 / (2(1 - q0)) = (1 + q0)/2 on the unit sphere, which turns the
    difference into axis_pow * expm1((alpha/2) log1p(-(1 - q0)/2)).
    """
    base = axis_pow(q, alpha)
    return base * np.expm1(0.5 * alpha * np.log1p(-0.5 * (1.0 - q[0])))


def chord_potential(x: float, alpha: float) -> float:
    """Scalar potential sqrt(2(1-x))^alpha for x in [-1, 1], alpha >= 0.

    This is the attitude-error potential used by the Lyapunov functions, as a
    function of the (sign-weighted) error scalar part.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative, got %r" % alpha)
    x = float(x)
    if abs(x) > 1.0 + 1e-9:
        raise ValueError("scalar part %r outside [-1, 1]" % x)
    x = min(max(x, -1.0), 1.0)
    return (2.0 * (1.0 - x)) ** (0.5 * alpha)


def flip_drop(x: float, alpha: float) -> float:
    """Potential change from re-aligning the logic sign: pot(|x|) - pot(x).

    Zero for x >= 0 and strictly negative for x < 0; this is the guaranteed
    Lyapunov decrease available to a hysteresis jump.
    """
    return chord_potential(abs(x), alpha) - chord_potential(x, alpha)
