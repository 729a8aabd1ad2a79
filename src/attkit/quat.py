"""Quaternion algebra and the nonsmooth feedback maps used by the controllers.

Scalar-first convention throughout: Q = [q0, q1, q2, q3] with q0 the scalar
part and q = [q1, q2, q3] the vector part.  Unit quaternions double-cover the
rotation group, so Q and -Q describe the same physical attitude; nothing in
this module forces a hemisphere, because the hybrid controllers need both
antipodes as distinct equilibria.

The attitude convention is passive: rotate(Q, v) maps coordinates of the
reference frame into the rotated (body) frame.

The per-step kernels (quat_mul, quat_conj, cross, dot, mat_vec, rotate,
chord_pow, sat_pow) take any float sequence, ndarrays included, and return
Python floats or float tuples: on 3- and 4-vectors NumPy's per-call overhead
outweighs the arithmetic, so the laws take floats.  Callers that need vector
arithmetic wrap the result with np.asarray.  quat_mul, quat_conj, rotate,
mat_vec and dot also take tuples of (n,) columns, one point per entry, and
return columns equal to the float results bit for bit.  chord_pow and sat_pow
take floats only, so that the simulator's step pays no type test; sat_pow is
comparisons around one power, passes NaN and maps -0.0 to +0.0.  The
certificate rates are formed once over a recorded run, so analysis.chord_rate
and analysis.v1_flow_rate take (n,) columns only: the one through
chord_pow_columns, the other by mapping sat_pow entry by entry.
chord_potential takes both: recorded candidates are columns, bound_checks'
start values and sigma floats.  The remaining helpers work on ndarrays;
axis_pow and chord_gap also take a block of columns, one point per column.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

Array = np.ndarray

#: chord_pow takes 1 - h q0 at or below this as identity: its dead zone covers chords
#: sqrt(2(1 - h q0)) below about 1.41e-6.  measure_attitude leaves |q_v| <= it untilted.
ZERO_TOL = 1e-12


def quat_mul(q, p) -> tuple:
    """Hamilton product q * p, scalar-first."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = p
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_conj(q) -> tuple:
    """Conjugate [q0, -q]; the inverse rotation for unit input."""
    q0, q1, q2, q3 = q
    return (q0, -q1, -q2, -q3)


def unit_or_warn(q, label: str) -> tuple:
    """Normalize a configured quaternion to a float tuple, warning when it was not unit norm.

    ValueError naming label when q holds a NaN or an infinity, or has zero norm.
    """
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("%s is not finite: %s" % (label, q.tolist()))
    n = float(np.linalg.norm(q))
    if n <= 1e-12:
        raise ValueError("%s has zero norm" % label)
    if abs(n - 1.0) > 1e-9:
        warnings.warn("%s not unit norm (|Q| = %.6f); renormalizing" % (label, n))
    return tuple((q / n).tolist())


def cross(u, v) -> tuple:
    """u x v of two 3-vectors; equal to np.cross(u, v) bit for bit."""
    u1, u2, u3 = u
    v1, v2, v3 = v
    return (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)


def dot(u, v) -> float:
    """u . v of two 3-vectors."""
    u1, u2, u3 = u
    v1, v2, v3 = v
    return u1 * v1 + u2 * v2 + u3 * v3


def mat_vec(rows, v) -> tuple:
    """M v for a 3x3 matrix given as rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    v1, v2, v3 = v
    return (a * v1 + b * v2 + c * v3, d * v1 + e * v2 + f * v3, g * v1 + h * v2 + i * v3)


def rotate(q, v) -> tuple:
    """R(Q) v, R = (q0^2 - q.q) I + 2 q q^T - 2 q0 q^x; R(quat_conj(Q)) = R(Q)^T."""
    q0, q1, q2, q3 = q
    v1, v2, v3 = v
    s = q0 * q0 - (q1 * q1 + q2 * q2 + q3 * q3)
    d = 2.0 * (q1 * v1 + q2 * v2 + q3 * v3)
    c = 2.0 * q0
    return (
        s * v1 + d * q1 - c * (q2 * v3 - q3 * v2),
        s * v2 + d * q2 - c * (q3 * v1 - q1 * v3),
        s * v3 + d * q3 - c * (q1 * v2 - q2 * v1),
    )


def random_unit_quat(rng: np.random.Generator) -> Array:
    """Uniform random unit quaternion (normalized 4-d Gaussian)."""
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def sgn_pow(x, alpha: float):
    """Signed power sgn(x)*|x|^alpha, elementwise; continuous for alpha > 0."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** alpha


def sat_pow(x: float, alpha: float) -> float:
    """Saturated signed power sgn(x)*min(|x|^alpha, 1) of one float, for alpha in (0, 1].

    Comparisons around one power: +0.0 at +-0.0, NaN as it came, and bit for bit
    copysign(min(abs(x) ** alpha, 1.0), x) if x else 0.0 on that exponent domain.
    """
    if x > 0.0:
        return x ** alpha if x < 1.0 else 1.0
    if x < 0.0:
        return -((-x) ** alpha) if x > -1.0 else -1.0
    return 0.0 if x == 0.0 else x


def axis_pow(q_v: Array, alpha: float) -> Array:
    """Vector part q_v scaled by ||q_v||^-alpha; defined as 0 at q_v = 0.

    q_v is a 3-vector or a (3, n) block mapped column by column.  For
    0 <= alpha < 1 this is continuous on the unit sphere and vanishes only at
    the two attitude equilibria +-[1, 0, 0, 0].  Only an exact zero is
    special-cased: dilations put chart points far below ZERO_TOL, and the
    power is well defined there.
    """
    q_v = np.asarray(q_v, dtype=float)
    n = np.sqrt((q_v * q_v).sum(axis=0))
    # np.power, not **: a NumPy scalar's ** may round unlike a block's loop
    return q_v / np.where(n == 0.0, 1.0, np.power(n, alpha))


def chord_pow(q, alpha: float, h: int = 1) -> tuple:
    """Vector part of h Q scaled by the chord from h Q to identity raised to -alpha.

    h q / sqrt(2(1-h q0))^alpha, defined as 0 at h q0 = 1; h = +-1 is a logic
    variable.  Bounded by 1 in norm for unit input and 0 <= alpha <= 1, and
    continuous there.
    """
    q0, q1, q2, q3 = q
    if h < 0:
        q0, q1, q2, q3 = -q0, -q1, -q2, -q3
    gap = 1.0 - q0  # the chord ||h Q - identity|| is sqrt(2 gap) for unit input
    if gap <= ZERO_TOL:
        return (0.0, 0.0, 0.0)
    s = math.sqrt(2.0 * gap) ** alpha
    return (q1 / s, q2 / s, q3 / s)


def _pow_each(base: Array, p: float) -> Array:
    """base ** p for an (n,) column, with Python's float ** on each entry.

    NumPy's vectorised power may round the last bit unlike Python's **, and
    every column kernel here must equal its float path bit for bit.
    """
    return np.array([c ** p for c in base.tolist()])


def chord_pow_columns(q, alpha: float, h) -> tuple:
    """chord_pow over a tuple of (n,) columns q, with h an (n,) column of +-1.

    Returns three (n,) columns equal to chord_pow's floats bit for bit: the
    sign flip h * column is exact, the guard is chord_pow's, and each power
    is Python's float ** (_pow_each).
    """
    q0, q1, q2, q3 = (h * c for c in q)
    gap = 1.0 - q0
    at_identity = gap <= ZERO_TOL
    s = _pow_each(np.sqrt(2.0 * np.where(at_identity, 0.5, gap)), alpha)
    return tuple(np.where(at_identity, 0.0, c / s) for c in (q1, q2, q3))


def chord_gap(q: Array, alpha: float) -> Array:
    """Difference chord_pow(q, alpha) - axis_pow(q[1:], alpha).

    q is one quaternion or a (4, n) block of columns.  Near identity
    (q0 -> 1) this behaves like -(alpha/8) ||q||^2 axis_pow(q[1:], alpha),
    i.e. it vanishes two orders faster than either term.  Subtracting the two
    directly would cancel catastrophically there, so use the exact identity
    ||q_v||^2 / (2(1 - q0)) = (1 + q0)/2 on the unit sphere, which turns the
    difference into axis_pow * expm1((alpha/2) log1p(-(1 - q0)/2)).  For
    q0 > 0, 1 - q0 is itself formed as ||q_v||^2 / (1 + q0): the subtraction
    rounds to zero once ||q_v||^2 falls below the spacing of doubles near 1.
    Dividing by 1 + |q0| keeps that where q0 > 0 and never divides by zero.
    """
    q0, q_v = q[0], q[1:]
    one_minus_q0 = np.where(q0 > 0.0, (q_v * q_v).sum(axis=0) / (1.0 + abs(q0)), 1.0 - q0)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at q0 = -1, where axis_pow is 0
        return axis_pow(q_v, alpha) * np.expm1(0.5 * alpha * np.log1p(-0.5 * one_minus_q0))


def chord_potential(x, alpha: float):
    """Scalar potential sqrt(2(1-x))^alpha for x in [-1, 1], alpha >= 0.

    This is the attitude-error potential used by the Lyapunov functions, as a
    function of the (sign-weighted) error scalar part.  x is one float, or an
    (n,) column mapped entry by entry.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative, got %r" % alpha)
    try:
        x = float(x)
    except TypeError:  # an (n,) column; float() admits every scalar kind with no type list.
        # The float path stays: a column-only body took bound_checks' ~5.6 float calls per
        # run from 0.6-0.9 to 6.5-9.9 us each, bound_checks from 40 to 62-91 us (2-core VM).
        outside = np.abs(x) > 1.0 + 1e-9
        if outside.any():
            raise ValueError("scalar part %r outside [-1, 1]" % float(x[outside][0])) from None
        return _pow_each(2.0 * (1.0 - x.clip(-1.0, 1.0)), 0.5 * alpha)
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
