"""Lyapunov certificates, homogeneity checks, and convergence metrics.

Everything here consumes truth states (or recorded traces); nothing feeds back
into the control loop.

Every certificate is a quadratic term plus potential_term, the gain-weighted
chord potential (2g/a) pot(h q0, a).  Their closed-form flow rates share one
form, chord_rate, and each reduced closed loop is homogeneous under one
dilation family, dilation_weights (Bhat & Bernstein, "Geometric homogeneity
with applications to finite-time stability", MCSS 2005).  ERROR_SYSTEMS
states, per error system, which gains and exponents these three take.

Each error system's flow splits into a reduced field, homogeneous of negative
degree (of degree 0 at the linear limit), and a remainder field: the flow
less the reduced field, its dynamic rows built from the error flows'
rigid-body kernels.  Both take the chart point x (quaternion vector parts,
then w_e or b_err) to R^dim, or a (dim, n) block of columns to its block of
rates, and block b of the remainder is its rows 3b..3b+2.  Finite time needs
each block to vanish under the dilation faster than the reduced field, which
perturbation_vanishing_check measures.
Both fields are written at h = h_tilde = 1: Q -> -Q on a quaternion block
maps the system at logic value -1 onto this one and commutes with the
dilation, which scales only the vector part.

A potential's exponent must match the fractional power of the channel that
couples back into it, otherwise a sign-indefinite cross term survives in the
flow derivative.  For the observer that matched exponent is 1+beta2 (not
1+beta1), and for the velocity-free loop it is 1+alpha1 (not 1+alpha3).  Both
conventions are recorded: the reference candidates v2 / v3 use the unmatched
exponents, v2_matched / v3_matched the matched ones.  Only the matched
candidates are monotone along flows; lyapunov_flow_report measures both so
the discrepancy stays visible rather than patched over.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import kinds
from .controllers import (
    FullStateGains,
    ObserverGains,
    OutputFeedbackGains,
    check_logic,
    check_positive,
    check_width,
    full_state_torque,
    output_feedback_torque,
)
from .integrate import _renorm, rk4_step, step_count, step_rows
from .quat import (
    Array,
    axis_pow,
    chord_gap,
    chord_potential,
    chord_pow,
    chord_pow_columns,
    cross,
    dot,
    flip_drop,
    mat_vec,
    sat_pow,
    sgn_pow,
    unit_or_warn,
)
from .rigid_body import (
    DesiredTrajectory,
    Inertia,
    error_dynamics_rate,
)

# ---------------------------------------------------------------------------
# Lyapunov functions


def potential_term(gain: float, x, a: float):
    """(2 gain/a) pot(x, a), the chord-potential term of every certificate.

    x is a sign-weighted error scalar part, h*q0, or an (n,) column of them; a
    logic jump changes the term by (2 gain/a) flip_drop(x, a).
    """
    return (2.0 * gain / a) * chord_potential(x, a)


def lyapunov_v1(q_e, w_e, h, inertia: Inertia, k1: float, alpha1: float):
    """V1 = 0.5 w_e' J w_e + potential_term(k1, h q_e0, 1+alpha1).

    Along full-state flows dV1/dt = -k2 w_e' sat_pow(w_e, alpha2) <= 0, and a
    logic jump changes V1 by (2 k1/(1+alpha1)) flip_drop(h q_e0, 1+alpha1).
    q_e, w_e and h are floats, giving a float, or (n,) columns, giving a column.
    """
    return (
        0.5 * dot(w_e, mat_vec(inertia.matrix, w_e))
        + potential_term(k1, h * q_e[0], 1.0 + alpha1)
    )


def min_jump_decrease(gain: float, alpha: float, delta: float) -> float:
    """Guaranteed Lyapunov decrease of one hysteresis jump.

    sigma = -2*gain*flip_drop(-delta, 1+alpha)/(1+alpha) > 0 for delta in (0,1);
    dividing the initial Lyapunov value by sigma bounds the total jump count.
    """
    a = 1.0 + alpha
    return -2.0 * gain * flip_drop(-delta, a) / a


def min_joint_jump_decrease(gains: OutputFeedbackGains, delta: float) -> float:
    """Guaranteed decrease of the v3_matched candidate over one joint logic jump.

    A joint jump fires from the jump set of h or of h_tilde (or both).  The
    variable whose set fired contributes at least its own min_jump_decrease;
    the other is reset to the sign of its scalar, which can only shrink its
    potential term.  The floor is therefore the smaller single-variable
    decrease, both taken at the matched exponent 1+alpha1 and hysteresis width
    delta.
    """
    return min(
        min_jump_decrease(gains.k1, gains.alpha1, delta),
        min_jump_decrease(gains.k2, gains.alpha1, delta),
    )


# ---------------------------------------------------------------------------
# Homogeneity of the reduced (chart) vector fields

DEFAULT_DEGREE = -0.2


@dataclass(frozen=True)
class DilationWeights:
    """Weights r_i > 0 and degree k <= 0 (0 at the linear limit) of a dilation e^r * x."""

    r: Array
    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if np.any(self.r <= 0.0):
            raise ValueError("dilation weights must be positive")
        if self.k > 0.0:
            raise ValueError("homogeneity degree must not be positive")

    def scale(self, x: Array, eps: float) -> Array:
        """eps^r * x for one point x in R^dim or a (dim, n) block of columns."""
        s = eps**self.r
        return (s if np.ndim(x) == 1 else s[:, None]) * x


def dilation_weights(p: float, quat_blocks: int) -> DilationWeights:
    """Dilation of degree k = DEFAULT_DEGREE for a reduced loop with exponent p.

    The state is quat_blocks chart blocks in R^3, then one rate (or bias)
    block in R^3.  r_q = -2k/(1-p) on the chart blocks and r_w = -(1+p)k/(1-p)
    on the last block; p in (0, 1] is alpha1 for the full-state loop, beta2
    for the observer and 2*alpha3 - 1 for the velocity-free loop.  p = 1, the
    linear limit, is the degree-0 member: the standard dilation r = 1, k = 0.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("homogeneity requires 0 < p <= 1, got %r" % p)
    if p == 1.0:
        return DilationWeights(np.ones(3 * quat_blocks + 3), 0.0)
    k = DEFAULT_DEGREE
    r_q = -2.0 * k / (1.0 - p)
    r_w = -(1.0 + p) * k / (1.0 - p)
    return DilationWeights(np.array([r_q] * (3 * quat_blocks) + [r_w] * 3), k)


def full_state_reduced_field(inertia: Inertia, gains: FullStateGains):
    """Leading-order closed-loop field near the h = 1 equilibrium, x = (q_e, w_e)."""
    j_inv = np.asarray(inertia.inverse)

    def field(x: Array) -> Array:
        q_v, w_e = x[:3], x[3:]
        dq = 0.5 * w_e
        dw = -j_inv @ (
            gains.k1 * axis_pow(q_v, 1.0 - gains.alpha1) + gains.k2 * sgn_pow(w_e, gains.alpha2)
        )
        return np.concatenate([dq, dw])

    return field


def observer_reduced_field(gains: ObserverGains):
    """Leading-order observer-error field near h_tilde = 1, x = (q_err, b_err)."""

    def field(x: Array) -> Array:
        q_v, b_e = x[:3], x[3:]
        dq = -0.5 * b_e - 0.5 * gains.mu1 * axis_pow(q_v, 1.0 - gains.beta1)
        db = gains.mu2 * axis_pow(q_v, 1.0 - gains.beta2)
        return np.concatenate([dq, db])

    return field


def output_feedback_reduced_field(inertia: Inertia, gains: OutputFeedbackGains):
    """Leading-order velocity-free field near h = h_tilde = 1, x = (q_lag, q_e, w_e)."""
    j_inv = np.asarray(inertia.inverse)

    def field(x: Array) -> Array:
        q_l, q_v, w_e = x[:3], x[3:6], x[6:]
        a = 1.0 - gains.alpha1
        dql = 0.5 * w_e - 0.5 * gains.k3 * axis_pow(q_l, 1.0 - gains.alpha3)
        dq = 0.5 * w_e
        dw = -j_inv @ (gains.k1 * axis_pow(q_v, a) + gains.k2 * axis_pow(q_l, a))
        return np.concatenate([dql, dq, dw])

    return field


#: dilation factors at which homogeneity_check compares f(eps^r x) with eps^(r+k) f(x)
HOMOGENEITY_EPS = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 2.0)


def homogeneity_check(field, weights: DilationWeights, n_samples: int = 10_000) -> float:
    """Max relative deviation of f(eps^r x) from eps^(r+k) f(x) over random x.

    The field takes all samples as one block of columns per eps of
    HOMOGENEITY_EPS.  Exactly homogeneous fields come back at floating-point
    rounding level; a wrong weight vector comes back at order one.
    """
    xs = np.random.default_rng(7).standard_normal((n_samples, weights.r.size)).T
    xs /= np.linalg.norm(xs, axis=0)
    fx = field(xs)
    worst = 0.0
    for eps in HOMOGENEITY_EPS:
        lhs = field(weights.scale(xs, eps))
        rhs = (eps ** (weights.r + weights.k))[:, None] * fx
        dev = np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300)
        worst = max(worst, float(dev.max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# Remainder fields (error flow less reduced field) and their vanishing ratios


def _lift(q_v: Array) -> Array:
    """Lift chart points q_v (a vector or a (3, n) block) to unit quaternions with q0 >= 0."""
    q0 = np.sqrt(np.maximum(1.0 - (q_v * q_v).sum(axis=0), 0.0))
    return np.concatenate((q0[None], q_v))


def _kinematic(q: Array, v: Array) -> Array:
    """(E(q) - I) v = q_v x v + (q0 - 1) v: the kinematics less its value at identity."""
    return np.asarray(cross(q[1:], v)) + (q[0] - 1.0) * v


def _estimator_gap(q: Array, a: float) -> Array:
    """E(q) chord_pow - axis_pow = (q0 - 1) axis_pow + q0 chord_gap, as q_v x chord_pow = 0."""
    return (q[0] - 1.0) * axis_pow(q[1:], a) + q[0] * chord_gap(q, a)


def full_state_remainder(inertia: Inertia, gains: FullStateGains, trajectory: DesiredTrajectory):
    """Full-state error flow less full_state_reduced_field; blocks (kinematic, dynamic).

    The desired rate is read at t = 0.
    """
    w_d = trajectory.omega_fn(0.0)
    a = 1.0 - gains.alpha1

    def field(x: Array) -> Array:
        q, w_e = _lift(x[:3]), x[3:]
        dq = 0.5 * _kinematic(q, w_e)
        dw = np.asarray(error_dynamics_rate(inertia, q, w_e, w_d, -gains.k1 * chord_gap(q, a))[1])
        return np.concatenate([dq, dw])

    return field


def observer_remainder(gains: ObserverGains):
    """Observer error flow less observer_reduced_field; blocks (attitude, bias)."""

    def field(x: Array) -> Array:
        q, b_e = _lift(x[:3]), x[3:]
        dq = -0.5 * _kinematic(q, b_e) - 0.5 * gains.mu1 * _estimator_gap(q, 1.0 - gains.beta1)
        db = gains.mu2 * chord_gap(q, 1.0 - gains.beta2)
        return np.concatenate([dq, db])

    return field


def output_feedback_remainder(
    inertia: Inertia, gains: OutputFeedbackGains, trajectory: DesiredTrajectory
):
    """Velocity-free error flow less its reduced field; blocks (filter_lag, kinematic, dynamic).

    The desired rate is read at t = 0.
    """
    w_d = trajectory.omega_fn(0.0)
    a = 1.0 - gains.alpha1

    def field(x: Array) -> Array:
        q_l, q, w_e = _lift(x[:3]), _lift(x[3:6]), x[6:]
        dql = 0.5 * _kinematic(q_l, w_e) - 0.5 * gains.k3 * _estimator_gap(q_l, 1.0 - gains.alpha3)
        dq = 0.5 * _kinematic(q, w_e)
        u_gap = -gains.k1 * chord_gap(q, a) - gains.k2 * chord_gap(q_l, a)
        dw = np.asarray(error_dynamics_rate(inertia, q, w_e, w_d, u_gap)[1])
        return np.concatenate([dql, dq, dw])

    return field


#: dilation factors at which perturbation_vanishing_check reports each ratio
REMAINDER_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


def perturbation_vanishing_check(
    remainder, weights: DilationWeights, blocks: tuple[str, ...], n_samples: int = 200
) -> dict[str, list[float]]:
    """Worst-case ratios ||f_b(eps^r x)|| / eps^(r_b + k) per block b and eps.

    Block b of the remainder is its rows 3b..3b+2, named blocks[b]; the
    remainder takes all samples as one block of columns per eps.  The
    finite-time argument needs each ratio to vanish as eps -> 0; the report
    returns, for every block, the max ratio over samples at each eps of
    REMAINDER_EPS so monotone decay is directly checkable.
    """
    xs = np.random.default_rng(11).standard_normal((n_samples, weights.r.size)).T
    xs /= np.linalg.norm(xs, axis=0)
    report: dict[str, list[float]] = {name: [] for name in blocks}
    for eps in REMAINDER_EPS:
        f = remainder(weights.scale(xs, eps))
        for b, name in enumerate(blocks):
            worst = float(np.linalg.norm(f[3 * b : 3 * b + 3], axis=0).max(initial=0.0))
            report[name].append(worst / eps ** (float(weights.r[3 * b]) + weights.k))
    return report


# ---------------------------------------------------------------------------
# Trace-level metrics


#: error-norm level whose last crossing convergence_metrics reports as the settling time
SETTLING_THRESHOLD = 1e-3


@dataclass
class ConvergenceReport:
    settling_time_s: float  # inf when the error never stays below threshold
    converged: bool
    steady_state_error: float  # rms of the error norm over the final 20%
    jump_count: int
    max_torque_inf_nm: float
    threshold: float

    def to_dict(self) -> dict:
        return asdict(self)


def error_norm(trace) -> Array:
    """Pointwise max(||q_e vector part||, ||w_e||) along a trace."""
    qe = np.linalg.norm(trace.q_e[:, 1:], axis=1)
    we = np.linalg.norm(trace.w_e, axis=1)
    return np.maximum(qe, we)


def convergence_metrics(trace) -> ConvergenceReport:
    """Settling time (last crossing of SETTLING_THRESHOLD), steady-state rms, jump count."""
    err = error_norm(trace)
    above = np.flatnonzero(err >= SETTLING_THRESHOLD)
    if above.size == 0:
        settling, converged = 0.0, True
    elif above[-1] == err.size - 1:
        settling, converged = float("inf"), False
    else:
        settling, converged = float(trace.t[above[-1] + 1]), True
    tail = err[int(np.floor(0.8 * err.size)) :]
    rms = float(np.sqrt(np.mean(tail**2)))
    u = trace.u_cmd
    return ConvergenceReport(
        settling_time_s=settling,
        converged=converged,
        steady_state_error=rms,
        jump_count=len(trace.events),
        max_torque_inf_nm=float(np.abs(u).max()),
        threshold=SETTLING_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# Closed-form flow derivatives, for finite-difference comparison


def v1_flow_rate(w_e, gains: FullStateGains) -> Array:
    """Flow derivative of lyapunov_v1 under the full-state law.

    dV1/dt = -k2 * w_e' sat_pow(w_e, alpha2); exact, all cross terms cancel.
    w_e is a tuple of three (n,) columns; the (n,) result maps the float
    sat_pow over each entry, so each entry is the point's rate bit for bit.
    """
    p = gains.alpha2
    w1, w2, w3 = w_e
    s1, s2, s3 = (np.array([sat_pow(x, p) for x in w.tolist()]) for w in w_e)
    return -gains.k2 * (w1 * s1 + w2 * s2 + w3 * s3)


def chord_rate(q, h, c: float, a: float, b: float) -> Array:
    """-c chord_pow(h Q, 1-a)' chord_pow(h Q, 1-b), the flow rate of a potential.

    This is the exact rate of a matched candidate whose potential has exponent
    1+b and is driven through a channel of exponent a.  a = b is the rate a
    reference candidate would need in order to be monotone.  q is a tuple of
    four (n,) columns and h an (n,) column of +-1; the (n,) result is formed
    through chord_pow_columns, so each entry is chord_pow's bit for bit.
    """
    return -c * dot(chord_pow_columns(q, 1.0 - a, h), chord_pow_columns(q, 1.0 - b, h))


# ---------------------------------------------------------------------------
# Continuous-feedback error flows.  The simulator holds measurements and
# torque across each step, which floors its attainable dissipation accuracy;
# these flows close the loop continuously in error coordinates so the
# Lyapunov claims can be checked at integrator precision.  Noise and
# disturbances are deliberately absent.  Each is built at the logic pair
# (h, h_tilde) it holds over a flow interval, reading its gains and exponents
# there, and, like the simulator's flow, maps t and a flat float sequence y to
# a float tuple.  A law returns its feedback torque, and error_dynamics_rate
# states the flow under the feedforward plus that feedback, so no flow forms
# the feedforward itself.  Their smooth algebra is inline, bit for bit the
# composed kernels; the laws and chord_pow are called by name, as globals.


def full_state_error_flow(
    inertia: Inertia, gains: FullStateGains, trajectory: DesiredTrajectory, h, h_tilde
):
    """Built at (h, h_tilde), (t, y) -> ydot for y = [Q_e, w_e], full-state law; reads w_d only."""

    def flow(t: float, y) -> tuple:
        q_e, w_e = y[0:4], y[4:7]
        u_fb = full_state_torque(gains, q_e, w_e, h)
        dq, dw = error_dynamics_rate(inertia, q_e, w_e, trajectory.omega_fn(t), u_fb)
        return dq + dw

    return flow


def observer_error_flow(gains: ObserverGains, h, h_tilde):
    """Built at (h, h_tilde), (t, y) -> ydot for y = [Q_err, b_err].

    The estimation error is autonomous: the plant terms cancel and only the
    correction powers drive it,

      Qdot_err = 0.5 Q_err * [0, -b_err - mu1 chord_pow(h~ Q_err, 1-beta1)]
      bdot_err = mu2 chord_pow(h~ Q_err, 1-beta2),

    which is what makes a standalone flow check of v2 meaningful.  The
    kinematics rows are kinematics_rate's, inline.
    """
    mu1, mu2 = gains.mu1, gains.mu2
    p1, p2 = 1.0 - gains.beta1, 1.0 - gains.beta2

    def flow(t: float, y) -> tuple:
        q0, q1, q2, q3, b1, b2, b3 = y
        q_err = (q0, q1, q2, q3)
        a1, a2, a3 = chord_pow(q_err, p1, h_tilde)
        w1, w2, w3 = -b1 - mu1 * a1, -b2 - mu1 * a2, -b3 - mu1 * a3
        c1, c2, c3 = chord_pow(q_err, p2, h_tilde)
        return (
            0.5 * (-q1 * w1 - q2 * w2 - q3 * w3),
            0.5 * (q0 * w1 + q2 * w3 - q3 * w2),
            0.5 * (q0 * w2 - q1 * w3 + q3 * w1),
            0.5 * (q0 * w3 + q1 * w2 - q2 * w1),
            mu2 * c1, mu2 * c2, mu2 * c3,
        )

    return flow


def output_feedback_error_flow(
    inertia: Inertia, gains: OutputFeedbackGains, trajectory: DesiredTrajectory, h, h_tilde
):
    """Built at (h, h_tilde), (t, y) -> ydot for y = [Q_lag, Q_e, w_e], velocity-free law.

    The filter lag obeys Qdot_lag = 0.5 Q_lag * [0, w_e - k3 chord_pow(h~
    Q_lag, 1-alpha3)]: it tracks the true error rate it cannot measure.  Its
    rows are kinematics_rate's, inline.  Reads w_d only.
    """
    k3, p3 = gains.k3, 1.0 - gains.alpha3

    def flow(t: float, y) -> tuple:
        q_lag, q_e, w_e = y[0:4], y[4:8], y[8:11]
        u_fb = output_feedback_torque(gains, q_e, q_lag, h, h_tilde)
        dq, dw = error_dynamics_rate(inertia, q_e, w_e, trajectory.omega_fn(t), u_fb)
        l0, l1, l2, l3 = q_lag
        e1, e2, e3 = w_e
        c1, c2, c3 = chord_pow(q_lag, p3, h_tilde)
        w1, w2, w3 = e1 - k3 * c1, e2 - k3 * c2, e3 - k3 * c3
        return (
            0.5 * (-l1 * w1 - l2 * w2 - l3 * w3),
            0.5 * (l0 * w1 + l2 * w3 - l3 * w2),
            0.5 * (l0 * w2 - l1 * w3 + l3 * w1),
            0.5 * (l0 * w3 + l1 * w2 - l2 * w1),
            *dq, *dw,
        )

    return flow


#: per-step decrease tolerance of flow_excess, relative to 1 + V
FLOW_STEP_TOL = 1e-8
#: fewest steps a flow report's centered differences and guard bands run on
MIN_FLOW_STEPS = 4
#: fd_rel_error skips steps whose |rate| is below this fraction of its run maximum
FD_FLOOR = 1e-3


@dataclass(frozen=True)
class FlowCheckReport:
    """Lyapunov verification results from one hybrid error-flow run.

    flow_excess  max over flow steps of dV - FLOW_STEP_TOL*(1 + V); <= 0 means
                 the per-step decrease condition held with tolerance to spare
    max_rate     max over flow steps of dV/dt; positive for a candidate that
                 genuinely grows somewhere along the flow
    jump_drops   V_pre - V_post at each logic jump, in event order
    fd_rel_error worst |centered-difference V - closed-form rate| / |rate|
                 over steps where |rate| is nonzero and clears FD_FLOOR times
                 its run maximum, with jump neighborhoods and endpoints
                 excluded; nan when no step qualifies
    """

    jump_times: tuple[float, ...]
    flow_excess: dict[str, float]
    max_rate: dict[str, float]
    jump_drops: dict[str, tuple[float, ...]]
    fd_rel_error: dict[str, float]


@dataclass(frozen=True)
class ErrorSystem:
    """One hybrid error system and its Lyapunov certificate.

    Callables take the system's own gains g (the observer's for the observer
    system, else the controller's), inertia j and trajectory tr.
    """

    layout: str  # the error state y, in R^size
    size: int
    quat_blocks: tuple[slice, ...]  # unit-quaternion blocks of y
    scalars: tuple[int, int]  # indices in y of the scalars h and h_tilde jump on
    jump: Callable  # jump rule, see attkit.kinds
    flow: Callable  # (g, j, tr, h, h_tilde) -> the flow held at that pair, (t, y) -> ydot
    coords: Callable  # (q_e, w_e, q_est_err, b_err) -> y
    # (y, h, h_tilde, g, j) -> {candidate: V}, plus v1 where V is built on it; y, h and
    # h_tilde are floats, or (n,) columns giving columns
    candidates: Callable
    # (y, h, h_tilde, g) -> {candidate: closed-form dV/dt}, its keys the candidates measured;
    # (n,) columns only, giving columns
    rates: Callable
    governing: str  # the certified candidate
    sigma: Callable  # (g, delta) -> guaranteed drop of the governing candidate per jump
    counts: Callable  # event -> whether a run's jump budget counts it
    weights: Callable  # g -> DilationWeights of the reduced field
    reduced_field: Callable  # (g, j) -> field x -> R^dim, at h = h_tilde = 1
    remainder: Callable  # (g, j, tr) -> the error flow less the reduced field, x -> R^dim
    blocks: tuple[str, ...]  # remainder block names, rows 3b..3b+2 for block b
    budget: tuple[str, Callable] | None = None  # (candidate, sigma); None: governing's
    observer: bool = False  # autonomous: needs no inertia or trajectory


def _v3_candidates(y, h, ht, g, j) -> dict[str, float]:
    """v3 and v3_matched, V1 of (Q_e, w_e) plus a lag potential; V1 rides along as v1."""
    v1 = lyapunov_v1(y[4:8], y[8:11], h, j, g.k1, g.alpha1)
    return {
        "v1": v1,
        "v3": v1 + potential_term(g.k2, ht * y[0], 1.0 + g.alpha3),
        "v3_matched": v1 + potential_term(g.k2, ht * y[0], 1.0 + g.alpha1),
    }


# The reference candidates v2 and v3 are reported but not certified.  Along the
# flow each carries a sign-indefinite cross term, for v2 mu2 b_err'(K_b - K_a)
# with K_a = chord_pow(h~ Q_err, 1-beta1) and K_b = chord_pow(h~ Q_err, 1-beta2),
# which vanishes only at beta1 = 1; their rates are the ones they would need.
ERROR_SYSTEMS = {
    "full_state": ErrorSystem(
        layout="[Q_e, w_e]", size=7, quat_blocks=(slice(0, 4),), scalars=(0, 0),
        jump=kinds.jump_h,
        flow=lambda g, j, tr, h, ht: full_state_error_flow(j, g, tr, h, ht),
        coords=lambda q_e, w_e, q_est_err, b_err: (*q_e, *w_e),
        candidates=lambda y, h, ht, g, j: {
            "v1": lyapunov_v1(y[0:4], y[4:7], h, j, g.k1, g.alpha1)
        },
        rates=lambda y, h, ht, g: {"v1": v1_flow_rate(y[4:7], g)},
        governing="v1",
        sigma=lambda g, delta: min_jump_decrease(g.k1, g.alpha1, delta),
        counts=lambda ev: ev.h_post != ev.h_pre,
        weights=lambda g: dilation_weights(g.alpha1, 1),
        reduced_field=lambda g, j: full_state_reduced_field(j, g),
        remainder=lambda g, j, tr: full_state_remainder(j, g, tr),
        blocks=("kinematic", "dynamic"),
    ),
    "observer": ErrorSystem(
        layout="[Q_err, b_err]", size=7, quat_blocks=(slice(0, 4),), scalars=(0, 0),
        jump=kinds.jump_h_tilde,
        flow=lambda g, j, tr, h, ht: observer_error_flow(g, h, ht),
        coords=lambda q_e, w_e, q_est_err, b_err: (*q_est_err, *b_err),
        # the matched potential exponent 1 + beta2 is spelled 2 * beta1
        candidates=lambda y, h, ht, g, j: {
            "v2": 0.5 * dot(y[4:7], y[4:7]) + potential_term(g.mu2, ht * y[0], 1.0 + g.beta1),
            "v2_matched": 0.5 * dot(y[4:7], y[4:7])
            + potential_term(g.mu2, ht * y[0], 2.0 * g.beta1),
        },
        rates=lambda y, h, ht, g: {
            "v2": chord_rate(y[0:4], ht, g.mu1 * g.mu2, g.beta1, g.beta1),
            "v2_matched": chord_rate(y[0:4], ht, g.mu1 * g.mu2, g.beta1, g.beta2),
        },
        governing="v2_matched",
        sigma=lambda g, delta: min_jump_decrease(g.mu2, g.beta2, delta),
        counts=lambda ev: ev.ht_post != ev.ht_pre,
        weights=lambda g: dilation_weights(g.beta2, 1),
        reduced_field=lambda g, j: observer_reduced_field(g),
        remainder=lambda g, j, tr: observer_remainder(g),
        blocks=("attitude", "bias"),
        # the run budget keeps the reference candidate and exponent
        budget=("v2", lambda g, delta: min_jump_decrease(g.mu2, g.beta1, delta)),
        observer=True,
    ),
    "attitude_only": ErrorSystem(
        layout="[Q_lag, Q_e, w_e]", size=11, quat_blocks=(slice(0, 4), slice(4, 8)),
        scalars=(4, 0),
        jump=kinds.jump_joint,
        flow=lambda g, j, tr, h, ht: output_feedback_error_flow(j, g, tr, h, ht),
        coords=lambda q_e, w_e, q_est_err, b_err: (*q_est_err, *q_e, *w_e),
        candidates=_v3_candidates,
        rates=lambda y, h, ht, g: {
            "v3": chord_rate(y[0:4], ht, g.k1 * g.k2 * g.k3, g.alpha3, g.alpha3),
            "v3_matched": chord_rate(y[0:4], ht, g.k2 * g.k3, g.alpha3, g.alpha1),
        },
        governing="v3_matched",
        sigma=lambda g, delta: min_joint_jump_decrease(g, delta),
        counts=lambda ev: True,
        weights=lambda g: dilation_weights(g.alpha1, 2),
        reduced_field=lambda g, j: output_feedback_reduced_field(j, g),
        remainder=lambda g, j, tr: output_feedback_remainder(j, g, tr),
        blocks=("filter_lag", "kinematic", "dynamic"),
    ),
}


def lyapunov_flow_report(
    kind: str,
    gains,
    *,
    y0: Array,
    inertia: Inertia | None = None,
    trajectory: DesiredTrajectory | None = None,
    h0: int = 1,
    h_tilde0: int = 1,
    delta: float | None = None,
    dt: float = 1e-3,
    t_final: float = 30.0,
) -> FlowCheckReport:
    """Integrate one hybrid error system and check every Lyapunov claim on it.

    kind, a key of ERROR_SYSTEMS ("full_state", "observer", "attitude_only"),
    selects the flow, the state layout, and the candidates measured.  delta is
    the hysteresis width the run jumps at, in (0, 1).  The observer kind needs
    it (its gain set carries none; the simulator jumps h_tilde at the
    controller's delta, which cli.verify passes), and ValueError names delta
    when it is missing.  The other kinds use their gains' delta, and a
    different delta raises ValueError.  dt and t_final must be positive and
    finite, and y0 finite; the run takes integrate.step_count(t_final, dt)
    steps.
    Reference candidates are finite-differenced against the rate they were
    reported to satisfy, matched candidates against their own exact rate.  The
    state travels as a float tuple; y0's quaternion blocks are normalized once,
    with a warning naming each block that was not unit norm, and after every
    step renormalized under the simulator's drift guard, which raises
    SimulationError naming the step.  The flow is built at the start's logic
    pair and again after each jump, at the pair it then holds.
    As in run_scenario, the candidates and their closed-form rates are formed
    once over the recorded run, its states and post-jump logic pairs, and the
    pre-jump candidates once over the jump rows at their pre-jump pairs; the
    loop only jumps, records and steps.
    """
    if kind not in ERROR_SYSTEMS:
        raise ValueError("unknown flow-check kind %r" % kind)
    es = ERROR_SYSTEMS[kind]
    y = np.asarray(y0, dtype=float).copy()
    if not es.observer:
        if inertia is None or trajectory is None:
            raise ValueError("%s flow check needs inertia and trajectory" % kind)
        if delta not in (None, gains.delta):
            raise ValueError("delta = %r differs from the gains' delta = %r" % (delta, gains.delta))
        delta = gains.delta
    elif delta is None:
        raise ValueError("the observer flow check needs delta, the width h_tilde jumps at")
    else:
        check_width("delta", delta)
    check_positive("dt", dt)
    check_positive("t_final", t_final)
    if y.shape != (es.size,):
        raise ValueError("%s flow state is %s in R^%d" % (kind, es.layout, es.size))
    if not np.isfinite(y).all():
        raise ValueError("y0 is not finite: %s" % y.tolist())
    s, s_tilde = es.scalars

    n = step_count(t_final, dt, "t_final", "dt")
    if n < MIN_FLOW_STEPS:
        raise ValueError("t_final = %r at dt = %r gives %d steps; the finite-difference checks"
                         " need at least %d" % (t_final, dt, n, MIN_FLOW_STEPS))
    for sl in es.quat_blocks:
        y[sl] = unit_or_warn(y[sl], "y0[%d:%d]" % (sl.start, sl.stop))
    y = tuple(y.tolist())
    h, ht = check_logic("h0", h0), check_logic("h_tilde0", h_tilde0)
    flow = es.flow(gains, inertia, trajectory, h, ht)
    ys, logic = step_rows(n, es.size, "t_final", "dt"), step_rows(n, 2, "t_final", "dt")
    jumps: list[tuple[int, int, int]] = []  # (step, h, h_tilde before the jump)

    for i in range(n + 1):
        h2, ht2, jumped = es.jump(h, ht, y[s], y[s_tilde], delta)
        if jumped:
            jumps.append((i, h, ht))
            h, ht = h2, ht2
            flow = es.flow(gains, inertia, trajectory, h, ht)
        ys[i], logic[i] = y, (h, ht)
        if i == n:
            break
        y = list(rk4_step(flow, i * dt, y, dt))
        for sl in es.quat_blocks:
            y[sl] = _renorm(y[sl], i)
        y = tuple(y)

    cols, hs, hts = tuple(ys.T), logic[:, 0], logic[:, 1]
    v = es.candidates(cols, hs, hts, gains, inertia)
    rate = es.rates(cols, hs, hts, gains)
    names = tuple(rate)
    jump_steps = [k for k, _, _ in jumps]
    # the jump rows at their pre-jump logic pairs; each drop is that less the record
    pre_logic = np.array([pair for _, *pair in jumps], dtype=float).reshape(-1, 2)
    pre = es.candidates(tuple(ys[jump_steps].T), *pre_logic.T, gains, inertia)
    drops = {nm: tuple((pre[nm] - v[nm][jump_steps]).tolist()) for nm in names}
    # every jump flips a logic variable, so step i -> i+1 flows where the pair holds
    flow_step = (logic[1:] == logic[:-1]).all(axis=1)
    # centered differences at j = 1..n-1; drop a guard band around each jump
    fd_ok = np.zeros(n + 1, dtype=bool)
    fd_ok[1:n] = True
    for k in jump_steps:
        fd_ok[max(k - 2, 0) : min(k + 1, n) + 1] = False

    flow_excess, max_rate, fd_rel = {}, {}, {}
    for nm in names:
        dv = np.diff(v[nm])
        flow_excess[nm] = float((dv - FLOW_STEP_TOL * (1.0 + v[nm][:-1]))[flow_step].max())
        max_rate[nm] = float(dv[flow_step].max() / dt)
        fd = (v[nm][2:] - v[nm][:-2]) / (2.0 * dt)
        r_mid = rate[nm][1:n]
        sel = fd_ok[1:n] & (r_mid != 0.0)  # no relative error against a zero rate
        if sel.any():
            sel &= np.abs(r_mid) >= FD_FLOOR * float(np.abs(r_mid[sel]).max())
        fd_rel[nm] = (
            float(np.max(np.abs(fd[sel] - r_mid[sel]) / np.abs(r_mid[sel])))
            if sel.any()
            else float("nan")
        )

    return FlowCheckReport(
        jump_times=tuple(k * dt for k in jump_steps),
        flow_excess=flow_excess,
        max_rate=max_rate,
        jump_drops=drops,
        fd_rel_error=fd_rel,
    )


# ---------------------------------------------------------------------------
# Trace-level bound checks


#: relative slack of the v1 envelope check, as a fraction of 1 + v1(0)
GRONWALL_TOL = 1e-9


@dataclass
class BoundReport:
    """Closed-form run bounds checked against a recorded trace.

    torque_bound_nm is the bound the scenario's law must respect
    (rate-feedback kinds: k1 + k2 + (w1^2 + w2)*||J||; velocity-free kind:
    k1 + k2 + (w1 + w2)*||J||, with w1/w2 the trajectory rate/acceleration
    bounds); torque_bound_alt_nm is the companion form, reported so both stay
    visible.  jump_bound is (initial Lyapunov value)/(guaranteed decrease per
    jump) for the governing logic variable.  gronwall_margin is the worst
    v1(t) - envelope value (at most GRONWALL_TOL*(1 + v1(0)) when the check holds).
    """

    kind: str
    torque_bound_nm: float
    torque_bound_alt_nm: float
    max_torque_inf_nm: float
    torque_ok: bool
    jump_bound: float
    jump_count: int
    jump_ok: bool
    gronwall_margin: float
    gronwall_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def start_state(trace) -> tuple[tuple, int, int]:
    """(y0, h0, h_tilde0): row 0 in the trace's error-system coordinates and the
    logic pair in force before any step-0 jump (row 0 holds the pair after it;
    events are appended in step order, so a step-0 event is events[0]).
    """
    es = ERROR_SYSTEMS[kinds.get(trace.kind).error_system]
    y0 = es.coords(trace.q_e[0], trace.w_e[0], trace.q_est_err[0], trace.b[0] - trace.b_hat[0])
    if trace.events and trace.events[0].step == 0:
        return y0, trace.events[0].h_pre, trace.events[0].ht_pre
    return y0, int(trace.h[0]), int(trace.h_tilde[0])


def bound_checks(
    trace,
    gains,
    inertia: Inertia,
    trajectory: DesiredTrajectory,
    observer_gains: ObserverGains | None = None,
) -> BoundReport:
    """Check the componentwise torque bound, the jump-count bound, and the
    exponential v1 envelope on one trace.

    The envelope is v1(t) <= (v1(0) + 3*k2/c0)*exp(c0*t) - 3*k2/c0 with
    c0 = 2*k2/lambda_min(J).  The certainty-equivalence loop can trade
    Lyapunov decrease for bias convergence, so v1 is only envelope-bounded
    there; for the dissipative kinds the same envelope holds trivially.

    Jumps are counted against the budget of the kind's error system: full_state
    counts h flips against v1(0)/sigma1; biased_gyro counts h_tilde flips
    against its ErrorSystem.budget, v2(0)/sigma(mu2, beta1): the reference
    candidate v2, potential exponent 1+beta1, over min_jump_decrease(mu2,
    beta1, delta), not the governing v2_matched (its h flips are governed by
    the envelope, not by a monotone candidate); attitude_only counts joint
    events against v3_matched(0)/min_joint_jump_decrease; v1(0) and V(0) are
    at start_state.
    """
    kind = kinds.get(trace.kind)
    es = ERROR_SYSTEMS[kind.error_system]
    es_gains = observer_gains if es.observer else gains
    if es_gains is None:
        raise ValueError("%s bound check needs observer gains" % trace.kind)
    w1, w2 = trajectory.omega_bound, trajectory.omega_dot_bound
    jn = inertia.spectral_norm
    bound, alt = (gains.k1 + gains.k2 + (w1**p + w2) * jn for p in kind.torque_bounds)
    u_max = float(np.abs(trace.u_cmd).max())

    y0, h0, ht0 = start_state(trace)
    v1_0 = lyapunov_v1(trace.q_e[0], trace.w_e[0], h0, inertia, gains.k1, gains.alpha1)
    candidate, budget_sigma = es.budget or (es.governing, es.sigma)
    v0 = es.candidates(y0, h0, ht0, es_gains, inertia)[candidate]
    sigma = budget_sigma(es_gains, gains.delta)
    count = sum(1 for ev in trace.events if es.counts(ev))

    c0 = 2.0 * gains.k2 / inertia.lambda_min
    offset = 3.0 * gains.k2 / c0
    envelope = (v1_0 + offset) * np.exp(c0 * (trace.t - trace.t[0])) - offset
    margin = float(np.max(trace.v1 - envelope))

    return BoundReport(
        kind=trace.kind,
        torque_bound_nm=float(bound),
        torque_bound_alt_nm=float(alt),
        max_torque_inf_nm=u_max,
        torque_ok=bool(u_max < bound),
        jump_bound=float(v0 / sigma),
        jump_count=int(count),
        jump_ok=bool(count <= v0 / sigma),
        gronwall_margin=margin,
        gronwall_ok=bool(margin <= GRONWALL_TOL * (1.0 + v1_0)),
    )
