"""Lyapunov evaluation, homogeneity checks, and convergence metrics.

Everything here consumes truth states (or recorded traces); nothing feeds back
into the control loop.

A note on the scenario-2 and scenario-3 Lyapunov functions.  Each candidate is
quadratic-plus-chord-potential, and the chord potential's exponent must match
the fractional power appearing in the channel that couples back into it,
otherwise a sign-indefinite cross term survives in the flow derivative.  For
the observer that matched exponent is 1+beta2 (not 1+beta1), and for the
velocity-free loop it is 1+alpha1 (not 1+alpha3).  Both conventions are
implemented: `lyapunov_v2` / `lyapunov_v3` use the unmatched exponents for
reference, `lyapunov_v2_matched` / `lyapunov_v3_matched` the matched ones.
Only the matched variants are monotone along flows; `lyapunov_flow_report`
measures both so the discrepancy stays visible rather than patched over.
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
    full_state_torque,
    output_feedback_torque,
)
from .quat import (
    Array,
    axis_pow,
    chord_gap,
    chord_potential,
    chord_pow,
    e_matrix,
    flip_drop,
    quat_mul,
    quat_normalize,
    rotation_matrix,
    sat_pow,
    sgn_pow,
)
from .rigid_body import (
    DesiredTrajectory,
    Inertia,
    error_dynamics_rate,
    feedforward_torque,
    xi_matrix,
)

# ---------------------------------------------------------------------------
# Lyapunov functions


def lyapunov_v1(
    q_e: Array, w_e: Array, h: int, inertia: Inertia, k1: float, alpha1: float
) -> float:
    """V1 = 0.5 w_e' J w_e + (2 k1/(1+alpha1)) pot(h q_e0, 1+alpha1).

    Along full-state flows dV1/dt = -k2 w_e' sat_pow(w_e, alpha2) <= 0, and a
    logic jump changes V1 by (2 k1/(1+alpha1)) flip_drop(h q_e0, 1+alpha1).
    """
    a = 1.0 + alpha1
    return float(
        0.5 * w_e @ (inertia.matrix @ w_e)
        + (2.0 * k1 / a) * chord_potential(h * q_e[0], a)
    )


def lyapunov_v2(
    q_err: Array, b_err: Array, h_tilde: int, mu2: float, beta1: float
) -> float:
    """Observer candidate with potential exponent 1+beta1 (reference form)."""
    a = 1.0 + beta1
    return float(
        0.5 * b_err @ b_err + (2.0 * mu2 / a) * chord_potential(h_tilde * q_err[0], a)
    )


def lyapunov_v2_matched(
    q_err: Array, b_err: Array, h_tilde: int, mu2: float, beta1: float
) -> float:
    """Observer candidate with the variationally matched exponent 1+beta2.

    dV2/dt = -mu1 mu2 chord_pow(h~ Q_err, 1-beta1)' chord_pow(h~ Q_err, 1-beta2),
    which is nonpositive everywhere.
    """
    a = 2.0 * beta1  # = 1 + beta2
    return float(
        0.5 * b_err @ b_err + (2.0 * mu2 / a) * chord_potential(h_tilde * q_err[0], a)
    )


def v2_matched_flow_rate(
    q_err: Array, h_tilde: int, gains: ObserverGains
) -> float:
    """Closed-form flow derivative of lyapunov_v2_matched."""
    k_a = chord_pow(h_tilde * q_err, 1.0 - gains.beta1)
    k_b = chord_pow(h_tilde * q_err, 1.0 - gains.beta2)
    return float(-gains.mu1 * gains.mu2 * (k_a @ k_b))


def lyapunov_v3(
    q_lag: Array,
    q_e: Array,
    w_e: Array,
    h: int,
    h_tilde: int,
    inertia: Inertia,
    gains: OutputFeedbackGains,
) -> float:
    """Velocity-free candidate with filter-potential exponent 1+alpha3 (reference form)."""
    a = 1.0 + gains.alpha3
    return lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1) + float(
        (2.0 * gains.k2 / a) * chord_potential(h_tilde * q_lag[0], a)
    )


def lyapunov_v3_matched(
    q_lag: Array,
    q_e: Array,
    w_e: Array,
    h: int,
    h_tilde: int,
    inertia: Inertia,
    gains: OutputFeedbackGains,
) -> float:
    """Velocity-free candidate with the matched filter-potential exponent 1+alpha1.

    dV3/dt = -k2 k3 chord_pow(h~ Q_lag, 1-alpha3)' chord_pow(h~ Q_lag, 1-alpha1) <= 0.
    """
    a = 1.0 + gains.alpha1
    return lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1) + float(
        (2.0 * gains.k2 / a) * chord_potential(h_tilde * q_lag[0], a)
    )


def v3_matched_flow_rate(
    q_lag: Array, h_tilde: int, gains: OutputFeedbackGains
) -> float:
    """Closed-form flow derivative of lyapunov_v3_matched."""
    k_a = chord_pow(h_tilde * q_lag, 1.0 - gains.alpha3)
    k_b = chord_pow(h_tilde * q_lag, 1.0 - gains.alpha1)
    return float(-gains.k2 * gains.k3 * (k_a @ k_b))


def min_jump_decrease(gain: float, alpha: float, delta: float) -> float:
    """Guaranteed Lyapunov decrease of one hysteresis jump.

    sigma = -2*gain*flip_drop(-delta, 1+alpha)/(1+alpha) > 0 for delta in (0,1);
    dividing the initial Lyapunov value by sigma bounds the total jump count.
    """
    a = 1.0 + alpha
    return -2.0 * gain * flip_drop(-delta, a) / a


def min_joint_jump_decrease(gains: OutputFeedbackGains) -> float:
    """Guaranteed decrease of lyapunov_v3_matched over one joint logic jump.

    A joint jump fires from the jump set of h or of h_tilde (or both).  The
    variable whose set fired contributes at least its own min_jump_decrease;
    the other is reset to the sign of its scalar, which can only shrink its
    potential term.  The floor is therefore the smaller single-variable
    decrease, both taken at the matched exponent 1+alpha1.
    """
    return min(
        min_jump_decrease(gains.k1, gains.alpha1, gains.delta),
        min_jump_decrease(gains.k2, gains.alpha1, gains.delta),
    )


# ---------------------------------------------------------------------------
# Homogeneity of the reduced (chart) vector fields

DEFAULT_DEGREE = -0.2


@dataclass(frozen=True)
class DilationWeights:
    """Weights r_i > 0 and degree k < 0 of an anisotropic dilation e^r * x."""

    r: Array
    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if np.any(self.r <= 0.0):
            raise ValueError("dilation weights must be positive")
        if self.k >= 0.0:
            raise ValueError("homogeneity degree must be negative")

    def scale(self, x: Array, eps: float) -> Array:
        return eps**self.r * x


def full_state_weights(alpha1: float, k: float = DEFAULT_DEGREE) -> DilationWeights:
    """Dilation for the reduced full-state loop, state (q_e, w_e) in R^6.

    r_q = -2k/(1-alpha1) on the quaternion block and r_w = -(1+alpha1)k/(1-alpha1)
    on the velocity block make the field homogeneous of degree k.
    """
    if not 0.0 < alpha1 < 1.0:
        raise ValueError("homogeneity requires 0 < alpha1 < 1")
    r_q = -2.0 * k / (1.0 - alpha1)
    r_w = -(1.0 + alpha1) * k / (1.0 - alpha1)
    return DilationWeights(np.array([r_q] * 3 + [r_w] * 3), k)


def observer_weights(beta1: float, k: float = DEFAULT_DEGREE) -> DilationWeights:
    """Dilation for the reduced observer loop, state (q_err, b_err) in R^6.

    r_q = -k/(1-beta1), r_b = -beta1*k/(1-beta1).
    """
    if not 0.5 < beta1 < 1.0:
        raise ValueError("homogeneity requires 1/2 < beta1 < 1")
    r_q = -k / (1.0 - beta1)
    r_b = -beta1 * k / (1.0 - beta1)
    return DilationWeights(np.array([r_q] * 3 + [r_b] * 3), k)


def output_feedback_weights(alpha3: float, k: float = DEFAULT_DEGREE) -> DilationWeights:
    """Dilation for the reduced velocity-free loop, state (q_lag, q_e, w_e) in R^9.

    Both quaternion blocks carry r_q = -k/(1-alpha3); the velocity block
    carries r_w = -alpha3*k/(1-alpha3) = r_q + k.
    """
    if not 0.5 < alpha3 < 1.0:
        raise ValueError("homogeneity requires 1/2 < alpha3 < 1")
    r_q = -k / (1.0 - alpha3)
    r_w = -alpha3 * k / (1.0 - alpha3)
    return DilationWeights(np.array([r_q] * 6 + [r_w] * 3), k)


def full_state_reduced_field(inertia: Inertia, gains: FullStateGains, h: int = 1):
    """Leading-order closed-loop field near the h-equilibrium, x = (q_e, w_e)."""

    def field(x: Array) -> Array:
        q_v, w_e = x[:3], x[3:]
        dq = 0.5 * h * w_e
        dw = -inertia.inverse @ (
            gains.k1 * h * axis_pow(_embed_error_quat(q_v, h), 1.0 - gains.alpha1)
            + gains.k2 * sgn_pow(w_e, gains.alpha2)
        )
        return np.concatenate([dq, dw])

    return field


def observer_reduced_field(gains: ObserverGains, h_tilde: int = 1):
    """Leading-order observer-error field, x = (q_err, b_err)."""

    def field(x: Array) -> Array:
        q_v, b_e = x[:3], x[3:]
        q = _embed_error_quat(q_v, h_tilde)
        dq = -0.5 * h_tilde * b_e - 0.5 * gains.mu1 * axis_pow(q, 1.0 - gains.beta1)
        db = gains.mu2 * h_tilde * axis_pow(q, 1.0 - gains.beta2)
        return np.concatenate([dq, db])

    return field


def output_feedback_reduced_field(
    inertia: Inertia, gains: OutputFeedbackGains, h: int = 1, h_tilde: int = 1
):
    """Leading-order velocity-free field, x = (q_lag, q_e, w_e)."""

    def field(x: Array) -> Array:
        q_l, q_v, w_e = x[:3], x[3:6], x[6:]
        a = 1.0 - gains.alpha1
        ql, qe = _embed_error_quat(q_l, h_tilde), _embed_error_quat(q_v, h)
        dql = 0.5 * h_tilde * w_e - 0.5 * gains.k3 * axis_pow(ql, 1.0 - gains.alpha3)
        dq = 0.5 * h * w_e
        dw = -inertia.inverse @ (
            gains.k1 * h * axis_pow(qe, a) + gains.k2 * h_tilde * axis_pow(ql, a)
        )
        return np.concatenate([dql, dq, dw])

    return field


def homogeneity_check(
    field,
    weights: DilationWeights,
    n_samples: int = 10_000,
    eps_values=(1e-3, 1e-2, 1e-1, 0.5, 1.0, 2.0),
    seed: int = 7,
) -> float:
    """Max relative deviation of f(eps^r x) from eps^(r+k) f(x) over random x.

    Exactly homogeneous fields come back at floating-point rounding level; a
    wrong weight vector comes back at order one.
    """
    rng = np.random.default_rng(seed)
    dim = weights.r.size
    worst = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        fx = field(x)
        for eps in eps_values:
            lhs = field(weights.scale(x, eps))
            rhs = eps ** (weights.r + weights.k) * fx
            dev = np.abs(lhs - rhs) / (np.abs(rhs) + 1e-300)
            m = float(dev.max())
            if m > worst:
                worst = m
    return worst


# ---------------------------------------------------------------------------
# Perturbation (higher-order remainder) fields and their vanishing ratios


@dataclass(frozen=True)
class PerturbationField:
    """One remainder block: name, callable (x, t) -> R^3, and its weight index."""

    name: str
    fn: object
    weight_index: int  # index into DilationWeights.r of this block's first row


def _embed_error_quat(q_v: Array, h: int) -> Array:
    """Lift a chart point q_v (||q_v|| <= 1) to the unit quaternion with h*q0 >= 0."""
    q0 = h * np.sqrt(max(1.0 - float(q_v @ q_v), 0.0))
    return np.concatenate(([q0], q_v))


def _e_minus(q: Array, h: int) -> Array:
    """E(q) - h*I, the kinematics operator less its value at the h-equilibrium."""
    return e_matrix(np.concatenate(([q[0] - h], q[1:])))


def full_state_perturbations(
    inertia: Inertia,
    gains: FullStateGains,
    trajectory: DesiredTrajectory,
    h: int = 1,
) -> list[PerturbationField]:
    """Remainder blocks of the full-state loop relative to its reduced field."""

    def f_kin(x: Array, t: float) -> Array:
        q_v, w_e = x[:3], x[3:]
        q = _embed_error_quat(q_v, h)
        return 0.5 * _e_minus(q, h) @ w_e

    def f_dyn(x: Array, t: float) -> Array:
        q_v, w_e = x[:3], x[3:]
        q = _embed_error_quat(q_v, h)
        w_d_body = rotation_matrix(q) @ trajectory.omega_fn(t)
        xi = xi_matrix(inertia, w_e, w_d_body)
        return inertia.inverse @ (xi @ w_e - gains.k1 * chord_gap(h * q, 1.0 - gains.alpha1))

    return [PerturbationField("kinematic", f_kin, 0), PerturbationField("dynamic", f_dyn, 3)]


def observer_perturbations(
    gains: ObserverGains, h_tilde: int = 1
) -> list[PerturbationField]:
    """Remainder blocks of the observer-error loop relative to its reduced field."""

    def f_q(x: Array, t: float) -> Array:
        q_v, b_e = x[:3], x[3:]
        q = _embed_error_quat(q_v, h_tilde)
        corr = (q[0] - h_tilde) * chord_pow(h_tilde * q, 1.0 - gains.beta1) + h_tilde * chord_gap(
            h_tilde * q, 1.0 - gains.beta1
        )
        return -0.5 * _e_minus(q, h_tilde) @ b_e - 0.5 * gains.mu1 * corr

    def f_b(x: Array, t: float) -> Array:
        q_v = x[:3]
        q = _embed_error_quat(q_v, h_tilde)
        return gains.mu2 * chord_gap(h_tilde * q, 1.0 - gains.beta2)

    return [PerturbationField("attitude", f_q, 0), PerturbationField("bias", f_b, 3)]


def output_feedback_perturbations(
    inertia: Inertia,
    gains: OutputFeedbackGains,
    trajectory: DesiredTrajectory,
    h: int = 1,
    h_tilde: int = 1,
) -> list[PerturbationField]:
    """Remainder blocks of the velocity-free loop relative to its reduced field."""
    a = 1.0 - gains.alpha1

    def f_lag(x: Array, t: float) -> Array:
        q_l, w_e = x[:3], x[6:]
        q = _embed_error_quat(q_l, h_tilde)
        corr = (q[0] - h_tilde) * chord_pow(h_tilde * q, 1.0 - gains.alpha3) + h_tilde * chord_gap(
            h_tilde * q, 1.0 - gains.alpha3
        )
        return 0.5 * _e_minus(q, h_tilde) @ w_e - 0.5 * gains.k3 * corr

    def f_kin(x: Array, t: float) -> Array:
        q_v, w_e = x[3:6], x[6:]
        q = _embed_error_quat(q_v, h)
        return 0.5 * _e_minus(q, h) @ w_e

    def f_dyn(x: Array, t: float) -> Array:
        q_l, q_v, w_e = x[:3], x[3:6], x[6:]
        qe = _embed_error_quat(q_v, h)
        ql = _embed_error_quat(q_l, h_tilde)
        w_d_body = rotation_matrix(qe) @ trajectory.omega_fn(t)
        xi = xi_matrix(inertia, w_e, w_d_body)
        return inertia.inverse @ (
            xi @ w_e
            - gains.k1 * chord_gap(h * qe, a)
            - gains.k2 * chord_gap(h_tilde * ql, a)
        )

    return [
        PerturbationField("filter_lag", f_lag, 0),
        PerturbationField("kinematic", f_kin, 3),
        PerturbationField("dynamic", f_dyn, 6),
    ]


def perturbation_vanishing_check(
    fields: list[PerturbationField],
    weights: DilationWeights,
    n_samples: int = 200,
    eps_values=(1e-1, 1e-2, 1e-3, 1e-4),
    t_grid=(0.0,),
    seed: int = 11,
) -> dict[str, list[float]]:
    """Worst-case ratios ||f_block(eps^r x, t)|| / eps^(r_block + k) per eps.

    The finite-time argument needs each ratio to vanish as eps -> 0; the
    report returns, for every block, the max ratio over samples and times at
    each eps so monotone decay is directly checkable.
    """
    rng = np.random.default_rng(seed)
    dim = weights.r.size
    xs = rng.standard_normal((n_samples, dim))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    report: dict[str, list[float]] = {}
    for blk in fields:
        r_blk = float(weights.r[blk.weight_index])
        ratios = []
        for eps in eps_values:
            scale = eps ** (r_blk + weights.k)
            worst = 0.0
            for x in xs:
                xe = weights.scale(x, eps)
                for t in t_grid:
                    val = float(np.linalg.norm(blk.fn(xe, t))) / scale
                    if val > worst:
                        worst = val
            ratios.append(worst)
        report[blk.name] = ratios
    return report


# ---------------------------------------------------------------------------
# Trace-level metrics


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


def convergence_metrics(trace, threshold: float = 1e-3) -> ConvergenceReport:
    """Settling time (last crossing of threshold), steady-state rms, jump count."""
    err = error_norm(trace)
    above = np.flatnonzero(err >= threshold)
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
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Closed-form flow derivatives, for finite-difference comparison


def v1_flow_rate(w_e: Array, gains: FullStateGains) -> float:
    """Flow derivative of lyapunov_v1 under the full-state law.

    dV1/dt = -k2 * w_e' sat_pow(w_e, alpha2); exact, all cross terms cancel.
    """
    return float(-gains.k2 * (w_e @ sat_pow(w_e, gains.alpha2)))


def v2_reference_flow_rate(q_err: Array, h_tilde: int, gains: ObserverGains) -> float:
    """-mu1*mu2*||chord_pow(h~ Q_err, 1-beta1)||^2.

    This is the rate the reference-form lyapunov_v2 would need in order to be
    monotone.  Along observer_error_flow its exact derivative is this
    expression plus the cross term mu2 b_err'(K_b - K_a), with
    K_a = chord_pow(h~ Q_err, 1-beta1) and K_b = chord_pow(h~ Q_err, 1-beta2);
    the cross term vanishes only at beta1 = 1 (beta2 = beta1) and has no sign,
    so the reference form is not certified.  lyapunov_flow_report quantifies
    the gap instead of hiding it.  (The matched form has its own exact rate,
    v2_matched_flow_rate.)
    """
    k = chord_pow(h_tilde * q_err, 1.0 - gains.beta1)
    return float(-gains.mu1 * gains.mu2 * (k @ k))


def v3_reference_flow_rate(
    q_lag: Array, h_tilde: int, gains: OutputFeedbackGains
) -> float:
    """-k1*k2*k3*||chord_pow(h~ Q_lag, 1-alpha3)||^2.

    Rate the reference-form lyapunov_v3 would need for monotone decrease; same
    caveat as v2_reference_flow_rate.
    """
    k = chord_pow(h_tilde * q_lag, 1.0 - gains.alpha3)
    return float(-gains.k1 * gains.k2 * gains.k3 * (k @ k))


# ---------------------------------------------------------------------------
# Continuous-feedback error flows.  The simulator holds measurements and
# torque across each step, which floors its attainable dissipation accuracy;
# these flows close the loop continuously in error coordinates so the
# Lyapunov claims can be checked at integrator precision.  Noise and
# disturbances are deliberately absent.


def full_state_error_flow(
    inertia: Inertia, gains: FullStateGains, trajectory: DesiredTrajectory
):
    """(t, y, h) -> ydot for y = [Q_e, w_e] under the continuous full-state law."""

    def flow(t: float, y: Array, h: int) -> Array:
        q_e, w_e = y[0:4], y[4:7]
        w_d = trajectory.omega_fn(t)
        w_d_dot = trajectory.omega_dot_fn(t)
        u_ff = feedforward_torque(inertia, q_e, w_d, w_d_dot)
        u = full_state_torque(gains, q_e, w_e, h, u_ff)
        dq, dw = error_dynamics_rate(inertia, q_e, w_e, w_d, w_d_dot, u)
        return np.concatenate([dq, dw])

    return flow


def observer_error_flow(gains: ObserverGains):
    """(t, y, h_tilde) -> ydot for y = [Q_err, b_err].

    The estimation error is autonomous: the plant terms cancel and only the
    correction powers drive it,

      Qdot_err = 0.5 Q_err * [0, -b_err - mu1 chord_pow(h~ Q_err, 1-beta1)]
      bdot_err = mu2 chord_pow(h~ Q_err, 1-beta2),

    which is what makes a standalone flow check of v2 meaningful.
    """

    def flow(t: float, y: Array, h_tilde: int) -> Array:
        q_err, b_err = y[0:4], y[4:7]
        w = -b_err - gains.mu1 * chord_pow(h_tilde * q_err, 1.0 - gains.beta1)
        dq = 0.5 * quat_mul(q_err, np.concatenate(([0.0], w)))
        db = gains.mu2 * chord_pow(h_tilde * q_err, 1.0 - gains.beta2)
        return np.concatenate([dq, db])

    return flow


def output_feedback_error_flow(
    inertia: Inertia, gains: OutputFeedbackGains, trajectory: DesiredTrajectory
):
    """(t, y, h, h_tilde) -> ydot for y = [Q_lag, Q_e, w_e], velocity-free law.

    The filter lag obeys Qdot_lag = 0.5 Q_lag * [0, w_e - k3 chord_pow(h~
    Q_lag, 1-alpha3)]: it tracks the true error rate it cannot measure.
    """

    def flow(t: float, y: Array, h: int, h_tilde: int) -> Array:
        q_lag, q_e, w_e = y[0:4], y[4:8], y[8:11]
        w_d = trajectory.omega_fn(t)
        w_d_dot = trajectory.omega_dot_fn(t)
        u_ff = feedforward_torque(inertia, q_e, w_d, w_d_dot)
        u = output_feedback_torque(gains, q_e, q_lag, h, h_tilde, u_ff)
        dq, dw = error_dynamics_rate(inertia, q_e, w_e, w_d, w_d_dot, u)
        w_lag = w_e - gains.k3 * chord_pow(h_tilde * q_lag, 1.0 - gains.alpha3)
        dlag = 0.5 * quat_mul(q_lag, np.concatenate(([0.0], w_lag)))
        return np.concatenate([dlag, dq, dw])

    return flow


@dataclass(frozen=True)
class FlowCheckReport:
    """Lyapunov verification results from one hybrid error-flow run.

    flow_excess  max over flow steps of dV - step_tol*(1 + V); <= 0 means the
                 per-step decrease condition held with tolerance to spare
    max_rate     max over flow steps of dV/dt; positive for a candidate that
                 genuinely grows somewhere along the flow
    jump_drops   V_pre - V_post at each logic jump, in event order
    fd_rel_error worst |centered-difference V - closed-form rate| / |rate|
                 over steps where |rate| clears fd_floor times its run
                 maximum, with jump neighborhoods and endpoints excluded
    """

    kind: str
    dt: float
    t_final: float
    step_tol: float
    fd_floor: float
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
    flow: Callable  # (g, j, tr) -> (t, y, h, h_tilde) -> ydot
    coords: Callable  # (q_e, w_e, q_est_err, b_err) -> y
    candidates: Callable  # (y, h, h_tilde, g, j) -> {candidate: V}
    rates: Callable  # (y, h, h_tilde, g) -> {candidate: closed-form dV/dt}
    governing: str  # the certified candidate
    sigma: Callable  # (g, delta) -> guaranteed drop of the governing candidate per jump
    counts: Callable  # event -> whether a run's jump budget counts it
    weights: Callable  # g -> DilationWeights of the reduced field
    reduced_field: Callable  # (g, j) -> field
    perturbations: Callable  # (g, j, tr) -> remainder blocks
    budget: tuple[str, Callable] | None = None  # (candidate, sigma); None: governing's
    observer: bool = False  # autonomous: needs no inertia or trajectory


def _on_h(flow):
    return lambda t, y, h, h_tilde: flow(t, y, h)


def _on_h_tilde(flow):
    return lambda t, y, h, h_tilde: flow(t, y, h_tilde)


ERROR_SYSTEMS = {
    "full_state": ErrorSystem(
        layout="[Q_e, w_e]", size=7, quat_blocks=(slice(0, 4),), scalars=(0, 0),
        jump=kinds.jump_h,
        flow=lambda g, j, tr: _on_h(full_state_error_flow(j, g, tr)),
        coords=lambda q_e, w_e, q_est_err, b_err: np.concatenate([q_e, w_e]),
        candidates=lambda y, h, ht, g, j: {
            "v1": lyapunov_v1(y[0:4], y[4:7], h, j, g.k1, g.alpha1)
        },
        rates=lambda y, h, ht, g: {"v1": v1_flow_rate(y[4:7], g)},
        governing="v1",
        sigma=lambda g, delta: min_jump_decrease(g.k1, g.alpha1, delta),
        counts=lambda ev: ev.h_post != ev.h_pre,
        weights=lambda g: full_state_weights(g.alpha1),
        reduced_field=lambda g, j: full_state_reduced_field(j, g),
        perturbations=lambda g, j, tr: full_state_perturbations(j, g, tr),
    ),
    "observer": ErrorSystem(
        layout="[Q_err, b_err]", size=7, quat_blocks=(slice(0, 4),), scalars=(0, 0),
        jump=kinds.jump_h_tilde,
        flow=lambda g, j, tr: _on_h_tilde(observer_error_flow(g)),
        coords=lambda q_e, w_e, q_est_err, b_err: np.concatenate([q_est_err, b_err]),
        candidates=lambda y, h, ht, g, j: {
            "v2": lyapunov_v2(y[0:4], y[4:7], ht, g.mu2, g.beta1),
            "v2_matched": lyapunov_v2_matched(y[0:4], y[4:7], ht, g.mu2, g.beta1),
        },
        rates=lambda y, h, ht, g: {
            "v2": v2_reference_flow_rate(y[0:4], ht, g),
            "v2_matched": v2_matched_flow_rate(y[0:4], ht, g),
        },
        governing="v2_matched",
        sigma=lambda g, delta: min_jump_decrease(g.mu2, g.beta2, delta),
        counts=lambda ev: ev.ht_post != ev.ht_pre,
        weights=lambda g: observer_weights(g.beta1),
        reduced_field=lambda g, j: observer_reduced_field(g),
        perturbations=lambda g, j, tr: observer_perturbations(g),
        # the run budget keeps the reference candidate and exponent
        budget=("v2", lambda g, delta: min_jump_decrease(g.mu2, g.beta1, delta)),
        observer=True,
    ),
    "attitude_only": ErrorSystem(
        layout="[Q_lag, Q_e, w_e]", size=11, quat_blocks=(slice(0, 4), slice(4, 8)),
        scalars=(4, 0),
        jump=kinds.jump_joint,
        flow=lambda g, j, tr: output_feedback_error_flow(j, g, tr),
        coords=lambda q_e, w_e, q_est_err, b_err: np.concatenate([q_est_err, q_e, w_e]),
        candidates=lambda y, h, ht, g, j: {
            "v3": lyapunov_v3(y[0:4], y[4:8], y[8:11], h, ht, j, g),
            "v3_matched": lyapunov_v3_matched(y[0:4], y[4:8], y[8:11], h, ht, j, g),
        },
        rates=lambda y, h, ht, g: {
            "v3": v3_reference_flow_rate(y[0:4], ht, g),
            "v3_matched": v3_matched_flow_rate(y[0:4], ht, g),
        },
        governing="v3_matched",
        sigma=lambda g, delta: min_joint_jump_decrease(g),
        counts=lambda ev: True,
        weights=lambda g: output_feedback_weights(g.alpha3),
        reduced_field=lambda g, j: output_feedback_reduced_field(j, g),
        perturbations=lambda g, j, tr: output_feedback_perturbations(j, g, tr),
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
    delta: float = 0.3,
    dt: float = 1e-3,
    t_final: float = 30.0,
    step_tol: float = 1e-8,
    fd_floor: float = 1e-3,
) -> FlowCheckReport:
    """Integrate one hybrid error system and check every Lyapunov claim on it.

    kind, a key of ERROR_SYSTEMS ("full_state", "observer", "attitude_only"),
    selects the flow, the state layout, and the candidates measured.  delta
    is only read for the observer kind (whose gain set carries no hysteresis
    width); the other kinds take it from their gains.  Reference candidates
    are finite-differenced against the rate they were reported to satisfy,
    matched candidates against their own exact rate.
    """
    from .sim import rk4_step  # deferred: sim imports this module at load time

    if kind not in ERROR_SYSTEMS:
        raise ValueError("unknown flow-check kind %r" % kind)
    es = ERROR_SYSTEMS[kind]
    y = np.asarray(y0, dtype=float).copy()
    if not es.observer:
        if inertia is None or trajectory is None:
            raise ValueError("%s flow check needs inertia and trajectory" % kind)
        delta = gains.delta
    if y.shape != (es.size,):
        raise ValueError("%s flow state is %s in R^%d" % (kind, es.layout, es.size))
    flow = es.flow(gains, inertia, trajectory)
    s, s_tilde = es.scalars

    n = int(round(t_final / dt))
    if n < 4:
        raise ValueError("horizon too short for the finite-difference checks")
    for sl in es.quat_blocks:
        y[sl] = quat_normalize(y[sl])
    h, ht = int(h0), int(h_tilde0)
    names = tuple(es.candidates(y, h, ht, gains, inertia))
    v = {nm: np.empty(n + 1) for nm in names}
    rate = {nm: np.empty(n + 1) for nm in names}
    drops: dict[str, list[float]] = {nm: [] for nm in names}
    jump_steps: list[int] = []

    for i in range(n + 1):
        vals = es.candidates(y, h, ht, gains, inertia)
        h2, ht2, jumped = es.jump(h, ht, float(y[s]), float(y[s_tilde]), delta)
        if jumped:
            jump_steps.append(i)
            post = es.candidates(y, h2, ht2, gains, inertia)
            for nm in names:
                drops[nm].append(vals[nm] - post[nm])
            vals, h, ht = post, h2, ht2
        for nm in names:
            v[nm][i] = vals[nm]
        r = es.rates(y, h, ht, gains)
        for nm in names:
            rate[nm][i] = r[nm]
        if i == n:
            break
        y = rk4_step(lambda tt, yy: flow(tt, yy, h, ht), i * dt, y, dt)
        for sl in es.quat_blocks:
            y[sl] = quat_normalize(y[sl])

    # step i -> i+1 is a pure flow transition unless a jump fired at i+1
    flow_step = np.ones(n, dtype=bool)
    for k in jump_steps:
        if k >= 1:
            flow_step[k - 1] = False
    # centered differences at j = 1..n-1; drop a guard band around each jump
    fd_ok = np.zeros(n + 1, dtype=bool)
    fd_ok[1:n] = True
    for k in jump_steps:
        fd_ok[max(k - 2, 0) : min(k + 1, n) + 1] = False

    flow_excess, max_rate, fd_rel = {}, {}, {}
    for nm in names:
        dv = np.diff(v[nm])
        flow_excess[nm] = float((dv - step_tol * (1.0 + v[nm][:-1]))[flow_step].max())
        max_rate[nm] = float(dv[flow_step].max() / dt)
        fd = (v[nm][2:] - v[nm][:-2]) / (2.0 * dt)
        r_mid = rate[nm][1:n]
        sel = fd_ok[1:n]
        if sel.any():
            sel = sel & (np.abs(r_mid) >= fd_floor * float(np.abs(r_mid[sel]).max()))
        fd_rel[nm] = (
            float(np.max(np.abs(fd[sel] - r_mid[sel]) / np.abs(r_mid[sel])))
            if sel.any()
            else float("nan")
        )

    return FlowCheckReport(
        kind=kind,
        dt=dt,
        t_final=t_final,
        step_tol=step_tol,
        fd_floor=fd_floor,
        jump_times=tuple(k * dt for k in jump_steps),
        flow_excess=flow_excess,
        max_rate=max_rate,
        jump_drops={nm: tuple(drops[nm]) for nm in names},
        fd_rel_error=fd_rel,
    )


# ---------------------------------------------------------------------------
# Trace-level bound checks


@dataclass
class BoundReport:
    """Closed-form run bounds checked against a recorded trace.

    torque_bound_nm is the bound the scenario's law must respect
    (rate-feedback kinds: k1 + k2 + (w1^2 + w2)*||J||; velocity-free kind:
    k1 + k2 + (w1 + w2)*||J||, with w1/w2 the trajectory rate/acceleration
    bounds); torque_bound_alt_nm is the companion form, reported so both stay
    visible.  jump_bound is (initial Lyapunov value)/(guaranteed decrease per
    jump) for the governing logic variable.  gronwall_margin is the worst
    v1(t) - envelope value (nonpositive within tolerance when the check holds).
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


def _pre_jump_logic(trace) -> tuple[int, int]:
    """Logic pair (h, h_tilde) in force before any step-0 jump."""
    for ev in trace.events:
        if ev.step == 0:
            return ev.h_pre, ev.ht_pre
        if ev.step > 0:
            break
    return int(trace.h[0]), int(trace.h_tilde[0])


def bound_checks(
    trace,
    gains,
    inertia: Inertia,
    trajectory: DesiredTrajectory,
    observer_gains: ObserverGains | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    """Check the componentwise torque bound, the jump-count bound, and the
    exponential v1 envelope on one trace.

    The envelope is v1(t) <= (v1(0) + 3*k2/c0)*exp(c0*t) - 3*k2/c0 with
    c0 = 2*k2/lambda_min(J).  The certainty-equivalence loop can trade
    Lyapunov decrease for bias convergence, so v1 is only envelope-bounded
    there; for the dissipative kinds the same envelope holds trivially.

    Jumps are counted against the budget of the kind's error system: full_state
    counts h flips against v1(0)/sigma1; biased_gyro counts h_tilde flips
    against v2(0)/sigma2 (its h flips are governed by the envelope, not by a
    monotone candidate); attitude_only counts joint events against
    v3_matched(0)/min_joint_jump_decrease.
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

    h0, ht0 = _pre_jump_logic(trace)
    v1_0 = lyapunov_v1(trace.q_e[0], trace.w_e[0], h0, inertia, gains.k1, gains.alpha1)
    y0 = es.coords(trace.q_e[0], trace.w_e[0], trace.q_est_err[0], trace.b[0] - trace.b_hat[0])
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
        gronwall_ok=bool(margin <= tol * (1.0 + v1_0)),
    )
