"""Hybrid finite-time attitude tracking controllers.

Each law returns only its feedback torque.  The simulator adds
rigid_body.feedforward_torque, which keeps zero tracking error invariant, and
the certificate's error flows (attkit.analysis) take the feedback as it is.

The laws and estimator flows take logic values h, h_tilde in {-1, +1} that
select which antipode of an error quaternion they stabilize; attkit.kinds
states how those values jump.

Controllers only ever see measured quantities.  Truth states never enter any
function in this module.  Like the quat and rigid_body kernels, the laws take
float sequences and return float tuples.  The estimator flows are builders
with the signature of a kind's estimator_flow, (gains, h_tilde, q_meas,
w_meas, q_e_meas) -> flow(t, est): they read the gains and hold the
measurements once per step, and flow maps the estimator's own state est to
its rates, the flow(t, y) signature of every flow integrate.rk4_step steps.
Each forms its error quaternion with rigid_body.error_quaternion, the
conjugate rotation with rotate(quat_conj(.), .) and its quaternion rows with
rigid_body.kinematics_rate.  The laws and the flows call chord_pow and
sat_pow by name, so each nonsmooth map has one statement.

full_state_torque      velocity + attitude feedback, finite time for alpha1 < 1;
                       with a bias observer's rate estimate it is the
                       certainty-equivalence law of the biased-gyro kind
output_feedback_torque velocity-free law fed by an auxiliary attitude filter
observer_flow          finite-time observer of attitude and gyro bias
filter_flow            attitude filter that feeds the velocity-free law
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quat import chord_pow, quat_conj, rotate, sat_pow
from .rigid_body import error_quaternion, kinematics_rate


def check_logic(label: str, h) -> int:
    """The one logic-value rule: h if it is the int +1 or -1 (not True or 1.0), else ValueError."""
    if type(h) is not int or h not in (-1, 1):  # a bool is an int subclass
        raise ValueError("%s must be +1 or -1, got %r" % (label, h))
    return h


def check_positive(label: str, value) -> None:
    """The one gain rule: ValueError naming label and value unless 0 < value < inf (not NaN)."""
    if not 0.0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (label, value))


def check_width(label: str, value) -> None:
    """The one hysteresis-width rule: ValueError unless 0 < value < 1, so every jump flips h."""
    if not 0.0 < value < 1.0:
        raise ValueError("%s must lie in (0, 1), got %r" % (label, value))


@dataclass(frozen=True)
class FullStateGains:
    """Gains for the full-state law.

    k1, k2 > 0 and finite; attitude exponent alpha1 in (0, 1]; hysteresis delta in (0, 1).
    The velocity exponent alpha2 = 2*alpha1/(1+alpha1) is derived, never set.
    alpha1 = 1, the linear limit, is Mayhew et al.'s hybrid feedback (2011), damping saturated.
    The low end stalls with example1's gains: noise-free at its dt and horizon,
    alpha1 = 0.3 and 0.1 never settle, the last 10 % of the run at error 0.19 and 0.98.
    """

    k1: float
    k2: float
    alpha1: float
    delta: float

    def __post_init__(self) -> None:
        check_positive("k1", self.k1)
        check_positive("k2", self.k2)
        if not 0.0 < self.alpha1 <= 1.0:
            raise ValueError("alpha1 must lie in (0, 1], got %r" % self.alpha1)
        check_width("delta", self.delta)

    @property
    def alpha2(self) -> float:
        return 2.0 * self.alpha1 / (1.0 + self.alpha1)


@dataclass(frozen=True)
class ObserverGains:
    """Gains for the biased-rate observer: mu1, mu2 > 0 and finite, beta1 in (1/2, 1].

    beta2 = 2*beta1 - 1 is derived.  beta1 = 1 reduces the correction terms to
    plain vector parts (the exponential-observer limit).  The low end still
    settles with example2's gains: noise-free at its dt and horizon, beta1 =
    0.51 settles at 42.92 s, the last 10 % of the run at error 1.7e-4.
    """

    mu1: float
    mu2: float
    beta1: float

    def __post_init__(self) -> None:
        check_positive("mu1", self.mu1)
        check_positive("mu2", self.mu2)
        if not 0.5 < self.beta1 <= 1.0:
            raise ValueError("beta1 must lie in (1/2, 1], got %r" % self.beta1)

    @property
    def beta2(self) -> float:
        return 2.0 * self.beta1 - 1.0


@dataclass(frozen=True)
class OutputFeedbackGains:
    """Gains for the velocity-free law: k1, k2, k3 > 0 and finite, alpha3 in (1/2, 1].

    The torque exponent alpha1 = 2*alpha3 - 1 is derived from the filter
    exponent alpha3; delta is the shared hysteresis width.  The low end stalls
    with example3's gains: noise-free at its dt and horizon, alpha3 = 0.55
    never settles, the last 10 % of the run at error 0.088.
    """

    k1: float
    k2: float
    k3: float
    alpha3: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            check_positive(name, getattr(self, name))
        if not 0.5 < self.alpha3 <= 1.0:
            raise ValueError("alpha3 must lie in (1/2, 1], got %r" % self.alpha3)
        check_width("delta", self.delta)

    @property
    def alpha1(self) -> float:
        return 2.0 * self.alpha3 - 1.0


def full_state_torque(gains: FullStateGains, q_e, w_e, h: int) -> tuple:
    """Hybrid full-state feedback: -k1*chord_pow(h Q_e, 1-alpha1) - k2*sat_pow(w_e, alpha2)."""
    check_logic("h", h)
    k1, k2, p = gains.k1, gains.k2, gains.alpha2
    c1, c2, c3 = chord_pow(q_e, 1.0 - gains.alpha1, h)
    w1, w2, w3 = w_e
    return (
        -k1 * c1 - k2 * sat_pow(w1, p),
        -k1 * c2 - k2 * sat_pow(w2, p),
        -k1 * c3 - k2 * sat_pow(w3, p),
    )


def observer_flow(gains: ObserverGains, h_tilde: int, q_meas, w_meas, q_e_meas):
    """Built at held measurements, flow(t, est) -> (Qdot_hat, bdot_hat) for est = [Q_hat, b_hat].

    The attitude estimate integrates the bias-corrected rate plus a fractional
    power of the estimation error Q_err = conj(Q_hat) * Q_meas, re-expressed in
    the estimate frame; the bias estimate integrates the complementary correction:

      Qdot_hat = 0.5 Q_hat * [0, R(Q_err)^T (w_meas - b_hat + mu1*chord_pow(h~ Q_err, 1-beta1))]
      bdot_hat = -mu2 * chord_pow(h~ Q_err, 1-beta2)

    t and q_e_meas are not read.
    """
    mu1, mu2 = gains.mu1, gains.mu2
    p1, p2 = 1.0 - gains.beta1, 1.0 - gains.beta2
    v1, v2, v3 = w_meas

    def flow(t, est) -> tuple:
        q0, q1, q2, q3, b1, b2, b3 = est
        q_hat = (q0, q1, q2, q3)
        q_err = error_quaternion(q_hat, q_meas)
        a1, a2, a3 = chord_pow(q_err, p1, h_tilde)
        corr = (v1 - b1 + mu1 * a1, v2 - b2 + mu1 * a2, v3 - b3 + mu1 * a3)
        g1, g2, g3 = chord_pow(q_err, p2, h_tilde)
        return kinematics_rate(q_hat, rotate(quat_conj(q_err), corr)) + (
            -mu2 * g1, -mu2 * g2, -mu2 * g3
        )

    return flow


def filter_flow(gains: OutputFeedbackGains, h_tilde: int, q_meas, w_meas, q_e_meas):
    """Built at held measurements, flow(t, est) -> Qdot_f for est = Q_f: a filter driven only by Q_e.

    Qdot_f = 0.5 Q_f * [0, k3 R(Q_lag)^T chord_pow(h~ Q_lag, 1-alpha3)], where
    Q_lag = conj(Q_f) * Q_e.  The lag quaternion then obeys
    Qdot_lag = 0.5 Q_lag * [0, w_e - k3 chord_pow(h~ Q_lag, 1-alpha3)], which
    is how the filter recovers rate information without a gyro.  t, q_meas
    and w_meas are not read.
    """
    k3, p3 = gains.k3, 1.0 - gains.alpha3

    def flow(t, est) -> tuple:
        q_lag = error_quaternion(est, q_e_meas)
        a1, a2, a3 = chord_pow(q_lag, p3, h_tilde)
        return kinematics_rate(est, rotate(quat_conj(q_lag), (k3 * a1, k3 * a2, k3 * a3)))

    return flow


def output_feedback_torque(gains: OutputFeedbackGains, q_e, q_lag, h: int, h_tilde: int) -> tuple:
    """Velocity-free feedback: -k1*chord_pow(h Q_e, 1-alpha1) - k2*chord_pow(h~ Q_lag, 1-alpha1)."""
    check_logic("h", h)
    check_logic("h_tilde", h_tilde)
    k1, k2, a = gains.k1, gains.k2, 1.0 - gains.alpha1
    c1, c2, c3 = chord_pow(q_e, a, h)
    l1, l2, l3 = chord_pow(q_lag, a, h_tilde)
    return (-k1 * c1 - k2 * l1, -k1 * c2 - k2 * l2, -k1 * c3 - k2 * l3)

