"""Hybrid finite-time attitude tracking controllers.

Each law returns only its feedback torque.  The simulator adds
rigid_body.feedforward_torque, which keeps zero tracking error invariant, and
the certificate's error flows (attkit.analysis) take the feedback as it is.

The laws and estimator flows take logic values h, h_tilde in {-1, +1} that
select which antipode of an error quaternion they stabilize; attkit.kinds
states how those values jump.

Controllers only ever see measured quantities.  Truth states never enter any
function in this module.  Like the quat and rigid_body kernels, the laws and
estimator flows take float sequences and return float tuples.

full_state_torque      velocity + attitude feedback, finite time for alpha1 < 1;
                       with a bias observer's rate estimate it is the
                       certainty-equivalence law of the biased-gyro kind
output_feedback_torque velocity-free law fed by an auxiliary attitude filter
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
    plain vector parts (the exponential-observer limit).
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
    exponent alpha3; delta is the shared hysteresis width.
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


def observer_flow_rate(
    gains: ObserverGains, q_hat, b_hat, h_tilde: int, q_meas, w_meas
) -> tuple[tuple, tuple]:
    """Continuous observer dynamics (Qdot_hat, bdot_hat) given held measurements.

    The attitude estimate integrates the bias-corrected rate plus a fractional
    power of the estimation error, re-expressed in the estimate frame; the
    bias estimate integrates the complementary correction:

      Qdot_hat = 0.5 Q_hat * [0, R(Q_err)^T (w_meas - b_hat + mu1*chord_pow(h~ Q_err, 1-beta1))]
      bdot_hat = -mu2 * chord_pow(h~ Q_err, 1-beta2)
    """
    mu1, mu2 = gains.mu1, gains.mu2
    q_err = error_quaternion(q_hat, q_meas)
    a1, a2, a3 = chord_pow(q_err, 1.0 - gains.beta1, h_tilde)
    m1, m2, m3 = w_meas
    b1, b2, b3 = b_hat
    corr = (m1 - b1 + mu1 * a1, m2 - b2 + mu1 * a2, m3 - b3 + mu1 * a3)
    q_hat_dot = kinematics_rate(q_hat, rotate(quat_conj(q_err), corr))
    c1, c2, c3 = chord_pow(q_err, 1.0 - gains.beta2, h_tilde)
    return q_hat_dot, (-mu2 * c1, -mu2 * c2, -mu2 * c3)


def filter_flow_rate(gains: OutputFeedbackGains, q_f, h_tilde: int, q_e_meas) -> tuple:
    """Attitude filter driven only by the measured error quaternion.

    Qdot_f = 0.5 Q_f * [0, k3 R(Q_lag)^T chord_pow(h~ Q_lag, 1-alpha3)], where
    Q_lag = conj(Q_f) * Q_e.  The lag quaternion then obeys
    Qdot_lag = 0.5 Q_lag * [0, w_e - k3 chord_pow(h~ Q_lag, 1-alpha3)], which
    is how the filter recovers rate information without a gyro.
    """
    k3 = gains.k3
    q_lag = error_quaternion(q_f, q_e_meas)
    c1, c2, c3 = chord_pow(q_lag, 1.0 - gains.alpha3, h_tilde)
    return kinematics_rate(q_f, rotate(quat_conj(q_lag), (k3 * c1, k3 * c2, k3 * c3)))


def output_feedback_torque(gains: OutputFeedbackGains, q_e, q_lag, h: int, h_tilde: int) -> tuple:
    """Velocity-free feedback: -k1*chord_pow(h Q_e, 1-alpha1) - k2*chord_pow(h~ Q_lag, 1-alpha1)."""
    check_logic("h", h)
    check_logic("h_tilde", h_tilde)
    k1, k2, a = gains.k1, gains.k2, 1.0 - gains.alpha1
    c1, c2, c3 = chord_pow(q_e, a, h)
    l1, l2, l3 = chord_pow(q_lag, a, h_tilde)
    return (-k1 * c1 - k2 * l1, -k1 * c2 - k2 * l2, -k1 * c3 - k2 * l3)

