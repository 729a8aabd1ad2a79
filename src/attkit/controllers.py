"""Hybrid finite-time attitude tracking controllers.

Three feedback laws share the same hysteresis mechanism.  A logic variable
h in {-1, +1} selects which antipode of the error quaternion is being
stabilized; it flows unchanged while h*q_e0 >= -delta and jumps to the sign of
q_e0 once h*q_e0 <= -delta.  The width delta in (0, 1) is what defeats both
unwinding and measurement-noise chattering near q_e0 = 0.

Controllers only ever see measured quantities.  Truth states never enter any
function in this module.

full_state_torque      velocity + attitude feedback, finite time for alpha1 < 1;
                       with a bias observer's rate estimate it is the
                       certainty-equivalence law of the biased-gyro kind
output_feedback_torque velocity-free law fed by an auxiliary attitude filter
"""

from __future__ import annotations

from dataclasses import dataclass

from .quat import Array, chord_pow, quat_conj, rotate, sat_pow
from .rigid_body import error_quaternion, kinematics_rate


def sgn_bar(x: float) -> int:
    """Outer-semicontinuous sign used by the jump maps; sgn_bar(0) = +1."""
    return 1 if x >= 0.0 else -1


def check_logic(h: int, name: str) -> int:
    """h as an int; ValueError naming `name` unless h is +1 or -1."""
    if h not in (-1, 1):
        raise ValueError("%s must be +1 or -1, got %r" % (name, h))
    return int(h)


@dataclass(frozen=True)
class FullStateGains:
    """Gains for the full-state law.

    k1, k2 > 0; attitude exponent alpha1 in (0, 1]; hysteresis delta in (0, 1).
    The velocity exponent alpha2 = 2*alpha1/(1+alpha1) is derived, never set.
    alpha1 = 1 degenerates to the asymptotic (non-finite-time) hybrid law.
    """

    k1: float
    k2: float
    alpha1: float
    delta: float

    def __post_init__(self) -> None:
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError("gains k1, k2 must be positive")
        if not 0.0 < self.alpha1 <= 1.0:
            raise ValueError("alpha1 must lie in (0, 1], got %r" % self.alpha1)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1), got %r" % self.delta)

    @property
    def alpha2(self) -> float:
        return 2.0 * self.alpha1 / (1.0 + self.alpha1)


@dataclass(frozen=True)
class ObserverGains:
    """Gains for the biased-rate observer: mu1, mu2 > 0, beta1 in (1/2, 1].

    beta2 = 2*beta1 - 1 is derived.  beta1 = 1 reduces the correction terms to
    plain vector parts (the exponential-observer limit).
    """

    mu1: float
    mu2: float
    beta1: float

    def __post_init__(self) -> None:
        if self.mu1 <= 0.0 or self.mu2 <= 0.0:
            raise ValueError("gains mu1, mu2 must be positive")
        if not 0.5 < self.beta1 <= 1.0:
            raise ValueError("beta1 must lie in (1/2, 1], got %r" % self.beta1)

    @property
    def beta2(self) -> float:
        return 2.0 * self.beta1 - 1.0


@dataclass(frozen=True)
class OutputFeedbackGains:
    """Gains for the velocity-free law: k1, k2, k3 > 0, alpha3 in (1/2, 1].

    The torque exponent alpha1 = 2*alpha3 - 1 is derived from the filter
    exponent alpha3; delta is the shared hysteresis width.
    """

    k1: float
    k2: float
    k3: float
    alpha3: float
    delta: float

    def __post_init__(self) -> None:
        if self.k1 <= 0.0 or self.k2 <= 0.0 or self.k3 <= 0.0:
            raise ValueError("gains k1, k2, k3 must be positive")
        if not 0.5 < self.alpha3 <= 1.0:
            raise ValueError("alpha3 must lie in (1/2, 1], got %r" % self.alpha3)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1), got %r" % self.delta)

    @property
    def alpha1(self) -> float:
        return 2.0 * self.alpha3 - 1.0


def hysteresis_update(h: int, scalar: float, delta: float) -> tuple[int, bool]:
    """One discrete update of a logic variable against its error scalar part.

    Returns (new_h, jumped).  The jump set is h*scalar <= -delta, with the
    boundary resolved in favor of jumping; the post-jump value sgn_bar(scalar)
    always lands strictly inside the flow set, so a single update suffices.
    """
    h = check_logic(h, "h")
    if h * scalar <= -delta:
        return sgn_bar(scalar), True
    return h, False


def full_state_torque(
    gains: FullStateGains, q_e: Array, w_e: Array, h: int, u_ff: Array
) -> Array:
    """Hybrid full-state law: u = u_ff - k1*chord_pow(h Q_e, 1-alpha1) - k2*sat_pow(w_e, alpha2)."""
    h = check_logic(h, "h")
    return (
        u_ff
        - gains.k1 * chord_pow(h * q_e, 1.0 - gains.alpha1)
        - gains.k2 * sat_pow(w_e, gains.alpha2)
    )


def observer_flow_rate(
    gains: ObserverGains,
    q_hat: Array,
    b_hat: Array,
    h_tilde: int,
    q_meas: Array,
    w_meas: Array,
) -> tuple[Array, Array]:
    """Continuous observer dynamics (Qdot_hat, bdot_hat) given held measurements.

    The attitude estimate integrates the bias-corrected rate plus a fractional
    power of the estimation error, re-expressed in the estimate frame; the
    bias estimate integrates the complementary correction:

      Qdot_hat = 0.5 Q_hat * [0, R(Q_err)^T (w_meas - b_hat + mu1*chord_pow(h~ Q_err, 1-beta1))]
      bdot_hat = -mu2 * chord_pow(h~ Q_err, 1-beta2)
    """
    q_err = error_quaternion(q_hat, q_meas)
    corr = w_meas - b_hat + gains.mu1 * chord_pow(h_tilde * q_err, 1.0 - gains.beta1)
    q_hat_dot = kinematics_rate(q_hat, rotate(quat_conj(q_err), corr))
    b_hat_dot = -gains.mu2 * chord_pow(h_tilde * q_err, 1.0 - gains.beta2)
    return q_hat_dot, b_hat_dot


def filter_flow_rate(
    gains: OutputFeedbackGains, q_f: Array, h_tilde: int, q_e_meas: Array
) -> Array:
    """Attitude filter driven only by the measured error quaternion.

    Qdot_f = 0.5 Q_f * [0, k3 R(Q_lag)^T chord_pow(h~ Q_lag, 1-alpha3)], where
    Q_lag = conj(Q_f) * Q_e.  The lag quaternion then obeys
    Qdot_lag = 0.5 Q_lag * [0, w_e - k3 chord_pow(h~ Q_lag, 1-alpha3)], which
    is how the filter recovers rate information without a gyro.
    """
    q_lag = error_quaternion(q_f, q_e_meas)
    corr = gains.k3 * chord_pow(h_tilde * q_lag, 1.0 - gains.alpha3)
    return kinematics_rate(q_f, rotate(quat_conj(q_lag), corr))


def output_feedback_torque(
    gains: OutputFeedbackGains,
    q_e: Array,
    q_lag: Array,
    h: int,
    h_tilde: int,
    u_ff: Array,
) -> Array:
    """Velocity-free law: u = u_ff - k1*chord_pow(h Q_e, 1-alpha1) - k2*chord_pow(h~ Q_lag, 1-alpha1)."""
    h = check_logic(h, "h")
    h_tilde = check_logic(h_tilde, "h_tilde")
    a = 1.0 - gains.alpha1
    return (
        u_ff
        - gains.k1 * chord_pow(h * q_e, a)
        - gains.k2 * chord_pow(h_tilde * q_lag, a)
    )


def joint_jump(
    q_e0: float, q_lag0: float, h: int, h_tilde: int, delta: float
) -> tuple[int, int]:
    """Joint logic jump for the velocity-free loop.

    Fires when either h*q_e0 <= -delta or h_tilde*q_lag0 <= -delta and resets
    both logic variables to the signs of their scalars in one event.
    """
    h = check_logic(h, "h")
    h_tilde = check_logic(h_tilde, "h_tilde")
    if h * q_e0 > -delta and h_tilde * q_lag0 > -delta:
        raise ValueError("joint jump requested outside the jump set")
    return sgn_bar(q_e0), sgn_bar(q_lag0)
