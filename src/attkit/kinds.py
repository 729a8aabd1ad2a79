"""The three controller kinds, each defined once.

A kind is one record of hybrid data: the gain set its config builds, the
estimator it carries and how that estimator starts, how its logic variables
jump, its torque law, and the error system (a key of analysis.ERROR_SYSTEMS)
whose Lyapunov certificate covers it.

Estimator state is one flat tuple of floats: [Q_hat, b_hat] for the bias
observer, [Q_f] for the attitude filter, empty for the full-state law.
Estimators keep their quaternion in est[0:4]; the simulator records est in
the trace's q_hat and b_hat columns, NaN past its length.  Every callable
takes float sequences and returns float tuples; lag also takes tuples of (n,)
columns, as the simulator's record hands them, and returns columns (NaN
floats for the full-state law, which has no estimator).  estimator_flow is a
builder: the simulator calls it once per step at the held measurements, and
steps est on the flow(t, est) it returns, apart from the plant; the
full-state law, with no est to step, carries none.

All three laws share one hysteresis mechanism.  A logic variable h in
{-1, +1} selects which antipode of an error quaternion is stabilized; it
flows while h*s > -delta, s the scalar part, and jumps to the sign of s on
the closed jump set h*s <= -delta.  The width delta in (0, 1) defeats both
unwinding and noise chattering near s = 0.  in_jump_set states that set and
reset_sign the post-jump value; no other module decides a jump.

Jump rules share one signature, (h, h_tilde, s, s_tilde, delta) -> (h, h_tilde,
jumped), where s and s_tilde are the scalar parts that h and h_tilde are
checked against; one application re-enters the flow set.  Each h a rule sees
came from a rule or was checked by ScenarioConfig.validate or the flow report.
Rules look in_jump_set up here at call time, so a hook on it sees every test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .controllers import (
    FullStateGains,
    OutputFeedbackGains,
    filter_flow,
    full_state_torque,
    observer_flow,
    output_feedback_torque,
)
from .quat import unit_or_warn
from .rigid_body import error_quaternion

_NAN4 = (float("nan"),) * 4


def in_jump_set(h, s, delta):
    """Whether h*s <= -delta; the set is closed, so its boundary jumps."""
    return h * s <= -delta


def reset_sign(s):
    """The post-jump logic value: the sign of s, +1 at s = 0 (-0.0 included)."""
    return 1 if s >= 0.0 else -1


def jump_h(h, h_tilde, s, s_tilde, delta):
    """Hysteresis jump of h against s; h_tilde is left alone."""
    if in_jump_set(h, s, delta):
        return reset_sign(s), h_tilde, True
    return h, h_tilde, False


def jump_h_tilde(h, h_tilde, s, s_tilde, delta):
    """Hysteresis jump of h_tilde against s_tilde; h is left alone."""
    if in_jump_set(h_tilde, s_tilde, delta):
        return h, reset_sign(s_tilde), True
    return h, h_tilde, False


def jump_each(h, h_tilde, s, s_tilde, delta):
    """Independent jumps: h against s and h_tilde against s_tilde."""
    jumped = False
    if in_jump_set(h, s, delta):
        h, jumped = reset_sign(s), True
    if in_jump_set(h_tilde, s_tilde, delta):
        h_tilde, jumped = reset_sign(s_tilde), True
    return h, h_tilde, jumped


def jump_joint(h, h_tilde, s, s_tilde, delta):
    """One joint reset of both variables once either lies in its jump set."""
    if in_jump_set(h, s, delta) or in_jump_set(h_tilde, s_tilde, delta):
        return reset_sign(s), reset_sign(s_tilde), True
    return h, h_tilde, False


def _start_quat(configured, measured, label):
    """Configured estimator start (normalized), else the measurement."""
    return tuple(measured if configured is None else unit_or_warn(configured, label))


def _observer_start(cfg, q_m, q_e_m):
    oc = cfg.observer
    q_hat = _start_quat(oc.q_hat0, q_m, "observer.q_hat0")
    est = (*q_hat, *map(float, oc.b_hat0_rad_s))
    return est, oc.h_tilde0


def _less(a, b):
    """a - b componentwise, error_velocity's w - R(Q_e) w_d in its float order."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a1 - b1, a2 - b2, a3 - b3)


def _filter_start(cfg, q_m, q_e_m):
    fc = cfg.filter
    q_f = _start_quat(fc.q_f0, q_e_m, "filter.q_f0")
    return q_f, fc.h_tilde0


@dataclass(frozen=True)
class ControllerKind:
    """One controller kind; g is the gain set a callable is handed."""

    gains: type  # the gain set ControllerConfig.build returns
    section: str | None  # config section that holds the estimator start
    error_system: str  # key of analysis.ERROR_SYSTEMS
    start: Callable  # (cfg, q_meas, q_e_meas) -> (est, h_tilde)
    lag: Callable  # (est, q, q_e) -> estimator error quaternion, NaN without one
    jump: Callable  # jump rule (module docstring)
    # (g, q_e, w_meas, w_d_body, est, q_lag, h, h_tilde) -> feedback torque, w_d_body the
    # desired rate rotated into the body frame, R(q_e) w_d, once per step by the simulator
    torque: Callable
    # (g, h_tilde, q_meas, w_meas, q_e_meas) -> flow(t, est), built once per step at the
    # held measurements; None for a kind with no estimator state
    estimator_flow: Callable | None
    # (p, p_alt): the law's torque bound k1 + k2 + (w1^p + w2)||J|| and its companion
    torque_bounds: tuple[int, int]


KINDS = {
    "full_state": ControllerKind(
        gains=FullStateGains, section=None, error_system="full_state",
        start=lambda cfg, q_m, q_e_m: ((), 1),
        lag=lambda est, q, q_e: _NAN4,
        jump=jump_h,
        torque=lambda g, q_e, w_m, w_d_body, est, q_lag, h, ht: full_state_torque(
            g, q_e, _less(w_m, w_d_body), h
        ),
        estimator_flow=None,
        torque_bounds=(2, 1),
    ),
    # certainty equivalence: the full-state law fed w_meas - b_hat
    "biased_gyro": ControllerKind(
        gains=FullStateGains, section="observer", error_system="observer",
        start=_observer_start,
        lag=lambda est, q, q_e: error_quaternion(est[0:4], q),
        jump=jump_each,
        torque=lambda g, q_e, w_m, w_d_body, est, q_lag, h, ht: full_state_torque(
            g, q_e, _less(_less(w_m, est[4:7]), w_d_body), h
        ),
        estimator_flow=observer_flow,
        torque_bounds=(2, 1),
    ),
    "attitude_only": ControllerKind(
        gains=OutputFeedbackGains, section="filter", error_system="attitude_only",
        start=_filter_start,
        lag=lambda est, q, q_e: error_quaternion(est[0:4], q_e),
        jump=jump_joint,
        torque=lambda g, q_e, w_m, w_d_body, est, q_lag, h, ht: output_feedback_torque(
            g, q_e, q_lag, h, ht
        ),
        estimator_flow=filter_flow,
        torque_bounds=(1, 2),
    ),
}


def get(name: str) -> ControllerKind:
    """The kind named `name`; ValueError for an unknown name."""
    if name not in KINDS:
        raise ValueError("unknown controller kind %r" % name)
    return KINDS[name]
