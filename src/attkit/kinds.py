"""The three controller kinds, each defined once.

A kind is one record of hybrid data: the gain set its config builds, the
estimator it carries and how that estimator starts, how its logic variables
jump, its torque law, and the error system (a key of analysis.ERROR_SYSTEMS)
whose Lyapunov certificate covers it.

Estimator state is one flat array: [Q_hat, b_hat] for the bias observer,
[Q_f] for the attitude filter, empty for the full-state law.  Estimators keep
their quaternion in est[0:4].  Channels a kind does not have read as NaN.

Jump rules share one signature, (h, h_tilde, s, s_tilde, delta) ->
(h, h_tilde, jumped), where s and s_tilde are the scalar parts that h and
h_tilde are checked against; one application re-enters the flow set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controllers import (
    FilterState,
    FullStateGains,
    ObserverState,
    OutputFeedbackGains,
    filter_error,
    filter_flow_rate,
    full_state_torque,
    hysteresis_update,
    joint_jump,
    observer_error,
    observer_flow_rate,
    output_feedback_torque,
)
from .quat import rotation_matrix, unit_or_warn

_NAN3 = np.full(3, np.nan)
_NAN4 = np.full(4, np.nan)


def jump_h(h, h_tilde, s, s_tilde, delta):
    """Hysteresis jump of h against s; h_tilde is left alone."""
    h, jumped = hysteresis_update(h, s, delta)
    return h, h_tilde, jumped


def jump_h_tilde(h, h_tilde, s, s_tilde, delta):
    """Hysteresis jump of h_tilde against s_tilde; h is left alone."""
    h_tilde, jumped = hysteresis_update(h_tilde, s_tilde, delta)
    return h, h_tilde, jumped


def jump_each(h, h_tilde, s, s_tilde, delta):
    """Independent jumps: h against s, then h_tilde against s_tilde."""
    h, h_tilde, jumped = jump_h(h, h_tilde, s, s_tilde, delta)
    h, h_tilde, jumped_tilde = jump_h_tilde(h, h_tilde, s, s_tilde, delta)
    return h, h_tilde, jumped or jumped_tilde


def jump_joint(h, h_tilde, s, s_tilde, delta):
    """One joint reset of both variables once either lies in its jump set."""
    if h * s <= -delta or h_tilde * s_tilde <= -delta:
        h, h_tilde = joint_jump(s, s_tilde, h, h_tilde, delta)
        return h, h_tilde, True
    return h, h_tilde, False


def _start_quat(configured, measured, label):
    """Configured estimator start (normalized), else the measurement."""
    return measured if configured is None else unit_or_warn(np.asarray(configured, float), label)


def _observer_start(cfg, q_m, q_e_m):
    oc = cfg.observer
    q_hat = _start_quat(oc.q_hat0, q_m, "observer.q_hat0")
    return np.concatenate([q_hat, oc.b_hat0_rad_s]), int(oc.h_tilde0)


def _filter_start(cfg, q_m, q_e_m):
    fc = cfg.filter
    return _start_quat(fc.q_f0, q_e_m, "filter.q_f0"), int(fc.h_tilde0)


@dataclass(frozen=True)
class ControllerKind:
    """One controller kind; g is the gain set a callable is handed."""

    gains: type  # the gain set ControllerConfig.build returns
    section: str | None  # config section that holds the estimator start
    error_system: str  # key of analysis.ERROR_SYSTEMS
    start: Callable  # (cfg, q_meas, q_e_meas) -> (est, h_tilde)
    lag: Callable  # (est, q, q_e) -> estimator error quaternion
    bias: Callable  # est -> gyro-bias estimate
    jump: Callable  # jump rule (module docstring)
    torque: Callable  # (g, q_e, w_meas, w_d, est, q_lag, h, h_tilde, u_ff) -> torque
    estimator_flow: Callable  # (g, est, h_tilde, q_meas, w_meas, q_e_meas) -> rates of est
    # (p, p_alt): the law's torque bound k1 + k2 + (w1^p + w2)||J|| and its companion
    torque_bounds: tuple[int, int]


KINDS = {
    "full_state": ControllerKind(
        gains=FullStateGains, section=None, error_system="full_state",
        start=lambda cfg, q_m, q_e_m: (np.empty(0), 1),
        lag=lambda est, q, q_e: _NAN4,
        bias=lambda est: _NAN3,
        jump=jump_h,
        torque=lambda g, q_e, w_m, w_d, est, q_lag, h, ht, u_ff: full_state_torque(
            g, q_e, w_m - rotation_matrix(q_e) @ w_d, h, u_ff
        ),
        estimator_flow=lambda g, est, ht, q_m, w_m, q_e_m: (),
        torque_bounds=(2, 1),
    ),
    # certainty equivalence: the full-state law fed w_meas - b_hat
    "biased_gyro": ControllerKind(
        gains=FullStateGains, section="observer", error_system="observer",
        start=_observer_start,
        lag=lambda est, q, q_e: observer_error(est[0:4], q),
        bias=lambda est: est[4:7],
        jump=jump_each,
        torque=lambda g, q_e, w_m, w_d, est, q_lag, h, ht, u_ff: full_state_torque(
            g, q_e, w_m - est[4:7] - rotation_matrix(q_e) @ w_d, h, u_ff
        ),
        estimator_flow=lambda g, est, ht, q_m, w_m, q_e_m: observer_flow_rate(
            g, ObserverState(est[0:4], est[4:7], ht), q_m, w_m
        ),
        torque_bounds=(2, 1),
    ),
    "attitude_only": ControllerKind(
        gains=OutputFeedbackGains, section="filter", error_system="attitude_only",
        start=_filter_start,
        lag=lambda est, q, q_e: filter_error(est[0:4], q_e),
        bias=lambda est: _NAN3,
        jump=jump_joint,
        torque=lambda g, q_e, w_m, w_d, est, q_lag, h, ht, u_ff: output_feedback_torque(
            g, q_e, q_lag, h, ht, u_ff
        ),
        estimator_flow=lambda g, est, ht, q_m, w_m, q_e_m: (
            filter_flow_rate(g, FilterState(est[0:4], ht), q_e_m),
        ),
        torque_bounds=(1, 2),
    ),
}


def get(name: str) -> ControllerKind:
    """The kind named `name`; ValueError for an unknown name."""
    if name not in KINDS:
        raise ValueError("unknown controller kind %r" % name)
    return KINDS[name]
