"""Hybrid control laws, observer, and attitude-filter tests.

Reference values were computed independently at 40-digit precision and frozen
here as nearest-double literals.
"""

import numpy as np
import pytest

from attkit.controllers import (
    FilterState,
    FullStateGains,
    ObserverGains,
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
    sgn_bar,
)
from attkit.quat import chord_pow, quat_conj, quat_mul, random_unit_quat

FS_GAINS = FullStateGains(k1=1.1, k2=4.0, alpha1=0.6, delta=0.3)
OBS_GAINS = ObserverGains(mu1=0.33, mu2=0.12, beta1=0.75)
OF_GAINS = OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=0.75, delta=0.3)

ZERO3 = np.zeros(3)
FLIP_X = np.array([0.0, 1.0, 0.0, 0.0])

FS_ATT_TERM = 0.9576056196257365  # 1.1 * 2**-0.2
FS_SAT_TERM = 1.1962790249769764  # 4.0 * 0.2**0.75
OF_BOTH_TERMS = 3.027227094913372  # (1.2 + 2.4) * 2**-0.25
OBS_ATT_RATE = 0.15130566712877075  # 0.5 * 0.33 * 2**-0.125
OBS_BIAS_RATE = 0.10090756983044574  # 0.12 * 2**-0.25


def test_sgn_bar():
    assert sgn_bar(0.3) == 1
    assert sgn_bar(-0.2) == -1
    assert sgn_bar(0.0) == 1
    assert sgn_bar(-0.0) == 1


def test_full_state_gains_validation():
    assert FS_GAINS.alpha2 == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(ValueError):
        FullStateGains(k1=0.0, k2=4.0, alpha1=0.6, delta=0.3)
    with pytest.raises(ValueError):
        FullStateGains(k1=1.1, k2=-1.0, alpha1=0.6, delta=0.3)
    with pytest.raises(ValueError):
        FullStateGains(k1=1.1, k2=4.0, alpha1=0.0, delta=0.3)
    with pytest.raises(ValueError):
        FullStateGains(k1=1.1, k2=4.0, alpha1=1.2, delta=0.3)
    with pytest.raises(ValueError):
        FullStateGains(k1=1.1, k2=4.0, alpha1=0.6, delta=0.0)
    with pytest.raises(ValueError):
        FullStateGains(k1=1.1, k2=4.0, alpha1=0.6, delta=1.0)
    FullStateGains(k1=1.1, k2=4.0, alpha1=1.0, delta=0.3)  # smooth limit is legal


def test_observer_gains_validation():
    assert OBS_GAINS.beta2 == 0.5
    with pytest.raises(ValueError):
        ObserverGains(mu1=0.33, mu2=0.12, beta1=0.5)
    with pytest.raises(ValueError):
        ObserverGains(mu1=0.0, mu2=0.12, beta1=0.75)
    ObserverGains(mu1=0.33, mu2=0.12, beta1=1.0)


def test_output_feedback_gains_validation():
    assert OF_GAINS.alpha1 == 0.5
    with pytest.raises(ValueError):
        OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=0.5, delta=0.3)
    with pytest.raises(ValueError):
        OutputFeedbackGains(k1=1.2, k2=2.4, k3=0.0, alpha3=0.75, delta=0.3)
    with pytest.raises(ValueError):
        OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=0.75, delta=1.0)


def test_hysteresis_update():
    assert hysteresis_update(1, -0.2, 0.3) == (1, False)
    assert hysteresis_update(1, -0.3, 0.3) == (-1, True)  # boundary jumps
    assert hysteresis_update(-1, 0.4, 0.3) == (1, True)
    assert hysteresis_update(-1, -0.9, 0.3) == (-1, False)
    with pytest.raises(ValueError):
        hysteresis_update(0, 0.5, 0.3)


def test_full_state_torque_attitude_term():
    u = full_state_torque(FS_GAINS, FLIP_X, ZERO3, 1, ZERO3)
    assert u[0] == pytest.approx(-FS_ATT_TERM, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_full_state_torque_rate_term():
    u = full_state_torque(
        FS_GAINS, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]), 1, ZERO3
    )
    assert u[0] == pytest.approx(-FS_SAT_TERM, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_full_state_torque_logic_sign():
    u_plus = full_state_torque(FS_GAINS, FLIP_X, ZERO3, 1, ZERO3)
    u_minus = full_state_torque(FS_GAINS, FLIP_X, ZERO3, -1, ZERO3)
    assert np.allclose(u_minus, -u_plus)
    with pytest.raises(ValueError):
        full_state_torque(FS_GAINS, FLIP_X, ZERO3, 0, ZERO3)


def test_full_state_torque_feedforward_passthrough():
    u_ff = np.array([1.0, 2.0, 3.0])
    u = full_state_torque(FS_GAINS, np.array([1.0, 0.0, 0.0, 0.0]), ZERO3, 1, u_ff)
    assert np.array_equal(u, u_ff)


def test_full_state_torque_smooth_limit():
    gains = FullStateGains(k1=1.1, k2=4.0, alpha1=1.0, delta=0.3)
    q_e = np.array([0.0, 0.6, -0.8, 0.0])
    w_e = np.array([2.0, -0.5, 0.3])
    u = full_state_torque(gains, q_e, w_e, 1, ZERO3)
    expected = -1.1 * q_e[1:] - 4.0 * np.array([1.0, -0.5, 0.3])
    assert np.allclose(u, expected, rtol=1e-15)


def test_observer_error_composition():
    rng = np.random.default_rng(22)
    q_hat = random_unit_quat(rng)
    p = random_unit_quat(rng)
    assert np.allclose(observer_error(q_hat, q_hat), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(observer_error(q_hat, quat_mul(q_hat, p)), p, atol=1e-13)


def test_observer_state_validates_logic():
    with pytest.raises(ValueError):
        ObserverState(q_hat=np.array([1.0, 0.0, 0.0, 0.0]), b_hat=ZERO3, h_tilde=0)


def test_observer_flow_rate_reference_values():
    state = ObserverState(q_hat=np.array([1.0, 0.0, 0.0, 0.0]), b_hat=ZERO3, h_tilde=1)
    q_hat_dot, b_hat_dot = observer_flow_rate(OBS_GAINS, state, FLIP_X, ZERO3)
    assert np.allclose(q_hat_dot, [0.0, OBS_ATT_RATE, 0.0, 0.0], rtol=1e-15, atol=0.0)
    assert np.allclose(b_hat_dot, [-OBS_BIAS_RATE, 0.0, 0.0], rtol=1e-15, atol=0.0)


def test_observer_flow_preserves_estimate_norm():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state = ObserverState(
            q_hat=random_unit_quat(rng), b_hat=rng.standard_normal(3) * 0.05, h_tilde=1
        )
        q_hat_dot, _ = observer_flow_rate(
            OBS_GAINS, state, random_unit_quat(rng), rng.standard_normal(3) * 0.1
        )
        assert state.q_hat @ q_hat_dot == pytest.approx(0.0, abs=1e-14)


def test_filter_error_and_identity_equilibrium():
    rng = np.random.default_rng(24)
    q_e = random_unit_quat(rng)
    assert np.allclose(filter_error(q_e, q_e), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    state = FilterState(q_f=q_e, h_tilde=1)
    assert np.allclose(filter_flow_rate(OF_GAINS, state, q_e), 0.0, atol=1e-14)


def test_filter_flow_preserves_norm():
    rng = np.random.default_rng(25)
    for _ in range(10):
        state = FilterState(q_f=random_unit_quat(rng), h_tilde=1)
        rate = filter_flow_rate(OF_GAINS, state, random_unit_quat(rng))
        assert state.q_f @ rate == pytest.approx(0.0, abs=1e-14)


def test_filter_lag_rate_matches_torque_exponent():
    # The filter correction uses chord_pow with the filter exponent alpha3,
    # not the torque exponent alpha1 = 2*alpha3 - 1.
    state = FilterState(q_f=np.array([1.0, 0.0, 0.0, 0.0]), h_tilde=1)
    rate = filter_flow_rate(OF_GAINS, state, FLIP_X)
    expected = 0.5 * 1.1 * chord_pow(FLIP_X, 1.0 - 0.75)
    assert np.allclose(rate[1:], expected, rtol=1e-14)
    assert rate[0] == 0.0


def test_output_feedback_torque_reference_value():
    u = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, 1, ZERO3)
    assert u[0] == pytest.approx(-OF_BOTH_TERMS, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_output_feedback_torque_independent_logic_signs():
    u_pp = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, 1, ZERO3)
    u_pm = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, -1, ZERO3)
    u_mp = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, -1, 1, ZERO3)
    assert u_pm[0] > u_pp[0]  # flipping h~ negates only the k2 term
    assert u_mp[0] > u_pp[0]
    assert u_pm[0] + u_mp[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, 2, ZERO3)


def test_joint_jump():
    assert joint_jump(-0.5, 0.2, 1, 1, 0.3) == (-1, 1)
    assert joint_jump(0.5, -0.4, 1, 1, 0.3) == (1, -1)
    assert joint_jump(-0.3, -0.3, 1, 1, 0.3) == (-1, -1)  # boundary fires
    with pytest.raises(ValueError):
        joint_jump(0.5, 0.2, 1, 1, 0.3)
    with pytest.raises(ValueError):
        joint_jump(-0.5, 0.2, 0, 1, 0.3)
