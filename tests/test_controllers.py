"""Hybrid control laws, observer, and attitude-filter tests.

Reference values were computed independently at 40-digit precision and frozen
here as nearest-double literals.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from attkit.analysis import lyapunov_flow_report
from attkit.config import preset
from attkit.controllers import (
    FullStateGains,
    ObserverGains,
    OutputFeedbackGains,
    filter_flow,
    full_state_torque,
    observer_flow,
    output_feedback_torque,
)
from attkit.quat import ZERO_TOL, chord_pow, quat_mul, random_unit_quat
from attkit.rigid_body import error_quaternion
from attkit.sim import run_scenario

from conftest import (
    IDENTITY_QUAT,
    bits,
    filter_flow_rate,
    from_axis_angle,
    observer_flow_rate,
    with_signed_zeros,
)

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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -4.0, 0.0])
@pytest.mark.parametrize(
    "gains, name",
    [(FS_GAINS, "k1"), (FS_GAINS, "k2"), (OBS_GAINS, "mu1"), (OBS_GAINS, "mu2"),
     (OF_GAINS, "k1"), (OF_GAINS, "k2"), (OF_GAINS, "k3")],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_each_gain_must_be_positive_and_finite(gains, name, value):
    # NaN passed the old `k <= 0.0` test, and a run then failed on the quaternion norm
    message = "^%s must be positive and finite, got %s$" % (name, re.escape(repr(value)))
    with pytest.raises(ValueError, match=message):
        replace(gains, **{name: value})


def test_full_state_torque_attitude_term():
    u = full_state_torque(FS_GAINS, FLIP_X, ZERO3, 1)
    assert u[0] == pytest.approx(-FS_ATT_TERM, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_full_state_torque_rate_term():
    u = full_state_torque(
        FS_GAINS, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]), 1
    )
    assert u[0] == pytest.approx(-FS_SAT_TERM, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_full_state_torque_logic_sign():
    u_plus = full_state_torque(FS_GAINS, FLIP_X, ZERO3, 1)
    u_minus = full_state_torque(FS_GAINS, FLIP_X, ZERO3, -1)
    assert np.allclose(u_minus, -np.asarray(u_plus))
    for bad in (0, True, 1.0):  # a logic value is the int +1 or -1
        with pytest.raises(ValueError, match=r"^h must be \+1 or -1, got %r$" % bad):
            full_state_torque(FS_GAINS, FLIP_X, ZERO3, bad)


def test_full_state_torque_smooth_limit():
    gains = FullStateGains(k1=1.1, k2=4.0, alpha1=1.0, delta=0.3)
    q_e = np.array([0.0, 0.6, -0.8, 0.0])
    w_e = np.array([2.0, -0.5, 0.3])
    u = full_state_torque(gains, q_e, w_e, 1)
    expected = -1.1 * q_e[1:] - 4.0 * np.array([1.0, -0.5, 0.3])
    assert np.allclose(u, expected, rtol=1e-15)


def test_laws_at_the_linear_limits_are_the_linear_hybrid_laws():
    # alpha1 = 1: -k1 h q_v - k2 clip(w_e, +-1), hybrid feedback with saturated damping;
    # alpha3 = 1: -k1 h q_v - k2 h~ q_lag,v.  chord_pow(q, 0, h) is h q_v bit for bit
    # outside its dead zone 1 - h q0 <= ZERO_TOL, and sat_pow(x, 1) is clip(x, -1, 1).
    fs = FullStateGains(k1=1.1, k2=4.0, alpha1=1.0, delta=0.3)
    of = OutputFeedbackGains(k1=1.2, k2=2.4, k3=1.1, alpha3=1.0, delta=0.3)
    rng = np.random.default_rng(26)
    worst_fs = worst_of = 0.0
    for _ in range(1000):
        q_e, q_lag = random_unit_quat(rng), random_unit_quat(rng)
        w_e = 2.0 * rng.standard_normal(3)
        h, ht = (int(x) for x in rng.choice([-1, 1], size=2))
        assert 1.0 - h * q_e[0] > ZERO_TOL and 1.0 - ht * q_lag[0] > ZERO_TOL
        u = full_state_torque(fs, q_e, w_e, h)
        linear = -fs.k1 * h * q_e[1:] - fs.k2 * np.clip(w_e, -1.0, 1.0)
        worst_fs = max(worst_fs, np.abs(u - linear).max())
        u = output_feedback_torque(of, q_e, q_lag, h, ht)
        linear = -of.k1 * h * q_e[1:] - of.k2 * ht * q_lag[1:]
        worst_of = max(worst_of, np.abs(u - linear).max())
    assert worst_fs == worst_of == 0.0


def test_hysteresis_width_rule_is_shared():
    for value in (0.0, 1.0, -0.3, float("nan")):
        message = r"^delta must lie in \(0, 1\), got %s$" % re.escape(repr(value))
        with pytest.raises(ValueError, match=message):
            replace(FS_GAINS, delta=value)
        with pytest.raises(ValueError, match=message):
            replace(OF_GAINS, delta=value)
        with pytest.raises(ValueError, match=message):
            lyapunov_flow_report("observer", OBS_GAINS, y0=[1.0] + [0.0] * 6, delta=value)


def test_observer_error_composition():
    rng = np.random.default_rng(22)
    q_hat = random_unit_quat(rng)
    p = random_unit_quat(rng)
    assert np.allclose(error_quaternion(q_hat, q_hat), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(error_quaternion(q_hat, quat_mul(q_hat, p)), p, atol=1e-13)


def test_observer_state_validates_logic():
    # h_tilde is checked where it enters: the config, again where a run starts, and the flow check
    cfg = preset("example2")
    cfg.observer.h_tilde0 = 0
    with pytest.raises(ValueError, match=r"^observer\.h_tilde0 must be \+1 or -1, got 0$"):
        run_scenario(cfg)
    y0 = np.concatenate([FLIP_X, ZERO3])
    with pytest.raises(ValueError, match="h_tilde0 must be"):
        lyapunov_flow_report("observer", OBS_GAINS, y0=y0, delta=0.3, h_tilde0=0, t_final=0.01)


#: the plant's rows [Q, w] of the simulator state y = [Q, w, est]; the estimator rates skip them
PLANT = (0.0,) * 7


def test_observer_flow_rate_reference_values():
    rate = observer_flow(OBS_GAINS, 1, FLIP_X, ZERO3, None)((*PLANT, *IDENTITY_QUAT, *ZERO3))
    assert np.allclose(rate[:4], [0.0, OBS_ATT_RATE, 0.0, 0.0], rtol=1e-15, atol=0.0)
    assert np.allclose(rate[4:], [-OBS_BIAS_RATE, 0.0, 0.0], rtol=1e-15, atol=0.0)


def test_observer_flow_preserves_estimate_norm():
    rng = np.random.default_rng(23)
    for _ in range(10):
        q_hat, b_hat = random_unit_quat(rng), rng.standard_normal(3) * 0.05
        q_m, w_m = random_unit_quat(rng), rng.standard_normal(3) * 0.1
        q_hat_dot = observer_flow(OBS_GAINS, 1, q_m, w_m, None)((*PLANT, *q_hat, *b_hat))[:4]
        assert q_hat @ q_hat_dot == pytest.approx(0.0, abs=1e-14)


def test_filter_error_and_identity_equilibrium():
    rng = np.random.default_rng(24)
    q_e = random_unit_quat(rng)
    assert np.allclose(error_quaternion(q_e, q_e), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(filter_flow(OF_GAINS, 1, None, None, q_e)((*PLANT, *q_e)), 0.0, atol=1e-14)


def test_filter_flow_preserves_norm():
    rng = np.random.default_rng(25)
    for _ in range(10):
        q_f = random_unit_quat(rng)
        rate = filter_flow(OF_GAINS, 1, None, None, random_unit_quat(rng))((*PLANT, *q_f))
        assert q_f @ rate == pytest.approx(0.0, abs=1e-14)


def test_filter_lag_rate_matches_torque_exponent():
    # The filter correction uses chord_pow with the filter exponent alpha3,
    # not the torque exponent alpha1 = 2*alpha3 - 1.
    rate = filter_flow(OF_GAINS, 1, None, None, FLIP_X)((*PLANT, *IDENTITY_QUAT))
    expected = 0.5 * 1.1 * np.asarray(chord_pow(FLIP_X, 1.0 - 0.75))
    assert np.allclose(rate[1:], expected, rtol=1e-14)
    assert rate[0] == 0.0


def _estimator_points(rng):
    """(estimate, measurement) quaternion pairs: Gaussian with signed zeros, then unit pairs
    whose error scalar part lies within about 1e-12 of +1, either side of chord_pow's guard."""
    pairs = [tuple(with_signed_zeros(rng, 4).tolist() for _ in range(2)) for _ in range(200)]
    for half_angle in np.geomspace(5e-7, 3e-6, 40):
        m = tuple(random_unit_quat(rng).tolist())
        turn = from_axis_angle(rng.standard_normal(3), 2.0 * half_angle)
        pairs.append((tuple(map(float, quat_mul(m, turn))), m))
    return pairs


@pytest.mark.parametrize("h_tilde", [1, -1])
def test_estimator_rates_equal_the_composed_flows_bit_for_bit(h_tilde):
    rng = np.random.default_rng(26)
    guarded = set()
    linear = (replace(OBS_GAINS, beta1=1.0), replace(OF_GAINS, alpha3=1.0))
    for obs, of in ((OBS_GAINS, OF_GAINS), linear):
        for est, meas in _estimator_points(rng):
            est = tuple(h_tilde * c for c in est)  # the error scalar part nears h~
            plant, b_hat, w_m = (tuple(with_signed_zeros(rng, k).tolist()) for k in (7, 3, 3))
            got = observer_flow(obs, h_tilde, meas, w_m, None)((*plant, *est, *b_hat))
            want = sum(observer_flow_rate(obs, est, b_hat, h_tilde, meas, w_m), ())
            assert bits(got) == bits(want)
            got = filter_flow(of, h_tilde, None, None, meas)((*plant, *est))
            assert bits(got) == bits(filter_flow_rate(of, est, h_tilde, meas))
            guarded.add(chord_pow(error_quaternion(est, meas), 0.25, h_tilde) == (0.0, 0.0, 0.0))
    assert guarded == {True, False}


def test_output_feedback_torque_reference_value():
    u = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, 1)
    assert u[0] == pytest.approx(-OF_BOTH_TERMS, rel=1e-15)
    assert u[1] == u[2] == 0.0


def test_output_feedback_torque_independent_logic_signs():
    u_pp = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, 1)
    u_pm = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, 1, -1)
    u_mp = output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, -1, 1)
    assert u_pm[0] > u_pp[0]  # flipping h~ negates only the k2 term
    assert u_mp[0] > u_pp[0]
    assert u_pm[0] + u_mp[0] == pytest.approx(0.0, abs=1e-15)
    for h, ht, name, bad in ((1, 2, "h_tilde", 2), (True, 1, "h", True), (1, 1.0, "h_tilde", 1.0),
                             (-1.0, 1, "h", -1.0)):
        with pytest.raises(ValueError, match=r"^%s must be \+1 or -1, got %r$" % (name, bad)):
            output_feedback_torque(OF_GAINS, FLIP_X, FLIP_X, h, ht)
