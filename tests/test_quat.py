"""Quaternion algebra and nonsmooth feedback-map unit tests.

Reference values were worked by hand or in 40-digit arithmetic and frozen as
the nearest double; tests compare against the literals, not the code's own
output.
"""

import math
import warnings

import numpy as np
import pytest

from attkit.quat import (
    axis_pow,
    chord_gap,
    chord_potential,
    chord_pow,
    cross,
    flip_drop,
    quat_conj,
    quat_mul,
    random_unit_quat,
    rotate,
    sat_pow,
    sgn_pow,
    unit_or_warn,
)

from conftest import IDENTITY_QUAT, from_axis_angle

# frozen references
CHORD_POW_HALF = 0.8408964152537145  # 2**-0.25 = chord_pow([0,1,0,0], 0.5)[0]
AXIS_POW_03 = 0.5477225575051661  # sqrt(0.3) = axis_pow(q_v=[0.3,0,0], 0.5)[0]
POT_0 = 1.7411011265922482  # 2**0.8  = chord_potential(0, 1.6)
POT_M1 = 3.031433133020796  # 4**0.8  = chord_potential(-1, 1.6)
FLIP_M03 = -0.8388372026916884  # 1.4**0.8 - 2.6**0.8 = flip_drop(-0.3, 1.6)
SAT_02 = 0.2990697562442441  # 0.2**0.75


def test_quat_mul_hand_example():
    got = quat_mul(np.array([1.0, 2.0, 3.0, 4.0]), np.array([5.0, 6.0, 7.0, 8.0]))
    assert list(got) == [-60.0, 12.0, 30.0, 24.0]


def test_quat_mul_identity_and_conjugate():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_unit_quat(rng)
        assert np.allclose(quat_mul(IDENTITY_QUAT, q), q)
        assert np.allclose(quat_mul(q, IDENTITY_QUAT), q)
        assert np.allclose(quat_mul(q, quat_conj(q)), IDENTITY_QUAT, atol=1e-14)


def test_cross_matches_np_cross_exactly():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.array_equal(cross(a, b), np.cross(a, b))


def _rotation_columns(q):
    """The attitude matrix R(q), one rotated basis vector per column."""
    return np.column_stack([rotate(q, e) for e in np.eye(3)])


def test_rotate_is_special_orthogonal():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = _rotation_columns(random_unit_quat(rng))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotate_matches_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_unit_quat(rng)
        a = rng.standard_normal(3)
        conj = quat_mul(quat_conj(q), quat_mul(np.concatenate(([0.0], a)), q))
        assert np.allclose(rotate(q, a), conj[1:], atol=1e-12)


def test_rotate_by_conjugate_inverts():
    rng = np.random.default_rng(14)
    for _ in range(50):
        q = random_unit_quat(rng)
        a = rng.standard_normal(3)
        assert np.allclose(rotate(quat_conj(q), rotate(q, a)), a, atol=1e-12)
        assert np.allclose(rotate(quat_conj(q), a), _rotation_columns(q).T @ a, atol=1e-12)


def test_rotate_passive_convention():
    # 90 degrees about +z: the reference x-axis reads as -y in the body frame
    q = from_axis_angle([0.0, 0.0, 1.0], np.pi / 2.0)
    assert np.allclose(rotate(q, np.array([1.0, 0.0, 0.0])), [0.0, -1.0, 0.0])
    # half turn about +x, exactly representable
    assert np.array_equal(_rotation_columns(np.array([0.0, 1.0, 0.0, 0.0])), np.diag([1.0, -1.0, -1.0]))


def test_from_axis_angle_normalizes_and_rejects_zero():
    assert np.allclose(
        from_axis_angle([0.0, 0.0, 2.0], 0.5), from_axis_angle([0.0, 0.0, 1.0], 0.5)
    )
    with pytest.raises(ValueError):
        from_axis_angle([0.0, 0.0, 0.0], 0.5)


def test_unit_or_warn_normalizes_warns_and_names_bad_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unit_or_warn([0.0, 1.0, 0.0, 0.0], "q") == (0.0, 1.0, 0.0, 0.0)
    with pytest.warns(UserWarning, match=r"^q_a not unit norm \(\|Q\| = 2\.000000\)"):
        assert unit_or_warn([0.0, 0.0, 2.0, 0.0], "q_a") == (0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="^q_b has zero norm"):
        unit_or_warn([0.0, 0.0, 0.0, 0.0], "q_b")
    # NaN came back as four NaNs, silently; inf warned and came back as (nan, 0, 0, 0)
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^q_c is not finite: \["):
                unit_or_warn([bad, 0.0, 0.0, 0.0], "q_c")


def test_random_unit_quat_unit_norm_both_hemispheres():
    rng = np.random.default_rng(7)
    qs = np.array([random_unit_quat(rng) for _ in range(500)])
    assert np.allclose(np.linalg.norm(qs, axis=1), 1.0, atol=1e-12)
    assert (qs[:, 0] > 0).any() and (qs[:, 0] < 0).any()


def test_sgn_pow():
    assert sgn_pow(-8.0, 1.0 / 3.0) == pytest.approx(-2.0)
    assert sgn_pow(0.0, 0.5) == 0.0
    x = np.array([-0.04, 0.0, 0.25])
    assert np.allclose(sgn_pow(x, 0.5), [-0.2, 0.0, 0.5])


def test_sat_pow():
    assert sat_pow(0.2, 0.75) == pytest.approx(SAT_02, rel=1e-15)
    assert sat_pow(-0.2, 0.75) == pytest.approx(-SAT_02, rel=1e-15)
    # saturates at unity once |x|^alpha exceeds 1
    assert np.allclose([sat_pow(x, 0.75) for x in (3.0, -5.0)], [1.0, -1.0])
    # alpha = 1 is a plain clip
    assert np.allclose([sat_pow(x, 1.0) for x in (2.0, -0.4, 0.3)], [1.0, -0.4, 0.3])


def test_axis_pow_reference_value_and_origin():
    q = np.array([0.9539392014169456, 0.3, 0.0, 0.0])
    assert axis_pow(q[1:], 0.5)[0] == pytest.approx(AXIS_POW_03, rel=1e-15)
    assert np.array_equal(axis_pow(IDENTITY_QUAT[1:], 0.5), np.zeros(3))


def test_axis_pow_is_a_power_below_zero_tol():
    # dilations put chart points at this size; only an exact zero maps to zero
    got = axis_pow(np.array([1e-14, 0.0, 0.0]), 0.9)
    assert got[0] == pytest.approx(1e-14**0.1, rel=1e-12)


def test_axis_pow_and_chord_gap_map_a_column_block_as_its_points():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((4, 50))
    q /= np.linalg.norm(q, axis=0)
    q[:, 0] = IDENTITY_QUAT  # q_v = 0
    q[:, 1] = -IDENTITY_QUAT  # q0 = -1: no division by 1 + q0, no warning
    q[:, 2] = [1.0 - 1e-17, 1e-9, 0.0, 0.0]  # q0 rounds to 1.0 while q_v is not zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.3, 0.9):
            got = axis_pow(q[1:], alpha)
            assert np.array_equal(got, np.stack([axis_pow(c, alpha) for c in q[1:].T], axis=1))
            got = chord_gap(q, alpha)
            assert np.array_equal(got, np.stack([chord_gap(c, alpha) for c in q.T], axis=1))
    assert np.array_equal(got[:, :2], np.zeros((3, 2)))


def test_chord_potential_endpoints_at_alpha_one():
    # at alpha = 1 the potential is the chord ||Q - identity|| = sqrt(2(1 - q0))
    assert chord_potential(1.0, 1.0) == 0.0
    assert chord_potential(-1.0, 1.0) == 2.0
    assert chord_potential(0.0, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_chord_pow_equals_its_composed_chord_bit_for_bit():
    # the chord as a separate clamped kernel, sqrt(max(2(1 - h q0), 0)), is
    # what chord_pow forms inline after its guard
    rng = np.random.default_rng(21)
    qs = [random_unit_quat(rng) for _ in range(2000)]
    qs += [from_axis_angle([0.3, -1.0, 0.5], th) for th in (1e-3, 1e-5, 2e-6, 1e-7)]
    qs += [IDENTITY_QUAT, -IDENTITY_QUAT, np.array([0.0, 1.0, 0.0, 0.0])]
    for q in qs:
        alpha = float(rng.uniform(0.0, 1.0))
        for h in (1, -1):
            q0, q1, q2, q3 = (h * float(c) for c in q)
            if 1.0 - q0 <= 1e-12:
                want = (0.0, 0.0, 0.0)
            else:
                s = math.sqrt(max(2.0 * (1.0 - q0), 0.0)) ** alpha
                want = (q1 / s, q2 / s, q3 / s)
            assert np.array(chord_pow(q, alpha, h)).tobytes() == np.array(want).tobytes()


def test_chord_pow_reference_value_identity_and_exponent_zero():
    got = chord_pow(np.array([0.0, 1.0, 0.0, 0.0]), 0.5)
    assert got[0] == pytest.approx(CHORD_POW_HALF, rel=1e-15)
    assert got[1] == got[2] == 0.0
    assert np.array_equal(chord_pow(IDENTITY_QUAT, 0.5), np.zeros(3))
    q = np.array([0.8, 0.36, -0.48, 0.0])
    assert np.allclose(chord_pow(q, 0.0), q[1:])


def test_chord_pow_continuous_at_identity():
    # norm ~ (theta/2)^(1-alpha) -> 0 even though the denominator vanishes
    alpha = 0.4
    norms = [
        float(np.linalg.norm(chord_pow(from_axis_angle([0.0, 0.0, 1.0], th), alpha)))
        for th in (1e-2, 1e-4, 1e-6)
    ]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-3


def test_chord_pow_norm_bounded_by_one():
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        q = random_unit_quat(rng)
        a = rng.uniform(0.0, 1.0)
        assert np.linalg.norm(chord_pow(q, a)) <= 1.0 + 1e-12


def test_chord_potential_values_and_validation():
    assert chord_potential(0.0, 1.6) == pytest.approx(POT_0, rel=1e-15)
    assert chord_potential(-1.0, 1.6) == pytest.approx(POT_M1, rel=1e-15)
    assert chord_potential(1.0, 1.6) == 0.0
    with pytest.raises(ValueError):
        chord_potential(0.0, -0.1)
    with pytest.raises(ValueError):
        chord_potential(1.1, 1.6)


def test_chord_potential_maps_a_column_and_fails_loudly():
    x = np.array([-1.0, -0.3, 0.0, 0.7, 1.0, 1.0 + 5e-10])
    assert np.array_equal(chord_potential(x, 1.6), [chord_potential(v, 1.6) for v in x])
    with pytest.raises(ValueError, match="scalar part 1.1 outside"):
        chord_potential(np.array([0.5, 1.1, -1.2]), 1.6)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        chord_potential(np.array([0.0, 0.5]), -0.1)


def test_flip_drop_sign_structure_and_value():
    assert flip_drop(-0.3, 1.6) == pytest.approx(FLIP_M03, rel=1e-15)
    assert flip_drop(0.0, 1.6) == 0.0
    assert flip_drop(0.4, 1.6) == 0.0
    assert flip_drop(-0.7, 1.6) < flip_drop(-0.3, 1.6) < 0.0


def test_chord_gap_matches_direct_difference_away_from_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q = from_axis_angle(rng.standard_normal(3), rng.uniform(1.0, 3.0))
        a = rng.uniform(0.1, 0.9)
        direct = chord_pow(q, a) - axis_pow(q[1:], a)
        assert np.allclose(chord_gap(q, a), direct, rtol=1e-11, atol=1e-14)
    assert np.array_equal(chord_gap(IDENTITY_QUAT, 0.5), np.zeros(3))


def test_chord_gap_near_identity_limit_ratio():
    # (gap . axis_pow) / (||q_v||^2 ||axis_pow||^2) -> -alpha/8 as q -> identity
    alpha = 0.5
    rho = 1e-3
    n = np.array([0.6, -0.8, 0.0])
    q = np.concatenate(([np.sqrt(1.0 - rho**2)], rho * n))
    k0 = axis_pow(q[1:], alpha)
    ratio = float(chord_gap(q, alpha) @ k0 / (rho**2 * (k0 @ k0)))
    assert ratio == pytest.approx(-alpha / 8.0, abs=1e-7)


def test_chord_gap_keeps_its_limit_where_one_minus_q0_rounds_to_zero():
    # at rho = 1e-9, 1 - sqrt(1 - rho^2) is exactly 0.0 in doubles
    alpha, rho = 0.5, 1e-9
    q = np.concatenate(([np.sqrt(1.0 - rho**2)], rho * np.array([0.6, -0.8, 0.0])))
    assert 1.0 - q[0] == 0.0
    k0 = axis_pow(q[1:], alpha)
    ratio = float(chord_gap(q, alpha) @ k0 / (rho**2 * (k0 @ k0)))
    assert ratio == pytest.approx(-alpha / 8.0, rel=1e-9)
