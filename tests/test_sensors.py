"""Sensor models, disturbance torque, and saturation tests."""

import math

import numpy as np
import pytest

from attkit import sim
from attkit.config import preset
from attkit.quat import random_unit_quat
from attkit.rigid_body import sinusoid_trajectory
from attkit.sensors import (
    DisturbanceConfig,
    NoiseConfig,
    bias_step,
    disturbance_torque,
    measure_attitude,
    measure_gyro,
    saturate,
)

from conftest import bits, composed_saturate, from_axis_angle

DEG = np.pi / 180.0


def test_noise_config_degrees_to_radians():
    cfg = NoiseConfig(attitude_cone_deg=0.01, gyro_sigma_deg_s=0.02, bias_walk_deg_s2=0.03)
    assert cfg.attitude_cone_rad == pytest.approx(0.01 * DEG, rel=1e-15)
    assert cfg.gyro_sigma_rad_s == pytest.approx(0.02 * DEG, rel=1e-15)
    assert cfg.bias_walk_rad_s2 == pytest.approx(0.03 * DEG, rel=1e-15)


def test_noise_config_disabled_zeroes_everything():
    # noise is off when its magnitudes are 0, and each converts to exact +0.0
    cfg = NoiseConfig(attitude_cone_deg=0.0, gyro_sigma_deg_s=0.0, bias_walk_deg_s2=0.0)
    for value in (cfg.attitude_cone_rad, cfg.gyro_sigma_rad_s, cfg.bias_walk_rad_s2):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_noise_config_rejects_negative_magnitudes():
    cfg = preset("example1")  # ScenarioConfig.validate checks the section's ranges
    cfg.noise.gyro_sigma_deg_s = -0.01
    with pytest.raises(ValueError, match=r"^noise\.gyro_sigma_deg_s must be nonnegative"):
        cfg.validate()


@pytest.mark.parametrize("cone", [180.5, 360.0, 1e300])
def test_noise_config_rejects_a_cone_past_180_degrees(cone):
    cfg = preset("example1")
    cfg.noise.attitude_cone_deg = 180.0  # the whole sphere is still a cone
    cfg.validate()
    cfg.noise.attitude_cone_deg = cone
    with pytest.raises(ValueError, match=r"^noise\.attitude_cone_deg must be at most 180, got "):
        cfg.validate()


def test_disturbance_torque_phase():
    cfg = DisturbanceConfig(amplitude_nm=0.02, frequency_rad_s=0.1)
    assert np.allclose(disturbance_torque(cfg, 0.0), [0.02, 0.02, 0.0], atol=1e-18)
    t_quarter = 0.5 * np.pi / 0.1
    assert np.allclose(disturbance_torque(cfg, t_quarter), [0.0, 0.0, -0.02], atol=1e-15)
    off = DisturbanceConfig(amplitude_nm=0.0)
    assert np.array_equal(disturbance_torque(off, 3.0), np.zeros(3))


def test_a_zero_magnitude_gives_exact_positive_zeros():
    # 0.0 * sin(x) is -0.0 where sin(x) < 0; np.array_equal cannot tell it from
    # +0.0, but the trace bytes, and so every noise-free run's digest, can.
    # At phase 4 rad both sin and cos are negative.
    assert math.sin(4.0) < 0.0 and math.cos(4.0) < 0.0
    off = disturbance_torque(DisturbanceConfig(amplitude_nm=0.0, frequency_rad_s=0.1), 40.0)
    rest = sinusoid_trajectory(0.0, 0.01)
    for value in (*off, *rest.omega_fn(400.0), *rest.omega_dot_fn(400.0)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def _axis_angle(q):
    """Eigenaxis q_v/|q_v| and angle 2*atan2(|q_v|, q0) of a quaternion with q_v != 0."""
    q = np.asarray(q, dtype=float)
    s = np.linalg.norm(q[1:])
    return q[1:] / s, 2.0 * np.arctan2(s, q[0])


def _axis_angle_measurement(q_true, tilt, azimuth):
    """The star tracker as an axis-angle round trip in NumPy: the reference construction."""
    axis, angle = _axis_angle(q_true)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    tilted = np.cos(tilt) * axis + np.sin(tilt) * (np.cos(azimuth) * e1 + np.sin(azimuth) * e2)
    return from_axis_angle(tilted, angle)


def test_measure_attitude_preserves_angle_and_unit_norm():
    rng = np.random.default_rng(30)
    cone = 0.5 * DEG
    q_true = from_axis_angle([0.3, -1.0, 0.5], 1.2)
    axis_true, angle_true = _axis_angle(q_true)
    for _ in range(50):
        q_m = measure_attitude(q_true, cone, rng.random(2).tolist())
        assert np.linalg.norm(q_m) == pytest.approx(1.0, abs=1e-15)
        axis_m, angle_m = _axis_angle(q_m)
        assert angle_m == pytest.approx(angle_true, abs=1e-12)
        assert axis_m @ axis_true >= np.cos(cone) - 1e-12


def test_measure_attitude_matches_axis_angle_construction():
    rng = np.random.default_rng(38)
    quats = [random_unit_quat(rng) for _ in range(200)]
    # eigenaxes within 25 degrees of x, so the y-helper pad is taken
    for _ in range(50):
        axis = np.array([1.0, 0.0, 0.0]) + 0.25 * rng.standard_normal(3)
        quats.append(from_axis_angle(axis, rng.uniform(-6.0, 6.0)))
    axes = np.array([_axis_angle(q)[0] for q in quats])
    assert (np.array(quats)[:, 0] < 0.0).sum() >= 50
    assert (np.abs(axes[:, 0]) >= 0.9).sum() >= 50
    for q_true, axis_true in zip(quats, axes):
        cone = rng.uniform(0.0, 20.0 * DEG)
        seed = int(rng.integers(2**32))
        twin = np.random.default_rng(seed)
        tilt, azimuth = cone * twin.random(), 2.0 * np.pi * twin.random()
        q_m = measure_attitude(q_true, cone, np.random.default_rng(seed).random(2).tolist())
        reference = _axis_angle_measurement(q_true, tilt, azimuth)
        assert q_m[0] == q_true[0]
        assert np.max(np.abs(np.subtract(q_m, reference))) <= 1e-14
        assert _axis_angle(q_m)[0] @ axis_true >= np.cos(cone) - 1e-12


def test_measure_attitude_zero_cone_is_exact_copy():
    rng = np.random.default_rng(31)
    q_true = from_axis_angle([0.3, -1.0, 0.5], 1.2)
    q_m = measure_attitude(q_true, 0.0, rng.random(2).tolist())
    assert np.array_equal(q_m, q_true)
    assert q_m is not q_true


def test_measure_attitude_identity_passes_through():
    rng = np.random.default_rng(32)
    q_m = measure_attitude(np.array([1.0, 0.0, 0.0, 0.0]), 0.5 * DEG, rng.random(2).tolist())
    assert np.array_equal(q_m, [1.0, 0.0, 0.0, 0.0])


class _Recorded:
    """A Generator that records the method and size of each draw it serves."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        return self.rng.standard_normal(size)


def test_measure_attitude_draw_count_is_state_independent(monkeypatch):
    # Each step draws the star tracker's two uniforms in one call, then the six normals
    # of the gyro and the bias walk in another; the last row, which does not step, draws
    # the gyro's three.  At the identity short-circuit as on the generic path, with the
    # cone on or at 0, so downstream draws stay seed-reproducible.
    make = np.random.default_rng
    identity = [1.0, 0.0, 0.0, 0.0]
    generic = from_axis_angle([0.3, -1.0, 0.5], 1.2).tolist()
    for q0, cone in ((identity, 0.5), (generic, 0.5), (identity, 0.0)):
        calls = []
        monkeypatch.setattr(sim.np.random, "default_rng", lambda seed: _Recorded(make(seed), calls))
        cfg = preset("example2")
        cfg.sim.t_final_s = 0.2
        cfg.plant.q0, cfg.noise.attitude_cone_deg = q0, cone
        sim.run_scenario(cfg)
        n = round(cfg.sim.t_final_s / cfg.sim.dt_s)
        step = [("random", 2), ("standard_normal", 6)]
        assert calls == step * n + [("random", 2), ("standard_normal", 3)]


def test_measure_gyro_exact_without_noise():
    rng = np.random.default_rng(34)
    w = np.array([0.3, -0.4, 0.0])
    b = np.array([0.01, -0.05, 0.02])
    assert np.array_equal(measure_gyro(w, b, 0.0, rng.standard_normal(3).tolist()), w + b)


def test_measure_gyro_noise_statistics():
    rng = np.random.default_rng(35)
    sigma = 0.02
    w = np.zeros(3)
    b = np.zeros(3)
    draws = np.array(
        [measure_gyro(w, b, sigma, rng.standard_normal(3).tolist()) for _ in range(4000)]
    )
    assert abs(draws.mean()) < 5.0 * sigma / np.sqrt(draws.size)
    assert draws.std() == pytest.approx(sigma, rel=0.05)


def test_bias_step_zero_walk_is_identity():
    rng = np.random.default_rng(36)
    b = np.array([0.01, -0.05, 0.02])
    assert np.array_equal(bias_step(b, 0.0, 0.01, rng.standard_normal(3).tolist()), b)


def test_bias_walk_terminal_spread():
    # Terminal std of the Euler random walk is walk*sqrt(dt*T) per axis.
    rng = np.random.default_rng(37)
    walk, dt, n_steps = 0.01, 0.05, 200
    finals = np.empty((400, 3))
    for k in range(400):
        b = np.zeros(3)
        for _ in range(n_steps):
            b = bias_step(b, walk, dt, rng.standard_normal(3).tolist())
        finals[k] = b
    target = walk * np.sqrt(dt * (dt * n_steps))
    assert finals.std() == pytest.approx(target, rel=0.10)


def test_saturate_clips_componentwise():
    u = np.array([6.0, -7.5, 1.0])
    assert np.array_equal(saturate(u, 5.0), [5.0, -5.0, 1.0])
    assert np.array_equal(saturate(u, 10.0), u)


@pytest.mark.parametrize("limit", [5.0, 0.1, 5e-324, 1.7e308])
def test_saturate_equals_the_composed_clip_bit_for_bit(limit):
    # NaN, signed zeros, infinities, the limits themselves and their float neighbours
    edges = [math.nan, 0.0, -0.0, math.inf, -math.inf, limit, -limit]
    for edge in (limit, -limit):
        edges += [math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    edges += np.random.default_rng(39).standard_normal(20).tolist()
    for u in edges:
        torque = (u, -u, u)
        assert bits(saturate(torque, limit)) == bits(composed_saturate(torque, limit)), torque
