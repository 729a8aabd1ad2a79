"""Measurement models, disturbance torque, and actuator saturation.

Noise amounts are configured in degrees (matching how star tracker and gyro
datasheets quote them) and converted to radians internally.  All draws come
from the caller's Generator so a scenario's entire random history is fixed by
one seed.  States and results are float sequences and tuples, as in the
quat kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import ZERO_TOL, cross, dot

DEG = np.pi / 180.0


@dataclass
class NoiseConfig:
    """Sensor error magnitudes, nonnegative; enabled=False zeroes all of them.

    attitude_cone_deg   half-angle of the eigenaxis error cone (star tracker)
    gyro_sigma_deg_s    per-axis white noise std dev on the measured rate
    bias_walk_deg_s2    per-axis random-walk intensity of the gyro bias
    """

    enabled: bool = True
    attitude_cone_deg: float = 0.01
    gyro_sigma_deg_s: float = 0.01
    bias_walk_deg_s2: float = 0.01

    @property
    def attitude_cone_rad(self) -> float:
        return self.attitude_cone_deg * DEG if self.enabled else 0.0

    @property
    def gyro_sigma_rad_s(self) -> float:
        return self.gyro_sigma_deg_s * DEG if self.enabled else 0.0

    @property
    def bias_walk_rad_s2(self) -> float:
        return self.bias_walk_deg_s2 * DEG if self.enabled else 0.0


@dataclass
class DisturbanceConfig:
    """Slow sinusoidal disturbance torque d(t) = A*[cos(ft), cos(ft), -sin(ft)]."""

    enabled: bool = True
    amplitude_nm: float = 0.02
    frequency_rad_s: float = 0.1


def disturbance_torque(cfg: DisturbanceConfig, t: float) -> tuple:
    if not cfg.enabled:
        return (0.0, 0.0, 0.0)
    p = cfg.frequency_rad_s * t
    a = cfg.amplitude_nm
    return (a * math.cos(p), a * math.cos(p), -(a * math.sin(p)))


def measure_attitude(q_true, cone_rad: float, rng: np.random.Generator) -> tuple:
    """Star-tracker model: tilt the eigenaxis inside a cone, keep the angle.

    The tilt angle is uniform on [0, cone_rad] and the tilt direction uniform
    around the axis.  The rotation angle is unchanged: q0 is kept exactly and
    the vector part keeps its length, so the output has the input's norm (unit
    to rounding for unit input).  Two variates are always consumed to keep
    the draw sequence independent of the noise amount; rng.random() draws
    exactly what rng.uniform() draws, without its argument handling.
    """
    tilt = cone_rad * rng.random()
    azimuth = 2.0 * math.pi * rng.random()
    if tilt == 0.0:
        return tuple(q_true)
    q0, q1, q2, q3 = q_true
    s = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3)
    if s <= ZERO_TOL:
        return (q0, q1, q2, q3)
    axis = (q1 / s, q2 / s, q3 / s)
    # orthogonal pad around the eigenaxis: e2 = axis x e1 is as long as e1, so r scales both
    e1 = cross(axis, (1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else (0.0, 1.0, 0.0))
    e2 = cross(axis, e1)
    r = s * math.sin(tilt) / math.sqrt(dot(e1, e1))
    c, r1, r2 = s * math.cos(tilt), r * math.cos(azimuth), r * math.sin(azimuth)
    (a1, a2, a3), (u1, u2, u3), (v1, v2, v3) = axis, e1, e2
    return (
        q0, c * a1 + r1 * u1 + r2 * v1, c * a2 + r1 * u2 + r2 * v2, c * a3 + r1 * u3 + r2 * v3
    )


def measure_gyro(w_true, bias, sigma_rad_s: float, rng: np.random.Generator) -> tuple:
    """Rate gyro model: w + b + v with v zero-mean white, std sigma per axis."""
    w1, w2, w3 = w_true
    b1, b2, b3 = bias
    v1, v2, v3 = rng.standard_normal(3).tolist()
    return (w1 + b1 + sigma_rad_s * v1, w2 + b2 + sigma_rad_s * v2, w3 + b3 + sigma_rad_s * v3)


def bias_step(bias, walk_rad_s2: float, dt: float, rng: np.random.Generator) -> tuple:
    """Advance the gyro bias one step of its random walk: b + w*dt."""
    b1, b2, b3 = bias
    n1, n2, n3 = rng.standard_normal(3).tolist()
    return (b1 + walk_rad_s2 * n1 * dt, b2 + walk_rad_s2 * n2 * dt, b3 + walk_rad_s2 * n3 * dt)


def saturate(torque, limit_nm: float) -> tuple:
    """Componentwise clip of the commanded torque to +-limit_nm (limit_nm > 0)."""
    return tuple([min(max(u, -limit_nm), limit_nm) for u in torque])
