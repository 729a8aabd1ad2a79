"""Measurement models, disturbance torque, and actuator saturation.

Noise amounts are configured in degrees (matching how star tracker and gyro
datasheets quote them) and converted to radians internally.  Each sensor
model is a pure function of the state and of the variates it is handed: it
draws nothing itself.  The simulator draws them from one Generator per run,
seeded by the scenario, so a scenario's entire random history is fixed by
one seed and its draw order is stated in one place (sim.run_scenario).
Variates of None mean noise-free: the model returns the truth (the bias
stays put).  States, variates and results are float sequences and tuples,
as in the quat kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import ZERO_TOL, cross, dot

DEG = np.pi / 180.0


@dataclass(slots=True)
class NoiseConfig:
    """Sensor error magnitudes, nonnegative; a run is noise-free when all three are 0.

    attitude_cone_deg   half-angle of the eigenaxis error cone (star tracker)
    gyro_sigma_deg_s    per-axis white noise std dev on the measured rate
    bias_walk_deg_s2    per-axis random-walk intensity of the gyro bias
    """

    attitude_cone_deg: float = 0.01
    gyro_sigma_deg_s: float = 0.01
    bias_walk_deg_s2: float = 0.01

    @property
    def attitude_cone_rad(self) -> float:
        return self.attitude_cone_deg * DEG

    @property
    def gyro_sigma_rad_s(self) -> float:
        return self.gyro_sigma_deg_s * DEG

    @property
    def bias_walk_rad_s2(self) -> float:
        return self.bias_walk_deg_s2 * DEG


@dataclass(slots=True)
class DisturbanceConfig:
    """Slow sinusoidal disturbance torque d(t) = A*[cos(ft), cos(ft), -sin(ft)]; A = 0 is off."""

    amplitude_nm: float = 0.02
    frequency_rad_s: float = 0.1


def disturbance_torque(cfg: DisturbanceConfig, t: float) -> tuple:
    if not cfg.amplitude_nm:  # exact +0.0: 0.0 * sin(p) is -0.0 where sin(p) < 0
        return (0.0, 0.0, 0.0)
    p = cfg.frequency_rad_s * t
    a = cfg.amplitude_nm
    c = a * math.cos(p)
    return (c, c, -(a * math.sin(p)))


def measure_attitude(q_true, cone_rad: float, uniforms) -> tuple:
    """Star-tracker model: tilt the eigenaxis inside a cone, keep the angle.

    uniforms = (u1, u2), two variates uniform on [0, 1): the tilt angle is
    cone_rad * u1 and the tilt direction 2 pi u2 around the axis.  The
    rotation angle is unchanged: q0 is kept exactly and the vector part keeps
    its length, so the output has the input's norm (unit to rounding for unit
    input).  A run with noise hands two variates every step, even at
    cone_rad = 0 or at the identity, so its draw sequence does not depend on
    the noise amounts or the state.  uniforms=None (a noise-free run) returns
    q_true.
    """
    if uniforms is None:
        return tuple(q_true)
    u1, u2 = uniforms
    tilt = cone_rad * u1
    azimuth = 2.0 * math.pi * u2
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


def measure_gyro(w_true, bias, sigma_rad_s: float, normals) -> tuple:
    """Rate gyro model: w + b + sigma * normals, white noise of std sigma per axis.

    normals holds three standard normal variates; normals=None returns w + b.
    """
    w1, w2, w3 = w_true
    b1, b2, b3 = bias
    if normals is None:
        return (w1 + b1, w2 + b2, w3 + b3)
    v1, v2, v3 = normals
    return (w1 + b1 + sigma_rad_s * v1, w2 + b2 + sigma_rad_s * v2, w3 + b3 + sigma_rad_s * v3)


def bias_step(bias, walk_rad_s2: float, dt: float, normals) -> tuple:
    """Advance the gyro bias one step of its random walk: b + walk * normals * dt.

    normals holds three standard normal variates; normals=None returns b itself.
    """
    if normals is None:
        return tuple(bias)
    b1, b2, b3 = bias
    n1, n2, n3 = normals
    return (b1 + walk_rad_s2 * n1 * dt, b2 + walk_rad_s2 * n2 * dt, b3 + walk_rad_s2 * n3 * dt)


def saturate(torque, limit_nm: float) -> tuple:
    """Componentwise clip of the commanded torque to +-limit_nm (limit_nm > 0).

    By comparisons, bit for bit min(max(u, -limit_nm), limit_nm) without its
    six builtin calls: NaN passes and a zero keeps its sign.
    """
    u1, u2, u3 = torque
    lo = -limit_nm
    return (
        lo if u1 < lo else limit_nm if u1 > limit_nm else u1,
        lo if u2 < lo else limit_nm if u2 > limit_nm else u2,
        lo if u3 < lo else limit_nm if u3 > limit_nm else u3,
    )
