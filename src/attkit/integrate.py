"""Fixed-step integration shared by the simulator and the flow report.

States are flat float sequences: both loops carry Python floats through the
step, because on 3- and 4-vectors NumPy's per-call overhead outweighs the
arithmetic.  rk4_step returns a tuple; _renorm rescales one quaternion block
and stops the run once the norm has drifted further than a step can explain.
"""

from __future__ import annotations

import math

#: per-step quaternion norm drift above this aborts the run (blown-up dynamics)
DRIFT_LIMIT = 1e-8


class SimulationError(RuntimeError):
    pass


def rk4_step(flow, t: float, y, dt: float) -> tuple:
    """Classical fourth-order Runge-Kutta step for ydot = flow(t, y).

    y and flow's values are float sequences of one length; the stage states
    handed to flow are lists, the result a tuple.
    """
    half = 0.5 * dt
    k1 = flow(t, y)
    k2 = flow(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = flow(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = flow(t + dt, [a + dt * b for a, b in zip(y, k3)])
    sixth = dt / 6.0
    return tuple(
        [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    )


def _renorm(q, step: int) -> tuple:
    """q rescaled to unit norm; SimulationError once the norm drifted past DRIFT_LIMIT."""
    q0, q1, q2, q3 = q
    n = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    drift = abs(n - 1.0)
    if not drift <= DRIFT_LIMIT:  # also trips on NaN
        raise SimulationError(
            "quaternion norm drifted %.3e at step %d; reduce dt" % (drift, step)
        )
    return (q0 / n, q1 / n, q2 / n, q3 / n)

