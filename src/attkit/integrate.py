"""Fixed-step integration shared by the simulator and the flow report.

States are flat float sequences: both loops carry Python floats through the
step, because on 3- and 4-vectors NumPy's per-call overhead outweighs the
arithmetic.  rk4_step returns a tuple; _renorm rescales one quaternion block
and stops the run once the norm has drifted further than a step can explain.

The one RK4 is _RK4, a source template that rk4_step renders for the state's
length n: n local names per stage, each rate unpacked into them and each
stage state built as a tuple.  The same step written with list comprehensions
over zip spends its time in the comprehension frames and the zip iteration,
not in the arithmetic: outside the flow calls it cost 3.3, 4.2 and 4.8 us per
step at n = 7, 11 and 14 (Python 3.11, shared 2-core Xeon VM), more than the
plant's kinematics and dynamics rates together, against 1.2, 1.8 and 2.2 us
for the rendered step.  Each length is compiled once, on first use, and kept
in _STEPPERS.  The float operations and their order are the textbook step's,
so results are bit for bit the same.  The one rate signature is flow(t, y): a
caller binds whatever the flow holds over a step (the simulator its torque and
measurements, the flow report its logic pair) when it builds the flow.  A rate
of the wrong length fails to unpack (ValueError) instead of resizing the state.
step_count turns a horizon into steps and step_rows allocates their record,
each naming the caller's fields when it refuses.
"""

from __future__ import annotations

import linecache
import math
import re
import warnings

import numpy as np

#: per-step quaternion norm drift above this aborts the run (blown-up dynamics)
DRIFT_LIMIT = 1e-8

# each [...] is repeated for i = 0..n-1, joined by ", " and closed by ","
_RK4 = """\
def rk4_step(flow, t, y, dt):
    half = 0.5 * dt
    [y{i}] = y
    [a{i}] = flow(t, y)
    [b{i}] = flow(t + half, ([y{i} + half * a{i}]))
    [c{i}] = flow(t + half, ([y{i} + half * b{i}]))
    [d{i}] = flow(t + dt, ([y{i} + dt * c{i}]))
    sixth = dt / 6.0
    return ([y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})])
"""


class _Steppers(dict):
    """State length -> its RK4 step, rendered from _RK4 and compiled on first use."""

    def __missing__(self, n: int):
        src = re.sub(r"\[(.*?)\]",
                     lambda m: ", ".join(m[1].format(i=i) for i in range(n)) + ",", _RK4)
        name = "<rk4_step n=%d>" % n
        # a traceback through the step (a rate that fails to unpack) shows its line
        linecache.cache[name] = (len(src), None, src.splitlines(True), name)
        scope: dict = {}
        exec(compile(src, name, "exec"), scope)
        step = self[n] = scope["rk4_step"]
        return step


_STEPPERS = _Steppers()


class SimulationError(RuntimeError):
    pass


def rk4_step(flow, t: float, y, dt: float) -> tuple:
    """Classical fourth-order Runge-Kutta step for ydot = flow(t, y).

    y and flow's values are float sequences of one length n; flow gets y
    itself, then tuples for the three stage states, and the result is a
    tuple.  A rate of another length raises ValueError.
    """
    return _STEPPERS[len(y)](flow, t, y, dt)


def step_count(t_final: float, dt: float, t_label: str, dt_label: str) -> int:
    """The one step-count rule: round(t_final / dt), the dt steps a run of t_final takes.

    ValueError naming both fields when the ratio overflows; a warning naming
    t_label and the horizon actually run when t_final is not a whole number of
    steps, to a relative 1e-9 (so 0.3 s of 0.01 s steps is whole).
    """
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError("%s / %s = %r / %r overflows the step count"
                         % (t_label, dt_label, t_final, dt))
    n = round(ratio)
    if not math.isclose(ratio, n, rel_tol=1e-9):
        warnings.warn("%s = %r is not a whole number of %s = %r steps; %d steps run to %.12g s"
                      % (t_label, t_final, dt_label, dt, n, n * dt))
    return n


def step_rows(n: int, width: int, t_label: str, dt_label: str) -> np.ndarray:
    """An empty (n + 1, width) block, one row per recorded step of an n-step run.

    ValueError naming both fields and n when NumPy refuses the block (a
    ValueError past its largest index, a MemoryError past what it can get).
    """
    try:
        return np.empty((n + 1, width))
    except (ValueError, MemoryError) as err:
        raise ValueError("%s / %s gives %.6g steps, too many to record: %s"
                         % (t_label, dt_label, n, err)) from None


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

