"""The rendered RK4 step against the textbook one, bit for bit, and its cache."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attkit import integrate
from attkit.integrate import rk4_step


def textbook_rk4(flow, t, y, dt):
    """The comprehension RK4 that rk4_step replaced: the reference for its bits."""
    half = 0.5 * dt
    k1 = flow(t, y)
    k2 = flow(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = flow(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = flow(t + dt, [a + dt * b for a, b in zip(y, k3)])
    sixth = dt / 6.0
    return tuple(
        [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    )


def coupled(t, y, gain=1.3):
    # every component reads its neighbour and t, so a mixed-up stage shows
    n = len(y)
    return tuple(gain * math.sin(t + y[i]) * y[(i + 1) % n] - 0.1 * y[i] for i in range(n))


def bits(y):
    return np.asarray(y, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("dt", [1e-3, 0.07, -0.05])
def test_rk4_step_equals_the_textbook_step_bit_for_bit(n, dt):
    rng = np.random.default_rng(n)
    for _ in range(20):
        y = tuple(rng.normal(size=n).tolist())
        t = float(rng.uniform(-5.0, 5.0))
        got = rk4_step(coupled, t, y, dt)
        assert type(got) is tuple and len(got) == n
        assert bits(got) == bits(textbook_rk4(coupled, t, y, dt))


def test_rk4_step_on_an_array_state_equals_the_textbook_step():
    def flow(t, y):
        y = np.asarray(y)
        return -2.5 * np.roll(y, 1) * np.cos(t * y)

    rng = np.random.default_rng(7)
    for dt in (1e-3, -0.02):
        y = rng.normal(size=11)
        assert bits(rk4_step(flow, 0.4, y, dt)) == bits(textbook_rk4(flow, 0.4, y, dt))


def test_the_step_calls_its_flow_with_t_and_y_only():
    calls = []

    def flow(*args):
        calls.append(len(args))
        return args[1]

    rk4_step(flow, 0.0, (1.0, 2.0), 0.1)
    assert calls == [2, 2, 2, 2]
    with pytest.raises(TypeError):
        rk4_step(flow, 0.0, (1.0, 2.0), 0.1, 0.5)


@pytest.mark.parametrize(
    "y, rate",
    [((1.0, 2.0, 3.0), (1.0,)), ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0))],
    ids=["short_rate", "long_rate"],
)
def test_a_rate_of_the_wrong_length_raises(y, rate):
    with pytest.raises(ValueError, match="values to unpack"):
        rk4_step(lambda t, yy: rate, 0.0, y, 0.1)


def test_a_value_error_inside_the_flow_keeps_its_message():
    def flow(t, y):
        raise ValueError("h must be +1 or -1")

    with pytest.raises(ValueError, match=r"^h must be \+1 or -1$"):
        rk4_step(flow, 0.0, (1.0, 2.0), 0.1)


def test_one_stepper_per_length_built_on_first_use():
    n = 23  # no flow in the package has this length
    assert n not in integrate._STEPPERS
    y = tuple(range(1, n + 1))
    rk4_step(coupled, 0.0, y, 0.1)
    step = integrate._STEPPERS[n]
    rk4_step(coupled, 1.0, y, -0.1)
    rk4_step(coupled, 1.0, np.array(y, dtype=float), 0.2)
    assert integrate._STEPPERS[n] is step


def test_no_stepper_is_built_at_import():
    # the child imports the same attkit as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(integrate.__file__).resolve().parents[1]))
    code = "import attkit.cli, attkit.integrate as i; print(len(i._STEPPERS))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
