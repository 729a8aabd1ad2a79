"""Fixed-step hybrid closed-loop simulator.

Each step does, in order:

1. read the reference attitude Q_d(t) from the trajectory's closed form and
   sample the sensors (measurements are zero-order-held across the step).
   A run with noise draws each step's variates from its one Generator in two
   calls, in this order: rng.random(2), the star tracker's two uniforms, then
   rng.standard_normal(6), the gyro's three normals and then the bias walk's
   three, which step 5 applies.  The last row measures but does not step, so
   it draws standard_normal(3), the gyro's alone.  Each channel draws even at
   magnitude 0, so no channel's stream shifts with another's magnitude.  A
   noise-free run, all three magnitudes 0, builds no Generator, draws nothing
   and measures the truth,
2. apply the kind's jump rule once to the measured error scalars (one
   application always re-enters the flow set) and record a JumpEvent if it fired,
3. form the commanded torque from measurements only, as feedforward_torque
   plus the kind's feedback torque, and clip it to the torque limit; the
   desired rate is rotated into the body frame once, for both,
4. write its row of the trace: time, plant, the Q_d it read, logic, bias,
   torques, disturbance, desired rate and estimator state,
5. advance the plant one RK4 step of its flow with the torque held, then
   the estimator, if the kind has one, one RK4 step of its own flow with the
   measurements held; renormalize both quaternions and advance the
   gyro-bias random walk on the last three normals step 1 drew (the bias
   stays put in a noise-free run).  The estimator never reads the plant
   state over a step, nor the plant the estimator's, so the two steps are
   the joint step [Q, w, est] split into its blocks, bit for bit.  The
   plant's flow comes from the run's _plant_flow at the held torque, the
   estimator's from the kind's estimator_flow at the held measurements and
   h_tilde; both take their quaternion rows from rigid_body.kinematics_rate.
   The reference is not integrated, so it needs no
   renormalization and no drift guard.

The state travels through the step as tuples of Python floats: the plant
state y = [Q, w] and the estimator state est, one flat tuple each for
integrate.rk4_step, and each step writes its columns once into the trace's
preallocated row block.  No step
reads the truth errors or Lyapunov values, so _record forms them after the
loop, once, by the same kernels applied to the block's (n,) columns, and
writes them into the same rows.  save_trace stores it, and the jump events.

Jumps are therefore detected at step boundaries; the hysteresis width is far
wider than anything the error scalar can traverse in one step at sane rates,
so no crossing is missed.  A trace row i holds the state at t_i after jump
resolution, and the torque applied over [t_i, t_i+dt).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from itertools import accumulate
from math import cos, sin
from pathlib import Path

import numpy as np

from . import analysis, kinds
from .config import ScenarioConfig
from .integrate import _renorm, rk4_step, step_count, step_rows
from .quat import Array, rotate
from .rigid_body import error_quaternion, error_velocity, feedforward_torque, kinematics_rate
from .sensors import bias_step, disturbance_torque, measure_attitude, measure_gyro, saturate


@dataclass(frozen=True)
class JumpEvent:
    """One logic-jump record; unchanged variables have pre == post."""

    step: int
    t: float
    h_pre: int
    h_post: int
    ht_pre: int
    ht_post: int


@dataclass
class SimTrace:
    """Run history as one row block, plus the jump-event list.

    rows holds one row per sample, its columns in _LAYOUT order.  Each
    _LAYOUT attribute (t, q, w, ..., v3m) is set once, at construction, to a
    view of rows: a width-1 column as a 1-d array, a vector as (n, width).
    Quaternions are scalar-first.  w_d is the desired rate each step used.
    q_hat and b_hat hold the estimator state: Q_hat and b_hat for the bias
    observer, Q_f and NaN for the attitude filter, NaN for the full-state
    law.  q_est_err is the estimator/filter error quaternion computed against
    truth (NaN for the full-state scenario); all Lyapunov columns not
    applicable to the scenario are NaN.
    """

    name: str
    kind: str
    dt: float
    rows: Array
    events: list[JumpEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for attr, width in _LAYOUT:
            block = self.rows[:, _OFFSET[attr] : _OFFSET[attr] + width]
            setattr(self, attr, block[:, 0] if width == 1 else block)


#: the trace's columns (attribute, width) in row order.  A step writes every
#: column up to q_e: what it integrated, the w_d it used and its estimator
#: state est across q_hat and b_hat, NaN past the kind's est.  _record derives
#: the columns from q_e on after the loop.
_LAYOUT = (
    ("t", 1), ("q", 4), ("w", 3), ("q_d", 4), ("h", 1), ("h_tilde", 1), ("b", 3),
    ("u_cmd", 3), ("u_app", 3), ("d", 3), ("w_d", 3), ("q_hat", 4), ("b_hat", 3),
    ("q_e", 4), ("w_e", 3), ("q_est_err", 4),
    ("v1", 1), ("v2", 1), ("v2m", 1), ("v3", 1), ("v3m", 1),
)
_WIDTH = sum(width for _, width in _LAYOUT)
#: first column of each attribute
_OFFSET = dict(zip((attr for attr, _ in _LAYOUT), accumulate((w for _, w in _LAYOUT), initial=0)))
#: candidate recorded in each Lyapunov trace column
_V_COLUMNS = {"v1": "v1", "v2": "v2", "v2m": "v2_matched", "v3": "v3", "v3m": "v3_matched"}
_NAN = float("nan")


def run_scenario(cfg: ScenarioConfig) -> SimTrace:
    """Simulate one closed-loop scenario and return its trace."""
    cfg.validate()
    kind = kinds.get(cfg.controller.kind)
    es = analysis.ERROR_SYSTEMS[kind.error_system]
    inertia = cfg.inertia()
    gains = cfg.controller.build()
    es_gains = cfg.observer.build() if es.observer else gains
    traj = cfg.trajectory.build()
    dt = cfg.sim.dt_s
    n = step_count(cfg.sim.t_final_s, dt, "sim.t_final_s", "sim.dt_s")
    cone = cfg.noise.attitude_cone_rad
    gyro_sig = cfg.noise.gyro_sigma_rad_s
    walk = cfg.noise.bias_walk_rad_s2
    rng = np.random.default_rng(cfg.seed) if cone or gyro_sig or walk else None
    uniforms = gyro_normals = walk_normals = None  # noise-free: no variates
    limit = cfg.torque_limit_nm
    held = _plant_flow(inertia, cfg.disturbance)

    q = cfg.initial_quat()
    w = tuple(map(float, cfg.plant.omega0_rad_s))
    b = tuple(map(float, cfg.plant.bias0_rad_s))
    h = cfg.controller.h0

    events = []
    for i in range(n + 1):
        t = i * dt
        q_d = traj.q_d_fn(t)
        if rng is not None:  # the draw order of the module docstring's step 1
            uniforms = rng.random(2).tolist()
            normals = rng.standard_normal(6 if i < n else 3).tolist()
            gyro_normals, walk_normals = normals[0:3], normals[3:6]
        q_m = measure_attitude(q, cone, uniforms)
        w_m = measure_gyro(w, b, gyro_sig, gyro_normals)
        q_e_m = error_quaternion(q_d, q_m)
        if i == 0:
            est, h_t = kind.start(cfg, q_m, q_e_m)
            stepped = _OFFSET["q_hat"] + len(est)
            rows = step_rows(n, _WIDTH, "sim.t_final_s", "sim.dt_s")
            rows[:, stepped : _OFFSET["q_e"]] = _NAN  # estimator columns the kind lacks

        w_d = traj.omega_fn(t)
        q_lag_m = kind.lag(est, q_m, q_e_m)

        h_pre, ht_pre = h, h_t
        h, h_t, jumped = kind.jump(h, h_t, q_e_m[0], q_lag_m[0], gains.delta)
        if jumped:
            events.append(JumpEvent(i, t, h_pre, h, ht_pre, h_t))

        w_d_body = rotate(q_e_m, w_d)
        f1, f2, f3 = feedforward_torque(inertia, q_e_m, w_d_body, traj.omega_dot_fn(t))
        fb1, fb2, fb3 = kind.torque(gains, q_e_m, w_m, w_d_body, est, q_lag_m, h, h_t)
        u_cmd = (f1 + fb1, f2 + fb2, f3 + fb3)
        u1, u2, u3 = u_app = saturate(u_cmd, limit)
        d = disturbance_torque(cfg.disturbance, t)
        rows[i, :stepped] = (  # in _LAYOUT order
            t, *q, *w, *q_d, h, h_t, *b, *u_cmd, *u_app, *d, *w_d, *est
        )

        if i == n:
            break

        # one RK4 step of the plant with the torque held, one of the estimator with
        # the measurements held
        y = rk4_step(held(u1, u2, u3), t, (*q, *w), dt)
        q, w = _renorm(y[0:4], i), y[4:7]
        if est:
            est = rk4_step(kind.estimator_flow(es_gains, h_t, q_m, w_m, q_e_m), t, est, dt)
            est = (*_renorm(est[0:4], i), *est[4:])
        b = bias_step(b, walk, dt, walk_normals)

    trace = SimTrace(cfg.name, cfg.controller.kind, dt, rows, events)
    _record(trace, kind, es, gains, es_gains, inertia)
    return trace


def _plant_flow(inertia, disturbance):
    """Built once per run, held(u1, u2, u3) -> flow(t, y) for the plant state y = [Q, w].

    flow holds the applied torque u over a step.  Its rows are
    rigid_body.kinematics_rate, then Euler's equation wdot = J^-1 (-w x Jw + u
    + d(t)), d(t) disturbance_torque's rows, formed in one frame from the
    inertia's entries and the disturbance's amplitude and frequency, read here
    once.  Bit for bit disturbance_torque and Euler's equation as the tests
    compose them, u + 0.0 at amplitude 0 included.
    """
    (j11, j12, j13), (j21, j22, j23), (j31, j32, j33) = inertia.matrix
    (k11, k12, k13), (k21, k22, k23), (k31, k32, k33) = inertia.inverse
    amp, freq = disturbance.amplitude_nm, disturbance.frequency_rad_s

    def held(u1, u2, u3):
        def flow(t, y):
            q0, q1, q2, q3, w1, w2, w3 = y
            if amp:
                p = freq * t
                d1 = d2 = amp * cos(p)
                d3 = -(amp * sin(p))
            else:
                d1 = d2 = d3 = 0.0
            m1 = j11 * w1 + j12 * w2 + j13 * w3
            m2 = j21 * w1 + j22 * w2 + j23 * w3
            m3 = j31 * w1 + j32 * w2 + j33 * w3
            r1 = u1 + d1 - (w2 * m3 - w3 * m2)
            r2 = u2 + d2 - (w3 * m1 - w1 * m3)
            r3 = u3 + d3 - (w1 * m2 - w2 * m1)
            return kinematics_rate((q0, q1, q2, q3), (w1, w2, w3)) + (
                k11 * r1 + k12 * r2 + k13 * r3,
                k21 * r1 + k22 * r2 + k23 * r3,
                k31 * r1 + k32 * r2 + k33 * r3,
            )

        return flow

    return held


def _record(trace: SimTrace, kind, es, gains, es_gains, inertia) -> None:
    """Fill a finished run's derived columns in place: the truth errors, the
    estimator error and the candidates the kernels derive from its columns."""
    q, w, q_d, w_d = (tuple(getattr(trace, attr).T) for attr in ("q", "w", "q_d", "w_d"))
    q_e = error_quaternion(q_d, q)
    w_e = error_velocity(q_e, w, w_d)
    q_est_err = kind.lag(tuple(trace.q_hat.T), q, q_e)
    b_err = tuple((trace.b - trace.b_hat).T)
    h, h_t = trace.h, trace.h_tilde
    v = es.candidates(es.coords(q_e, w_e, q_est_err, b_err), h, h_t, es_gains, inertia)
    if "v1" not in v:
        v["v1"] = analysis.lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1)
    # a channel the kind lacks is one NaN float, broadcast down its column
    trace.q_e[:], trace.w_e[:] = np.transpose(q_e), np.transpose(w_e)
    trace.q_est_err[:] = np.transpose(q_est_err)
    for attr, name in _V_COLUMNS.items():
        getattr(trace, attr)[:] = v.get(name, _NAN)


# ---------------------------------------------------------------------------
# The trace file: trace.npz holds the row block and the jump events.


def save_trace(trace: SimTrace, out_dir: str | Path) -> tuple[Path]:
    """Write trace.npz and return its path, the run's one file, as a 1-tuple.

    Its members are rows, name, kind, dt and events: one row per jump of
    JumpEvent's six fields in order, (0, 6) for a run with no jump.
    """
    path = Path(out_dir) / "trace.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    events = np.array([astuple(ev) for ev in trace.events], dtype=float).reshape(-1, 6)
    np.savez(path, rows=trace.rows, name=trace.name, kind=trace.kind, dt=trace.dt, events=events)
    return (path,)


def load_trace(out_dir: str | Path) -> SimTrace:
    """Rebuild a SimTrace, its rows and events bit for bit, from save_trace output."""
    with np.load(Path(out_dir) / "trace.npz") as data:
        rows, name, kind, dt = data["rows"], str(data["name"]), str(data["kind"]), float(data["dt"])
        events = data["events"]
    if rows.ndim != 2 or rows.shape[1] != _WIDTH:
        raise ValueError(
            "trace.npz rows have shape %s; this layout is %d columns wide" % (rows.shape, _WIDTH)
        )
    if events.ndim != 2 or events.shape[1] != 6:
        raise ValueError("trace.npz events have shape %s, not (m, 6)" % (events.shape,))
    events = [JumpEvent(int(i), t, int(a), int(b), int(c), int(d))
              for i, t, a, b, c, d in events.tolist()]
    return SimTrace(name, kind, dt, rows, events)
