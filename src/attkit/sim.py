"""Fixed-step hybrid closed-loop simulator.

Each step does, in order:

1. sample the sensors (measurements are zero-order-held across the step),
2. apply the kind's jump rule once to the measured error scalars (one
   application always re-enters the flow set),
3. evaluate the controller on measurements only and clip to the torque limit,
4. record the integrated state only: time, plant, reference, logic, bias,
   torques, disturbance, desired rate and estimator state,
5. advance plant + reference + estimator one RK4 step of the continuous flow
   with torque and measurements held, then renormalize the quaternions and
   advance the gyro-bias random walk.

The state travels through the step as tuples of Python floats: the flow state
is one flat tuple [Q, w, Q_d, est] for integrate.rk4_step, and each step
writes its record once into one preallocated step block.  No step reads the
truth errors or Lyapunov values, so _record forms them after the loop, once,
by the same kernels applied to the block's (n,) columns, and fills the
trace's rows.

Jumps are therefore detected at step boundaries; the hysteresis width is far
wider than anything the error scalar can traverse in one step at sane rates,
so no crossing is missed.  A trace row i holds the state at t_i after jump
resolution, and the torque applied over [t_i, t_i+dt).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, kinds
from .config import ScenarioConfig
from .controllers import check_logic
from .integrate import _renorm, last_value, rk4_step
from .quat import Array
from .rigid_body import (
    dynamics_rate,
    error_quaternion,
    error_velocity,
    feedforward_torque,
    kinematics_rate,
)
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
    Quaternions are scalar-first.  q_est_err is the estimator/filter error
    quaternion computed against truth (NaN for the full-state scenario); all
    Lyapunov columns not applicable to the scenario are NaN.
    """

    name: str
    kind: str
    dt: float
    rows: Array
    events: list[JumpEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        ofs = 0
        for attr, _, width in _LAYOUT:
            block = self.rows[:, ofs : ofs + width]
            setattr(self, attr, block[:, 0] if width == 1 else block)
            ofs += width


#: the step block's columns (attribute, width): what each step integrated and
#: the w_d it used; the estimator state fills the columns after these
_STEP = (
    ("t", 1), ("q", 4), ("w", 3), ("q_d", 4), ("h", 1), ("h_tilde", 1), ("b", 3),
    ("u_cmd", 3), ("u_app", 3), ("d", 3), ("w_d", 3),
)
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
    omega = last_value(traj.omega_fn)
    disturbance = last_value(lambda tt: disturbance_torque(cfg.disturbance, tt))
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.sim.dt_s
    n = int(round(cfg.sim.t_final_s / dt))
    cone = cfg.noise.attitude_cone_rad
    gyro_sig = cfg.noise.gyro_sigma_rad_s
    walk = cfg.noise.bias_walk_rad_s2
    limit = cfg.torque_limit_nm

    q = cfg.initial_quat()
    w = tuple(map(float, cfg.plant.omega0_rad_s))
    q_d = traj.q_d0
    b = tuple(map(float, cfg.plant.bias0_rad_s))
    h = check_logic(cfg.controller.h0, "controller.h0")

    events = []
    for i in range(n + 1):
        t = i * dt
        q_m = measure_attitude(q, cone, rng)
        w_m = measure_gyro(w, b, gyro_sig, rng)
        q_e_m = error_quaternion(q_d, q_m)
        if i == 0:
            est, h_t = kind.start(cfg, q_m, q_e_m)
            step = np.empty((n + 1, sum(width for _, width in _STEP) + len(est)))

        w_d = omega(t)
        w_d_dot = traj.omega_dot_fn(t)
        q_lag_m = kind.lag(est, q_m, q_e_m)

        h_pre, ht_pre = h, h_t
        h, h_t, jumped = kind.jump(h, h_t, q_e_m[0], q_lag_m[0], gains.delta)
        if jumped:
            events.append(JumpEvent(i, t, h_pre, h, ht_pre, h_t))

        u_ff = feedforward_torque(inertia, q_e_m, w_d, w_d_dot)
        u_cmd = kind.torque(gains, q_e_m, w_m, w_d, est, q_lag_m, h, h_t, u_ff)
        u1, u2, u3 = u_app = saturate(u_cmd, limit)
        step[i] = (  # in _STEP order, then est
            t, *q, *w, *q_d, h, h_t, *b, *u_cmd, *u_app, *disturbance(t), *w_d, *est
        )

        if i == n:
            break

        # one RK4 flow step with torque and measurements held
        def flow(tt, y):
            d1, d2, d3 = disturbance(tt)
            return (
                *kinematics_rate(y[0:4], y[4:7]),
                *dynamics_rate(inertia, y[4:7], (u1 + d1, u2 + d2, u3 + d3)),
                *kinematics_rate(y[7:11], omega(tt)),
                *kind.estimator_flow(es_gains, y[11:], h_t, q_m, w_m, q_e_m),
            )

        y = rk4_step(flow, t, (*q, *w, *q_d, *est), dt)
        q, w, q_d = _renorm(y[0:4], i), y[4:7], _renorm(y[7:11], i)
        if est:
            est = (*_renorm(y[11:15], i), *y[15:])
        b = bias_step(b, walk, dt, rng)

    rows = _record(step, kind, es, gains, es_gains, inertia)
    return SimTrace(cfg.name, cfg.controller.kind, dt, rows, events)


def _record(step: Array, kind, es, gains, es_gains, inertia) -> Array:
    """The trace rows of a finished step block: its columns, and the truth
    errors, estimator channels and candidates the kernels derive from them."""
    cols, col = iter(step.T), {}
    for attr, width in _STEP:
        col[attr] = next(cols) if width == 1 else tuple(next(cols) for _ in range(width))
    est = tuple(cols)
    q_e = error_quaternion(col["q_d"], col["q"])
    w_e = error_velocity(q_e, col["w"], col["w_d"])
    q_est_err, b_hat = kind.lag(est, col["q"], q_e), kind.bias(est)
    b_err = tuple(bj - cj for bj, cj in zip(col["b"], b_hat))
    h, h_t = col["h"], col["h_tilde"]
    v = es.candidates(es.coords(q_e, w_e, q_est_err, b_err), h, h_t, es_gains, inertia)
    if "v1" not in v:
        v["v1"] = analysis.lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1)
    col.update(q_e=q_e, w_e=w_e, q_est_err=q_est_err, b_hat=b_hat)
    col.update((attr, v.get(name, _NAN)) for attr, name in _V_COLUMNS.items())

    rows = np.empty((len(step), sum(width for _, _, width in _LAYOUT)))
    ofs = 0
    for attr, _, width in _LAYOUT:  # a channel the kind lacks is one NaN float
        for c in (col[attr],) if width == 1 else col[attr]:
            rows[:, ofs] = c
            ofs += 1
    return rows


# ---------------------------------------------------------------------------
# Trace files: one delimited text file for rows, one for jump events.

_VEC_SUFFIX = ("x", "y", "z")
_QUAT_SUFFIX = ("0", "1", "2", "3")

#: (attribute, column stem, width); stems carry units where they have them
_LAYOUT = [
    ("t", "t_s", 1),
    ("q", "q", 4),
    ("w", "w_rad_s", 3),
    ("q_d", "q_d", 4),
    ("q_e", "q_e", 4),
    ("w_e", "w_e_rad_s", 3),
    ("h", "h", 1),
    ("h_tilde", "h_tilde", 1),
    ("b", "b_rad_s", 3),
    ("b_hat", "b_hat_rad_s", 3),
    ("q_est_err", "q_est_err", 4),
    ("u_cmd", "u_cmd_nm", 3),
    ("u_app", "u_app_nm", 3),
    ("d", "d_nm", 3),
    ("v1", "v1", 1),
    ("v2", "v2", 1),
    ("v2m", "v2m", 1),
    ("v3", "v3", 1),
    ("v3m", "v3m", 1),
]


def _columns() -> list[str]:
    names = []
    for _, stem, width in _LAYOUT:
        if width == 1:
            names.append(stem)
        else:
            sfx = _QUAT_SUFFIX if width == 4 else _VEC_SUFFIX
            names.extend("%s_%s" % (stem, s) for s in sfx)
    return names


def save_trace(trace: SimTrace, out_dir: str | Path) -> tuple[Path, Path]:
    """Write trace.csv and events.csv; floats at full precision for round trips."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    header = "# scenario=%s kind=%s dt_s=%.17g\n" % (trace.name, trace.kind, trace.dt)
    with open(trace_path, "w", newline="") as fh:
        fh.write(header)
        fh.write(",".join(_columns()) + "\n")
        np.savetxt(fh, trace.rows, delimiter=",", fmt="%.17g")
    events_path = out / "events.csv"
    with open(events_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["step", "t_s", "h_pre", "h_post", "ht_pre", "ht_post"])
        for ev in trace.events:
            wr.writerow([ev.step, "%.17g" % ev.t, ev.h_pre, ev.h_post, ev.ht_pre, ev.ht_post])
    return trace_path, events_path


def load_trace(out_dir: str | Path) -> SimTrace:
    """Rebuild a SimTrace from save_trace output."""
    out = Path(out_dir)
    with open(out / "trace.csv") as fh:
        meta = fh.readline()
        if not meta.startswith("# scenario="):
            raise ValueError("trace.csv missing metadata line")
        # parsed from the right: kind and dt_s hold no spaces, the scenario name may
        fields = dict(p.split("=", 1) for p in meta[2:].rstrip("\n").rsplit(" ", 2))
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if names != _columns():
        raise ValueError("trace.csv column names do not match this layout")
    events = []
    with open(out / "events.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            events.append(
                JumpEvent(
                    int(row["step"]), float(row["t_s"]),
                    int(row["h_pre"]), int(row["h_post"]),
                    int(row["ht_pre"]), int(row["ht_post"]),
                )
            )
    return SimTrace(fields["scenario"], fields["kind"], float(fields["dt_s"]), data, events)
