"""Fixed-step hybrid closed-loop simulator.

Each step does, in order:

1. sample the sensors (measurements are zero-order-held across the step),
2. resolve any pending logic jumps against the measured error scalars,
3. evaluate the controller on measurements only and clip to the torque limit,
4. record the row (truth errors, logic state, torques, Lyapunov values),
5. advance plant + reference + estimator one RK4 step of the continuous flow
   with torque and measurements held, then renormalize the quaternions and
   advance the gyro-bias random walk.

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
from .quat import Array, quat_normalize
from .rigid_body import (
    dynamics_rate,
    error_quaternion,
    error_velocity,
    feedforward_torque,
    kinematics_rate,
)
from .sensors import bias_step, disturbance_torque, measure_attitude, measure_gyro, saturate

#: per-step quaternion norm drift above this aborts the run (blown-up dynamics)
DRIFT_LIMIT = 1e-8


class SimulationError(RuntimeError):
    pass


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
    """Columnar run history plus the jump-event list.

    Quaternions are scalar-first.  q_est_err is the estimator/filter error
    quaternion computed against truth (NaN for the full-state scenario); all
    Lyapunov columns not applicable to the scenario are NaN.
    """

    name: str
    kind: str
    dt: float
    t: Array
    q: Array
    w: Array
    q_d: Array
    q_e: Array
    w_e: Array
    h: Array
    h_tilde: Array
    b: Array
    b_hat: Array
    q_est_err: Array
    u_cmd: Array
    u_app: Array
    d: Array
    v1: Array
    v2: Array
    v2m: Array
    v3: Array
    v3m: Array
    events: list[JumpEvent] = field(default_factory=list)


def rk4_step(flow, t: float, y: Array, dt: float) -> Array:
    """Classical fourth-order Runge-Kutta step for ydot = flow(t, y)."""
    k1 = flow(t, y)
    k2 = flow(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = flow(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = flow(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def resolve_jumps(
    kind: str,
    h: int,
    h_tilde: int,
    q_e0: float,
    q_lag0: float,
    delta: float,
    max_consecutive: int = 4,
) -> tuple[int, int, bool]:
    """Apply the kind's logic jumps until the measured scalars lie in the flow set.

    Returns (h, h_tilde, jumped).  A single application always re-enters the
    flow set (the post-jump logic sign agrees with its scalar), so the loop
    guard only trips on corrupt configurations.
    """
    rule = kinds.get(kind).jump
    jumped = False
    for _ in range(max_consecutive):
        h, h_tilde, fired = rule(h, h_tilde, q_e0, q_lag0, delta)
        if not fired:
            return h, h_tilde, jumped
        jumped = True
    raise SimulationError(
        "logic still in jump set after %d consecutive jumps (delta=%g)"
        % (max_consecutive, delta)
    )


#: trace column of each Lyapunov candidate
_V_COLUMNS = {"v1": "v1", "v2": "v2", "v2_matched": "v2m", "v3": "v3", "v3_matched": "v3m"}


def run_scenario(cfg: ScenarioConfig) -> SimTrace:
    """Simulate one closed-loop scenario and return its trace."""
    kind = kinds.get(cfg.controller.kind)
    es = analysis.ERROR_SYSTEMS[kind.error_system]
    inertia = cfg.inertia()
    gains = cfg.controller.build()
    es_gains = cfg.observer.build() if es.observer else gains
    traj = cfg.trajectory.build()
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.sim.dt_s
    n = int(round(cfg.sim.t_final_s / dt))
    cone = cfg.noise.attitude_cone_rad
    gyro_sig = cfg.noise.gyro_sigma_rad_s
    walk = cfg.noise.bias_walk_rad_s2

    q = cfg.initial_quat()
    w = np.asarray(cfg.plant.omega0_rad_s, dtype=float)
    q_d = traj.q_d0.copy()
    b = np.asarray(cfg.plant.bias0_rad_s, dtype=float)
    h = int(cfg.controller.h0)
    if h not in (-1, 1):
        raise ValueError("controller.h0 must be +1 or -1")

    cols3 = lambda: np.full((n + 1, 3), np.nan)
    cols4 = lambda: np.full((n + 1, 4), np.nan)
    col1 = lambda: np.full(n + 1, np.nan)
    tr = SimTrace(
        name=cfg.name, kind=cfg.controller.kind, dt=dt,
        t=np.arange(n + 1) * dt,
        q=cols4(), w=cols3(), q_d=cols4(), q_e=cols4(), w_e=cols3(),
        h=col1(), h_tilde=col1(), b=cols3(), b_hat=cols3(), q_est_err=cols4(),
        u_cmd=cols3(), u_app=cols3(), d=cols3(),
        v1=col1(), v2=col1(), v2m=col1(), v3=col1(), v3m=col1(),
    )

    for i in range(n + 1):
        t = i * dt
        q_m = measure_attitude(q, cone, rng)
        w_m = measure_gyro(w, b, gyro_sig, rng)
        q_e_m = error_quaternion(q_d, q_m)
        if i == 0:
            est, h_t = kind.start(cfg, q_m, q_e_m)
            if h_t not in (-1, 1):
                raise ValueError("h_tilde0 must be +1 or -1")

        w_d = traj.omega_fn(t)
        w_d_dot = traj.omega_dot_fn(t)
        q_lag_m = kind.lag(est, q_m, q_e_m)

        h_pre, ht_pre = h, h_t
        h, h_t, jumped = resolve_jumps(
            cfg.controller.kind, h, h_t, float(q_e_m[0]), float(q_lag_m[0]),
            gains.delta, cfg.sim.max_consecutive_jumps,
        )
        if jumped:
            tr.events.append(JumpEvent(i, t, h_pre, h, ht_pre, h_t))

        u_ff = feedforward_torque(inertia, q_e_m, w_d, w_d_dot)
        u_cmd = kind.torque(gains, q_e_m, w_m, w_d, est, q_lag_m, h, h_t, u_ff)
        u_app = saturate(u_cmd, cfg.torque_limit_nm)
        d_now = disturbance_torque(cfg.disturbance, t)

        # truth-side record
        q_e = error_quaternion(q_d, q)
        w_e, _ = error_velocity(q_e, w, w_d)
        q_est_err, b_hat = kind.lag(est, q, q_e), kind.bias(est)
        tr.q[i], tr.w[i], tr.q_d[i] = q, w, q_d
        tr.q_e[i], tr.w_e[i] = q_e, w_e
        tr.h[i], tr.h_tilde[i] = h, h_t
        tr.b[i], tr.b_hat[i], tr.q_est_err[i] = b, b_hat, q_est_err
        tr.u_cmd[i], tr.u_app[i], tr.d[i] = u_cmd, u_app, d_now
        tr.v1[i] = analysis.lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1)
        y_err = es.coords(q_e, w_e, q_est_err, b - b_hat)
        for name, value in es.candidates(y_err, h, h_t, es_gains, inertia).items():
            getattr(tr, _V_COLUMNS[name])[i] = value

        if i == n:
            break

        # one RK4 flow step with torque and measurements held
        y = np.concatenate([q, w, q_d, est])

        def flow(tt, yy):
            fq, fw, fqd = yy[0:4], yy[4:7], yy[7:11]
            dq = kinematics_rate(fq, fw)
            dw = dynamics_rate(inertia, fw, u_app + disturbance_torque(cfg.disturbance, tt))
            dqd = kinematics_rate(fqd, traj.omega_fn(tt))
            d_est = kind.estimator_flow(es_gains, yy[11:], h_t, q_m, w_m, q_e_m)
            return np.concatenate([dq, dw, dqd, *d_est])

        y = rk4_step(flow, t, y, dt)
        q = _renorm(y[0:4], i)
        w = y[4:7]
        q_d = _renorm(y[7:11], i)
        est = y[11:]
        if est.size:
            est[0:4] = _renorm(est[0:4], i)
        b = bias_step(b, walk, dt, rng)

    return tr


def _renorm(q: Array, step: int) -> Array:
    drift = abs(float(np.linalg.norm(q)) - 1.0)
    if not drift <= DRIFT_LIMIT:  # also trips on NaN
        raise SimulationError(
            "quaternion norm drifted %.3e at step %d; reduce dt" % (drift, step)
        )
    return quat_normalize(q)


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
    blocks = [
        getattr(trace, attr).reshape(len(trace.t), -1) for attr, _, _ in _LAYOUT
    ]
    data = np.hstack(blocks)
    trace_path = out / "trace.csv"
    header = "# scenario=%s kind=%s dt_s=%.17g\n" % (trace.name, trace.kind, trace.dt)
    with open(trace_path, "w", newline="") as fh:
        fh.write(header)
        fh.write(",".join(_columns()) + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g")
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
        fields = dict(p.split("=", 1) for p in meta[2:].split())
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if names != _columns():
        raise ValueError("trace.csv column names do not match this layout")
    parts = {}
    ofs = 0
    for attr, _, width in _LAYOUT:
        chunk = data[:, ofs : ofs + width]
        parts[attr] = chunk[:, 0] if width == 1 else chunk
        ofs += width
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
    return SimTrace(
        name=fields["scenario"], kind=fields["kind"], dt=float(fields["dt_s"]),
        events=events, **parts,
    )
