"""Closed-loop simulator tests: determinism, trace I/O, integrator order,
and jump-resolution semantics."""

import dataclasses
import zipfile

import numpy as np
import pytest

from attkit import analysis, controllers, kinds, sim
from attkit.analysis import lyapunov_v1
from attkit.config import preset
from attkit.integrate import SimulationError
from attkit.quat import rotate
from attkit.rigid_body import Inertia, error_quaternion, error_velocity, feedforward_torque
from attkit.sensors import DisturbanceConfig
from attkit.sim import (
    _LAYOUT,
    SimTrace,
    _renorm,
    load_trace,
    rk4_step,
    run_scenario,
    save_trace,
)

from conftest import COMPOSED_ESTIMATOR_FLOWS, bits, composed_plant_flow, with_signed_zeros

_ARRAY_FIELDS = [attr for attr, _ in _LAYOUT]
_V_ATTRS = ("v1", "v2", "v2m", "v3", "v3m")


def _short(name, seconds, **kwargs):
    cfg = preset(name, **kwargs)
    cfg.sim.t_final_s = seconds
    return cfg


def test_a_step_count_that_overflows_names_both_fields():
    cfg = preset("example1")
    cfg.sim.dt_s, cfg.sim.t_final_s = 1e-308, 1e308
    with pytest.raises(ValueError, match=r"^sim\.t_final_s / sim\.dt_s = 1e\+308 / 1e-308 overflows"):
        run_scenario(cfg)


def test_a_step_count_too_large_to_record_names_both_fields():
    # 1e300 steps overflow NumPy's index before any memory is asked for
    cfg = preset("fig3")
    cfg.sim.dt_s, cfg.sim.t_final_s = 1.0, 1e300
    message = r"^sim\.t_final_s / sim\.dt_s gives 1e\+300 steps, too many to record"
    with pytest.raises(ValueError, match=message):
        run_scenario(cfg)


def test_a_horizon_of_no_whole_steps_warns_with_the_horizon_run():
    cfg = preset("example1")
    cfg.sim.dt_s, cfg.sim.t_final_s = 0.3, 1.0
    message = (r"^sim\.t_final_s = 1\.0 is not a whole number of sim\.dt_s = 0\.3 steps;"
               r" 3 steps run to 0\.9 s$")
    with pytest.warns(UserWarning, match=message) as caught:
        trace = run_scenario(cfg)
    assert len(caught) == 1
    assert len(trace.t) == 4 and trace.t[-1] == 3 * 0.3


def test_run_scenario_is_bitwise_deterministic():
    cfg = _short("example1", 5.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for field in _ARRAY_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field
    assert a.events == b.events


def test_trace_round_trip(tmp_path):
    jump_at_0 = _short("example1", 0.5, uncertainties=False)
    jump_at_0.plant.q0 = [1.0, 0.0, 0.0, 0.0]
    jump_at_0.controller.h0 = -1  # the wrong antipode: h jumps at step 0
    runs = [("none", _short("fig3", 0.1), []), ("one", _short("example2", 5.0), [181]),
            ("at0", jump_at_0, [0])]
    for out, cfg, steps in runs:
        trace = run_scenario(cfg)
        assert [ev.step for ev in trace.events] == steps
        (path,) = save_trace(trace, tmp_path / out)
        loaded = load_trace(tmp_path / out)
        assert (loaded.name, loaded.kind, loaded.dt) == (trace.name, trace.kind, trace.dt)
        for field in _ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, field), getattr(trace, field), equal_nan=True)
        assert loaded.events == trace.events
        # one file; its events member is step, t, h_pre, h_post, ht_pre, ht_post per jump
        assert [p.name for p in (tmp_path / out).iterdir()] == ["trace.npz"]
        with np.load(path) as data:
            assert data["events"].shape == (len(steps), 6)
            assert data["events"].tolist() == [list(dataclasses.astuple(ev)) for ev in trace.events]


def test_trace_columns_are_views_of_its_rows(tmp_path):
    assert [f.name for f in dataclasses.fields(SimTrace)] == [
        "name", "kind", "dt", "rows", "events",
    ]
    trace = run_scenario(_short("example2", 0.2))
    save_trace(trace, tmp_path)
    for tr in (trace, load_trace(tmp_path)):
        n = len(tr.rows)
        assert tr.rows.shape == (n, sum(width for _, width in _LAYOUT))
        for attr, width in _LAYOUT:
            col = getattr(tr, attr)
            assert col.shape == ((n,) if width == 1 else (n, width)), attr
            assert np.shares_memory(col, tr.rows), attr
            assert getattr(tr, attr) is col, attr  # set once, not sliced per read


def test_load_trace_rejects_rows_of_another_width(tmp_path):
    trace = run_scenario(_short("fig3", 0.1))
    save_trace(trace, tmp_path)
    np.savez(tmp_path / "trace.npz", rows=trace.rows[:, :-1], name=trace.name,
             kind=trace.kind, dt=trace.dt, events=np.empty((0, 6)))
    with pytest.raises(ValueError, match="layout is %d columns wide" % trace.rows.shape[1]):
        load_trace(tmp_path)
    np.savez(tmp_path / "trace.npz", rows=trace.rows, name=trace.name,
             kind=trace.kind, dt=trace.dt, events=np.zeros((1, 5)))
    with pytest.raises(ValueError, match=r"events have shape \(1, 5\)"):
        load_trace(tmp_path)


def test_trace_file_bytes_do_not_depend_on_the_clock(tmp_path):
    # the summary digest hashes trace.npz, so its bytes must not carry a save time
    trace = run_scenario(_short("example3", 0.2))
    (first,) = save_trace(trace, tmp_path / "a")
    with zipfile.ZipFile(first) as zf:
        assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    (second,) = save_trace(trace, tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_trace_round_trip_keeps_a_name_with_spaces(tmp_path):
    cfg = _short("fig3", 0.1)
    cfg.name = "my run  = 2"
    save_trace(run_scenario(cfg), tmp_path)
    assert load_trace(tmp_path).name == "my run  = 2"
    cfg.name = "my\nrun"
    with pytest.raises(ValueError, match="name must be one line"):
        run_scenario(cfg)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_v1_is_computed_once_per_row(name, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return lyapunov_v1(*args)

    monkeypatch.setattr(analysis, "lyapunov_v1", counted)
    trace = run_scenario(_short(name, 0.3, uncertainties=False))
    # one call per run, on the whole column block: no row's v1 is formed twice
    assert len(trace.t) == 31 and len(calls) == 1
    q_e, w_e, h = calls[0][:3]
    assert np.shape(h) == np.shape(q_e[0]) == (31,)
    cfg = preset(name)
    gains, inertia = cfg.controller.build(), cfg.inertia()
    want = [
        lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1)
        for q_e, w_e, h in zip(trace.q_e, trace.w_e, trace.h)
    ]
    assert np.array_equal(trace.v1, want)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_record_equals_the_float_kernels_row_by_row(name, monkeypatch):
    # the derived columns, rebuilt one row at a time from the trace's own state
    # and the estimator state each step's torque law was handed
    cfg = _short(name, 0.3)
    kind = kinds.get(cfg.controller.kind)
    ests = []

    def torque(g, q_e, w_m, w_d, est, *rest):
        ests.append(est)
        return kind.torque(g, q_e, w_m, w_d, est, *rest)

    monkeypatch.setitem(kinds.KINDS, cfg.controller.kind, dataclasses.replace(kind, torque=torque))
    trace = run_scenario(cfg)
    assert len(ests) == len(trace.t) == 31
    es = analysis.ERROR_SYSTEMS[kind.error_system]
    gains, inertia = cfg.controller.build(), cfg.inertia()
    es_gains = cfg.observer.build() if es.observer else gains
    omega = cfg.trajectory.build().omega_fn
    want = {attr: [] for attr in ("w_d", "q_hat", "b_hat", "q_e", "w_e", "q_est_err", *_V_ATTRS)}
    for i, est in enumerate(ests):
        q, w, q_d, b = (tuple(getattr(trace, a)[i].tolist()) for a in ("q", "w", "q_d", "b"))
        h, h_t = int(trace.h[i]), int(trace.h_tilde[i])
        w_d = omega(float(trace.t[i]))
        padded = (*est, *[np.nan] * (7 - len(est)))  # est across q_hat and b_hat
        q_hat, b_hat = padded[:4], padded[4:]
        q_e = error_quaternion(q_d, q)
        w_e = error_velocity(q_e, w, w_d)
        q_est_err = kind.lag(est, q, q_e)
        b_err = tuple(bj - cj for bj, cj in zip(b, b_hat))
        v = es.candidates(es.coords(q_e, w_e, q_est_err, b_err), h, h_t, es_gains, inertia)
        if "v1" not in v:
            v["v1"] = lyapunov_v1(q_e, w_e, h, inertia, gains.k1, gains.alpha1)
        for attr, row in (("w_d", w_d), ("q_hat", q_hat), ("b_hat", b_hat), ("q_e", q_e),
                          ("w_e", w_e), ("q_est_err", q_est_err)):
            want[attr].append(row)
        for attr, cand in zip(_V_ATTRS, ("v1", "v2", "v2_matched", "v3", "v3_matched")):
            want[attr].append(v.get(cand, np.nan))
    for attr, rows in want.items():
        assert np.array_equal(getattr(trace, attr), rows, equal_nan=True), attr


def test_plant_flow_equals_the_composed_kernels_bit_for_bit():
    # random inertias, states and held torques with signed zeros, disturbance off and on;
    # at amplitude 0 a -0.0 torque must still become u + 0.0 = +0.0
    rng = np.random.default_rng(17)
    for i in range(200):
        m = rng.standard_normal((3, 3))
        inertia = Inertia(m @ m.T + 3.0 * np.eye(3))
        dist = DisturbanceConfig(amplitude_nm=(0.0, 0.02, -1.5)[i % 3], frequency_rad_s=0.1 + i)
        u = with_signed_zeros(rng, 3).tolist()
        y = tuple(with_signed_zeros(rng, 7).tolist())
        t = float(rng.uniform(-50.0, 50.0))
        got = sim._plant_flow(inertia, dist)(*u)(t, y)
        assert bits(got) == bits(composed_plant_flow(inertia, dist)(*u)(t, y))
    # at rest under a diagonal J, only u + 0.0 turns a held -0.0 torque into +0.0 rates
    inertia, off = Inertia(np.diag([15.0, 20.0, 10.0])), DisturbanceConfig(amplitude_nm=0.0)
    y, u = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)
    got = sim._plant_flow(inertia, off)(*u)(2.0, y)
    assert bits(got) == bits(composed_plant_flow(inertia, off)(*u)(2.0, y))
    assert bits(got[4:]) == bits((0.0, 0.0, 0.0))


@pytest.mark.parametrize("name, n_est", [("example1", 0), ("example2", 7), ("example3", 4)])
def test_the_split_step_equals_one_joint_step_bit_for_bit(name, n_est):
    # the estimator reads only held measurements and the plant never reads est, so RK4 on
    # [Q, w, est] repeats every float operation of the plant step and the estimator step
    cfg = preset(name)
    kind = kinds.get(cfg.controller.kind)
    es = analysis.ERROR_SYSTEMS[kind.error_system]
    gains = cfg.observer.build() if es.observer else cfg.controller.build()
    inertia = cfg.inertia()
    plant = sim._plant_flow(inertia, cfg.disturbance)
    composed = composed_plant_flow(inertia, cfg.disturbance)
    build = COMPOSED_ESTIMATOR_FLOWS[cfg.controller.kind]
    rng = np.random.default_rng(31)
    for i in range(100):
        u, w_m = (with_signed_zeros(rng, 3).tolist() for _ in range(2))
        q_m, q_e_m = (with_signed_zeros(rng, 4).tolist() for _ in range(2))
        y, est = (tuple(with_signed_zeros(rng, k).tolist()) for k in (7, n_est))
        h_t = (1, -1)[i % 2]
        t, dt = float(rng.uniform(0.0, 100.0)), float(rng.uniform(1e-4, 0.1))
        got, rates = rk4_step(plant(*u), t, y, dt), lambda t, e: ()
        if est:
            got += rk4_step(kind.estimator_flow(gains, h_t, q_m, w_m, q_e_m), t, est, dt)
            rates = build(gains, h_t, q_m, w_m, q_e_m)
        joint = lambda t, z: (*composed(*u)(t, z[0:7]), *rates(t, z[7:]))
        assert bits(got) == bits(rk4_step(joint, t, (*y, *est), dt))


def _settings(name):
    """1 s of the preset as shipped, noise-free, and with its disturbance alone."""
    shipped, quiet, disturbed = (_short(name, 1.0, uncertainties=u) for u in (True, False, False))
    disturbed.disturbance = shipped.disturbance
    return shipped, quiet, disturbed


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_a_run_steps_as_the_composed_kernels_bit_for_bit(name, monkeypatch):
    for cfg in _settings(name):
        trace = run_scenario(cfg)
        kind = cfg.controller.kind
        flows = COMPOSED_ESTIMATOR_FLOWS[kind]
        with monkeypatch.context() as m:
            m.setattr(sim, "_plant_flow", composed_plant_flow)
            m.setitem(kinds.KINDS, kind, dataclasses.replace(kinds.get(kind), estimator_flow=flows))
            want = run_scenario(cfg)
        assert trace.rows.tobytes() == want.rows.tobytes() and trace.events == want.events


@pytest.mark.parametrize(
    "name, flow_chords, law_chords",
    [("example1", 0, 1), ("example2", 8, 1), ("example3", 4, 2)],
)
def test_one_step_calls_each_nonsmooth_map_by_name(name, flow_chords, law_chords, monkeypatch):
    # one step makes the estimator flow's chord_pow calls once per RK4 stage and the law's
    # once, all through controllers' global: no flow restates chord_pow.  It steps the
    # plant in one rk4_step call and the estimator, where the kind has one, in another
    calls = {"chord_pow": 0, "rk4_step": 0}

    def counted(module, attr):
        real = getattr(module, attr)

        def call(*args):
            calls[attr] += 1
            return real(*args)

        monkeypatch.setattr(module, attr, call)

    counted(controllers, "chord_pow")
    counted(sim, "rk4_step")
    per_run = []
    for steps in (1, 2):
        cfg = preset(name, uncertainties=False)
        cfg.sim.t_final_s = steps * cfg.sim.dt_s
        run_scenario(cfg)
        per_run.append(dict(calls))
        calls.update(chord_pow=0, rk4_step=0)
    one_step = {k: per_run[1][k] - per_run[0][k] for k in calls}
    steps = 1 + (kinds.get(preset(name).controller.kind).estimator_flow is not None)
    assert one_step == {"chord_pow": flow_chords + law_chords, "rk4_step": steps}


@pytest.mark.parametrize("name, estimator_calls", [("example1", 0), ("example2", 4), ("example3", 4)])
def test_one_step_calls_kinematics_rate_once_per_rk4_stage(name, estimator_calls, monkeypatch):
    # the plant's flow and the estimator's each take their quaternion rows from
    # rigid_body.kinematics_rate, through sim's and controllers' globals, once per stage
    calls = {"sim": 0, "controllers": 0}
    for module in (sim, controllers):
        def counted(*args, _key=module.__name__.rsplit(".", 1)[1], _real=module.kinematics_rate):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, "kinematics_rate", counted)
    per_run = []
    for steps in (1, 2):
        cfg = preset(name, uncertainties=False)
        cfg.sim.t_final_s = steps * cfg.sim.dt_s
        run_scenario(cfg)
        per_run.append(dict(calls))
        calls.update(sim=0, controllers=0)
    one_step = {k: per_run[1][k] - per_run[0][k] for k in calls}
    assert one_step == {"sim": 4, "controllers": estimator_calls}


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_commanded_torque_is_feedforward_plus_the_kinds_feedback(name, monkeypatch):
    # noise-free, so each step's measured error quaternion is the recorded q_e
    cfg = _short(name, 0.3, uncertainties=False)
    kind = kinds.get(cfg.controller.kind)
    inertia, traj = cfg.inertia(), cfg.trajectory.build()

    def feedforward(trace):
        return [
            feedforward_torque(inertia, q_e, rotate(q_e, w_d), traj.omega_dot_fn(t))
            for q_e, w_d, t in zip(trace.q_e.tolist(), trace.w_d.tolist(), trace.t.tolist())
        ]

    def zero(*args):
        return (0.0, 0.0, 0.0)

    monkeypatch.setitem(kinds.KINDS, cfg.controller.kind, dataclasses.replace(kind, torque=zero))
    trace = run_scenario(cfg)
    assert np.array_equal(trace.u_cmd, feedforward(trace))

    feedbacks = []

    def law(*args):
        feedbacks.append(kind.torque(*args))
        return feedbacks[-1]

    monkeypatch.setitem(kinds.KINDS, cfg.controller.kind, dataclasses.replace(kind, torque=law))
    trace = run_scenario(cfg)
    assert len(feedbacks) == len(trace.t) == 31
    want = [tuple(f + u for f, u in zip(ff, fb)) for ff, fb in zip(feedforward(trace), feedbacks)]
    assert np.array_equal(trace.u_cmd, want)


def test_rk4_step_exact_on_cubic():
    # RK4's quadrature is degree three, so y' = 3t^2 integrates exactly.
    y1 = rk4_step(lambda t, y: np.array([3.0 * t * t]), 2.0, np.array([8.0]), 0.5)
    assert y1[0] == pytest.approx(2.5**3, rel=1e-15)


def test_rk4_fourth_order_convergence(rk4_error_slopes):
    for slope in rk4_error_slopes:
        assert 3.7 < slope < 4.3


def test_resolve_jumps_full_state():
    jump = kinds.get("full_state").jump
    assert jump(1, 1, -0.5, -0.9, 0.3) == (-1, 1, True)
    assert jump(1, 1, 0.9, 0.9, 0.3) == (1, 1, False)
    assert jump(-1, 1, -0.2, 0.0, 0.3) == (-1, 1, False)
    assert jump(1, 1, -0.2, 0.0, 0.3) == (1, 1, False)
    # the jump set is closed: both boundaries h*s = -delta jump
    assert jump(1, 1, -0.3, 0.0, 0.3) == (-1, 1, True)
    assert jump(-1, 1, 0.3, 0.0, 0.3) == (1, 1, True)
    assert jump(-1, 1, 0.4, 0.0, 0.3) == (1, 1, True)
    assert jump(-1, 1, -0.9, 0.0, 0.3) == (-1, 1, False)
    # the reset is the sign of the scalar
    assert jump(1, 1, -0.2, 0.0, 0.2) == (-1, 1, True)


def test_resolve_jumps_biased_gyro_independent_logic():
    jump = kinds.get("biased_gyro").jump
    assert jump(1, 1, -0.5, -0.4, 0.3) == (-1, -1, True)
    assert jump(1, 1, 0.5, -0.4, 0.3) == (1, -1, True)
    # a non-violating h_tilde is left alone even if h jumps
    assert jump(1, -1, -0.5, 0.2, 0.3) == (-1, -1, True)
    # h_tilde's boundaries jump as h's do
    assert jump(1, 1, 0.5, -0.3, 0.3) == (1, -1, True)
    assert jump(1, -1, 0.5, 0.3, 0.3) == (1, 1, True)
    assert jump(1, 1, 0.5, -0.2, 0.3) == (1, 1, False)


def test_resolve_jumps_attitude_only_joint_reset():
    # the joint reset re-syncs *both* logic variables to their scalars
    jump = kinds.get("attitude_only").jump
    assert jump(1, -1, -0.5, 0.2, 0.3) == (-1, 1, True)
    assert jump(-1, 1, 0.5, -0.4, 0.3) == (1, -1, True)
    assert jump(1, -1, 0.9, -0.2, 0.3) == (1, -1, False)
    assert jump(1, 1, -0.5, 0.2, 0.3) == (-1, 1, True)
    assert jump(1, 1, 0.5, -0.4, 0.3) == (1, -1, True)
    # the joint boundary fires and resets both variables
    assert jump(1, 1, -0.3, -0.3, 0.3) == (-1, -1, True)
    # a zero scalar, of either sign, resets its variable to +1
    assert jump(1, -1, -0.5, 0.0, 0.3) == (-1, 1, True)
    assert jump(1, -1, -0.5, -0.0, 0.3) == (-1, 1, True)
    assert jump(-1, -1, 0.0, 0.5, 0.3) == (1, 1, True)
    assert jump(-1, -1, -0.0, 0.5, 0.3) == (1, 1, True)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_every_jump_rule_tests_its_set_through_one_helper(name, monkeypatch):
    # each step's rule call tests one (h) or two (h, h_tilde) jump sets
    calls = []
    in_jump_set = kinds.in_jump_set

    def counted(h, s, delta):
        calls.append((h, s, delta))
        return in_jump_set(h, s, delta)

    monkeypatch.setattr(kinds, "in_jump_set", counted)
    trace = run_scenario(_short(name, 0.2))
    rows = len(trace.t)
    tests_per_step = {"full_state": (1, 1), "biased_gyro": (2, 2), "attitude_only": (1, 2)}
    low, high = tests_per_step[trace.kind]
    assert low * rows <= len(calls) <= high * rows


@pytest.mark.parametrize("name", sorted(kinds.KINDS))
def test_one_jump_lands_in_flow_set(name):
    # run_scenario applies a kind's jump rule once per step; a second
    # application must never fire, from any scalars and logic signs
    jump = kinds.get(name).jump
    rng = np.random.default_rng(31)
    edges = [-1.0, -0.3, 0.0, 0.3, 1.0]
    pairs = [(s, st) for s in edges for st in edges] + [
        tuple(rng.uniform(-1.0, 1.0, 2)) for _ in range(500)
    ]
    for s, s_tilde in pairs:
        for delta in (0.05, 0.3, 0.95):
            for h in (-1, 1):
                for h_tilde in (-1, 1):
                    h1, ht1, _ = jump(h, h_tilde, s, s_tilde, delta)
                    assert jump(h1, ht1, s, s_tilde, delta) == (h1, ht1, False)


def test_no_step_crosses_a_hysteresis_band(ex1_clean, ex2_clean, ex3_clean, fig3_trace):
    # jumps are tested at step boundaries only; a measured jump scalar that moves by far
    # less than delta per step cannot cross the band h*s in (-delta, 0] unseen.  The
    # noise-free presets at their shipped dt move at most 0.0083 delta per step.
    traces = {"example1": ex1_clean[0.6], "example2": ex2_clean, "example3": ex3_clean[0.75],
              "fig3": fig3_trace}
    for name, trace in traces.items():
        delta = preset(name).controller.delta
        scalars = [trace.q_e[:, 0]]
        if kinds.get(trace.kind).section is not None:  # the estimator's lag scalar
            scalars.append(trace.q_est_err[:, 0])
        for s in scalars:
            assert np.abs(np.diff(s)).max() < 0.05 * delta, name


def test_benchmark_noisy_run_records_one_jump(ex1_noisy):
    trace = ex1_noisy[0.6]
    assert len(trace.events) == 1
    ev = trace.events[0]
    assert 1.0 <= ev.t <= 2.0
    assert (ev.h_pre, ev.h_post) == (1, -1)
    assert (ev.ht_pre, ev.ht_post) == (1, 1)
    assert trace.h[ev.step] == -1 and trace.h[ev.step - 1] == 1


def test_all_benchmark_variants_jump_once(ex1_clean, ex1_noisy):
    for traces in (ex1_clean, ex1_noisy):
        for alpha1, trace in traces.items():
            assert len(trace.events) == 1, alpha1


def test_initial_lyapunov_value_and_nan_columns(ex1_clean):
    trace = ex1_clean[0.6]
    assert trace.v1[0] == pytest.approx(4.669014049064342, rel=1e-12)
    assert np.isnan(trace.v2).all() and np.isnan(trace.v3).all()
    assert np.isnan(trace.q_est_err).all()


def test_initial_logic_value_honored():
    cfg = _short("example1", 1.0, uncertainties=False)
    cfg.controller.h0 = -1
    trace = run_scenario(cfg)
    assert trace.h[0] == -1
    assert not any(ev.step == 0 for ev in trace.events)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "fig3"])
def test_a_noise_free_run_builds_no_generator(name, monkeypatch):
    def refuse(seed):
        raise AssertionError("a noise-free run built a Generator")

    monkeypatch.setattr(sim.np.random, "default_rng", refuse)
    run_scenario(_short(name, 0.5, uncertainties=False))


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_the_reference_is_read_from_its_closed_form_not_integrated(name, monkeypatch):
    cfg = _short(name, 2.0)
    cfg.trajectory.amplitude_rad_s, cfg.trajectory.frequency_rad_s = -0.3, 0.7
    cfg.trajectory.q_d0 = [0.5, -0.5, 0.5, 0.5]
    widths = set()

    def step(flow, t, y, dt):
        widths.add(len(y))
        return rk4_step(flow, t, y, dt)

    monkeypatch.setattr(sim, "rk4_step", step)
    trace = run_scenario(cfg)
    q_d_fn = cfg.trajectory.build().q_d_fn
    want = [q_d_fn(i * trace.dt) for i in range(len(trace.t))]
    assert trace.q_d.tobytes() == np.array(want).tobytes()
    est = np.count_nonzero(~np.isnan(trace.rows[0, sim._OFFSET["q_hat"] : sim._OFFSET["q_e"]]))
    assert widths == ({7, est} if est else {7})  # [Q, w], then est: no reference state


@pytest.mark.parametrize("field", ["attitude_cone_deg", "gyro_sigma_deg_s", "bias_walk_deg_s2"])
def test_any_one_noise_magnitude_keeps_every_draw(field, monkeypatch):
    # one channel on draws for all three, so no channel's stream shifts
    make, built = np.random.default_rng, []

    def spy(seed):
        built.append(make(seed))
        return built[-1]

    monkeypatch.setattr(sim.np.random, "default_rng", spy)
    cfg = _short("example2", 0.5, uncertainties=False)
    setattr(cfg.noise, field, 0.01)
    run_scenario(cfg)
    (used,) = built
    twin = make(cfg.seed)
    n = int(round(cfg.sim.t_final_s / cfg.sim.dt_s))
    for i in range(n + 1):  # per step: attitude, gyro and, but on the last, the bias walk
        twin.random(), twin.random(), twin.standard_normal(3)
        if i < n:
            twin.standard_normal(3)
    assert used.bit_generator.state == twin.bit_generator.state


class _SwappedNormals:
    """A Generator whose six-normal draws come with the gyro's and the walk's halves swapped."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size):
        return self.rng.random(size)

    def standard_normal(self, size):
        normals = self.rng.standard_normal(size)
        return np.concatenate([normals[3:], normals[:3]]) if size == 6 else normals


def _walked_bias(cfg):
    """The b column rebuilt from a twin Generator: the walk on normals[3:6] of each step."""
    twin, walk, dt = np.random.default_rng(cfg.seed), cfg.noise.bias_walk_rad_s2, cfg.sim.dt_s
    b = tuple(cfg.plant.bias0_rad_s)
    column = [b]
    for _ in range(round(cfg.sim.t_final_s / dt)):
        twin.random(2)
        normals = twin.standard_normal(6).tolist()
        b = tuple(bj + walk * nj * dt for bj, nj in zip(b, normals[3:6]))
        column.append(b)
    return column


@pytest.mark.parametrize("walk_only", [False, True], ids=["shipped", "walk_only"])
def test_each_channel_reads_its_own_normals(walk_only, monkeypatch):
    # as shipped, and with the walk the run's only noise: the bias walks on the last three
    # of each step's six normals, and a double whose gyro and walk swap halves is caught
    cfg = _short("example2", 0.5)
    if walk_only:
        cfg.noise.attitude_cone_deg = cfg.noise.gyro_sigma_deg_s = 0.0
    want = bits(_walked_bias(cfg))
    assert bits(run_scenario(cfg).b) == want
    make = np.random.default_rng
    monkeypatch.setattr(sim.np.random, "default_rng", lambda seed: _SwappedNormals(make(seed)))
    assert bits(run_scenario(cfg).b) != want


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_a_noise_free_run_does_not_depend_on_its_seed(name):
    a = run_scenario(_short(name, 3.0, uncertainties=False, seed=1))
    b = run_scenario(_short(name, 3.0, uncertainties=False, seed=2))
    assert np.array_equal(a.rows, b.rows, equal_nan=True)
    assert a.events == b.events


def test_config_field_set_after_construction_is_validated():
    cfg = _short("example2", 1.0)
    cfg.plant.bias0_rad_s = [0.1]
    with pytest.raises(ValueError, match="plant.bias0_rad_s must have 3 components, got 1"):
        run_scenario(cfg)
    cfg = _short("example1", 1.0)
    cfg.sim.dt_s = -0.01
    with pytest.raises(ValueError, match="sim.dt_s must be positive"):
        run_scenario(cfg)


def test_invalid_initial_logic_rejected():
    cfg = _short("example1", 1.0)
    cfg.controller.h0 = 0
    with pytest.raises(ValueError, match="h0 must be"):
        run_scenario(cfg)


def test_norm_drift_guard_trips_on_coarse_fast_spin():
    cfg = _short("fig3", 50.0)
    cfg.plant.omega0_rad_s = [3.0, 3.0, 3.0]
    cfg.sim.dt_s = 0.1
    with pytest.raises(SimulationError, match="norm drifted"):
        run_scenario(cfg)


def test_norm_drift_guard_trips_on_nan():
    with pytest.raises(SimulationError, match="drifted nan at step 3"):
        _renorm(np.array([1.0, np.nan, 0.0, 0.0]), 3)


def test_biased_gyro_trace_columns(ex2_clean):
    trace = ex2_clean
    assert trace.kind == "biased_gyro"
    b0 = np.array([0.01, -0.05, 0.02])
    assert np.array_equal(trace.b, np.broadcast_to(b0, trace.b.shape))  # no walk when clean
    assert np.linalg.norm(trace.b_hat[-1] - b0) < 1e-5
    assert np.isfinite(trace.v2).all() and np.isfinite(trace.v2m).all()
    assert np.isfinite(trace.q_est_err).all()
    assert np.isnan(trace.v3).all() and np.isnan(trace.v3m).all()
