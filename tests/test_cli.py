"""Command-line front-end tests: artifacts, digests, sweeps, verify."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attkit import analysis, cli, kinds
from attkit.analysis import (
    bound_checks,
    convergence_metrics,
    lyapunov_v1,
    min_joint_jump_decrease,
    min_jump_decrease,
    potential_term,
    start_state,
)
from attkit.config import config_to_dict, load_config, preset, save_config
from attkit.integrate import SimulationError
from attkit.sim import load_trace, run_scenario

SUMMARY_KEYS = {
    "name", "kind", "seed", "convergence", "bounds", "digest", "trace_file",
}


def _short(name, seconds=5.0, **kwargs):
    cfg = preset(name, **kwargs)
    cfg.sim.t_final_s = seconds
    return cfg


def test_presets_verb_lists_names(capsys):
    assert cli.main(["presets"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"presets": ["example1", "example2", "example3", "fig3"]}


def test_presets_verb_emits_config(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    assert cli.main(["presets", "example2", "--out", str(path)]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted == config_to_dict(preset("example2"))
    assert config_to_dict(load_config(path)) == emitted


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    summary = cli.run(_short("example1"), out)
    assert set(summary) == SUMMARY_KEYS
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.npz"]
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == summary


def test_run_digest_is_seed_deterministic(tmp_path):
    a = cli.run(_short("example1"), tmp_path / "a")
    b = cli.run(_short("example1"), tmp_path / "b")
    assert a["digest"] == b["digest"]
    reseeded = _short("example1")
    reseeded.seed = 7
    c = cli.run(reseeded, tmp_path / "c")
    assert c["digest"] != a["digest"]


def test_summary_metrics_recompute_from_trace(tmp_path):
    out = tmp_path / "out"
    cfg = _short("example2")
    summary = cli.run(cfg, out)
    trace = load_trace(out)
    conv = convergence_metrics(trace)
    bounds = bound_checks(
        trace, cfg.controller.build(), cfg.inertia(), cfg.trajectory.build(),
        observer_gains=cfg.observer.build(),
    )
    assert conv.to_dict() == summary["convergence"]
    assert bounds.to_dict() == summary["bounds"]


def test_sweep_layout(tmp_path):
    root = tmp_path / "sw"
    result = cli.sweep(_short("fig3"), "controller.alpha1", [0.6, 1.0], root)
    assert result["sweep"] == "controller.alpha1"
    assert [r["name"] for r in result["runs"]] == ["fig3_alpha1_0.6", "fig3_alpha1_1.0"]
    assert (root / "alpha1_0.6" / "trace.npz").exists()
    assert (root / "alpha1_1.0" / "summary.json").exists()
    assert json.loads((root / "sweep.json").read_text()) == result


def test_sweep_rejects_empty_values(tmp_path):
    with pytest.raises(ValueError, match="at least one value"):
        cli.sweep(_short("fig3"), "controller.alpha1", [], tmp_path)


def test_sweep_over_a_noise_field(tmp_path, capsys):
    cfg_path = save_config(_short("example1", 0.2), tmp_path / "cfg.json")
    root = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--param", "noise.gyro_sigma_deg_s", "--values", "0.02,0.05"]
    assert cli.main(argv + ["--out", str(root)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in result["runs"]] == [
        "example1_gyro_sigma_deg_s_0.02", "example1_gyro_sigma_deg_s_0.05",
    ]
    for value in ("0.02", "0.05"):
        assert (root / ("gyro_sigma_deg_s_" + value) / "summary.json").exists()


def test_sweep_rejects_a_bad_gain_before_any_run(tmp_path, capsys):
    cfg_path = save_config(_short("example1", 0.2), tmp_path / "cfg.json")
    root = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--param", "controller.alpha1", "--values", "0.6,1.5"]
    assert cli.main(argv + ["--out", str(root)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "ValueError", "message": "controller: alpha1 must lie in (0, 1], got 1.5"
    }
    assert not root.exists()


def test_sweep_over_a_list_field(tmp_path, capsys):
    cfg_path = save_config(_short("fig3", 0.1), tmp_path / "cfg.json")
    argv = ["sweep", str(cfg_path), "--param", "plant.q0", "--values", "[0,1,0,0],[1,0,0,0]"]
    assert cli.main(argv + ["--out", str(tmp_path / "sw")]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [r["name"] for r in runs] == ["fig3_q0_0_1_0_0", "fig3_q0_1_0_0_0"]
    assert (tmp_path / "sw" / "q0_0_1_0_0" / "summary.json").exists()
    assert runs[1]["convergence"]["settling_time_s"] == 0.0


def test_sweep_rejects_values_that_share_a_run_name(tmp_path, capsys):
    # the third value flattens to the first one's name, which would overwrite its run
    cfg_path = save_config(_short("fig3", 0.1), tmp_path / "cfg.json")
    root = tmp_path / "sw"
    values = "[0,1,0,0],[1,0,0,0],[[0,1],[0,0]]"
    argv = ["sweep", str(cfg_path), "--param", "plant.q0", "--values", values, "--out", str(root)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "sweep values [0, 1, 0, 0] and [[0, 1], [0, 0]] share run 'q0_0_1_0_0'",
    }
    assert not root.exists()


def test_sweep_rejects_a_value_with_a_path_separator(tmp_path, capsys):
    # "name_a/b" would put a run inside run "name_a"'s directory
    cfg_path = save_config(_short("fig3", 0.1), tmp_path / "cfg.json")
    root = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--param", "name", "--values", '"a","a/b"', "--out", str(root)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "sweep value 'a/b' puts a path separator in run 'name_a/b'",
    }
    assert not root.exists()


@pytest.mark.parametrize(
    "param, values, message",
    [
        (
            "plant.inertia_kgm2",
            "[[15,0,0],[0,20,0],[0,0,10]],[[15,0,0],[0,-20,0],[0,0,10]]",
            "plant.inertia_kgm2: inertia must be positive definite",
        ),
        ("plant.q0", "[1,0,0,0],[0,0,0,0]", "plant.q0 has zero norm"),
    ],
)
def test_sweep_rejects_a_built_value_before_any_run(tmp_path, capsys, param, values, message):
    # the bad value is the second, so a sweep that ran its values in turn
    # would have written the first
    cfg_path = save_config(_short("example1", 0.2), tmp_path / "cfg.json")
    root = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--param", param, "--values", values, "--out", str(root)]
    assert cli.main(argv) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"].startswith(message)
    assert not root.exists()


def test_a_file_holding_a_dropped_switch_fails_before_any_run(tmp_path, capsys):
    # rest-to-rest is trajectory.amplitude_rad_s = 0; the old trajectory.kind
    # switch is refused at load, so no run is written
    d = config_to_dict(_short("example1", 0.2))
    d["trajectory"]["kind"] = "regulation"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    root = tmp_path / "sw"
    argv = ["sweep", str(cfg_path), "--param", "seed", "--values", "1,2", "--out", str(root)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "unknown field(s) ['kind'] in section 'trajectory'",
    }
    assert not root.exists()


def test_set_param_validation():
    cfg = _short("example1")
    with pytest.raises(ValueError, match="unknown parameter"):
        cli._set_param(cfg, "controller.bandwidth", 1.0)
    with pytest.raises(ValueError, match="unknown or empty parameter section"):
        cli._set_param(cfg, "observer.mu1", 0.5)  # no observer on this scenario
    with pytest.raises(ValueError, match="positive"):
        cli._set_param(cfg, "sim.dt_s", -0.01)
    changed = cli._set_param(cfg, "controller.alpha1", 0.8)
    assert changed.controller.alpha1 == 0.8 and cfg.controller.alpha1 == 0.6


def test_main_run_in_process(tmp_path, capsys):
    cfg_path = save_config(_short("fig3"), tmp_path / "cfg.json")
    out = tmp_path / "out"
    rc = cli.main(["run", str(cfg_path), "--out", str(out), "--seed", "11"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 11 and summary["name"] == "fig3"
    assert (out / "summary.json").exists()


def test_main_rejects_a_negative_seed(tmp_path, capsys):
    cfg_path = save_config(_short("fig3"), tmp_path / "cfg.json")
    rc = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert rc != 0
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "ValueError", "message": "seed must be a non-negative integer, got -1"
    }
    assert not (tmp_path / "out").exists()


def test_main_reports_errors_as_json():
    # the child imports the same attkit as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "attkit.cli", "run", "/nonexistent/config.json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    record = json.loads(proc.stderr)
    assert set(record) == {"error", "message"}
    assert "nonexistent" in record["message"]


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_verify_passes_on_presets(name):
    result = cli.verify(_short(name), n_samples=200)
    assert result["ok"] is True
    assert result["homogeneity_ok"] is True
    assert result["perturbations_monotone"] is True
    assert result["flow_ok"] is True and result["jump_drops_ok"] is True
    assert result["governing_candidate"] in ("v1", "v2_matched", "v3_matched")


def test_verify_starts_at_configured_h_tilde0():
    # the observer starts with h_tilde0 * q_err0 = +0.9: in the flow set, so
    # neither the run nor the flow check may jump at step 0
    cfg = _short("example2", seconds=1.0, uncertainties=False)
    cfg.plant.q0 = [1.0, 0.0, 0.0, 0.0]
    cfg.observer.q_hat0 = list(np.array([-0.9, 0.436, 0.0, 0.0]) / np.hypot(0.9, 0.436))
    cfg.observer.h_tilde0 = -1
    assert not any(ev.step == 0 for ev in run_scenario(cfg).events)
    result = cli.verify(cfg, n_samples=20)
    assert result["jump_drops"] == {"v2": [], "v2_matched": []}


def _budget_at_start(cfg, trace, h, h_tilde):
    """The jump budget bound_checks should report, V(0)/sigma, with V(0) at (h, h_tilde)."""
    g, inertia = cfg.controller.build(), cfg.inertia()
    v1 = lyapunov_v1(trace.q_e[0], trace.w_e[0], h, inertia, g.k1, g.alpha1)
    if cfg.controller.kind == "full_state":
        return v1 / min_jump_decrease(g.k1, g.alpha1, g.delta)
    if cfg.controller.kind == "attitude_only":
        v3m = v1 + potential_term(g.k2, h_tilde * trace.q_est_err[0][0], 1.0 + g.alpha1)
        return v3m / min_joint_jump_decrease(g, g.delta)
    o = cfg.observer
    b_err = trace.b[0] - trace.b_hat[0]
    v2 = 0.5 * float(b_err @ b_err) + potential_term(o.mu2, h_tilde * trace.q_est_err[0][0],
                                                      1.0 + o.beta1)
    return v2 / min_jump_decrease(o.mu2, o.beta1, g.delta)


@pytest.mark.parametrize(
    "name, drops",
    [
        ("example1", {"v1": 4.168220557903595}),
        ("example3", {"v3": 4.525483399593904, "v3_matched": 4.525483399593904}),
        ("example2", {"v2": 0.4612917477963234, "v2_matched": 0.4525483399593905}),
    ],
)
def test_a_step_0_jump_is_checked_from_the_pre_jump_pair(name, drops):
    # each start puts a logic variable on the wrong antipode: h = -1 on q_e0 = +1,
    # or h_tilde = -1 on the observer's q_err0 = +1 (it starts at the measurement)
    cfg = _short(name, seconds=1.0, uncertainties=False)
    if name == "example2":
        cfg.observer.h_tilde0 = -1
        pre, post = (1, -1), (1, 1)
    else:
        cfg.plant.q0 = [1.0, 0.0, 0.0, 0.0]
        cfg.controller.h0 = -1
        pre, post = (-1, 1), (1, 1)
    trace = run_scenario(cfg)
    assert [ev.step for ev in trace.events] == [0]
    assert (trace.h[0], trace.h_tilde[0]) == post
    assert start_state(trace)[1:] == pre

    result = cli.verify(cfg, n_samples=20)
    assert result["ok"] is True
    assert {k: len(v) for k, v in result["jump_drops"].items()} == dict.fromkeys(drops, 1)
    for key, drop in drops.items():
        assert result["jump_drops"][key][0] == pytest.approx(drop, rel=1e-12)
        assert result["jump_drops"][key][0] >= result["min_jump_decrease"]

    obs = cfg.observer.build() if cfg.observer is not None else None
    report = bound_checks(trace, cfg.controller.build(), cfg.inertia(), cfg.trajectory.build(),
                          observer_gains=obs)
    assert report.jump_count == 1
    assert report.jump_bound == pytest.approx(_budget_at_start(cfg, trace, *pre), rel=1e-12)
    assert report.jump_bound > _budget_at_start(cfg, trace, *post) + 1.0


def test_verify_fails_where_the_first_step_fails():
    # the run's first step drifts the quaternion norm past its guard; verify
    # steps the same scenario before its flow check, so it fails the same way
    cfg = _short("example1", uncertainties=False)
    cfg.plant.omega0_rad_s = [25.0, 0.0, 0.0]
    with pytest.raises(SimulationError, match="at step 0; reduce dt"):
        run_scenario(cfg)
    with pytest.raises(SimulationError, match="at step 0; reduce dt"):
        cli.verify(cfg, n_samples=20)


@pytest.mark.parametrize(
    "name, exponent", [("example1", {"alpha1": 0.9}), ("example2", {"beta1": 0.95}),
                       ("example3", {"alpha3": 0.95})],
)
def test_verify_passes_at_high_exponents(name, exponent):
    # at p near 1 the dilation puts chart points below 1e-12 at eps = 1e-3,
    # where axis_pow must still be a power and chord_gap must not round
    # 1 - q0 to zero
    result = cli.verify(_short(name, seconds=0.4, **exponent), n_samples=200)
    assert result["homogeneity_ok"] is True
    assert result["perturbations_monotone"] is True
    assert result["ok"] is True


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_samples_below_one(tmp_path, capsys, samples):
    path = save_config(_short("example1"), tmp_path / "cfg.json")
    assert cli.main(["verify", str(path), "--samples", samples]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "samples" in record["message"]


def test_verify_names_sim_t_final_s_when_the_flow_horizon_is_too_short(tmp_path, capsys):
    # 3 ms is 3 flow-check steps of 1 ms, under the finite-difference floor of 4
    path = save_config(_short("example1", seconds=0.003), tmp_path / "cfg.json")
    assert cli.main(["verify", str(path), "--samples", "20"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"].startswith("sim.t_final_s: 0.003 s gives the flow check 3 steps")


def test_verify_warns_once_when_the_flow_horizon_is_not_whole_steps():
    cfg = _short("example1", seconds=0.0505)
    message = (r"^sim\.t_final_s = 0\.0505 is not a whole number of dt = 0\.001 steps;"
               r" 50 steps run to 0\.05 s$")
    with pytest.warns(UserWarning, match=message) as caught:
        cli.verify(cfg, n_samples=20)
    assert len(caught) == 1


_EDGE_Q = [-0.25, math.sqrt(1.0 - 0.0625), 0.0, 0.0]
_H_JUMP = {"plant.q0": _EDGE_Q, "plant.omega0_rad_s": [0.8, 0.0, 0.0], "sim.t_final_s": 0.4}
#: tools/tracediff.py's jump cases: preset and fields, each crossing one jump in its flow check
_JUMP_STARTS = {
    "example1_h_jump": ("example1", _H_JUMP),
    "example2_ht_jump": ("example2", {
        "plant.q0": [1.0, 0.0, 0.0, 0.0], "plant.bias0_rad_s": [0.5, 0.0, 0.0],
        "observer.q_hat0": _EDGE_Q, "sim.t_final_s": 2.0,
    }),
    "example3_h_jump": ("example3", _H_JUMP),
}


@pytest.mark.parametrize("case", sorted(_JUMP_STARTS))
def test_verify_builds_its_flow_once_per_logic_pair(case, monkeypatch):
    name, fields = _JUMP_STARTS[case]
    cfg = preset(name)
    for path, value in fields.items():
        section, field = path.split(".")
        setattr(getattr(cfg, section), field, value)
    system = kinds.get(cfg.controller.kind).error_system
    es = analysis.ERROR_SYSTEMS[system]
    pairs = []

    def flow(g, j, tr, h, ht):
        pairs.append((h, ht))
        return es.flow(g, j, tr, h, ht)

    monkeypatch.setitem(analysis.ERROR_SYSTEMS, system, replace(es, flow=flow))
    result = cli.verify(cfg, n_samples=20)
    jumps = len(result["jump_drops"][result["governing_candidate"]])
    assert jumps == 1
    # the start's pair, then the pair after the jump
    assert len(pairs) == 1 + jumps and pairs[0] != pairs[1]


def test_verify_validates_field_set_after_construction():
    cfg = _short("example2", seconds=0.4)
    cfg.plant.bias0_rad_s = [0.1]
    with pytest.raises(ValueError, match="plant.bias0_rad_s must have 3 components, got 1"):
        cli.verify(cfg, n_samples=20)


def test_verify_checks_the_linear_limits_at_degree_0():
    # alpha1 = 1, beta1 = 1 and alpha3 = 1 take the degree-0 dilation; at beta1 = 1 the
    # observer's bias remainder is exactly zero at every eps, which counts as vanished
    for name, exponent in (("example1", {"alpha1": 1.0}), ("example2", {"beta1": 1.0}),
                           ("example3", {"alpha3": 1.0})):
        result = cli.verify(_short(name, seconds=0.4, **exponent), n_samples=200)
        assert result["homogeneity_deviation"] <= 1e-9, name
        assert result["homogeneity_ok"] is True, name
        assert result["perturbations_monotone"] is True, name
        assert result["ok"] is True, name
