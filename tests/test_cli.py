"""Command-line front-end tests: artifacts, digests, sweeps, verify."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attkit import cli
from attkit.analysis import bound_checks, convergence_metrics
from attkit.config import config_to_dict, load_config, preset, save_config
from attkit.sim import load_trace

SUMMARY_KEYS = {
    "name", "kind", "seed", "convergence", "bounds", "digest", "trace_file", "events_file",
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
    assert (out / "trace.csv").exists() and (out / "events.csv").exists()
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
    assert (root / "alpha1_0.6" / "trace.csv").exists()
    assert (root / "alpha1_1.0" / "summary.json").exists()
    assert json.loads((root / "sweep.json").read_text()) == result


def test_sweep_rejects_empty_values(tmp_path):
    with pytest.raises(ValueError, match="at least one value"):
        cli.sweep(_short("fig3"), "controller.alpha1", [], tmp_path)


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


def test_verify_degenerate_exponent_reports_null():
    result = cli.verify(_short("example1", alpha1=1.0), n_samples=200)
    assert result["homogeneity_ok"] is None
    assert result["perturbations_monotone"] is None
    assert result["ok"] is True
