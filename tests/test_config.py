"""Configuration schema, JSON round trip, and preset tests."""

import json

import numpy as np
import pytest

from attkit.config import (
    ControllerConfig,
    SimConfig,
    TrajectoryConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    preset,
    save_config,
)
from attkit.controllers import FullStateGains, ObserverGains, OutputFeedbackGains


def test_save_load_round_trip(tmp_path):
    cfg = preset("example2")
    path = save_config(cfg, tmp_path / "scenario.json")
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_unknown_top_level_field_rejected():
    d = config_to_dict(preset("example1"))
    d["extra"] = 1
    with pytest.raises(ValueError, match="unknown top-level"):
        config_from_dict(d)


def test_unknown_section_field_rejected():
    d = config_to_dict(preset("example1"))
    d["plant"]["moment_of_inertia"] = 1.0
    with pytest.raises(ValueError, match="'plant'"):
        config_from_dict(d)
    d = config_to_dict(preset("example1"))
    d["sim"]["renormalize"] = True  # a removed field: renormalization always runs
    with pytest.raises(ValueError, match="'sim'"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "section, field, value",
    [("controller", "k1", float("nan")), (None, "torque_limit_nm", float("inf"))],
)
def test_non_finite_number_rejected(section, field, value):
    d = config_to_dict(preset("example1"))
    (d if section is None else d[section])[field] = value
    label = field if section is None else "%s.%s" % (section, field)
    with pytest.raises(ValueError, match=r"^%s must be finite" % label):
        config_from_dict(d)


def test_nan_inside_list_rejected_from_json():
    text = json.dumps(config_to_dict(preset("example1"))).replace(
        '"q0": [0.0, 0.6', '"q0": [NaN, 0.6'
    )
    data = json.loads(text)  # Python's json accepts NaN
    assert np.isnan(data["plant"]["q0"][0])
    with pytest.raises(ValueError, match="plant.q0 must be finite"):
        config_from_dict(data)


def test_missing_required_section_rejected():
    d = config_to_dict(preset("example1"))
    del d["sim"]
    with pytest.raises(ValueError, match="missing required section"):
        config_from_dict(d)


def test_observer_and_filter_sections_optional_for_full_state():
    d = config_to_dict(preset("example1"))
    assert d["observer"] is None and d["filter"] is None
    cfg = config_from_dict(d)
    assert cfg.observer is None and cfg.filter is None


def test_biased_gyro_requires_observer():
    d = config_to_dict(preset("example2"))
    d["observer"] = None
    with pytest.raises(ValueError, match="observer"):
        config_from_dict(d)


def test_attitude_only_requires_filter():
    d = config_to_dict(preset("example3"))
    d["filter"] = None
    with pytest.raises(ValueError, match="filter"):
        config_from_dict(d)


def test_malformed_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed config"):
        load_config(path)


def test_non_unit_q0_warns_and_renormalizes():
    cfg = preset("example1")
    cfg.plant.q0 = [0.0, 1.2, 0.0, 0.0]
    with pytest.warns(UserWarning, match="plant.q0"):
        q = cfg.initial_quat()
    assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], rtol=1e-15)


def test_zero_norm_q0_rejected():
    cfg = preset("example1")
    cfg.plant.q0 = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="zero norm"):
        cfg.initial_quat()


def test_controller_config_build_dispatch():
    fs = ControllerConfig(kind="full_state", k1=1.1, k2=4.0, delta=0.3, alpha1=0.6).build()
    assert isinstance(fs, FullStateGains) and fs.alpha1 == 0.6
    of = ControllerConfig(
        kind="attitude_only", k1=1.2, k2=2.4, k3=1.1, delta=0.3, alpha3=0.75
    ).build()
    assert isinstance(of, OutputFeedbackGains) and of.k3 == 1.1
    with pytest.raises(ValueError, match="requires alpha1"):
        ControllerConfig(kind="biased_gyro", k1=1.1, k2=4.0, delta=0.3).build()
    with pytest.raises(ValueError, match="alpha3 and k3"):
        ControllerConfig(kind="attitude_only", k1=1.2, k2=2.4, delta=0.3, alpha3=0.75).build()
    with pytest.raises(ValueError, match="unknown controller kind"):
        ControllerConfig(kind="pid", k1=1.0, k2=1.0, delta=0.3).build()
    with pytest.raises(ValueError, match="positive"):
        ControllerConfig(kind="full_state", k1=0.0, k2=4.0, delta=0.3, alpha1=0.6).build()


def test_observer_config_build():
    gains = preset("example2").observer.build()
    assert isinstance(gains, ObserverGains) and gains.beta1 == 0.75


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt_s=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_final_s=-1.0)
    with pytest.raises(ValueError):
        SimConfig(max_consecutive_jumps=0)


def test_trajectory_config_build():
    sin = TrajectoryConfig("sinusoid", 0.02, 0.05).build()
    assert sin.omega_bound == pytest.approx(0.02 * np.sqrt(3.0), rel=1e-15)
    assert np.allclose(sin.omega_fn(0.5 * np.pi / 0.05), [0.02, 0.02, 0.02])
    reg = TrajectoryConfig("regulation").build()
    assert reg.omega_bound == 0.0
    with pytest.raises(ValueError, match="unknown trajectory kind"):
        TrajectoryConfig("spiral").build()


def test_preset_example1():
    cfg = preset("example1")
    assert cfg.name == "example1" and cfg.seed == 2024
    assert cfg.controller.kind == "full_state"
    assert (cfg.controller.k1, cfg.controller.k2) == (1.1, 4.0)
    assert (cfg.controller.alpha1, cfg.controller.delta) == (0.6, 0.3)
    assert cfg.plant.q0 == [0.0, 0.6, -0.8, 0.0]
    assert cfg.plant.omega0_rad_s == [0.3, -0.4, 0.0]
    assert cfg.plant.inertia_kgm2 == [[15.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]]
    assert cfg.noise.enabled and cfg.noise.bias_walk_deg_s2 == 0.0
    assert (cfg.sim.dt_s, cfg.sim.t_final_s) == (0.01, 100.0)
    assert preset("example1", alpha1=0.8).controller.alpha1 == 0.8
    quiet = preset("example1", uncertainties=False)
    assert not quiet.noise.enabled and not quiet.disturbance.enabled


def test_preset_example2():
    cfg = preset("example2")
    assert cfg.controller.kind == "biased_gyro"
    assert cfg.plant.bias0_rad_s == [0.01, -0.05, 0.02]
    assert (cfg.observer.mu1, cfg.observer.mu2, cfg.observer.beta1) == (0.33, 0.12, 0.75)
    assert cfg.noise.bias_walk_deg_s2 == 0.01
    assert cfg.controller.alpha1 == 0.6


def test_preset_example3():
    cfg = preset("example3")
    assert cfg.controller.kind == "attitude_only"
    assert (cfg.controller.k1, cfg.controller.k2, cfg.controller.k3) == (1.2, 2.4, 1.1)
    assert cfg.controller.alpha3 == 0.75
    assert cfg.filter is not None and cfg.observer is None
    assert cfg.sim.t_final_s == 150.0
    assert cfg.noise.bias_walk_deg_s2 == 0.0


def test_preset_fig3():
    cfg = preset("fig3")
    assert cfg.name == "fig3"
    assert cfg.plant.q0 == [0.0, 1.0, 0.0, 0.0]
    assert cfg.plant.omega0_rad_s == [0.0, 0.0, 0.0]
    assert cfg.trajectory.kind == "regulation"
    assert not cfg.noise.enabled and not cfg.disturbance.enabled


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("example9")
