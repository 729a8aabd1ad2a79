"""Configuration schema, JSON round trip, and preset tests."""

import dataclasses
import json
import re

import numpy as np
import pytest

from attkit import cli, config
from attkit.config import (
    ControllerConfig,
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
    d = config_to_dict(preset("example1"))
    d["sim"]["max_consecutive_jumps"] = 4  # a removed field: one jump re-enters the flow set
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


@pytest.mark.parametrize("limit", [0.0, -2.0])
def test_non_positive_torque_limit_rejected(limit):
    # np.clip(u, -L, L) with L <= 0 would feed the plant a constant -|L| on every axis
    d = config_to_dict(preset("example1"))
    d["torque_limit_nm"] = limit
    with pytest.raises(ValueError, match=r"^torque_limit_nm must be positive"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "name, section, field, value, size",
    [
        ("example1", "plant", "q0", [0.0, 0.6, -0.8], 4),
        ("example1", "plant", "omega0_rad_s", [0.3, -0.4, 0.0, 0.0], 3),
        ("example1", "plant", "bias0_rad_s", [0.1], 3),  # was broadcast to all three axes
        ("example1", "trajectory", "q_d0", [1.0], 4),
        ("example2", "observer", "q_hat0", [1.0, 0.0, 0.0], 4),
        ("example2", "observer", "b_hat0_rad_s", [0.0, 0.0], 3),
        ("example3", "filter", "q_f0", [1.0, 0.0, 0.0, 0.0, 0.0], 4),
    ],
)
def test_vector_of_wrong_length_rejected(name, section, field, value, size):
    d = config_to_dict(preset(name))
    d[section][field] = value
    msg = r"^%s\.%s must have %d components, got %d$" % (section, field, size, len(value))
    with pytest.raises(ValueError, match=msg):
        config_from_dict(d)


@pytest.mark.parametrize("seed", [None, 1.5, "7", -1, True])
def test_seed_must_be_a_non_negative_integer(seed):
    # None would draw from OS entropy; the others failed inside NumPy
    d = config_to_dict(preset("example1"))
    d["seed"] = seed
    msg = "^seed must be a non-negative integer, got %s$" % re.escape(repr(seed))
    with pytest.raises(ValueError, match=msg):
        config_from_dict(d)


def test_noise_and_sim_messages_name_the_field():
    d = config_to_dict(preset("example1"))
    d["noise"]["gyro_sigma_deg_s"] = -0.1
    with pytest.raises(ValueError, match=r"^noise\.gyro_sigma_deg_s must be nonnegative"):
        config_from_dict(d)
    d = config_to_dict(preset("example1"))
    d["sim"]["dt_s"] = 0.0
    with pytest.raises(ValueError, match=r"^sim\.dt_s must be positive"):
        config_from_dict(d)
    cfg = preset("example1")  # a field set on a built config, checked where a run starts
    cfg.sim.t_final_s = -1.0
    with pytest.raises(ValueError, match=r"^sim\.t_final_s must be positive"):
        cfg.validate()


def test_nan_inside_list_rejected_from_json():
    text = json.dumps(config_to_dict(preset("example1"))).replace(
        '"q0": [0.0, 0.6', '"q0": [NaN, 0.6'
    )
    data = json.loads(text)  # Python's json accepts NaN
    assert np.isnan(data["plant"]["q0"][0])
    with pytest.raises(ValueError, match="plant.q0 must be finite"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "path, value, message",
    [
        # JSON true ran as 1.0, or as h = +1
        ("controller.k1", True, "controller.k1 must be a number, got True"),
        ("torque_limit_nm", True, "torque_limit_nm must be a number, got True"),
        ("controller.h0", True, "controller.h0 must be +1 or -1, got True"),
        ("controller.h0", 1.0, "controller.h0 must be +1 or -1, got 1.0"),
        # these raised a TypeError naming no field
        ("controller.k1", "1.1", "controller.k1 must be a number, got '1.1'"),
        ("sim.dt_s", "0.01", "sim.dt_s must be a number, got '0.01'"),
        ("noise.attitude_cone_deg", "0.1", "noise.attitude_cone_deg must be a number, got '0.1'"),
        ("trajectory.amplitude_rad_s", "0.1",
         "trajectory.amplitude_rad_s must be a number, got '0.1'"),
        ("disturbance.amplitude_nm", "0.1", "disturbance.amplitude_nm must be a number, got '0.1'"),
        ("trajectory.amplitude_rad_s", None, "trajectory.amplitude_rad_s must be a number, got None"),
        ("plant.omega0_rad_s", None, "plant.omega0_rad_s must be a list, got None"),
        # NumPy converted the strings
        ("plant.q0", ["1", "0", "0", "0"],
         "plant.q0 must hold numbers only, got ['1', '0', '0', '0']"),
        ("plant.inertia_kgm2", [[15, 0, 0], [0, 20], [0, 0, 10]],
         "plant.inertia_kgm2[1] must have 3 components, got 2"),
        # any non-empty string switched the channel on
        ("noise.enabled", "no", "noise.enabled must be true or false, got 'no'"),
        ("disturbance.enabled", "yes", "disturbance.enabled must be true or false, got 'yes'"),
        # the run's default output directory is named after it
        ("name", 5, "name must be a string, got 5"),
        # a kind is a key of the one table that dispatches it
        ("trajectory.kind", "spiral",
         "trajectory.kind must be 'regulation' or 'sinusoid', got 'spiral'"),
        ("controller.kind", "pid",
         "controller.kind must be 'full_state', 'biased_gyro' or 'attitude_only', got 'pid'"),
    ],
)
def test_fields_are_checked_against_their_declared_types(path, value, message):
    *section, field = path.split(".")
    d = config_to_dict(preset("example1"))
    (d[section[0]] if section else d)[field] = value
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        config_from_dict(d)
    cfg = preset("example1")  # a field set on a built config, checked where a run starts
    setattr(getattr(cfg, section[0]) if section else cfg, field, value)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        cfg.validate()


def test_each_section_is_checked_once_per_load(monkeypatch):
    d = config_to_dict(preset("example2"))
    calls, check = [], config._check_section
    monkeypatch.setattr(
        config, "_check_section", lambda key, sec: (calls.append(key), check(key, sec))
    )
    config_from_dict(d)
    assert calls == ["plant", "trajectory", "controller", "observer", "noise", "disturbance", "sim"]


#: (section, field) of every section field without a default
_REQUIRED = [
    (key, f.name)
    for key, cls in config._SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
]


@pytest.mark.parametrize("section, field", _REQUIRED)
def test_a_missing_required_field_is_named(tmp_path, capsys, section, field):
    d = config_to_dict(preset("example2"))
    del d[section][field]
    message = "missing required field %s.%s" % (section, field)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        config_from_dict(d)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


def test_declared_types_admit_ints_and_null_where_optional():
    d = config_to_dict(preset("example2"))
    d["controller"]["k1"], d["torque_limit_nm"] = 1, 5
    d["plant"]["inertia_kgm2"] = [[15, 0, 0], [0, 20, 0], [0, 0, 10]]
    d["observer"]["q_hat0"] = None  # start at the measurement
    cfg = config_from_dict(d)
    assert cfg.controller.k1 == 1 and cfg.observer.q_hat0 is None


@pytest.mark.parametrize(
    "section, value, label",
    [(None, [1, 2], "scenario config"), ("plant", 5, "section 'plant'"),
     ("sim", [0.01, 100], "section 'sim'")],
)
def test_config_or_section_not_an_object_is_named(tmp_path, capsys, section, value, label):
    d = value if section is None else dict(config_to_dict(preset("example1")), **{section: value})
    message = "%s must be a JSON object, got %s" % (label, type(value).__name__)
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(d)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


def test_input_the_kind_does_not_read_is_rejected():
    d = config_to_dict(preset("example3"))
    d["controller"]["alpha1"] = 0.9  # attitude_only derives alpha1 = 2 alpha3 - 1
    with pytest.raises(ValueError, match=r"^controller: .*'attitude_only' takes no alpha1$"):
        config_from_dict(d)
    d = config_to_dict(preset("example1"))
    d["controller"]["k3"] = 7.0
    with pytest.raises(ValueError, match=r"^controller: .*'full_state' takes no k3$"):
        config_from_dict(d)
    observer = config_to_dict(preset("example2"))["observer"]
    filt = config_to_dict(preset("example3"))["filter"]
    for name, key, section in [("example1", "observer", observer), ("example1", "filter", filt),
                               ("example2", "filter", filt), ("example3", "observer", observer)]:
        d = config_to_dict(preset(name))
        d[key] = section
        with pytest.raises(ValueError, match="scenario does not read the %s section" % key):
            config_from_dict(d)


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


def test_gain_sets_and_logic_values_are_checked_at_load():
    d = config_to_dict(preset("example2"))
    d["observer"]["mu1"] = -1.0
    with pytest.raises(ValueError, match=r"^observer: gains mu1, mu2 must be positive"):
        config_from_dict(d)
    d = config_to_dict(preset("example1"))
    d["controller"]["alpha1"] = 1.5
    with pytest.raises(ValueError, match=r"^controller: alpha1 must lie in \(0, 1\]"):
        config_from_dict(d)
    d["controller"]["alpha1"] = 0.6
    d["controller"]["h0"] = 0
    with pytest.raises(ValueError, match=r"^controller\.h0 must be \+1 or -1, got 0"):
        config_from_dict(d)
    d = config_to_dict(preset("example3"))
    d["filter"]["h_tilde0"] = 2
    with pytest.raises(ValueError, match=r"^filter\.h_tilde0 must be \+1 or -1, got 2"):
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
    for name, value in (("dt_s", 0.0), ("t_final_s", -1.0)):
        cfg = preset("example1")
        setattr(cfg.sim, name, value)
        with pytest.raises(ValueError):
            cfg.validate()


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
