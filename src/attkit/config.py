"""Scenario configuration: dataclasses, JSON round-trip, bundled presets.

A scenario file is plain JSON with unit-suffixed field names.  Unknown keys,
and gains or sections that the controller kind does not read, are rejected so
typos fail loudly instead of silently running defaults.  Every field is
checked against its annotation (float, bool, int for a logic value, str,
list, "| None"), by _check_section, with a ValueError naming section.field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import kinds
from .controllers import ObserverGains
from .quat import unit_or_warn
from .rigid_body import (
    DesiredTrajectory,
    Inertia,
    regulation_trajectory,
    sinusoid_trajectory,
)
from .sensors import DisturbanceConfig, NoiseConfig


@dataclass
class PlantConfig:
    inertia_kgm2: list
    q0: list
    omega0_rad_s: list
    bias0_rad_s: list = field(default_factory=lambda: [0.0, 0.0, 0.0])


@dataclass
class TrajectoryConfig:
    kind: str = "sinusoid"  # or "regulation"
    amplitude_rad_s: float = 0.01
    frequency_rad_s: float = 0.01
    q_d0: list = field(default_factory=lambda: [1.0, 0.0, 0.0, 0.0])

    def build(self) -> DesiredTrajectory:
        if self.kind == "sinusoid":
            traj = sinusoid_trajectory(self.amplitude_rad_s, self.frequency_rad_s)
        elif self.kind == "regulation":
            traj = regulation_trajectory()
        else:
            raise ValueError("unknown trajectory kind %r" % self.kind)
        traj.q_d0 = unit_or_warn(self.q_d0, "trajectory.q_d0")
        return traj


@dataclass
class ControllerConfig:
    kind: str
    k1: float
    k2: float
    delta: float
    alpha1: float | None = None  # full_state / biased_gyro
    alpha3: float | None = None  # attitude_only
    k3: float | None = None  # attitude_only
    h0: int = 1

    def build(self):
        gains = kinds.get(self.kind).gains
        names = [f.name for f in fields(gains)]
        optional = [f.name for f in fields(self) if f.default is None]
        needs = [n for n in optional if n in names]
        if any(getattr(self, name) is None for name in needs):
            raise ValueError("controller kind %r requires %s" % (self.kind, " and ".join(needs)))
        extra = [n for n in optional if n not in names and getattr(self, n) is not None]
        if extra:
            raise ValueError("controller kind %r takes no %s" % (self.kind, " or ".join(extra)))
        return gains(**{name: getattr(self, name) for name in names})


@dataclass
class ObserverConfig:
    mu1: float
    mu2: float
    beta1: float
    h_tilde0: int = 1
    b_hat0_rad_s: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    q_hat0: list | None = None  # None: start at the measured initial attitude

    def build(self) -> ObserverGains:
        return ObserverGains(self.mu1, self.mu2, self.beta1)


@dataclass
class FilterConfig:
    h_tilde0: int = 1
    q_f0: list | None = None  # None: start at the measured initial error


@dataclass
class SimConfig:
    dt_s: float = 0.01
    t_final_s: float = 100.0

    def __post_init__(self) -> None:
        for name in ("dt_s", "t_final_s"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError("sim.%s must be positive, got %r" % (name, value))


@dataclass
class ScenarioConfig:
    name: str
    plant: PlantConfig
    trajectory: TrajectoryConfig
    controller: ControllerConfig
    noise: NoiseConfig
    disturbance: DisturbanceConfig
    sim: SimConfig
    observer: ObserverConfig | None = None
    filter: FilterConfig | None = None
    torque_limit_nm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the whole config, the gain sets it builds included; ValueError naming the field.

        Runs at construction and again where a run starts, so a field set on
        a built config is checked too.
        """
        _check_string("name", self.name)
        _check_number("torque_limit_nm", self.torque_limit_nm)
        for key in _SECTIONS:
            sec = getattr(self, key)
            if sec is not None:
                _check_section(key, vars(sec))  # before the section's own checks
                getattr(sec, "__post_init__", lambda: None)()
        # run and sweep name their default output directory after it
        if "\n" in self.name or "\r" in self.name:
            raise ValueError("name must be one line, got %r" % (self.name,))
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer, got %r" % (self.seed,))
        kind = self.controller.kind
        section = kinds.get(kind).section
        if section is not None and getattr(self, section) is None:
            raise ValueError("%s scenario requires the %s section" % (kind, section))
        for key in ("observer", "filter"):
            if key != section and getattr(self, key) is not None:
                raise ValueError("%s scenario does not read the %s section" % (kind, key))
        if not self.torque_limit_nm > 0.0:  # a clip to a non-positive limit is not saturation
            raise ValueError("torque_limit_nm must be positive, got %r" % self.torque_limit_nm)
        for key in ("controller", "observer"):  # the gain sets a run builds
            sec = getattr(self, key)
            if sec is not None:
                try:
                    sec.build()
                except ValueError as exc:
                    raise ValueError("%s: %s" % (key, exc)) from None

    def initial_quat(self) -> tuple:
        return unit_or_warn(self.plant.q0, "plant.q0")

    def inertia(self) -> Inertia:
        try:
            return Inertia(self.plant.inertia_kgm2)
        except ValueError as exc:
            raise ValueError("plant.inertia_kgm2: %s" % exc) from None


#: shape of every vector a scenario configures, and of the inertia matrix
_SHAPES = {
    "plant.inertia_kgm2": (3, 3),
    "plant.q0": (4,),
    "plant.omega0_rad_s": (3,),
    "plant.bias0_rad_s": (3,),
    "trajectory.q_d0": (4,),
    "observer.q_hat0": (4,),
    "observer.b_hat0_rad_s": (3,),
    "filter.q_f0": (4,),
}


def _check_number(label: str, value) -> None:
    if not (isinstance(value, float) or type(value) is int):  # a bool is an int subclass
        raise ValueError("%s must be a number, got %r" % (label, value))
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (label, value))


def _check_flag(label: str, value) -> None:
    if value is not True and value is not False:
        raise ValueError("%s must be true or false, got %r" % (label, value))


def _check_logic(label: str, value) -> None:
    if type(value) is not int or value not in (-1, 1):
        raise ValueError("%s must be +1 or -1, got %r" % (label, value))


def _check_string(label: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError("%s must be a string, got %r" % (label, value))


def _check_array(label: str, value, shape=None) -> None:
    """A list (or tuple) of finite numbers of shape _SHAPES[label]; rows are named label[i]."""
    shape = shape or _SHAPES[label]
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (label, value))
    if len(value) != shape[0]:
        raise ValueError("%s must have %d components, got %d" % (label, shape[0], len(value)))
    if len(shape) > 1:
        for i, row in enumerate(value):
            _check_array("%s[%d]" % (label, i), row, shape[1:])
    elif not all([isinstance(v, float) or type(v) is int for v in value]):
        raise ValueError("%s must hold numbers only, got %r" % (label, value))
    elif not all(map(math.isfinite, value)):
        raise ValueError("%s must be finite, got %r" % (label, value))


#: the check of each field annotation; "| None" admits None
_CHECKS = {
    "float": _check_number,
    "bool": _check_flag,
    "int": _check_logic,
    "str": _check_string,
    "list": _check_array,
}


# ---------------------------------------------------------------------------
# JSON round trip

_SECTIONS = {
    "plant": PlantConfig,
    "trajectory": TrajectoryConfig,
    "controller": ControllerConfig,
    "observer": ObserverConfig,
    "filter": FilterConfig,
    "noise": NoiseConfig,
    "disturbance": DisturbanceConfig,
    "sim": SimConfig,
}


#: per section, (field, "section.field", check, None admitted) from each annotation
_FIELD_CHECKS = {
    key: [
        (f.name, "%s.%s" % (key, f.name), _CHECKS[f.type.partition(" | ")[0]],
         f.type.endswith(" | None"))
        for f in fields(cls)
    ]
    for key, cls in _SECTIONS.items()
}


def _check_section(key: str, values: dict) -> None:
    """Check each field of section key that values holds against its annotation."""
    for name, label, check, optional in _FIELD_CHECKS[key]:
        if name in values:
            value = values[name]
            if value is not None or not optional:
                check(label, value)


def _build_section(cls, data: dict, label: str):
    if not isinstance(data, dict):
        raise ValueError("section %r must be a JSON object, got %s" % (label, type(data).__name__))
    allowed = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError("unknown field(s) %s in section %r" % (sorted(unknown), label))
    _check_section(label, data)  # before the section's own checks compare its values
    return cls(**data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"name": cfg.name, "seed": cfg.seed, "torque_limit_nm": cfg.torque_limit_nm}
    for key in _SECTIONS:
        val = getattr(cfg, key)
        out[key] = None if val is None else asdict(val)
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValueError("scenario config must be a JSON object, got %s" % type(data).__name__)
    top_allowed = {"name", "seed", "torque_limit_nm"} | set(_SECTIONS)
    unknown = set(data) - top_allowed
    if unknown:
        raise ValueError("unknown top-level field(s) %s" % sorted(unknown))
    kwargs = {
        "name": data.get("name", "scenario"),
        "seed": data.get("seed", 0),
        "torque_limit_nm": data.get("torque_limit_nm", 5.0),
    }
    for key, cls in _SECTIONS.items():
        raw = data.get(key)
        if raw is None:
            if key in ("observer", "filter"):
                kwargs[key] = None
                continue
            raise ValueError("missing required section %r" % key)
        kwargs[key] = _build_section(cls, raw, key)
    return ScenarioConfig(**kwargs)


def save_config(cfg: ScenarioConfig, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    return path


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError("malformed config %s: %s" % (path, exc)) from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Bundled benchmark presets.  All three share the same spacecraft: a rigid
# body with J = diag(15, 20, 10) kg m^2 starting 180 degrees from the target
# with a residual tumble, tracking a slow all-axes sinusoid.

_J = [[15.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 10.0]]
_Q0 = [0.0, 0.6, -0.8, 0.0]
_W0 = [0.3, -0.4, 0.0]


def _plant() -> PlantConfig:
    return PlantConfig(
        inertia_kgm2=[row[:] for row in _J], q0=list(_Q0), omega0_rad_s=list(_W0)
    )


def example1(alpha1: float = 0.6, uncertainties: bool = True, seed: int = 2024) -> ScenarioConfig:
    """Full-state tracking benchmark.  Gyro noise only; no bias."""
    return ScenarioConfig(
        name="example1",
        plant=_plant(),
        trajectory=TrajectoryConfig("sinusoid", 0.01, 0.01),
        controller=ControllerConfig(
            kind="full_state", k1=1.1, k2=4.0, delta=0.3, alpha1=alpha1, h0=1
        ),
        noise=NoiseConfig(
            enabled=uncertainties,
            attitude_cone_deg=0.01,
            gyro_sigma_deg_s=0.01,
            bias_walk_deg_s2=0.0,
        ),
        disturbance=DisturbanceConfig(enabled=uncertainties),
        sim=SimConfig(dt_s=0.01, t_final_s=100.0),
        seed=seed,
    )


def example2(
    beta1: float = 0.75, uncertainties: bool = True, seed: int = 2024
) -> ScenarioConfig:
    """Biased-gyro benchmark: certainty-equivalence control with the observer."""
    cfg = example1(alpha1=0.6, uncertainties=uncertainties, seed=seed)
    cfg.name = "example2"
    cfg.plant.bias0_rad_s = [0.01, -0.05, 0.02]
    cfg.controller.kind = "biased_gyro"
    cfg.observer = ObserverConfig(mu1=0.33, mu2=0.12, beta1=beta1, h_tilde0=1)
    cfg.noise.bias_walk_deg_s2 = 0.01
    return cfg


def example3(
    alpha3: float = 0.75, uncertainties: bool = True, seed: int = 2024
) -> ScenarioConfig:
    """Velocity-free benchmark: attitude-only measurements through the filter."""
    cfg = example1(uncertainties=uncertainties, seed=seed)
    cfg.name = "example3"
    cfg.controller = ControllerConfig(
        kind="attitude_only", k1=1.2, k2=2.4, k3=1.1, delta=0.3, alpha3=alpha3, h0=1
    )
    cfg.filter = FilterConfig(h_tilde0=1)
    cfg.sim.t_final_s = 150.0
    return cfg


def fig3(uncertainties: bool = False, seed: int = 2024) -> ScenarioConfig:
    """Rest-to-rest regulation about a single axis; 180 degree slew."""
    cfg = example1(alpha1=0.6, uncertainties=uncertainties, seed=seed)
    cfg.name = "fig3"
    cfg.plant.q0 = [0.0, 1.0, 0.0, 0.0]
    cfg.plant.omega0_rad_s = [0.0, 0.0, 0.0]
    cfg.trajectory = TrajectoryConfig("regulation")
    return cfg


PRESETS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "fig3": fig3,
}


def preset(name: str, **kwargs) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError("unknown preset %r (have %s)" % (name, sorted(PRESETS)))
    return PRESETS[name](**kwargs)
