"""Scenario configuration: dataclasses, JSON round-trip, bundled presets.

A scenario file is plain JSON with unit-suffixed field names.  The dataclass
declarations are the only schema: one table per record, read off them at
import, loads, checks and dumps the top level and each section alike.  An
annotation names its field's check ("| None" admits None), a default lives
only in its declaration, and every bad field, missing or wrong section, and
gain or section that the controller kind does not read raises a ValueError
naming section.field.  Zero is off: a run is noise-free when the noise.*
magnitudes are 0, disturbance-free at disturbance.amplitude_nm = 0, and
rest-to-rest at trajectory.amplitude_rad_s or trajectory.frequency_rad_s = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

from . import kinds
from .controllers import ObserverGains, check_logic
from .quat import unit_or_warn
from .rigid_body import DesiredTrajectory, Inertia, inertia_of, sinusoid_trajectory
from .sensors import DisturbanceConfig, NoiseConfig

#: annotation aliases with checks of their own: Logic is +1 or -1; Vec3, Quat and
#: Matrix3 hold 3, 4, and 3 rows of 3 finite numbers
Logic = int
Vec3 = Quat = Matrix3 = list


@dataclass(slots=True)
class PlantConfig:
    inertia_kgm2: Matrix3
    q0: Quat
    omega0_rad_s: Vec3
    bias0_rad_s: Vec3 = field(default_factory=lambda: [0.0, 0.0, 0.0])


@dataclass(slots=True)
class TrajectoryConfig:
    amplitude_rad_s: float = 0.01  # amplitude or frequency 0: rest-to-rest pointing at q_d0
    frequency_rad_s: float = 0.01
    q_d0: Quat = field(default_factory=lambda: [1.0, 0.0, 0.0, 0.0])

    def build(self) -> DesiredTrajectory:
        q_d0 = unit_or_warn(self.q_d0, "trajectory.q_d0")
        return sinusoid_trajectory(self.amplitude_rad_s, self.frequency_rad_s, q_d0)


@dataclass(slots=True)
class ControllerConfig:
    kind: str
    k1: float
    k2: float
    delta: float
    alpha1: float | None = None  # full_state / biased_gyro
    alpha3: float | None = None  # attitude_only
    k3: float | None = None  # attitude_only
    h0: Logic = 1

    def build(self):
        gains = kinds.get(self.kind).gains
        names = gains.__dataclass_fields__  # the gain set's fields, by name
        needs = [n for n in _OPTIONAL_GAINS if n in names]
        if any(getattr(self, name) is None for name in needs):
            raise ValueError("controller kind %r requires %s" % (self.kind, " and ".join(needs)))
        extra = [n for n in _OPTIONAL_GAINS if n not in names and getattr(self, n) is not None]
        if extra:
            raise ValueError("controller kind %r takes no %s" % (self.kind, " or ".join(extra)))
        return gains(**{name: getattr(self, name) for name in names})


@dataclass(slots=True)
class ObserverConfig:
    mu1: float
    mu2: float
    beta1: float
    h_tilde0: Logic = 1
    b_hat0_rad_s: Vec3 = field(default_factory=lambda: [0.0, 0.0, 0.0])
    q_hat0: Quat | None = None  # None: start at the measured initial attitude

    def build(self) -> ObserverGains:
        return ObserverGains(self.mu1, self.mu2, self.beta1)


@dataclass(slots=True)
class FilterConfig:
    h_tilde0: Logic = 1
    q_f0: Quat | None = None  # None: start at the measured initial error


@dataclass(slots=True)
class SimConfig:
    dt_s: float = 0.01
    t_final_s: float = 100.0


@dataclass(slots=True)
class ScenarioConfig:
    plant: PlantConfig
    trajectory: TrajectoryConfig
    controller: ControllerConfig
    noise: NoiseConfig
    disturbance: DisturbanceConfig
    sim: SimConfig
    observer: ObserverConfig | None = None  # the section of the kind that reads it
    filter: FilterConfig | None = None
    name: str = "scenario"
    torque_limit_nm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the whole config, the gain sets it builds included; ValueError naming the field.

        Runs at construction and again where a run starts, so a field set on
        a built config is checked too.
        """
        _check_record(ScenarioConfig, "scenario", self)
        positive = {"torque_limit_nm": self.torque_limit_nm,  # else a clip is not saturation
                    "sim.dt_s": self.sim.dt_s, "sim.t_final_s": self.sim.t_final_s}
        for label, value in positive.items():
            if value <= 0.0:
                raise ValueError("%s must be positive, got %r" % (label, value))
        for name in ("attitude_cone_deg", "gyro_sigma_deg_s", "bias_walk_deg_s2"):
            value = getattr(self.noise, name)
            if value < 0.0:
                raise ValueError("noise.%s must be nonnegative, got %r" % (name, value))
        if self.noise.attitude_cone_deg > 180.0:
            raise ValueError("noise.attitude_cone_deg must be at most 180, got %r: a half-angle"
                             " past 180 degrees wraps the cone around the sphere"
                             % (self.noise.attitude_cone_deg,))
        kind = self.controller.kind
        if kind not in kinds.KINDS:
            *names, last = map(repr, kinds.KINDS)
            raise ValueError("controller.kind must be %s or %s, got %r"
                             % (", ".join(names), last, kind))
        # run and sweep name their default output directory after it
        if "\n" in self.name or "\r" in self.name:
            raise ValueError("name must be one line, got %r" % (self.name,))
        section = kinds.get(kind).section
        if section is not None and getattr(self, section) is None:
            raise ValueError("%s scenario requires the %s section" % (kind, section))
        for key in _OPTIONAL_SECTIONS:
            if key != section and getattr(self, key) is not None:
                raise ValueError("%s scenario does not read the %s section" % (kind, key))
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
            return inertia_of(self.plant.inertia_kgm2)
        except ValueError as exc:
            raise ValueError("plant.inertia_kgm2: %s" % exc) from None


# ---------------------------------------------------------------------------
# The schema: one table per record, read off the declarations above


def _check_number(label: str, value) -> None:
    if not (isinstance(value, float) or type(value) is int):  # a bool is an int subclass
        raise ValueError("%s must be a number, got %r" % (label, value))
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (label, value))


def _check_count(label: str, value) -> None:
    if type(value) is not int or value < 0:  # a bool is an int subclass
        raise ValueError("%s must be a non-negative integer, got %r" % (label, value))


def _check_string(label: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError("%s must be a string, got %r" % (label, value))


def _check_array(shape: tuple, label: str, value) -> None:
    """A list (or tuple) of finite numbers of the given shape; rows are named label[i]."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (label, value))
    if len(value) != shape[0]:
        raise ValueError("%s must have %d components, got %d" % (label, shape[0], len(value)))
    if len(shape) > 1:
        for i, row in enumerate(value):
            _check_array(shape[1:], "%s[%d]" % (label, i), row)
    elif not all([isinstance(v, float) or type(v) is int for v in value]):
        raise ValueError("%s must hold numbers only, got %r" % (label, value))
    elif not all(map(math.isfinite, value)):
        raise ValueError("%s must be finite, got %r" % (label, value))


#: the check of each annotation that names no record
_CHECKS = {
    "float": _check_number,
    "int": _check_count,
    "str": _check_string,
    "Logic": check_logic,
    "Vec3": partial(_check_array, (3,)),
    "Quat": partial(_check_array, (4,)),
    "Matrix3": partial(_check_array, (3, 3)),
}


#: record type -> (name, label, check, optional, required, record) per field, in
#: order: label "section.field" (the bare name at the top level), optional if
#: annotated "| None", required if it has no default, record a section slot's type
#: (else None).  Plain tuples, which the hot loops unpack fastest.
_SCHEMA: dict[type, list[tuple]] = {}


def _add_schema(cls, prefix: str = "") -> None:
    """Enter record cls, labelled prefix + name, and each section it holds in _SCHEMA."""
    table = []
    for f in fields(cls):
        kind, _, none = f.type.partition(" | ")
        record = None if kind in _CHECKS else globals()[kind]  # a record declared here
        if record is not None:
            _add_schema(record, f.name + ".")
        check = _CHECKS[kind] if record is None else partial(_check_record, record)
        required = f.default is MISSING and f.default_factory is MISSING
        table.append((f.name, prefix + f.name, check, none == "None", required, record))
    _SCHEMA[cls] = table


def _check_record(cls, slot: str, rec) -> None:
    """rec, in the config's `slot`, is a cls whose every field passes its check."""
    if not isinstance(rec, cls):
        raise ValueError("%s must be of type %s, got %r" % (slot, cls.__name__, rec))
    for name, label, check, optional, _, _ in _SCHEMA[cls]:
        value = getattr(rec, name)
        if value is not None or not optional:
            check(label, value)


_add_schema(ScenarioConfig)
#: the sections a scenario may leave out; a kind reads at most one of them
_OPTIONAL_SECTIONS = [name for name, _, _, optional, _, _ in _SCHEMA[ScenarioConfig] if optional]
#: the gains that only some kinds read
_OPTIONAL_GAINS = [name for name, _, _, optional, _, _ in _SCHEMA[ControllerConfig] if optional]


# ---------------------------------------------------------------------------
# JSON round trip


def _build(cls, data, where: str):
    """A cls from its JSON object; ValueError naming a non-object, unknown or missing field."""
    if not isinstance(data, dict):
        raise ValueError("%s must be a JSON object, got %s" % (where, type(data).__name__))
    unknown = data.keys() - cls.__dataclass_fields__.keys()
    if unknown:
        raise ValueError("unknown field(s) %s in %s" % (sorted(unknown), where))
    kwargs = {}
    for name, label, _, _, required, record in _SCHEMA[cls]:
        if record is None:
            if name in data:
                kwargs[name] = data[name]
            elif required:
                raise ValueError("missing required field %s" % label)
        elif data.get(name) is not None:
            kwargs[name] = _build(record, data[name], "section %r" % name)
        elif required:
            raise ValueError("missing required section %r" % name)
    return cls(**kwargs)  # ScenarioConfig.validate checks the values


def _to_json(value):
    """value as JSON data: a record becomes an object of its fields, a sequence a list."""
    table = _SCHEMA.get(type(value))
    if table is not None:
        return {f[0]: _to_json(getattr(value, f[0])) for f in table}
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _to_json(cfg)


def config_from_dict(data: dict) -> ScenarioConfig:
    return _build(ScenarioConfig, data, "scenario config")


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
    scale = 1.0 if uncertainties else 0.0
    return ScenarioConfig(
        name="example1",
        plant=_plant(),
        trajectory=TrajectoryConfig(0.01, 0.01),
        controller=ControllerConfig(
            kind="full_state", k1=1.1, k2=4.0, delta=0.3, alpha1=alpha1, h0=1
        ),
        noise=NoiseConfig(
            attitude_cone_deg=0.01 * scale,
            gyro_sigma_deg_s=0.01 * scale,
            bias_walk_deg_s2=0.0,
        ),
        disturbance=DisturbanceConfig(amplitude_nm=0.02 * scale),
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
    cfg.noise.bias_walk_deg_s2 = 0.01 if uncertainties else 0.0
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
    cfg.trajectory = TrajectoryConfig(amplitude_rad_s=0.0)
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
