"""Scenario configuration: dataclasses, JSON round-trip, bundled presets.

A scenario file is plain JSON with unit-suffixed field names.  Unknown keys
are rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import kinds
from .controllers import ObserverGains
from .quat import Array, unit_or_warn
from .rigid_body import (
    DesiredTrajectory,
    Inertia,
    regulation_trajectory,
    sinusoid_trajectory,
)
from .sensors import DisturbanceConfig, NoiseConfig

CONTROLLER_KINDS = tuple(kinds.KINDS)


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
        traj.q_d0 = unit_or_warn(np.asarray(self.q_d0, dtype=float), "trajectory.q_d0")
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
        needs = [f.name for f in fields(self) if f.default is None and f.name in names]
        if any(getattr(self, name) is None for name in needs):
            raise ValueError("controller kind %r requires %s" % (self.kind, " and ".join(needs)))
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
    max_consecutive_jumps: int = 4

    def __post_init__(self) -> None:
        if self.dt_s <= 0.0 or self.t_final_s <= 0.0:
            raise ValueError("dt_s and t_final_s must be positive")
        if self.max_consecutive_jumps < 1:
            raise ValueError("max_consecutive_jumps must be at least 1")


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
        kind = self.controller.kind
        section = kinds.get(kind).section
        if section is not None and getattr(self, section) is None:
            raise ValueError("%s scenario requires the %s section" % (kind, section))
        numbers = [("torque_limit_nm", self.torque_limit_nm)]
        for key in _SECTIONS:
            sec = getattr(self, key)
            if sec is not None:
                numbers += [("%s.%s" % (key, f.name), getattr(sec, f.name)) for f in fields(sec)]
        for label, value in numbers:
            if not _finite(value):
                raise ValueError("%s must be finite, got %r" % (label, value))

    def initial_quat(self) -> Array:
        return unit_or_warn(np.asarray(self.plant.q0, dtype=float), "plant.q0")

    def inertia(self) -> Inertia:
        return Inertia(self.plant.inertia_kgm2)


def _finite(value) -> bool:
    """False for a NaN or infinite float, also inside (nested) lists."""
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


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


def _build_section(cls, data: dict, label: str):
    allowed = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError("unknown field(s) %s in section %r" % (sorted(unknown), label))
    return cls(**data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"name": cfg.name, "seed": cfg.seed, "torque_limit_nm": cfg.torque_limit_nm}
    for key in _SECTIONS:
        val = getattr(cfg, key)
        out[key] = None if val is None else asdict(val)
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    data = dict(data)
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
    cfg.noise = replace(cfg.noise, bias_walk_deg_s2=0.01)
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
