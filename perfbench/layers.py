"""Outside-in layer timing for attkit.

Each hook names a function by the module namespace it is *called through*
(``attkit.sim.rk4_step``, ``attkit.analysis.full_state_torque``, ...).  The
tracer swaps that name for a timing wrapper and restores it afterwards, so
attkit's sources are never edited.  A hook whose target no longer exists (a
renamed or deleted helper) is reported as absent instead of failing the run.

Spans are aggregated as they close rather than stored one by one: a single
preset pass makes about 10^5 layer calls.  A layer's self time is its span
durations minus the time of the spans nested inside them; time spent in no
layer span is reported as the uncovered share.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from time import perf_counter

#: layer -> hook targets "module:attribute[.attribute]"
LAYERS = {
    "sensors.sample": (
        "attkit.sim:measure_attitude",
        "attkit.sim:measure_gyro",
        "attkit.sim:bias_step",
        "attkit.sim:saturate",
    ),
    "sensors.disturbance": ("attkit.sim:disturbance_torque",),
    "controllers.jump": (
        "attkit.sim:resolve_jumps",
        "attkit.sim:hysteresis_update",
        "attkit.sim:joint_jump",
        "attkit.analysis:hysteresis_update",
        "attkit.analysis:joint_jump",
    ),
    "controllers.law": (
        "attkit.sim:full_state_torque",
        "attkit.sim:ce_torque",
        "attkit.sim:output_feedback_torque",
        "attkit.sim:feedforward_torque",
        "attkit.analysis:full_state_torque",
        "attkit.analysis:output_feedback_torque",
        "attkit.analysis:feedforward_torque",
    ),
    "controllers.estimator": (
        "attkit.sim:observer_flow_rate",
        "attkit.sim:filter_flow_rate",
        "attkit.sim:observer_error",
        "attkit.sim:filter_error",
    ),
    "rigid_body.error": (
        "attkit.sim:error_quaternion",
        "attkit.sim:error_velocity",
        "attkit.sim:rotation_matrix",
        "attkit.cli:error_quaternion",
        "attkit.cli:error_velocity",
    ),
    "rigid_body.flow": (
        "attkit.sim:kinematics_rate",
        "attkit.sim:dynamics_rate",
        "attkit.analysis:error_dynamics_rate",
    ),
    "analysis.record": (
        "attkit.analysis:lyapunov_v1",
        "attkit.analysis:lyapunov_v2",
        "attkit.analysis:lyapunov_v2_matched",
        "attkit.analysis:lyapunov_v3",
        "attkit.analysis:lyapunov_v3_matched",
    ),
    "sim.rk4": ("attkit.sim:rk4_step",),
    "sim.renorm": ("attkit.sim:_renorm",),
    "sim.loop": ("attkit.sim:run_scenario",),
    "sim.trace_io": ("attkit.sim:save_trace", "attkit.sim:load_trace"),
    "analysis.flow_report": ("attkit.analysis:lyapunov_flow_report",),
    "analysis.homogeneity": ("attkit.analysis:homogeneity_check",),
    "analysis.perturbation": ("attkit.analysis:perturbation_vanishing_check",),
    "analysis.bounds": ("attkit.analysis:bound_checks", "attkit.analysis:convergence_metrics"),
    "config.build": (
        "attkit.config:preset",
        "attkit.config:config_from_dict",
        "attkit.config:ControllerConfig.build",
        "attkit.config:ObserverConfig.build",
        "attkit.config:TrajectoryConfig.build",
    ),
}

#: exact work counts; each must repeat exactly between runs of one seed
COUNTS = (
    "sim.steps",
    "sim.rk4.flow_evals",
    "controllers.jump.events",
    "sim.trace_io.bytes_written",
    "sim.trace_io.bytes_read",
    "analysis.flow_report.steps",
    "analysis.homogeneity.samples",
)

_TRACE_FILES = ("trace.csv", "events.csv")


def _resolve(target: str):
    """(owner, attribute name, current value) or None when the name is gone."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(value):
        return None
    return owner, leaf, value


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.self_s``, ``tr.calls``,
    ``tr.counts`` and ``tr.covered_s`` afterwards.  ``absent`` lists hook
    targets that could not be found."""

    def __init__(self, layers: dict = LAYERS) -> None:
        self.layers = layers
        self.self_s = {name: 0.0 for name in layers}
        self.calls = {name: 0 for name in layers}
        self.counts = {name: 0 for name in COUNTS}
        self.covered_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, targets in self.layers.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, leaf, fn = found
                self._saved.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(layer, target, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def _wrap(self, layer: str, target: str, fn):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        before, after = self._extras(target, fn)

        def span(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.covered_s += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- counters taken at the hook boundaries ------------------------------

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _extras(self, target: str, fn):
        """Argument and result taps that feed COUNTS for a few hooks."""
        counts = self.counts
        leaf = target.rpartition(":")[2]
        if leaf == "rk4_step":

            def before(args, kwargs):
                parent = self._parent()
                if parent == "sim.loop":
                    counts["sim.steps"] += 1
                elif parent == "analysis.flow_report":
                    counts["analysis.flow_report.steps"] += 1
                if args and callable(args[0]):
                    flow = args[0]

                    def counted(*a, **k):
                        counts["sim.rk4.flow_evals"] += 1
                        return flow(*a, **k)

                    args = (counted,) + tuple(args[1:])
                return args, kwargs

            return before, None
        if leaf == "run_scenario":

            def after(args, kwargs, trace):
                counts["controllers.jump.events"] += len(getattr(trace, "events", ()))

            return None, after
        if leaf == "lyapunov_flow_report":

            def after(args, kwargs, report):
                counts["controllers.jump.events"] += len(getattr(report, "jump_times", ()))

            return None, after
        if leaf == "save_trace":

            def after(args, kwargs, paths):
                counts["sim.trace_io.bytes_written"] += sum(Path(p).stat().st_size for p in paths)

            return None, after
        if leaf == "load_trace":

            def before(args, kwargs):
                out = Path(args[0] if args else kwargs["out_dir"])
                counts["sim.trace_io.bytes_read"] += sum(
                    (out / f).stat().st_size for f in _TRACE_FILES if (out / f).exists()
                )
                return args, kwargs

            return before, None
        if leaf == "homogeneity_check":
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["analysis.homogeneity.samples"] += int(
                    bound.arguments.get("n_samples", 0)
                )
                return args, kwargs

            return before, None
        return None, None
