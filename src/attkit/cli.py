"""Command-line front end.

Verbs:

  run <config> [--out DIR] [--seed N]      simulate, write trace + summary
  sweep <config> --param P --values LIST   one run per value, in order
  verify <config> [--samples N]            analysis suite only, no trace files
  presets [name] [--out FILE]              list or emit the bundled presets

Every verb prints one JSON document to stdout.  Failures print a JSON record
{"error": <type>, "message": <text>} to stderr and exit nonzero, so callers
never have to scrape tracebacks.  Summaries carry a content digest (trace
bytes plus metrics) so identical seeds can be checked for identical runs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from pathlib import Path

from . import analysis, config, kinds, sim
from .integrate import step_count


def run(cfg: config.ScenarioConfig, out_dir: str | Path) -> dict:
    """Simulate one scenario; write trace.npz (save_trace: rows and jump events)
    and summary.json, whose digest covers the reports and trace.npz."""
    out = Path(out_dir)
    trace = sim.run_scenario(cfg)
    (trace_path,) = sim.save_trace(trace, out)
    conv = analysis.convergence_metrics(trace)
    obs_gains = cfg.observer.build() if cfg.observer is not None else None
    bounds = analysis.bound_checks(
        trace, cfg.controller.build(), cfg.inertia(), cfg.trajectory.build(),
        observer_gains=obs_gains,
    )
    payload = {
        "name": cfg.name,
        "kind": cfg.controller.kind,
        "seed": cfg.seed,
        "convergence": conv.to_dict(),
        "bounds": bounds.to_dict(),
    }
    digest = hashlib.sha256()
    digest.update(json.dumps(payload, sort_keys=True).encode())
    digest.update(trace_path.read_bytes())
    summary = dict(payload)
    summary["digest"] = digest.hexdigest()
    summary["trace_file"] = str(trace_path)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _first_step(cfg: config.ScenarioConfig) -> sim.SimTrace:
    """A validated copy of cfg run one step with zero noise magnitudes.  run_scenario
    builds all the run will (inertia, reference and initial quaternions too, which
    validate() does not), so a config a run rejects fails with its message."""
    probe = copy.deepcopy(cfg)
    probe.validate()
    probe.noise = config.NoiseConfig(0.0, 0.0, 0.0)
    probe.sim.t_final_s = probe.sim.dt_s
    return sim.run_scenario(probe)


def _set_param(cfg: config.ScenarioConfig, path: str, value) -> config.ScenarioConfig:
    """Return a copy of cfg with the dotted parameter replaced, checked by _first_step."""
    cfg = copy.deepcopy(cfg)
    obj = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(obj, part) or getattr(obj, part) is None:
            raise ValueError("unknown or empty parameter section %r in %r" % (part, path))
        obj = getattr(obj, part)
    if not hasattr(obj, parts[-1]):
        raise ValueError("unknown parameter %r" % path)
    setattr(obj, parts[-1], value)
    _first_step(cfg)
    return cfg


def _name_part(value) -> str:
    """A swept value as part of a run name: lists flattened and joined with '_'."""
    return "_".join(map(_name_part, value)) if isinstance(value, list) else str(value)


def sweep(
    cfg: config.ScenarioConfig, param: str, values: list, out_root: str | Path
) -> dict:
    """Run one scenario per parameter value, each in its own `<leaf>_<value>` subdirectory."""
    if not values:
        raise ValueError("sweep needs at least one value for %r" % param)
    root = Path(out_root)
    leaf = param.split(".")[-1]
    named = {}
    for value in values:
        name = "%s_%s" % (leaf, _name_part(value))
        if any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
            raise ValueError("sweep value %r puts a path separator in run %r" % (value, name))
        if name in named:
            raise ValueError("sweep values %r and %r share run %r" % (named[name], value, name))
        named[name] = value
    jobs = []
    for name, value in named.items():
        sub = _set_param(cfg, param, value)
        sub.name = "%s_%s" % (cfg.name, name)
        jobs.append((sub, root / name))
    summaries = [run(*job) for job in jobs]
    result = {"sweep": param, "values": values, "runs": summaries}
    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def verify(cfg: config.ScenarioConfig, n_samples: int = 2000) -> dict:
    """Run the scenario's analysis suite: homogeneity, remainder decay, flow checks.

    The flow check starts at analysis.start_state(_first_step(cfg)), so a
    config whose first step fails fails here with the run's message.  The
    flow check runs min(30, sim.t_final_s) at dt = 1e-3, in integrate.step_count's
    whole steps; a horizon under analysis.MIN_FLOW_STEPS steps fails naming
    sim.t_final_s.
    """
    if n_samples < 1:  # zero samples would pass the homogeneity check unchecked
        raise ValueError("samples must be at least 1, got %r" % n_samples)
    y0, h0, h_tilde0 = analysis.start_state(_first_step(cfg))
    dt = 1e-3
    horizon = min(30.0, cfg.sim.t_final_s)
    steps = step_count(horizon, dt, "sim.t_final_s", "dt")
    if steps < analysis.MIN_FLOW_STEPS:
        raise ValueError(
            "sim.t_final_s: %r s gives the flow check %d steps of %r s; it needs at least %d"
            % (cfg.sim.t_final_s, steps, dt, analysis.MIN_FLOW_STEPS)
        )
    error_system = kinds.get(cfg.controller.kind).error_system
    es = analysis.ERROR_SYSTEMS[error_system]
    gains = cfg.controller.build()
    es_gains = cfg.observer.build() if es.observer else gains
    inertia = cfg.inertia()
    traj = cfg.trajectory.build()

    weights = es.weights(es_gains)
    deviation = analysis.homogeneity_check(
        es.reduced_field(es_gains, inertia), weights, n_samples=n_samples
    )
    homogeneous_ok = deviation < 1e-9
    ratios = analysis.perturbation_vanishing_check(
        es.remainder(es_gains, inertia, traj), weights, es.blocks,
        n_samples=max(n_samples // 10, 20),
    )
    # a block that is exactly zero at every eps (the bias block at beta1 = 1) has vanished
    monotone = all(
        not any(row) or all(a > b for a, b in zip(row, row[1:])) for row in ratios.values()
    )

    sigma = es.sigma(es_gains, cfg.controller.delta)
    governing = es.governing
    report = analysis.lyapunov_flow_report(
        error_system, es_gains,
        y0=y0,
        inertia=inertia, trajectory=traj,
        h0=h0, h_tilde0=h_tilde0, delta=cfg.controller.delta,
        dt=dt, t_final=steps * dt,  # whole steps, so the report does not warn again
    )
    # Configs that start an estimator error-free sit exactly at the fractional
    # powers' Holder point, where one fixed RK4 step carries O(dt^1.5) local
    # error even though the exact flow is monotone; allow that floor.
    flow_ok = report.flow_excess[governing] <= dt**1.5
    drops_ok = all(d >= sigma - 1e-9 for d in report.jump_drops[governing])

    return {
        "ok": homogeneous_ok and monotone and flow_ok and drops_ok,
        "kind": cfg.controller.kind,
        "homogeneity_deviation": deviation,
        "homogeneity_ok": homogeneous_ok,
        "perturbations_monotone": monotone,
        "governing_candidate": governing,
        "flow_excess": report.flow_excess,
        "flow_ok": bool(flow_ok),
        "min_jump_decrease": sigma,
        "jump_drops": {k: list(v) for k, v in report.jump_drops.items()},
        "jump_drops_ok": bool(drops_ok),
        "fd_rel_error": report.fd_rel_error,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attkit", description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_run = verbs.add_parser("run", help="simulate one scenario config")
    p_run.add_argument("config", help="scenario config JSON file")
    p_run.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sweep = verbs.add_parser("sweep", help="run the config once per parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted field path, e.g. controller.alpha1")
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated JSON values, e.g. 0.6,1.0 or [1,0,0,0],[0,1,0,0]",
    )
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    p_verify = verbs.add_parser("verify", help="run the analysis suite only")
    p_verify.add_argument("config")
    p_verify.add_argument("--samples", type=int, default=2000, help="homogeneity sample count")

    p_presets = verbs.add_parser("presets", help="list bundled presets or emit one")
    p_presets.add_argument("name", nargs="?", default=None)
    p_presets.add_argument("--out", default=None, help="write the preset config to this file")

    return parser


def _dispatch(args: argparse.Namespace) -> dict:
    if args.verb == "presets":
        if args.name is None:
            return {"presets": sorted(config.PRESETS)}
        cfg = config.preset(args.name)
        if args.out is not None:
            config.save_config(cfg, args.out)
        return config.config_to_dict(cfg)

    cfg = config.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if args.verb == "run":
        return run(cfg, args.out if args.out is not None else Path("runs") / cfg.name)
    if args.verb == "sweep":
        try:  # one JSON array, so a list or matrix value may hold commas too
            values = json.loads("[%s]" % args.values)
        except json.JSONDecodeError:
            raise ValueError("--values must be comma-separated JSON values, got %r"
                             % args.values) from None
        out = args.out if args.out is not None else Path("runs") / ("%s_sweep" % cfg.name)
        return sweep(cfg, args.param, values, out)
    return verify(cfg, n_samples=args.samples)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
