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
import sys
from pathlib import Path

import numpy as np

from . import analysis, config, kinds, sim
from .rigid_body import error_quaternion, error_velocity


def run(cfg: config.ScenarioConfig, out_dir: str | Path) -> dict:
    """Simulate one scenario; write trace.csv, events.csv, summary.json."""
    out = Path(out_dir)
    trace = sim.run_scenario(cfg)
    trace_path, events_path = sim.save_trace(trace, out)
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
    digest.update(events_path.read_bytes())
    summary = dict(payload)
    summary["digest"] = digest.hexdigest()
    summary["trace_file"] = str(trace_path)
    summary["events_file"] = str(events_path)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _set_param(cfg: config.ScenarioConfig, path: str, value) -> config.ScenarioConfig:
    """Return a validated copy of cfg with the dotted parameter replaced."""
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
    # round-trip re-runs every section's validation on the mutated copy
    return config.config_from_dict(config.config_to_dict(cfg))


def sweep(
    cfg: config.ScenarioConfig, param: str, values: list, out_root: str | Path
) -> dict:
    """Run one scenario per parameter value, each in its own subdirectory."""
    if not values:
        raise ValueError("sweep needs at least one value for %r" % param)
    root = Path(out_root)
    leaf = param.split(".")[-1]
    jobs = []
    for value in values:
        sub = _set_param(cfg, param, value)
        sub.name = "%s_%s_%s" % (cfg.name, leaf, value)
        jobs.append((sub, root / ("%s_%s" % (leaf, value))))
    summaries = [run(*job) for job in jobs]
    result = {"sweep": param, "values": values, "runs": summaries}
    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def _verify_initial_state(cfg: config.ScenarioConfig) -> np.ndarray:
    """Noise-free error-coordinate initial state for the config's flow check."""
    kind = kinds.get(cfg.controller.kind)
    traj = cfg.trajectory.build()
    q0 = cfg.initial_quat()
    w0 = np.asarray(cfg.plant.omega0_rad_s, dtype=float)
    q_e0 = error_quaternion(traj.q_d0, q0)
    w_e0, _ = error_velocity(q_e0, w0, traj.omega_fn(0.0))
    est, _ = kind.start(cfg, q0, q_e0)
    b_err0 = np.asarray(cfg.plant.bias0_rad_s, float) - kind.bias(est)
    es = analysis.ERROR_SYSTEMS[kind.error_system]
    return es.coords(q_e0, w_e0, kind.lag(est, q0, q_e0), b_err0)


def verify(cfg: config.ScenarioConfig, n_samples: int = 2000) -> dict:
    """Run the scenario's analysis suite: homogeneity, remainder decay, flow checks.

    Degenerate exponents (alpha1 = 1, beta1 = 1, alpha3 = 1) have no negative
    homogeneity degree, so those checks report null instead of failing.
    """
    error_system = kinds.get(cfg.controller.kind).error_system
    es = analysis.ERROR_SYSTEMS[error_system]
    gains = cfg.controller.build()
    es_gains = cfg.observer.build() if es.observer else gains
    inertia = cfg.inertia()
    traj = cfg.trajectory.build()
    eps_values = (1e-1, 1e-2, 1e-3, 1e-4)

    try:
        weights = es.weights(es_gains)
    except ValueError:  # exponent at its degenerate limit
        weights = None

    if weights is None:
        deviation, homogeneous_ok, monotone = None, None, None
    else:
        field = es.reduced_field(es_gains, inertia)
        deviation = analysis.homogeneity_check(field, weights, n_samples=n_samples)
        homogeneous_ok = deviation < 1e-9
        ratios = analysis.perturbation_vanishing_check(
            es.perturbations(es_gains, inertia, traj), weights,
            n_samples=max(n_samples // 10, 20), eps_values=eps_values,
        )
        monotone = all(
            all(a > b for a, b in zip(row, row[1:])) for row in ratios.values()
        )

    sigma = es.sigma(es_gains, cfg.controller.delta)
    governing = es.governing
    dt = 1e-3
    report = analysis.lyapunov_flow_report(
        error_system, es_gains,
        y0=_verify_initial_state(cfg),
        inertia=inertia, trajectory=traj,
        h0=cfg.controller.h0, delta=cfg.controller.delta,
        dt=dt, t_final=min(30.0, cfg.sim.t_final_s),
    )
    # Configs that start an estimator error-free sit exactly at the fractional
    # powers' Holder point, where one fixed RK4 step carries O(dt^1.5) local
    # error even though the exact flow is monotone; allow that floor.
    flow_ok = report.flow_excess[governing] <= dt**1.5
    drops_ok = all(d >= sigma - 1e-9 for d in report.jump_drops[governing])

    ok = all(x is not False for x in (homogeneous_ok, monotone, flow_ok, drops_ok))
    return {
        "ok": bool(ok),
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
    p_sweep.add_argument("--values", required=True, help="comma-separated JSON scalars")
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
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
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
