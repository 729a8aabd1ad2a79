"""The benchmark's three workloads, their items, and the reference checks.

An item is one closed-loop call into attkit.  ``observe`` turns an item's
output into a canonical record with three parts:

  exact   values that must equal the reference (jump events, verdicts, flags)
  close   floats that may move by at most TRACE_TOL (trace rows, bounds,
          convergence figures); NaN and infinities are kept as strings
  digest  the summary digest of ``attkit run``; a mismatch alone is not a
          failure while ``exact`` and ``close`` hold

The references in ``refs/`` are such records, written by ``record_refs.py``
from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: largest absolute difference from the reference that still counts as correct
TRACE_TOL = 1e-9

#: presets: horizons chosen so each item costs about the same at the seed
PRESET_HORIZONS_S = {"example1": 7.0, "example2": 5.0, "example3": 5.0, "fig3": 9.0}
#: rows of a preset trace kept in its reference (every TRACE_STRIDE-th, and the last)
TRACE_STRIDE = 25

#: ensemble: the pool the seed draws from, generated as test_c05 does;
#: (kind, preset, items per pass, horizon in s), horizons again chosen so
#: each item costs about the same at the seed
POOL_SEED = 20240823
POOL_PER_KIND = 100
ENSEMBLE_KINDS = (
    ("full_state", "example1", 34, 0.3),
    ("biased_gyro", "example2", 33, 0.2),
    ("attitude_only", "example3", 33, 0.2),
)

#: verify: flow horizon (sim.t_final_s caps it), balanced as above, and
#: homogeneity sample count
VERIFY_HORIZONS_S = {"example1": 0.4, "example2": 2.0, "example3": 0.4}
VERIFY_SAMPLES = 500
#: verify: start states, set through the config, from which the flow report
#: crosses one hysteresis jump inside the horizon (at about 0.13, 0.54 and
#: 0.13 s): the attitude error starts just inside the hysteresis band and
#: turns away from h = 1, or, for the observer, a large bias error turns the
#: estimate away from h_tilde = 1
_S = -0.25
_EDGE_Q = [_S, math.sqrt(1.0 - _S * _S), 0.0, 0.0]
VERIFY_STARTS = {
    "example1": {"plant": {"q0": _EDGE_Q, "omega0_rad_s": [0.8, 0.0, 0.0]}},
    "example2": {
        "plant": {"q0": [1.0, 0.0, 0.0, 0.0], "bias0_rad_s": [0.5, 0.0, 0.0]},
        "observer": {"q_hat0": _EDGE_Q},
    },
    "example3": {"plant": {"q0": _EDGE_Q, "omega0_rad_s": [0.8, 0.0, 0.0]}},
}

#: trace attributes compared row by row (every numeric column of a trace)
_TRACE_ATTRS = (
    "t", "q", "w", "q_d", "q_e", "w_e", "h", "h_tilde", "b", "b_hat", "q_est_err",
    "u_cmd", "u_app", "d", "v1", "v2", "v2m", "v3", "v3m",
)
_FINAL_ATTRS = ("q", "w", "q_e", "w_e", "b_hat", "q_est_err", "u_cmd", "v1", "v2", "v2m", "v3m")


def _floats(values) -> list:
    """Flatten to a JSON-safe list; non-finite values become their repr."""
    out = []
    for x in np.ravel(np.asarray(values, dtype=float)):
        x = float(x)
        out.append(x if math.isfinite(x) else repr(x))
    return out


def _events(trace) -> list:
    return [[e.step, e.h_pre, e.h_post, e.ht_pre, e.ht_post] for e in trace.events]


def _bounds(rep) -> tuple[dict, list]:
    flags = {
        "torque_ok": rep.torque_ok,
        "jump_ok": rep.jump_ok,
        "gronwall_ok": rep.gronwall_ok,
        "jump_count": rep.jump_count,
    }
    figures = _floats(
        [rep.torque_bound_nm, rep.torque_bound_alt_nm, rep.max_torque_inf_nm,
         rep.jump_bound, rep.gronwall_margin]
    )
    return flags, figures


# ---------------------------------------------------------------------------
# Workload definitions.  Each builds (item id, config dict) pairs in setup;
# an item rebuilds its config from the dict, so config validation is timed.


class Workload:
    name = ""
    #: item_tail_s percentile over the item times: the highest of p50, p75,
    #: p90, p95 and p99 with at least ten items beyond it, or, with fewer than
    #: eleven items, where none has, the slowest item (p100)
    tail_percentile = 100.0

    def __init__(self, attkit, out_dir: Path) -> None:
        self.ak = attkit
        self.out_dir = out_dir

    def specs(self, seed: int, tiny: bool) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def steps(self, spec: dict) -> int:
        """Integrator steps one item takes, from its config alone."""
        return int(round(spec["sim"]["t_final_s"] / spec["sim"]["dt_s"]))

    def run(self, item_id: str, spec: dict):
        raise NotImplementedError

    def observe(self, output) -> dict:
        raise NotImplementedError


def _order(ids: list[str], seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [ids[k] for k in rng.permutation(len(ids))]


class Presets(Workload):
    """``attkit run`` then ``load_trace`` on each bundled preset as shipped
    (its own noise, disturbance and seed); the seed only orders the items."""

    name = "presets"

    def specs(self, seed, tiny):
        config = self.ak.config
        names = ["fig3", "example2"] if tiny else sorted(PRESET_HORIZONS_S)
        out = []
        for name in _order(names, seed):
            cfg = config.preset(name)
            cfg.sim.t_final_s = PRESET_HORIZONS_S[name]
            out.append((name, config.config_to_dict(cfg)))
        return out

    def run(self, item_id, spec):
        ak = self.ak
        cfg = ak.config.config_from_dict(spec)
        summary = ak.cli.run(cfg, self.out_dir / item_id)
        trace = ak.sim.load_trace(self.out_dir / item_id)
        return summary, trace

    def observe(self, output):
        summary, trace = output
        conv, bounds = summary["convergence"], summary["bounds"]
        rows = list(range(0, len(trace.t), TRACE_STRIDE))
        if rows[-1] != len(trace.t) - 1:
            rows.append(len(trace.t) - 1)
        close = {
            "convergence": _floats(
                [conv["settling_time_s"], conv["steady_state_error"], conv["max_torque_inf_nm"]]
            ),
            "bounds": _floats(
                [bounds[k] for k in ("torque_bound_nm", "torque_bound_alt_nm",
                                     "max_torque_inf_nm", "jump_bound", "gronwall_margin")]
            ),
        }
        for attr in _TRACE_ATTRS:
            close["trace." + attr] = _floats(getattr(trace, attr)[rows])
        exact = {
            "events": _events(trace),
            "bounds": {k: bounds[k] for k in ("torque_ok", "jump_ok", "gronwall_ok", "jump_count")},
            "convergence": {k: conv[k] for k in ("converged", "jump_count")},
        }
        return {"exact": exact, "close": close, "digest": summary["digest"]}


def ensemble_pool(attkit) -> dict[str, dict]:
    """Noise-free randomized scenarios of every kind, generated like test_c05's
    batch: random q0 and omega0, plus bias0 and q_hat0 for the observer and a
    random filter start for the velocity-free law."""
    config, unit_quat = attkit.config, attkit.quat.random_unit_quat
    rng = np.random.default_rng(POOL_SEED)
    pool = {}
    for kind, preset_name, _, horizon in ENSEMBLE_KINDS:
        for k in range(POOL_PER_KIND):
            cfg = config.preset(preset_name, uncertainties=False)
            cfg.name = "%s_%03d" % (kind, k)
            cfg.plant.q0 = list(unit_quat(rng))
            cfg.plant.omega0_rad_s = list(rng.uniform(-0.5, 0.5, 3))
            if kind == "biased_gyro":
                cfg.plant.bias0_rad_s = list(rng.uniform(-0.05, 0.05, 3))
                cfg.observer.q_hat0 = list(unit_quat(rng))
            elif kind == "attitude_only":
                cfg.filter.q_f0 = list(unit_quat(rng))
            cfg.sim.t_final_s = horizon
            pool[cfg.name] = config.config_to_dict(cfg)
    return pool


class Ensemble(Workload):
    """Short noise-free ``run_scenario`` + ``bound_checks`` runs; the seed draws
    a fixed number of scenarios of each kind from the pool and orders them."""

    name = "ensemble"
    tail_percentile = 90.0

    def specs(self, seed, tiny):
        pool = ensemble_pool(self.ak)
        rng = np.random.default_rng(seed)
        ids = []
        for kind, _, count, _ in ENSEMBLE_KINDS:
            picks = rng.permutation(POOL_PER_KIND)[: 1 if tiny else count]
            ids.extend("%s_%03d" % (kind, k) for k in sorted(picks))
        return [(i, pool[i]) for i in _order(ids, seed)]

    def run(self, item_id, spec):
        ak = self.ak
        cfg = ak.config.config_from_dict(spec)
        trace = ak.sim.run_scenario(cfg)
        obs = cfg.observer.build() if cfg.observer is not None else None
        rep = ak.analysis.bound_checks(
            trace, cfg.controller.build(), cfg.inertia(), cfg.trajectory.build(),
            observer_gains=obs,
        )
        return trace, rep

    def observe(self, output):
        trace, rep = output
        flags, figures = _bounds(rep)
        close = {"bounds": figures}
        for attr in _FINAL_ATTRS:
            close["final." + attr] = _floats(getattr(trace, attr)[-1])
        return {"exact": {"events": _events(trace), "bounds": flags}, "close": close}


class Verify(Workload):
    """``attkit verify`` on the three examples; the seed only orders them."""

    name = "verify"

    def specs(self, seed, tiny):
        config = self.ak.config
        names = ["example2"] if tiny else sorted(VERIFY_HORIZONS_S)
        out = []
        for name in _order(names, seed):
            cfg = config.preset(name)
            cfg.sim.t_final_s = VERIFY_HORIZONS_S[name]
            for section, fields in VERIFY_STARTS[name].items():
                for field, value in fields.items():
                    setattr(getattr(cfg, section), field, value)
            out.append((name, config.config_to_dict(cfg)))
        return out

    def steps(self, spec):
        # lyapunov_flow_report's fixed step and horizon, as attkit verify sets them
        return int(round(min(30.0, spec["sim"]["t_final_s"]) / 1e-3))

    def run(self, item_id, spec):
        cfg = self.ak.config.config_from_dict(spec)
        return self.ak.cli.verify(cfg, n_samples=VERIFY_SAMPLES)

    def observe(self, res):
        names = sorted(res["jump_drops"])
        exact = {
            k: res[k]
            for k in ("ok", "kind", "homogeneity_ok", "perturbations_monotone",
                      "governing_candidate", "flow_ok", "jump_drops_ok")
        }
        exact["jumps"] = {k: len(res["jump_drops"][k]) for k in names}
        close = {
            "min_jump_decrease": _floats([res["min_jump_decrease"]]),
            "flow_excess": _floats([res["flow_excess"][k] for k in sorted(res["flow_excess"])]),
            "jump_drops": _floats([d for k in names for d in res["jump_drops"][k]]),
        }
        return {"exact": exact, "close": close}


WORKLOADS = {cls.name: cls for cls in (Presets, Ensemble, Verify)}


# ---------------------------------------------------------------------------
# Reference comparison


def load_refs(name: str) -> dict:
    return json.loads((REFS_DIR / ("%s.json" % name)).read_text())


def compare(record: dict, ref: dict) -> tuple[list[str], float, bool | None]:
    """(problems, max absolute difference, digest matched or None)."""
    problems = []
    # JSON round trip so tuples, numpy scalars and lists compare alike
    got_exact = json.loads(json.dumps(record["exact"]))
    for key, want in ref["exact"].items():
        if got_exact.get(key) != want:
            problems.append("%s: got %r, want %r" % (key, got_exact.get(key), want))
    worst = 0.0
    for key, want in ref["close"].items():
        got = record["close"].get(key)
        if got is None or len(got) != len(want):
            problems.append("%s: shape differs from the reference" % key)
            continue
        for a, b in zip(got, want):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    problems.append("%s: got %r, want %r" % (key, a, b))
                    break
            else:
                worst = max(worst, abs(a - b))
    if worst > TRACE_TOL:
        problems.append("trace differs from the reference by %.3g > %.0e" % (worst, TRACE_TOL))
    digest = ref.get("digest")
    matched = None if digest is None else record.get("digest") == digest
    return problems, worst, matched
