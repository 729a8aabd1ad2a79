"""Compare the numerics of this checkout with another one.

    python3 tools/tracediff.py OTHER_CHECKOUT

Runs the four bundled presets at full horizon (``attkit run``), example1..3
again with ``uncertainties=False`` as ``<preset>_noise_free`` (zero noise and
disturbance magnitudes; of the presets only fig3 ships noise-free), example1
with gyro noise alone as ``example1_gyro_only`` (attitude cone and bias walk
0: a run with one nonzero noise magnitude keeps every draw), and
``attkit verify`` with 200 samples on example1..3, on three jump cases,
each started just outside a jump set at delta = 0.3 (error scalar part
-0.25) so that its flow check crosses one jump (on the presets as shipped
the flow checks cross none), on the three linear limits and on one low
exponent:

* example2_ht_jump: example2 over 2 s from a 0.5 rad/s bias error and an
  estimate at that scalar part (one h_tilde jump, near 0.54 s);
* example1_h_jump and example3_h_jump: example1 and example3 over 0.4 s
  from plant.q0 at that scalar part, tumbling at 0.8 rad/s about x (one h
  jump, and one joint jump, whose v1, v3 and v3_matched drops are compared);
* example1_linear, example2_linear and example3_linear: example1..3 over
  2 s at controller.alpha1 = 1, observer.beta1 = 1 and controller.alpha3 = 1,
  where the homogeneity and remainder checks run at degree 0;
* example3_low_alpha3: example3 over 0.4 s at controller.alpha3 = 0.55, near
  the low end of its range, where the first step's rise of v3_matched takes
  about half of verify's flow allowance dt^(1+alpha1).

It does so once with this checkout's ``src/`` and once with OTHER_CHECKOUT's,
each in a fresh interpreter, which loads each preset's trace back through
that checkout's own ``sim.load_trace``, whatever file layout it writes, and
dumps its trace attributes and jump events.  For each preset run it prints the
max |difference| of every trace attribute, by name, and each attribute that
only one side has.  An attribute whose max |d| is finite and nonzero also
prints the time of its worst row and the number of rows that differ by more
than 1e-9 (``worst at t = <s> s, <count> rows > 1e-09``), so a difference
confined to a few rows late in a run reads as such.  Then it prints whether the jump events, the convergence verdict and
settling time, the jump count, the bound flags and the ``summary.json``
digest are identical.  For each verify run it prints whether the verdicts
and jump counts are identical, whether the JSON that ``attkit verify``
prints is byte-identical, and the max |difference| of each figure that
differs.  After the preset blocks it prints the largest of those preset
differences and where it lies, ``max |d| over presets: <value>
(<preset>.<attribute>)``, and after the verify blocks ``max |d| over verify
figures: <value> (<case>.<key>)``.  A change meant to leave the numerics
alone shows every digest and every verify JSON identical.  The last line is
the verdict on those bytes:
``byte-identical: all digests and verify JSON``, or ``byte-identical: no
(...)`` naming each preset digest and verify JSON that moved.  Exits 1 when
anything but the float differences (digests and JSON bytes included)
differs; an attribute whose shape or NaN pattern differs prints max |d| inf
and counts.

Run files go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve()
#: preset runs: name -> (preset, keyword arguments of config.preset,
#: {"section.field": value} set on it)
PRESETS = {name: (name, {}, {}) for name in ("example1", "example2", "example3", "fig3")}
PRESETS.update({"%s_noise_free" % name: (name, {"uncertainties": False}, {})
                for name in ("example1", "example2", "example3")})
PRESETS["example1_gyro_only"] = (
    "example1", {}, {"noise.attitude_cone_deg": 0.0, "noise.bias_walk_deg_s2": 0.0})
_S = -0.25  # the jump cases' starting error scalar part
_EDGE_Q = [_S, math.sqrt(1.0 - _S * _S), 0.0, 0.0]  # [-0.25, sqrt(0.9375), 0, 0]
_H_JUMP = {"plant.q0": _EDGE_Q, "plant.omega0_rad_s": [0.8, 0.0, 0.0], "sim.t_final_s": 0.4}
#: verify runs: name -> (preset, {"section.field": value} set on it)
VERIFY = {
    "example1": ("example1", {}),
    "example2": ("example2", {}),
    "example3": ("example3", {}),
    "example2_ht_jump": ("example2", {
        "plant.q0": [1.0, 0.0, 0.0, 0.0],
        "plant.bias0_rad_s": [0.5, 0.0, 0.0],
        "observer.q_hat0": _EDGE_Q,
        "sim.t_final_s": 2.0,
    }),
    "example1_h_jump": ("example1", _H_JUMP),
    "example3_h_jump": ("example3", _H_JUMP),
    "example1_linear": ("example1", {"controller.alpha1": 1.0, "sim.t_final_s": 2.0}),
    "example2_linear": ("example2", {"observer.beta1": 1.0, "sim.t_final_s": 2.0}),
    "example3_linear": ("example3", {"controller.alpha3": 1.0, "sim.t_final_s": 2.0}),
    "example3_low_alpha3": ("example3", {"controller.alpha3": 0.55, "sim.t_final_s": 0.4}),
}
VERIFY_SAMPLES = 200
#: a preset attribute's rows that differ by more than this are counted
ROW_TOL = 1e-9
#: summary entries that must match exactly
CONVERGENCE_EXACT = ("converged", "settling_time_s", "jump_count")
BOUND_FLAGS = ("torque_ok", "jump_ok", "gronwall_ok", "jump_count")
VERIFY_EXACT = ("ok", "homogeneity_ok", "perturbations_monotone", "flow_ok", "jump_drops_ok")


def dump(out: Path) -> None:
    """Write every run of one checkout (the attkit on sys.path) under out."""
    from attkit import cli, config, sim

    def build(preset, fields, **kwargs):
        cfg = config.preset(preset, **kwargs)
        for path, value in fields.items():
            section, attr = path.split(".")
            setattr(getattr(cfg, section), attr, value)
        return cfg

    for name, (preset, kwargs, fields) in PRESETS.items():
        cli.run(build(preset, fields, **kwargs), out / name)
        trace = sim.load_trace(out / name)
        attrs = [entry[0] for entry in sim._LAYOUT]  # (attribute, ...) on every side
        np.savez(out / name / "attrs.npz", **{a: getattr(trace, a) for a in attrs})
        events = [list(dataclasses.astuple(ev)) for ev in trace.events]
        (out / name / "events.json").write_text(json.dumps(events) + "\n")
    for name, (preset, fields) in VERIFY.items():
        res = cli.verify(build(preset, fields), n_samples=VERIFY_SAMPLES)
        text = json.dumps(res, indent=2, sort_keys=True) + "\n"  # as `attkit verify` prints it
        (out / ("verify_%s.json" % name)).write_text(text)


def _run(checkout: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(HERE), "--dump", str(out)], env=env, check=True)


def _max_diff(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    ok = ~np.isnan(a)
    return float(np.abs(a[ok] - b[ok]).max()) if ok.any() else 0.0


def _worst_row(a, b, t) -> str:
    """Where two traces' attribute differs: the time of its worst row and how many rows
    differ by more than ROW_TOL.  a and b have one shape and one NaN pattern."""
    d = np.abs(np.asarray(a, float) - np.asarray(b, float))
    d = np.where(np.isnan(d), 0.0, d).reshape(len(d), -1).max(axis=1)
    return "  worst at t = %.6g s, %d rows > %g" % (t[d.argmax()], (d > ROW_TOL).sum(), ROW_TOL)


def _floats(obj) -> list[float]:
    """Every number in a verify result, in a fixed order."""
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _floats(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


def compare(mine: Path, other: Path) -> bool:
    same = True
    moved = []  # digests and verify JSON documents whose bytes differ
    worst = (-1.0, "")  # (max |d|, where) over the preset attributes
    for name in PRESETS:
        a, b = np.load(mine / name / "attrs.npz"), np.load(other / name / "attrs.npz")
        sa = json.loads((mine / name / "summary.json").read_text())
        sb = json.loads((other / name / "summary.json").read_text())
        if sa["digest"] != sb["digest"]:
            moved.append("%s digest" % name)
        print("preset %s" % name)
        for key in a.files:
            if key in b.files:
                d = _max_diff(a[key], b[key])
                where = _worst_row(a[key], b[key], a["t"]) if 0.0 < d < math.inf else ""
                print("  max |d| %-12s %.3g%s" % (key, d, where))
                if d > worst[0]:
                    worst = (d, "%s.%s" % (name, key))
                same &= math.isfinite(d)
            else:
                print("  %-20s only in this checkout" % key)
        for key in b.files:
            if key not in a.files:
                print("  %-20s only in the other checkout" % key)
        checks = {
            "events": (mine / name / "events.json").read_text()
            == (other / name / "events.json").read_text(),
            "convergence": all(sa["convergence"][k] == sb["convergence"][k] for k in CONVERGENCE_EXACT),
            "bound flags": all(sa["bounds"][k] == sb["bounds"][k] for k in BOUND_FLAGS),
            "digest": sa["digest"] == sb["digest"],
        }
        for label, ok in checks.items():
            print("  %-12s %s" % (label, "identical" if ok else "DIFFERENT"))
        print("  settling_time_s %r (other %r)"
              % (sa["convergence"]["settling_time_s"], sb["convergence"]["settling_time_s"]))
        same &= all(ok for label, ok in checks.items() if label != "digest")
    print("max |d| over presets: %.3g (%s)" % worst)
    worst = (-1.0, "")  # over the verify figures
    for name in VERIFY:
        text_a = (mine / ("verify_%s.json" % name)).read_text()
        text_b = (other / ("verify_%s.json" % name)).read_text()
        va, vb = json.loads(text_a), json.loads(text_b)
        verdicts = all(va[k] == vb[k] for k in VERIFY_EXACT)
        jumps = {k: len(v) for k, v in va["jump_drops"].items()} == {
            k: len(v) for k, v in vb["jump_drops"].items()
        }
        print("verify %s: verdicts %s, jump counts %s, JSON %s" % (
            name, "identical" if verdicts else "DIFFERENT",
            "identical" if jumps else "DIFFERENT",
            "byte-identical" if text_a == text_b else "differs"))
        for key in sorted(va):
            d = _max_diff(_floats(va[key]), _floats(vb.get(key)))
            if d != 0.0:
                print("  max |d| %-21s %.3g" % (key, d))
            if d > worst[0]:
                worst = (d, "%s.%s" % (name, key))
        same &= verdicts and jumps
        if text_a != text_b:
            moved.append("verify_%s.json" % name)
    print("max |d| over verify figures: %.3g (%s)" % worst)
    print("byte-identical: %s" % ("no (%s)" % ", ".join(moved) if moved
                                  else "all digests and verify JSON"))
    return same


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(Path(argv[1]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "attkit").is_dir():
        print("tracediff: no attkit sources under %s" % other, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        mine_out, other_out = Path(tmp) / "this", Path(tmp) / "other"
        _run(HERE.parents[1], mine_out)
        _run(other, other_out)
        return 0 if compare(mine_out, other_out) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
