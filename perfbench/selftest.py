"""Self-test of the benchmark at a tiny size (a few items, one timed pass).

  python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  - an untraced run emits exactly the end_to_end metrics and a traced run
    exactly the per_layer metrics, with no failed item on unchanged sources;
  - deliberately wrong references are caught: a changed verdict or event
    and a float moved past the tolerance each fail every item, while a
    changed summary digest alone fails none;
  - a hook whose target name is gone is reported as absent, the other hooks
    still count, and every hooked name is restored afterwards;
  - every verify reference crosses a hysteresis jump, so its jump drops are
    checked.
Exits nonzero and lists the problems if any check does not hold.
"""

from __future__ import annotations

import copy
import json
import sys

import layers
import run
import workloads


def _flip_exact(ref: dict) -> None:
    """Change one value that must match exactly."""
    exact = ref["exact"]
    if "events" in exact:
        exact["events"] = exact["events"] + [[0, 1, -1, 1, 1]]
    else:
        exact["ok"] = not exact["ok"]


def _move_close(ref: dict) -> None:
    """Move one float by a hundred times the tolerance."""
    for values in ref["close"].values():
        for i, v in enumerate(values):
            if not isinstance(v, str):
                values[i] = v + 100.0 * workloads.TRACE_TOL
                return


def _change_digest(ref: dict) -> None:
    if "digest" in ref:
        ref["digest"] = "0" * 64


def failures_with(name: str, mutate) -> tuple[int, int]:
    """(failed, attempted) for one pass against mutated references."""
    wl, items, refs = run.setup(name, seed=1, tiny=True)
    bad = copy.deepcopy(refs)
    for item_id, _ in items:
        mutate(bad[item_id])
    checker = run.Checker(wl, bad, workloads.compare)
    try:
        checker.run_pass(items)
    finally:
        run.shutil.rmtree(run.OUT_DIR, ignore_errors=True)
    return checker.failed, checker.attempted


def absent_hook_problems() -> list[str]:
    gone = "attkit.sim:no_such_helper"
    table = dict(layers.LAYERS)
    table["controllers.jump"] = (gone,) + table["controllers.jump"]
    wl, items, refs = run.setup("ensemble", seed=1, tiny=True)
    with layers.Tracer(table) as tr:
        run.Checker(wl, refs, workloads.compare).run_pass(items)
    problems = []
    if tr.absent != [gone]:
        problems.append("absent hooks reported as %s, expected [%r]" % (tr.absent, gone))
    if not tr.calls["controllers.jump"]:
        problems.append("controllers.jump counted no calls beside the absent hook")
    if hasattr(wl.ak.sim.rk4_step, "__wrapped__"):
        problems.append("hooks were not restored after tracing")
    return problems


def verify_jump_problems() -> list[str]:
    return ["verify %s: the reference flow report crosses no jump" % item_id
            for item_id, ref in workloads.load_refs("verify").items()
            if not all(ref["exact"]["jumps"].values())]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, names in wanted.items():
            rep = run.measure(name, seed=1, seconds=0.0, trace=trace, tiny=True)
            got = set(rep["metrics"])
            if got != names:
                problems.append("%s trace=%d: missing %s, unexpected %s"
                                % (name, trace, sorted(names - got), sorted(got - names)))
            if rep["failed"] or not rep["attempted"]:
                problems.append("%s trace=%d: fail_frac %.3g on unchanged sources: %s"
                                % (name, trace, rep["fail_frac"], rep["problems"]))
        for label, mutate, expect_all in (
            ("wrong verdict or event", _flip_exact, True),
            ("float past tolerance", _move_close, True),
            ("digest only", _change_digest, False),
        ):
            failed, attempted = failures_with(name, mutate)
            want = attempted if expect_all else 0
            if failed != want:
                problems.append("%s, %s: %d of %d items failed, expected %d"
                                % (name, label, failed, attempted, want))
            print("%-9s %-24s %d/%d items failed" % (name, label, failed, attempted))
    problems += absent_hook_problems()
    problems += verify_jump_problems()
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
