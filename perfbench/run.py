"""attkit benchmark: end-to-end and per-layer timing of three workloads.

Run from the repository root:

  python3 perfbench/run.py --workload presets --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads (BENCHMARK.json says why each was chosen):

  presets   attkit run + load_trace on the four bundled presets
  ensemble  100 short noise-free run_scenario + bound_checks items
  verify    attkit verify on example1..3
  all       the three above in series, in this one process (peak_rss_mb is
            then the process peak so far)

attkit sweep is deliberately not a workload: it starts one thread per value.

Every item is a closed-loop call: one caller, one item at a time, no worker
threads.  After one untimed warm-up pass the benchmark repeats whole passes
over the items for --seconds seconds.  Every item's output is checked against
the references in perfbench/refs; a mismatch or an exception is a failure.

--trace 0 reports the end-to-end metrics.  A fixed NumPy-and-Python reference
loop runs before every item and after the last one, and every item time is
scaled by the loop's time beside it (see reference_loop): on a shared machine
other tenants slow a whole run by up to 1.8x, which moves raw times from run
to run but not their ratio to the loop.  An item's time is its median
scaled time over the passes; wall_s is their sum, and item_p50_s and
item_tail_s are read from them.  setup_s is the median scaled time of several
fresh interpreters (start, import attkit, build the items and load the
references), spread over the run; each is scaled by the loop time it measured
right after its set-up.  The report also prints the unscaled figures.
--trace 1 spends half the time untraced and half with the layer hooks of
layers.py installed, and reports per-layer self time, calls and share per
pass (unscaled), exact work counts, diagnostics and the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it are the human-readable report, and --out FILE
writes the full report (machine, sample counts, absent hooks) as JSON.
Timing uses time.perf_counter only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

# one thread per process: keep any BLAS pool out of the measurement
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402 - after the thread settings above
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: fresh-interpreter set-ups per run (after one unmeasured one that fills
#: caches), and reference loops run after each
SETUP_PROBES = 12
SETUP_LOOPS = 5

#: the reference loop's length, and the seconds it is taken to last on the
#: machine that scaled times refer to (about its time on a 2-core Intel Xeon
#: virtual machine at its fastest)
REF_LOOP_STEPS = 75
REF_LOOP_S = 2.5e-3


def _import_attkit():
    if not (SRC / "attkit" / "__init__.py").is_file():
        raise SystemExit("perfbench: no attkit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from attkit import analysis, cli, config, quat, sim

    return types.SimpleNamespace(analysis=analysis, cli=cli, config=config, quat=quat, sim=sim)


def setup(workload: str, seed: int, tiny: bool):
    """Import attkit and build one workload's items and references."""
    ak = _import_attkit()
    wl = workloads.WORKLOADS[workload](ak, OUT_DIR / workload)
    items = wl.specs(seed, tiny)
    refs = workloads.load_refs(workload)
    missing = [i for i, _ in items if i not in refs]
    if missing:
        raise SystemExit("perfbench: no reference for %s" % missing)
    return wl, items, refs


# ---------------------------------------------------------------------------
# Machine record


def machine() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# Measurement


def reference_loop() -> float:
    """Seconds one fixed run of a small NumPy-and-Python loop takes now.

    The loop runs beside every item and set-up.  Other tenants of a shared
    machine slow attkit and this loop alike, by up to 1.8x for seconds at a
    time, so an item's time over the loop's time beside it holds steady while
    either alone swings.  Scaled times are item times times REF_LOOP_S over
    the loop's time: seconds on a machine where the loop takes REF_LOOP_S.
    """
    t0 = perf_counter()
    x = numpy.linspace(0.1, 0.7, 7)
    for i in range(REF_LOOP_STEPS):
        q = x[0:4] / math.sqrt(float(x[0:4] @ x[0:4]))
        w = numpy.cross(x[4:7], q[1:4]) + 0.01 * i
        x = numpy.concatenate([q * 1.0001, w * 0.999])
    return perf_counter() - t0


def _scale(seconds: float, loop: float) -> float:
    return seconds * REF_LOOP_S / loop


class Checker:
    """Counts attempted and failed items and keeps the diagnostics."""

    def __init__(self, wl, refs, compare) -> None:
        self.wl, self.refs, self.compare = wl, refs, compare
        self.attempted = self.failed = 0
        self.digests_checked = self.digests_matched = 0
        self.max_trace_diff = 0.0
        self.problems: list[str] = []

    def run_pass(self, items) -> tuple[list[float], list[float]]:
        """Run every item once, with the reference loop before each and after
        the last; return (item times, scaled item times).  Checks are not timed."""
        times, loops = [], [reference_loop()]
        for item_id, spec in items:
            t0 = perf_counter()
            try:
                out, error = self.wl.run(item_id, spec), None
            except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
                error = exc
            times.append(perf_counter() - t0)
            loops.append(reference_loop())
            if error is not None:
                self._fail(item_id, ["%s: %s" % (type(error).__name__, error)])
                continue
            problems, diff, matched = self.compare(self.wl.observe(out), self.refs[item_id])
            self.max_trace_diff = max(self.max_trace_diff, diff)
            if matched is not None:
                self.digests_checked += 1
                self.digests_matched += int(matched)
            if problems:
                self._fail(item_id, problems)
            else:
                self.attempted += 1
        # the loops right beside an item track bursts a wider median smooths away
        return times, [_scale(t, (a + b) / 2.0) for t, a, b in zip(times, loops, loops[1:])]

    def _fail(self, item_id, problems) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (item_id, "; ".join(problems)))


def window(checker: Checker, items, seconds: float, probe=None, probes: int = 0):
    """Whole passes until another would overrun.

    Returns (item times per pass, scaled item times per pass, set-ups).  With
    ``probe``, ``probes`` set-ups are spread evenly over the window, between
    passes, so they sample the machine when the passes do.
    """
    raw, scaled, setups = [], [], []
    t_start = perf_counter()
    while True:
        if probe is not None and len(setups) < probes and (
            perf_counter() - t_start >= len(setups) * seconds / probes
        ):
            setups.append(probe())
        times, times_scaled = checker.run_pass(items)
        raw.append(times)
        scaled.append(times_scaled)
        elapsed = perf_counter() - t_start
        if elapsed * (len(raw) + 1) / len(raw) > seconds:
            return raw, scaled, setups


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """(value of the pct-th percentile, samples beyond it)."""
    if pct >= 100.0 or len(times) < 2:
        return max(times), 0
    value = statistics.quantiles(times, n=1000, method="inclusive")[int(round(pct * 10)) - 1]
    return value, sum(1 for t in times if t > value)


def probe_setup(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """(seconds from spawning a fresh interpreter until its set-up is done,
    median reference loop time in that interpreter right after its set-up).

    The loop is timed in the child, not here: the child may run on the other
    core, which other tenants may load differently.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"] + (["--tiny"] if tiny else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        loop = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % code)
    return elapsed, float(loop)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return its full report."""
    load_before = os.getloadavg()
    wl, items, refs = setup(workload, seed, tiny)
    checker = Checker(wl, refs, workloads.compare)
    steps = sum(wl.steps(spec) for _, spec in items)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "items_per_pass": len(items), "steps_per_pass": steps}
    try:
        checker.run_pass(items)  # warm-up
        if trace:
            span = seconds / 2.0
            passes, scaled, _ = window(checker, items, span)
            with layers.Tracer() as tr:
                t_passes, t_scaled, _ = window(checker, items, span)
            report["metrics"] = layer_metrics(tr, t_passes, checker)
            report["metrics"]["trace.overhead_s"] = (
                statistics.median(map(sum, t_scaled)) - statistics.median(map(sum, scaled)))
            report["absent_hooks"] = tr.absent
            report["traced_passes"] = len(t_passes)
        else:
            probe_setup(workload, seed, tiny)  # fills bytecode and file caches
            passes, scaled, setups = window(
                checker, items, seconds,
                probe=lambda: probe_setup(workload, seed, tiny), probes=SETUP_PROBES)
            # one figure per item: a short item's single times catch bursts
            # the loops beside it miss, which would set the tail
            item_s = [statistics.median(times) for times in zip(*scaled)]
            wall = sum(item_s)
            tail_value, beyond = tail(item_s, wl.tail_percentile)
            report["metrics"] = {
                "setup_s": statistics.median(_scale(t, loop) for t, loop in setups),
                "wall_s": wall,
                "us_per_step": wall / steps * 1e6,
                "item_p50_s": statistics.median(item_s),
                "item_tail_s": tail_value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            raw_item_s = [statistics.median(times) for times in zip(*passes)]
            report["unscaled"] = {
                "setup_s": statistics.median(t for t, _ in setups),
                "wall_s": sum(raw_item_s),
                "item_p50_s": statistics.median(raw_item_s),
            }
            report["item_samples"] = len(item_s)
            report["tail_percentile"] = wl.tail_percentile
            report["tail_beyond"] = beyond
            report["setup_samples"] = setups
            report["item_times"] = {item_id: {"raw": list(r), "scaled": list(c)}
                                    for (item_id, _), r, c in zip(items, zip(*passes), zip(*scaled))}
        report["passes"] = len(passes)
        report["pass_walls"] = [sum(p) for p in passes]
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    report["attempted"] = checker.attempted
    report["failed"] = checker.failed
    report["fail_frac"] = checker.failed / max(checker.attempted, 1)
    report["problems"] = checker.problems
    report["machine"] = dict(machine(), loadavg_before=load_before, loadavg_after=os.getloadavg())
    return report


def layer_metrics(tr, t_passes: list[list[float]], checker: Checker) -> dict:
    """Per-layer metrics of the traced passes (trace.overhead_s is added later)."""
    traced_total = sum(map(sum, t_passes))
    n = len(t_passes)
    out = {}
    for name in layers.LAYERS:
        out[name + ".self_s"] = tr.self_s[name] / n
        out[name + ".calls"] = tr.calls[name] // n
        out[name + ".share"] = tr.self_s[name] / traced_total
    for name in layers.COUNTS:
        out[name] = tr.counts[name] // n
    out["cli.run.digest_matches"] = (
        checker.digests_matched / checker.digests_checked if checker.digests_checked else 0.0
    )
    out["sim.max_trace_diff"] = checker.max_trace_diff
    out["trace.uncovered_share"] = 1.0 - tr.covered_s / traced_total
    out["trace.hooks_absent"] = len(tr.absent)
    return out


# ---------------------------------------------------------------------------
# Output


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(rep: dict, units: dict) -> None:
    w = rep["workload"]
    print("== %s  seed %d  %d items/pass  %d steps/pass  %d passes"
          % (w, rep["seed"], rep["items_per_pass"], rep["steps_per_pass"], rep["passes"]))
    for name, value in rep["metrics"].items():
        note = ""
        if name == "item_p50_s":
            note = "  (n=%d)" % rep["item_samples"]
        elif name == "item_tail_s":
            note = "  (p%g, n=%d, %d beyond)" % (
                rep["tail_percentile"], rep["item_samples"], rep["tail_beyond"])
        elif name == "setup_s":
            note = "  (median of %d)" % len(rep["setup_samples"])
        if name in rep.get("unscaled", {}):
            note += "  unscaled %.6g" % rep["unscaled"][name]
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("%-10s %-38s %s %s%s" % (w, name, shown, units.get(name, ""), note))
    print("%-10s %-38s %.6g ratio  (%d failed / %d attempted)"
          % (w, "fail_frac", rep["fail_frac"], rep["failed"], rep["attempted"]))
    for target in rep.get("absent_hooks", ()):
        print("%-10s absent hook: %s" % (w, target))
    for problem in rep["problems"]:
        print("%-10s FAILED %s" % (w, problem))
    print("%-10s machine %s" % (w, json.dumps(rep["machine"], sort_keys=True)))


def result_line(reports: list[dict], units: dict) -> dict:
    prefix = len(reports) > 1
    metrics = {}
    for rep in reports:
        for name, value in rep["metrics"].items():
            key = "%s.%s" % (rep["workload"], name) if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "ensemble", "verify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full report here")
    parser.add_argument("--tiny", action="store_true", help="self-test size: few items, one pass")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        setup(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        print(statistics.median(reference_loop() for _ in range(SETUP_LOOPS)), flush=True)
        return 0

    if not (SRC / "attkit" / "__init__.py").is_file():
        print("perfbench: no attkit sources under %s" % SRC, file=sys.stderr)
        return 2
    units = _units()
    names = ("presets", "ensemble", "verify") if args.workload == "all" else (args.workload,)
    seconds = 0.0 if args.tiny else args.seconds
    reports = []
    for name in names:
        rep = measure(name, args.seed, seconds, bool(args.trace), tiny=args.tiny)
        print_report(rep, units)
        reports.append(rep)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result_line(reports, units), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
