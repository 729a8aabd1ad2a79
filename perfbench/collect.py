"""Repeat the benchmark over several seeds and summarize the spread.

  python3 perfbench/collect.py --seeds 1-10 [--workloads presets,verify]
                               [--traced-seeds 1,2] [--out perfbench/BENCH_0.json]

Runs ``perfbench/run.py`` once per seed and workload, in series, with the
BENCHMARK.json run length.  For each end-to-end metric it reports the median,
the quartiles and the spread (interquartile distance over the median) that
BENCHMARK.json's bounds are judged against.  Traced runs are summarized the
same way, and their exact counts are checked to repeat between runs of one
seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with its full report (machine, samples) attached."""
    full = ROOT / ".perfbench_out" / "collect_report.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(full)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (report,) = json.loads(full.read_text())
    full.unlink()
    for key in ("metrics", "problems", "item_times"):
        report.pop(key, None)
    result["report"] = report
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--traced-seeds", default="", help="seeds for traced runs, each run twice")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    traced = _seeds(args.traced_seeds) if args.traced_seeds else []
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        results = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarize(results),
            "runs": [r["report"] for r in results],
        }
        for metric, row in entry["end_to_end"].items():
            steady = row["spread"] < bounds[metric] / 3.0
            ok &= steady and entry["correct"]
            print("%-9s %-12s median %-12.6g spread %.4f (bound %.2f)%s"
                  % (name, metric, row["median"], row["spread"], bounds[metric],
                     "" if steady else "  NOT STEADY"))
        if traced:
            pairs = {s: [run_once(name, s, spec["run_seconds"], 1) for _ in range(2)]
                     for s in traced}
            runs = [r for pair in pairs.values() for r in pair]
            entry["per_layer"] = summarize(runs)
            entry["traced_runs"] = [r["report"] for r in runs]
            repeat = all(
                a["metrics"][c]["value"] == b["metrics"][c]["value"]
                for a, b in pairs.values()
                for c in a["metrics"]
                if a["metrics"][c]["unit"] in ("count", "bytes") and not c.endswith("absent")
            )
            entry["counts_repeat"] = repeat
            ok &= repeat
            print("%-9s traced runs: exact counts repeat: %s" % (name, repeat))
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
