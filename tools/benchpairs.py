"""Run the benchmark in alternating pairs against another checkout.

    python3 tools/benchpairs.py PARENT_CHECKOUT --workload W [--pairs 10] \
        [--seconds 35] --out BENCH_N.json

For seed s = 1..pairs it runs

    python3 perfbench/run.py --workload W --seed s --seconds S

once in this checkout (the change) and once in PARENT_CHECKOUT (the parent),
each from its own root: the change first for odd s, the parent first for even
s.  It reads each run's last stdout line, the result JSON, and records every
run; a run that exits nonzero, or reports failed items, is counted as such
and kept.  Exits 1 if any run was not clean.

It writes ``pairs[W]`` of the --out file, merging into the file if it exists
(so all workloads can share one file):

* ``checkouts``: the ``change`` and ``parent`` roots, relative to the working
  directory.  Both should be sibling directories: ``peak_rss_mb`` moves by
  about 0.5 MB with the checkout's directory, so the tool warns on stderr
  when the two roots do not share a parent directory;
* ``attempted`` / ``failed``: items per side, summed over the seeds, and
  ``failed_runs``: the runs per side that exited nonzero, printed no result
  or failed an item;
* ``runs``: per seed and side, the exit status and item counts;
* ``end_to_end``: for each end-to-end metric of BENCHMARK.json, each side's
  values in seed order (null for a run that printed no result), their median
  and quartiles, ``change_over_parent`` (the ratio of the medians) and
  ``change_wins`` (the pairs in which the change was better, by the metric's
  ``better`` in BENCHMARK.json);
* ``verdict``: the two rules below, applied to ``end_to_end`` and the item
  counts.  Per metric, ``gain`` and ``within_bound`` (null where a median or
  the bound is missing), and ``failed_items_rose``.  One line per workload
  on stderr states them.

The two rules:

* a claimed gain needs the change to win at least ceil(0.9 * pairs) pairs
  (9 of 10) on the claimed metric, with the change's median better than the
  parent's by more than the parent's interquartile range (``q3 - q1``);
* no regression means no end-to-end metric is worse than the parent's by
  more than its ``bound`` in BENCHMARK.json (``change_over_parent`` at most
  1 + bound for a lower-is-better metric, at least 1 - bound for a
  higher-is-better one), and no more failed items.

Hence the default of 10 pairs.  Standard library only; perfbench/ and
BENCHMARK.json are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from checkout's root; its result line, or why there is none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "%g" % seconds]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"seed": seed, "exit": proc.returncode, "attempted": 0, "failed": None,
              "metrics": {}}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = (proc.stderr.strip().splitlines() or ["no result line"])[-1]
        return record
    record["attempted"] = result["attempted"]
    record["failed"] = result["failed"]
    record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return record


def _clean(record: dict) -> bool:
    """The run exited 0 and printed a result with no failed item."""
    return record["exit"] == 0 and record["failed"] == 0


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of the values that exist."""
    xs = [v for v in values if v is not None]
    out = {"values": values, "median": None, "q1": None, "q3": None}
    if len(xs) >= 2:
        out["q1"], out["median"], out["q3"] = statistics.quantiles(xs, n=4, method="inclusive")
    elif xs:
        out["q1"] = out["median"] = out["q3"] = xs[0]
    return out


def summarize(workload: str, runs: dict, end_to_end: list) -> dict:
    """pairs[workload] from the per-side run records, in seed order."""
    seeds = [r["seed"] for r in runs["change"]]
    sides = ("change", "parent")
    out = {
        "workload": workload,
        "seeds": seeds,
        "seed_use": "odd seeds ran the change first",
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
        "failed": {side: sum(r["failed"] or 0 for r in runs[side]) for side in sides},
        "failed_runs": {side: sum(not _clean(r) for r in runs[side]) for side in sides},
        "runs": {
            side: [{k: r[k] for k in r if k != "metrics"} for r in runs[side]] for side in sides
        },
        "end_to_end": {},
    }
    for metric in end_to_end:
        name = metric["name"]
        vals = {side: [r["metrics"].get(name) for r in runs[side]] for side in sides}
        lower = metric["better"] == "lower"
        wins = sum(
            1 for c, p in zip(vals["change"], vals["parent"])
            if c is not None and p is not None and (c < p if lower else c > p)
        )
        entry = {side: spread(vals[side]) for side in sides}
        med_c, med_p = entry["change"]["median"], entry["parent"]["median"]
        entry["change_over_parent"] = med_c / med_p if med_c is not None and med_p else None
        entry["change_wins"] = wins
        entry["unit"] = metric["unit"]
        out["end_to_end"][name] = entry
    out["verdict"] = verdict(out, end_to_end)
    return out


def verdict(pairs: dict, end_to_end: list) -> dict:
    """The gain and no-regression rules applied to a summarize() result."""
    need = -(-9 * len(pairs["seeds"]) // 10)  # ceil(0.9 * pairs) in integers
    metrics = {}
    for metric in end_to_end:
        entry = pairs["end_to_end"][metric["name"]]
        lower = metric["better"] == "lower"
        med_c, parent = entry["change"]["median"], entry["parent"]
        ratio, bound = entry["change_over_parent"], metric.get("bound")
        gain = None
        if med_c is not None and parent["median"] is not None:
            better_by = parent["median"] - med_c if lower else med_c - parent["median"]
            gain = entry["change_wins"] >= need and better_by > parent["q3"] - parent["q1"]
        within = None
        if ratio is not None and bound is not None:
            within = ratio <= 1.0 + bound if lower else ratio >= 1.0 - bound
        metrics[metric["name"]] = {"gain": gain, "within_bound": within}
    rose = pairs["failed"]["change"] > pairs["failed"]["parent"]
    return {"metrics": metrics, "failed_items_rose": rose}


def verdict_line(pairs: dict) -> str:
    """One line stating a workload's verdict, e.g. "verify: gain wall_s; over bound none; ..."."""
    v = pairs["verdict"]

    def names(test) -> str:
        return ", ".join(nm for nm, m in v["metrics"].items() if test(m)) or "none"

    return "%s: gain %s; over bound %s; no verdict %s; failed items rose: %s" % (
        pairs["workload"], names(lambda m: m["gain"]),
        names(lambda m: m["within_bound"] is False),
        names(lambda m: m["within_bound"] is None), v["failed_items_rose"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", required=True, help="JSON file to write pairs[workload] into")
    args = parser.parse_args(argv)
    parent = Path(args.parent).resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error("no perfbench/run.py under %s" % parent)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if ROOT.parent != parent.parent:
        print("warning: %s and %s do not share a parent directory, so peak_rss_mb may differ"
              " by where each side lives" % (ROOT, parent), file=sys.stderr, flush=True)

    runs = {"change": [], "parent": []}
    for seed in range(1, args.pairs + 1):
        order = ("change", "parent") if seed % 2 else ("parent", "change")
        for side in order:
            record = run_once(ROOT if side == "change" else parent, args.workload, seed,
                              args.seconds)
            runs[side].append(record)
            print("%s seed %d %s: exit %d, %s failed of %d" % (
                args.workload, seed, side, record["exit"], record["failed"],
                record["attempted"]), file=sys.stderr, flush=True)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    pairs = summarize(args.workload, runs, end_to_end)
    pairs["checkouts"] = {"change": os.path.relpath(ROOT), "parent": os.path.relpath(parent)}
    print(verdict_line(pairs), file=sys.stderr, flush=True)
    data.setdefault("pairs", {})[args.workload] = pairs
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if all(_clean(r) for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
