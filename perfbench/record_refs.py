"""Write the reference records in perfbench/refs from the current sources.

  python3 perfbench/record_refs.py

The committed references were written at the commit that added the
benchmark.  Rewrite them only when a change is meant to alter attkit's
results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(name: str, ak) -> dict:
    wl = workloads.WORKLOADS[name](ak, run.OUT_DIR / name)
    if name == "ensemble":
        items = sorted(workloads.ensemble_pool(ak).items())
    else:
        items = sorted(wl.specs(0, tiny=False))
    try:
        return {item_id: wl.observe(wl.run(item_id, spec)) for item_id, spec in items}
    finally:
        run.shutil.rmtree(run.OUT_DIR, ignore_errors=True)


def main() -> int:
    ak = run._import_attkit()
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        refs = record(name, ak)
        lines = ["  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                 for k, v in sorted(refs.items())]
        path = workloads.REFS_DIR / ("%s.json" % name)
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print("%s: %d items -> %s" % (name, len(refs), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
