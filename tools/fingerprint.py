"""Print a numerics fingerprint of this checkout.

For each bundled preset, the digest of ``summary.json`` from a full-horizon
``attkit run``; for example1..3, the sha256 of what ``attkit verify
<config> --samples 200`` prints.  A change meant to leave the numerics alone
leaves this output byte-identical, so diff it against a copy of the parent
commit:

    python3 tools/fingerprint.py > after.txt
    (cd ../parent && python3 tools/fingerprint.py) > before.txt
    diff before.txt after.txt

Run files go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from attkit import cli, config  # noqa: E402

VERIFY_SAMPLES = 200


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in sorted(config.PRESETS):
            summary = cli.run(config.preset(name), root / name)
            print("run    %-8s %s" % (name, summary["digest"]), flush=True)
        for name in ("example1", "example2", "example3"):
            path = config.save_config(config.preset(name), root / ("%s.json" % name))
            proc = subprocess.run(
                [sys.executable, "-m", "attkit.cli", "verify", str(path),
                 "--samples", str(VERIFY_SAMPLES)],
                capture_output=True, env=env, check=False,
            )
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print("verify %-8s %s exit=%d" % (name, digest, proc.returncode), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
