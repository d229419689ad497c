"""Regenerate the pinned reference reports with the `liework` CLI.

    python3 perfbench/pin_reference.py

For each workload this runs `liework verify --json` at the default seed
with SOURCE_DATE_EPOCH=0 and stores the canonical report as
perfbench/reference/<workload>.json. Run it only when a change is meant to
alter verdicts or report contents; the benchmark counts every record that
differs from these files as failed.
"""
from __future__ import annotations

import os
import subprocess
import sys

from child import DEFAULT_SEED, HERE, REFERENCE_DIR, WORKLOADS, cli_args

ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SOURCE_DATE_EPOCH="0")
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        path = REFERENCE_DIR / f"{workload}.json"
        cmd = [sys.executable, "-m", "liework.cli",
               *cli_args(workload, DEFAULT_SEED), "--json", str(path)]
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        print(done.stdout.splitlines()[-1], f"-> {path.relative_to(ROOT)}")
        if done.returncode != 0:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
