"""Each demo prints byte for byte what its golden file holds.

The golden files in tests/golden/ are the demos' stdout with
SOURCE_DATE_EPOCH=0.  A refactor that changes a printed value, or lets an
int leak where a Fraction was printed (or the reverse), fails here.  To
re-pin after an intended change of output, rerun the demo with the same
environment and overwrite its golden file.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))
    assert golden == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # -W error, as CI runs the CLI: a warning fails the demo
    out = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                         cwd=ROOT, capture_output=True, timeout=50,
                         check=True).stdout
    assert out == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
