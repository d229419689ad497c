"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They show that the in-process verify run produces exactly the report
`liework verify --json` produces, that the correctness check catches a
changed record, that the untraced pass carries no wrappers and that the
traced counts repeat.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SOURCE_DATE_EPOCH="0",
           PYTHONHASHSEED="0")


def _python(*args, cwd=ROOT, env=ENV):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def test_in_process_report_matches_cli(tmp_path, monkeypatch):
    from liework.suites import CaseSpec
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    seed, mwl = 424242, 6
    cases = [CaseSpec.from_string(t, seed=seed, max_word_len=mwl)
             for t in ("A2:1", "B2:-")]
    text, case_s, suite_s, _ = child.run_verify(
        cases, child.ALL_SUITES, seed, mwl)
    assert len(case_s) == len(child.ALL_SUITES) * len(cases)
    assert list(suite_s) == list(child.ALL_SUITES)

    path = tmp_path / "cli.json"
    done = _python("-m", "liework.cli", "verify", "--case", "A2:1",
                   "--case", "B2:-", "--seed", str(seed),
                   "--max-word-len", str(mwl), "--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert path.read_bytes() == text.encode("ascii")


def test_check_report_counts_changed_records():
    ref = (child.REFERENCE_DIR / "certify.json").read_text()
    seed = child.DEFAULT_SEED
    assert child.check_report("certify", seed, ref) == (216, 0, [])

    doc = json.loads(ref)
    doc["suites"][3]["checks"][0]["actual"] = "tampered"
    del doc["suites"][-1]
    attempted, failed, mismatches = child.check_report(
        "certify", seed, json.dumps(doc))
    assert (attempted, failed) == (216, 2)
    assert len(mismatches) == 2

    # at another seed only verdicts and gating are compared
    doc = json.loads(ref)
    doc["suites"][3]["checks"][0]["actual"] = "sampled differently"
    assert child.check_report("certify", seed + 1, json.dumps(doc))[1] == 0
    gated = next(r for r in doc["suites"] if r["status"] == "hypothesis-gated")
    gated["status"] = "pass"
    assert child.check_report("certify", seed + 1, json.dumps(doc))[1] == 1


@pytest.mark.parametrize("install", [
    "t.install()",
    # one module function only, in the module that defines it
    "from liework import exactlin; "
    "exactlin.rref = t._wrap('exactlin.rref', exactlin.rref)",
])
def test_untraced_check_rejects_wrappers(install):
    code = ("import spans; spans.assert_untraced(); t = spans.Tracer(); "
            f"{install}; spans.assert_untraced()")
    done = _python("-c", code, cwd=HERE)
    assert done.returncode != 0
    assert "untraced pass carries a wrapper" in done.stderr


def _traced_counts():
    done = _python(str(HERE / "child.py"), "--workload", "certify",
                   "--mode", "verify", "--trace", "1")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["failed"] == 0
    tr = out["trace"]
    calls = {name: rec["calls"] for name, rec in tr["spans"].items()}
    return calls, tr["counters"]


def test_traced_counts_repeat():
    first = _traced_counts()
    assert first[0]["exactlin.smith_normal_form"] == 54
    assert first == _traced_counts()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_program_sources(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _python(str(tmp_path / "perfbench" / "run.py"), "--workload", "d4",
                   "--seed", "1", "--seconds", "1", "--trace", trace,
                   cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
