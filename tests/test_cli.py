import json
from pathlib import Path

import pytest

from liework import bundles, cli
from liework.cli import build_report, canonical_json, main
from liework.suites import CaseSpec, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_case_passes(capsys):
    code, out, _ = run(capsys, "verify", "--case", "A1:-")
    assert code == 0
    assert "PASS" in out
    assert "fail" not in out.split("PASS")[0].lower() or "fail=0" not in out


def test_verify_gated_case_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--case", "A2:1",
                       "--suite", "bc-hypotheses")
    assert code == 0
    assert "GATED bc-hypotheses A2:1" in out
    assert "outside" in out


def test_verify_strict_hypotheses_fails(capsys):
    code, out, _ = run(capsys, "verify", "--case", "A2:1",
                       "--suite", "bc-hypotheses", "--strict-hypotheses")
    assert code == 1
    assert "FAIL:" in out


def test_malformed_case_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "--case", "Z9:frog")
    assert code == 2
    assert "Z9:frog" in out
    # index lists that int() would read under another label are refused,
    # and echoed back as given
    for spec in ("A2:1,1", "A3: 1", "A2:+1", "A2:01", "A2:\u0662", "A2:1_0"):
        for command in ("verify", "dossier", "richardson"):
            code, out, err = run(capsys, command, "--case", spec)
            assert code == 2
            assert out.startswith(f"error: malformed case {spec!r}: ")
            assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["verify", "dossier", "richardson"])
@pytest.mark.parametrize("spec", ["E6:1", "A2:5"])
def test_unsupported_case_exit_two(capsys, command, spec):
    code, out, err = run(capsys, command, "--case", spec)
    assert code == 2
    assert f"malformed case {spec!r}" in out
    assert "Traceback" not in out + err


def test_max_word_len_below_one_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--case", "A1:-",
                       "--max-word-len", "0")
    assert code == 2
    assert "--max-word-len: must be at least 1, got 0" in err


def test_max_word_len_above_cap_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--case", "A1:-",
                       "--max-word-len", "301")
    assert code == 2
    assert "--max-word-len: must be at most 300, got 301" in err
    code, out, _ = run(capsys, "verify", "--case", "A1:-", "--suite", "uc-family",
                       "--max-word-len", "300")
    assert code == 0 and out.endswith("PASS: 1 results, 0 failed, 0 hypothesis-gated\n")


@pytest.mark.parametrize("flag,text", [
    ("--seed", "\u0663"), ("--seed", "1x"), ("--seed", "1_0"), ("--seed", "+7"),
    ("--seed", " 7"), ("--seed", "7\n"), ("--max-word-len", " 1_0"),
    ("--max-word-len", "\u0663"), ("--max-word-len", "+5"), ("--max-word-len", "0x8")])
def test_non_canonical_integer_flag_exit_two(capsys, flag, text):
    # an Arabic-Indic 3, an underscore, a sign or a space ran as a number
    code, out, err = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra",
                         flag, text)
    assert (code, out) == (2, "")
    assert f"argument {flag}: not an integer in canonical form: {text!r}" in err
    assert "<lambda>" not in err


@pytest.mark.parametrize("text,seed", [("7", "7"), ("-3", "-3"), ("0xC0FFEE", "12648430"),
                                       ("0o17", "15"), ("0", "0")])
def test_seed_reads_what_int_base_zero_reads(tmp_path, capsys, text, seed):
    path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra",
                     "--seed", text, "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text())["seed"] == seed


@pytest.mark.parametrize("raw", [" 1_6 ", "1_6", "+16", "16 ", "\u0661\u0666", "0x1_0"])
def test_non_canonical_workbench_seed_exit_two(capsys, monkeypatch, raw):
    monkeypatch.setenv("WORKBENCH_SEED", raw)
    code, out, err = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra")
    assert (code, out) == (2, "")
    assert err == f"error: WORKBENCH_SEED is not an integer: {raw!r}\n"


def test_unknown_suite_usage_error(capsys):
    code = main(["verify", "--suite", "nonsense"])
    assert code == 2


def test_missing_subcommand_usage_error():
    assert main([]) == 2


_DOSSIER_TABLES = {
    "A2:1": """\
case A2:1
  dim g            8
  dim p            6
  dim levi         4
  dim u            2
  dim [u,u]        0
  dim [p,p]        5
  dim [p,p]-perp   3
  dim a_p          1
  dim a_u          2
  torus rank       1
  dim C            2
  dim U_C          5
  leaf dim         4
""",
    "D4:2": """\
case D4:2
  dim g            28
  dim p            17
  dim levi         6
  dim u            11
  dim [u,u]        5
  dim [p,p]        14
  dim [p,p]-perp   14
  dim a_p          3
  dim a_u          6
  torus rank       3
  dim C            11
  dim U_C          25
  leaf dim         22
""",
}


def test_dossier_table(capsys):
    for spec, table in _DOSSIER_TABLES.items():
        assert run(capsys, "dossier", "--case", spec) == (0, table, "")


def test_richardson_certificate_output(capsys):
    code, out, _ = run(capsys, "richardson", "--case", "B2:1")
    assert code == 0
    assert "tangent dim      3 of 3" in out
    assert "free" in out and "generating" in out


def test_json_report_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--case", "A1:-", "--case", "A1:1",
                     "--suite", "algebra", "--suite", "richardson-torsor",
                     "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["tool_version"]
    assert doc["summary"]["total"] == "4"
    assert doc["summary"]["pass"] == "4"
    assert doc["cases"] == ["A1:-", "A1:1"]
    statuses = {(r["suite"], r["case"]): r["status"] for r in doc["suites"]}
    assert statuses[("algebra", "A1:-")] == "pass"
    for r in doc["suites"]:
        for c in r["checks"]:
            assert set(c) == {"name", "expected", "actual", "ok", "witness"}


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_json_path_exit_two_before_any_suite(tmp_path, capsys,
                                                        monkeypatch, where):
    def no_suite_may_run(names, cases):
        raise AssertionError(f"suites {names} ran")

    monkeypatch.setattr(cli, "run_suites", no_suite_may_run)
    path = tmp_path / "no-such-dir" / "r.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra",
                         "--json", str(path))
    assert code == 2
    assert out.startswith(f"error: --json {str(path)!r}: ")
    assert "Traceback" not in out + err
    assert not (tmp_path / "no-such-dir").exists()


@pytest.mark.parametrize("epoch", ["abc", "1e3", "99999999999999", "1_000", " +7 ",
                                   "-1", "\u0663"])
def test_bad_source_date_epoch_exit_two_before_any_suite(tmp_path, capsys,
                                                        monkeypatch, epoch):
    def no_suite_may_run(names, cases):
        raise AssertionError(f"suites {names} ran")

    monkeypatch.setattr(cli, "run_suites", no_suite_may_run)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    path = tmp_path / "r.json"
    code, out, err = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra",
                         "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: SOURCE_DATE_EPOCH ")
    assert repr(epoch) in err
    assert "Traceback" not in out + err
    assert not path.exists()


def test_repeated_suite_runs_once(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--case", "A1:-", "--suite", "algebra",
                       "--suite", "richardson-torsor", "--suite", "algebra",
                       "--json", str(path))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "algebra", "richardson-torsor", "PASS:"]
    assert "PASS: 2 results" in out
    doc = json.loads(path.read_text())
    assert doc["summary"]["total"] == "2"
    assert [(r["suite"], r["case"]) for r in doc["suites"]] == [
        ("algebra", "A1:-"), ("richardson-torsor", "A1:-")]


def test_json_round_trip_byte_identical(tmp_path, capsys):
    path = tmp_path / "report.json"
    run(capsys, "verify", "--case", "B2:2", "--suite", "parabolic-identities",
        "--json", str(path))
    raw = path.read_text()
    assert canonical_json(json.loads(raw)) == raw


def test_two_runs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--case", "A2:2", "--suite", "uc-family",
            "--suite", "bc-hypotheses"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_changes_report(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--case", "A1:-", "--suite", "algebra",
          "--seed", "1", "--json", str(a)])
    main(["verify", "--case", "A1:-", "--suite", "algebra",
          "--seed", "2", "--json", str(b)])
    capsys.readouterr()
    assert json.loads(a.read_text())["seed"] == "1"
    assert json.loads(b.read_text())["seed"] == "2"


def test_workbench_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_SEED", "77")
    path = tmp_path / "r.json"
    main(["verify", "--case", "A1:-", "--suite", "algebra",
          "--json", str(path)])
    capsys.readouterr()
    assert json.loads(path.read_text())["seed"] == "77"


def test_workbench_seed_invalid(capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_SEED", "frog")
    code = main(["verify", "--case", "A1:-", "--suite", "algebra"])
    capsys.readouterr()
    assert code == 2


def test_dossier_reads_no_seed(capsys, monkeypatch):
    # a dossier samples nothing; richardson's search is seeded, so it still
    # rejects a malformed WORKBENCH_SEED
    want = run(capsys, "dossier", "--case", "A2:1")
    monkeypatch.setenv("WORKBENCH_SEED", "frog")
    assert run(capsys, "dossier", "--case", "A2:1") == want
    code, out, err = run(capsys, "richardson", "--case", "A2:1")
    assert (code, out) == (2, "")
    assert "WORKBENCH_SEED is not an integer" in err


def test_richardson_zero_element_reads_0(capsys):
    code, out, _ = run(capsys, "richardson", "--case", "A2:1,2")
    assert code == 0
    assert "element          0\n" in out


def test_report_summary_matches_tally():
    results = run_suite("bc-hypotheses",
                        [CaseSpec.from_string("A2:-"),
                         CaseSpec.from_string("A2:1")])
    doc = build_report(results, seed=5, max_word_len=8)
    assert doc["summary"] == {"pass": "1", "fail": "0",
                              "hypothesis-gated": "1", "skipped": "0",
                              "total": "2"}


def test_rationals_serialize_as_strings(tmp_path, capsys):
    path = tmp_path / "r.json"
    run(capsys, "verify", "--case", "G2:1", "--suite", "richardson-torsor",
        "--json", str(path))
    raw = path.read_text()
    doc = json.loads(raw)
    for r in doc["suites"]:
        for c in r["checks"]:
            assert isinstance(c["expected"], str)
            assert isinstance(c["actual"], str)
    assert '"seed":"12648430"' in raw


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "liework" in out


def test_light_suites_match_pinned_report(tmp_path, capsys):
    # the benchmark's pinned certify report: four light suites, all 54 cases
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "reference" / "certify.json").read_text())
    path = tmp_path / "certify.json"
    argv = ["verify", "--include-d4", "--seed", "0xC0FFEE",
            "--max-word-len", "8", "--json", str(path)]
    for name in ("algebra", "parabolic-identities", "richardson-torsor",
                 "bc-hypotheses"):
        argv += ["--suite", name]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["suites"] == ref["suites"]


def test_heavy_suites_match_pinned_report(tmp_path, capsys):
    # the benchmark's pinned matrix17 report, restricted to the three
    # group-action suites over the rank-1 and rank-2 cases
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "reference" / "matrix17.json").read_text())
    heavy = ("uc-family", "invariance", "embedding")
    cases = [c for c in ref["cases"] if c[:2] in {"A1", "A2", "B2", "G2"}]
    want = [r for r in ref["suites"]
            if r["suite"] in heavy and r["case"] in cases]
    assert len(want) == 3 * 14
    path = tmp_path / "heavy.json"
    argv = ["verify", "--seed", "0xC0FFEE", "--max-word-len", "8",
            "--json", str(path)]
    for name in heavy:
        argv += ["--suite", name]
    for c in cases:
        argv += ["--case", c]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["suites"] == want
    # the points layer's one bounded cache stays within its bound
    info = bundles.intrinsic_quotients.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
