"""Command-line front end: run suites, print tables, emit JSON reports.

The JSON report is canonical: keys sorted, no whitespace, ASCII only, and
every number carried as a decimal string (rationals as "num/den"), so two
runs with identical flags produce byte-identical files.  The timestamp is
deliberately not wall-clock: it comes from SOURCE_DATE_EPOCH (default 0),
keeping reports reproducible.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .parabolic import RichardsonSearchError, find_richardson, standard_parabolic
from .suites import (
    DEFAULT_MAX_WORD_LEN,
    DEFAULT_SEED,
    MAX_WORD_LEN_CAP,
    SUITE_NAMES,
    CaseSpec,
    SuiteResult,
    default_case_matrix,
    run_suites,
)


def _canonical_int(text: str, digits_only: bool = False) -> int:
    """text as an int in canonical form: ASCII digits, or else int(text, 0)
    of ASCII text with no '_', '+' or whitespace."""
    try:
        if text.isascii() and (text.isdigit() if digits_only else
                               not any(c in "_+" or c.isspace() for c in text)):
            return int(text, 10 if digits_only else 0)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer in canonical form: {text!r}")


def _timestamp() -> str:
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        dt = datetime.datetime.fromtimestamp(_canonical_int(raw, digits_only=True),
                                             datetime.timezone.utc)
    except (argparse.ArgumentTypeError, ValueError, OverflowError, OSError):
        raise SystemExit(f"error: SOURCE_DATE_EPOCH is not a whole number of "
                         f"seconds in the datetime range: {raw!r}") from None
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _default_seed() -> int:
    raw = os.environ.get("WORKBENCH_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return _canonical_int(raw)
    except argparse.ArgumentTypeError:
        raise SystemExit(f"error: WORKBENCH_SEED is not an integer: {raw!r}")


def _result_doc(r: SuiteResult) -> dict:
    return {
        "suite": r.suite_name,
        "case": r.case.case_label(),
        "status": r.status,
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "ok": c.ok,
                "witness": c.witness,
            }
            for c in r.checks
        ],
    }


def build_report(results: list[SuiteResult], seed: int,
                 max_word_len: int) -> dict:
    # nothing is ever skipped; the report format keeps the key at "0"
    counts = {"pass": 0, "fail": 0, "hypothesis-gated": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    cases = sorted({r.case.case_label() for r in results})
    summary = {k: str(v) for k, v in counts.items()}
    summary["total"] = str(len(results))
    return {
        "tool_version": __version__,
        "timestamp": _timestamp(),
        "seed": str(seed),
        "max_word_len": str(max_word_len),
        "cases": cases,
        "suites": [_result_doc(r) for r in results],
        "summary": summary,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def _word_len(text: str) -> int:
    n = _canonical_int(text, digits_only=True)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    if n > MAX_WORD_LEN_CAP:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_WORD_LEN_CAP}, got {n}")
    return n


def _parse_cases(tokens: list[str], seed: int, max_word_len: int,
                 out) -> list[CaseSpec] | None:
    cases = []
    for tok in tokens:
        try:
            cases.append(CaseSpec.from_string(tok, seed=seed,
                                              max_word_len=max_word_len))
        except ValueError as err:
            print(f"error: malformed case {tok!r}: {err}", file=out)
            return None
    return cases


def _cmd_verify(args, out) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    mwl = args.max_word_len
    if args.case:
        cases = _parse_cases(args.case, seed, mwl, out)
        if cases is None:
            return 2
    else:
        cases = default_case_matrix(include_d4=args.include_d4, seed=seed,
                                    max_word_len=mwl)
    names = list(dict.fromkeys(args.suite or SUITE_NAMES))  # a repeated suite runs once
    if args.json:  # a bad timestamp or report path fails before any suite runs
        _timestamp()
        try:
            open(args.json, "a", encoding="ascii").close()
        except OSError as err:
            print(f"error: --json {args.json!r}: {err.strerror}", file=out)
            return 2
    results = run_suites(names, cases)

    width = max(len(n) for n in names)
    for name in names:
        chunk = [r for r in results if r.suite_name == name]
        tally = {s: sum(1 for r in chunk if r.status == s)
                 for s in ("pass", "fail", "hypothesis-gated")}
        cells = "  ".join(f"{s}={tally[s]}" for s in tally if tally[s])
        print(f"{name:<{width}}  cases={len(chunk):3d}  {cells}", file=out)
    for r in results:
        if r.status == "fail":
            for c in r.checks:
                if not c.ok:
                    print(f"FAIL {r.suite_name} {r.case.case_label()} "
                          f"{c.name}: {c.witness}", file=out)
        elif r.status == "hypothesis-gated":
            wit = next((c.witness for c in r.checks if c.witness), "")
            print(f"GATED {r.suite_name} {r.case.case_label()}: {wit}",
                  file=out)

    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(canonical_json(build_report(results, seed, mwl)))

    failed = sum(1 for r in results if r.status == "fail")
    gated = sum(1 for r in results if r.status == "hypothesis-gated")
    verdict = "FAIL" if failed or (gated and args.strict_hypotheses) else "PASS"
    print(f"{verdict}: {len(results)} results, {failed} failed, "
          f"{gated} hypothesis-gated", file=out)
    return 1 if verdict == "FAIL" else 0


def _cmd_dossier(args, out) -> int:
    # a dossier samples nothing, so it reads no seed
    cases = _parse_cases([args.case], DEFAULT_SEED, DEFAULT_MAX_WORD_LEN, out)
    if cases is None:
        return 2
    case = cases[0]
    pd = standard_parabolic(case.type_label, case.gamma)
    dim_c = pd.alg.dim - pd.p.dim  # C = G/P, the class of p
    # the generic leaf of U_C, as build_parabolic computed and audited it
    leaf = next(r.actual for r in pd.audit if r.name == "leaf-twice-codim")
    print(f"case {case.case_label()}", file=out)
    rows = [
        ("dim g", pd.alg.dim), ("dim p", pd.p.dim), ("dim levi", pd.levi.dim),
        ("dim u", pd.u.dim), ("dim [u,u]", pd.u_derived.dim),
        ("dim [p,p]", pd.p_derived.dim),
        ("dim [p,p]-perp", pd.p_derived_perp.dim),
        ("dim a_p", pd.a_p.dim), ("dim a_u", pd.a_u_dim),
        ("torus rank", pd.torus_rank), ("dim C", dim_c),
        ("dim U_C", dim_c + pd.p_derived_perp.dim), ("leaf dim", leaf),
    ]
    for name, value in rows:
        print(f"  {name:<16s} {value}", file=out)
    return 0


def _cmd_richardson(args, out) -> int:
    cases = _parse_cases([args.case], _default_seed(), DEFAULT_MAX_WORD_LEN, out)
    if cases is None:
        return 2
    case = cases[0]
    pd = standard_parabolic(case.type_label, case.gamma)
    try:
        cert = find_richardson(pd, seed=case.seed)
    except RichardsonSearchError as err:
        print(f"no Richardson element found: best tangent dimension "
              f"{err.best_tangent_dim} of {pd.u.dim}", file=out)
        return 1
    print(f"case {case.case_label()}\n"
          f"  element          {pd.alg.vector_name(cert.element)}\n"
          f"  tangent dim      {cert.tangent.dim} of {pd.u.dim}\n"
          f"  infinitesimal    rank {cert.induced_rank} of {pd.torus_rank} "
          f"({'' if cert.infinitesimal_free else 'NOT '}free)\n"
          f"  lattice          invariants {list(cert.smith_invariants)} "
          f"({'' if cert.lattice_generating else 'NOT '}generating)", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="liework",
        description="exact verification workbench for parabolic twist families")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="suite to run (repeatable; default: all)")
    p_verify.add_argument("--case", action="append", metavar="TYPE:GAMMA",
                          help="case spec such as A2:1 or B3:- (repeatable; "
                               "default: the full matrix)")
    p_verify.add_argument("--seed", type=_canonical_int, default=None,
                          help="base seed (default: WORKBENCH_SEED or builtin)")
    p_verify.add_argument("--max-word-len", type=_word_len,
                          default=DEFAULT_MAX_WORD_LEN,
                          help="maximum length of the 100 sampled "
                               "uc-family round-trip words")
    p_verify.add_argument("--json", metavar="PATH",
                          help="write the canonical JSON report here")
    p_verify.add_argument("--strict-hypotheses", action="store_true",
                          help="treat hypothesis-gated results as failures")
    p_verify.add_argument("--include-d4", action="store_true",
                          help="extend the default matrix with the D4 cases")
    p_verify.set_defaults(func=_cmd_verify)

    p_dossier = sub.add_parser("dossier",
                               help="print the dimension report of one case")
    p_dossier.add_argument("--case", required=True, metavar="TYPE:GAMMA")
    p_dossier.set_defaults(func=_cmd_dossier)

    p_rich = sub.add_parser("richardson",
                            help="print the Richardson certificate of one case")
    p_rich.add_argument("--case", required=True, metavar="TYPE:GAMMA")
    p_rich.set_defaults(func=_cmd_richardson)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
