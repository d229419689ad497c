"""One benchmark pass of a workload, in a fresh interpreter.

Every `liework` invocation starts with cold process caches (`algebra`,
`standard_parabolic`, `intrinsic_quotients`, the suites' algebra checks),
so perfbench/run.py runs each pass as its own process:

    python3 perfbench/child.py --workload matrix38 --seed 12648430 \
        --mode verify --trace 0

`--mode setup` only builds the algebras and standard parabolics of the
workload's cases; `--mode verify` then runs the workload's suites the way
`liework verify` does, builds the canonical report and checks each
(suite, case) record against the pinned reference. The last line of
standard output is a JSON object with the pass's measurements.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SPANS_DIR = HERE / "out"

DEFAULT_SEED = 0xC0FFEE
MAX_WORD_LEN = 8
ALL_SUITES = ("algebra", "parabolic-identities", "richardson-torsor",
              "uc-family", "invariance", "embedding", "bc-hypotheses")
LIGHT_SUITES = ("algebra", "parabolic-identities", "richardson-torsor",
                "bc-hypotheses")


def _rank(case) -> int:
    return int(case.type_label[1:])


# name -> (which cases of the full matrix, D4 included, it keeps; suites)
WORKLOADS = {
    # the default `liework verify`
    "matrix38": (lambda c: c.type_label != "D4", ALL_SUITES),
    # every rank-1 and rank-2 case plus the Borel case of each rank-3 type:
    # all seven types and dimensions 3 to 21 in a pass short enough to
    # repeat many times in one run
    "matrix17": (lambda c: c.type_label != "D4"
                 and (_rank(c) <= 2 or not c.gamma), ALL_SUITES),
    "d4": (lambda c: c.type_label == "D4", ALL_SUITES),
    "certify": (lambda c: True, LIGHT_SUITES),
}


def workload_cases(workload: str, seed: int):
    from liework import suites
    keep = WORKLOADS[workload][0]
    return [c for c in suites.default_case_matrix(
        include_d4=True, seed=seed, max_word_len=MAX_WORD_LEN) if keep(c)]


def cli_args(workload: str, seed: int) -> list[str]:
    """`liework verify` flags that select the same results as the workload."""
    args = ["verify", "--seed", str(seed), "--max-word-len", str(MAX_WORD_LEN)]
    for c in workload_cases(workload, seed):
        args += ["--case", c.case_label()]
    for name in WORKLOADS[workload][1]:
        args += ["--suite", name]
    return args


def setup(cases) -> list[float]:
    """Build every algebra and standard parabolic the cases need; the
    seconds each case adds, in case order."""
    from liework import chevalley, parabolic
    out = []
    for case in cases:
        t0 = time.perf_counter()
        chevalley.algebra(case.type_label)
        parabolic.standard_parabolic(case.type_label, case.gamma)
        out.append(time.perf_counter() - t0)
    return out


def run_verify(cases, suite_names, seed: int, max_word_len: int):
    """The work of `liework verify` without its console table: every suite
    over every case, then the canonical JSON report.

    `run_suite` is called one case at a time, in its own canonical case
    order, so each (suite, case) result gets its own time; the results
    list, and so the report, is the one a single call per suite gives.
    Returns (report text, per-result seconds, per-suite seconds, total).
    """
    from liework import cli, suites
    ordered = sorted(set(cases), key=suites.CaseSpec.sort_key)
    results = []
    case_s = []
    suite_s = {}
    t0 = time.perf_counter()
    for name in suite_names:
        ts = time.perf_counter()
        for case in ordered:
            tc = time.perf_counter()
            results.extend(suites.run_suite(name, [case]))
            case_s.append(time.perf_counter() - tc)
        suite_s[name] = time.perf_counter() - ts
    text = cli.canonical_json(cli.build_report(results, seed, max_word_len))
    return text, case_s, suite_s, time.perf_counter() - t0


def _record_key(doc: dict) -> tuple[str, str]:
    return doc["suite"], doc["case"]


def check_report(workload: str, seed: int, text: str) -> tuple[int, int, list]:
    """(attempted, failed, first few mismatches) against the pinned report.

    At the pinned seed every (suite, case) record must equal the pinned
    one. At another seed the samples differ, so a record fails when its
    status is `fail` or it is gated where the pinned run was not, or the
    other way round (gating does not depend on the seed).
    """
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    ref_records = {_record_key(r): r for r in ref["suites"]}
    records = json.loads(text)["suites"]
    pinned = int(ref["seed"]) == seed
    failed = 0
    mismatches = []
    for rec in records:
        key = _record_key(rec)
        want = ref_records.pop(key, None)
        if want is None:
            bad = "not in the reference"
        elif pinned and rec != want:
            bad = "differs from the reference"
        elif rec["status"] == "fail":
            bad = "fail"
        elif (rec["status"] == "hypothesis-gated") != (
                want["status"] == "hypothesis-gated"):
            bad = f"status {rec['status']}, reference {want['status']}"
        else:
            continue
        failed += 1
        if len(mismatches) < 5:
            mismatches.append(f"{key[0]} {key[1]}: {bad}")
    # a reference record the pass did not produce is a result lost
    failed += len(ref_records)
    attempted = len(records) + len(ref_records)
    mismatches += [f"{s} {c}: missing" for s, c in list(ref_records)[:5]]
    return attempted, failed, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--mode", required=True, choices=("setup", "verify"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import spans
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    else:
        spans.assert_untraced()

    cases = workload_cases(args.workload, args.seed)
    t_begin = time.perf_counter_ns()
    out = {"setup_s": setup(cases)}
    if args.mode == "verify":
        suite_names = WORKLOADS[args.workload][1]
        text, case_s, suite_s, verify_s = run_verify(
            cases, suite_names, args.seed, MAX_WORD_LEN)
        t_end = time.perf_counter_ns()
        attempted, failed, mismatches = check_report(
            args.workload, args.seed, text)
        out.update(verify_s=verify_s, case_s=case_s, suite_s=suite_s,
                   report_bytes=len(text.encode("ascii")),
                   attempted=attempted, failed=failed, mismatches=mismatches)
        if tracer is not None:
            info = tracer.originals["bundles.intrinsic_quotients"].cache_info()
            out["trace"] = tracer.summary((t_begin, t_end))
            out["trace"].update(
                counters=tracer.counters,
                miss_s={k: v / 1e9 for k, v in tracer.miss_ns.items()},
                iq_hits=info.hits, iq_misses=info.misses,
                spans_recorded=len(tracer.sids))
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    raise SystemExit(main())
