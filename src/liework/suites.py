"""Named verification suites over the supported (type, gamma) case matrix.

Each suite binds one family of claims to a battery of exact checks and
returns structured result records; nothing here tolerates an epsilon.  Random
sampling is deterministic: every case derives its own generator from a
string key built out of (seed, suite, case), so reruns are bit-identical
and cases can run in any order.

Identities that the builders already audit are not checked again: the
algebra and parabolic-identities suites report the records that
build_algebra and build_parabolic return, and compute only what no
builder checks.

Statuses are three-valued: a "hypothesis-gated" result marks claims
whose hypothesis fails for that gamma; they are neither passes nor
failures and are counted separately.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .chevalley import SUPPORTED_TYPES, CheckRecord, algebra, check_record
from .exactlin import _clear_denominators, class_of
from .parabolic import (
    RichardsonSearchError,
    dimension_report,
    find_richardson,
    fixedpoint_check,
    format_case,
    h1_witness,
    parse_case,
    standard_parabolic,
    torsor_certificate,
)
from .bundles import (
    IDENTITY_WORD,
    GroupWord,
    PointInvariantError,
    TorusLetter,
    UnipotentLetter,
    act_roundtrip,
    act_uc_point,
    act_vector,
    bc_torus_action,
    canonical_id,
    fiber_dimension,
    intrinsic_quotients,
    invariance_pairing_square,
    make_bc_point,
    make_uc_point,
    pi_c,
    random_word,
    stabilizer_word,
    twist_level,
    twist_section,
)

DEFAULT_SEED = 0xC0FFEE
DEFAULT_MAX_WORD_LEN = 8

SUITE_NAMES = (
    "algebra",
    "parabolic-identities",
    "richardson-torsor",
    "uc-family",
    "invariance",
    "embedding",
    "bc-hypotheses",
)

_MATRIX_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


@dataclass(frozen=True)
class CaseSpec:
    type_label: str
    gamma: frozenset[int] = field(compare=False)
    seed: int = DEFAULT_SEED
    max_word_len: int = DEFAULT_MAX_WORD_LEN
    gamma_key: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        # validated here, where cases enter, without building the algebra
        object.__setattr__(self, "gamma_key", tuple(sorted(self.gamma)))
        if self.type_label not in SUPPORTED_TYPES:
            raise ValueError(
                f"malformed case spec {self.case_label()!r}: type "
                f"{self.type_label!r} is not one of {', '.join(SUPPORTED_TYPES)}")
        rank = int(self.type_label[1:])
        if not self.gamma <= set(range(1, rank + 1)):
            raise ValueError(
                f"malformed case spec {self.case_label()!r}: gamma exceeds rank")
        if self.max_word_len < 1:
            raise ValueError(
                f"max_word_len must be at least 1, got {self.max_word_len}")

    @staticmethod
    def from_string(text: str, seed: int = DEFAULT_SEED,
                    max_word_len: int = DEFAULT_MAX_WORD_LEN) -> "CaseSpec":
        label, gamma = parse_case(text)
        return CaseSpec(label, gamma, seed=seed, max_word_len=max_word_len)

    def case_label(self) -> str:
        return format_case(self.type_label, self.gamma_key)

    def sort_key(self):
        order = {t: i for i, t in enumerate(_MATRIX_TYPES + ("D4",))}
        return (order[self.type_label], len(self.gamma_key), self.gamma_key)


@dataclass(frozen=True)
class SuiteResult:
    suite_name: str
    case: CaseSpec
    status: str  # pass | fail | hypothesis-gated
    checks: tuple[CheckRecord, ...]


def default_case_matrix(include_d4: bool = False, seed: int = DEFAULT_SEED,
                        max_word_len: int = DEFAULT_MAX_WORD_LEN) -> list[CaseSpec]:
    """Every gamma subset for every supported type (38 cases; D4 adds 16)."""
    types = _MATRIX_TYPES + (("D4",) if include_d4 else ())
    out = []
    for label in types:
        rank = int(label[1:])
        for r in range(rank + 1):
            for gamma in itertools.combinations(range(1, rank + 1), r):
                out.append(CaseSpec(label, frozenset(gamma), seed=seed,
                                    max_word_len=max_word_len))
    return out


def _rng(case: CaseSpec, suite: str, topic: str = "") -> random.Random:
    # string seeding keeps derivation independent of hash randomization
    return random.Random(f"{case.seed}:{suite}:{case.case_label()}:{topic}")


def _suite_algebra(case: CaseSpec) -> tuple[CheckRecord, ...]:
    return algebra(case.type_label).audit


def _suite_parabolic(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    fixed_ok = fixedpoint_check(pd)
    # report order: the three subspace identities, then the fixed-point
    # property, then the torus and leaf identities
    return (pd.audit[:3]
            + (check_record("fixedpoint-property", True, fixed_ok, fixed_ok),)
            + pd.audit[3:])


def _suite_richardson(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    try:
        cert = find_richardson(pd, seed=case.seed)
    except RichardsonSearchError as err:
        return (
            check_record("richardson-found", True, False, False,
                         witness=f"best tangent dim {err.best_tangent_dim} "
                                 f"of {pd.u.dim}"),
        )
    tangent_ok = cert.tangent == pd.u
    tc = torsor_certificate(pd, cert)
    return (
        check_record("richardson-found", True, True, True),
        check_record("tangent-fills-nilradical", pd.u.dim, cert.tangent.dim,
                     tangent_ok,
                     witness=None if tangent_ok else f"element {cert.element}"),
        check_record("infinitesimal-freeness", pd.torus_rank, tc.induced_rank,
                     tc.infinitesimal_free),
        check_record("lattice-freeness", "all invariants 1",
                     str(list(tc.smith_invariants)), tc.lattice_generating),
    )


def _uc_base_vector(pd) -> tuple:
    """Deterministic representative of [p,p]-perp with full twist support:
    the sum of the twist section's rows and the nilradical's rows."""
    nums, den = twist_section(pd, [1] * pd.torus_rank)
    return tuple(sum(col, Fraction(x, den)) for x, *col in zip(nums, *pd.u.rows))


def _suite_uc_family(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    alg = pd.alg
    rep = dimension_report(pd)
    checks = [next(r for r in pd.audit if r.name == "leaf-twice-codim")]

    rng = _rng(case, "uc-family", "fibers")
    dims = set()
    for _ in range(5):
        psi = twist_level(pd, [rng.randint(-5, 5) for _ in range(pd.torus_rank)])
        dims.add(fiber_dimension(pd, psi))
    fib_ok = dims == {2 * rep.dim_c}
    checks.append(check_record("fiber-equidimensional", {2 * rep.dim_c},
                               sorted(dims), fib_ok))

    x0 = _uc_base_vector(pd)
    base = make_uc_point(pd, IDENTITY_WORD, x0)
    base_level = pi_c(pd, base)

    rng = _rng(case, "uc-family", "words")
    total = 100
    words = [random_word(alg, rng, length=rng.randint(1, case.max_word_len))
             for _ in range(total)]
    oks = act_roundtrip(alg, words, x0)
    bad = oks.count(False)
    witness = None
    if bad:
        k = oks.index(False)
        witness = f"word #{k}: {words[k]}"
    checks.append(check_record("action-roundtrip-and-killing", f"{total} exact",
                               f"{total - bad} exact", bad == 0, witness))

    rng = _rng(case, "uc-family", "points")
    pt_bad = 0
    pt_witness = None
    for k in range(4):
        w = random_word(alg, rng, length=2)
        try:
            pt = make_uc_point(pd, w, x0)
        except Exception as err:  # membership re-verification failed
            pt_bad += 1
            pt_witness = pt_witness or f"point #{k}: {err}"
            continue
        twist, _ = intrinsic_quotients(alg, pt.p)
        far_level = tuple(-c for c in class_of(twist, *_clear_denominators(pt.x)))
        [via_id] = canonical_id(pd, w, [base_level], pt.p)
        if far_level != via_id or pi_c(pd, pt) != base_level:
            pt_bad += 1
            pt_witness = pt_witness or f"point #{k}: transported level mismatch"
    checks.append(check_record("transported-points-consistent", "4 exact",
                               f"{4 - pt_bad} exact", pt_bad == 0, pt_witness))

    rng = _rng(case, "uc-family", "stabilizers")
    st_bad = 0
    st_witness = None
    units = [twist_level(pd, [int(j == m) for j in range(pd.torus_rank)])
             for m in range(pd.torus_rank)]
    for k in range(8):
        w = stabilizer_word(pd, rng, length=2)
        for m, (psi, moved) in enumerate(zip(units, canonical_id(pd, w, units))):
            if moved != psi:
                st_bad += 1
                st_witness = st_witness or f"word #{k} level {m}"
    checks.append(check_record("stabilizer-canonical-id-identity", "identity",
                               "identity" if st_bad == 0 else f"{st_bad} moved",
                               st_bad == 0, st_witness))
    return tuple(checks)


def _suite_invariance(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    rng = _rng(case, "invariance", "pairs")
    total = 0
    bad = 0
    witness = None
    for wk in range(5):
        w = random_word(pd.alg, rng, length=1 + wk % 3)
        psis = [twist_level(pd, [rng.randint(-4, 4) for _ in range(pd.torus_rank)])
                for _ in range(10)]
        for pk, (far, near) in enumerate(invariance_pairing_square(pd, w, psis)):
            total += 1
            if far != near:
                bad += 1
                witness = witness or f"word #{wk} psi #{pk}: {far} != {near}"
    return (check_record("pairing-square", f"{total} equal",
                         f"{total - bad} equal", bad == 0, witness),)


def _split(w: GroupWord) -> GroupWord:
    """The same group element in other letters: exp(te) as
    exp(te/3) exp(2te/3), and each torus parameter q as 2 * (q/2)."""
    letters = []
    for letter in w.letters:
        if isinstance(letter, UnipotentLetter):
            letters += [UnipotentLetter(letter.root, letter.t / 3),
                        UnipotentLetter(letter.root, 2 * letter.t / 3)]
        else:
            letters += [TorusLetter((Fraction(2),) * len(letter.params)),
                        TorusLetter(tuple(q / 2 for q in letter.params))]
    return GroupWord(tuple(letters))


def _suite_embedding(case: CaseSpec) -> tuple[CheckRecord, ...]:
    # The embedding into the partial resolution family sends (p, x) to
    # (p, x), so its content is x in p; both moment maps read x, so the
    # triangle and equivariance compare the transported x against x moved
    # by a split word, the same group element in other letters.
    pd = standard_parabolic(case.type_label, case.gamma)
    alg = pd.alg
    rng = _rng(case, "embedding", "points")
    rows = pd.p_derived_perp.rows
    embedded = triangle = equivariant = 0
    total = 5
    witness = None
    for k in range(total):
        x0 = rows[k % len(rows)] if rows else tuple([Fraction(0)] * alg.dim)
        w = random_word(alg, rng, length=1 + k % 3)
        try:
            pt = make_uc_point(pd, w, x0)
            if not pt.p.contains(pt.x):
                raise PointInvariantError("x must lie in p")
            embedded += 1
        except Exception as err:
            witness = witness or f"point #{k}: {err}"
            continue
        if act_vector(alg, _split(w), x0) == pt.x:
            triangle += 1
        else:
            witness = witness or f"point #{k}: triangle broke"
        v = random_word(alg, rng, length=1)
        rhs = act_uc_point(pd, v, pt)
        x2 = act_vector(alg, _split(v), pt.x)
        if x2 == rhs.x and rhs.p.contains(x2):
            equivariant += 1
        else:
            witness = witness or f"point #{k}: equivariance broke"
    ok = embedded == triangle == equivariant == total
    return (
        check_record("points-embed", total, embedded, embedded == total,
                     witness),
        check_record("triangle-phi-embed-mu", total, triangle,
                     triangle == total, witness),
        check_record("embed-equivariant", total, equivariant,
                     equivariant == total, witness if not ok else None),
    )


def _suite_bc(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    wit = h1_witness(pd)
    if wit is not None:
        a, b, v = wit
        return (
            check_record("triviality-hypothesis", "reported", "false", True,
                         witness=f"[{a}, {b}] = {pd.alg.vector_name(v)} "
                                 "outside [u,u]"),
            check_record("quotient-dimension-bookkeeping", "reported",
                         f"dim a_p = {pd.a_p.dim}, dim a_u = {pd.a_u.dim}",
                         True),
        )
    checks = [check_record("triviality-hypothesis", "reported", "true", True)]
    cert = find_richardson(pd, seed=case.seed)
    bc = make_bc_point(pd, cert)
    # nu_T is pi_C of the covector y.  Each a_p section z lies in p and
    # y - section(class y) in p-perp, so kappa(z, y) must equal kappa(z,
    # twist_section(-pi_C y)): the class projector against the Killing form.
    ys = [*pd.p_derived_perp.rows[:2], _uc_base_vector(pd)]
    sections, _ = pd.a_p.section
    factor_ok = True
    witness = None
    for y in ys:
        level = pi_c(pd, make_uc_point(pd, IDENTITY_WORD, y))
        via, dv = twist_section(pd, tuple(-c for c in level))
        ny, dy = _clear_denominators(y)
        if any(pd.alg.killing(z, ny) * dv != pd.alg.killing(z, via) * dy
               for z in sections):
            factor_ok = False
            witness = f"y = {pd.alg.vector_name(y)}"
            break
    checks.append(check_record("moment-maps-factor-through-quotient", True,
                               factor_ok, factor_ok, witness))
    params = [Fraction(3)] * pd.alg.rank
    inv_params = [Fraction(1, 3)] * pd.alg.rank
    back = bc_torus_action(pd, bc_torus_action(pd, bc, params), inv_params)
    torus_ok = back.x_rep == bc.x_rep
    checks.append(check_record("torus-action-invertible", True, torus_ok,
                               torus_ok))
    return tuple(checks)


_SUITE_FUNCS = {
    "algebra": _suite_algebra,
    "parabolic-identities": _suite_parabolic,
    "richardson-torsor": _suite_richardson,
    "uc-family": _suite_uc_family,
    "invariance": _suite_invariance,
    "embedding": _suite_embedding,
    "bc-hypotheses": _suite_bc,
}


def run_suite(name: str, cases: list[CaseSpec]) -> list[SuiteResult]:
    """Run one named suite over the cases; results in canonical case order."""
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    fn = _SUITE_FUNCS[name]
    results = []
    for case in sorted(set(cases), key=CaseSpec.sort_key):
        try:
            checks = fn(case)
        except Exception as err:  # a suite reports, it never takes the runner down
            checks = (check_record("unexpected-error", "no exception",
                                   type(err).__name__, False,
                                   witness=str(err)),)
        if any(not c.ok for c in checks):
            status = "fail"
        elif name == "bc-hypotheses" and any(
                c.name == "triviality-hypothesis" and c.actual == "false"
                for c in checks):
            status = "hypothesis-gated"
        else:
            status = "pass"
        results.append(SuiteResult(name, case, status, checks))
    return results


def run_suites(names: list[str] | None = None,
               cases: list[CaseSpec] | None = None) -> list[SuiteResult]:
    """Run several suites (default: all) over cases (default: full matrix)."""
    if names is None:
        names = list(SUITE_NAMES)
    if cases is None:
        cases = default_case_matrix()
    out = []
    for name in names:
        out.extend(run_suite(name, cases))
    return out
