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
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .chevalley import SUPPORTED_TYPES, CheckRecord, algebra, check_record
from .exactlin import _lowest, class_of
from .parabolic import (
    RichardsonSearchError,
    find_richardson,
    fixedpoint_check,
    format_case,
    h1_witness,
    parse_case,
    standard_parabolic,
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
    canonical_id,
    fiber_dimension,
    intrinsic_quotients,
    invariance_pairing_square,
    make_uc_point,
    pi_c,
    random_word,
    stabilizer_word,
    twist_level,
    twist_section,
    word_of,
)

DEFAULT_SEED = 0xC0FFEE
DEFAULT_MAX_WORD_LEN = 8
# integers grow along a word, so its length is capped
MAX_WORD_LEN_CAP = 300


# the default matrix's types; D4 is opt-in and sorts last
_MATRIX_TYPES = tuple(t for t in SUPPORTED_TYPES if t != "D4")
_CASE_ORDER = {t: i for i, t in enumerate(_MATRIX_TYPES + ("D4",))}


@dataclass(frozen=True)
class CaseSpec:
    type_label: str
    gamma: frozenset[int]
    seed: int = DEFAULT_SEED
    max_word_len: int = DEFAULT_MAX_WORD_LEN

    def __post_init__(self):
        # validated here, where cases enter, without building the algebra
        if self.type_label not in SUPPORTED_TYPES:
            raise ValueError(
                f"malformed case spec {self.case_label()!r}: type "
                f"{self.type_label!r} is not one of {', '.join(SUPPORTED_TYPES)}")
        rank = int(self.type_label[1:])
        if type(self.gamma) is not frozenset or any(type(g) is not int for g in self.gamma):
            raise TypeError(f"gamma must be a frozenset of ints, got {self.gamma!r}")
        if not self.gamma <= set(range(1, rank + 1)):
            raise ValueError(
                f"malformed case spec {self.case_label()!r}: gamma exceeds rank")
        for name in ("seed", "max_word_len"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not 1 <= self.max_word_len <= MAX_WORD_LEN_CAP:
            raise ValueError(f"max_word_len must be between 1 and "
                             f"{MAX_WORD_LEN_CAP}, got {self.max_word_len}")

    @staticmethod
    def from_string(text: str, seed: int = DEFAULT_SEED,
                    max_word_len: int = DEFAULT_MAX_WORD_LEN) -> "CaseSpec":
        label, gamma = parse_case(text)
        return CaseSpec(label, gamma, seed=seed, max_word_len=max_word_len)

    def case_label(self) -> str:
        return format_case(self.type_label, self.gamma)

    def sort_key(self):
        return _CASE_ORDER[self.type_label], len(self.gamma), sorted(self.gamma)


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
    return (
        check_record("richardson-found", True, True, True),
        check_record("tangent-fills-nilradical", pd.u.dim, cert.tangent.dim,
                     tangent_ok,
                     witness=None if tangent_ok else f"element {cert.element}"),
        check_record("infinitesimal-freeness", pd.torus_rank, cert.induced_rank,
                     cert.infinitesimal_free),
        check_record("lattice-freeness", "all invariants 1",
                     str(list(cert.smith_invariants)), cert.lattice_generating),
    )


def _echelon_rows(s) -> list[tuple]:
    """A subspace's reduced row-echelon rows as (nums, den) pairs."""
    return [(r, r[p]) for r, p in zip(s.ints, s.pivots)]


def _uc_base_vector(pd) -> tuple:
    """Deterministic representative of [p,p]-perp with full twist support:
    the QVec sum of the twist section's rows and u's echelon rows."""
    rows = [twist_section(pd, ((1,) * pd.torus_rank, 1)), *_echelon_rows(pd.u)]
    den = math.lcm(*(d for _, d in rows))
    return _lowest([sum(c) for c in zip(*([x * (den // d) for x in r] for r, d in rows))], den)


def _suite_uc_family(case: CaseSpec) -> tuple[CheckRecord, ...]:
    pd = standard_parabolic(case.type_label, case.gamma)
    alg = pd.alg
    dim_c = alg.dim - pd.p.dim
    checks = [next(r for r in pd.audit if r.name == "leaf-twice-codim")]

    # the section of each level -psi must solve the class equation
    rng = _rng(case, "uc-family", "fibers")
    fib_witness = None
    for k in range(5):
        target = twist_level(pd, [-rng.randint(-5, 5) for _ in range(pd.torus_rank)])
        if class_of(pd.twist_space, *twist_section(pd, target)) != target:
            fib_witness = fib_witness or f"level #{k}: section of -psi misses its class"

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
    dims = set()
    for k in range(4):
        w = random_word(alg, rng, length=2)
        try:
            pt = make_uc_point(pd, w, x0)
        except Exception as err:  # membership re-verification failed
            pt_bad += 1
            pt_witness = pt_witness or f"point #{k}: {err}"
            continue
        try:
            twist, _ = intrinsic_quotients(pd, pt.p)
            nums, den = class_of(twist, *pt.x)
            [via_id] = canonical_id(pd, w, [base_level], pt.p)
            ok = (tuple(-c for c in nums), den) == via_id and pi_c(pd, pt) == base_level
            why = None if ok else "transported level mismatch"
        except Exception as err:  # fails this record, not the whole case
            why = f"{type(err).__name__}: {err}"
        if why:
            pt_bad += 1
            pt_witness = pt_witness or f"point #{k}: {why}"
        try:
            dims.add(dim := fiber_dimension(pd, pt))
            why = None if dim == 2 * dim_c else f"fiber dimension {dim}"
        except Exception as err:  # likewise
            why = f"{type(err).__name__}: {err}"
        if why:
            fib_witness = fib_witness or f"point #{k}: {why}"
    # reported second, after the leaf record
    checks.insert(1, check_record("fiber-equidimensional", {2 * dim_c}, sorted(dims),
                                  dims == {2 * dim_c} and fib_witness is None,
                                  fib_witness))
    checks.append(check_record("transported-points-consistent", "4 exact",
                               f"{4 - pt_bad} exact", pt_bad == 0, pt_witness))

    rng = _rng(case, "uc-family", "stabilizers")
    st_bad = 0
    st_witness = None
    units = [twist_level(pd, [int(j == m) for j in range(pd.torus_rank)])
             for m in range(pd.torus_rank)]
    for k in range(8):
        w = stabilizer_word(pd, rng, length=2)
        try:
            moved_units = canonical_id(pd, w, units)
        except Exception as err:  # fails this record, not the whole case
            st_bad += 1
            st_witness = st_witness or f"word #{k}: {type(err).__name__}: {err}"
            continue
        for m, (psi, moved) in enumerate(zip(units, moved_units)):
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
                witness = witness or "word #{} psi #{}: {} != {}".format(
                    wk, pk, *(tuple(Fraction(x, d) for x in q) for q, d in (far, near)))
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
            letters += [TorusLetter((2,) * len(letter.params)),
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
    rows = _echelon_rows(pd.p_derived_perp)
    embedded = triangle = equivariant = 0
    total = 5
    witness = None
    for k in range(total):
        x0 = rows[k % len(rows)] if rows else ((0,) * alg.dim, 1)
        w = random_word(alg, rng, length=1 + k % 3)
        try:
            pt = make_uc_point(pd, w, x0)
            if not pt.p.contains(pt.x[0]):
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
        if x2 == rhs.x and rhs.p.contains(x2[0]):
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
        return (
            check_record("triviality-hypothesis", "reported", "false", True,
                         witness=f"{wit} outside [u,u]"),
            check_record("quotient-dimension-bookkeeping", "reported",
                         f"dim a_p = {pd.a_p.dim}, dim a_u = {pd.a_u_dim}",
                         True),
        )
    checks = [check_record("triviality-hypothesis", "reported", "true", True)]
    cert = find_richardson(pd, seed=case.seed)
    # nu_T is pi_C of the covector y.  Each a_p section z lies in p and
    # y - section(class y) in p-perp, so kappa(z, y) must equal kappa(z,
    # twist_section(-pi_C y)): the class projector against the Killing form.
    ys = [*_echelon_rows(pd.p_derived_perp)[:2], _uc_base_vector(pd)]
    sections, _ = pd.a_p.section
    factor_ok = True
    witness = None
    for y in ys:
        nums, den = pi_c(pd, make_uc_point(pd, IDENTITY_WORD, y))
        via, dv = twist_section(pd, (tuple(-c for c in nums), den))
        ny, dy = y
        if any(pd.alg._killing_ints(z, ny) * dv != pd.alg._killing_ints(z, via) * dy
               for z in sections):
            factor_ok = False
            witness = f"y = {pd.alg.vector_name(*y)}"
            break
    checks.append(check_record("moment-maps-factor-through-quotient", True,
                               factor_ok, factor_ok, witness))
    # T(1/3) T(3), the last letter first, fixes the Richardson class's
    # representative x
    rank = pd.alg.rank
    x = (cert.element, 1)
    torus_ok = act_vector(pd.alg, word_of(TorusLetter((Fraction(1, 3),) * rank),
                                          TorusLetter((3,) * rank)), x) == x
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
SUITE_NAMES = tuple(_SUITE_FUNCS)


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
