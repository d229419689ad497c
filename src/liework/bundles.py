"""Exact adjoint-group actions and point-level models of the bundles.

Group elements are words in two kinds of generators: unipotent letters
exp(t ad_e) for a root vector e and torus letters acting on each root
space by a rational monomial in the parameters.  A unipotent letter is
v + sum_k t^k D_k v over the divided powers D_k = ad(e)^k / k!, which
are integer matrices that vanish beyond k = 3 (Chevalley; Kostant's
Z-form), built once per algebra and root from the structure constants
with their integrality and nilpotency audited.  Each letter is compiled
to integers once per algebra, root or simple root, and parameter, so a
word acts on integer vectors over one denominator each, and an inverse
word is applied in place, with no inverse word built.  Fractions appear
only where a value is compared or reported, and every value is exact.

Two point types are modeled:
  UCPoint    (p, x) with x in the Killing-perp of [p, p]
  BCPoint    (p, [x]) with [x] a class in the abelianized nilradical
             whose representative is a Richardson element
The moment maps of both families, and the embedding of the incidence
family into the partial resolution family, only read a point's fields,
so they are not modeled as functions; the suites check what the paper
claims of them against a second computation.

Transported points carry the group word that produced them; the twist
projection transports back through the inverse word.  Membership at a
transported p is checked from p's integer rows alone: x kills [p, p] iff
kappa([x, a], b) = 0 for all rows a, b, by the audited invariance.
Twist spaces at different parabolics are recomputed from scratch at the
target subspace by killing_quotients, the derivation build_parabolic
uses, so "the identity on stabilizing words" is a verified fact rather
than a definition.  A twist level is a Vec of section coordinates.
"""
from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chevalley import ChevalleyAlgebra, ConstructionAuditError, Root
from .exactlin import (
    EchelonBuilder,
    QuotientSpace,
    Subspace,
    Vec,
    VectorOutsideTotal,
    ZERO,
    _as_vec,
    _class_of_ints,
    _clear_denominators,
    _combination,
    class_of,
    kernel,
    span,
)
from .parabolic import (
    ParabolicDatum,
    RichardsonCertificate,
    hypothesis_h1,
    killing_quotients,
)


class PointInvariantError(ValueError):
    """A point's defining membership failed."""


class WitnessTransportError(RuntimeError):
    """Transport by the stored witness word left the expected space."""


class HypothesisNotSatisfied(RuntimeError):
    """An operation gated on a reported hypothesis was called where it fails."""


# ---------------------------------------------------------------------------
# group words


@dataclass(frozen=True)
class UnipotentLetter:
    root: Root
    t: Fraction


@dataclass(frozen=True)
class TorusLetter:
    params: tuple[Fraction, ...]

    def __post_init__(self):
        if any(p == 0 for p in self.params):
            raise ValueError("torus parameters must be nonzero")


Letter = UnipotentLetter | TorusLetter


@dataclass(frozen=True)
class GroupWord:
    letters: tuple[Letter, ...]


IDENTITY_WORD = GroupWord(())


def concat(a: GroupWord, b: GroupWord) -> GroupWord:
    return GroupWord(a.letters + b.letters)


def word_of(*letters: Letter) -> GroupWord:
    return GroupWord(tuple(letters))


# one D_k = ad(e)^k / k!, by its nonzero columns: (j, the nonzero (row, value)
# pairs of D_k applied to basis vector j), j increasing
_DividedPower = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


@functools.lru_cache(maxsize=None)
def _divided_powers(alg: ChevalleyAlgebra, root: Root) -> tuple[_DividedPower, ...]:
    """D_1, D_2, ... for the root vector of root, up to the last nonzero one,
    from the structure constants.  Chevalley's theorem says ad(e) is
    nilpotent and every D_k is an integer matrix; both are audited, and a
    violation raises ConstructionAuditError naming the root and k."""
    i = alg.index_of_root_vector(root)
    ad = alg.table[i]
    where = f"{alg.cartan.type_label}: ad({alg.basis_label(i)})"
    powers: list[_DividedPower] = []
    cols = [(j, col) for j, col in enumerate(ad) if col]  # D_1's nonzero columns
    k = 1
    while cols:
        if k > alg.dim + 2:
            raise ConstructionAuditError(
                f"{where}^{k} / {k}! is nonzero: not nilpotent")
        if any(c.denominator != 1 for _, col in cols for _, c in col):
            raise ConstructionAuditError(
                f"{where}^{k} / {k}! has a non-integral entry")
        powers.append(tuple((j, tuple((r, int(c)) for r, c in col)) for j, col in cols))
        k += 1
        nxt = []
        for j, col in powers[-1]:
            acc: dict[int, int] = {}
            for r, c in col:
                for s, d in ad[r]:
                    acc[s] = acc.get(s, 0) + c * d
            # exact: k need not divide x, and the next pass audits that
            nxt.append((j, tuple((s, Fraction(x, k)) for s, x in acc.items() if x)))
        cols = [(j, col) for j, col in nxt if col]
    return tuple(powers)


@functools.lru_cache(maxsize=None)
def _unipotent_letter(alg: ChevalleyAlgebra, root: Root, a: int,
                      b: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """exp(t ad e) for t = a / b, b > 0, compiled from the divided powers as
    (b^K, one (j, (r0, c0, r1, c1, ...)) per nonzero column j): the entries
    of sum_k a^k b^(K-k) D_k e_j, K the number of nonzero D_k."""
    powers = _divided_powers(alg, root)
    top = len(powers)
    cols: dict[int, list[int]] = {}
    for k, dk in enumerate(powers, 1):
        tk = a ** k * b ** (top - k)
        for j, col in dk:
            cols.setdefault(j, []).extend(x for r, n in col for x in (r, n * tk))
    return b ** top, tuple((j, tuple(flat)) for j, flat in cols.items())


@functools.lru_cache(maxsize=None)
def _torus_factor(alg: ChevalleyAlgebra, i: int, a: int,
                  b: int) -> tuple[int, tuple[int, ...]]:
    """(scale > 0, mults) with mults[v] = scale * q^e for q = a / b, b > 0, and e
    the i-th simple-root coordinate of basis vector v's weight (0 on h)."""
    es = [wt[i] if wt else 0 for wt in alg.basis_weights]
    lo, hi = min(es), max(es)  # lo <= 0 <= hi
    sign = -1 if a < 0 and lo % 2 else 1  # makes a^-lo b^hi positive
    return (sign * a ** -lo * b ** hi,
            tuple(sign * a ** (e - lo) * b ** (hi - e) for e in es))


def _act_ints(alg: ChevalleyAlgebra, w: GroupWord,
              vecs: Sequence[tuple[Sequence[int], int]], *,
              inverse: bool = False) -> list[tuple[list[int], int]]:
    """The word, last letter first, applied to each nums / den, as (nums',
    den') in lowest terms, den' > 0; with inverse, its inverse in place:
    first letter first, exp(-t ad e) and each torus parameter a / b read
    as b / a.  Letters come compiled from _unipotent_letter and from one
    _torus_factor per simple root; each vector ends every letter divided
    by its gcd."""
    if any(len(nums) != alg.dim for nums, _ in vecs):
        raise ValueError("vector length does not match algebra dimension")
    vecs = list(vecs)
    for letter in w.letters if inverse else reversed(w.letters):
        if isinstance(letter, UnipotentLetter):
            a, b = letter.t.as_integer_ratio()
            scale, cols = _unipotent_letter(alg, letter.root, -a if inverse else a, b)
            mults = None
        else:
            if len(letter.params) != alg.rank:
                raise ValueError("torus letter has wrong parameter count")
            scale, mults = 1, None
            for i, q in enumerate(letter.params):
                a, b = q.as_integer_ratio()
                if inverse:
                    a, b = (b, a) if a > 0 else (-b, -a)
                s, m = _torus_factor(alg, i, a, b)
                scale *= s
                mults = m if mults is None else list(map(operator.mul, mults, m))
        for i, (nums, den) in enumerate(vecs):
            if mults is not None:
                out = list(map(operator.mul, nums, mults))
            else:
                out = list(nums) if scale == 1 else [x * scale for x in nums]
                for j, flat in cols:
                    if x := nums[j]:
                        it = iter(flat)
                        for r, c in zip(it, it):
                            out[r] += c * x
            den *= scale
            g = math.gcd(den, *out)
            vecs[i] = ([x // g for x in out], den // g) if g > 1 else (out, den)
    return vecs


def act_vector(alg: ChevalleyAlgebra, w: GroupWord, v: Vec) -> Vec:
    """Adjoint action of the word on a vector of ints or Fractions; letters
    compose like a product, so the last letter acts first.  The word acts
    on one integer vector and denominator; the result is Fractions."""
    return _as_vec(*_act_ints(alg, w, [_clear_denominators(v)])[0])


def act_subspace(alg: ChevalleyAlgebra, w: GroupWord, s: Subspace) -> Subspace:
    """The image of s: the span of the images of its integer basis rows."""
    eb = EchelonBuilder(s.ambient_dim)
    for nums, _ in _act_ints(alg, w, [(row, 1) for row in s.ints]):
        eb.insert_ints(nums)
    return eb.subspace()


def act_roundtrip(alg: ChevalleyAlgebra, words: Sequence[GroupWord],
                  x: Vec) -> list[bool]:
    """For each word w, whether w^-1 (w x) == x and kappa(w x, w x) ==
    kappa(x, x), w^-1 applied in place; x is cleared and paired once for
    all the words.  The action's pairs are in lowest terms, so the first is
    pair equality and the second K(ys, ys) d0^2 == K(n0, n0) dy^2 in ints."""
    n0, d0 = _clear_denominators(x)
    n0 = list(n0)
    k0 = alg.killing_ints(n0, n0)
    out = []
    for w in words:
        [(ys, dy)] = _act_ints(alg, w, [(n0, d0)])
        [(back, den)] = _act_ints(alg, w, [(ys, dy)], inverse=True)
        out.append(list(back) == n0 and den == d0 and
                   alg.killing_ints(ys, ys) * d0 * d0 == k0 * dy * dy)
    return out


_T_CHOICES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(3), Fraction(-1, 2))
_PARAM_CHOICES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                  Fraction(-1), Fraction(2, 3), Fraction(5))


@functools.lru_cache(maxsize=None)
def _signed_roots(alg: ChevalleyAlgebra) -> tuple[Root, ...]:
    """All roots: the positive ones, then their negatives."""
    return alg.positive_roots + tuple(-r for r in alg.positive_roots)


def random_word(alg: ChevalleyAlgebra, rng: random.Random, length: int,
                roots: Sequence[Root] | None = None) -> GroupWord:
    """Deterministic word from the rng; unipotent letters use the given
    roots (default: all roots, both signs)."""
    if roots is None:
        roots = _signed_roots(alg)
    letters: list[Letter] = []
    for _ in range(length):
        if rng.random() < 0.25:
            letters.append(TorusLetter(
                tuple(rng.choice(_PARAM_CHOICES) for _ in range(alg.rank))))
        else:
            letters.append(UnipotentLetter(rng.choice(roots),
                                           rng.choice(_T_CHOICES)))
    return GroupWord(tuple(letters))


def stabilizer_word(pd: ParabolicDatum, rng: random.Random,
                    length: int) -> GroupWord:
    """Word from generators of the parabolic subgroup: unipotent letters
    for roots of p (all positive roots plus negatives supported on gamma)
    and arbitrary torus letters.  Such words fix p as a subspace."""
    alg = pd.alg
    roots = [alg.positive_roots[k] for k in range(alg.num_positive)]
    roots += [-alg.positive_roots[k] for k in pd.levi_root_positions]
    return random_word(alg, rng, length, roots=roots)


# ---------------------------------------------------------------------------
# twist levels and the incidence family


def twist_level(pd: ParabolicDatum, coords: Sequence) -> Vec:
    psi = tuple(Fraction(c) for c in coords)
    if len(psi) != pd.torus_rank:
        raise ValueError("twist level has wrong length")
    return psi


def zero_twist(pd: ParabolicDatum) -> Vec:
    return (ZERO,) * pd.torus_rank


def twist_section(pd: ParabolicDatum, psi: Vec) -> Vec:
    """The canonical section representative of psi inside [p,p]-perp."""
    return _combination(psi, pd.twist_space.section, pd.alg.dim)


@dataclass(frozen=True)
class UCPoint:
    p: Subspace
    x: Vec
    witness: GroupWord


def _verify_uc_invariant(pd: ParabolicDatum, p: Subspace, x: Vec) -> None:
    # x must kill [p, p]: the dossier's [p,p]-perp at the standard p, else
    # the algebra answers from p's rows by invariance, building no quotients.
    # The input picks the fork: a matrix17 pass sends 215 of 309 calls (d4:
    # 141 of 249) to the standard p, where contains takes ~18 us to
    # kills_derived's ~81 (d4: ~30 to ~345; Python 3.11, 2-vCPU VM), so one
    # route would add ~3% to a matrix17 verify pass and ~6% to a d4 one.
    if not (pd.p_derived_perp.contains(x) if p == pd.p
            else pd.alg.kills_derived(p, x)):
        raise PointInvariantError(
            "x is not Killing-orthogonal to [p, p] for its parabolic")


def make_uc_point(pd: ParabolicDatum, w: GroupWord, x0: Vec) -> UCPoint:
    """Transport (p_standard, x0) by w; the membership invariant is
    re-verified intrinsically at the transported subspace."""
    if not pd.p_derived_perp.contains(x0):
        raise PointInvariantError("x0 must lie in [p,p]-perp of the standard p")
    return act_uc_point(pd, w, UCPoint(p=pd.p, x=x0, witness=IDENTITY_WORD))


def act_uc_point(pd: ParabolicDatum, w: GroupWord, pt: UCPoint) -> UCPoint:
    alg = pd.alg
    p = act_subspace(alg, w, pt.p)
    x = act_vector(alg, w, pt.x)
    _verify_uc_invariant(pd, p, x)
    return UCPoint(p=p, x=x, witness=concat(w, pt.witness))


def pi_c(pd: ParabolicDatum, pt: UCPoint) -> Vec:
    """Twist level of a point: transport x back to the standard parabolic
    through the witness inverse and take minus its class."""
    [back] = _act_ints(pd.alg, pt.witness, [_clear_denominators(pt.x)], inverse=True)
    try:  # the twist space's total is the standard [p,p]-perp
        cls = _class_of_ints(pd.twist_space, *back)
    except VectorOutsideTotal as exc:
        raise WitnessTransportError(
            "witness inverse did not return x to the standard [p,p]-perp") from exc
    return tuple(-c for c in cls)


@functools.lru_cache(maxsize=None)
def intrinsic_quotients(alg: ChevalleyAlgebra,
                        p: Subspace) -> tuple[QuotientSpace, QuotientSpace]:
    """The (twist, a_p) pair of killing_quotients at a transported p, cached
    per subspace; raises if p-perp is not inside p."""
    twist, a_p = killing_quotients(alg, p)
    if not p.contains_space(twist.divisor):
        raise PointInvariantError("p-perp escaped p; p is not parabolic-like")
    return twist, a_p


def canonical_id(pd: ParabolicDatum, w: GroupWord, psis: Sequence[Vec],
                 p: Subspace | None = None) -> list[Vec]:
    """Transport each twist level to the parabolic act(w, pd.p) and read its
    coordinates in the twist space rebuilt from scratch there.

    The transported parabolic depends only on w and is built once, and
    not at all when there are no levels; a caller that already holds it,
    such as the p of a point made by w, passes it as p.  For words that
    merely stabilize p, the rebuilt space coincides with the standard one
    and each result is claimed (and suite-checked) to be its psi itself.
    """
    if not psis:
        return []
    alg = pd.alg
    twist, _ = intrinsic_quotients(alg, act_subspace(alg, w, pd.p) if p is None else p)
    out = []
    ys = [_clear_denominators(twist_section(pd, psi)) for psi in psis]
    for y2 in _act_ints(alg, w, ys):
        try:  # the twist space's total is the target [p,p]-perp
            out.append(_class_of_ints(twist, *y2))
        except VectorOutsideTotal as exc:
            raise WitnessTransportError(
                "transported section left the target [p,p]-perp") from exc
    return out


def invariance_pairing_square(pd: ParabolicDatum, w: GroupWord,
                              psis: Sequence[Vec]) -> list[tuple[Vec, Vec]]:
    """Two routes around the transport square for each level, as Killing
    pairings against the torus sections rebuilt at the transported
    parabolic.

    Route one pushes the twist section forward through w and pairs at the
    far side; route two pulls the far sections back through the inverse
    word and pairs at the standard side.  The transported parabolic and
    the pulled-back sections depend only on w and are built once.  The
    suite asserts that each pair is equal.
    """
    alg = pd.alg
    _, a_p = intrinsic_quotients(alg, act_subspace(alg, w, pd.p))
    sections = [_clear_denominators(z) for z in a_p.section]
    pulled = _act_ints(alg, w, sections, inverse=True)
    ys = [_clear_denominators(twist_section(pd, psi)) for psi in psis]
    return [(tuple(Fraction(alg.killing_ints(z, y2), dz * dy2) for z, dz in sections),
             tuple(Fraction(alg.killing_ints(z, y), dz * dy) for z, dz in pulled))
            for (y, dy), (y2, dy2) in zip(ys, _act_ints(alg, w, ys))]


@functools.lru_cache(maxsize=None)
def _class_map_kernel(pd: ParabolicDatum) -> Subspace:
    """Kernel of x -> class_of(twist space, x) on [p,p]-perp."""
    rows = pd.p_derived_perp.rows
    classes = [class_of(pd.twist_space, row) for row in rows]
    coeffs = kernel(zip(*classes), len(rows))  # one equation per class coordinate
    return span([_combination(coef, rows, pd.alg.dim) for coef in coeffs.rows],
                pd.alg.dim)


def fiber_dimension(pd: ParabolicDatum, psi: Vec) -> int:
    """Dimension of the twist-projection fiber over psi.

    Over the standard parabolic the fiber is the solution set of
    class(x) = -psi in [p,p]-perp: the section of -psi plus the kernel of
    the class map, which is checked to be the nilradical.  The whole fiber
    adds dim C base directions.
    """
    if len(psi) != pd.torus_rank:
        raise ValueError("twist level has wrong length")
    target = tuple(-c for c in psi)
    particular = twist_section(pd, target)
    if class_of(pd.twist_space, particular) != target:
        raise RuntimeError("section failed to solve the class equation")
    solutions = _class_map_kernel(pd)
    if solutions != pd.u:
        raise RuntimeError("class-map kernel on [p,p]-perp is not the nilradical")
    return solutions.dim + pd.alg.dim - pd.p.dim


# ---------------------------------------------------------------------------
# the torus-bundle model (gated on the triviality hypothesis)


@dataclass(frozen=True)
class BCPoint:
    p: Subspace
    x_rep: Vec
    witness: GroupWord


def make_bc_point(pd: ParabolicDatum, cert: RichardsonCertificate,
                  w: GroupWord = IDENTITY_WORD) -> BCPoint:
    """Torus-bundle point from an open-orbit certificate, transported by w.

    Gated on the reported triviality hypothesis for this gamma; raises
    HypothesisNotSatisfied (not an invariant violation) when it fails.
    The tangent [p, x] is recomputed from the certificate's element too.
    """
    if not hypothesis_h1(pd):
        raise HypothesisNotSatisfied(
            f"hypothesis not satisfied for gamma of {pd.label()}; "
            "the bundle model is only claimed under it")
    if not pd.u.contains(cert.element):
        raise PointInvariantError("representative must lie in the nilradical")
    if (cert.tangent != pd.u or pd.alg.bracket_space(
            pd.p, span([cert.element], pd.alg.dim)) != pd.u):
        raise PointInvariantError(
            "certificate's tangent [p, x] is not the nilradical")
    return BCPoint(p=act_subspace(pd.alg, w, pd.p),
                   x_rep=act_vector(pd.alg, w, cert.element),
                   witness=w)


def bc_torus_action(pd: ParabolicDatum, pt: BCPoint,
                    params: Sequence) -> BCPoint:
    """Action of an adjoint-torus point on a bundle point: the class
    representative moves by the torus letter applied inversely."""
    w = word_of(TorusLetter(tuple(Fraction(c) for c in params)))
    [moved] = _act_ints(pd.alg, w, [_clear_denominators(pt.x_rep)], inverse=True)
    return BCPoint(p=pt.p, x_rep=_as_vec(*moved), witness=pt.witness)
