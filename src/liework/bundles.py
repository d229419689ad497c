"""Exact adjoint-group actions and point-level models of the bundles.

Group elements are words in two kinds of generators: unipotent letters
exp(t ad_e) for a root vector e and torus letters acting on each root
space by a rational monomial in the parameters.  A unipotent letter is
v + sum_k t^k D_k v over the divided powers D_k = ad(e)^k / k!, integer
matrices that vanish beyond k = 3 (Chevalley; Kostant's Z-form), built
once per algebra and root with their integrality and nilpotency audited.
A compiled unipotent letter holds those D_k themselves, each with its
power of t; a word is decoded once per call, its inverse in place, and
each vector runs through all its steps over one denominator and is
brought to lowest terms once, at the end.  A torus letter is one step
per simple root.  The quotients of one transported p are cached.
Only a coordinate subspace's transport may stop early: letters that
map it into itself fix it, so those acting first are dropped, and a
word in the stabilizer of p returns p.  Vectors always run the whole
word.

This is the points layer, and its vectors are no Fractions: a point's
vector, a twist level and a class are QVecs, integer numerators over one
positive denominator in lowest terms, so equal values are equal tuples.

One point type is modeled: UCPoint (p, x) with x in the Killing-perp of
[p, p].  The torus-bundle (BC) and partial resolution (T*BC) models have
no types of their own: their moment maps, the embedding of the incidence
family into the partial resolution family, and the torus action on a
Richardson class only read a UCPoint's fields or act on a vector, so
they are not modeled as functions; the suites check what the paper
claims of them against a second computation.

Transported points carry the group word that produced them; the twist
projection transports back through the inverse word.  Membership at a
transported p is checked from p's integer rows alone: x kills [p, p] iff
kappa([x, a], b) = 0 for all rows a, b, by the audited invariance.
Twist spaces at transported parabolics are rebuilt from scratch by
killing_quotients; at the standard p the dossier answers with those
build_parabolic derived by the same function.  A stabilizing word lands
there without transporting p, but its twist sections are transported
and classed, so "the identity on stabilizing words" is a verified fact
rather than a definition.
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
    DimensionMismatch,
    EchelonBuilder,
    QuotientSpace,
    QVec,
    Subspace,
    VectorOutsideTotal,
    _check_ints,
    _check_scalars,
    _clear_denominators,
    _coordinate_indices,
    _echelon_pivots,
    _lowest,
    class_of,
)
from .parabolic import ParabolicDatum, killing_quotients


class PointInvariantError(ValueError):
    """A point's defining membership failed."""


class WitnessTransportError(RuntimeError):
    """Transport by the stored witness word left the expected space."""


# ---------------------------------------------------------------------------
# group words


@dataclass(frozen=True)
class UnipotentLetter:
    root: Root
    t: Fraction

    def __post_init__(self):
        # exact ints: the algebra's root lookup takes 1.0 or True for 1
        if type(self.root) is not tuple or any(type(c) is not int for c in self.root):
            raise TypeError(
                f"a unipotent letter's root must be a tuple of ints, got {self.root!r}")
        _check_scalars((self.t,), "a unipotent letter's t")


@dataclass(frozen=True)
class TorusLetter:
    params: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))  # so the letter hashes
        _check_scalars(self.params, "torus parameters")
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
    cols = [(j, col) for j, col in enumerate(ad) if col]  # nonzero columns of k D_k
    k = 1
    while cols:
        if k > alg.dim + 2:
            raise ConstructionAuditError(
                f"{where}^{k} / {k}! is nonzero: not nilpotent")
        if any(c % k for _, col in cols for _, c in col):
            raise ConstructionAuditError(
                f"{where}^{k} / {k}! has a non-integral entry")
        powers.append(tuple((j, tuple((r, c // k) for r, c in col)) for j, col in cols))
        k += 1
        nxt = []
        for j, col in powers[-1]:
            acc: dict[int, int] = {}
            for r, c in col:
                for s, d in ad[r]:
                    acc[s] = acc.get(s, 0) + c * d
            nxt.append((j, tuple((s, x) for s, x in acc.items() if x)))
        cols = [(j, col) for j, col in nxt if col]
    return tuple(powers)


@functools.lru_cache(maxsize=None)
def _unipotent_letter(alg: ChevalleyAlgebra, root: Root, a: int, b: int) -> tuple:
    """exp(t ad e) for t = a / b, b > 0, e the root vector of root, compiled
    as (b^K, the pairs (a^k b^(K-k), D_k) for k = 1..K, None), K the number
    of nonzero D_k: each D_k is the audited _divided_powers entry itself,
    not a copy.  A tuple that is not a root raises ValueError here."""
    powers = _divided_powers(alg, root)
    top = len(powers)
    return b ** top, tuple((a ** k * b ** (top - k), dk)
                           for k, dk in enumerate(powers, 1)), None


@functools.lru_cache(maxsize=None)
def _torus_factor(alg: ChevalleyAlgebra, i: int, a: int, b: int) -> tuple:
    """Simple root i's factor of a torus letter at q = a / b, b > 0, as a
    compiled step (scale > 0, None, mults): mults[v] = scale * q^e for e the
    i-th simple-root coordinate of basis vector v's weight (0 on h)."""
    es = [wt[i] if wt else 0 for wt in alg.basis_weights]
    lo, hi = min(es), max(es)  # lo <= 0 <= hi
    sign = -1 if a < 0 and lo % 2 else 1  # makes a^-lo b^hi positive
    return (sign * a ** -lo * b ** hi, None,
            tuple(sign * a ** (e - lo) * b ** (hi - e) for e in es))


def _act_ints(alg: ChevalleyAlgebra, w: GroupWord, vecs, *,
              inverse: bool = False) -> list[QVec]:
    """The word, last letter first, applied to each (nums, den), den > 0, as
    a QVec; with inverse, its inverse in place: first letter first,
    exp(-t ad e) and each torus parameter a / b read as b / a.  The word is
    decoded once into steps (scale, terms, mults), a torus letter one per
    simple root; each vector runs through all of them, then its gcd with the
    denominator is divided out once: lowest terms with den > 0 are unique."""
    steps = []
    for letter in w.letters if inverse else reversed(w.letters):
        if type(letter) is UnipotentLetter:
            a, b = letter.t.as_integer_ratio()
            steps.append(_unipotent_letter(alg, letter.root, -a if inverse else a, b))
        elif len(letter.params) != alg.rank:
            raise ValueError("torus letter has wrong parameter count")
        else:
            for i, q in enumerate(letter.params):
                a, b = q.as_integer_ratio()
                if inverse:  # b / a over a positive denominator
                    a, b = (b, a) if a > 0 else (-b, -a)
                steps.append(_torus_factor(alg, i, a, b))
    out = []
    for v, den in vecs:  # read once, so a one-shot iterator works
        if len(v) != alg.dim:
            raise ValueError("vector length does not match algebra dimension")
        for scale, terms, mults in steps:
            if mults is None:
                moved = [x * scale for x in v] if scale != 1 else list(v)
                for tk, dk in terms:  # one v[j] test per column of D_k
                    for j, col in dk:
                        if x := v[j]:
                            y = tk * x
                            for r, c in col:
                                moved[r] += c * y
                v = moved
            else:
                v = list(map(operator.mul, v, mults))
            den *= scale
        out.append(_lowest(v, den))
    return out


def act_vector(alg: ChevalleyAlgebra, w: GroupWord, v: QVec) -> QVec:
    """Adjoint action of the word on a vector (nums, den), den > 0; letters
    compose like a product, so the last letter acts first."""
    if v[1] <= 0:
        raise ValueError(f"denominator must be positive, got {v[1]}")
    return _act_ints(alg, w, [v])[0]


def _fixes(alg: ChevalleyAlgebra, letter: Letter, idx: frozenset[int]) -> bool:
    """Whether the letter maps the coordinate subspace on idx into itself.
    A torus letter is diagonal on the basis, so it does, unless it has the
    wrong parameter count: then it is kept for _act_ints to reject.
    exp(t ad e) does when D_1 = ad(e) does, each D_k being ad(e)^k / k!, and
    for t != 0 only then; a tuple that is not a root raises ValueError in
    _divided_powers."""
    if type(letter) is TorusLetter:
        return len(letter.params) == alg.rank
    return all(idx.issuperset(r for r, _ in col)
               for j, col in _divided_powers(alg, letter.root)[0] if j in idx)


def act_subspace(alg: ChevalleyAlgebra, w: GroupWord, s: Subspace) -> Subspace:
    """The image of s: the span of the images of its integer basis rows.

    On a coordinate subspace, such as a dossier's p, u or Levi factor, the
    longest suffix of letters that each map s into itself acts first and
    is dropped: an invertible map of s into itself fixes s, so the rest of
    the word gives the same image.  s itself is returned when no letter is
    left, as for the identity word or a word in the stabilizer of p.  A
    subspace of another Q^n raises DimensionMismatch, and a malformed
    letter raises, whether it is dropped or not."""
    if s.ambient_dim != alg.dim:
        raise DimensionMismatch("subspace does not live in the algebra")
    k = len(w.letters)
    if k and (idx := _coordinate_indices(s)) is not None:
        while k and _fixes(alg, w.letters[k - 1], idx):
            k -= 1
    if not k:
        return s
    eb = EchelonBuilder(alg.dim)
    for nums, _ in _act_ints(alg, GroupWord(w.letters[:k]), [(row, 1) for row in s.ints]):
        eb.insert(nums)
    return eb.subspace()


def act_roundtrip(alg: ChevalleyAlgebra, words: Sequence[GroupWord],
                  x: QVec) -> list[bool]:
    """For each word w, whether w^-1 (w x) == x and kappa(w x, w x) ==
    kappa(x, x), w^-1 applied in place; x, den > 0, is brought to lowest
    terms and paired once.  The first is pair equality, the second
    K(ys, ys) d0^2 == K(n0, n0) dy^2 in ints."""
    if x[1] <= 0:
        raise ValueError(f"denominator must be positive, got {x[1]}")
    n0, d0 = x = _lowest(*x)
    k0 = alg._killing_ints(n0, n0)
    out = []
    for w in words:
        [(ys, dy)] = _act_ints(alg, w, [x])
        [back] = _act_ints(alg, w, [(ys, dy)], inverse=True)
        out.append(back == x and alg._killing_ints(ys, ys) * d0 * d0 == k0 * dy * dy)
    return out


_T_CHOICES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(3), Fraction(-1, 2))
_PARAM_CHOICES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                  Fraction(-1), Fraction(2, 3), Fraction(5))


@functools.lru_cache(maxsize=None)
def _letter_table(alg: ChevalleyAlgebra,
                  levi: tuple[int, ...] | None) -> tuple[tuple[UnipotentLetter, ...], ...]:
    """The unipotent letters random_word draws from, one row per root with
    its letter at each of _T_CHOICES: the positive roots, then the negatives
    of all of them, or of those at the positive-root positions levi."""
    if levi is not None:  # the full table's rows: its letters, not copies
        full, n = _letter_table(alg, None), alg.num_positive
        return full[:n] + tuple(full[n + k] for k in levi)
    return tuple(tuple(UnipotentLetter(r, t) for t in _T_CHOICES)
                 for r in alg.basis_weights if r is not None)


def random_word(alg: ChevalleyAlgebra, rng: random.Random, length: int,
                levi: tuple[int, ...] | None = None) -> GroupWord:
    """Deterministic word from the rng; unipotent letters use all roots,
    both signs, or with levi only those of the standard parabolic whose
    Levi holds the positive roots at those positions.  A letter drawn as
    choice(choice(table)) takes the rng draws of a root, then a t."""
    table = _letter_table(alg, levi)
    return GroupWord(tuple(
        TorusLetter(tuple(rng.choice(_PARAM_CHOICES) for _ in range(alg.rank)))
        if rng.random() < 0.25 else rng.choice(rng.choice(table))
        for _ in range(length)))


def stabilizer_word(pd: ParabolicDatum, rng: random.Random,
                    length: int) -> GroupWord:
    """Word from generators of the parabolic subgroup: unipotent letters
    for roots of p (all positive roots plus negatives supported on gamma)
    and arbitrary torus letters.  Such words fix p as a subspace."""
    return random_word(pd.alg, rng, length, levi=pd.levi_root_positions)


# ---------------------------------------------------------------------------
# twist levels and the incidence family


def twist_level(pd: ParabolicDatum, coords: Sequence) -> QVec:
    """The twist level with the given section coordinates, ints or
    Fractions, as a QVec."""
    coords = tuple(coords)
    _check_scalars(coords, "twist level coordinates")
    if len(coords) != pd.torus_rank:
        raise ValueError("twist level has wrong length")
    return _lowest(*_clear_denominators(coords))


def twist_section(pd: ParabolicDatum, psi: QVec) -> tuple[list[int], int]:
    """The canonical section representative of psi inside [p,p]-perp, as
    integer numerators over one positive denominator: psi's numerators
    combine the section's integer rows."""
    coeffs, cden = psi
    _check_ints("twist level", coeffs, (cden,))
    if cden <= 0:
        raise ValueError(f"denominator must be positive, got {cden}")
    if len(coeffs) != pd.torus_rank:
        raise ValueError("twist level has wrong length")
    rows, den = pd.twist_space.section
    acc = [sum(map(operator.mul, coeffs, col)) for col in zip(*rows)]
    return acc or [0] * pd.alg.dim, cden * den


@dataclass(frozen=True)
class UCPoint:
    p: Subspace
    x: QVec
    witness: GroupWord


def _verify_uc_invariant(pd: ParabolicDatum, p: Subspace, x: QVec) -> None:
    # x must kill [p, p]: the dossier's [p,p]-perp at the standard p, else
    # the algebra answers from p's rows by invariance, building no quotients.
    # The input picks the fork: a matrix17 pass sends 215 of 309 calls (d4:
    # 141 of 249) to the standard p, where contains takes ~18 us to
    # kills_derived's ~81 (d4: ~30 to ~345; Python 3.11, 2-vCPU VM), so one
    # route would add ~3% to a matrix17 verify pass and ~6% to a d4 one.
    if not (pd.p_derived_perp.contains(x[0]) if p == pd.p
            else pd.alg.kills_derived(p, x[0])):
        raise PointInvariantError(
            "x is not Killing-orthogonal to [p, p] for its parabolic")


def make_uc_point(pd: ParabolicDatum, w: GroupWord, x0: QVec) -> UCPoint:
    """Transport (p_standard, x0) by w, x0 = (nums, den); the membership
    invariant is re-verified intrinsically at the transported subspace."""
    if not pd.p_derived_perp.contains(x0[0]):
        raise PointInvariantError("x0 must lie in [p,p]-perp of the standard p")
    return act_uc_point(pd, w, UCPoint(p=pd.p, x=x0, witness=IDENTITY_WORD))


def act_uc_point(pd: ParabolicDatum, w: GroupWord, pt: UCPoint) -> UCPoint:
    alg = pd.alg
    p = act_subspace(alg, w, pt.p)
    x = act_vector(alg, w, pt.x)
    _verify_uc_invariant(pd, p, x)
    return UCPoint(p=p, x=x, witness=concat(w, pt.witness))


def pi_c(pd: ParabolicDatum, pt: UCPoint) -> QVec:
    """Twist level of a point: transport x back to the standard parabolic
    through the witness inverse and take minus its class."""
    [back] = _act_ints(pd.alg, pt.witness, [pt.x], inverse=True)
    try:  # the twist space's total is the standard [p,p]-perp
        nums, den = class_of(pd.twist_space, *back)
    except VectorOutsideTotal as exc:
        raise WitnessTransportError(
            "witness inverse did not return x to the standard [p,p]-perp") from exc
    return tuple(-c for c in nums), den


@functools.lru_cache(maxsize=1)
def intrinsic_quotients(pd: ParabolicDatum,
                        p: Subspace) -> tuple[QuotientSpace, QuotientSpace]:
    """(twist, a_p) at p: the dossier's at the standard p, else killing_quotients'
    at a transported p, whose p-perp must lie in p.  One entry, the parabolic of
    the point being checked: its class, canonical id and fiber reuse it."""
    if p == pd.p:
        return pd.twist_space, pd.a_p
    twist, a_p = killing_quotients(pd.alg, p)
    if not p.contains_space(twist.divisor):
        raise PointInvariantError("p-perp escaped p; p is not parabolic-like")
    return twist, a_p


def canonical_id(pd: ParabolicDatum, w: GroupWord, psis: Sequence[QVec],
                 p: Subspace | None = None) -> list[QVec]:
    """Transport each twist level to the parabolic act(w, pd.p) and read its
    coordinates in the twist space there (intrinsic_quotients).

    The transported parabolic depends only on w and is built once, and
    not at all when there are no levels; a caller that already holds it,
    such as the p of a point made by w, passes it as p.  A word that
    stabilizes p lands on the dossier's twist space, and each result is
    claimed (and suite-checked) to be its psi itself.
    """
    if not psis:
        return []
    alg = pd.alg
    twist, _ = intrinsic_quotients(pd, act_subspace(alg, w, pd.p) if p is None else p)
    out = []
    ys = [twist_section(pd, psi) for psi in psis]
    for y2 in _act_ints(alg, w, ys):
        try:  # the twist space's total is the target [p,p]-perp
            out.append(class_of(twist, *y2))
        except VectorOutsideTotal as exc:
            raise WitnessTransportError(
                "transported section left the target [p,p]-perp") from exc
    return out


def invariance_pairing_square(pd: ParabolicDatum, w: GroupWord,
                              psis: Sequence[QVec]) -> list[tuple[QVec, QVec]]:
    """Two routes around the transport square for each level, as QVecs of
    Killing pairings against the torus sections rebuilt at the transported
    parabolic.

    Route one pushes the twist section forward through w and pairs at the
    far side; route two pulls the far sections back through the inverse
    word and pairs at the standard side.  The transported parabolic, the
    pulled-back sections and G z for each section z depend only on w and
    are built once.  The suite asserts that each pair is equal.
    """
    alg = pd.alg
    _, a_p = intrinsic_quotients(pd, act_subspace(alg, w, pd.p))
    rows, dz = a_p.section
    far = [alg._gram_ints(z) for z in rows]
    pulled = _act_ints(alg, w, [(z, dz) for z in rows], inverse=True)
    dn = math.lcm(*(d for _, d in pulled))
    near = [alg._gram_ints([x * (dn // d) for x in z]) for z, d in pulled]
    ys = [twist_section(pd, psi) for psi in psis]
    return [(_lowest([sum(map(operator.mul, g, y2)) for g in far], dz * dy2),
             _lowest([sum(map(operator.mul, g, y)) for g in near], dn * dy))
            for (y, dy), (y2, dy2) in zip(ys, _act_ints(alg, w, ys))]


def fiber_dimension(pd: ParabolicDatum, pt: UCPoint) -> int:
    """Dimension of the fiber of pi through pt, at its parabolic p' = w p.

    The fiber is dim C base directions plus its u-directions, the intrinsic
    p'-perp: the divisor of the twist space rebuilt at p'.  G-invariance of
    the Killing form says p'-perp = w u, for w the point's witness.
    The value is dim C + dim u less the distance dim(A + B) - dim(A & B)
    between A = p'-perp and B = w u, so it is 2 dim C exactly when they
    agree, and any disagreement reads short.
    """
    alg = pd.alg
    twist, _ = intrinsic_quotients(pd, pt.p)
    perp, u = twist.divisor, pd.u
    moved = (nums for nums, _ in _act_ints(alg, pt.witness, [(row, 1) for row in u.ints]))
    rank = len(_echelon_pivots(moved, alg.dim, seed=perp))
    distance = 2 * rank - perp.dim - u.dim  # w u has dimension dim u
    return alg.dim - pd.p.dim + u.dim - distance
