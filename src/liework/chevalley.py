"""Root systems and Chevalley bases for types A1-A3, B2, B3, C3, D4, G2.

The structure constants are computed from the Cartan datum and the
positive roots alone (Carter, Simple Groups of Lie Type, 1972, 4.1-4.2;
Cohen, Murray and Taylor, Math. Comp. 73, 2004).  Non-simple root vectors
are defined inductively through extraspecial pairs (processed in
height-then-reverse-lex order, with the +(p+1) sign choice), which pins
every structure constant deterministically; the rest follow from Carter's
relations, the Chevalley involution, the coroots and the Cartan matrix.

Nothing is trusted.  The table is derived in integers, root norms scaled
to integers (only their ratios enter): each derived constant and coroot
is one exact division whose nonzero remainder raises, as does a constant
outside the +-(p+1) magnitude law.  Then the table's antisymmetry, the
Jacobi identity on every basis triple, Killing form symmetry/invariance/
nondegeneracy, the Killing pairing's weight grading and the classical
root count are audited.  Any failed audit raises, naming the identity.
The reported audits come back as CheckRecords on ``ChevalleyAlgebra.audit``;
the suites report those records instead of re-running the audits.

In a Chevalley basis the structure constants and the Killing gram are
integers (Chevalley 1955; Humphreys, GTM 9, section 25).  The table
stores each constant as an int, and the gram is an ``IntMat`` of traces
of ad x ad y read off the table.  Vectors are tuples of ints: ``bracket``
and ``killing`` take nothing else, and the caller that holds rationals
clears their denominators first.  The Killing form lives here alone:
``killing`` pairs two integer vectors, ``killing_perp`` maps the
annihilator a subspace's canonical rows give through d G^-1, and
``kills_derived`` tests x against [p, p] by invariance.

A root is the tuple of its simple-root coordinates, all >= 0 or all <= 0,
typed ``Root``.  It is checked where it meets an algebra: the basis index
of a tuple that is not a root, or for e_index and f_index not a positive
root, raises ValueError naming it.  Basis order is [e_beta for beta
positive] ++ [h_1..h_r] ++ [f_beta], with positive roots sorted by height
then reverse-lexicographically on their coordinates, so a1 precedes a2.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    DimensionMismatch,
    EchelonBuilder,
    IntMat,
    Subspace,
    _check_ints,
    _echelon_pivots,
    _null_rows,
    int_det,
    span,
)


class UnsupportedType(ValueError):
    """Type label outside the supported list."""


class NotFiniteType(ValueError):
    """Cartan matrix is not of finite type."""


class ConstructionAuditError(RuntimeError):
    """An exhaustive post-construction audit failed; names the identity."""


SUPPORTED_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")


@dataclass(frozen=True)
class CheckRecord:
    """The outcome of one checked identity, as a report shows it."""

    name: str
    expected: str
    actual: str
    ok: bool
    witness: str | None = None


def check_record(name: str, expected, actual, ok: bool,
                 witness: str | None = None) -> CheckRecord:
    """A record with expected and actual as strings; a failure without a
    witness gets one stating both."""
    if not ok and witness is None:
        witness = f"expected {expected}, got {actual}"
    return CheckRecord(name, str(expected), str(actual), ok, witness)


def raise_on_failure(records: Sequence[CheckRecord], error: type[Exception],
                     where: str) -> tuple[CheckRecord, ...]:
    """The records of a builder's audit; raises error naming the first
    failed identity."""
    for r in records:
        if not r.ok:
            raise error(f"{where}: {r.name} audit failed: {r.witness}")
    return tuple(records)


# a root as its simple-root coordinates, all >= 0 or all <= 0
Root = tuple[int, ...]


def root_sort_key(root: Root):
    # height first; ties broken so a1 sorts before a2
    return sum(root), tuple(map(operator.neg, root))


def root_name(coords: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
    return "+".join(terms) if terms else "0"


@dataclass(frozen=True)
class CartanDatum:
    """A type label together with its Cartan matrix.

    Entry (i, j) is <alpha_j, alpha_i-coroot>, i.e. alpha_j evaluated on
    the i-th simple coroot; row i lists the pairings against coroot i.
    A matrix that is not a finite-type Cartan matrix is rejected here,
    with NotFiniteType.
    """

    type_label: str
    matrix: IntMat

    def __post_init__(self):
        validate_finite_type(self.matrix)

    @property
    def rank(self) -> int:
        return self.matrix.rows


def _chain_matrix(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _cartan_rows(letter: str, n: int) -> list[list[int]]:
    if letter == "A":
        return _chain_matrix(n)
    if letter == "B":  # last simple root short
        a = _chain_matrix(n)
        a[n - 1][n - 2] = -2
        return a
    if letter == "C":  # last simple root long
        a = _chain_matrix(n)
        a[n - 2][n - 1] = -2
        return a
    if letter == "D":
        a = _chain_matrix(n)
        a[n - 1][n - 2] = 0
        a[n - 2][n - 1] = 0
        a[n - 3][n - 1] = -1
        a[n - 1][n - 3] = -1
        return a
    if letter == "G":
        return [[2, -3], [-1, 2]]
    raise UnsupportedType(f"unknown series letter {letter!r}")


def cartan_datum(type_label: str) -> CartanDatum:
    """Cartan datum for a supported type label such as 'A2' or 'G2'."""
    if type_label not in SUPPORTED_TYPES:
        raise UnsupportedType(
            f"type label {type_label!r} not in supported set {SUPPORTED_TYPES}")
    letter, n = type_label[0], int(type_label[1:])
    return CartanDatum(type_label, IntMat.from_rows(_cartan_rows(letter, n), n))


def symmetrizer(m: IntMat) -> tuple[Fraction, ...]:
    """Positive rationals d with d_i m[i][j] = d_j m[j][i], short roots at 1.

    (alpha_i, alpha_i) = 2 d_i once normalized.  Raises NotFiniteType if no
    consistent symmetrizer exists.
    """
    n = m.rows
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or m[i, j] == 0:
                    continue
                if m[j, i] == 0:
                    raise NotFiniteType("asymmetric zero pattern in Cartan matrix")
                want = d[i] * Fraction(m[i, j], m[j, i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise NotFiniteType("Cartan matrix is not symmetrizable")
    lo = min(d)  # type: ignore[type-var]
    return tuple(x / lo for x in d)  # type: ignore[union-attr]


def _integer_symmetrizer(m: IntMat) -> list[int]:
    """The symmetrizer times the lcm of its denominators: positive ints."""
    d = symmetrizer(m)
    den = math.lcm(*(x.denominator for x in d))
    return [int(x * den) for x in d]


def validate_finite_type(m: IntMat) -> None:
    """Reject matrices that are not finite-type Cartan matrices."""
    n = m.rows
    if m.rows != m.cols or n == 0:
        raise NotFiniteType("Cartan matrix must be square and nonempty")
    for i in range(n):
        if m[i, i] != 2:
            raise NotFiniteType("diagonal Cartan entries must equal 2")
        for j in range(n):
            if i != j and m[i, j] > 0:
                raise NotFiniteType("off-diagonal Cartan entries must be <= 0")
    # symmetrized matrix must be positive definite (leading principal
    # minors); a positive common denominator clears it without changing
    # any minor's sign
    d = _integer_symmetrizer(m)
    s = [[d[i] * m[i, j] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if int_det(IntMat.from_rows([row[:k] for row in s[:k]], k)) <= 0:
            raise NotFiniteType("symmetrized Cartan matrix is not positive definite")


_EXPECTED_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
}


def roots_from_cartan(cartan: CartanDatum) -> tuple[Root, ...]:
    """All positive roots, by closing the simple roots under root strings."""
    n = cartan.rank
    a = cartan.matrix

    def pairing(coords: tuple[int, ...], i: int) -> int:
        return sum(coords[j] * a[i, j] for j in range(n))

    known: set[tuple[int, ...]] = set()
    simples = []
    for i in range(n):
        c = tuple(1 if j == i else 0 for j in range(n))
        known.add(c)
        simples.append(c)
    frontier = list(simples)
    height = 1
    while frontier:
        height += 1
        if height > 100:
            raise NotFiniteType("root closure did not terminate")
        nxt = set()
        for beta in frontier:
            for i, alpha in enumerate(simples):
                p = _string_down_length(beta, alpha, known)
                if p - pairing(beta, i) > 0:
                    up = tuple(b + alpha[j] for j, b in enumerate(beta))
                    if up not in known:
                        nxt.add(up)
        known |= nxt
        frontier = sorted(nxt)
    return tuple(sorted(known, key=root_sort_key))


# ---------------------------------------------------------------------------
# the algebra


Table = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
# a basis vector's weight: its root, None on the Cartan
Weight = Root | None


@dataclass(frozen=True, eq=False)
class ChevalleyAlgebra:
    """A semisimple Lie algebra over Q in a Chevalley basis.

    Vectors are integer coordinate tuples over the basis; all brackets go
    through the audited structure-constant table, and every Killing
    pairing and perp through the Killing gram.  Both hold integers:
    table[i][j] lists the nonzero (k, c) with [b_i, b_j] = sum c b_k.
    """

    cartan: CartanDatum
    positive_roots: tuple[Root, ...]
    dim: int
    table: Table = field(repr=False)
    killing_gram: IntMat = field(repr=False)
    basis_weights: tuple[Weight, ...] = field(repr=False)
    # records of the build-time audits, in report order
    audit: tuple[CheckRecord, ...] = field(default=(), repr=False)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    # --- indexing -----------------------------------------------------
    @functools.cached_property
    def _root_index(self) -> dict[Root, int]:
        """Each signed root's basis index, read off the basis weights."""
        return {w: i for i, w in enumerate(self.basis_weights) if w is not None}

    def index_of_root_vector(self, root: Root) -> int:
        """Basis index of e_root for positive root, f_{-root} for negative."""
        if (i := self._root_index.get(root)) is None:
            raise ValueError(f"{root!r} is not a root of {self.cartan.type_label}")
        return i

    def e_index(self, root: Root) -> int:
        if (i := self.index_of_root_vector(root)) < self.num_positive:
            return i
        raise ValueError(f"{root!r} is not a positive root of {self.cartan.type_label}")

    def f_index(self, root: Root) -> int:
        return self.num_positive + self.rank + self.e_index(root)

    def h_index(self, i: int) -> int:
        """Coroot basis index for the 1-based simple root index i."""
        if not 1 <= i <= self.rank:
            raise ValueError("simple root index out of range")
        return self.num_positive + i - 1

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} is outside range({self.dim})")

    def basis_label(self, i: int) -> str:
        self._check_index(i)
        n, pos = self.num_positive, self.positive_roots
        if i < n:
            return f"e({root_name(pos[i])})"
        if i < n + self.rank:
            return f"h{i - n + 1}"
        return f"f({root_name(pos[i - n - self.rank])})"

    def one_hot(self, i: int) -> tuple[int, ...]:
        self._check_index(i)
        return (0,) * i + (1,) + (0,) * (self.dim - 1 - i)

    # --- operations ----------------------------------------------------
    def bracket(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """[x, y] of two integer vectors, by the integer core."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        _check_ints("vector entries", x, y)
        return tuple(self._bracket_ints(_support(x), _support(y)))

    def _bracket_ints(self, xs: Sequence[tuple[int, int]],
                      ys: Sequence[tuple[int, int]]) -> list[int]:
        """[x, y] of two integer vectors given by their supports, the lists
        of their nonzero (index, value) pairs: the one bracket loop."""
        acc = [0] * self.dim
        tab = self.table
        for i, xi in xs:
            row = tab[i]
            for j, yj in ys:
                s = xi * yj
                for k, c in row[j]:
                    acc[k] += c * s
        return acc

    def killing(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """kappa(x, y) = x^T (G y) for two integer vectors."""
        if len(xs) != self.dim or len(ys) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        _check_ints("vector entries", xs, ys)
        return self._killing_ints(xs, ys)

    def _killing_ints(self, xs: Sequence[int], ys: Sequence[int]) -> int:  # unchecked
        return sum(map(operator.mul, xs, self._gram_ints(ys)))

    @functools.cached_property
    def _gram_nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(_support(self.killing_gram.row(i))) for i in range(self.dim))

    @functools.cached_property
    def _gram_inverse_nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row of d G^-1, d the least that makes it integral, by its nonzero
        entries: G^-1's row k is row k of the RREF of [G | I] over its entry k."""
        n = self.dim
        inv = span([self.killing_gram.row(i) + self.one_hot(i) for i in range(n)], 2 * n)
        if inv.pivots[n - 1] != n - 1:  # a pivot past G's columns: G is singular
            raise ConstructionAuditError(f"{self.cartan.type_label}: singular Killing gram")
        d = math.lcm(*(r[k] for k, r in enumerate(inv.ints)))
        return tuple(tuple((j, x * (d // r[k])) for j, x in _support(r[n:]))
                     for k, r in enumerate(inv.ints))

    def _gram_ints(self, v: Sequence[int]) -> list[int]:
        """G v for an integer vector v, over the nonzero gram entries (G is
        audited symmetric, so its rows are its columns)."""
        return _apply(self._gram_nonzeros, v)

    def killing_perp(self, s: Subspace) -> Subspace:
        """The Killing perp of s: y kills s iff G y lies in s's annihilator,
        whose basis s's canonical rows give with no elimination, so it is the
        span of their images under d G^-1, one elimination of dim - dim s."""
        if s.ambient_dim != self.dim:
            raise DimensionMismatch("subspace does not live in the algebra")
        inv = self._gram_inverse_nonzeros
        return span([_apply(inv, z) for _, z in _null_rows(s.ints, s.pivots, self.dim)],
                    self.dim)

    def kills_derived(self, p: Subspace, x: Sequence[int]) -> bool:
        """Whether kappa(x, [p, p]) = 0 for an integer vector x, from p's
        integer rows with no [p, p] built: by the audited invariance
        kappa(x, [a, b]) = kappa([x, a], b), iff G [x, a] pairs to zero
        with every row b after row a of p."""
        if len(x) != self.dim or p.ambient_dim != self.dim:
            raise DimensionMismatch("vector or subspace does not live in the algebra")
        xs = _support(x)
        gcs = [self._gram_ints(self._bracket_ints(xs, _support(a))) for a in p.ints]
        return not any(sum(map(operator.mul, b, gc))
                       for i, gc in enumerate(gcs) for b in p.ints[i + 1:])

    def bracket_space(self, a: Subspace, b: Subspace) -> Subspace:
        """span{[x, y] : x in a, y in b} over pairs of integer basis rows,
        each support read once; for a == b only x before y ([x, x] = 0,
        [y, x] = -[x, y]).  Unit rows e_i, e_j bracket to a multiple of
        table[i][j]: zero if it is empty, and if it is one term c e_k, the
        unit row e_k, which seeds the elimination (the span is canonical, so
        no row changes).  Any other bracket is inserted unless zero or seen."""
        if a.ambient_dim != self.dim or b.ambient_dim != self.dim:
            raise DimensionMismatch("subspace does not live in the algebra")
        if not (a.dim and b.dim):
            return Subspace.zero(self.dim)
        xs = [_support(r) for r in a.ints]
        ys = xs if a == b else [_support(r) for r in b.ints]
        units, dense = set(), {}  # dense: the brackets, insertion-ordered, once each
        for i, x in enumerate(xs):
            row = self.table[x[0][0]] if len(x) == 1 else None
            for y in ys[i + 1:] if ys is xs else ys:
                if row is not None and len(y) == 1 and len(cell := row[y[0][0]]) < 2:
                    if cell:  # a nonzero multiple of one e_k
                        units.add(cell[0][0])
                    continue
                dense[tuple(self._bracket_ints(x, y))] = None
        dense.pop((0,) * self.dim, None)
        eb = EchelonBuilder(self.dim, Subspace.coordinate(self.dim, units))
        for v in dense:
            eb.insert(v)
        return eb.subspace()

    def vector_name(self, v: Sequence, den: int = 1) -> str:
        """v / den, den > 0, as a combination of basis labels."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        terms = []
        for i, x in enumerate(v):
            if x:
                c = Fraction(x, den)
                coef = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{coef}{self.basis_label(i)}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _support(v: Sequence[int]) -> list[tuple[int, int]]:
    if v.count(0) == len(v) - 1:  # a lone nonzero is the sum: count, sum, index run in C
        return [(v.index(x := sum(v)), x)]
    return [(j, x) for j, x in enumerate(v) if x]


def _apply(rows: Sequence[Sequence[tuple[int, int]]], v: Sequence[int]) -> list[int]:
    """M v for a symmetric integer M given by each row's nonzero (i, c)."""
    out = [0] * len(rows)
    for j, x in enumerate(v):
        if x:
            for i, c in rows[j]:
                out[i] += c * x
    return out


def _string_down_length(gamma: tuple[int, ...], beta: tuple[int, ...],
                        signed: set[tuple[int, ...]]) -> int:
    """Largest p with gamma - k*beta in the root set for k = 1..p."""
    p = 0
    probe = tuple(g - b for g, b in zip(gamma, beta))
    while probe in signed:
        p += 1
        probe = tuple(x - b for x, b in zip(probe, beta))
    return p


def _quotient(num: int, den: int, label: str, what: str, *roots) -> int:
    """num / den (den > 0) as an int, else raise; the text is built only then."""
    if num % den:
        raise ConstructionAuditError(f"{label}: {what.format(*map(root_name, roots))} "
                                     f"= {Fraction(num, den)} is not an integer")
    return num // den


def chevalley_table(cartan: CartanDatum,
                    pos: Sequence[Root]) -> tuple[Table, tuple[Weight, ...]]:
    """The structure table and basis weights of the Chevalley basis.

    e_xi = [e_a, e_b]/(p+1) for each non-simple positive root xi, over its
    extraspecial pair: a the first simple root with xi - a a root, b =
    xi - a, and p the length of the a-string down from b.  So N_{a,b} =
    +(p+1).  f_xi = -omega(e_xi) for the Chevalley involution omega, so
    N_{-r,-s} = -N_{r,s}.  Every other positive N_{r,s} comes from the
    four-term relation on (r, s, -a, -b), and a mixed-sign one from
    N_{r,s}/(t,t) = N_{s,t}/(r,r) = N_{t,r}/(s,s) for r + s + t = 0
    (Carter, Simple Groups of Lie Type, 4.1.2).  [e_r, f_r] is the coroot
    of r and [h_i, x] is read off the Cartan matrix.  All in integers: only
    ratios of root norms enter, so the norms are scaled by the lcm of the
    symmetrizer's denominators, and each relation and coroot is one exact
    division.  A nonzero remainder (a constant or coroot that is not an
    integer) or a |constant| other than p+1 raises ConstructionAuditError.
    """
    label = cartan.type_label
    n = cartan.rank
    a = [cartan.matrix.row(i) for i in range(n)]
    num_pos = len(pos)
    dim = 2 * num_pos + n
    pos_idx = {r: k for k, r in enumerate(pos)}
    signed = set(pos_idx) | {_neg(c) for c in pos_idx}
    symm = _integer_symmetrizer(cartan.matrix)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]  # a1 first

    # scale * (r, r), short roots at 2: the symmetrized Cartan form
    norm_sq = {r: sum(r[i] * r[j] * symm[i] * a[i][j]
                      for i in range(n) for j in range(n))
               for r in signed}

    def add(r, s):
        return tuple(map(operator.add, r, s))

    # N_{r,s} for ordered pairs of positive roots with r + s a root, the
    # sums taken in root order, so each relation reads only earlier sums
    npos: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    @functools.cache
    def constant(r, s) -> int:
        """N_{r,s} for roots r, s of any sign with r + s a root."""
        if r in pos_idx and s in pos_idx:
            return npos[r, s]
        if r not in pos_idx and s not in pos_idx:
            return -npos[_neg(r), _neg(s)]
        t = _neg(add(r, s))
        # of (s, t) and (t, r), exactly one pair has a common sign
        if (s in pos_idx) == (t in pos_idx):
            num, den = norm_sq[t] * constant(s, t), norm_sq[r]
        else:
            num, den = norm_sq[t] * constant(t, r), norm_sq[s]
        return _quotient(num, den, label, "N({}, {})", r, s)

    def pair_term(r, s, t, u) -> tuple[int, int]:
        # N_{r,s} N_{t,u} / (r+s, r+s) as (num, den); 0 / 1 if r + s is no root
        rs = add(r, s)
        if rs not in signed:
            return 0, 1
        return constant(r, s) * constant(t, u), norm_sq[rs]

    for x in pos:
        if sum(x) == 1:
            continue
        ea = next((u for u in simples if add(x, _neg(u)) in pos_idx), None)
        if ea is None:
            raise ConstructionAuditError(f"{label}: no simple summand for {root_name(x)}")
        eb = add(x, _neg(ea))
        p = _string_down_length(eb, ea, signed)
        npos[ea, eb], npos[eb, ea] = p + 1, -(p + 1)
        for r in pos_idx:
            s = add(x, _neg(r))
            if s not in pos_idx or (r, s) in npos:
                continue
            # four-term relation on (r, s, t, u) = (r, s, -ea, -eb):
            # N_{r,s} N_{t,u} / (xi, xi) = -rest, and N_{t,u} = -(p+1)
            t, u = _neg(ea), _neg(eb)
            (n1, d1), (n2, d2) = pair_term(s, t, r, u), pair_term(t, r, s, u)
            nrs = _quotient(norm_sq[x] * (n1 * d2 + n2 * d1), d1 * d2 * (p + 1),
                            label, "N({}, {})", r, s)
            npos[r, s], npos[s, r] = nrs, -nrs

    weights: list[Weight] = list(pos) + [None] * n + [_neg(r) for r in pos]
    index = {w: i for i, w in enumerate(weights) if w is not None}

    empty: tuple = ()
    table: list[list[tuple[tuple[int, int], ...]]] = [[empty] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            wi, wj = weights[i], weights[j]
            if wi is None and wj is None:
                continue
            if wi is None or wj is None:
                # [h_k, x_w] = <w, alpha_k-coroot> x_w
                k, v, w = (i, j, wj) if wi is None else (j, i, wi)
                c = sum(map(operator.mul, w, a[k - num_pos]))
                terms = [(v, c if wi is None else -c)]
            elif not any(add(wi, wj)):
                # [e_r, f_r] = h_r, the coroot: 2 r / (r, r) over the simple
                # coroots, coefficient k being r_k (alpha_k, alpha_k) / (r, r)
                nsq = norm_sq[wi]
                terms = [(num_pos + k, _quotient(wi[k] * 2 * symm[k], nsq, label,
                                                 "coroot of {}", wi))
                         for k in range(n)]
            elif add(wi, wj) in signed:
                c = constant(wi, wj)
                p = _string_down_length(wj, wi, signed)
                if abs(c) != p + 1:
                    raise ConstructionAuditError(
                        f"{label}: |N| = {abs(c)} violates the (p+1) law "
                        f"(p = {p}) for {root_name(wi)}, {root_name(wj)}")
                terms = [(index[add(wi, wj)], c)]
            else:
                continue
            terms = [(k, c) for k, c in terms if c]
            table[i][j] = tuple(terms)
            table[j][i] = tuple((k, -c) for k, c in terms)
    return tuple(tuple(row) for row in table), tuple(weights)


def _neg(c: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.neg, c))


def build_algebra(cartan: CartanDatum) -> ChevalleyAlgebra:
    """Construct the algebra and run every audit; raises on any failure."""
    pos = roots_from_cartan(cartan)
    tab, weights = chevalley_table(cartan, pos)
    dim = len(weights)

    # kappa(b_i, b_j) = trace(ad b_i ad b_j) = sum over (l, k) of [b_i, b_l]'s
    # b_k entry times [b_j, b_k]'s b_l entry: ad entries indexed once by (l, k)
    ad: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(dim):
        for l in range(dim):
            for k, c in tab[i][l]:
                ad.setdefault((l, k), []).append((i, c))
    rows = [[0] * dim for _ in range(dim)]
    for (l, k), left in ad.items():
        for j, d in ad.get((k, l), ()):
            for i, c in left:
                rows[i][j] += c * d

    alg = ChevalleyAlgebra(cartan=cartan, positive_roots=pos, dim=dim, table=tab,
                           killing_gram=IntMat.from_rows(rows, dim),
                           basis_weights=weights)
    return dataclasses.replace(alg, audit=_audit(alg))


def jacobi_violations(alg: ChevalleyAlgebra) -> int:
    """Ordered basis triples violating the Jacobi identity.  The Jacobiator is
    alternating on a table antisymmetric with an empty diagonal, as ``_audit``
    checks first: each x < y < z counts 6, skipped if its 3 brackets are zero."""
    dim = alg.dim
    tab = alg.table
    bad = 0
    for x in range(dim):
        tx = tab[x]
        for y in range(x + 1, dim):
            txy = tx[y]
            ty = tab[y]
            for z in range(y + 1, dim):
                tyz, tzx = ty[z], tab[z][x]
                if not (txy or tyz or tzx):  # no bracket, zero Jacobiator
                    continue
                acc: dict[int, int] = {}
                for k, c in txy:
                    for l, d in tab[k][z]:
                        acc[l] = acc.get(l, 0) + c * d
                for k, c in tyz:
                    for l, d in tab[k][x]:
                        acc[l] = acc.get(l, 0) + c * d
                for k, c in tzx:
                    for l, d in tab[k][y]:
                        acc[l] = acc.get(l, 0) + c * d
                if any(acc.values()):
                    bad += 6
    return bad


def killing_invariance_violations(alg: ChevalleyAlgebra) -> int:
    """Ordered triples with kappa([z,x],y) + kappa(x,[z,y]) != 0, summed per z
    over nonzero entries: (k, c) in [z, x] adds c G[k][y] at (x, y), y >= x, from
    gram row k and G[w][k] c at (w, x), w <= x, from column k.  A nonzero (x, y)
    counts 1 if x == y, else 2: exact for a symmetric G, as killing-symmetric checks."""
    g = [alg.killing_gram.row(i) for i in range(alg.dim)]
    rows, cols = alg._gram_nonzeros, list(map(_support, zip(*g)))
    bad = 0
    for tz in alg.table:
        acc: dict[tuple[int, int], int] = {}
        for x, tzx in enumerate(tz):
            for k, c in tzx:
                for y, d in rows[k]:
                    if y >= x:
                        acc[x, y] = acc.get((x, y), 0) + c * d
                for w, d in cols[k]:
                    if w <= x:
                        acc[w, x] = acc.get((w, x), 0) + d * c
        bad += sum(1 if x == y else 2 for (x, y), v in acc.items() if v)
    return bad


def _audit(alg: ChevalleyAlgebra) -> tuple[CheckRecord, ...]:
    """Audit the finished algebra; the reported records, or raise."""
    label = alg.cartan.type_label
    dim = alg.dim
    g, tab = [alg.killing_gram.row(i) for i in range(dim)], alg.table
    if any(tab[i][i] for i in range(dim)) or not all(
            len(tab[i][j]) == len(tab[j][i])
            and all(k == l and c == -d for (k, c), (l, d) in zip(tab[i][j], tab[j][i]))
            for i in range(dim) for j in range(i)):
        raise ConstructionAuditError(f"{label}: bracket table is not antisymmetric")
    # weight grading of the pairing: kappa(g_a, g_b) = 0 unless a + b = 0,
    # the Cartan's weight being 0
    w = [c or (0,) * alg.rank for c in alg.basis_weights]
    if any(c and any(x + y for x, y in zip(w[i], w[j]))
           for i, row in enumerate(g) for j, c in enumerate(row)):
        raise ConstructionAuditError(f"{label}: Killing pairing breaks the weight grading")
    jac = jacobi_violations(alg)
    # symmetric, and on the Cartan a positive multiple c of the coroot form:
    # kappa(h_i, h_j) D_j = c A[i][j], D the integer symmetrizer; c2 = 2c
    h, a, d = alg.num_positive, alg.cartan.matrix, _integer_symmetrizer(alg.cartan.matrix)
    c2, r = g[h][h] * d[0], range(alg.rank)
    bad = next(((i, j) for i, row in enumerate(g) for j in range(i) if row[j] != g[j][i]), None)
    bad = bad or next(((h + i, h + j) for i in r for j in r
                       if c2 <= 0 or 2 * g[h + i][h + j] * d[j] != c2 * a[i, j]), None)
    sym, sym_at = bad is None, bad and "kappa({}, {}) = {}".format(
        *map(alg.basis_label, bad), g[bad[0]][bad[1]])
    nondeg = len(_echelon_pivots(g, dim)) == dim
    kiv = killing_invariance_violations(alg)
    want_pos = _EXPECTED_POSITIVE_COUNT[label[0]](alg.rank)
    want_dim = 2 * want_pos + alg.rank
    return raise_on_failure((
        check_record("jacobi-violations", 0, jac, jac == 0),
        check_record("killing-symmetric", True, sym, sym, sym_at),
        check_record("killing-nondegenerate", True, nondeg, nondeg),
        check_record("killing-invariance-violations", 0, kiv, kiv == 0),
        check_record("positive-root-count", want_pos, alg.num_positive,
                     alg.num_positive == want_pos),
        check_record("dimension", want_dim, dim, dim == want_dim),
    ), ConstructionAuditError, label)


@functools.lru_cache(maxsize=None)
def algebra(type_label: str) -> ChevalleyAlgebra:
    """Cached audited algebra for a supported type label."""
    return build_algebra(cartan_datum(type_label))
