"""Exact linear algebra over the rationals, with integer elimination.

Inside the package a vector is a tuple of ints: a subspace holds its
canonical primitive integer rows, the rows of its reduced row-echelon
basis each scaled to coprime integers with a positive pivot, and a
quotient's section holds integer rows over one positive denominator.
That form is unique, so equality of subspaces is literal equality of
rows, and so is equality of QVecs, the (integer numerators, positive
denominator) pairs in lowest terms that hold a class's coordinates.
Every entry point takes integer vectors; ``rref`` alone takes rows of
Fractions, clearing their denominators, and returns Fraction rows.
Everything is exact: no floats, no tolerances, no pivot thresholds.

There is one elimination step, and it runs in integers, combining rows
by gcd-scaled integer row operations (fraction-free elimination; Bareiss
1968, Cohen, GTM 138, section 2.2).  Its forward half, ``_forward``,
reduces a vector against the echelon rows and places the primitive
remainder at its pivot; ``EchelonBuilder.insert`` follows it with the
back-reduction that clears the new pivot column.  A read that needs only
a rank or a pivot set takes forward steps alone (``_echelon_pivots``),
since the pivots of a row space do not depend on back-substitution.
Spans, ``rref``, kernels and quotient sections each read the rows and
pivots of one elimination: a kernel's rows with their columns reversed, a
quotient's total rows after its divisor's, less those it shares with it.
Echelon rows give their solutions with no elimination (``_null_rows``),
membership reduces against them, and a quotient's class map is an
integer projector built once, on first use.  The Killing form and its
perps live with the algebra that owns them, in ``chevalley``.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

QVec = tuple[tuple[int, ...], int]  # (nums, den > 0) in lowest terms


class LinAlgError(ValueError):
    """Base class for exact linear algebra errors."""


class DimensionMismatch(LinAlgError):
    """Operands live in different ambient dimensions."""


class DivisorNotContained(LinAlgError):
    """Quotient construction with a divisor not inside the total space."""


class VectorOutsideTotal(LinAlgError):
    """Class computation for a vector outside the quotient's total space."""


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held by its canonical primitive integer rows.

    Two Subspace values are equal iff they are the same subspace; the
    canonical rows make that literal dataclass equality.  The pivots are
    determined by the rows, so they take no part in equality or hashing.
    """

    ambient_dim: int
    # RREF rows as coprime integers with a positive pivot entry, no zero rows
    ints: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(compare=False)  # leading column of each row

    @property
    def dim(self) -> int:
        return len(self.ints)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, (), ())

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def full(n: int) -> "Subspace":
        """Q^n, one per n: its unit rows are every coordinate subspace's rows."""
        units = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        return Subspace(n, units, tuple(range(n)))

    @staticmethod
    def coordinate(n: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at distinct indices in range(n)."""
        idx = tuple(sorted(indices))
        if len(set(idx)) < len(idx) or idx and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError(f"indices must be distinct and in range({n}), got {idx}")
        return Subspace(n, tuple(map(Subspace.full(n).ints.__getitem__, idx)), idx)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return not any(_reduce(self.ints, self.pivots, v))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return not any(any(_reduce(self.ints, self.pivots, r)) for r in other.ints)


def _check_scalars(values: Sequence, what: str) -> None:
    """No float enters: raise unless each value is a non-bool int or a Fraction."""
    for x in values:
        if type(x) is bool or not isinstance(x, (int, Fraction)):
            raise TypeError(f"{what} must be ints or Fractions, got {x!r}")


def _check_ints(what: str, *vectors: Sequence) -> None:
    """No float, Fraction, bool or str is coerced: every entry is an int."""
    if set(map(type, itertools.chain.from_iterable(vectors))) - {int}:
        bad = next(x for x in itertools.chain.from_iterable(vectors) if type(x) is not int)
        raise TypeError(f"{what} must be ints, got {bad!r}")


def _clear_denominators(v: Sequence) -> tuple[Sequence[int], int]:
    """(nums, den) with v = nums / den, den the lcm of v's denominators.
    A vector that holds only ints comes back as it stands, over 1."""
    if all(type(x) is int for x in v):
        return v, 1
    _check_scalars(v, "vector entries")
    ratios = [x.as_integer_ratio() for x in v]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _lowest(nums: Sequence[int], den: int) -> QVec:
    """nums / den, den > 0, as a QVec."""
    g = math.gcd(den, *nums)
    return (tuple([x // g for x in nums]), den // g) if g > 1 else (tuple(nums), den)


def _reduce(rows: Sequence[Sequence[int]], pivots: Sequence[int],
            v: Sequence[int]) -> Sequence[int]:
    """v minus its components along echelon rows taken in pivot order, each
    step a gcd-scaled integer row operation, then divided by the gcd of its
    entries: zero iff v is in their span, and zero at every pivot column.
    For primitive rows with a positive pivot whose pivot column is zero in
    every other row, a positive multiple of the rational remainder."""
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            g = math.gcd(r[p], c)
            a, c = r[p] // g, c // g
            v = [a * x - c * y for x, y in zip(v, r)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _forward(rows: list[Sequence[int]], pivots: list[int], v: Sequence[int]) -> int | None:
    """The forward half of the elimination step: reduce v against the
    echelon rows, make the remainder primitive with a positive pivot and
    insert it, and its pivot, at the pivot's place.  Its index, or None
    if v lies in the rows' span."""
    v = _reduce(rows, pivots, v)
    for pc, x in enumerate(v):
        if x:
            break
    else:
        return None
    if v[pc] < 0:
        v = [-x for x in v]
    at = bisect.bisect(pivots, pc)
    rows.insert(at, v)
    pivots.insert(at, pc)
    return at


def _echelon_pivots(vectors: Iterable[Sequence[int]], ambient_dim: int,
                    seed: Subspace | None = None) -> list[int]:
    """The pivot columns of the span of a seed subspace and the integer
    vectors, by forward steps alone: the pivots are the row space's, so
    no back-reduction is needed, and the seed's canonical rows already are
    a state the steps leave.  Reading stops at full rank, where no further
    vector can change the pivots."""
    eb = EchelonBuilder(ambient_dim, seed)  # raises on a mismatch
    for v in vectors:
        if len(eb.pivots) == ambient_dim:
            break
        if len(v) != ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        _forward(eb.rows, eb.pivots, v)
    return eb.pivots


class EchelonBuilder:
    """Incrementally maintained primitive echelon basis; insertion order
    independent result.  `insert` is the package's one elimination step:
    every span, kernel and quotient goes through it, and rank reads take
    its forward half alone.  A seed subspace's canonical rows are already
    the state that inserting them would leave."""

    def __init__(self, ambient_dim: int, seed: Subspace | None = None):
        if seed is not None and seed.ambient_dim != ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        self.n = ambient_dim
        self.rows: list[Sequence[int]] = list(seed.ints) if seed else []
        self.pivots: list[int] = list(seed.pivots) if seed else []

    def insert(self, v: Sequence[int]) -> bool:
        """Insert an integer vector; True iff the rank grew.  The forward
        step places the new row; reducing the rows above it against it
        clears its pivot column there (the rows below are zero there)."""
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        at = _forward(self.rows, self.pivots, v)
        if at is None:
            return False
        rows, v, pc = self.rows, self.rows[at], self.pivots[at]
        for i in range(at):
            if rows[i][pc]:
                rows[i] = _reduce((v,), (pc,), rows[i])
        return True

    def subspace(self) -> Subspace:
        return Subspace(self.n, tuple(map(tuple, self.rows)), tuple(self.pivots))


def span(vectors: Iterable[Sequence[int]], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given integer vectors."""
    b = EchelonBuilder(ambient_dim)
    for v in vectors:
        b.insert(v)
    return b.subspace()


def rref(rows: Sequence[Sequence], cols: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Reduced row echelon form of rows of ints or Fractions, each of length
    cols, and the tuple of pivot columns: the canonical basis of the row
    space as Fractions, each integer row over its pivot entry, padded with
    zero rows to the number of rows given.  The package's one Fraction door."""
    s = span([_clear_denominators(r)[0] for r in rows], cols)
    return (tuple(tuple(Fraction(x, r[p]) for x in r) for r, p in zip(s.ints, s.pivots))
            + ((Fraction(0),) * cols,) * (len(rows) - s.dim), s.pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    eb = EchelonBuilder(b.ambient_dim, a)  # raises unless a, b share one Q^n
    for r in b.ints:
        eb.insert(r)
    return eb.subspace()


def _null_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int],
               cols: int) -> list[tuple[int, list[int]]]:
    """Solutions (j, x) of rows @ x = 0, one per free column j, increasing,
    for rows whose pivot column is zero in the others: x_j the lcm of r[p] over
    the rows with r[j] != 0, x_p = -r[j] x_j / r[p] there, and 0 elsewhere."""
    out = []
    for j in sorted(set(range(cols)).difference(pivots)):
        hit = [(p, r) for r, p in zip(rows, pivots) if r[j]]
        v = [0] * cols
        v[j] = x = math.lcm(*(r[p] for p, r in hit))
        for p, r in hit:
            v[p] = -r[j] * (x // r[p])
        out.append((j, v))
    return out


def kernel(rows: Iterable[Sequence[int]], cols: int) -> Subspace:
    """Solution space of the integer rows @ x = 0, as a subspace of Q^cols.
    Eliminated with columns reversed, row r_q ends at its pivot q > j for each
    solution's free column j, so over their gcd these are the canonical rows."""
    s = span((r[::-1] for r in rows), cols)
    out = _null_rows([r[::-1] for r in s.ints], [cols - 1 - p for p in s.pivots], cols)
    return Subspace(cols, tuple(_lowest(v, v[j])[0] for j, v in out), tuple(j for j, _ in out))


@dataclass(frozen=True)
class QuotientSpace:
    """total / divisor with a deterministic section.

    The section is (rows, den): rows[k] / den are the rows of the total's
    reduced echelon basis that extend the divisor's echelon basis, over one
    positive denominator; their classes form a basis of the quotient.
    """

    total: Subspace
    divisor: Subspace
    section: tuple[tuple[tuple[int, ...], ...], int]

    @property
    def dim(self) -> int:
        return len(self.section[0])

    @functools.cached_property
    def projector(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den), rows[k] / den the class of the k-th echelon row of the
        total.  At the total's pivot columns the integer section rows and the
        divisor rows form an invertible C.  The section's vectors are its
        rows over d, so row k of d C^-1, read off the RREF [I | d C^-1] of
        [C | d I] (integer row k over its entry k), holds total row k's
        coordinates, the first dim of them on the section."""
        n, piv = self.total.dim, self.total.pivots
        rows, d = self.section
        c = [[r[p] for p in piv] + [d * (i == k) for k in range(n)]
             for i, r in enumerate(rows + self.divisor.ints)]
        inv = span(c, 2 * n).ints
        den = math.lcm(*(r[k] for k, r in enumerate(inv)))
        return tuple(tuple(x * (den // r[k]) for x in r[n:n + self.dim])
                     for k, r in enumerate(inv)), den


def quotient(total: Subspace, divisor: Subspace) -> QuotientSpace:
    """total / divisor; a builder seeded with the divisor picks the section."""
    eb = EchelonBuilder(total.ambient_dim, divisor)  # raises on a mismatch
    shared = dict(zip(divisor.pivots, divisor.ints))  # in the span: no insert
    picked = [(r, p) for r, p in zip(total.ints, total.pivots)
              if shared.get(p) != r and eb.insert(r)]
    if len(eb.rows) > total.dim:  # dim(D + T) = dim T iff D lies in T
        raise DivisorNotContained("divisor is not contained in the total space")
    den = math.lcm(*(r[p] for r, p in picked))
    rows = tuple(tuple(x * (den // r[p]) for x in r) for r, p in picked)
    return QuotientSpace(total, divisor, (rows, den))


def class_of(q: QuotientSpace, nums: Sequence[int], den: int = 1) -> QVec:
    """Coordinates of the class of nums / den, den > 0, in the section basis
    of the quotient, as a QVec: the vector is sum_k nums[pivot_k] / den *
    (total row k), so its class is the same combination of the projector
    rows."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if len(nums) != q.total.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    if any(_reduce(q.total.ints, q.total.pivots, nums)):
        raise VectorOutsideTotal("vector lies outside the quotient's total space")
    rows, pden = q.projector
    coeffs = [nums[p] for p in q.total.pivots]
    acc = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
    return _lowest(acc, den * pden)


# ---------------------------------------------------------------------------
# integer matrices and Smith invariants (the unimodular transforms are not
# kept: the freeness certificate reads only the invariant factors)


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise LinAlgError("entry count does not match shape")
        _check_ints("IntMat entries", self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMat":
        rows = [tuple(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
            for r in rows:
                if len(r) != cols:
                    raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise LinAlgError("empty matrix needs an explicit column count")
        return IntMat(len(rows), cols, tuple(x for r in rows for x in r))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def int_det(m: IntMat) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _clear_below(a: list[list[int]], k: int, d: int) -> None:
    """Zero column k under the pivot a[k][k] with determinant-1 row
    combinations, entries reduced modulo d.

    An entry the pivot divides is removed by plain subtraction, so a pivot
    that divides its column is never replaced; otherwise the pivot becomes
    gcd(pivot, entry), a proper divisor of it.
    """
    for i in range(k + 1, len(a)):
        p, b = a[k][k], a[i][k]
        if not b:
            continue
        if b % p == 0:
            q = b // p
            a[i] = [(y - q * x) % d for x, y in zip(a[k], a[i])]
            continue
        g, s, t = _xgcd(p, b)
        u, v = p // g, b // g  # [[s, t], [-v, u]] has determinant 1
        a[k], a[i] = ([(s * x + t * y) % d for x, y in zip(a[k], a[i])],
                      [(u * y - v * x) % d for x, y in zip(a[k], a[i])])


def smith_normal_form(m: IntMat) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Every d_i divides D = |det| of any nonsingular r x r minor (r the
    rank), so the factors are those of the row lattice plus D*Z^n, and
    the elimination runs modulo D with no entry ever exceeding D (Cohen,
    GTM 138, section 2.4; Kannan and Bachem 1979).  The diagonal it
    leaves gives gcd(a_kk, D); a gcd/lcm pass puts those into a
    divisibility chain whose first r terms are the invariants.  Their
    product divides every r x r minor, so D = 1 makes them all 1.
    """
    cols = _echelon_pivots((m.row(i) for i in range(m.rows)), m.cols)
    if not cols:
        return ()
    picked = _echelon_pivots(([m[i, j] for i in range(m.rows)] for j in cols), m.rows)
    d = abs(int_det(IntMat.from_rows([[m[i, j] for j in cols] for i in picked])))
    if d == 1:
        return (1,) * len(cols)
    a = [[x % d for x in m.row(i)] for i in range(m.rows)]
    diag = []
    for k in range(min(m.rows, m.cols)):
        hit = next(((i, j) for i in range(k, len(a)) for j in range(k, len(a[0]))
                    if a[i][j]), None)
        if hit is None:
            diag.append(d)
            continue
        i, j = hit
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        # clear the pivot's column, then (transposed) its row, until both stay clear
        while (any(a[i][k] for i in range(k + 1, len(a)))
               or any(a[k][j] for j in range(k + 1, len(a[0])))):
            _clear_below(a, k, d)
            a = [list(c) for c in zip(*a)]
        diag.append(math.gcd(a[k][k], d))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return tuple(diag[:len(cols)])
