"""Exact linear algebra over the rationals, with integer elimination.

Inside the package a vector is a tuple of ints: a subspace holds its
canonical primitive integer rows, the rows of its reduced row-echelon
basis each scaled to coprime integers with a positive pivot, and a
quotient's section holds integer rows over one positive denominator.
That form is unique, so equality of subspaces is literal equality of
rows.  Fractions enter only through ``span`` and ``Subspace.contains``,
which clear denominators, and leave through the Fraction views
``Subspace.rows``, ``rref`` and ``class_of``'s coordinates.  Everything
is exact: no floats, no tolerances, no pivot thresholds.

There is one elimination step, ``EchelonBuilder.insert``, and it runs in
integers, combining rows by gcd-scaled integer row operations
(fraction-free elimination; Bareiss 1968, Cohen, GTM 138, section 2.2).
Spans, ``rref``, kernels, intersections and quotient sections all read
the rows and pivots it leaves, membership reduces against them with the
same helper, and a quotient's class map is an integer projector built
once, on first use.
The Killing form and its perps live with the algebra that owns them, in
``chevalley``.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)


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
    def rows(self) -> tuple[Vec, ...]:
        """The reduced row-echelon basis as Fractions: each row over its pivot."""
        return tuple(_as_vec(r, r[p]) for r, p in zip(self.ints, self.pivots))

    @property
    def dim(self) -> int:
        return len(self.ints)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, (), ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace.coordinate(n, range(n))

    @staticmethod
    def coordinate(n: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at distinct indices: canonical rows."""
        idx = tuple(sorted(indices))
        return Subspace(n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in idx), idx)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return not any(_reduce(self.ints, self.pivots, _clear_denominators(v)[0]))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return not any(any(_reduce(self.ints, self.pivots, r)) for r in other.ints)


def _clear_denominators(v: Sequence) -> tuple[Sequence[int], int]:
    """(nums, den) with v = nums / den, den the lcm of v's denominators.
    A vector that holds only ints comes back as it stands, over 1."""
    if all(type(x) is int for x in v):
        return v, 1
    ratios = [x.as_integer_ratio() for x in v]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _as_vec(nums: Sequence[int], den: int) -> Vec:
    """The Fraction vector nums / den."""
    return tuple(Fraction(x, den) if x else ZERO for x in nums)


def _reduce(rows: Sequence[Sequence[int]], pivots: Sequence[int],
            v: Sequence[int]) -> Sequence[int]:
    """v minus its components along primitive echelon rows (positive pivot,
    pivot column zero in every other row), each step a gcd-scaled integer
    row operation, then divided by the gcd of its entries: a positive
    multiple of the rational remainder, zero iff v is in their span."""
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            g = math.gcd(r[p], c)
            a, c = r[p] // g, c // g
            v = [a * x - c * y for x, y in zip(v, r)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


class EchelonBuilder:
    """Incrementally maintained primitive echelon basis; insertion order
    independent result.  `insert` is the package's one elimination step:
    every span, kernel, intersection and quotient goes through it."""

    def __init__(self, ambient_dim: int):
        self.n = ambient_dim
        self.rows: list[Sequence[int]] = []
        self.pivots: list[int] = []

    def insert(self, v: Sequence[int]) -> bool:
        """Insert an integer vector; True iff the rank grew.  The new row
        gets a positive pivot, and reducing the other rows against it
        clears its pivot column there."""
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        v = _reduce(self.rows, self.pivots, v)
        for pc, x in enumerate(v):
            if x:
                break
        else:
            return False
        if v[pc] < 0:
            v = [-x for x in v]
        for i, r in enumerate(self.rows):
            if r[pc]:
                self.rows[i] = _reduce((v,), (pc,), r)
        at = bisect.bisect(self.pivots, pc)
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def subspace(self) -> Subspace:
        return Subspace(self.n, tuple(map(tuple, self.rows)), tuple(self.pivots))


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors of ints or Fractions:
    the one elimination entry that clears denominators."""
    b = EchelonBuilder(ambient_dim)
    for v in vectors:
        b.insert(_clear_denominators(v)[0])
    return b.subspace()


def rref(rows: Sequence[Sequence], cols: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form of rows of ints or Fractions, each of length
    cols, and the tuple of pivot columns: the canonical basis of the row
    space, padded with zero rows to the number of rows given."""
    s = span(rows, cols)
    return s.rows + ((ZERO,) * cols,) * (len(rows) - s.dim), s.pivots


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    eb = EchelonBuilder(a.ambient_dim)
    for r in a.ints + b.ints:
        eb.insert(r)
    return eb.subspace()


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces, via the kernel of [A^T | -B^T]."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    # columns: the coefficients of a's basis, then those of b's basis
    ker = kernel([[r[i] for r in a.ints] + [-r[i] for r in b.ints] for i in range(n)],
                 a.dim + b.dim)
    eb = EchelonBuilder(n)
    for coeffs in ker.ints:
        eb.insert([sum(c * row[j] for c, row in zip(coeffs, a.ints)) for j in range(n)])
    return eb.subspace()


def kernel(rows: Iterable[Sequence[int]], cols: int) -> Subspace:
    """Solution space of the integer rows @ x = 0, as a subspace of Q^cols:
    one integer solution per free column j, with x_j the lcm of the pivot
    entries."""
    s = EchelonBuilder(cols)
    for r in rows:
        s.insert(r)
    pivset = set(s.pivots)
    top = math.lcm(*(r[p] for r, p in zip(s.rows, s.pivots)))
    eb = EchelonBuilder(cols)
    for j in range(cols):
        if j in pivset:
            continue
        v = [0] * cols
        v[j] = top
        for r, p in zip(s.rows, s.pivots):
            v[p] = -r[j] * (v[j] // r[p])
        eb.insert(v)
    return eb.subspace()


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
    if total.ambient_dim != divisor.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not total.contains_space(divisor):
        raise DivisorNotContained("divisor is not contained in the total space")
    eb = EchelonBuilder(total.ambient_dim)
    for r in divisor.ints:
        eb.insert(r)
    picked = [(r, p) for r, p in zip(total.ints, total.pivots) if eb.insert(r)]
    assert len(picked) == total.dim - divisor.dim
    den = math.lcm(*(r[p] for r, p in picked))
    rows = tuple(tuple(x * (den // r[p]) for x in r) for r, p in picked)
    return QuotientSpace(total, divisor, (rows, den))


def class_of(q: QuotientSpace, nums: Sequence[int], den: int = 1) -> Vec:
    """Coordinates of the class of nums / den, den > 0, in the section basis
    of the quotient: the vector is sum_k nums[pivot_k] / den * (total row
    k), so its class is the same combination of the projector rows."""
    if len(nums) != q.total.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dimension")
    if any(_reduce(q.total.ints, q.total.pivots, nums)):
        raise VectorOutsideTotal("vector lies outside the quotient's total space")
    rows, pden = q.projector
    coeffs = [nums[p] for p in q.total.pivots]
    acc = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
    return _as_vec(acc, den * pden)


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
        if not all(isinstance(x, int) for x in self.entries):
            raise LinAlgError("IntMat entries must be ints")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMat":
        rows = [tuple(int(x) for x in r) for r in rows]
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
    divisibility chain whose first r terms are the invariants.
    """
    cols = span([m.row(i) for i in range(m.rows)], m.cols).pivots
    if not cols:
        return ()
    picked = span([[m[i, j] for i in range(m.rows)] for j in cols], m.rows).pivots
    d = abs(int_det(IntMat.from_rows([[m[i, j] for j in cols] for i in picked])))
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
