"""Exact linear algebra over arbitrary-precision rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are immutable
row-major ``Mat`` values; subspaces hold the rows and pivot columns of
their reduced row-echelon basis, so that equality of subspaces is
literal equality of rows.  Everything is exact: no floats, no
tolerances, no pivot thresholds.

There is one elimination step, ``EchelonBuilder.insert``.  Spans,
``rref``, kernels, solves, intersections and quotient sections all read
the rows and pivots it leaves, and membership reduces against them.

Scalars are stdlib ``Fraction`` values.  They already carry the
invariants we need (lowest terms, positive denominator, exact
arithmetic), so no separate rational type is defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    """Base class for exact linear algebra errors."""


class DimensionMismatch(LinAlgError):
    """Operands live in different ambient dimensions."""


class DivisorNotContained(LinAlgError):
    """Quotient construction with a divisor not inside the total space."""


class VectorOutsideTotal(LinAlgError):
    """Class computation for a vector outside the quotient's total space."""


def as_vec(seq: Iterable) -> Vec:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in seq)


@dataclass(frozen=True)
class Mat:
    """Immutable rational matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinAlgError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise LinAlgError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        rows = [as_vec(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
            for r in rows:
                if len(r) != cols:
                    raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise LinAlgError("empty matrix needs an explicit column count")
        flat = tuple(x for r in rows for x in r)
        return Mat(len(rows), cols, flat)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[Vec]:
        return [self.row(i) for i in range(self.rows)]

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        orows = other.row_list()
        for i in range(self.rows):
            r = self.row(i)
            acc = [ZERO] * other.cols
            for k, c in enumerate(r):
                if c:
                    ork = orows[k]
                    for j in range(other.cols):
                        if ork[j]:
                            acc[j] += c * ork[j]
            out.append(acc)
        return Mat.from_rows(out, other.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        return self.mul(other)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix sum shape mismatch")
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix difference shape mismatch")
        return Mat(self.rows, self.cols,
                   tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Mat":
        c = c if isinstance(c, Fraction) else Fraction(c)
        return Mat(self.rows, self.cols, tuple(c * x for x in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held by its canonical RREF basis.

    Two Subspace values are equal iff they are the same subspace; the
    canonical rows make that literal dataclass equality.  The pivots are
    determined by the rows, so they take no part in equality or hashing.
    """

    ambient_dim: int
    rows: tuple[Vec, ...]  # RREF, no zero rows
    pivots: tuple[int, ...] = field(compare=False)  # leading column of each row

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, (), ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple(tuple(ONE if i == j else ZERO for j in range(n))
                                 for i in range(n)), tuple(range(n)))

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return not any(_reduce(self.rows, self.pivots, v))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(r) for r in other.rows)


def _reduce(rows: Sequence[Sequence[Fraction]], pivots: Sequence[int],
            v: Sequence[Fraction]) -> Sequence[Fraction]:
    """v minus its components along echelon rows (pivot entry 1, pivot
    column cleared in every other row); zero iff v is in their span."""
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, r)]
    return v


class EchelonBuilder:
    """Incrementally maintained RREF basis; insertion order independent
    result.  `insert` is the package's one elimination step: every span,
    kernel, solve and quotient goes through it."""

    def __init__(self, ambient_dim: int):
        self.n = ambient_dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def insert(self, vec: Sequence) -> bool:
        """Insert a vector; True iff the rank grew."""
        if len(vec) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        v = _reduce(self.rows, self.pivots, vec)
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = ONE / v[pc]
        v = [x * inv for x in v]
        for i, r in enumerate(self.rows):
            c = r[pc]
            if c:
                self.rows[i] = [a - c * b for a, b in zip(r, v)]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pc:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def subspace(self) -> Subspace:
        return Subspace(self.n, tuple(map(tuple, self.rows)), tuple(self.pivots))


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    b = EchelonBuilder(ambient_dim)
    for v in vectors:
        b.insert(as_vec(v))
    return b.subspace()


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns: the
    canonical basis of the row space, padded with zero rows."""
    s = span(m.row_list(), m.cols)
    zero = (ZERO,) * m.cols
    return Mat.from_rows(s.rows + (zero,) * (m.rows - s.dim), m.cols), s.pivots


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    eb = EchelonBuilder(a.ambient_dim)
    for r in a.rows + b.rows:
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
    ker = kernel(Mat.from_rows([[r[i] for r in a.rows] + [-r[i] for r in b.rows]
                                for i in range(n)], a.dim + b.dim))
    vecs = []
    for coeffs in ker.rows:
        v = [ZERO] * n
        for c, row in zip(coeffs, a.rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] += c * x
        vecs.append(v)
    return span(vecs, n)


def kernel(m: Mat) -> Subspace:
    """Solution space of m @ x = 0, as a subspace of Q^cols."""
    s = span(m.row_list(), m.cols)
    pivset = set(s.pivots)
    vecs = []
    for j in range(m.cols):
        if j in pivset:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for r, p in zip(s.rows, s.pivots):
            v[p] = -r[j]
        vecs.append(v)
    return span(vecs, m.cols)


def perp_wrt_form(v: Subspace, gram: Mat) -> Subspace:
    """Orthogonal complement of v under the symmetric bilinear form gram."""
    if gram.rows != gram.cols or gram.rows != v.ambient_dim:
        raise DimensionMismatch("gram matrix must be square of the ambient dimension")
    if not gram.is_symmetric():
        raise LinAlgError("gram matrix must be symmetric")
    if v.dim == 0:
        return Subspace.full(v.ambient_dim)
    return kernel(Mat.from_rows(v.rows, v.ambient_dim) @ gram)


def gram_pair(gram: Mat, x: Vec, y: Vec) -> Fraction:
    """x^T gram y, skipping zero entries."""
    acc = ZERO
    for i, xi in enumerate(x):
        if xi:
            row = gram.row(i)
            for j, yj in enumerate(y):
                if yj and row[j]:
                    acc += xi * row[j] * yj
    return acc


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """One exact solution x of a @ x = b, or None if inconsistent.

    Free variables are set to zero; with full column rank the solution is
    the unique one.
    """
    if len(b) != a.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    s = span([a.row(i) + (b[i],) for i in range(a.rows)], a.cols + 1)
    if a.cols in s.pivots:
        return None
    x = [ZERO] * a.cols
    for r, p in zip(s.rows, s.pivots):
        x[p] = r[a.cols]
    return tuple(x)


@dataclass(frozen=True)
class QuotientSpace:
    """total / divisor with a deterministic section.

    The section rows are the rows of the total's echelon basis that extend
    the divisor's echelon basis; their classes form a basis of the
    quotient.
    """

    total: Subspace
    divisor: Subspace
    section: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.section)


def quotient(total: Subspace, divisor: Subspace) -> QuotientSpace:
    if total.ambient_dim != divisor.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not total.contains_space(divisor):
        raise DivisorNotContained("divisor is not contained in the total space")
    eb = EchelonBuilder(total.ambient_dim)
    for r in divisor.rows:
        eb.insert(r)
    section = tuple(r for r in total.rows if eb.insert(r))
    assert len(section) == total.dim - divisor.dim
    return QuotientSpace(total, divisor, section)


def class_of(q: QuotientSpace, vec: Sequence) -> Vec:
    """Coordinates of vec's class in the section basis of the quotient."""
    v = as_vec(vec)
    if not q.total.contains(v):
        raise VectorOutsideTotal("vector lies outside the quotient's total space")
    cols = q.section + q.divisor.rows
    if not cols:
        return ()
    sys = Mat.from_rows([[row[i] for row in cols] for i in range(q.total.ambient_dim)],
                        len(cols))
    x = solve_linear(sys, v)
    assert x is not None
    return x[:q.dim]


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
