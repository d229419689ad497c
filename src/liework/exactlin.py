"""Exact linear algebra over arbitrary-precision rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are immutable
row-major ``Mat`` values; subspaces are stored in reduced row-echelon
form so that equality of subspaces is literal equality of
representations.  Everything is exact: no floats, no tolerances, no
pivot thresholds.

Scalars are stdlib ``Fraction`` values.  They already carry the
invariants we need (lowest terms, positive denominator, exact
arithmetic), so no separate rational type is defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


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

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

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

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum((c * x for c, x in zip(self.row(i), v) if c), ZERO)
                     for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i))


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Pivoting is deterministic: first nonzero entry scanning down from the
    current row, columns left to right.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        hit = None
        for r in range(pr, m.rows):
            if rows[r][pc] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        inv = ONE / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        lead = rows[pr]
        for r in range(m.rows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], lead)]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Mat.from_rows(rows, m.cols), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held by its canonical RREF basis.

    Two Subspace values are equal iff they are the same subspace; the
    canonical form makes that literal dataclass equality.
    """

    ambient_dim: int
    basis: Mat  # RREF, no zero rows

    @property
    def dim(self) -> int:
        return self.basis.rows

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, Mat.from_rows([], n))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, Mat.identity(n))

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return vec_is_zero(_reduce_against(self.basis.row_list(), v))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(other.basis.row(i)) for i in range(other.dim))


def _reduce_against(rref_rows: list[Vec], v: Vec) -> Vec:
    """Reduce v against rows already in RREF (pivot entry 1, cleared column)."""
    w = list(v)
    for r in rref_rows:
        p = _leading_index(r)
        c = w[p]
        if c:
            w = [a - c * b for a, b in zip(w, r)]
    return tuple(w)


def _leading_index(r: Sequence[Fraction]) -> int:
    for j, x in enumerate(r):
        if x != 0:
            return j
    raise LinAlgError("zero row has no leading index")


class EchelonBuilder:
    """Incrementally maintained RREF basis; insertion order independent result."""

    def __init__(self, ambient_dim: int):
        self.n = ambient_dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def insert(self, vec: Sequence) -> bool:
        """Insert a vector; True iff the rank grew."""
        v = list(vec)
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, r)]
        pc = None
        for j, x in enumerate(v):
            if x != 0:
                pc = j
                break
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

    @property
    def rank(self) -> int:
        return len(self.rows)

    def subspace(self) -> Subspace:
        return Subspace(self.n, Mat.from_rows(self.rows, self.n))


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    b = EchelonBuilder(ambient_dim)
    for v in vectors:
        b.insert(as_vec(v))
    return b.subspace()


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    eb = EchelonBuilder(a.ambient_dim)
    for r in a.basis.row_list():
        eb.insert(r)
    for r in b.basis.row_list():
        eb.insert(r)
    return eb.subspace()


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces, via the kernel of [A^T | -B^T]."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    k, l = a.dim, b.dim
    if k == 0 or l == 0:
        return Subspace.zero(n)
    # columns: k coefficients for a's basis, l for b's basis
    rows = []
    for i in range(n):
        rows.append([a.basis[r, i] for r in range(k)] + [-b.basis[r, i] for r in range(l)])
    ker = kernel(Mat.from_rows(rows, k + l))
    vecs = []
    for s in range(ker.dim):
        coeffs = ker.basis.row(s)[:k]
        v = [ZERO] * n
        for c, row in zip(coeffs, a.basis.row_list()):
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] += c * x
        vecs.append(v)
    return span(vecs, n)


def kernel(m: Mat) -> Subspace:
    """Solution space of m @ x = 0, as a subspace of Q^cols."""
    r, pivots = rref(m)
    pivset = set(pivots)
    vecs = []
    for j in range(m.cols):
        if j in pivset:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i, j]
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
    return kernel(v.basis @ gram)


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
    aug = Mat.from_rows([list(a.row(i)) + [b[i]] for i in range(a.rows)], a.cols + 1)
    r, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(pivots):
        x[p] = r[i, a.cols]
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
    section: Mat

    @property
    def dim(self) -> int:
        return self.section.rows


def quotient(total: Subspace, divisor: Subspace) -> QuotientSpace:
    if total.ambient_dim != divisor.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not total.contains_space(divisor):
        raise DivisorNotContained("divisor is not contained in the total space")
    eb = EchelonBuilder(total.ambient_dim)
    for r in divisor.basis.row_list():
        eb.insert(r)
    section_rows = []
    for r in total.basis.row_list():
        if eb.insert(r):
            section_rows.append(r)
    sec = Mat.from_rows(section_rows, total.ambient_dim)
    assert sec.rows == total.dim - divisor.dim
    return QuotientSpace(total, divisor, sec)


def class_of(q: QuotientSpace, vec: Sequence) -> Vec:
    """Coordinates of vec's class in the section basis of the quotient."""
    v = as_vec(vec)
    if not q.total.contains(v):
        raise VectorOutsideTotal("vector lies outside the quotient's total space")
    s = q.section.rows
    cols = list(q.section.row_list()) + list(q.divisor.basis.row_list())
    if not cols:
        return ()
    sys = Mat.from_rows([[row[i] for row in cols] for i in range(q.total.ambient_dim)],
                        len(cols))
    x = solve_linear(sys, v)
    assert x is not None
    return x[:s]


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


def _pivot_columns(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Leading columns of the canonical echelon basis of the rows' span."""
    return tuple(_leading_index(r) for r in span(rows, ncols).basis.row_list())


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
    cols = _pivot_columns([m.row(i) for i in range(m.rows)], m.cols)
    if not cols:
        return ()
    picked = _pivot_columns([[m[i, j] for i in range(m.rows)] for j in cols], m.rows)
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
