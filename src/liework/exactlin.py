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
# integer matrices and Smith normal form


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

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            out.append([sum(r[k] * other[k, j] for k in range(self.cols))
                        for j in range(other.cols)])
        return IntMat.from_rows(out, other.cols)


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


def smith_normal_form(m: IntMat) -> tuple[tuple[int, ...], IntMat, IntMat]:
    """Smith normal form over the integers.

    Returns (invariants, left, right) with left @ m @ right diagonal, the
    diagonal being the invariant factors d_1 | d_2 | ... followed by
    zeros.  ``invariants`` lists only the nonzero factors.  left and
    right are unimodular.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    left = [list(IntMat.identity(m.rows).row(i)) for i in range(m.rows)]
    right = [list(IntMat.identity(m.cols).row(i)) for i in range(m.cols)]
    nr, nc = m.rows, m.cols

    def row_op(i, j, c):  # row_i -= c * row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        left[i] = [x - c * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for r in a:
            r[i] -= c * r[j]
        for r in right:
            r[i] -= c * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(nr, nc):
        # find a pivot
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            # clear column t
            changed = False
            for i in range(nr):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:  # remainder became the smaller pivot
                        row_swap(i, t)
                    changed = True
            for j in range(nc):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        col_swap(j, t)
                    changed = True
            if not changed:
                break
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    # enforce the divisibility chain d_k | d_{k+1}
    def fix_divisibility():
        for k in range(t - 1):
            if a[k][k] and a[k + 1][k + 1] % a[k][k] != 0:
                # fold entry (k+1,k+1) into column k and redo the corner
                col_op(k, k + 1, -1)  # col_k += col_{k+1}
                while True:
                    changed = False
                    for i in range(nr):
                        if i != k and a[i][k] != 0:
                            q = a[i][k] // a[k][k]
                            row_op(i, k, q)
                            if a[i][k] != 0:
                                row_swap(i, k)
                            changed = True
                    for j in range(nc):
                        if j != k and a[k][j] != 0:
                            q = a[k][j] // a[k][k]
                            col_op(j, k, q)
                            if a[k][j] != 0:
                                col_swap(j, k)
                            changed = True
                    if not changed:
                        break
                if a[k][k] < 0:
                    row_neg(k)
                if a[k + 1][k + 1] < 0:
                    row_neg(k + 1)
                return True
        return False

    while fix_divisibility():
        pass

    invariants = tuple(a[k][k] for k in range(t) if a[k][k] != 0)
    return invariants, IntMat.from_rows(left, nr), IntMat.from_rows(right, nc)
