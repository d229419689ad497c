"""The Chevalley basis inside faithful matrix realizations: a test oracle.

Each supported type is realized by exact Fraction matrices: traceless
matrices for type A, the orthogonal or symplectic algebra of an
antidiagonal form for types B, C and D, and the triality-invariant
subalgebra of so(8) for G2.  Non-simple root vectors are commutators of
matrices over extraspecial pairs, e_d = [e_b, e_g]/(p+1) and
f_d = -[f_b, f_g]/(p+1), and every structure constant is read off a
matrix commutator.  ``chevalley.build_algebra`` derives the same table
from the Cartan datum alone; the two share only the root list, the
root-string lengths and the basis order, so agreement is evidence for
both.  The oracle's audit records come from ``chevalley._audit`` run on
its own table and gram.

The realization also gives the adjoint group action independently of the
structure table: for a nilpotent matrix E, exp(tE) is a finite sum, and
Ad(exp(tE)) X = exp(tE) X exp(-tE).
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction

from liework.bundles import GroupWord, UnipotentLetter
from liework.chevalley import (
    ChevalleyAlgebra,
    _audit,
    _string_down_length,
    cartan_datum,
    root_name,
    root_sort_key,
    roots_from_cartan,
)
from liework.exactlin import IntMat, rref

ZERO = Fraction(0)

# An m x m matrix is a dict from (row, column) to its nonzero Fraction
# entries; the realizations are sparse, and equal matrices are equal dicts.
Sparse = dict[tuple[int, int], Fraction]


# --- sparse matrix arithmetic -----------------------------------------------

def mul(x: Sparse, y: Sparse) -> Sparse:
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (k, j), b in y.items():
        by_row.setdefault(k, []).append((j, b))
    out: dict[tuple[int, int], Fraction] = {}
    for (i, k), a in x.items():
        for j, b in by_row.get(k, ()):
            out[i, j] = out.get((i, j), ZERO) + a * b
    return {ij: c for ij, c in out.items() if c}


def combine(*terms: tuple[Fraction | int, Sparse]) -> Sparse:
    """sum c x over the (c, x) pairs."""
    out: dict[tuple[int, int], Fraction] = {}
    for c, x in terms:
        for ij, e in x.items():
            out[ij] = out.get(ij, ZERO) + c * e
    return {ij: e for ij, e in out.items() if e}


def identity(m: int) -> Sparse:
    return {(i, i): Fraction(1) for i in range(m)}


def commutator(x: Sparse, y: Sparse) -> Sparse:
    return combine((1, mul(x, y)), (-1, mul(y, x)))


# --- the realizations -------------------------------------------------------

def _unit(i: int, j: int) -> Sparse:
    """E_ij, 1-based indices."""
    return {(i - 1, j - 1): Fraction(1)}


def _anti(m: int, i: int, j: int) -> Sparse:
    """E_ij - E_{m+1-j, m+1-i}: antisymmetric for the antidiagonal form."""
    return combine((1, _unit(i, j)), (-1, _unit(m + 1 - j, m + 1 - i)))


def _matrix_generators(type_label: str) -> tuple[list[Sparse], list[Sparse], int]:
    """Serre generator matrices (e_i, f_i) for the given type, and their size."""
    letter, n = type_label[0], int(type_label[1:])
    if letter == "A":
        m = n + 1
        es = [_unit(i, i + 1) for i in range(1, n + 1)]
        fs = [_unit(i + 1, i) for i in range(1, n + 1)]
        return es, fs, m
    if letter == "B":
        m = 2 * n + 1
        es = [_anti(m, i, i + 1) for i in range(1, n + 1)]
        fs = [_anti(m, i + 1, i) for i in range(1, n)]
        fs.append(combine((2, _anti(m, n + 1, n))))  # short-root normalization
        return es, fs, m
    if letter == "C":
        m = 2 * n
        es = [combine((1, _unit(i, i + 1)), (-1, _unit(2 * n - i, 2 * n + 1 - i)))
              for i in range(1, n)]
        es.append(_unit(n, n + 1))
        fs = [combine((1, _unit(i + 1, i)), (-1, _unit(2 * n + 1 - i, 2 * n - i)))
              for i in range(1, n)]
        fs.append(_unit(n + 1, n))
        return es, fs, m
    if letter == "D":
        m = 2 * n
        es = [_anti(m, i, i + 1) for i in range(1, n)]
        es.append(_anti(m, n - 1, n + 1))
        fs = [_anti(m, i + 1, i) for i in range(1, n)]
        fs.append(_anti(m, n + 1, n - 1))
        return es, fs, m
    if letter == "G":
        # triality-invariant subalgebra of so(8): the outer-node orbit of the
        # D4 diagram folds onto the short simple root, the center stays long
        d_es, d_fs, m = _matrix_generators("D4")
        e_short = combine((1, d_es[0]), (1, d_es[2]), (1, d_es[3]))
        f_short = combine((1, d_fs[0]), (1, d_fs[2]), (1, d_fs[3]))
        return [e_short, d_es[1]], [f_short, d_fs[1]], m
    raise ValueError(f"no matrix realization for {type_label!r}")


@dataclass(frozen=True)
class Realization:
    """The basis matrices in basis order, their size, and a solver from
    matrices back to basis coordinates."""

    basis: tuple[Sparse, ...]
    size: int
    # entry positions where the basis matrices are independent, and the
    # inverse of the basis restricted to them, as rows
    positions: tuple[tuple[int, int], ...]
    inverse: tuple[tuple[Fraction, ...], ...]

    def coords(self, x: Sparse) -> tuple[Fraction, ...]:
        """Coordinates of x in the basis; asserts that x lies in the algebra."""
        c = tuple(sum((x[p] * self.inverse[k][i]
                       for k, p in enumerate(self.positions) if p in x), ZERO)
                  for i in range(len(self.basis)))
        assert self.matrix(c) == x, "matrix outside the realized algebra"
        return c

    def matrix(self, v) -> Sparse:
        return combine(*((c, b) for c, b in zip(v, self.basis) if c))


@functools.lru_cache(maxsize=None)
def realization(label: str) -> Realization:
    """The Chevalley basis inside the matrices of the type's realization."""
    cartan = cartan_datum(label)
    n = cartan.rank
    a = cartan.matrix
    pos = roots_from_cartan(cartan)
    pos_set = set(pos)
    signed = pos_set | {tuple(-c for c in r) for r in pos}

    es, fs, m = _matrix_generators(label)
    hs = [commutator(es[i], fs[i]) for i in range(n)]
    # observed Cartan integers must match the declared matrix
    for i in range(n):
        for j in range(n):
            assert commutator(hs[i], es[j]) == combine((a[i, j], es[j])), (
                f"{label}: [h{i+1}, e{j+1}] != A[{i+1}][{j+1}] e{j+1}")

    simple_roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    simple_order = sorted(range(n), key=lambda i: root_sort_key(simple_roots[i]))
    e_mat = {simple_roots[i]: es[i] for i in range(n)}
    f_mat = {simple_roots[i]: fs[i] for i in range(n)}
    for delta in pos:
        if sum(delta) == 1:
            continue
        for i in simple_order:
            rem = tuple(d - c for d, c in zip(delta, simple_roots[i]))
            if rem in pos_set:
                beta0, gamma0 = simple_roots[i], rem
                break
        c = Fraction(1, _string_down_length(gamma0, beta0, signed) + 1)
        ed = combine((c, commutator(e_mat[beta0], e_mat[gamma0])))
        fd = combine((-c, commutator(f_mat[beta0], f_mat[gamma0])))
        assert ed and fd, f"{label}: root vector for {root_name(delta)} collapsed"
        e_mat[delta] = ed
        f_mat[delta] = fd

    basis = [e_mat[r] for r in pos] + hs + [f_mat[r] for r in pos]
    dim = len(basis)
    cells = [(i, j) for i in range(m) for j in range(m)]
    _, pivots = rref([[b.get(ij, 0) for ij in cells] for b in basis], len(cells))
    positions = tuple(cells[p] for p in pivots)
    assert len(positions) == dim, f"{label}: basis matrices are dependent"
    # invert the basis restricted to those positions: rref of [square | 1]
    reduced, _ = rref([[b.get(p, 0) for p in positions] + [int(i == j) for j in range(dim)]
                       for i, b in enumerate(basis)], 2 * dim)
    inverse = tuple(row[dim:] for row in reduced)
    return Realization(tuple(basis), m, positions, inverse)


def killing_gram(table) -> IntMat:
    """trace(ad b_i ad b_j) over dense ad matrices."""
    dim = len(table)
    ad = []
    for row in table:
        m = [[0] * dim for _ in range(dim)]
        for j, cell in enumerate(row):
            for k, c in cell:
                m[k][j] = c
        ad.append(m)
    return IntMat.from_rows(
        [[sum(ad[i][k][l] * ad[j][l][k] for k in range(dim) for l in range(dim))
          for j in range(dim)] for i in range(dim)], dim)


@functools.lru_cache(maxsize=None)
def realization_algebra(label: str) -> ChevalleyAlgebra:
    """The algebra whose structure constants are read off matrix
    commutators in the realization, with its gram and the records the
    build-time audit gives for it."""
    real = realization(label)
    cartan = cartan_datum(label)
    pos = roots_from_cartan(cartan)
    dim = len(real.basis)
    table = [[() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            c = real.coords(commutator(real.basis[i], real.basis[j]))
            assert all(x.denominator == 1 for x in c)
            table[i][j] = tuple((k, x.numerator) for k, x in enumerate(c) if x)
            table[j][i] = tuple((k, -x.numerator) for k, x in enumerate(c) if x)
    weights = tuple(list(pos) + [None] * cartan.rank
                    + [tuple(-c for c in r) for r in pos])
    table = tuple(tuple(row) for row in table)
    alg = ChevalleyAlgebra(cartan=cartan, positive_roots=pos, dim=dim, table=table,
                           killing_gram=killing_gram(table), basis_weights=weights)
    return dataclasses.replace(alg, audit=_audit(alg))


def exp_nilpotent(e: Sparse, t: Fraction, m: int) -> Sparse:
    """exp(tE) = sum t^k E^k / k!, finite because E is nilpotent."""
    out = term = identity(m)
    k = 0
    while term:
        k += 1
        term = combine((Fraction(t, k), mul(term, e)))
        out = combine((1, out), (1, term))
    return out


def adjoint_action(alg: ChevalleyAlgebra, w: GroupWord, v) -> tuple[Fraction, ...]:
    """Ad(g) v = g X g^-1, with matrices, for the group element g of a word
    of unipotent letters; letters compose like a product."""
    real = realization(alg.cartan.type_label)
    g = g_inv = identity(real.size)
    for letter in w.letters:
        assert isinstance(letter, UnipotentLetter)
        e = real.basis[alg.index_of_root_vector(letter.root)]
        g = mul(g, exp_nilpotent(e, letter.t, real.size))
        g_inv = mul(exp_nilpotent(e, -letter.t, real.size), g_inv)
    return real.coords(mul(mul(g, real.matrix(v)), g_inv))
