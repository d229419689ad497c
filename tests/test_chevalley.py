"""Chevalley basis construction against hand-computed oracles.

Frozen values below were derived by hand before the implementation:
bracket tables for sl2, Killing numbers via kappa(x,y) = sum over roots
of beta(x)beta(y) on the Cartan (cross-checked against 2n*tr(xy) for
type A), classical positive-root counts, and explicit root lists.
"""
import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from liework import chevalley
from liework.chevalley import (
    CartanDatum,
    ConstructionAuditError,
    NotFiniteType,
    SUPPORTED_TYPES,
    UnsupportedType,
    _audit,
    algebra,
    build_algebra,
    cartan_datum,
    jacobi_violations,
    killing_invariance_violations,
    root_name,
    roots_from_cartan,
    symmetrizer,
)
from liework.bundles import act_subspace, random_word
from liework.exactlin import DimensionMismatch, IntMat, Subspace, kernel, span
from liework.parabolic import standard_parabolic
from test_realization import _derived_pair, _mixed_pair, _negate, _tampered_build
from test_exactlin import frac_rows, qspan

F = Fraction


# --- root systems ----------------------------------------------------------

def test_b2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("B2"))
    assert list(pos) == [(1, 0), (0, 1), (1, 1), (1, 2)]


def test_g2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("G2"))
    assert list(pos) == [
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_a2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("A2"))
    assert list(pos) == [(1, 0), (0, 1), (1, 1)]


def test_d4_highest_root():
    pos = roots_from_cartan(cartan_datum("D4"))
    assert pos[-1] == (1, 2, 1, 1)
    assert len(pos) == 12


@pytest.mark.parametrize("label,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9),
    ("C3", 9), ("D4", 12), ("G2", 6),
])
def test_classical_positive_root_counts(label, count):
    assert len(roots_from_cartan(cartan_datum(label))) == count


# sympy's Cartan matrix is ours for A3 and D4 and our transpose for the
# non-simply-laced types; its simple roots live in an orthonormal basis
_SYMPY_TRANSPOSED = {"A3": False, "B2": True, "B3": True, "C3": True,
                     "D4": False, "G2": True}
# sympy 1.14 lists the G2 root 2a1+a2 as (1, 0, 1), off the plane of its
# own simple roots (0, 1, -1) and (1, -2, 1); in its coordinates the root
# is (1, 0, -1).  A sympy that lists it right matches no key here.
_SYMPY_MISPRINTS = {("G2", (1, 0, 1)): (1, 0, -1), ("G2", (-1, 0, -1)): (-1, 0, 1)}


@pytest.mark.parametrize("label", sorted(_SYMPY_TRANSPOSED))
def test_roots_match_sympy_root_system(label):
    sympy = pytest.importorskip("sympy")
    from sympy.liealgebras.cartan_type import CartanType
    from sympy.liealgebras.root_system import RootSystem

    ours = cartan_datum(label).matrix
    n = ours.rows
    rows = [[ours[i, j] for j in range(n)] for i in range(n)]
    theirs = CartanType(label).cartan_matrix().tolist()
    want = [list(c) for c in zip(*rows)] if _SYMPY_TRANSPOSED[label] else rows
    assert theirs == want

    system = RootSystem(label)
    simple = [sympy.Matrix(system.simple_roots()[i + 1]) for i in range(n)]
    # entry (i, j) of our matrix is 2 (a_j, a_i) / (a_i, a_i)
    assert [[2 * simple[j].dot(simple[i]) / simple[i].dot(simple[i])
             for j in range(n)] for i in range(n)] == rows

    basis = sympy.Matrix.hstack(*simple)
    found = set()
    for root in system.all_roots().values():
        target = sympy.Matrix(_SYMPY_MISPRINTS.get((label, tuple(root)), root))
        coords = (basis.T * basis).solve(basis.T * target)
        assert basis * coords == target
        assert all(c.is_integer for c in coords)
        found.add(tuple(int(c) for c in coords))
    pos = set(roots_from_cartan(cartan_datum(label)))
    assert found == pos | {tuple(-c for c in r) for r in pos}


def test_symmetrizer_b2():
    # alpha1 long, alpha2 short
    assert symmetrizer(cartan_datum("B2").matrix) == (F(2), F(1))


def test_symmetrizer_g2():
    assert symmetrizer(cartan_datum("G2").matrix) == (F(1), F(3))


def test_affine_matrix_rejected():
    with pytest.raises(NotFiniteType):
        roots_from_cartan(CartanDatum("X2", IntMat.from_rows([[2, -2], [-2, 2]])))


@pytest.mark.parametrize("rows", [[[2, -2], [-2, 2]], [[2, 1], [1, 2]],
                                  [[3, -1], [-1, 2]], [[2, -1], [0, 2]]])
def test_cartan_datum_rejects_non_finite_matrix(rows):
    # the datum validates itself, before any root closure runs
    with pytest.raises(NotFiniteType):
        CartanDatum("X2", IntMat.from_rows(rows))


def test_unsupported_label_rejected():
    with pytest.raises(UnsupportedType):
        cartan_datum("E8")


def test_mixed_sign_root_rejected():
    # a root is checked where it meets an algebra
    with pytest.raises(ValueError, match=r"\(1, -1\) is not a root of A2"):
        algebra("A2").index_of_root_vector((1, -1))


# --- sl2 oracle ------------------------------------------------------------

def test_a1_bracket_table():
    alg = algebra("A1")
    assert alg.dim == 3
    e, h, f = alg.one_hot(0), alg.one_hot(1), alg.one_hot(2)
    assert all(type(c) is int for c in e + h + f)
    assert alg.bracket(e, f) == h
    assert alg.bracket(h, e) == tuple(2 * c for c in e)
    assert alg.bracket(h, f) == tuple(-2 * c for c in f)
    assert alg.bracket(e, e) == (0,) * 3


def test_a1_killing_frozen():
    alg = algebra("A1")
    # basis order (e, h, f)
    want = IntMat.from_rows([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert alg.killing_gram == want


def _trace_ad_ad_gram(alg):
    """The gram as the n^2 loop built it: kappa(b_i, b_j) the b_l
    coefficient of [b_i, [b_j, b_l]], summed over l."""
    tab, dim = alg.table, alg.dim
    return IntMat.from_rows([[sum(c * d for l in range(dim) for k, d in tab[j][l]
                                  for m, c in tab[i][k] if m == l)
                              for j in range(dim)] for i in range(dim)], dim)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_killing_gram_matches_trace_ad_ad_loop(label):
    alg = algebra(label)
    assert alg.killing_gram == _trace_ad_ad_gram(alg)


def test_a1_labels():
    alg = algebra("A1")
    assert [alg.basis_label(i) for i in range(3)] == ["e(a1)", "h1", "f(a1)"]


# --- type A2 oracles -------------------------------------------------------

def test_a2_dimensions_and_killing():
    alg = algebra("A2")
    assert alg.dim == 8
    e1, f1 = alg.one_hot(alg.e_index((1, 0))), alg.one_hot(alg.f_index((1, 0)))
    # kappa = 6 * trace form on sl3
    assert alg.killing(e1, f1) == 6
    h1 = alg.one_hot(alg.h_index(1))
    assert alg.killing(h1, h1) == 12


def test_a2_extraspecial_sign_is_positive():
    alg = algebra("A2")
    e1 = alg.one_hot(alg.e_index((1, 0)))
    e2 = alg.one_hot(alg.e_index((0, 1)))
    e12 = alg.one_hot(alg.e_index((1, 1)))
    assert alg.bracket(e1, e2) == e12
    assert alg.bracket(e2, e1) == tuple(-c for c in e12)


def test_a2_long_coroot():
    alg = algebra("A2")
    e12 = alg.one_hot(alg.e_index((1, 1)))
    f12 = alg.one_hot(alg.f_index((1, 1)))
    h1 = alg.one_hot(alg.h_index(1))
    h2 = alg.one_hot(alg.h_index(2))
    assert alg.bracket(e12, f12) == tuple(a + b for a, b in zip(h1, h2))


def test_a2_cartan_action():
    alg = algebra("A2")
    h1 = alg.one_hot(alg.h_index(1))
    e2 = alg.one_hot(alg.e_index((0, 1)))
    assert alg.bracket(h1, e2) == tuple(-c for c in e2)


# --- other types -----------------------------------------------------------

@pytest.mark.parametrize("label,dim", [
    ("A1", 3), ("A2", 8), ("A3", 15), ("B2", 10), ("B3", 21),
    ("C3", 21), ("G2", 14),
])
def test_dimensions(label, dim):
    assert algebra(label).dim == dim


def test_b2_killing_h1_frozen():
    # sum over all 8 roots of <beta, alpha1-coroot>^2 = 2*(4+1+1+0) = 12
    alg = algebra("B2")
    h1 = alg.one_hot(alg.h_index(1))
    assert alg.killing(h1, h1) == 12


def test_g2_killing_short_coroot_frozen():
    # pairings of the positives against alpha1-coroot: 2,-3,-1,1,3,0
    alg = algebra("G2")
    h1 = alg.one_hot(alg.h_index(1))
    assert alg.killing(h1, h1) == 48


def test_g2_triple_constant_magnitude():
    # the alpha1-string down from 2a1+a2 has length p = 2, so |N| = 3
    alg = algebra("G2")
    ea = alg.one_hot(alg.e_index((1, 0)))
    eb = alg.one_hot(alg.e_index((2, 1)))
    out = alg.bracket(ea, eb)
    k = alg.e_index((3, 1))
    assert abs(out[k]) == 3
    assert all(c == 0 for i, c in enumerate(out) if i != k)


def test_structure_constants_are_integers():
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for row in alg.table:
            for cell in row:
                for _, c in cell:
                    assert type(c) is int
        assert all(type(x) is int for x in alg.killing_gram.entries)


def _integral(x, label, what):
    if x.denominator != 1:
        raise ConstructionAuditError(f"{label}: {what} = {x} is not an integer")
    return x.numerator


def _chevalley_table_by_fractions(cartan, pos):
    # the table as built before it ran in integers: root norms and every
    # relation and coroot in Fractions, each checked integral, with the
    # message text built for every constant
    label = cartan.type_label
    n = cartan.rank
    a = cartan.matrix
    num_pos = len(pos)
    dim = 2 * num_pos + n
    pos_idx = {r: k for k, r in enumerate(pos)}
    signed = set(pos_idx) | {chevalley._neg(c) for c in pos_idx}
    symm = chevalley.symmetrizer(a)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]  # a1 first

    # (r, r) with short roots at 2: the symmetrized Cartan form
    norm_sq = {r: sum((r[i] * r[j] * symm[i] * a[i, j]
                       for i in range(n) for j in range(n)), F(0))
               for r in signed}

    def add(r, s):
        return tuple(x + y for x, y in zip(r, s))

    # N_{r,s} for ordered pairs of positive roots with r + s a root, the
    # sums taken in root order, so each relation reads only earlier sums
    npos = {}

    def constant(r, s):
        """N_{r,s} for roots r, s of any sign with r + s a root."""
        if r in pos_idx and s in pos_idx:
            return npos[r, s]
        if r not in pos_idx and s not in pos_idx:
            return -npos[chevalley._neg(r), chevalley._neg(s)]
        t = chevalley._neg(add(r, s))
        # of (s, t) and (t, r), exactly one pair has a common sign
        if (s in pos_idx) == (t in pos_idx):
            x = norm_sq[t] * constant(s, t) / norm_sq[r]
        else:
            x = norm_sq[t] * constant(t, r) / norm_sq[s]
        return _integral(x, label, f"N({root_name(r)}, {root_name(s)})")

    def pair_term(r, s, t, u):
        # N_{r,s} N_{t,u} / (r+s, r+s), zero when r + s is no root
        rs = add(r, s)
        if rs not in signed:
            return F(0)
        return F(constant(r, s) * constant(t, u), norm_sq[rs])

    for x in pos:
        if sum(x) == 1:
            continue
        ea = next((u for u in simples if add(x, chevalley._neg(u)) in pos_idx), None)
        if ea is None:
            raise ConstructionAuditError(f"{label}: no simple summand for {root_name(x)}")
        eb = add(x, chevalley._neg(ea))
        p = chevalley._string_down_length(eb, ea, signed)
        npos[ea, eb], npos[eb, ea] = p + 1, -(p + 1)
        for r in pos_idx:
            s = add(x, chevalley._neg(r))
            if s not in pos_idx or (r, s) in npos:
                continue
            # four-term relation on (r, s, t, u) = (r, s, -ea, -eb):
            # N_{r,s} N_{t,u} / (xi, xi) = -rest, and N_{t,u} = -(p+1)
            t, u = chevalley._neg(ea), chevalley._neg(eb)
            rest = pair_term(s, t, r, u) + pair_term(t, r, s, u)
            nrs = _integral(norm_sq[x] * rest / (p + 1), label,
                            f"N({root_name(r)}, {root_name(s)})")
            npos[r, s], npos[s, r] = nrs, -nrs

    weights = (
        list(pos) + [None] * n + [chevalley._neg(r) for r in pos])

    def index(w):
        return pos_idx[w] if w in pos_idx else num_pos + n + pos_idx[chevalley._neg(w)]

    empty = ()
    table = [[empty] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            wi, wj = weights[i], weights[j]
            if wi is None and wj is None:
                continue
            if wi is None or wj is None:
                # [h_k, x_w] = <w, alpha_k-coroot> x_w
                k, v, w = (i, j, wj) if wi is None else (j, i, wi)
                c = sum(w[l] * a[k - num_pos, l] for l in range(n))
                terms = [(v, c if wi is None else -c)]
            elif not any(add(wi, wj)):
                # [e_r, f_r] = h_r, the coroot: 2 r / (r, r) over the simple
                # coroots, coefficient k being r_k (alpha_k, alpha_k) / (r, r)
                nsq = norm_sq[wi]
                terms = [(num_pos + k, _integral(wi[k] * 2 * symm[k] / nsq, label,
                                                 f"coroot of {root_name(wi)}"))
                         for k in range(n)]
            elif add(wi, wj) in signed:
                c = constant(wi, wj)
                p = chevalley._string_down_length(wj, wi, signed)
                if abs(c) != p + 1:
                    raise ConstructionAuditError(
                        f"{label}: |N| = {abs(c)} violates the (p+1) law "
                        f"(p = {p}) for {root_name(wi)}, {root_name(wj)}")
                terms = [(index(add(wi, wj)), c)]
            else:
                continue
            terms = [(k, c) for k, c in terms if c]
            table[i][j] = tuple(terms)
            table[j][i] = tuple((k, -c) for k, c in terms)
    return tuple(tuple(row) for row in table), tuple(weights)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_integer_table_matches_the_fraction_table(monkeypatch, label):
    alg = algebra(label)
    table, weights = _chevalley_table_by_fractions(alg.cartan, alg.positive_roots)
    assert alg.table == table and alg.basis_weights == weights
    monkeypatch.setattr(chevalley, "chevalley_table", _chevalley_table_by_fractions)
    assert build_algebra(alg.cartan).killing_gram == alg.killing_gram


def _both_tables_raise(cartan, pos):
    # the audit text of the integer table, checked equal to the Fraction one
    texts = []
    for build in (chevalley.chevalley_table, _chevalley_table_by_fractions):
        with pytest.raises(ConstructionAuditError) as err:
            build(cartan, pos)
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    return texts[0]


@pytest.mark.parametrize("label,symm,text", [
    ("A2", (1, 2), "A2: N(a1, -1a1+-1a2) = -4/3 is not an integer"),
    ("B2", (3, 1), "B2: N(a1, -1a1+-1a2) = -2/3 is not an integer"),
    ("G2", (2, F(1, 2)), "G2: N(-1a2, a1+a2) = 8/3 is not an integer"),
])
def test_non_integral_constant_raises(monkeypatch, label, symm, text):
    # a symmetrizer that does not symmetrize the Cartan matrix: the root
    # norms' ratios make a mixed-sign constant non-integral
    cartan = cartan_datum(label)
    monkeypatch.setattr(chevalley, "symmetrizer", lambda m: tuple(map(F, symm)))
    assert _both_tables_raise(cartan, roots_from_cartan(cartan)) == text


@pytest.mark.parametrize("label,k,symm", [("A1", 0, None), ("B3", 1, None),
                                          ("G2", 1, (F(1, 3), F(1)))])
def test_non_integral_coroot_raises(monkeypatch, label, k, symm):
    # 2 a_k put first among the positive roots: its coroot a_k-coroot / 2
    # is read before any constant involving it; the G2 symmetrizer is the
    # true one over 3, so the norms are scaled by 3
    cartan = cartan_datum(label)
    if symm:
        monkeypatch.setattr(chevalley, "symmetrizer", lambda m: symm)
    doubled = tuple(2 * int(j == k) for j in range(cartan.rank))
    text = _both_tables_raise(cartan, (doubled,) + roots_from_cartan(cartan))
    assert text == f"{label}: coroot of 2a{k + 1} = 1/2 is not an integer"


def _jacobi_all_ordered_triples(alg):
    # the audit's loop before it used the Jacobiator's alternation: the
    # Jacobiator of every ordered basis triple, each one computed
    tab = alg.table
    bad = 0
    for x, y, z in itertools.product(range(alg.dim), repeat=3):
        acc = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k, s in tab[a][b]:
                for l, t in tab[k][c]:
                    acc[l] = acc.get(l, 0) + s * t
        bad += any(acc.values())
    return bad


def _invariance_all_pairs(alg):
    # the audit's loop before it used the summand's symmetry in (x, y)
    tab, g = alg.table, alg.killing_gram
    return sum(1 for z, x, y in itertools.product(range(alg.dim), repeat=3)
               if sum(c * g[k, y] for k, c in tab[z][x])
               + sum(g[x, k] * c for k, c in tab[z][y]))


def _invariance_dense_upper_pairs(alg):
    # the audit's dense loop before the sparse sum: every (z, x, y >= x), 1 on
    # the diagonal and 2 off it, reading the gram's rows and columns as given
    tab, g = alg.table, alg.killing_gram
    return sum(1 if x == y else 2
               for z, x in itertools.product(range(alg.dim), repeat=2)
               for y in range(x, alg.dim)
               if sum(c * g[k, y] for k, c in tab[z][x])
               + sum(g[x, k] * c for k, c in tab[z][y]))


def _tampered_algebra(label, kind):
    # algebra(label) over a table with one constant negated on both sides,
    # so it stays antisymmetric; the gram stays the audited one.  Kind "gram"
    # keeps the table and adds 1 to kappa(e_a1, f_a1) on that side only
    alg = algebra(label)
    if kind == "gram":
        g = [list(alg.killing_gram.row(k)) for k in range(alg.dim)]
        g[0][alg.f_index(alg.positive_roots[0])] += 1
        return dataclasses.replace(alg, killing_gram=IntMat.from_rows(g, alg.dim))
    rows = [list(row) for row in alg.table]
    weights, num_pos = alg.basis_weights, alg.num_positive
    if kind == "derived":
        _negate(rows, *_derived_pair(weights, num_pos, alg.rank))
    elif kind == "mixed":
        _negate(rows, *_mixed_pair(weights, num_pos))
    else:  # the highest root's first coroot coefficient
        i, j = num_pos - 1, alg.dim - 1
        first = rows[i][j][0][0]
        _negate(rows, i, j, keep=lambda k: k == first)
    return dataclasses.replace(alg, table=tuple(map(tuple, rows)))


def test_audit_counters_zero():
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        assert jacobi_violations(alg) == _jacobi_all_ordered_triples(alg) == 0
        assert killing_invariance_violations(alg) == _invariance_all_pairs(alg) == 0
        assert _invariance_dense_upper_pairs(alg) == 0


@pytest.mark.parametrize("label,kind", [
    ("A3", "derived"), ("B3", "derived"), ("C3", "derived"), ("D4", "derived"),
    ("G2", "derived"), ("A2", "mixed"), ("B2", "mixed"), ("A2", "coroot"),
    ("B3", "coroot"), ("G2", "coroot"), ("A1", "gram"), ("B3", "gram"),
    ("G2", "gram"),
])
def test_audit_counts_match_the_oracles_on_a_tampered_table(label, kind):
    # on an asymmetric gram the y >= x count differs from every ordered
    # pair's, and the audit must keep the former: killing-symmetric, named
    # first, is the record that fails there
    alg = _tampered_algebra(label, kind)
    jac, kiv = _jacobi_all_ordered_triples(alg), _invariance_dense_upper_pairs(alg)
    assert kiv > 0 and (jac > 0) == (kind != "gram")
    assert (kiv == _invariance_all_pairs(alg)) == (kind != "gram")
    assert jacobi_violations(alg) == jac
    assert killing_invariance_violations(alg) == kiv


@pytest.mark.parametrize("label", ["A1", "B3", "G2", "D4"])
@pytest.mark.parametrize("edit", ["one-sided", "diagonal"])
def test_build_rejects_a_table_that_is_not_antisymmetric(monkeypatch, label, edit):
    # [e_a1, f_a1] = h_1: negated on one side only, or copied onto [e_a1, e_a1]
    def tamper(rows, weights, num_pos):
        j = len(weights) - num_pos
        if edit == "one-sided":
            rows[0][j] = tuple((k, -c) for k, c in rows[0][j])
        else:
            rows[0][0] = rows[0][j]

    with pytest.raises(ConstructionAuditError,
                       match=rf"{label}: bracket table is not antisymmetric"):
        _tampered_build(monkeypatch, label, tamper)


@pytest.mark.parametrize("other", ["h1", "e(a2)", "f(a2)"])
def test_audit_rejects_a_gram_that_breaks_the_weight_grading(other):
    # kappa(e_a1, b) made 1 for a basis vector b whose weight is not -a1
    alg = algebra("B2")
    i, j = 0, next(k for k in range(alg.dim) if alg.basis_label(k) == other)
    rows = [list(alg.killing_gram.row(k)) for k in range(alg.dim)]
    rows[i][j] = rows[j][i] = 1
    bad = dataclasses.replace(alg, killing_gram=IntMat.from_rows(rows, alg.dim))
    with pytest.raises(ConstructionAuditError,
                       match="B2: Killing pairing breaks the weight grading"):
        _audit(bad)


@pytest.mark.parametrize("label", ["B2", "G2", "D4"])
def test_audit_rejects_a_symmetric_gram_off_the_coroot_form(label):
    # kappa(h1, h2) = kappa(h2, h1) raised by 1: still symmetric and weight
    # graded, but no longer a positive multiple of the coroot form
    alg = algebra(label)
    i, j = alg.h_index(1), alg.h_index(2)
    rows = [list(alg.killing_gram.row(k)) for k in range(alg.dim)]
    rows[i][j] += 1
    rows[j][i] += 1
    bad = dataclasses.replace(alg, killing_gram=IntMat.from_rows(rows, alg.dim))
    with pytest.raises(ConstructionAuditError,
                       match=rf"{label}: killing-symmetric audit failed: kappa\(h1, h2\) = "):
        _audit(bad)


@pytest.mark.parametrize("label", ["A2", "C3"])
def test_audit_rejects_a_negated_gram_and_names_the_asymmetric_entry(label):
    # -G is symmetric with the coroot form's shape but c < 0; one entry of G
    # changed on one side only breaks symmetry, named at its lower-triangle cell
    alg = algebra(label)
    rows = [[-c for c in alg.killing_gram.row(k)] for k in range(alg.dim)]
    h = alg.h_index(1)
    with pytest.raises(ConstructionAuditError,
                       match=rf"{label}: killing-symmetric audit failed: kappa\(h1, h1\) = -"):
        _audit(dataclasses.replace(alg, killing_gram=IntMat.from_rows(rows, alg.dim)))
    rows = [list(alg.killing_gram.row(k)) for k in range(alg.dim)]
    rows[h + 1][h] += 1
    with pytest.raises(ConstructionAuditError,
                       match=rf"{label}: killing-symmetric audit failed: kappa\(h2, h1\) = "):
        _audit(dataclasses.replace(alg, killing_gram=IntMat.from_rows(rows, alg.dim)))


@pytest.mark.parametrize("label,dual", [("B3", "C3"), ("C3", "B3")])
def test_build_rejects_the_dual_types_table(monkeypatch, label, dual):
    # the dual type's table is a Lie algebra, so Jacobi, invariance and
    # nondegeneracy hold, but its Cartan block is not the coroot form of label
    derive = chevalley.chevalley_table
    other = cartan_datum(dual)
    monkeypatch.setattr(chevalley, "chevalley_table",
                        lambda cartan, pos: derive(other, roots_from_cartan(other)))
    with pytest.raises(ConstructionAuditError,
                       match=rf"{label}: killing-symmetric audit failed: kappa\(h2, h3\) = "):
        build_algebra(cartan_datum(label))


def test_all_supported_types_build():
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        assert alg.dim == 2 * alg.num_positive + alg.rank


def _ad(alg, x):
    """Rows of the matrix of ad x: column j is [x, basis_j]."""
    cols = [alg.bracket(x, alg.one_hot(j)) for j in range(alg.dim)]
    return [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]


def test_killing_matches_ad_traces():
    alg = algebra("A2")
    import random
    rng = random.Random(20240817)
    for _ in range(3):
        x = tuple(rng.randint(-3, 3) for _ in range(alg.dim))
        y = tuple(rng.randint(-3, 3) for _ in range(alg.dim))
        ax, ay = _ad(alg, x), _ad(alg, y)
        trace = sum(ax[i][j] * ay[j][i] for i in range(alg.dim) for j in range(alg.dim))
        assert alg.killing(x, y) == trace


def test_bracket_antisymmetric_random():
    import random
    rng = random.Random(99)
    alg = algebra("B2")
    for _ in range(10):
        x = tuple(rng.randint(-4, 4) for _ in range(alg.dim))
        y = tuple(rng.randint(-4, 4) for _ in range(alg.dim))
        assert alg.bracket(x, y) == tuple(-c for c in alg.bracket(y, x))


def test_bracket_space_whole_algebra():
    # [g, g] = g for semisimple g
    alg = algebra("A2")
    full = Subspace.full(alg.dim)
    assert alg.bracket_space(full, full) == full


def test_bracket_space_borel_a1():
    alg = algebra("A1")
    from liework.exactlin import span
    e_line = span([alg.one_hot(0)], 3)
    borel = span([alg.one_hot(0), alg.one_hot(1)], 3)
    assert alg.bracket_space(e_line, e_line).dim == 0
    assert alg.bracket_space(borel, borel) == e_line


@pytest.mark.parametrize("other", [standard_parabolic("B2", frozenset({1})).p,
                                   Subspace.full(3), Subspace.full(10),
                                   Subspace.zero(10)],
                         ids=["B2:1-p", "full-3", "full-10", "zero-10"])
def test_bracket_space_rejects_other_ambient(other):
    # like killing_perp and kills_derived: a subspace of another ambient is
    # refused on either side, an empty one too, before any row is read
    alg = algebra("A2")
    full = Subspace.full(alg.dim)
    for a, b in ((other, other), (other, full), (full, other)):
        with pytest.raises(DimensionMismatch, match="does not live in the algebra"):
            alg.bracket_space(a, b)


def test_root_name():
    assert root_name((1, 2)) == "a1+2a2"
    assert root_name((0, 1)) == "a2"


def test_index_roundtrip():
    alg = algebra("B3")
    for k, r in enumerate(alg.positive_roots):
        assert alg.e_index(r) == k
        assert alg.index_of_root_vector(chevalley._neg(r)) == alg.f_index(r)
        assert alg.basis_weights[alg.e_index(r)] == r


def test_e_and_f_index_reject_negative_and_non_roots():
    alg = algebra("A2")
    for index in (alg.e_index, alg.f_index):
        with pytest.raises(ValueError, match=r"\(-1, 0\) is not a positive root of A2"):
            index((-1, 0))
        with pytest.raises(ValueError, match=r"\(2, 0\) is not a root of A2"):
            index((2, 0))


@pytest.mark.parametrize("i", [-1, 8, 9])
def test_one_hot_rejects_indices_outside_the_basis(i):
    with pytest.raises(ValueError, match=rf"basis index {i} is outside range\(8\)"):
        algebra("A2").one_hot(i)


@pytest.mark.parametrize("i", [-1, 8])
def test_basis_label_rejects_indices_outside_the_basis(i):
    with pytest.raises(ValueError, match=rf"basis index {i} is outside range\(8\)"):
        algebra("A2").basis_label(i)


@pytest.mark.parametrize("den", [0, -2])
def test_vector_name_rejects_nonpositive_denominators(den):
    alg = algebra("A2")
    with pytest.raises(ValueError, match=f"denominator must be positive, got {den}"):
        alg.vector_name(alg.one_hot(0), den)


def test_build_algebra_uncached_matches():
    fresh = build_algebra(cartan_datum("A1"))
    assert fresh.table == algebra("A1").table


def _bracket_by_fractions(alg, x, y):
    # the Fraction accumulator the integer bracket replaces
    acc = [F(0)] * alg.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in alg.table[i][j]:
                acc[k] += c * F(xi) * F(yj)
    return tuple(acc)


def _killing_by_fractions(alg, x, y):
    return sum((F(xi) * alg.killing_gram[i, j] * F(yj)
                for i, xi in enumerate(x) for j, yj in enumerate(y)), F(0))


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_bracket_and_killing_match_fraction_accumulators(label):
    alg = algebra(label)
    rng = random.Random(f"int-bracket:{label}")
    for _ in range(10):
        sparse = [tuple(rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(alg.dim))
                  for _ in range(2)]
        dense = [tuple(rng.randint(-3, 3) for _ in range(alg.dim)) for _ in range(2)]
        for x, y in (sparse, dense, (sparse[0], dense[1]), (dense[0], sparse[1])):
            got = alg.bracket(x, y)
            assert got == _bracket_by_fractions(alg, x, y)
            assert all(type(c) is int for c in got)
            k = alg.killing(x, y)
            assert type(k) is int and k == _killing_by_fractions(alg, x, y)


def _bracket_space_by_fractions(alg, a, b):
    # span of every pairwise bracket of the two bases, by the Fraction
    # accumulator
    return qspan([_bracket_by_fractions(alg, x, y) for x in frac_rows(a) for y in frac_rows(b)],
                 alg.dim)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_bracket_space_matches_span_of_all_pairwise_brackets(label):
    # unit rows (the standard p and u), transported rows, dense rows, a == b,
    # a != b and a one-row b.  Brackets of dense rows share their support,
    # so a repeat skip keyed on less than the whole bracket would lose rank.
    alg = algebra(label)
    rng = random.Random(f"bracket-space-oracle:{label}")
    pd = standard_parabolic(label, frozenset({1}))
    w = random_word(alg, rng, length=4)
    moved_p, moved_u = act_subspace(alg, w, pd.p), act_subspace(alg, w, pd.u)
    dense = span([[rng.randint(-3, 3) for _ in range(alg.dim)] for _ in range(3)],
                 alg.dim)
    line = span([moved_p.ints[-1]], alg.dim)
    for a, b in ((pd.u, pd.u), (pd.u, pd.p), (moved_p, moved_p), (moved_u, pd.p),
                 (dense, dense), (dense, moved_p), (moved_p, line), (dense, line),
                 (pd.u, dense), (line, pd.u)):
        assert alg.bracket_space(a, b) == _bracket_space_by_fractions(alg, a, b)


# --- the Killing perp against the kernel route it replaced -----------------


def _perp_by_kernel(alg, s):
    # the route killing_perp replaced: the kernel of the rows s.ints @ G
    return kernel([alg._gram_ints(r) for r in s.ints], alg.dim)


def _assert_same_perp(alg, s):
    got, want = alg.killing_perp(s), _perp_by_kernel(alg, s)
    assert (got, got.pivots) == (want, want.pivots)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_killing_perp_matches_kernel_route_on_seeded_subspaces(label):
    alg = algebra(label)
    rng = random.Random(f"killing-perp-kernel:{label}")
    subspaces = [Subspace.zero(alg.dim), Subspace.full(alg.dim)]
    for _ in range(30):
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(alg.dim)]
                for _ in range(rng.randint(1, alg.dim))]
        subspaces.append(span(rows, alg.dim))
    assert {s.dim for s in subspaces} >= {0, alg.dim}
    for s in subspaces:
        _assert_same_perp(alg, s)


def test_killing_perp_matches_kernel_route_on_every_dossier_subspace():
    from liework.suites import default_case_matrix

    seen = 0
    for case in default_case_matrix(include_d4=True):
        pd = standard_parabolic(case.type_label, case.gamma)
        for f in dataclasses.fields(pd):
            s = getattr(pd, f.name)
            for s in (s.total, s.divisor) if hasattr(s, "section") else (s,):
                if isinstance(s, Subspace):
                    _assert_same_perp(pd.alg, s)
                    seen += 1
    # 7 Subspace fields and the total and divisor of the 2 quotients
    assert seen == 54 * 11


def test_killing_perp_raises_on_a_singular_gram():
    # a tampered gram the build audit would reject: a zero row and column
    alg = algebra("A2")
    rows = [[0 if 3 in (i, j) else alg.killing_gram[i, j] for j in range(alg.dim)]
            for i in range(alg.dim)]
    bad = dataclasses.replace(alg, killing_gram=IntMat.from_rows(rows))
    for s in (Subspace.zero(alg.dim), Subspace.coordinate(alg.dim, [0, 3])):
        with pytest.raises(ConstructionAuditError, match="A2: singular Killing gram"):
            bad.killing_perp(s)
    _assert_same_perp(alg, Subspace.coordinate(alg.dim, [0, 3]))  # the real gram works


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(2), True, 1.0])
def test_bracket_and_killing_take_only_int_entries(bad):
    alg = algebra("A1")
    x, f = (bad, 0, 0), (0, 0, 1)
    msg = re.escape(f"vector entries must be ints, got {bad!r}")
    for op in (alg.bracket, alg.killing):
        for args in ((x, f), (f, x)):
            with pytest.raises(TypeError, match=msg):
                op(*args)
    assert alg.bracket((1, 0, 0), f) == (0, 1, 0) and alg.killing((1, 0, 0), f) == 4


@pytest.mark.parametrize("x,y", [((1,), (0, 0, 1)), ((1, 0, 0), (0, 0, 1, 0))])
def test_bracket_and_killing_reject_vectors_of_another_length(x, y):
    # killing once paired a short x by truncation and read a long y past dim
    alg = algebra("A1")
    for op in (alg.bracket, alg.killing):
        for args in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="vector length does not match"):
                op(*args)


@pytest.mark.parametrize("v,want", [
    ((5, 0, 0, 0), [(0, 5)]), ([0, 0, 0, -2], [(3, -2)]), ((0, -7, 0), [(1, -7)]),
    ([0, 0, 1], [(2, 1)]), ((3,), [(0, 3)]), ([-1], [(0, -1)]), ((0, 0), []),
    ([], []), ((1, 0, -1), [(0, 1), (2, -1)]), ([0, 2, 3, 0], [(1, 2), (2, 3)])])
def test_support_lists_the_nonzeros(v, want):
    assert chevalley._support(v) == want
