"""Chevalley basis construction against hand-computed oracles.

Frozen values below were derived by hand before the implementation:
bracket tables for sl2, Killing numbers via kappa(x,y) = sum over roots
of beta(x)beta(y) on the Cartan (cross-checked against 2n*tr(xy) for
type A), classical positive-root counts, and explicit root lists.
"""
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from liework.chevalley import (
    CartanDatum,
    ConstructionAuditError,
    NotFiniteType,
    Root,
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
from liework.exactlin import IntMat, Subspace, span
from liework.parabolic import standard_parabolic
from test_realization import _derived_pair, _mixed_pair, _negate, _tampered_build

F = Fraction


# --- root systems ----------------------------------------------------------

def test_b2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("B2"))
    assert [r.coords for r in pos] == [(1, 0), (0, 1), (1, 1), (1, 2)]


def test_g2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("G2"))
    assert [r.coords for r in pos] == [
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_a2_positive_roots_frozen():
    pos = roots_from_cartan(cartan_datum("A2"))
    assert [r.coords for r in pos] == [(1, 0), (0, 1), (1, 1)]


def test_d4_highest_root():
    pos = roots_from_cartan(cartan_datum("D4"))
    assert pos[-1].coords == (1, 2, 1, 1)
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
    pos = {r.coords for r in roots_from_cartan(cartan_datum(label))}
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
    with pytest.raises(ValueError):
        Root((1, -1))


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


def test_a1_labels():
    alg = algebra("A1")
    assert [alg.basis_label(i) for i in range(3)] == ["e(a1)", "h1", "f(a1)"]


# --- type A2 oracles -------------------------------------------------------

def test_a2_dimensions_and_killing():
    alg = algebra("A2")
    assert alg.dim == 8
    e1, f1 = alg.one_hot(alg.e_index(Root((1, 0)))), alg.one_hot(
        alg.f_index(Root((1, 0))))
    # kappa = 6 * trace form on sl3
    assert alg.killing(e1, f1) == 6
    h1 = alg.one_hot(alg.h_index(1))
    assert alg.killing(h1, h1) == 12


def test_a2_extraspecial_sign_is_positive():
    alg = algebra("A2")
    e1 = alg.one_hot(alg.e_index(Root((1, 0))))
    e2 = alg.one_hot(alg.e_index(Root((0, 1))))
    e12 = alg.one_hot(alg.e_index(Root((1, 1))))
    assert alg.bracket(e1, e2) == e12
    assert alg.bracket(e2, e1) == tuple(-c for c in e12)


def test_a2_long_coroot():
    alg = algebra("A2")
    e12 = alg.one_hot(alg.e_index(Root((1, 1))))
    f12 = alg.one_hot(alg.f_index(Root((1, 1))))
    h1 = alg.one_hot(alg.h_index(1))
    h2 = alg.one_hot(alg.h_index(2))
    assert alg.bracket(e12, f12) == tuple(a + b for a, b in zip(h1, h2))


def test_a2_cartan_action():
    alg = algebra("A2")
    h1 = alg.one_hot(alg.h_index(1))
    e2 = alg.one_hot(alg.e_index(Root((0, 1))))
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
    ea = alg.one_hot(alg.e_index(Root((1, 0))))
    eb = alg.one_hot(alg.e_index(Root((2, 1))))
    out = alg.bracket(ea, eb)
    k = alg.e_index(Root((3, 1)))
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


def _tampered_algebra(label, kind):
    # algebra(label) over a table with one constant negated on both sides,
    # so it stays antisymmetric; the gram stays the audited one
    alg = algebra(label)
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


@pytest.mark.parametrize("label,kind", [
    ("A3", "derived"), ("B3", "derived"), ("C3", "derived"), ("D4", "derived"),
    ("G2", "derived"), ("A2", "mixed"), ("B2", "mixed"), ("A2", "coroot"),
    ("B3", "coroot"), ("G2", "coroot"),
])
def test_audit_counts_match_the_oracles_on_a_tampered_table(label, kind):
    alg = _tampered_algebra(label, kind)
    jac, kiv = _jacobi_all_ordered_triples(alg), _invariance_all_pairs(alg)
    assert jac > 0 and kiv > 0
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


def test_root_name():
    assert root_name((1, 2)) == "a1+2a2"
    assert root_name((0, 1)) == "a2"


def test_index_roundtrip():
    alg = algebra("B3")
    for k, r in enumerate(alg.positive_roots):
        assert alg.e_index(r) == k
        assert alg.index_of_root_vector(-r) == alg.f_index(r)
        assert alg.basis_weights[alg.e_index(r)] == r.coords


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
    return span([_bracket_by_fractions(alg, x, y) for x in a.rows for y in b.rows],
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
    line = span([moved_p.rows[-1]], alg.dim)
    for a, b in ((pd.u, pd.u), (pd.u, pd.p), (moved_p, moved_p), (moved_u, pd.p),
                 (dense, dense), (dense, moved_p), (moved_p, line), (dense, line)):
        assert alg.bracket_space(a, b) == _bracket_space_by_fractions(alg, a, b)
