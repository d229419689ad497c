import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from liework.chevalley import algebra
from liework.exactlin import (
    DimensionMismatch,
    DivisorNotContained,
    EchelonBuilder,
    IntMat,
    Subspace,
    VectorOutsideTotal,
    class_of,
    int_det,
    intersect,
    kernel,
    quotient,
    rref,
    smith_normal_form,
    span,
    subspace_sum,
)

# hand-built sl2 data used as an oracle, independent of the algebra builder:
# basis order (e, h, f), brackets [h,e]=2e, [h,f]=-2f, [e,f]=h.
SL2_GRAM = ((0, 0, 4), (0, 8, 0), (4, 0, 0))
A1 = algebra("A1")


def as_vec(seq):
    return tuple(map(Q, seq))


def cleared(v):
    """A rational vector as (integer numerators, positive denominator)."""
    den = math.lcm(*(Q(x).denominator for x in v))
    return [int(x * den) for x in v], den


E = as_vec([1, 0, 0])
H = as_vec([0, 1, 0])
F = as_vec([0, 0, 1])


def rand_fraction(rng):
    return Q(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3]))


def rand_mat(rng, rows, cols):
    return [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]


def apply(m, v):
    """Matrix, as rows, times column vector."""
    assert all(len(row) == len(v) for row in m)
    return tuple(sum((c * x for c, x in zip(row, v)), Q(0)) for row in m)


def test_rref_unit():
    r, pivots = rref([[0, 2, 4], [1, 1, 1], [1, 3, 5]], 3)
    assert pivots == (0, 1)
    assert r == (as_vec([1, 0, -1]), as_vec([0, 1, 2]), as_vec([0, 0, 0]))


def test_rref_preserves_row_space_seeded():
    rng = random.Random(1234)
    for _ in range(25):
        m = rand_mat(rng, 5, 5)
        r, _ = rref(m, 5)
        # mutual containment via canonical spans
        assert span(m, 5) == span(r, 5)


def test_rref_idempotent_seeded():
    rng = random.Random(99)
    for _ in range(10):
        m = rand_mat(rng, 4, 6)
        r, p = rref(m, 6)
        r2, p2 = rref(r, 6)
        assert r == r2 and p == p2


def test_span_canonical_under_reordering():
    rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4]]
    a = span(rows, 3)
    b = span(list(reversed(rows)), 3)
    assert a == b
    assert a.dim == 2


def test_modular_law_dimensions_100_seeded_pairs_dim8():
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        a = span([[rand_fraction(rng) for _ in range(8)] for _ in range(rng.randint(1, 6))], 8)
        b = span([[rand_fraction(rng) for _ in range(8)] for _ in range(rng.randint(1, 6))], 8)
        s = subspace_sum(a, b)
        i = intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert s.contains_space(a) and s.contains_space(b)
        assert a.contains_space(i) and b.contains_space(i)


def test_intersection_members_seeded():
    rng = random.Random(7)
    for _ in range(20):
        a = span([[rand_fraction(rng) for _ in range(6)] for _ in range(3)], 6)
        b = span([[rand_fraction(rng) for _ in range(6)] for _ in range(3)], 6)
        i = intersect(a, b)
        for r in i.rows:
            assert a.contains(r) and b.contains(r)


def sl2_pair(x, y):
    return sum(a * b for a, b in zip(x, apply(SL2_GRAM, y)))


def test_perp_sl2_span_e():
    v = span([E], 3)
    p = A1.killing_perp(v)
    assert p == span([E, H], 3)


def test_perp_of_full_and_zero():
    assert A1.killing_perp(Subspace.full(3)) == Subspace.zero(3)
    assert A1.killing_perp(Subspace.zero(3)) == Subspace.full(3)


def test_double_perp_identity_seeded():
    rng = random.Random(5150)
    for _ in range(20):
        v = span([[rand_fraction(rng) for _ in range(3)] for _ in range(rng.randint(1, 3))], 3)
        assert A1.killing_perp(A1.killing_perp(v)) == v


def test_perp_dimension_complement():
    rng = random.Random(31)
    for _ in range(20):
        v = span([[rand_fraction(rng) for _ in range(3)] for _ in range(2)], 3)
        perp = A1.killing_perp(v)
        assert v.dim + perp.dim == 3
        assert all(sl2_pair(x, y) == 0 for x in v.rows for y in perp.rows)


def test_quotient_sl2_borel():
    total = span([E, H], 3)
    divisor = span([E], 3)
    q = quotient(total, divisor)
    assert q.dim == 1
    assert q.section == (((0, 1, 0),), 1)
    # class of h/2 is (1/2); e maps to zero
    assert class_of(q, [0, 1, 0], 2) == (Q(1, 2),)
    assert class_of(q, (1, 0, 0)) == (Q(0),)


def test_quotient_errors_are_distinct():
    total = span([E, H], 3)
    with pytest.raises(DivisorNotContained):
        quotient(total, span([F], 3))
    q = quotient(total, span([E], 3))
    with pytest.raises(VectorOutsideTotal):
        class_of(q, (0, 0, 1))
    with pytest.raises(DimensionMismatch):
        class_of(q, (0, 1))


def test_quotient_class_linear_seeded():
    rng = random.Random(404)
    total = span([[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, -1]], 4)
    divisor = span([[1, 0, 0, 2]], 4)
    q = quotient(total, divisor)
    for _ in range(20):
        c1, c2 = rand_fraction(rng), rand_fraction(rng)
        v1 = as_vec([c1, c2, 0, 2 * c1])
        v2 = as_vec([0, c2, c1, -c1])
        lhs = class_of(q, *cleared([a + b for a, b in zip(v1, v2)]))
        rhs = tuple(a + b for a, b in zip(class_of(q, *cleared(v1)),
                                          class_of(q, *cleared(v2))))
        assert lhs == rhs


def test_zero_dimensional_quotient():
    total = span([E, H], 3)
    q = quotient(total, total)
    assert q.dim == 0
    assert q.section == ((), 1)
    assert class_of(q, (0, 1, 0)) == ()


def test_smith_frozen_example():
    assert smith_normal_form(IntMat.from_rows([[2, 0], [0, 3]])) == (1, 6)


def test_smith_zero_matrix():
    assert smith_normal_form(IntMat.from_rows([[0, 0], [0, 0]])) == ()


def test_smith_seeded_invariants():
    rng = random.Random(2024)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        inv = smith_normal_form(IntMat.from_rows(entries))
        assert all(x > 0 for x in inv)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert len(inv) == len(rref(entries, cols)[1])
        # on a square nonsingular matrix the invariants multiply to |det|
        if rows == cols and len(inv) == rows:
            assert math.prod(inv) == abs(int_det(IntMat.from_rows(entries)))


# the 7x7 matrix whose unreduced elimination grew million-bit entries
PINNED_7X7 = [[0, -2, -29, 3, -1, 1, 3], [1, 3, 2, 1, 3, 0, -1],
              [1, -3, -2, 3, -2, -3, 20], [-2, 2, 3, 1, 0, 0, -1],
              [2, -3, 11, -1, -2, -3, -4], [10, 3, 0, 3, 0, 0, 0],
              [-3, 2, -2, 0, 0, 0, 0]]


def test_smith_pinned_7x7():
    assert smith_normal_form(IntMat.from_rows(PINNED_7X7)) == (1, 1, 1, 1, 1, 1, 235533)


def test_kernel_annihilates():
    rng = random.Random(8)
    for _ in range(20):
        m = rand_mat(rng, 3, 5)
        k = kernel([cleared(r)[0] for r in m], 5)
        assert k.dim == 5 - len(rref(m, 5)[1])
        for r in k.rows:
            assert all(x == 0 for x in apply(m, r))


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]],
                                  [[1, 2, 3], [4, 5, 6, 7]]])
def test_rref_and_kernel_reject_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        rref(rows, 3)
    with pytest.raises(DimensionMismatch):
        kernel(rows, 3)


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(3), Subspace.full(4))
    with pytest.raises(DimensionMismatch):
        intersect(Subspace.full(3), Subspace.full(4))
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).contains(as_vec([1, 0]))


def test_a1_killing_matches_matrix_product():
    rng = random.Random(21)
    for _ in range(10):
        x = [rng.randint(-6, 6) for _ in range(3)]
        y = [rng.randint(-6, 6) for _ in range(3)]
        k = A1.killing(x, y)
        assert type(k) is int and k == sl2_pair(x, y)
    k = A1.killing((1, 0, 0), (0, 0, 1))
    assert type(k) is int and k == 4


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=5))
def test_span_idempotent_property(rows):
    s = span(rows, 4)
    assert span(s.rows, 4) == s
    for r in rows:
        assert s.contains(as_vec(r))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_sum_intersect_dims_property(ra, rb):
    a, b = span(ra, 4), span(rb, 4)
    assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_smith_invariants_property(rows):
    inv = smith_normal_form(IntMat.from_rows(rows, 3))
    assert all(x > 0 for x in inv)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    assert len(inv) == len(rref(rows, 3)[1])


@st.composite
def int_matrices(draw):
    """Integer matrices of shape 1..8 x 1..8, some with a dependent row."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-30, 30)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@pytest.fixture(scope="module")
def sympy():
    """sympy as an oracle, imported once outside the timed examples."""
    return pytest.importorskip("sympy")


@pytest.fixture(scope="module")
def sympy_invariant_factors(sympy):
    from sympy.matrices.normalforms import invariant_factors
    return lambda rows: tuple(
        int(x) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if x)


@settings(max_examples=200, deadline=1000, derandomize=True)
@example(rows=PINNED_7X7)
@given(rows=int_matrices())
def test_smith_matches_sympy_invariant_factors(sympy_invariant_factors, rows):
    assert smith_normal_form(IntMat.from_rows(rows)) == sympy_invariant_factors(rows)


def test_echelon_builder_matches_span():
    rng = random.Random(3)
    rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(6)]
    eb = EchelonBuilder(5)
    for r in rows:
        eb.insert(cleared(r)[0])
    assert eb.subspace() == span(rows, 5)
    with pytest.raises(DimensionMismatch):
        eb.insert([1, 2, 3, 4])


# ---------------------------------------------------------------------------
# the echelon core against sympy


# st.fractions draws through a flatmap per entry, too slow for 80-entry
# matrices; these are the fractions with |numerator| <= 6, denominator <= 3
fraction_entries = st.builds(Q, st.integers(-6, 6), st.integers(1, 3))


def _frac(x):
    """A sympy Rational as a Fraction."""
    return Q(int(x.p), int(x.q))


def _combine(coeffs, rows):
    """sum_i coeffs[i] * rows[i]"""
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Q(0)) for j in range(len(rows[0]))]


@st.composite
def fraction_matrices(draw, cols=None, max_rows=8):
    """Fraction matrices of shape 1..max_rows x 1..10.  Half are a product
    B C through an inner dimension below both sides, so rank-deficient."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, 10)) if cols is None else cols

    def block(r, c):
        return draw(st.lists(st.lists(fraction_entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        return block(rows, cols)
    inner = draw(st.integers(0, min(rows, cols) - 1))
    b, c = block(rows, inner), block(inner, cols)
    return [[sum((b[i][k] * c[k][j] for k in range(inner)), Q(0)) for j in range(cols)]
            for i in range(rows)]


oracle = settings(max_examples=100, deadline=2000, derandomize=True)


@oracle
@given(m=fraction_matrices())
def test_rref_matches_sympy(sympy, m):
    r, pivots = rref(m, len(m[0]))
    want, want_pivots = sympy.Matrix(m).rref()
    assert pivots == want_pivots
    assert list(r) == [tuple(map(_frac, want.row(i))) for i in range(want.rows)]


@oracle
@given(m=fraction_matrices())
def test_kernel_matches_sympy_nullspace(sympy, m):
    k = kernel([cleared(r)[0] for r in m], len(m[0]))
    want = [list(map(_frac, v)) for v in sympy.Matrix(m).nullspace()]
    assert k.dim == len(want)
    assert k == span(want, len(m[0]))
    for row in k.rows:
        assert sympy.Matrix(m) * sympy.Matrix(row) == sympy.zeros(len(m), 1)


@oracle
@given(data=st.data())
def test_span_contains_intersect_match_sympy_ranks(sympy, data):
    cols = data.draw(st.integers(1, 10))
    shared = data.draw(fraction_matrices(cols, max_rows=3))
    ra = shared + data.draw(fraction_matrices(cols, max_rows=4))
    rb = shared + data.draw(fraction_matrices(cols, max_rows=4))
    member = _combine(data.draw(st.lists(fraction_entries, min_size=len(ra),
                                         max_size=len(ra))), ra)
    v = data.draw(st.lists(fraction_entries, min_size=cols, max_size=cols))

    def rank(rows):
        return sympy.Matrix(rows).rank()

    a, b = span(ra, cols), span(rb, cols)
    assert (a.dim, b.dim) == (rank(ra), rank(rb))
    assert a.contains(as_vec(member))
    assert a.contains(as_vec(v)) == (rank(ra + [v]) == a.dim)
    i = intersect(a, b)
    assert i.dim == a.dim + b.dim - rank(ra + rb)
    assert rank(ra + list(i.rows)) == a.dim and rank(rb + list(i.rows)) == b.dim


@oracle
@given(data=st.data())
def test_quotient_class_of_match_sympy_solve(sympy, data):
    cols = data.draw(st.integers(1, 10))
    rt = data.draw(fraction_matrices(cols))
    coeffs = st.lists(fraction_entries, min_size=len(rt), max_size=len(rt))
    rd = [_combine(c, rt) for c in data.draw(st.lists(coeffs, max_size=8))]
    v = _combine(data.draw(coeffs), rt)

    def rank(rows):
        return sympy.Matrix(rows).rank() if rows else 0

    q = quotient(span(rt, cols), span(rd, cols))
    assert q.dim == rank(rt) - rank(rd)
    rows, den = q.section
    section = [[Q(x, den) for x in r] for r in rows]
    basis = section + list(q.divisor.rows)
    assert rank(basis) == len(basis) == rank(rt)
    cls = class_of(q, *cleared(v))
    if basis:
        x = sympy.Matrix(basis).T.solve(sympy.Matrix(v))
        assert cls == tuple(map(_frac, x[:q.dim]))
    # v minus the section combination lies in the divisor
    residual = [a - b for a, b in zip(v, _combine(cls, section))] if cls else v
    assert rank(rd + [residual]) == rank(rd)


def _rref_section(total, divisor):
    """The section as quotient picked it when it held Fraction rows: the
    total's reduced echelon rows, in order, that extend the divisor's
    echelon basis."""
    eb = EchelonBuilder(total.ambient_dim)
    for r in divisor.ints:
        eb.insert(r)
    return tuple(row for row, r in zip(total.rows, total.ints) if eb.insert(r))


@oracle
@given(data=st.data())
def test_integer_section_is_the_rref_rows_over_one_denominator(data):
    cols = data.draw(st.integers(1, 10))
    rt = data.draw(fraction_matrices(cols))
    coeffs = st.lists(fraction_entries, min_size=len(rt), max_size=len(rt))
    rd = [_combine(c, rt) for c in data.draw(st.lists(coeffs, max_size=8))]
    total, divisor = span(rt, cols), span(rd, cols)
    rows, den = quotient(total, divisor).section
    assert type(den) is int and den > 0
    assert all(type(x) is int for r in rows for x in r)
    # den is the least common denominator of the rows
    assert math.gcd(den, *(x for r in rows for x in r)) == 1
    assert tuple(tuple(Q(x, den) for x in r) for r in rows) == _rref_section(total, divisor)


@oracle
@given(data=st.data())
def test_int_det_matches_sympy(sympy, data):
    n = data.draw(st.integers(0, 8))
    m = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):  # singular: last row from two others
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[-2])]
    assert int_det(IntMat.from_rows(m, n)) == sympy.Matrix(n, n, sum(m, [])).det()


# ---------------------------------------------------------------------------
# the canonical primitive integer form


@oracle
@given(data=st.data())
def test_integer_rows_are_canonical(data):
    m = data.draw(fraction_matrices())
    cols = len(m[0])
    order = data.draw(st.permutations(range(len(m))))
    scales = data.draw(st.lists(fraction_entries.filter(bool),
                                min_size=len(m), max_size=len(m)))
    s = span(m, cols)
    # scaled and permuted generators span an equal, equally hashed value
    t = span([[c * x for x in m[i]] for c, i in zip(scales, order)], cols)
    assert s == t and hash(s) == hash(t)
    assert (s.ints, s.pivots) == (t.ints, t.pivots)
    for k, (r, p) in enumerate(zip(s.ints, s.pivots)):
        assert all(type(x) is int for x in r)
        assert math.gcd(*r) == 1 and r[p] > 0 and not any(r[:p])
        assert all(o[p] == 0 for j, o in enumerate(s.ints) if j != k)
        assert all(type(x) is Q for x in s.rows[k])
        assert s.rows[k][p] == 1
