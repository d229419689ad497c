import math
import operator
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
    _echelon_pivots,
    class_of,
    int_det,
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


def qspan(vectors, n):
    """The span of vectors of ints or Fractions: denominators cleared first."""
    return span([cleared(v)[0] for v in vectors], n)


def frac_rows(s):
    """The Fraction view of a subspace: its reduced row-echelon rows."""
    return rref(s.ints, s.ambient_dim)[0]


def meet(a, b):
    """The intersection of two subspaces of Q^n, as demo 01 computes it: the
    vectors that satisfy the annihilating equations of both."""
    n = a.ambient_dim
    return kernel(kernel(a.ints, n).ints + kernel(b.ints, n).ints, n)


def fractions(qvec):
    """A QVec, checked to be ints over a positive denominator in lowest
    terms, as a Fraction vector."""
    nums, den = qvec
    assert type(nums) is tuple and all(type(x) is int for x in nums)
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    return tuple(Q(x, den) for x in nums)


E = (1, 0, 0)
H = (0, 1, 0)
F = (0, 0, 1)


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
        assert qspan(m, 5) == qspan(r, 5)


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
        a = qspan([[rand_fraction(rng) for _ in range(8)] for _ in range(rng.randint(1, 6))], 8)
        b = qspan([[rand_fraction(rng) for _ in range(8)] for _ in range(rng.randint(1, 6))], 8)
        s = subspace_sum(a, b)
        i = meet(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert s.contains_space(a) and s.contains_space(b)
        assert a.contains_space(i) and b.contains_space(i)


def test_intersection_members_seeded():
    rng = random.Random(7)
    for _ in range(20):
        a = qspan([[rand_fraction(rng) for _ in range(6)] for _ in range(3)], 6)
        b = qspan([[rand_fraction(rng) for _ in range(6)] for _ in range(3)], 6)
        i = meet(a, b)
        for r in i.ints:
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
        v = qspan([[rand_fraction(rng) for _ in range(3)] for _ in range(rng.randint(1, 3))], 3)
        assert A1.killing_perp(A1.killing_perp(v)) == v


def test_perp_dimension_complement():
    rng = random.Random(31)
    for _ in range(20):
        v = qspan([[rand_fraction(rng) for _ in range(3)] for _ in range(2)], 3)
        perp = A1.killing_perp(v)
        assert v.dim + perp.dim == 3
        assert all(sl2_pair(x, y) == 0 for x in frac_rows(v) for y in frac_rows(perp))


def test_quotient_sl2_borel():
    total = span([E, H], 3)
    divisor = span([E], 3)
    q = quotient(total, divisor)
    assert q.dim == 1
    assert q.section == (((0, 1, 0),), 1)
    # class of h/2 is (1/2); e maps to zero
    assert class_of(q, [0, 1, 0], 2) == ((1,), 2)
    assert class_of(q, [0, 2, 0], 4) == ((1,), 2)  # in lowest terms
    assert class_of(q, (1, 0, 0)) == ((0,), 1)


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
        lhs = fractions(class_of(q, *cleared([a + b for a, b in zip(v1, v2)])))
        rhs = tuple(a + b for a, b in zip(fractions(class_of(q, *cleared(v1))),
                                          fractions(class_of(q, *cleared(v2)))))
        assert lhs == rhs


def test_zero_dimensional_quotient():
    total = span([E, H], 3)
    q = quotient(total, total)
    assert q.dim == 0
    assert q.section == ((), 1)
    assert class_of(q, (0, 1, 0)) == ((), 1)


def test_smith_frozen_example():
    assert smith_normal_form(IntMat.from_rows([[2, 0], [0, 3]])) == (1, 6)


def test_smith_zero_matrix():
    assert smith_normal_form(IntMat.from_rows([[0, 0], [0, 0]])) == ()


@pytest.mark.parametrize("bad", [1.5, Q(7, 2), True, "3"])
def test_intmat_rejects_entries_that_are_not_ints(bad):
    # int(x) would truncate 1.5 and 7/2 to 1 and 3, and coerce True and "3"
    with pytest.raises(TypeError, match="must be ints"):
        IntMat.from_rows([[bad, 2]])
    with pytest.raises(TypeError, match="must be ints"):
        IntMat(1, 2, (bad, 2))


def test_smith_rejects_a_float_matrix():
    # truncated, these entries would read invariants (2, 2)
    with pytest.raises(TypeError):
        smith_normal_form(IntMat.from_rows([[2.9, 0], [0, 2.2]]))


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
        for r in frac_rows(k):
            assert all(x == 0 for x in apply(m, r))


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]],
                                  [[1, 2, 3], [4, 5, 6, 7]]])
def test_rref_and_kernel_reject_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        rref(rows, 3)
    with pytest.raises(DimensionMismatch):
        kernel(rows, 3)


def test_dimension_mismatch_errors():
    # sum and quotient see the ambient dimension, not just the rows
    for a, b in ((Subspace.full(3), Subspace.full(4)),
                 (Subspace.full(3), Subspace.zero(4)),
                 (Subspace.zero(3), Subspace.full(4))):
        with pytest.raises(DimensionMismatch):
            subspace_sum(a, b)
        with pytest.raises(DimensionMismatch):
            quotient(b, a)
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).contains((1, 0))


@pytest.mark.parametrize("v", [(Q(1, 2), 0, 0), (Q(2), 0, 0), (0, Q(0), 0)])
def test_span_and_contains_reject_fractions(v):
    # integers only: a Fraction fails in the gcd of the elimination step
    with pytest.raises(TypeError):
        span([v], 3)
    for s in (Subspace.zero(3), Subspace.full(3), span([(1, 1, 0)], 3)):
        with pytest.raises(TypeError):
            s.contains(v)
    # rref is the one door that takes them
    assert rref([v], 3)[1] == ((0,) if any(v) else ())


@pytest.mark.parametrize("indices", [[0, 0, 2], [4], [-1]])
def test_coordinate_rejects_bad_indices(indices):
    # a repeated index would repeat a row; one outside range(3) would give a
    # row of the wrong length, or, with rows shared by index, -1 would pick e_2
    with pytest.raises(ValueError, match="distinct and in range"):
        Subspace.coordinate(3, indices)


def test_coordinate_subspaces_share_unit_rows():
    full = Subspace.full(5)
    s = Subspace.coordinate(5, [3, 1])
    assert s == span([(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)], 5) and s.pivots == (1, 3)
    assert s.ints[0] is full.ints[1] and s.ints[1] is full.ints[3]
    assert Subspace.coordinate(5, []) == Subspace.zero(5)


def test_class_of_rejects_nonpositive_denominators():
    q = quotient(span([E, H], 3), span([E], 3))
    for den in (0, -1, -2):
        with pytest.raises(ValueError, match="denominator must be positive"):
            class_of(q, (1, 0, 0), den)


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
def test_span_idempotent_property(vectors):
    s = qspan(vectors, 4)
    assert qspan(frac_rows(s), 4) == s
    for r in vectors:
        assert s.contains(cleared(r)[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_sum_intersect_dims_property(ra, rb):
    a, b = qspan(ra, 4), qspan(rb, 4)
    assert a.dim + b.dim == subspace_sum(a, b).dim + meet(a, b).dim


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


def test_smith_matches_sympy_with_and_without_a_unit_minor(sympy_invariant_factors):
    # the chosen maximal minor is on the row space's pivot columns and, there,
    # the pivot rows of the columns; at |det| = 1 the invariants are all 1
    # with no elimination, and a minor of |det| 2 may leave a 2
    rng = random.Random(1974)
    dets = []
    examples = [[[2]], [[1, 1], [1, -1]], [[2, 4, 0], [1, 3, 0]], [[0, 0], [0, 0]]]
    while len(examples) < 160:
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        examples.append([[rng.choice((0, 0, 1, -1, 1, 2, -2, 3)) for _ in range(c)]
                         for _ in range(r)])
    for m in examples:
        cols = span(m, len(m[0])).pivots
        picked = span([[row[j] for row in m] for j in cols], len(m)).pivots
        minor = IntMat.from_rows([[m[i][j] for j in cols] for i in picked], len(cols))
        dets.append(abs(int_det(minor)))
        assert smith_normal_form(IntMat.from_rows(m)) == sympy_invariant_factors(m)
    assert min(dets.count(1), dets.count(2), sum(d > 2 for d in dets)) >= 10


def test_echelon_builder_matches_span():
    rng = random.Random(3)
    rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(6)]
    eb = EchelonBuilder(5)
    for r in rows:
        eb.insert(cleared(r)[0])
    assert eb.subspace() == qspan(rows, 5)
    with pytest.raises(DimensionMismatch):
        eb.insert([1, 2, 3, 4])


@pytest.mark.parametrize("seed", [Subspace.full(4), Subspace.coordinate(4, [0]),
                                  Subspace.zero(4), Subspace.full(2)],
                         ids=["full4", "coordinate4", "zero4", "full2"])
def test_echelon_builder_rejects_a_seed_of_another_dimension(seed):
    # a seed of Q^4 in a builder for Q^3 would leave rows of the wrong length
    with pytest.raises(DimensionMismatch):
        EchelonBuilder(3, seed)
    assert EchelonBuilder(seed.ambient_dim, seed).subspace() == seed


def test_echelon_pivots_match_span_pivots():
    # forward steps alone read the row space's pivots, over zero rows,
    # duplicate rows and the rows of a seed subspace, which are taken whole;
    # reading ends at the first prefix of the vectors that reaches full rank
    rng = random.Random(38)
    for _ in range(150):
        n = rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(n)]
                for _ in range(rng.randint(0, 8))]
        rows += [[0] * n] * rng.randint(0, 2)
        rows += [list(r) for r in rng.sample(rows, min(len(rows), rng.randint(0, 3)))]
        rng.shuffle(rows)
        seed = span([[rng.randint(-4, 4) for _ in range(n)]
                     for _ in range(rng.randint(0, 3))], n)
        vecs = [list(r) for r in seed.ints] + rows
        assert _echelon_pivots(rows, n) == list(span(rows, n).pivots)
        assert _echelon_pivots(rows, n, seed=seed) == list(span(vecs, n).pivots)
        k = next((k for k in range(len(rows) + 1)
                  if span(vecs[:seed.dim + k], n).dim == n), None)
        if k is not None:  # a vector after full rank is not read
            assert _echelon_pivots(rows[:k] + [[1] * (n + 1)], n, seed=seed) == list(range(n))
    with pytest.raises(DimensionMismatch):
        _echelon_pivots([[1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        _echelon_pivots([], 3, seed=Subspace.full(2))


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
    assert k == qspan(want, len(m[0]))
    for row in frac_rows(k):
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

    a, b = qspan(ra, cols), qspan(rb, cols)
    assert (a.dim, b.dim) == (rank(ra), rank(rb))
    assert a.contains(cleared(member)[0])
    assert a.contains(cleared(v)[0]) == (rank(ra + [v]) == a.dim)
    i = meet(a, b)
    assert i.dim == a.dim + b.dim - rank(ra + rb)
    assert rank(ra + list(frac_rows(i))) == a.dim and rank(rb + list(frac_rows(i))) == b.dim


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

    q = quotient(qspan(rt, cols), qspan(rd, cols))
    assert q.dim == rank(rt) - rank(rd)
    ints, den = q.section
    section = [[Q(x, den) for x in r] for r in ints]
    basis = section + list(frac_rows(q.divisor))
    assert rank(basis) == len(basis) == rank(rt)
    cls = fractions(class_of(q, *cleared(v)))
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
    return tuple(row for row, r in zip(frac_rows(total), total.ints) if eb.insert(r))


@oracle
@given(data=st.data())
def test_integer_section_is_the_rref_rows_over_one_denominator(data):
    cols = data.draw(st.integers(1, 10))
    rt = data.draw(fraction_matrices(cols))
    coeffs = st.lists(fraction_entries, min_size=len(rt), max_size=len(rt))
    rd = [_combine(c, rt) for c in data.draw(st.lists(coeffs, max_size=8))]
    total, divisor = qspan(rt, cols), qspan(rd, cols)
    ints, den = quotient(total, divisor).section
    assert type(den) is int and den > 0
    assert all(type(x) is int for r in ints for x in r)
    # den is the least common denominator of the rows
    assert math.gcd(den, *(x for r in ints for x in r)) == 1
    assert tuple(tuple(Q(x, den) for x in r) for r in ints) == _rref_section(total, divisor)


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
    s = qspan(m, cols)
    # scaled and permuted generators span an equal, equally hashed value
    t = qspan([[c * x for x in m[i]] for c, i in zip(scales, order)], cols)
    assert s == t and hash(s) == hash(t)
    assert (s.ints, s.pivots) == (t.ints, t.pivots)
    for k, (r, p) in enumerate(zip(s.ints, s.pivots)):
        assert all(type(x) is int for x in r)
        assert math.gcd(*r) == 1 and r[p] > 0 and not any(r[:p])
        assert all(o[p] == 0 for j, o in enumerate(s.ints) if j != k)
        assert all(type(x) is Q for x in frac_rows(s)[k])
        assert frac_rows(s)[k][p] == 1


# ---------------------------------------------------------------------------
# the one-elimination routes against the two-pass routes they replaced


def _kernel_two_eliminations(rows, cols):
    """The kernel as a forward elimination and a second one built it: one
    solution per free column j over the lcm of all the pivot entries, those
    solutions then eliminated into canonical rows."""
    s = EchelonBuilder(cols)
    for r in rows:
        s.insert(r)
    top = math.lcm(*(r[p] for r, p in zip(s.rows, s.pivots)))
    eb = EchelonBuilder(cols)
    for j in sorted(set(range(cols)) - set(s.pivots)):
        v = [0] * cols
        v[j] = top
        for r, p in zip(s.rows, s.pivots):
            v[p] = -r[j] * (top // r[p])
        eb.insert(v)
    return eb.subspace()


def _quotient_two_passes(total, divisor):
    """(total, divisor, section) as a containment pass and a fresh builder
    fed the divisor's rows, then the total's, picked them; None when the
    divisor is not in the total."""
    if not total.contains_space(divisor):
        return None
    eb = EchelonBuilder(total.ambient_dim)
    for r in divisor.ints:
        eb.insert(r)
    picked = [(r, p) for r, p in zip(total.ints, total.pivots) if eb.insert(r)]
    den = math.lcm(*(r[p] for r, p in picked))
    return total, divisor, (tuple(tuple(x * (den // r[p]) for x in r) for r, p in picked), den)


@st.composite
def int_systems(draw):
    """(rows, cols): 0..7 integer rows of length 1..8 with zero rows mixed
    in; half are products through a smaller inner dimension, so of lower
    rank, and an inner dimension of 0 gives rank 0."""
    cols, n = draw(st.integers(1, 8)), draw(st.integers(0, 7))

    def block(r, c):
        return draw(st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        rows = block(n, cols)
    else:
        inner = draw(st.integers(0, max(0, min(n, cols) - 1)))
        b, c = block(n, inner), block(inner, cols)
        rows = [[sum(x * y for x, y in zip(br, col)) for col in zip(*c)] if inner
                else [0] * cols for br in b]
    for at in draw(st.lists(st.integers(0, n), max_size=2)):
        rows.insert(at, [0] * cols)
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True)
@example(m=([], 3))                        # rank 0, no rows
@example(m=([[0, 0, 0], [0, 0, 0]], 3))    # rank 0, zero rows
@example(m=([[2, 1], [1, 1]], 2))          # full rank
@example(m=([[2, 4, 0, 6], [0, 0, 0, 0], [0, 3, 1, 0]], 4))
@example(m=([[3]], 1))                     # cols=1, full rank
@example(m=([[0], [0]], 1))                # cols=1, rank 0
@example(m=([], 1))
@given(m=int_systems())
def test_one_pass_kernel_matches_two_eliminations(m):
    rows, cols = m
    k, want = kernel(rows, cols), _kernel_two_eliminations(rows, cols)
    assert (k.ints, k.pivots) == (want.ints, want.pivots)
    assert all(type(x) is int for r in k.ints for x in r)
    assert not any(sum(map(operator.mul, r, x)) for r in rows for x in k.ints)


def _seeded_pairs(rng, count):
    """(total, divisor) pairs in Q^1..Q^7: the divisor a span of random
    combinations of the total's generators, or of random rows."""
    for _ in range(count):
        n = rng.randint(1, 7)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
        if rng.random() < 0.75:
            sub = [[sum(rng.randint(-3, 3) * g[j] for g in gens) for j in range(n)]
                   for _ in range(rng.randint(0, len(gens)))]
        else:
            sub = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        yield span(gens, n), span(sub, n)


def test_seeded_quotient_matches_two_passes():
    raised = 0
    for total, divisor in _seeded_pairs(random.Random(2505), 400):
        want = _quotient_two_passes(total, divisor)
        if want is None:
            raised += 1
            with pytest.raises(DivisorNotContained, match="not contained in the total"):
                quotient(total, divisor)
            continue
        q = quotient(total, divisor)
        assert (q.total, q.divisor, q.section) == want
    assert 20 < raised < 200  # both branches are exercised


def _shared_row_pairs(rng, count):
    """(total, divisor) pairs whose divisor holds some of the total's
    canonical rows, either with combinations of the others (inside the
    total) or with a random row (most often outside it)."""
    for _ in range(count):
        n = rng.randint(2, 8)
        total = span([[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)]
                      for _ in range(rng.randint(1, n))], n)
        kept = [r for r in total.ints if rng.random() < 0.6]
        rest = [r for r in total.ints if r not in kept]
        extra = ([[sum(rng.randint(-2, 2) * r[j] for r in rest) for j in range(n)]]
                 if rng.random() < 0.6 else [[rng.randint(-2, 2) for _ in range(n)]])
        yield total, span(kept + extra, n)


def test_quotient_past_shared_rows_matches_inserting_every_row():
    raised = shared = 0
    for total, divisor in _shared_row_pairs(random.Random(3505), 400):
        shared += bool(set(total.ints) & set(divisor.ints))
        want = _quotient_two_passes(total, divisor)
        if want is None:
            raised += 1
            with pytest.raises(DivisorNotContained, match="not contained in the total"):
                quotient(total, divisor)
            continue
        q = quotient(total, divisor)
        assert (q.total, q.divisor, q.section) == want
    assert 20 < raised < 300 and shared > 200  # both branches, with shared rows


def test_seeded_builder_matches_inserting_the_seed_first():
    rng = random.Random(2506)
    for total, divisor in _seeded_pairs(rng, 200):
        n = total.ambient_dim
        extra = list(total.ints) + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        plain = EchelonBuilder(n)
        assert [plain.insert(r) for r in divisor.ints] == [True] * divisor.dim
        seeded = EchelonBuilder(n, divisor)
        assert (seeded.rows, seeded.pivots) == (plain.rows, plain.pivots)
        assert [seeded.insert(r) for r in divisor.ints] == [False] * divisor.dim
        assert [seeded.insert(r) for r in extra] == [plain.insert(r) for r in extra]
        got, want = seeded.subspace(), plain.subspace()
        assert (got.ints, got.pivots) == (want.ints, want.pivots)
        assert got == subspace_sum(divisor, span(extra, n))


def test_rref_rejects_floats_and_bools():
    for rows in ([[0.5, 0.1]], [[True, 2]], [[1, Q(1, 2), False]]):
        with pytest.raises(TypeError, match="must be ints or Fractions"):
            rref(rows, len(rows[0]))
    assert rref([[2, 4], [1, 3]], 2) == (((1, 0), (0, 1)), (0, 1))
    assert rref([[Q(1, 2), 1], [1, 2]], 2) == (((1, 2), (0, 0)), (0,))
