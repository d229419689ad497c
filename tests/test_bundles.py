"""Adjoint-action words and bundle points against hand-expanded values.

The sl2 expansions were done by hand: ad_e f = h, ad_e h = -2e gives
exp(ad_e) f = f + h - e; the mirror word exp(ad_f) e = e - h - f.  The
twist-level value for x = h/2 over the standard sl2 parabolic comes from
the deterministic quotient section (h spans it), so the class is 1/2 and
the projection negates it.
"""
import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liework import bundles
from liework.chevalley import (
    SUPPORTED_TYPES,
    ChevalleyAlgebra,
    ConstructionAuditError,
    algebra,
)
from liework.bundles import (
    GroupWord,
    IDENTITY_WORD,
    PointInvariantError,
    TorusLetter,
    UCPoint,
    UnipotentLetter,
    WitnessTransportError,
    act_roundtrip,
    act_subspace,
    act_uc_point,
    act_vector,
    canonical_id,
    concat,
    fiber_dimension,
    intrinsic_quotients,
    invariance_pairing_square,
    make_uc_point,
    pi_c,
    random_word,
    stabilizer_word,
    twist_level,
    twist_section,
    word_of,
    _PARAM_CHOICES,
    _T_CHOICES,
    _act_ints,
    _divided_powers,
    _unipotent_letter,
    _verify_uc_invariant,
)
from liework.exactlin import (
    DimensionMismatch,
    EchelonBuilder,
    _clear_denominators,
    Subspace,
    class_of,
    kernel,
    rref,
    span,
)
from liework.parabolic import format_case, killing_quotients, standard_parabolic
from liework.suites import _split, default_case_matrix, run_suite
from test_chevalley import _bracket_by_fractions, _bracket_span
from test_exactlin import frac_rows, meet, qspan

F = Fraction


def _frac_bracket(alg, x, y):
    """[x, y] of rational vectors: the integer bracket of the cleared
    vectors over the product of their denominators."""
    (xs, dx), (ys, dy) = _clear_denominators(x), _clear_denominators(y)
    return tuple(F(c, dx * dy) for c in alg.bracket(xs, ys))


def _frac_killing(alg, x, y):
    """kappa(x, y) of rational vectors, the same way."""
    (xs, dx), (ys, dy) = _clear_denominators(x), _clear_denominators(y)
    return F(alg.killing(xs, ys), dx * dy)


def _section_rows(q):
    """A quotient's section rows as Fraction vectors."""
    rows, den = q.section
    return [tuple(F(c, den) for c in r) for r in rows]


def _q(v):
    """A vector of ints or Fractions as a QVec."""
    nums, den = _clear_denominators(v)
    return tuple(nums), den


def _frac(qvec):
    """A QVec, checked to be ints over a positive denominator in lowest
    terms, as a Fraction vector."""
    nums, den = qvec
    assert type(nums) is tuple and all(type(x) is int for x in nums)
    assert type(den) is int and den > 0 and math.gcd(den, *nums) == 1
    return tuple(F(x, den) for x in nums)


def _act(alg, w, v):
    """act_vector on a vector of ints or Fractions, read back as Fractions."""
    return _frac(act_vector(alg, w, _q(v)))


def _w_unip(root, t):
    return word_of(UnipotentLetter(root, F(t)))


def _inverse_letter(letter):
    if isinstance(letter, UnipotentLetter):
        return UnipotentLetter(letter.root, -letter.t)
    return TorusLetter(tuple(1 / p for p in letter.params))


def _inverse(w):
    # the explicit inverse word, the oracle for the action's in-place inverse:
    # the letters reversed, each inverted
    return GroupWord(tuple(_inverse_letter(l) for l in reversed(w.letters)))


def test_exp_ad_e_on_f_sl2():
    alg = algebra("A1")
    e, h, f = alg.one_hot(0), alg.one_hot(1), alg.one_hot(2)
    out = act_vector(alg, _w_unip((1,), 1), (f, 1))
    assert out == (tuple(a + b - c for a, b, c in zip(f, h, e)), 1)


def test_exp_ad_f_on_e_sl2():
    alg = algebra("A1")
    e, h, f = alg.one_hot(0), alg.one_hot(1), alg.one_hot(2)
    out = act_vector(alg, _w_unip((-1,), 1), (e, 1))
    assert out == (tuple(a - b - c for a, b, c in zip(e, h, f)), 1)


def test_torus_letter_scales_by_weight():
    alg = algebra("A1")
    w = word_of(TorusLetter((F(5),)))
    e, h, f = alg.one_hot(0), alg.one_hot(1), alg.one_hot(2)
    assert act_vector(alg, w, (e, 1)) == (tuple(5 * c for c in e), 1)
    assert act_vector(alg, w, (f, 1)) == (f, 5)
    assert act_vector(alg, w, (h, 3)) == (h, 3)


def test_inverse_torus_letter_divides_by_weight():
    # e(a1) moved by T(3)^-1: the letter T(1/3), or T(3) inverted in place
    alg = algebra("A1")
    e = ((1, 0, 0), 1)
    assert act_vector(alg, word_of(TorusLetter((F(1, 3),))), e) == ((1, 0, 0), 3)
    assert _act_ints(alg, word_of(TorusLetter((3,))), [e], inverse=True) == [((1, 0, 0), 3)]


def test_empty_word_is_identity():
    alg = algebra("A2")
    v = tuple(i - 3 for i in range(alg.dim))
    assert act_vector(alg, IDENTITY_WORD, (v, 1)) == (v, 1)
    # the identity word brings its input to lowest terms too
    assert act_vector(alg, IDENTITY_WORD, ([2 * c for c in v], 2)) == (v, 1)


def test_zero_torus_parameter_rejected():
    with pytest.raises(ValueError):
        TorusLetter((F(1), F(0)))


def test_inverse_roundtrip_random_words():
    alg = algebra("B2")
    rng = random.Random("roundtrip")
    for k in range(8):
        w = random_word(alg, rng, length=1 + k % 8)
        v = tuple(F(rng.randint(-5, 5)) for _ in range(alg.dim))
        assert _act(alg, _inverse(w), _act(alg, w, v)) == v


def killing_invariance_audit(alg, w, pairs):
    """kappa(w.x, w.y) == kappa(x, y) on every pair."""
    for x, y in pairs:
        if _frac_killing(alg, _act(alg, w, x), _act(alg, w, y)) != \
                alg.killing(x, y):
            return False
    return True


def bracket_morphism_audit(alg, w, pairs):
    """w.[x, y] == [w.x, w.y] on every pair."""
    for x, y in pairs:
        lhs = _act(alg, w, alg.bracket(x, y))
        rhs = _frac_bracket(alg, _act(alg, w, x), _act(alg, w, y))
        if lhs != rhs:
            return False
    return True


def sigma_c(pt):
    """The parabolic of an incidence-family point."""
    return pt.p


def test_killing_and_bracket_audits_full_grid():
    alg = algebra("A2")
    rng = random.Random("audits")
    w = random_word(alg, rng, length=6)
    basis = [alg.one_hot(i) for i in range(alg.dim)]
    pairs = [(x, y) for x in basis for y in basis]
    assert killing_invariance_audit(alg, w, pairs)
    assert bracket_morphism_audit(alg, w, pairs)


def test_make_uc_point_identity_zero():
    pd = standard_parabolic("A2", frozenset())
    pt = make_uc_point(pd, IDENTITY_WORD, ((0,) * 8, 1))
    assert pt.p == pd.p
    assert pt.x == ((0,) * 8, 1)
    assert sigma_c(pt) == pd.p


def test_make_uc_point_precondition():
    pd = standard_parabolic("A2", frozenset())
    f1 = pd.alg.one_hot(pd.alg.f_index((1, 0)))
    with pytest.raises(PointInvariantError):
        make_uc_point(pd, IDENTITY_WORD, (f1, 1))


def test_make_uc_point_transported_sl2():
    pd = standard_parabolic("A1", frozenset())
    alg = pd.alg
    e = alg.one_hot(0)
    pt = make_uc_point(pd, _w_unip((-1,), 1), (e, 1))
    # hand expansion: e - h - f, and the membership is re-verified inside
    assert pt.x == ((1, -1, -1), 1)
    assert pt.p != pd.p


def test_pi_c_values_sl2():
    pd = standard_parabolic("A1", frozenset())
    alg = pd.alg
    pt = make_uc_point(pd, IDENTITY_WORD, (alg.one_hot(1), 2))  # h / 2
    assert pi_c(pd, pt) == ((-1,), 2)
    e_pt = make_uc_point(pd, IDENTITY_WORD, (alg.one_hot(0), 1))
    assert pi_c(pd, e_pt) == ((0,), 1)


def test_pi_c_detects_corrupted_witness():
    pd = standard_parabolic("A1", frozenset())
    alg = pd.alg
    w = _w_unip((-1,), 1)
    pt = make_uc_point(pd, w, (alg.one_hot(0), 1))
    bad = UCPoint(p=pt.p, x=pt.x, witness=IDENTITY_WORD)
    with pytest.raises(WitnessTransportError):
        pi_c(pd, bad)


def test_pi_c_transport_consistency():
    pd = standard_parabolic("A2", frozenset({1}))
    alg = pd.alg
    rng = random.Random("transport")
    x0 = _q(_section_rows(pd.twist_space)[0])
    base = make_uc_point(pd, IDENTITY_WORD, x0)
    level = pi_c(pd, base)
    for _ in range(5):
        w = random_word(alg, rng, length=3)
        moved = act_uc_point(pd, w, base)
        direct = make_uc_point(pd, w, x0)
        assert pi_c(pd, moved) == pi_c(pd, direct) == level


def test_stabilizer_words_fix_p():
    # act_subspace returns p for these words without moving a row, so the
    # fact is read off the letter-by-letter Fraction images of p's rows
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for gamma in {frozenset({1}), frozenset({alg.rank})}:
            pd = standard_parabolic(label, gamma)
            rng = random.Random(f"stab:{label}:{sorted(gamma)}")
            for _ in range(5):
                w = stabilizer_word(pd, rng, length=4)
                assert qspan([_act_by_fractions(alg, w, r) for r in frac_rows(pd.p)],
                             alg.dim) == pd.p


def _unit_levels(pd):
    return [twist_level(pd, [int(j == m) for j in range(pd.torus_rank)])
            for m in range(pd.torus_rank)]


def test_canonical_id_identity_word():
    pd = standard_parabolic("A2", frozenset())
    units = _unit_levels(pd)
    assert canonical_id(pd, IDENTITY_WORD, units) == units


def test_canonical_id_stabilizing_words_are_identity():
    for label, gamma in (("A2", frozenset()), ("A2", frozenset({1})),
                         ("B2", frozenset({2}))):
        pd = standard_parabolic(label, gamma)
        rng = random.Random(f"canid:{label}:{sorted(gamma)}")
        units = _unit_levels(pd)
        for _ in range(4):
            w = stabilizer_word(pd, rng, length=3)
            assert canonical_id(pd, w, units) == units


def test_canonical_id_rejects_section_leaving_target(monkeypatch):
    pd = standard_parabolic("A2", frozenset({1}))
    alg = pd.alg
    w = random_word(alg, random.Random("canid:leave"), length=3)
    levels = _unit_levels(pd)
    p = act_subspace(alg, w, pd.p)
    canonical_id(pd, w, levels, p)  # the true transport stays inside
    target = intrinsic_quotients(pd, p)[0].total
    off = next(i for i in range(alg.dim) if not target.contains(alg.one_hot(i)))
    real_act = bundles._act_ints

    def pushed_out(alg, w, vecs, inverse=False):
        # each image moved by the basis vector off
        return [([c + den * (i == off) for i, c in enumerate(nums)], den)
                for nums, den in real_act(alg, w, vecs, inverse=inverse)]

    monkeypatch.setattr(bundles, "_act_ints", pushed_out)
    with pytest.raises(WitnessTransportError, match="left the target"):
        canonical_id(pd, w, levels, p)


def test_canonical_id_transports_p_once_per_word(monkeypatch):
    calls = []

    def counted(alg, w, s):
        calls.append(w)
        return act_subspace(alg, w, s)

    monkeypatch.setattr("liework.bundles.act_subspace", counted)
    pd = standard_parabolic("A3", frozenset())
    w = random_word(pd.alg, random.Random("canid:once"), length=3)
    levels = [twist_level(pd, [k, 1 - k, 2]) for k in range(4)]
    moved = canonical_id(pd, w, levels)
    assert calls == [w]
    assert moved == [canonical_id(pd, w, [psi])[0] for psi in levels]
    # a caller holding act(w, p), as a point made by w does, saves the transport
    p = make_uc_point(pd, w, _q(frac_rows(pd.p_derived_perp)[0])).p
    calls.clear()
    assert canonical_id(pd, w, levels, p) == moved
    assert calls == []
    # torus rank 0 has no levels, and then nothing is transported
    calls.clear()
    full = standard_parabolic("A2", frozenset({1, 2}))
    assert full.torus_rank == 0
    assert canonical_id(full, w, []) == []
    assert calls == []


def test_invariance_square_closes():
    for label, gamma in (("A2", frozenset({1})), ("B2", frozenset({2})),
                         ("A1", frozenset())):
        pd = standard_parabolic(label, gamma)
        rng = random.Random(f"square:{label}:{sorted(gamma)}")
        for _ in range(5):
            w = random_word(pd.alg, rng, length=3)
            psis = [twist_level(pd, [rng.randint(-3, 3) for _ in range(pd.torus_rank)])
                    for _ in range(3)]
            squares = invariance_pairing_square(pd, w, psis)
            assert len(squares) == len(psis)
            for far, near in squares:
                assert len(_frac(far)) == pd.torus_rank
                assert far == near


def _moved_point(pd, coords, key):
    """The point at the given twist level, moved by a seeded word."""
    w = random_word(pd.alg, random.Random(key), 3)
    return make_uc_point(pd, w, twist_section(pd, twist_level(pd, coords)))


def test_fiber_dimension_frozen():
    pd0 = standard_parabolic("A2", frozenset())
    assert fiber_dimension(pd0, _moved_point(pd0, [0, 0], "fiber")) == 6
    pd1 = standard_parabolic("A2", frozenset({1}))
    assert fiber_dimension(pd1, _moved_point(pd1, [7], "fiber")) == 4
    pdf = standard_parabolic("A2", frozenset({1, 2}))
    assert fiber_dimension(pdf, _moved_point(pdf, [], "fiber")) == 0


def test_fiber_dimension_constant_in_psi():
    pd = standard_parabolic("B2", frozenset({2}))
    vals = {fiber_dimension(pd, _moved_point(pd, [k], f"fiber:{k}"))
            for k in range(-3, 4)}
    assert len(vals) == 1


def test_embed_and_triangle():
    # the embedding's content is x in p; the triangle's is that a split
    # word, the same group element in other letters, moves x0 to the same x
    pd = standard_parabolic("A2", frozenset({1}))
    rng = random.Random("embed")
    x0 = _q(frac_rows(pd.p_derived_perp)[1])
    for _ in range(5):
        w = random_word(pd.alg, rng, length=3)
        pt = make_uc_point(pd, w, x0)
        assert pt.p.contains(pt.x[0])
        split = _split(w)
        assert act_vector(pd.alg, split, x0) == pt.x
        assert act_subspace(pd.alg, split, pd.p) == pt.p


def test_tstar_moment_maps_factor():
    # nu_T(y) = pi_C(y): pairing a_p's sections with y and with the section
    # of -pi_C(y) agree, since y minus that section lies in p-perp
    pd = standard_parabolic("A2", frozenset())
    alg = pd.alg
    for y in frac_rows(pd.p_derived_perp):
        level, dl = pi_c(pd, make_uc_point(pd, IDENTITY_WORD, _q(y)))
        nums, den = twist_section(pd, (tuple(-c for c in level), dl))
        via_level = tuple(F(c, den) for c in nums)
        assert pd.p_derived_perp.contains(_q(via_level)[0])
        assert pd.u.contains(_q(tuple(a - b for a, b in zip(y, via_level)))[0])
        sections = _section_rows(pd.a_p)
        assert [_frac_killing(alg, z, y) for z in sections] == \
            [_frac_killing(alg, z, via_level) for z in sections]


def test_uc_invariant_checked_at_transported_p():
    pd = standard_parabolic("A2", frozenset())
    alg = pd.alg
    w = _w_unip((-1, 0), 1)
    moved = act_subspace(alg, w, pd.p)
    assert moved != pd.p
    f1 = alg.one_hot(alg.f_index((1, 0)))
    assert not pd.p_derived_perp.contains(f1)
    bad = UCPoint(p=pd.p, x=(f1, 1), witness=IDENTITY_WORD)
    with pytest.raises(PointInvariantError, match="Killing-orthogonal"):
        act_uc_point(pd, w, bad)
    good = make_uc_point(pd, IDENTITY_WORD, _q(frac_rows(pd.p_derived_perp)[0]))
    assert act_uc_point(pd, w, good).p == moved


def test_act_uc_point_witness_composition():
    pd = standard_parabolic("A2", frozenset())
    alg = pd.alg
    rng = random.Random("compose")
    x0 = _q(_section_rows(pd.twist_space)[0])
    w1 = random_word(alg, rng, length=2)
    w2 = random_word(alg, rng, length=2)
    via_act = act_uc_point(pd, w2, make_uc_point(pd, w1, x0))
    direct = make_uc_point(pd, concat(w2, w1), x0)
    assert via_act.p == direct.p
    assert via_act.x == direct.x
    assert pi_c(pd, via_act) == pi_c(pd, direct)


def test_mu_equivariance_seeded():
    pd = standard_parabolic("A2", frozenset({1}))
    alg = pd.alg
    rng = random.Random("mu-eq")
    x0 = _q(frac_rows(pd.p_derived_perp)[0])
    pt = make_uc_point(pd, IDENTITY_WORD, x0)
    for _ in range(10):
        w = random_word(alg, rng, length=3)
        assert act_uc_point(pd, w, pt).x == act_vector(alg, w, pt.x)


def _all_roots(alg):
    return list(alg.positive_roots) + [tuple(-c for c in r) for r in alg.positive_roots]


def _ad_power_columns(alg, root, k):
    """ad(e)^k / k! on each basis vector, through alg.bracket."""
    e = alg.one_hot(alg.index_of_root_vector(root))
    cols = []
    for j in range(alg.dim):
        x = alg.one_hot(j)
        for m in range(1, k + 1):
            x = tuple(c / m for c in _frac_bracket(alg, e, x))
        cols.append(x)
    return cols


def _dense(alg, col):
    v = [F(0)] * alg.dim
    for r, n in col:
        v[r] = F(n)
    return tuple(v)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_divided_powers_integral_and_short(label):
    alg = algebra(label)
    longest = 0
    for root in _all_roots(alg):
        powers = _divided_powers(alg, root)
        longest = max(longest, len(powers))
        for k, cols in enumerate(powers, 1):
            # only the nonzero columns are listed, each once, in order
            assert all(col for _, col in cols)
            assert [j for j, _ in cols] == sorted({j for j, _ in cols})
            assert all(type(n) is int and n for _, col in cols for _, n in col)
            listed = dict(cols)
            assert [_dense(alg, listed.get(j, ())) for j in range(alg.dim)] == \
                _ad_power_columns(alg, root, k)
        zero = tuple([F(0)] * alg.dim)
        assert _ad_power_columns(alg, root, len(powers) + 1) == \
            [zero] * alg.dim
    # ad(e)^3 survives only on the G2 short-root strings of length four
    assert longest == (3 if label == "G2" else 2)


def _old_series(alg, root, t, v):
    # the exp(ad) series the divided powers replace
    y = tuple(t * c for c in alg.one_hot(alg.index_of_root_vector(root)))
    acc = list(v)
    term = v
    k = 0
    while any(term):
        k += 1
        term = tuple(c / k for c in _frac_bracket(alg, y, term))
        acc = [a + c for a, c in zip(acc, term)]
    return tuple(acc)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_vector_matches_exp_ad_series(label):
    alg = algebra(label)
    rng = random.Random(f"series:{label}")
    for _ in range(50):
        w = random_word(alg, rng, length=rng.randint(1, 8))
        v = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(alg.dim))
        want = v
        for letter in reversed(w.letters):
            if isinstance(letter, UnipotentLetter):
                want = _old_series(alg, letter.root, letter.t, want)
            else:
                want = _act(alg, word_of(letter), want)
        assert _act(alg, w, v) == want


def _patched_a1(j, terms):
    # A1 with the bracket [e, basis j] replaced
    alg = algebra("A1")
    table = [list(row) for row in alg.table]
    table[0][j] = terms
    return dataclasses.replace(alg, table=tuple(tuple(r) for r in table))


def test_divided_powers_audit_rejects_non_integral_constants():
    f = algebra("A1").one_hot(2)
    w = _w_unip((1,), 1)
    half = _patched_a1(2, ((1, F(1, 2)),))  # [e, f] = h/2
    with pytest.raises(ConstructionAuditError,
                       match=r"A1: ad\(e\(a1\)\)\^1 / 1! has a non-integral"):
        act_vector(half, w, (f, 1))
    # [e, h] = -e keeps ad(e) integral but makes ad(e)^2 f / 2 = -e/2
    odd = _patched_a1(1, ((0, F(-1)),))
    with pytest.raises(ConstructionAuditError,
                       match=r"A1: ad\(e\(a1\)\)\^2 / 2! has a non-integral"):
        act_vector(odd, w, (f, 1))


@pytest.mark.parametrize("root", [(2, 0), (1, 1, 0), (1,), (1, -1)])
def test_letter_on_a_non_root_raises_naming_it(root):
    alg = algebra("A2")
    with pytest.raises(ValueError, match=re.escape(f"{root!r} is not a root of A2")):
        act_vector(alg, _w_unip(root, 1), (alg.one_hot(0), 1))
    # also where act_subspace reads the letter only to see if it fixes s
    pd = standard_parabolic("A2", frozenset())
    torus = TorusLetter((F(2), F(3)))
    for s in (pd.p, pd.u, Subspace.zero(alg.dim)):
        with pytest.raises(ValueError, match=re.escape(f"{root!r} is not a root of A2")):
            act_subspace(alg, word_of(UnipotentLetter(root, F(1)), torus), s)


@pytest.mark.parametrize("root", [(1.0, 0), (True, 0), [1, 0], (F(1), 0)])
def test_letter_root_must_be_a_tuple_of_exact_ints(root):
    # the letter cache and the root lookup would read (1.0, 0) and
    # (True, 0) as (1, 0)
    with pytest.raises(TypeError, match="must be a tuple of ints"):
        UnipotentLetter(root, 1)


def test_act_vector_rejects_wrong_length():
    alg = algebra("A2")
    short = (1,) * (alg.dim - 1)
    for w in (_w_unip((1, 0), 1), word_of(TorusLetter((F(2), F(3))))):
        with pytest.raises(ValueError, match="algebra dimension"):
            act_vector(alg, w, (short, 1))
        with pytest.raises(ValueError, match="algebra dimension"):
            act_vector(alg, w, (short + (0, 0), 1))
    # a torus letter needs one parameter per simple root, in either direction
    for params in ((F(2),), (F(2), F(3), F(5))):
        for inverse in (False, True):
            with pytest.raises(ValueError, match="parameter count"):
                _act_ints(alg, word_of(TorusLetter(params)), [(short + (0,), 1)],
                          inverse=inverse)


@pytest.mark.parametrize("den", [0, -1, -2])
def test_act_vector_rejects_nonpositive_denominators(den):
    alg = algebra("A2")
    for w in (IDENTITY_WORD, _w_unip((1, 0), 1)):
        with pytest.raises(ValueError, match="denominator must be positive"):
            act_vector(alg, w, (alg.one_hot(0), den))


@pytest.mark.parametrize("den", [0, -1, -3])
def test_act_roundtrip_rejects_nonpositive_denominators(den):
    # over den <= 0 the way back still equals x, so the record would pass
    alg = algebra("A2")
    x = tuple(range(1, alg.dim + 1))
    for w in (IDENTITY_WORD, _w_unip((1, 0), 1)):
        with pytest.raises(ValueError, match="denominator must be positive"):
            act_roundtrip(alg, [w], (x, den))


@pytest.mark.parametrize("den", [0, -1, -2])
def test_twist_section_rejects_nonpositive_denominators(den):
    pd = standard_parabolic("A2", frozenset({1}))
    with pytest.raises(ValueError, match="denominator must be positive"):
        twist_section(pd, ((1,), den))


@pytest.mark.parametrize("gamma, nums", [({1}, (1, 5, 7)), ({1}, ()),
                                         ({1, 2}, (3,))])
def test_twist_section_rejects_levels_of_the_wrong_length(gamma, nums):
    # a level longer than the torus rank once lost its extra coordinates,
    # and a shorter one read as the zero section
    pd = standard_parabolic("A2", frozenset(gamma))
    with pytest.raises(ValueError, match="twist level has wrong length"):
        twist_section(pd, (nums, 1))
    with pytest.raises(ValueError, match="twist level has wrong length"):
        canonical_id(pd, IDENTITY_WORD, [(nums, 1)])
    with pytest.raises(ValueError, match="twist level has wrong length"):
        invariance_pairing_square(pd, _w_unip((0, -1), 1), [(nums, 1)])


@pytest.mark.parametrize("level", [((0.5,), 1), ((Fraction(1, 2),), 1),
                                   ((True,), 1), ((1,), 1.0), ((1,), Fraction(1))])
def test_twist_section_takes_only_int_levels(level):
    # a float or Fraction numerator once came back in the section's numerators
    pd = standard_parabolic("A2", frozenset({1}))
    with pytest.raises(TypeError, match="twist level must be ints"):
        twist_section(pd, level)
    with pytest.raises(TypeError, match="twist level must be ints"):
        canonical_id(pd, IDENTITY_WORD, [level])
    with pytest.raises(TypeError, match="twist level must be ints"):
        invariance_pairing_square(pd, _w_unip((0, -1), 1), [level])


@pytest.mark.parametrize("den", [0, -1, -2])
def test_invariance_pairing_square_rejects_nonpositive_denominators(den):
    # over den <= 0 both routes would give equal pairs, so the square would pass
    pd = standard_parabolic("A2", frozenset({1}))
    for w in (IDENTITY_WORD, _w_unip((0, -1), 1)):
        with pytest.raises(ValueError, match="denominator must be positive"):
            invariance_pairing_square(pd, w, [((1,), den)])


def test_fiber_dimension_reads_short_on_a_wrong_transport():
    # the witness of a point made by w is swapped for another word: the
    # perp of w p and the nilradical moved by the other word disagree
    pd = standard_parabolic("A2", frozenset())
    pt = _moved_point(pd, [1, -2], "fiber")
    assert fiber_dimension(pd, pt) == 6
    other = _w_unip((-1, 0), 1)
    moved_u = act_subspace(pd.alg, other, pd.u)
    perp = intrinsic_quotients(pd, pt.p)[0].divisor
    assert perp == act_subspace(pd.alg, pt.witness, pd.u) != moved_u
    # dim C + dim u less dim(A + B) - dim(A & B), the sum and the meet
    # built here by span and by the annihilating equations
    both = qspan(frac_rows(perp) + frac_rows(moved_u), pd.alg.dim)
    expected = 3 + 3 - (both.dim - meet(perp, moved_u).dim)
    assert fiber_dimension(pd, dataclasses.replace(pt, witness=other)) == expected < 6


_ALL_CASES = [(label, frozenset(gamma)) for label in SUPPORTED_TYPES
              for r in range(int(label[1:]) + 1)
              for gamma in itertools.combinations(range(1, int(label[1:]) + 1), r)]


def _class_map_kernel(pd):
    """Kernel of x -> class_of(twist space, x) on [p,p]-perp.  Projector row
    k is the class of the total's k-th echelon row, so the class of its
    integer row k is that row's pivot entry times projector row k."""
    t, n = pd.twist_space.total, pd.alg.dim
    proj, _ = pd.twist_space.projector
    classes = [[r[p] * c for c in cls] for r, p, cls in zip(t.ints, t.pivots, proj)]
    coeffs = kernel(zip(*classes), t.dim)  # one equation per class coordinate
    return span([[sum(c * r[j] for c, r in zip(coef, t.ints)) for j in range(n)]
                 for coef in coeffs.ints], n)


@pytest.mark.parametrize("label,gamma", _ALL_CASES,
                         ids=[format_case(*c) for c in _ALL_CASES])
def test_intrinsic_quotients_match_dossier(label, gamma):
    # the dossier answers at its own p with its own quotients; the
    # transported-p route, run at that p from another dossier of the algebra,
    # rebuilds them by killing_quotients and passes the p-perp guard; and the
    # twist divisor read off p, the fiber's u-directions, is the nilradical
    # and the kernel of the class map on [p,p]-perp, found by a second
    # elimination
    pd = standard_parabolic(label, gamma)
    other = standard_parabolic(label, gamma ^ {1})
    assert other.p != pd.p
    twist, a_p = intrinsic_quotients(pd, pd.p)
    assert twist is pd.twist_space and a_p is pd.a_p
    assert killing_quotients(pd.alg, pd.p) == intrinsic_quotients(other, pd.p) == (twist, a_p)
    assert _class_map_kernel(pd) == pd.twist_space.divisor == pd.u


def test_uc_invariant_at_standard_p_reads_dossier():
    pd = standard_parabolic("B2", frozenset({1}))
    x0 = _q(frac_rows(pd.p_derived_perp)[0])
    before = intrinsic_quotients.cache_info()
    pt = make_uc_point(pd, IDENTITY_WORD, x0)
    assert pt.p == pd.p
    after = intrinsic_quotients.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def _torus_per_component(alg, letter, v):
    # a torus letter as one Fraction monomial per component
    out = list(v)
    for i, c in enumerate(v):
        w = alg.basis_weights[i]
        if c and w is not None:
            scale = F(1)
            for q, e in zip(letter.params, w):
                scale *= q ** e
            out[i] = c * scale
    return tuple(out)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_torus_matches_per_component_scaling(label):
    # each letter and its in-place inverse, whose parameters are read as
    # b / a with the sign moved to a; negative non-unit parameters at odd
    # exponents make negative factor scales
    alg = algebra(label)
    rng = random.Random(f"torus:{label}")
    signed = (F(-2), F(-1, 2), F(-3, 5), F(7, 4))
    letters = [TorusLetter(tuple(rng.choice(signed) for _ in range(alg.rank)))
               for _ in range(6)]
    letters += [TorusLetter((q,) * alg.rank) for q in signed]
    for _ in range(50):
        w = random_word(alg, rng, length=rng.randint(1, 8))
        letters += [l for l in w.letters if isinstance(l, TorusLetter)]
    assert len(letters) >= 30
    for letter in letters:
        inverted = TorusLetter(tuple(1 / q for q in letter.params))
        for _ in range(2):
            v = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim))
            assert _act(alg, word_of(letter), v) == _torus_per_component(alg, letter, v)
            [back] = _act_ints(alg, word_of(letter), [_q(v)], inverse=True)
            assert _frac(back) == _torus_per_component(alg, inverted, v)


def _bracket_space_full_loop(alg, a, b):
    # every pairwise bracket by the Fraction accumulator, which shares no
    # code with the integer core that bracket_space runs
    return qspan([_bracket_by_fractions(alg, x, y) for x in frac_rows(a) for y in frac_rows(b)],
                 alg.dim)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_bracket_space_with_itself_matches_full_loop(label):
    alg = algebra(label)
    rng = random.Random(f"bracket-space:{label}")
    pd = standard_parabolic(label, frozenset({1}))
    w = random_word(alg, rng, length=4)
    for s in (pd.p, pd.u, act_subspace(alg, w, pd.p), act_subspace(alg, w, pd.u)):
        assert alg.bracket_space(s) == _bracket_space_full_loop(alg, s, s)
    assert alg.bracket_space(pd.p) == pd.p_derived


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_bracket_space_of_mixed_unit_and_dense_rows_matches_full_loop(label):
    # subspaces whose canonical rows mix unit rows, whose brackets seed the
    # elimination, with dense rows, whose brackets are inserted; bracket_space
    # answers a == b, the two-subspace helper of the parabolic oracles a != b
    alg = algebra(label)
    rng = random.Random(f"bracket-space-mixed:{label}")
    mixed = []
    for _ in range(3):
        units = set(rng.sample(range(alg.dim), alg.dim // 2))
        # dense rows off the unit columns, fewer than half as many as the
        # columns they use, so their canonical rows stay dense
        rest = alg.dim - len(units)
        dense = [[0 if i in units else rng.choice((-2, -1, 1, 2)) for i in range(alg.dim)]
                 for _ in range(rest // 2)]
        s = span([alg.one_hot(i) for i in units] + dense, alg.dim)
        assert any(len([x for x in r if x]) == 1 for r in s.ints)
        assert any(len([x for x in r if x]) > 1 for r in s.ints)
        mixed.append(s)
    pd = standard_parabolic(label, frozenset({1}))
    for a, b in ((mixed[0], mixed[0]), (mixed[0], mixed[1]), (mixed[2], pd.u),
                 (pd.levi, mixed[1]), (mixed[1], mixed[1]), (mixed[2], mixed[2])):
        want = _bracket_space_full_loop(alg, a, b)
        assert _bracket_span(alg, a, b) == want
        if a == b:
            assert alg.bracket_space(a) == want


def test_bracket_space_at_each_uc_family_point_matches_full_loop(monkeypatch):
    # every [p', p'] the uc-family points loop builds at a transported p'
    # (through intrinsic_quotients), on the rank-1/2 cases and the rank-3
    # Borels
    cases = [c for c in default_case_matrix()
             if c.type_label in ("A1", "A2", "B2", "G2") or not c.gamma]
    real = ChevalleyAlgebra.bracket_space
    calls = []

    def spy(alg, s):
        out = real(alg, s)
        calls.append((alg, s, out))
        return out

    bundles.intrinsic_quotients.cache_clear()
    try:
        monkeypatch.setattr(ChevalleyAlgebra, "bracket_space", spy)
        results = run_suite("uc-family", cases)
    finally:
        bundles.intrinsic_quotients.cache_clear()
    assert all(r.status == "pass" for r in results)
    moved = [(alg, a, out) for alg, a, out in calls if a.ints != tuple(
        alg.one_hot(i) for i in a.pivots)]
    assert len(moved) >= len(cases)
    for alg, a, out in moved:
        assert out == _bracket_space_full_loop(alg, a, a)


def _solve(a, cols, b):
    # one solution of a @ x = b for the rows a, free variables zero, read off
    # the RREF of [a | b]
    r, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)], cols + 1)
    assert cols not in pivots, "inconsistent system"
    x = [F(0)] * cols
    for k, p in enumerate(pivots):
        x[p] = r[k][cols]
    return tuple(x)


def _class_by_solve(q, v):
    # the per-call solve that the projector replaces
    cols = _section_rows(q) + list(frac_rows(q.divisor))
    if not cols:
        return ()
    system = [[row[i] for row in cols] for i in range(q.total.ambient_dim)]
    return _solve(system, len(cols), v)[:q.dim]


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_class_of_projector_matches_solve(label):
    alg = algebra(label)
    rng = random.Random(f"projector:{label}")
    for _ in range(3):
        gamma = frozenset(i for i in range(1, alg.rank + 1) if rng.random() < 0.5)
        pd = standard_parabolic(label, gamma)
        w = random_word(alg, rng, length=rng.randint(1, 4))
        twist, a_p = intrinsic_quotients(pd, act_subspace(alg, w, pd.p))
        for q in (twist, a_p):
            rows = frac_rows(q.total)
            vecs = list(rows)
            for _ in range(3):
                coeffs = [F(rng.randint(-3, 3)) for _ in rows]
                vecs.append(tuple(sum((c * r[i] for c, r in zip(coeffs, rows)), F(0))
                                  for i in range(alg.dim)))
            for v in vecs:
                nums, den = _clear_denominators(v)
                for d in (den, 2 * den, 6 * den):  # den > 1 too
                    assert _frac(class_of(q, nums, d)) == \
                        _class_by_solve(q, tuple(F(c, d) for c in nums))


def _perp_by_fraction_gram(alg, s):
    # the route killing_perp replaces: Fraction rows times the gram
    g = alg.killing_gram
    return kernel([_clear_denominators([sum((r[k] * g[k, j] for k in range(alg.dim)), F(0))
                                        for j in range(alg.dim)])[0] for r in frac_rows(s)],
                  alg.dim)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_killing_perp_matches_fraction_gram_route(label):
    alg = algebra(label)
    rng = random.Random(f"killing-perp:{label}")
    pd = standard_parabolic(label, frozenset({1}))
    moved = act_subspace(alg, random_word(alg, rng, length=4), pd.p)
    for s in (pd.p, pd.p_derived, pd.u, moved):
        assert alg.killing_perp(s) == _perp_by_fraction_gram(alg, s)
    with pytest.raises(DimensionMismatch):
        alg.killing_perp(Subspace.full(alg.dim + 1))


def _old_random_word(alg, rng, length, roots=None):
    # the construction random_word replaces: a fresh root list per word and
    # a copy of it per letter
    if roots is None:
        roots = _all_roots(alg)
    letters = []
    for _ in range(length):
        if rng.random() < 0.25:
            letters.append(TorusLetter(tuple(
                rng.choice(_PARAM_CHOICES) for _ in range(alg.rank))))
        else:
            letters.append(UnipotentLetter(rng.choice(list(roots)),
                                           rng.choice(_T_CHOICES)))
    return GroupWord(tuple(letters))


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_random_word_draws_match_old_construction(label):
    alg = algebra(label)
    pd = standard_parabolic(label, frozenset({1}))
    levi = [alg.positive_roots[k] for k in range(alg.num_positive)]
    levi += [tuple(-c for c in alg.positive_roots[k]) for k in pd.levi_root_positions]
    new, old = random.Random(f"words:{label}"), random.Random(f"words:{label}")
    for k in range(40):
        assert random_word(alg, new, 1 + k % 8) == _old_random_word(alg, old, 1 + k % 8)
        assert stabilizer_word(pd, new, 3) == _old_random_word(alg, old, 3, levi)
    assert new.random() == old.random()
    # the Levi-restricted table holds the full table's rows, not copies
    full = bundles._letter_table(alg, None)
    table = bundles._letter_table(alg, pd.levi_root_positions)
    assert len(table) == len(levi) and {id(r) for r in table} <= {id(r) for r in full}


def _act_by_fractions(alg, w, v):
    # letter by letter over Fractions: the exp(ad) series and the
    # per-component torus monomials
    v = tuple(F(c) for c in v)
    for letter in reversed(w.letters):
        if isinstance(letter, UnipotentLetter):
            v = _old_series(alg, letter.root, letter.t, v)
        else:
            v = _torus_per_component(alg, letter, v)
    return v


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_vector_on_int_fraction_and_mixed_input(label):
    alg = algebra(label)
    rng = random.Random(f"act-ints:{label}")
    for _ in range(20):
        w = random_word(alg, rng, length=rng.randint(1, 6))
        ints = tuple(rng.randint(-4, 4) for _ in range(alg.dim))
        fracs = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim))
        mixed = tuple(x if k % 2 else y for k, (x, y) in enumerate(zip(ints, fracs)))
        for v in (ints, fracs, mixed):
            got = act_vector(alg, w, _q(v))
            assert _frac(got) == _act_by_fractions(alg, w, v)
            assert act_vector(alg, IDENTITY_WORD, _q(v)) == _q(v)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_ints_returns_lowest_terms(label):
    alg = algebra(label)
    rng = random.Random(f"act-lowest:{label}")
    # half-integer times and parameters leave common factors to divide out
    halves = [UnipotentLetter(r, F(1, 2)) for r in _all_roots(alg)]
    halves.append(TorusLetter((F(1, 2),) * alg.rank))
    for _ in range(20):
        w = concat(random_word(alg, rng, length=3),
                   word_of(*rng.sample(halves, 2)))
        nums = [rng.randint(-4, 4) * 2 for _ in range(alg.dim)]
        [(got, den)] = _act_ints(alg, w, [(nums, 2)])
        assert all(type(x) is int for x in got) and type(den) is int
        assert den > 0 and math.gcd(den, *got) == 1
        assert tuple(F(x, den) for x in got) == \
            _act_by_fractions(alg, w, [F(x, 2) for x in nums])


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_invariance_membership_matches_quotient_perp(label):
    # kills_derived answers from p's rows alone; the oracle is the
    # [p,p]-perp that intrinsic_quotients rebuilds at p
    alg = algebra(label)
    rng = random.Random(f"membership:{label}")
    checked = rejected = 0
    for gamma in (frozenset(), frozenset({1})):
        pd = standard_parabolic(label, gamma)
        for _ in range(3):
            w = random_word(alg, rng, length=3)
            p = act_subspace(alg, w, pd.p)
            pdp = intrinsic_quotients(pd, p)[0].total
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in frac_rows(pd.p_derived_perp)]
            x = act_vector(alg, w, _q(tuple(
                sum((c * r[i] for c, r in zip(coeffs, frac_rows(pd.p_derived_perp))), F(0))
                for i in range(alg.dim))))
            # basis vectors pairing with [p, p] push x out of its perp
            outside = [i for i in range(alg.dim) if not pdp.contains(alg.one_hot(i))]
            assert outside
            cands = [x] + [_q(tuple(a + b for a, b in zip(_frac(x), alg.one_hot(i))))
                           for i in rng.sample(outside, min(3, len(outside)))]
            cands.append(_q(tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                                  for _ in range(alg.dim))))
            for v in cands:
                want = pdp.contains(v[0])
                assert alg.kills_derived(p, v[0]) == want
                checked += 1
                if not want:
                    rejected += 1
                    with pytest.raises(PointInvariantError, match="Killing-orthogonal"):
                        _verify_uc_invariant(pd, p, v)
            assert alg.kills_derived(p, x[0])
            _verify_uc_invariant(pd, p, x)
            for v in ((x[0][:-1], x[1]), (x[0] + (0,), x[1])):
                with pytest.raises(DimensionMismatch):
                    _verify_uc_invariant(pd, p, v)
    assert rejected >= checked // 2


def test_uc_point_off_standard_p_leaves_quotient_cache_alone():
    pd = standard_parabolic("B2", frozenset({1}))
    x0 = _q(frac_rows(pd.p_derived_perp)[0])
    w = _w_unip((0, -1), 2)  # -a2 lies outside the Levi of {1}
    before = intrinsic_quotients.cache_info()
    pt = make_uc_point(pd, w, x0)
    moved = act_uc_point(pd, _w_unip((-1, -1), 1), pt)
    assert pt.p != pd.p and moved.p not in (pd.p, pt.p)
    assert intrinsic_quotients.cache_info() == before


def _roundtrip_by_fractions(alg, w, winv, x):
    # letter by letter over Fractions, the explicit inverse word winv
    y = _act_by_fractions(alg, w, x)
    return (_act_by_fractions(alg, winv, y) == tuple(F(c) for c in x)
            and _frac_killing(alg, y, y) == _frac_killing(alg, x, x))


def _tampered_words(rng, w):
    # one letter dropped; one unipotent t negated, when there is one
    letters = list(w.letters)
    k = rng.randrange(len(letters))
    out = [GroupWord(tuple(letters[:k] + letters[k + 1:]))]
    unip = [j for j, l in enumerate(letters) if isinstance(l, UnipotentLetter)]
    if unip:
        j = rng.choice(unip)
        letters[j] = UnipotentLetter(letters[j].root, -letters[j].t)
        out.append(GroupWord(tuple(letters)))
    return out


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_roundtrip_matches_fraction_route(label, monkeypatch):
    alg = algebra(label)
    rng = random.Random(f"roundtrip:{label}")
    x = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim))
    ints = tuple(rng.randint(-4, 4) for _ in range(alg.dim))
    assert _frac_killing(alg, x, x) != 0
    words = [random_word(alg, rng, length=rng.randint(1, 8)) for _ in range(12)]
    for v in (x, ints):
        assert act_roundtrip(alg, words + [IDENTITY_WORD], _q(v)) == [True] * 13
        for w in words + [IDENTITY_WORD]:
            assert _roundtrip_by_fractions(alg, w, _inverse(w), v)

    real_act = bundles._act_ints
    tampered = failed = 0
    for w in words:
        for bad in _tampered_words(rng, w):
            def tampered_inverse(alg_, w_, vecs, inverse=False, bad=bad):
                # the in-place inverse run on the tampered word
                return real_act(alg_, bad if inverse else w_, vecs, inverse=inverse)

            with monkeypatch.context() as m:
                m.setattr(bundles, "_act_ints", tampered_inverse)
                [got] = act_roundtrip(alg, [w], _q(x))
            assert got == _roundtrip_by_fractions(alg, w, _inverse(bad), x)
            tampered += 1
            failed += not got
    assert failed >= tampered - 2

    w = words[0]

    def perturbed(alg_, w_, vecs, inverse=False):
        # the forward image moved by one basis vector
        [(nums, den)] = real_act(alg_, w_, vecs, inverse=inverse)
        if not inverse:
            nums = [c + den * (i == 0) for i, c in enumerate(nums)]
        return [(nums, den)]

    def scaled(alg_, w_, vecs, inverse=False):
        # the forward image doubled and the way back halved: the vector
        # returns, so only the Killing comparison can see it
        [(nums, den)] = real_act(alg_, w_, vecs, inverse=inverse)
        s = F(1, 2) if inverse else 2
        return [_q([F(c, den) * s for c in nums])]

    for fake in (perturbed, scaled):
        with monkeypatch.context() as m:
            m.setattr(bundles, "_act_ints", fake)
            assert act_roundtrip(alg, [w], _q(x)) == [False]


def test_act_roundtrip_clears_and_pairs_x_once(monkeypatch):
    # x is brought to lowest terms and paired once for all the words, and
    # each image is brought to lowest terms once per word and direction
    alg = algebra("B2")
    rng = random.Random("roundtrip:once")
    x = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim))
    words = [random_word(alg, rng, length=3) for _ in range(6)]
    nums, den = _q(x)
    lowered, paired = [], []
    # every pairing, checked or not, goes through the integer pairing
    real_lowest, real_pair = bundles._lowest, type(alg)._killing_ints

    def lowest(nums, den):
        lowered.append((tuple(nums), den))
        return real_lowest(nums, den)

    def pair(self, xs, ys):
        paired.append(xs)
        return real_pair(self, xs, ys)

    monkeypatch.setattr(bundles, "_lowest", lowest)
    monkeypatch.setattr(type(alg), "_killing_ints", pair)
    assert act_roundtrip(alg, words, ([3 * c for c in nums], 3 * den)) == \
        [True] * len(words)
    # x once, then one pairing of each image
    assert lowered[0] == ((tuple(3 * c for c in nums)), 3 * den)
    assert len(lowered) == 1 + 2 * len(words)
    assert len(paired) == 1 + len(words)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_ints_on_many_vectors_matches_one_at_a_time(label):
    # a letter's powers and torus multipliers are shared by all the vectors
    alg = algebra(label)
    rng = random.Random(f"act-many:{label}")
    for _ in range(10):
        torus = TorusLetter(tuple(rng.choice((F(2), F(-1, 3), F(3, 2)))
                                  for _ in range(alg.rank)))
        w = concat(random_word(alg, rng, length=3), word_of(torus))
        vecs = [([rng.randint(-4, 4) for _ in range(alg.dim)], rng.randint(1, 3))
                for _ in range(4)]
        got = _act_ints(alg, w, vecs)
        assert got == [_act_ints(alg, w, [v])[0] for v in vecs]
        for (nums, den), (v, d) in zip(got, vecs):
            assert tuple(F(c, den) for c in nums) == \
                _act_by_fractions(alg, w, [F(c, d) for c in v])


def _letter_by_terms(alg, root, a, b, nums):
    # the loop the compiled letter replaces: each D_k applied with its own
    # a^k b^(K-k), over b^K
    powers = _divided_powers(alg, root)
    top = len(powers)
    out = [x * b ** top for x in nums]
    for k, cols in enumerate(powers, 1):
        tk = a ** k * b ** (top - k)
        for j, col in cols:
            if x := nums[j]:
                for r, n in col:
                    out[r] += n * tk * x
    return out, b ** top


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_compiled_unipotent_letter_matches_divided_power_terms(label):
    # a letter holds each audited D_k itself, not a copy, with its t-power,
    # and applies sum_k t^k D_k over b^K to every basis vector
    alg = algebra(label)
    for root in _all_roots(alg):
        powers = _divided_powers(alg, root)
        top = len(powers)
        for t in _T_CHOICES + tuple(-t for t in _T_CHOICES):
            a, b = t.as_integer_ratio()
            scale, terms, mults = _unipotent_letter(alg, root, a, b)
            assert mults is None and scale == b ** top and len(terms) == top
            for k, ((tk, dk), d) in enumerate(zip(terms, powers), 1):
                assert dk is d and tk == a ** k * b ** (top - k)
            w = word_of(UnipotentLetter(root, t))
            for j in range(alg.dim):
                e_j = [int(i == j) for i in range(alg.dim)]
                assert _act_ints(alg, w, [(e_j, 1)]) == \
                    [bundles._lowest(*_letter_by_terms(alg, root, a, b, e_j))]


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_ints_inverse_matches_explicit_inverse_word(label):
    # -1 and -1/3 at odd exponents make a negative scale that the in-place
    # inverse normalises to a positive denominator
    alg = algebra(label)
    rng = random.Random(f"act-inverse:{label}")
    params = (F(-1), F(-1, 3), F(5))
    for _ in range(10):
        torus = TorusLetter(tuple(rng.choice(params) for _ in range(alg.rank)))
        w = concat(concat(random_word(alg, rng, length=3), word_of(torus)),
                   random_word(alg, rng, length=2))
        vecs = [([rng.randint(-4, 4) for _ in range(alg.dim)], rng.randint(1, 3))
                for _ in range(3)]
        for (nums, den), (v, d) in zip(_act_ints(alg, w, vecs, inverse=True), vecs):
            assert den > 0 and math.gcd(den, *nums) == 1
            assert tuple(F(c, den) for c in nums) == \
                _act_by_fractions(alg, _inverse(w), [F(c, d) for c in v])


# torus parameters whose odd exponents make negative scales
_SIGNED_PARAMS = (F(-1), F(-1, 3), F(5))


@st.composite
def _words_and_vectors(draw):
    label = draw(st.sampled_from(SUPPORTED_TYPES))
    alg = algebra(label)
    roots = _all_roots(alg)
    letter = st.one_of(
        st.builds(UnipotentLetter, st.sampled_from(roots), st.sampled_from(_T_CHOICES)),
        st.builds(TorusLetter, st.tuples(*[st.sampled_from(_SIGNED_PARAMS)] * alg.rank)))
    n = draw(st.integers(0, 40))
    w = GroupWord(tuple(draw(st.lists(letter, min_size=n, max_size=n))))
    vecs = draw(st.lists(st.tuples(
        st.lists(st.integers(-4, 4), min_size=alg.dim, max_size=alg.dim),
        st.integers(1, 6)), min_size=1, max_size=3))
    return alg, w, vecs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_words_and_vectors())
def test_compiled_words_match_letter_by_letter_fractions(case):
    # one gcd per vector at the end of the word gives the pair that the
    # letter-by-letter Fraction route reaches, in lowest terms, den > 0
    alg, w, vecs = case
    fracs = [[F(x, d) for x in nums] for nums, d in vecs]
    for inverse, word in ((False, w), (True, _inverse(w))):
        got = _act_ints(alg, w, vecs, inverse=inverse)
        assert [_frac(v) for v in got] == [_act_by_fractions(alg, word, v) for v in fracs]


def _act_subspace_whole_word(alg, w, s):
    # every row runs the whole word: the oracle for the letters that
    # act_subspace drops because they fix a coordinate subspace
    if not w.letters:
        return s
    eb = EchelonBuilder(s.ambient_dim)
    for nums, _ in _act_ints(alg, w, [(row, 1) for row in s.ints]):
        eb.insert(nums)
    return eb.subspace()


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_subspace_is_the_span_of_fraction_images(label):
    # coordinate inputs (p, u, the Levi factor) and others (a moved p,
    # [p,p]-perp), under words in P, words in P after a letter that moves
    # p, and random words: the image is the whole word's and the span of
    # the Fraction images of the rows
    alg = algebra(label)
    rng = random.Random(f"act-subspace:{label}")
    lowest = tuple(-c for c in max(alg.positive_roots, key=sum))
    for gamma in sorted({frozenset(), frozenset({1}), frozenset(range(1, alg.rank + 1))},
                        key=sorted):
        pd = standard_parabolic(label, gamma)
        torus = TorusLetter(tuple(rng.choice(_SIGNED_PARAMS) for _ in range(alg.rank)))
        moved_p = act_subspace(alg, random_word(alg, rng, length=3), pd.p)
        words = (stabilizer_word(pd, rng, length=4),
                 concat(word_of(UnipotentLetter(lowest, F(1))), stabilizer_word(pd, rng, 3)),
                 concat(random_word(alg, rng, length=3), word_of(torus)),
                 random_word(alg, rng, length=4))
        for w in words:
            for s in (pd.p, pd.u, pd.levi, moved_p, pd.p_derived_perp):
                got = act_subspace(alg, w, s)
                assert got == _act_subspace_whole_word(alg, w, s)
                assert got == qspan([_act_by_fractions(alg, w, r) for r in frac_rows(s)],
                                    alg.dim)
        assert act_subspace(alg, words[0], pd.p) is pd.p
    # the identity word returns the subspace itself
    assert act_subspace(alg, IDENTITY_WORD, pd.p) is pd.p


def test_act_subspace_rejects_malformed_input_whatever_the_word():
    pd = standard_parabolic("B2", frozenset({1}))
    alg = pd.alg
    fixing = UnipotentLetter(alg.positive_roots[0], F(1))
    moving = UnipotentLetter(tuple(-c for c in max(alg.positive_roots, key=sum)), F(1))
    torus = TorusLetter((F(2), F(3)))
    # a subspace of another Q^n, whatever the word, even one that moves no row
    for w in (IDENTITY_WORD, word_of(torus), word_of(fixing), word_of(moving, fixing)):
        for s in (Subspace.zero(5), Subspace.full(5), Subspace.coordinate(alg.dim + 1, [0])):
            with pytest.raises(DimensionMismatch):
                act_subspace(alg, w, s)
    # a torus letter of the wrong length, among letters that fix p or after
    # one that moves it
    bad = TorusLetter((F(2),))
    for w in (word_of(bad), word_of(bad, fixing), word_of(fixing, bad, torus),
              word_of(moving, bad)):
        for s in (pd.p, pd.u, Subspace.zero(alg.dim), pd.p_derived_perp):
            with pytest.raises(ValueError, match="torus letter has wrong parameter count"):
                act_subspace(alg, w, s)


def test_act_ints_reads_a_one_shot_iterator():
    alg = algebra("B2")
    w = random_word(alg, random.Random("act-iter"), length=4)
    vecs = [([k - j for j in range(alg.dim)], k + 1) for k in range(3)]
    assert _act_ints(alg, w, iter(vecs)) == _act_ints(alg, w, vecs)
    assert len(_act_ints(alg, w, iter(vecs), inverse=True)) == 3
    with pytest.raises(ValueError, match="algebra dimension"):
        _act_ints(alg, w, iter(vecs + [([1], 1)]))


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False, "1"])
def test_floats_and_bools_rejected_where_they_enter(bad):
    pd = standard_parabolic("A2", frozenset())
    root = pd.alg.positive_roots[0]
    with pytest.raises(TypeError):
        UnipotentLetter(root, bad)
    with pytest.raises(TypeError):
        TorusLetter((F(1, 4), bad))
    with pytest.raises(TypeError):
        twist_level(pd, [bad, 2])


def test_ints_and_fractions_accepted_where_they_enter():
    pd = standard_parabolic("A2", frozenset())
    alg = pd.alg
    root = alg.positive_roots[0]
    v = (tuple(range(alg.dim)), 1)
    assert act_vector(alg, word_of(UnipotentLetter(root, 2)), v) == \
        act_vector(alg, word_of(UnipotentLetter(root, F(2))), v)
    assert act_vector(alg, word_of(TorusLetter((3, F(1, 2)))), v) == \
        act_vector(alg, word_of(TorusLetter((F(3), F(1, 2)))), v)
    # parameters given as a list are held as a tuple
    assert TorusLetter([3, F(1, 2)]) == TorusLetter((3, F(1, 2)))
    assert twist_level(pd, [F(1, 2), 2]) == ((1, 4), 2)
    assert twist_level(pd, [F(2, 4), F(1, 3)]) == ((3, 2), 6)
    assert twist_level(pd, iter([1, -2])) == ((1, -2), 1)
