"""Parabolic dossiers against hand-computed dimension tables.

The A1/A2 numbers were derived directly in the 3- and 8-dimensional
Chevalley bases; the B2 gamma={2} block was worked out by hand from the
four positive roots (its nilradical is abelian of dimension 3).
"""
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from liework import parabolic
from liework.chevalley import SUPPORTED_TYPES, ChevalleyAlgebra, algebra
from liework.exactlin import (
    QuotientSpace,
    Subspace,
    VectorOutsideTotal,
    _coordinate_indices,
    class_of,
    quotient,
    smith_normal_form,
    span,
)
from liework.parabolic import (
    ParabolicAuditError,
    RichardsonSearchError,
    _coordinate_span_contains,
    _tangent_rank,
    build_parabolic,
    find_richardson,
    fixedpoint_check,
    h1_witness,
    parse_case,
    richardson_candidate,
    standard_parabolic,
    torus_character_set,
)
from test_chevalley import _bracket_by_fractions, _bracket_span
from test_exactlin import cleared, frac_rows


def test_a1_borel_dimensions():
    pd = build_parabolic(algebra("A1"), frozenset())
    assert pd.p.dim == 2
    assert pd.u.dim == 1
    assert pd.a_p.dim == 1
    assert pd.p_derived_perp.dim == 2
    assert pd.twist_space.dim == 1
    assert pd.torus_rank == 1


def test_a2_borel_dimensions():
    pd = standard_parabolic("A2", frozenset())
    assert (pd.p.dim, pd.u.dim, pd.u_derived.dim) == (5, 3, 1)
    assert (quotient(pd.u, pd.u_derived).dim, pd.a_p.dim, pd.p_derived_perp.dim) == (2, 2, 5)
    assert pd.a_u_dim == 2


def test_full_gamma_everything_collapses():
    pd = standard_parabolic("A2", frozenset({1, 2}))
    assert pd.p.dim == pd.alg.dim
    assert pd.u.dim == 0
    assert pd.a_p.dim == 0
    assert pd.torus_rank == 0
    assert pd.p_derived_perp.dim == 0


def test_b2_gamma2_dimensions_frozen():
    pd = standard_parabolic("B2", frozenset({2}))
    assert pd.p.dim == 7
    assert pd.levi.dim == 4
    assert pd.u.dim == 3
    assert pd.u_derived.dim == 0  # the three u-roots never sum to a root
    assert pd.p_derived.dim == 6
    assert pd.p_derived_perp.dim == 4
    assert pd.torus_rank == 1


def _dim_c(pd):
    return pd.alg.dim - pd.p.dim


def _leaf(pd):
    # the generic leaf dimension as the build audited it
    return int(next(r.actual for r in pd.audit if r.name == "leaf-twice-codim"))


def test_dossier_dimensions_a2_borel():
    pd = standard_parabolic("A2", frozenset())
    assert _dim_c(pd) == 3
    assert _dim_c(pd) + pd.p_derived_perp.dim == 8  # dim U_C
    assert _leaf(pd) == 6


def test_dossier_dimensions_a2_gamma1():
    pd = standard_parabolic("A2", frozenset({1}))
    assert pd.p.dim == 6
    assert _dim_c(pd) == 2
    assert pd.p_derived_perp.dim == 3
    assert pd.torus_rank == 1
    assert _dim_c(pd) + pd.p_derived_perp.dim == 5  # dim U_C
    assert _leaf(pd) == 4


def test_dossier_dimensions_full_gamma():
    pd = standard_parabolic("B2", frozenset({1, 2}))
    assert _dim_c(pd) == 0
    assert _leaf(pd) == 0


def test_leaf_always_twice_codim():
    for label in ("A1", "A2", "B2", "G2"):
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                # the record is dim U_C less the torus rank
                assert _leaf(pd) == (_dim_c(pd) + pd.p_derived_perp.dim
                                     - pd.torus_rank)
                assert _leaf(pd) == 2 * _dim_c(pd)


def test_coordinate_subspaces_match_spans_of_one_hots():
    # the basis vectors of p, the levi and u, read off their weights: the
    # Cartan, the roots supported on gamma, and the positive roots outside
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                levi = [i for i, w in enumerate(alg.basis_weights)
                        if w is None or all(c == 0 or k + 1 in gamma
                                            for k, c in enumerate(w))]
                u = [i for i, w in enumerate(alg.basis_weights)
                     if i not in levi and w is not None and min(w) >= 0]
                for got, idx in ((pd.p, levi + u), (pd.levi, levi), (pd.u, u)):
                    want = span([alg.one_hot(i) for i in idx], alg.dim)
                    assert got == want and got.pivots == want.pivots


def _all_ints(rows):
    return all(type(x) is int for r in rows for x in r)


def test_dossier_and_certificate_coordinates_are_ints():
    # every subspace and quotient of every dossier, and every Richardson
    # certificate, over all 54 cases: integer coordinates, positive
    # section and projector denominators; u/[u,u], which the dossier reads
    # by its dimension only, is built here
    subspaces = quotients = 0
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                cert = find_richardson(pd)
                values = [getattr(pd, f.name) for f in dataclasses.fields(pd)]
                spaces = [v for v in values if isinstance(v, Subspace)] + [cert.tangent]
                for q in [v for v in values if isinstance(v, QuotientSpace)] + [
                        quotient(pd.u, pd.u_derived)]:
                    rows, den = q.section
                    prows, pden = q.projector
                    assert type(den) is int and den > 0
                    assert type(pden) is int and pden > 0
                    assert _all_ints(rows) and _all_ints(prows)
                    spaces += [q.total, q.divisor]
                    quotients += 1
                for s in spaces:
                    assert _all_ints(s.ints) and _all_ints([s.pivots])
                    subspaces += 1
                assert _all_ints([cert.element])
    # 7 Subspace fields, the tangent, and total and divisor of 3 quotients,
    # 2 of them fields
    assert quotients == 3 * 54 and subspaces == 14 * 54


def test_richardson_a2_borel_is_all_ones():
    pd = standard_parabolic("A2", frozenset())
    cert = find_richardson(pd)
    assert cert.tangent == pd.u
    support = [i for i, c in enumerate(cert.element) if c]
    assert support == list(pd.u_root_positions)
    assert all(cert.element[i] == 1 for i in support)


def test_richardson_a2_gamma1():
    pd = standard_parabolic("A2", frozenset({1}))
    cert = find_richardson(pd)
    assert cert.tangent == pd.u
    assert cert.tangent.dim == 2


def test_richardson_full_gamma_vacuous():
    pd = standard_parabolic("A3", frozenset({1, 2, 3}))
    cert = find_richardson(pd)
    assert cert.tangent == pd.u
    assert cert.element == tuple([0] * pd.alg.dim)
    assert cert.tangent.dim == 0


def test_richardson_all_supported_cases():
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                cert = find_richardson(pd)
                assert cert.tangent == pd.u, f"{label}:{gamma}"
                assert cert.tangent.dim == pd.u.dim


def test_richardson_certificate_a1():
    pd = standard_parabolic("A1", frozenset())
    cert = find_richardson(pd)
    assert cert.smith_invariants == (1,)
    assert cert.infinitesimal_free and cert.lattice_generating


def test_richardson_certificate_a2_borel():
    pd = standard_parabolic("A2", frozenset())
    cert = find_richardson(pd)
    assert cert.smith_invariants == (1, 1)
    assert cert.infinitesimal_free and cert.lattice_generating


def test_richardson_certificate_a2_gamma1_single_restricted_weight():
    pd = standard_parabolic("A2", frozenset({1}))
    cert = find_richardson(pd)
    charset = torus_character_set(pd, cert.element)
    # both u-roots restrict to the same generator once a1 is deleted
    assert charset.rows == 1
    assert charset.row(0) == (1,)
    assert cert.smith_invariants == (1,)
    assert cert.infinitesimal_free and cert.lattice_generating


def test_richardson_candidate_needs_one_coefficient_per_u_root():
    pd = standard_parabolic("A2", frozenset())
    assert richardson_candidate(pd, [5, 6, 7]) == (5, 6, 7, 0, 0, 0, 0, 0)
    for coeffs in ([5], [5, 6, 7, 8], []):
        with pytest.raises(ValueError, match="one per u root"):
            richardson_candidate(pd, coeffs)
    for bad in (0.5, Fraction(1, 2), True):
        with pytest.raises(TypeError, match="coefficients must be ints"):
            richardson_candidate(pd, [5, bad, 7])


def test_torus_character_set_needs_a_vector_of_the_algebra():
    pd = standard_parabolic("A2", frozenset())
    assert torus_character_set(pd, (1, 0, 0) + (0,) * 5).rows == 1
    for x in ((1, 0), (1,) + (0,) * 8):
        with pytest.raises(ValueError, match="vector length"):
            torus_character_set(pd, x)


def test_h1_borel_and_full_true():
    assert h1_witness(standard_parabolic("A2", frozenset())) is None
    assert h1_witness(standard_parabolic("A2", frozenset({1, 2}))) is None


def test_h1_a2_gamma1_false_with_witness():
    pd = standard_parabolic("A2", frozenset({1}))
    # [e1, e2] = e12 is the first bracket of a derived Levi row with a u row
    # outside [u,u], which is zero for this gamma
    assert pd.u_derived.dim == 0
    assert h1_witness(pd) == "[e(a1), e(a2)] = e(a1+a2)"


def test_find_richardson_gives_up_after_32_retries(monkeypatch):
    # every candidate's tangent falls short of u: the sum of all root vectors,
    # then 32 seeded retries, and the error names the best dimension reached
    # (the first is rejected outright, as if a bracket left u, and counts for
    # no dimension)
    pd = standard_parabolic("A2", frozenset())
    calls = []

    def short(datum, x):
        calls.append(x)
        return datum.u_derived.dim if len(calls) > 1 else None

    monkeypatch.setattr(parabolic, "_tangent_rank", short)
    find_richardson.cache_clear()
    with pytest.raises(RichardsonSearchError, match="A2:- after 32 retries") as err:
        find_richardson(pd)
    assert len(calls) == 33
    assert err.value.best_tangent_dim == pd.u_derived.dim


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_h1_witness_is_the_first_fraction_bracket(label):
    # the witness named from integer rows equals a scan over the Fraction
    # echelon rows, bracket value included
    alg = algebra(label)
    for r in range(alg.rank + 1):
        for gamma in itertools.combinations(range(1, alg.rank + 1), r):
            pd = standard_parabolic(label, frozenset(gamma))
            brackets = ((a, b, _bracket_by_fractions(alg, a, b))
                        for a in frac_rows(pd.levi_derived) for b in frac_rows(pd.u))
            want = next((f"[{alg.vector_name(a)}, {alg.vector_name(b)}] = "
                         f"{alg.vector_name(v)}" for a, b, v in brackets
                         if not pd.u_derived.contains(cleared(v)[0])), None)
            assert h1_witness(pd) == want


def _every_datum():
    """The standard parabolic datum of each of the 54 cases."""
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                yield standard_parabolic(label, frozenset(gamma))


def _exact_tangent_dim(pd, x):
    return _bracket_span(pd.alg, pd.p, span([x], pd.alg.dim)).dim


def test_fixedpoint_check_everywhere():
    # against the exact span route, [p, [p,p]-perp] built and tested inside
    # u, on every case and on datums whose [p,p]-perp is the whole algebra,
    # where [h, f] leaves u (and [g, g] = g leaves u = 0 at full gamma)
    def exact(pd):
        return pd.u.contains_space(_bracket_span(pd.alg, pd.p, pd.p_derived_perp))

    cases = 0
    for pd in _every_datum():
        assert fixedpoint_check(pd) is exact(pd) is True
        tampered = dataclasses.replace(pd, p_derived_perp=Subspace.full(pd.alg.dim))
        assert fixedpoint_check(tampered) is exact(tampered) is False
        cases += 1
    assert cases == 54


def test_build_parabolic_raises_when_u_derived_leaves_u(monkeypatch):
    # u/[u,u] is read by its dimension, so [u,u] inside u is checked on its
    # own; it raises and adds no audit record
    alg = algebra("A2")
    u = Subspace.coordinate(alg.dim, range(alg.num_positive))  # the Borel's u
    names = [r.name for r in build_parabolic(alg, ()).audit]
    bracket_space = ChevalleyAlgebra.bracket_space

    def leaky(self, s):
        return Subspace.full(self.dim) if s == u else bracket_space(self, s)

    monkeypatch.setattr(ChevalleyAlgebra, "bracket_space", leaky)
    with pytest.raises(ParabolicAuditError, match=r"A2 gamma \[\]: \[u,u\] does not lie in u"):
        build_parabolic(alg, ())
    assert not any("u,u" in n or "a_u" in n for n in names)


def test_coordinate_subset_tests_agree_with_contains_space():
    # build_parabolic tests [p,p]-perp in p and [u,u] in u on p's and u's
    # indices; the eliminating test agrees on every dossier, also where the
    # answer is no, and a row with an entry off the indices reads false
    for pd in _every_datum():
        n = pd.alg.dim
        for c in (pd.p, pd.u, pd.levi):
            assert _coordinate_indices(c) == frozenset(c.pivots)
            for s in (pd.p_derived_perp, pd.u_derived, pd.u, pd.levi):
                assert _coordinate_span_contains(c, s) == c.contains_space(s)
            for j in sorted(set(range(n)).difference(c.pivots))[:3]:
                for k in c.pivots[:2] or (None,):
                    v = [0] * n
                    v[j] = 2
                    if k is not None:
                        v[k] = -3
                    off = span([v], n)
                    assert not _coordinate_span_contains(c, off)
                    assert not c.contains_space(off)
        dense = any(r.count(0) < n - 1 for r in pd.p_derived_perp.ints)
        assert (_coordinate_indices(pd.p_derived_perp) is None) == dense


def test_fixedpoint_check_on_single_unit_rows():
    # one unit row e_i of p against one unit row e_j for [p,p]-perp, on every
    # case: the subset test must read that row's table cell, and agree with
    # the bracket's value tested in u
    pairs = 0
    for pd in _every_datum():
        alg, n = pd.alg, pd.alg.dim
        perps = [Subspace.coordinate(n, [j]) for j in range(n)]
        for i in pd.p.pivots:
            one = dataclasses.replace(pd, p=Subspace.coordinate(n, [i]))
            for j, perp in enumerate(perps):
                inside = pd.u.contains(alg.bracket(alg.one_hot(i), alg.one_hot(j)))
                assert fixedpoint_check(dataclasses.replace(one, p_derived_perp=perp)) is inside
                pairs += 1
    assert pairs == sum(pd.p.dim * pd.alg.dim for pd in _every_datum())


def test_tangent_rank_checks_brackets_after_the_rank_is_full():
    # at each Borel, p plus the unit row f_k of a root in x's support: its row
    # comes last, after [p, x] = u is reached, and [f_k, x] has an h_k part
    for label in SUPPORTED_TYPES:
        pd = standard_parabolic(label, frozenset())
        alg, x = pd.alg, find_richardson(pd).element
        k = next(k for k in pd.u_root_positions if x[k])
        f_k = alg.num_positive + alg.rank + k
        wider = dataclasses.replace(pd, p=span(pd.p.ints + (alg.one_hot(f_k),), alg.dim))
        assert wider.p.pivots[-1] == f_k
        assert _tangent_rank(pd, x) == pd.u.dim
        assert _tangent_rank(wider, x) is None


def test_find_richardson_seed_is_an_int_and_keyed_by_type():
    # True and 1.0 hash and compare equal to 1, so an untyped cache let them
    # share seed 1's entry while seeding their own string ("...:True"): the
    # answer to seed 1 depended on which call came first
    pd = standard_parabolic("C3", frozenset({1}))
    find_richardson.cache_clear()
    want = find_richardson.__wrapped__(pd, 1)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="seed must be an int"):
            find_richardson(pd, bad)
    assert find_richardson(pd, 1) == want


def test_tangent_rank_matches_the_exact_tangent_on_every_searched_candidate(monkeypatch):
    # the exact tangent span [p, x] is the oracle, on every candidate the
    # search tries over the 54 cases at the suites' default seed
    from liework.suites import DEFAULT_SEED
    tried = []

    def recorded(pd, x):
        tried.append((pd, x, _tangent_rank(pd, x)))
        return tried[-1][2]

    monkeypatch.setattr(parabolic, "_tangent_rank", recorded)
    find_richardson.cache_clear()
    for pd in _every_datum():
        find_richardson(pd, seed=DEFAULT_SEED)
    for pd, x, rank in tried:
        assert rank == _exact_tangent_dim(pd, x), (pd.label(), x)
    rejected = sorted({pd.label() for pd, _, rank in tried if rank < pd.u.dim})
    assert len(tried) == 67 and len(rejected) == 13
    assert rejected == ["A3:1,3", "B3:1,3", "C3:1", "C3:1,2", "C3:1,3", "C3:2",
                        "D4:1", "D4:1,2", "D4:1,3", "D4:1,3,4", "D4:1,4", "D4:2",
                        "G2:1"]


def test_tangent_rank_matches_the_exact_tangent_with_zeroed_coefficients():
    # seeded candidates with some coefficients zeroed, 67 of the 162 short
    # of u; the zero element has rank 0
    short = 0
    for pd in _every_datum():
        rng = random.Random(f"zeroed:{pd.label()}")
        for _ in range(3):
            x = richardson_candidate(pd, [rng.choice((0, 0, 1, 3, 7))
                                          for _ in pd.u_root_positions])
            rank = _tangent_rank(pd, x)
            assert rank == _exact_tangent_dim(pd, x), (pd.label(), x)
            short += rank < pd.u.dim
        assert _tangent_rank(pd, (0,) * pd.alg.dim) == 0
    assert short == 67


def test_tangent_rank_rejects_an_element_with_a_bracket_outside_u():
    # [h, f] is a nonzero multiple of f for some h of the Cartan, inside p
    for pd in _every_datum():
        alg = pd.alg
        for k in range(alg.num_positive):
            assert _tangent_rank(pd, alg.one_hot(alg.num_positive + alg.rank + k)) is None


def test_induced_rank_matches_the_class_of_route():
    # the oracle: the rank of the classes of [z, x] in u/[u,u], z an a_p
    # section row, through the quotient's projector
    for pd in _every_datum():
        cert, a_u = find_richardson(pd), quotient(pd.u, pd.u_derived)
        rows = [class_of(a_u, pd.alg.bracket(z, cert.element))[0]
                for z in pd.a_p.section[0]]
        assert cert.induced_rank == (span(rows, a_u.dim).dim if rows else 0)


def test_induced_rank_rejects_a_bracket_outside_u():
    # a datum whose torus quotient is tampered to hold every unit row of g:
    # [f, x] leaves u, and the freeness evidence raises, as class_of does for
    # a vector outside u
    pd = standard_parabolic("A2", frozenset())
    full = Subspace.full(pd.alg.dim)
    tampered = dataclasses.replace(pd, a_p=quotient(full, Subspace.zero(pd.alg.dim)))
    with pytest.raises(VectorOutsideTotal):
        find_richardson(tampered)


def test_parse_case():
    assert parse_case("A3:1,3") == ("A3", frozenset({1, 3}))
    assert parse_case("B2:-") == ("B2", frozenset())
    with pytest.raises(ValueError):
        parse_case("A3")
    with pytest.raises(ValueError):
        parse_case("A3:0")
    with pytest.raises(ValueError):
        parse_case("A3:x")
    assert parse_case("D4:1,2,3,4") == ("D4", frozenset({1, 2, 3, 4}))
    # an index list is read only as format_case writes it
    for text in ("A2:1,1", "A3: 1", "A3:1 ", "A2:+1", "A2:01", "A2:\u0662",
                 "A2:1_0", "A2:", "A2:1,", "A2:,1", "A2:1,,2", "A2:-1"):
        with pytest.raises(ValueError, match="case spec"):
            parse_case(text)


def test_gamma_validation():
    with pytest.raises(ValueError):
        build_parabolic(algebra("A2"), frozenset({3}))


def test_cache_returns_same_object():
    a = standard_parabolic("A2", frozenset({1}))
    b = standard_parabolic("A2", frozenset({1}))
    assert a is b


def test_character_matrix_smith_invariants_full_matrix():
    # freeness lattice certificate across every supported case
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                cert = find_richardson(pd)
                assert cert.lattice_generating, f"{label}:{gamma}"
                assert cert.infinitesimal_free, f"{label}:{gamma}"


def test_freeness_evidence_matches_sympy():
    # every certificate of the 54 cases: the Smith invariants against
    # sympy's Smith normal form of the character rows, and the induced rank
    # as the rank that the brackets [z, x], z an a_p section row, add to
    # [u,u], which reads no class_of
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.domains import ZZ
    cases = 0
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                cert = find_richardson(pd)
                chars = cert.characters
                snf = (sympy_snf(sympy.Matrix([chars.row(i) for i in range(chars.rows)]),
                                 domain=ZZ) if chars.rows else sympy.zeros(0, 0))
                diag = tuple(abs(int(snf[i, i])) for i in range(min(snf.shape)))
                assert cert.smith_invariants == tuple(d for d in diag if d), (label, gamma)
                rows = [*pd.u_derived.ints,
                        *(alg.bracket(z, cert.element) for z in pd.a_p.section[0])]
                rank = sympy.Matrix(rows).rank() if rows else 0
                assert cert.induced_rank == rank - pd.u_derived.dim, (label, gamma)
                cases += 1
    assert cases == 54
