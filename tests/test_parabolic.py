"""Parabolic dossiers against hand-computed dimension tables.

The A1/A2 numbers were derived directly in the 3- and 8-dimensional
Chevalley bases; the B2 gamma={2} block was worked out by hand from the
four positive roots (its nilradical is abelian of dimension 3).
"""
import dataclasses
import itertools

import pytest

from liework.chevalley import SUPPORTED_TYPES, algebra
from liework.exactlin import QuotientSpace, Subspace, smith_normal_form, span
from liework.parabolic import (
    ParabolicAuditError,
    RichardsonCertificate,
    RichardsonSearchError,
    build_parabolic,
    dimension_report,
    find_richardson,
    fixedpoint_check,
    h1_witness,
    hypothesis_h1,
    parse_case,
    standard_parabolic,
    torsor_certificate,
    torus_character_set,
)
from test_chevalley import _bracket_by_fractions


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
    assert (pd.a_u.dim, pd.a_p.dim, pd.p_derived_perp.dim) == (2, 2, 5)


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


def test_dimension_report_a2_borel():
    rep = dimension_report(standard_parabolic("A2", frozenset()))
    assert rep.dim_c == 3
    assert rep.dim_uc == 8
    assert rep.leaf_dim == 6


def test_dimension_report_a2_gamma1():
    pd = standard_parabolic("A2", frozenset({1}))
    rep = dimension_report(pd)
    assert rep.dim_p == 6
    assert rep.dim_c == 2
    assert rep.dim_p_derived_perp == 3
    assert rep.torus_rank == 1
    assert rep.dim_uc == 5
    assert rep.leaf_dim == 4


def test_dimension_report_full_gamma():
    rep = dimension_report(standard_parabolic("B2", frozenset({1, 2})))
    assert rep.dim_c == 0
    assert rep.leaf_dim == 0


def test_leaf_always_twice_codim():
    for label in ("A1", "A2", "B2", "G2"):
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                rep = dimension_report(standard_parabolic(label, frozenset(gamma)))
                assert rep.leaf_dim == 2 * rep.dim_c


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
    # section and projector denominators
    subspaces = quotients = 0
    for label in SUPPORTED_TYPES:
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                pd = standard_parabolic(label, frozenset(gamma))
                cert = find_richardson(pd)
                values = [getattr(pd, f.name) for f in dataclasses.fields(pd)]
                spaces = [v for v in values if isinstance(v, Subspace)] + [cert.tangent]
                for q in (v for v in values if isinstance(v, QuotientSpace)):
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
    assert quotients == 3 * 54 and subspaces == 15 * 54


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


def test_torsor_certificate_a1():
    pd = standard_parabolic("A1", frozenset())
    cert = find_richardson(pd)
    tc = torsor_certificate(pd, cert)
    assert tc.smith_invariants == (1,)
    assert tc.infinitesimal_free and tc.lattice_generating


def test_torsor_certificate_a2_borel():
    pd = standard_parabolic("A2", frozenset())
    tc = torsor_certificate(pd, find_richardson(pd))
    assert tc.smith_invariants == (1, 1)
    assert tc.infinitesimal_free and tc.lattice_generating


def test_torsor_certificate_a2_gamma1_single_restricted_weight():
    pd = standard_parabolic("A2", frozenset({1}))
    cert = find_richardson(pd)
    charset = torus_character_set(pd, cert.element)
    # both u-roots restrict to the same generator once a1 is deleted
    assert charset.rows == 1
    assert charset.row(0) == (1,)
    tc = torsor_certificate(pd, cert)
    assert tc.smith_invariants == (1,)
    assert tc.infinitesimal_free and tc.lattice_generating


def test_torsor_requires_open_certificate():
    pd = standard_parabolic("A2", frozenset())
    from liework.exactlin import Subspace
    bad = RichardsonCertificate(
        element=tuple([0] * 8), tangent=Subspace.zero(8))
    with pytest.raises(ValueError):
        torsor_certificate(pd, bad)


def test_h1_borel_and_full_true():
    assert hypothesis_h1(standard_parabolic("A2", frozenset()))
    assert hypothesis_h1(standard_parabolic("A2", frozenset({1, 2})))


def test_h1_a2_gamma1_false_with_witness():
    pd = standard_parabolic("A2", frozenset({1}))
    assert not hypothesis_h1(pd)
    wit = h1_witness(pd)
    assert wit is not None
    a_name, b_name, v = wit
    assert any(v)
    assert not pd.u_derived.contains(v)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_h1_witness_is_the_first_fraction_bracket(label):
    # the witness named from integer rows equals a scan over the Fraction
    # echelon rows, bracket value included
    alg = algebra(label)
    for r in range(alg.rank + 1):
        for gamma in itertools.combinations(range(1, alg.rank + 1), r):
            pd = standard_parabolic(label, frozenset(gamma))
            want = next(((alg.vector_name(a), alg.vector_name(b),
                          _bracket_by_fractions(alg, a, b))
                         for a in pd.levi_derived.rows for b in pd.u.rows
                         if not pd.u_derived.contains(_bracket_by_fractions(alg, a, b))),
                        None)
            assert h1_witness(pd) == want


def test_fixedpoint_check_everywhere():
    for label in ("A1", "A2", "B2", "B3", "G2"):
        alg = algebra(label)
        for r in range(alg.rank + 1):
            for gamma in itertools.combinations(range(1, alg.rank + 1), r):
                assert fixedpoint_check(standard_parabolic(label, frozenset(gamma)))


def test_parse_case():
    assert parse_case("A3:1,3") == ("A3", frozenset({1, 3}))
    assert parse_case("B2:-") == ("B2", frozenset())
    with pytest.raises(ValueError):
        parse_case("A3")
    with pytest.raises(ValueError):
        parse_case("A3:0")
    with pytest.raises(ValueError):
        parse_case("A3:x")


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
                tc = torsor_certificate(pd, cert)
                assert tc.lattice_generating, f"{label}:{gamma}"
                assert tc.infinitesimal_free, f"{label}:{gamma}"
