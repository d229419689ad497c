import dataclasses
import functools
import random

import pytest

from liework import bundles, chevalley, exactlin, parabolic, suites
from liework.bundles import UCPoint, random_word
from liework.chevalley import algebra
from liework.parabolic import standard_parabolic
from liework.suites import (
    DEFAULT_SEED,
    MAX_WORD_LEN_CAP,
    SUITE_NAMES,
    CaseSpec,
    default_case_matrix,
    run_suite,
    run_suites,
)


def case(text, **kw):
    return CaseSpec.from_string(text, **kw)


def test_default_matrix_size():
    m = default_case_matrix()
    assert len(m) == 38
    assert len(set(m)) == 38
    labels = [c.case_label() for c in m]
    assert "A1:-" in labels and "G2:1,2" in labels
    assert all(c.seed == DEFAULT_SEED for c in m)


def test_default_matrix_with_d4():
    m = default_case_matrix(include_d4=True)
    assert len(m) == 38 + 16
    assert sum(1 for c in m if c.type_label == "D4") == 16


def test_case_label_round_trip():
    c = case("B3:1,3")
    assert c.case_label() == "B3:1,3"
    assert case("A2:-").case_label() == "A2:-"
    assert CaseSpec.from_string(c.case_label()) == c


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", [case("A1:-")])


def test_gamma_out_of_rank_rejected():
    with pytest.raises(ValueError, match="malformed case"):
        run_suite("algebra", [CaseSpec("A1", frozenset({2}))])


def test_case_spec_rejects_malformed_input():
    with pytest.raises(ValueError, match="malformed case"):
        CaseSpec("E6", frozenset({1}))
    with pytest.raises(ValueError, match="max_word_len"):
        CaseSpec("A1", frozenset(), max_word_len=0)


@pytest.mark.parametrize("kw", [dict(max_word_len=2.5), dict(max_word_len=True),
                                dict(seed=1.5), dict(seed="x"), dict(seed=False),
                                dict(gamma=frozenset({True})),
                                dict(gamma=frozenset({1.0})),
                                dict(gamma=frozenset({2, False})), dict(gamma={1})])
def test_case_spec_rejects_non_int_seed_and_length(kw):
    # a float length once failed every uc-family case inside randrange,
    # gamma {True} was labelled A2:True while build_parabolic read {1}, and
    # a set gamma cannot be hashed, as a case in a set of cases is
    with pytest.raises(TypeError, match=next(iter(kw))):
        CaseSpec("A2", **{"gamma": frozenset(), **kw})


def test_case_spec_caps_word_length():
    assert MAX_WORD_LEN_CAP == 300
    assert case("A1:-", max_word_len=300).max_word_len == 300
    with pytest.raises(ValueError, match="max_word_len .* got 301"):
        case("A1:-", max_word_len=301)
    with pytest.raises(ValueError, match="max_word_len"):
        default_case_matrix(max_word_len=301)


def test_suite_names_are_the_suite_table_in_order():
    assert SUITE_NAMES == tuple(suites._SUITE_FUNCS) == (
        "algebra", "parabolic-identities", "richardson-torsor", "uc-family",
        "invariance", "embedding", "bc-hypotheses")


def test_suites_report_builder_audits():
    for text in ("A1:-", "B2:2", "G2:1", "A3:1,3"):
        c = case(text)
        pd = standard_parabolic(c.type_label, c.gamma)
        assert run_suite("algebra", [c])[0].checks == pd.alg.audit
        assert pd.alg is algebra(c.type_label)
        checks = run_suite("parabolic-identities", [c])[0].checks
        assert [r.name for r in checks if r not in pd.audit] == \
            ["fixedpoint-property"]
        assert tuple(r for r in checks if r in pd.audit) == pd.audit
        uc = run_suite("uc-family", [c])[0].checks
        assert uc[0] == pd.audit[-1] and uc[0].name == "leaf-twice-codim"


def test_algebra_suite_fails_on_broken_audit(monkeypatch):
    # the suite gets an empty algebra cache, so it rebuilds A1 under a
    # broken Jacobi count; monkeypatch puts the shared cache back afterwards
    monkeypatch.setattr(chevalley, "jacobi_violations", lambda alg: 1)
    monkeypatch.setattr(suites, "algebra",
                        functools.lru_cache(chevalley.algebra.__wrapped__))
    res = run_suite("algebra", [case("A1:-")])
    assert res[0].status == "fail"
    (rec,) = res[0].checks
    assert not rec.ok
    assert "jacobi-violations audit failed" in rec.witness


def test_algebra_suite_passes():
    res = run_suite("algebra", [case("A1:-"), case("A2:1")])
    assert [r.status for r in res] == ["pass", "pass"]
    names = {c.name for c in res[0].checks}
    assert "jacobi-violations" in names
    assert all(c.ok for r in res for c in r.checks)


def test_parabolic_suite_passes():
    res = run_suite("parabolic-identities", [case("B2:2")])
    assert res[0].status == "pass"
    by_name = {c.name: c for c in res[0].checks}
    assert by_name["leaf-twice-codim"].ok


def test_richardson_suite_passes():
    res = run_suite("richardson-torsor", [case("A2:-"), case("G2:1")])
    assert all(r.status == "pass" for r in res)
    by_name = {c.name: c for c in res[0].checks}
    assert by_name["lattice-freeness"].actual == "[1, 1]"


def test_uc_family_suite_passes():
    res = run_suite("uc-family", [case("A2:1")])
    assert res[0].status == "pass"
    by_name = {c.name: c for c in res[0].checks}
    assert by_name["action-roundtrip-and-killing"].actual == "100 exact"
    assert by_name["transported-points-consistent"].ok


def _uc_records(text):
    [res] = run_suite("uc-family", [case(text)])
    return res.status, {c.name: c for c in res.checks}


@pytest.mark.parametrize("text,actual", [("A2:-", "[0, 4]"), ("B2:1", "[0, 2, 6]"),
                                         ("G2:-", "[4, 6]")])
def test_fiber_record_fails_on_a_wrong_transport(monkeypatch, text, actual):
    # each point's fiber is read with its witness swapped for a word that did
    # not move p there; no other record sees the swap
    real = bundles.fiber_dimension

    def wrong(pd, pt):
        other = random_word(pd.alg, random.Random("unrelated"), 3)
        return real(pd, dataclasses.replace(pt, witness=other))

    monkeypatch.setattr(suites, "fiber_dimension", wrong)
    status, by_name = _uc_records(text)
    rec = by_name["fiber-equidimensional"]
    assert status == "fail" and not rec.ok
    assert rec.actual == actual and rec.witness.startswith("point #")
    assert [n for n, c in by_name.items() if not c.ok] == ["fiber-equidimensional"]


def test_killing_perp_matches_kernel_route_at_transported_parabolics(monkeypatch):
    # every perp one uc-family pass asks for, transported p and [p, p]
    # included, against the kernel of the rows s.ints @ G
    real, asked = chevalley.ChevalleyAlgebra.killing_perp, []

    def recorded(alg, s):
        asked.append((alg, s, real(alg, s)))
        return asked[-1][2]

    bundles.intrinsic_quotients.cache_clear()
    try:
        monkeypatch.setattr(chevalley.ChevalleyAlgebra, "killing_perp", recorded)
        results = run_suite("uc-family", [case(t) for t in ("B3:1", "G2:-", "D4:1,2")])
    finally:
        bundles.intrinsic_quotients.cache_clear()
    assert [r.status for r in results] == ["pass"] * 3
    # a transported p has a row with two nonzeros; the standard ones do not
    moved = [s for _, s, _ in asked if any(sum(map(bool, r)) > 1 for r in s.ints)]
    assert len(moved) == 10
    for alg, s, got in asked:
        want = exactlin.kernel([alg._gram_ints(r) for r in s.ints], alg.dim)
        assert (got, got.pivots) == (want, want.pivots)


def test_killing_perp_mutant_at_transported_p(monkeypatch):
    # killing_perp drops its first basis row once the dossiers are built, so
    # only the twist spaces rebuilt at transported parabolics see it: points
    # #0 and #3, whose words fix p, and the stabilizer words read the dossier
    pd = standard_parabolic("B2", frozenset({1}))
    real = chevalley.ChevalleyAlgebra.killing_perp

    def dropped(which):
        # which perps lose their first row: those inside s, those outside
        # it, or both (p-perp lies in p, [p,p]-perp does not lie in [p,p])
        def mutant(alg, s):
            k = real(alg, s)
            if which != "both" and s.contains_space(k) != (which == "inside"):
                return k
            return exactlin.span(k.ints[1:], alg.dim)
        return mutant

    outcomes = {}
    for which in ("inside", "both", "outside"):
        bundles.intrinsic_quotients.cache_clear()  # no twist space built before
        try:
            with monkeypatch.context() as m:
                m.setattr(chevalley.ChevalleyAlgebra, "killing_perp", dropped(which))
                outcomes[which] = _uc_records("B2:1")
        finally:
            bundles.intrinsic_quotients.cache_clear()
    # on p-perp alone the fiber's u-directions shrink inside w u, and the
    # fiber reads short
    status, by_name = outcomes["inside"]
    assert status == "fail"
    assert by_name["fiber-equidimensional"].actual == "[5, 6]"
    assert by_name["transported-points-consistent"].actual == "3 exact"
    assert {n for n, c in by_name.items() if not c.ok} == {
        "fiber-equidimensional", "transported-points-consistent"}
    # on both perps the transported x leaves the shrunk [p,p]-perp: the
    # points loop's class_of raises, and the raise counts against the
    # points record with its witness, not against the whole case
    status, by_name = outcomes["both"]
    assert status == "fail" and "unexpected-error" not in by_name
    rec = by_name["transported-points-consistent"]
    assert rec.actual == "3 exact"
    assert rec.witness.startswith("point #2: VectorOutsideTotal: ")
    assert by_name["fiber-equidimensional"].actual == "[5, 6]"
    assert {n for n, c in by_name.items() if not c.ok} == {
        "fiber-equidimensional", "transported-points-consistent"}
    # on [p,p]-perp alone p-perp no longer lies in it: every twist space
    # rebuilt at a transported p raises, and so every record that builds
    # one fails with the raise as its witness
    status, by_name = outcomes["outside"]
    assert status == "fail" and "unexpected-error" not in by_name
    failed = {n: c.witness for n, c in by_name.items() if not c.ok}
    assert sorted(failed) == ["fiber-equidimensional", "transported-points-consistent"]
    assert all(w.split(": ")[1] == "DivisorNotContained" for w in failed.values())
    assert by_name["fiber-equidimensional"].actual == "[6]"
    assert by_name["transported-points-consistent"].actual == "2 exact"
    assert standard_parabolic("B2", frozenset({1})) is pd


def test_quotients_rebuilt_only_at_transported_parabolics(monkeypatch):
    # the dossier answers at its own p, so killing_quotients runs only at the
    # images of a standard p that differ from it, once per image met
    standard = {standard_parabolic(t, frozenset(g)).p
                for t, g in (("B2", {1}), ("D4", {1, 3}))}
    real_kq, real_act = bundles.killing_quotients, bundles.act_subspace
    rebuilt, met = [], set()

    def counted(alg, p):
        rebuilt.append(p)
        return real_kq(alg, p)

    def images(alg, w, s):
        out = real_act(alg, w, s)
        if s in standard:
            met.add(out)
        return out

    monkeypatch.setattr(bundles, "killing_quotients", counted)
    monkeypatch.setattr(bundles, "act_subspace", images)
    bundles.intrinsic_quotients.cache_clear()  # no twist space built before
    try:
        results = run_suites(["uc-family", "invariance"], [case("B2:1"), case("D4:1,3")])
    finally:
        bundles.intrinsic_quotients.cache_clear()
    assert [r.status for r in results] == ["pass"] * 4
    assert sum(p in standard for p in rebuilt) == 0
    assert len(rebuilt) == len(met - standard) > 0


def test_torus_letter_scaling_the_cartan_fails_stabilizer_record(monkeypatch):
    # each torus factor also scales the Cartan by its parameter: p is still
    # fixed, so the stabilizer words land on the dossier's twist space, and
    # the sections they move leave their classes; the Killing norm moves too
    real = bundles._torus_factor

    def also_cartan(alg, i, a, b):
        scale, _, mults = real(alg, i, a, b)
        return scale * b, None, tuple(m * (a if wt is None else b)
                                      for m, wt in zip(mults, alg.basis_weights))

    monkeypatch.setattr(bundles, "_torus_factor", also_cartan)
    status, by_name = _uc_records("B2:1")
    assert status == "fail" and "unexpected-error" not in by_name
    rec = by_name["stabilizer-canonical-id-identity"]
    assert rec.actual == "4 moved" and rec.witness.startswith("word #")
    assert by_name["action-roundtrip-and-killing"].actual == "47 exact"
    assert {n for n, c in by_name.items() if not c.ok} == {
        "action-roundtrip-and-killing", "stabilizer-canonical-id-identity"}


def test_stabilizer_raise_counts_against_its_record(monkeypatch):
    # canonical_id raising on the stabilizer words alone (they carry no
    # transported p): each raise is a moved word with its witness, and the
    # other records of the case are still made
    real = suites.canonical_id

    def raising(pd, w, levels, p=None):
        if p is None:
            raise ValueError("stabilizer word refused")
        return real(pd, w, levels, p)

    monkeypatch.setattr(suites, "canonical_id", raising)
    status, by_name = _uc_records("B2:1")
    assert status == "fail" and "unexpected-error" not in by_name
    rec = by_name["stabilizer-canonical-id-identity"]
    assert rec.actual == "8 moved"
    assert rec.witness == "word #0: ValueError: stabilizer word refused"
    assert [n for n, c in by_name.items() if not c.ok] == [rec.name]


def test_invariance_suite_counts_pairs():
    res = run_suite("invariance", [case("A2:-")])
    assert res[0].status == "pass"
    rec = res[0].checks[0]
    assert rec.name == "pairing-square"
    assert rec.expected == "50 equal"


def test_embedding_suite_passes():
    res = run_suite("embedding", [case("B2:1")])
    assert res[0].status == "pass"


def test_points_embed_fails_on_x_outside_p(monkeypatch):
    # a point whose x leaves p fails points-embed with its witness, and the
    # triangle and equivariance are not counted for it
    pd = standard_parabolic("A2", frozenset())
    f1 = pd.alg.one_hot(pd.alg.f_index((1, 0)))
    assert not pd.p.contains(f1)
    monkeypatch.setattr(suites, "make_uc_point",
                        lambda pd, w, x0: UCPoint(p=pd.p, x=(f1, 1), witness=w))
    by_name = {c.name: c for c in suites._suite_embedding(case("A2:-"))}
    assert by_name["points-embed"].actual == "0"
    assert by_name["points-embed"].witness == "point #0: x must lie in p"
    assert not by_name["triangle-phi-embed-mu"].ok
    assert not by_name["embed-equivariant"].ok


_FLIPPED_TRIANGLE = ["A2:-", "A3:1", "B3:2,3", "C3:2,3", "G2:-"]
_FLIPPED_EQUIVARIANT = ["A3:1", "A3:1,3", "C3:-", "C3:1,3", "C3:2,3"]


def test_embedding_records_fail_on_flipped_torus_factor(monkeypatch):
    # simple root 1's positive parameters read inverted: every letter still
    # acts by an automorphism, so points embed, but 2 * (q/2) no longer acts
    # as q when q = -1, and a split word moves x elsewhere
    real = bundles._torus_factor

    def flipped(alg, i, a, b):
        return real(alg, i, b, a) if i == 0 and a > 0 else real(alg, i, a, b)

    monkeypatch.setattr(bundles, "_torus_factor", flipped)
    failed = {"points-embed": [], "triangle-phi-embed-mu": [],
              "embed-equivariant": []}
    for c in default_case_matrix():
        for rec in suites._suite_embedding(c):
            if not rec.ok:
                failed[rec.name].append(c.case_label())
    assert failed == {"points-embed": [],
                      "triangle-phi-embed-mu": _FLIPPED_TRIANGLE,
                      "embed-equivariant": _FLIPPED_EQUIVARIANT}


def test_factoring_record_fails_on_negated_projector(monkeypatch):
    cases = default_case_matrix(include_d4=True)
    for c in cases:  # dossiers built with the true projector
        standard_parabolic(c.type_label, c.gamma)
    real = exactlin.QuotientSpace.projector.func

    def negated(self):
        rows, den = real(self)
        return tuple(tuple(-x for x in r) for r in rows), den

    monkeypatch.setattr(exactlin.QuotientSpace, "projector", property(negated))
    failed = []
    for c in cases:
        by_name = {r.name: r for r in suites._suite_bc(c)}
        assert "unexpected-error" not in by_name
        rec = by_name.get("moment-maps-factor-through-quotient")
        if rec is not None and not rec.ok:
            assert rec.witness.startswith("y = ")
            failed.append(c.case_label())
    # every Borel case, D4 included; no other case pairs a_p against y
    assert failed == [f"{t}:-" for t in ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4")]


def test_bc_suite_gates_on_h1():
    res = run_suite("bc-hypotheses", [case("A2:1"), case("A2:-")])
    by_case = {r.case.case_label(): r for r in res}
    gated = by_case["A2:1"]
    assert gated.status == "hypothesis-gated"
    wit = [c for c in gated.checks if c.name == "triviality-hypothesis"][0]
    assert wit.witness is not None and "outside" in wit.witness
    assert by_case["A2:-"].status == "pass"


def test_bc_suite_scans_h1_once(monkeypatch):
    # one [l,l] x u scan per case, gated or not
    from liework.parabolic import h1_witness
    seen = []

    def counted(pd):
        seen.append(pd.label())
        return h1_witness(pd)

    monkeypatch.setattr(suites, "h1_witness", counted)
    res = run_suite("bc-hypotheses", [case("A2:-"), case("A2:1")])
    assert [r.status for r in res] == ["pass", "hypothesis-gated"]
    assert seen == ["A2:-", "A2:1"]


def test_torus_action_record_fails_on_a_scale_mutant(monkeypatch):
    # a mutant that stays a homomorphism (q read as 1/q, say) still maps
    # T(1/3) T(3) to the identity, so the record cannot see it; doubling
    # each factor's scale halves the vector at every letter, so the record
    # fails exactly where h1 holds and x != 0: the Borel cases
    factor = bundles._torus_factor

    def doubled(alg, i, a, b):
        scale, terms, mults = factor(alg, i, a, b)
        return 2 * scale, terms, mults

    monkeypatch.setattr(bundles, "_torus_factor", doubled)
    res = run_suite("bc-hypotheses", default_case_matrix(include_d4=True))
    broken = [r.case.case_label() for r in res for c in r.checks
              if c.name == "torus-action-invertible" and not c.ok]
    assert broken == ["A1:-", "A2:-", "A3:-", "B2:-", "B3:-", "C3:-", "G2:-", "D4:-"]
    assert all(r.status == "fail" for r in res if r.case.case_label() in broken)
    assert all(c.ok for r in res for c in r.checks
               if c.name != "torus-action-invertible")


def test_bc_suite_reuses_the_richardson_search(monkeypatch):
    # bc-hypotheses reuses the certificate richardson-torsor found; a search
    # that fails raises on every call, so no failure is cached
    from liework.parabolic import RichardsonSearchError, find_richardson
    find_richardson.cache_clear()
    try:
        run_suite("richardson-torsor", [case("A2:-")])
        hits = find_richardson.cache_info().hits
        assert run_suite("bc-hypotheses", [case("A2:-")])[0].status == "pass"
        assert find_richardson.cache_info().hits > hits
        find_richardson.cache_clear()
        pd = standard_parabolic("A2", frozenset())
        monkeypatch.setattr(parabolic, "_tangent_rank", lambda pd, x: 0)
        for _ in range(2):
            with pytest.raises(RichardsonSearchError):
                find_richardson(pd, seed=DEFAULT_SEED)
        info = find_richardson.cache_info()
        assert (info.misses, info.currsize) == (2, 0)
    finally:
        find_richardson.cache_clear()


def test_bc_suite_full_gamma_trivial():
    res = run_suite("bc-hypotheses", [case("A1:1")])
    assert res[0].status == "pass"


def test_results_in_canonical_order():
    cases = [case("B2:1"), case("A1:-"), case("A2:1,2"), case("A2:-")]
    res = run_suite("algebra", cases)
    assert [r.case.case_label() for r in res] == \
        ["A1:-", "A2:-", "A2:1,2", "B2:1"]


def test_duplicate_cases_deduplicated():
    res = run_suite("algebra", [case("A1:-"), case("A1:-")])
    assert len(res) == 1


def test_determinism_bitwise():
    cases = [case("A2:1"), case("B2:-")]
    first = run_suites(["uc-family", "invariance"], cases)
    second = run_suites(["uc-family", "invariance"], cases)
    assert first == second


def test_seed_changes_samples_not_verdicts():
    a = run_suite("uc-family", [case("A2:1", seed=1)])
    b = run_suite("uc-family", [case("A2:1", seed=2)])
    assert a[0].status == b[0].status == "pass"


def test_run_suites_defaults_cover_everything():
    res = run_suites(names=["algebra"], cases=None)
    assert len(res) == 38
    assert all(r.suite_name == "algebra" for r in res)
