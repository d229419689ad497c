"""The Cartan-datum build against the matrix realizations in realization.py.

``build_algebra`` computes its structure constants from the Cartan matrix
and the extraspecial signs; the realizations read the same constants off
matrix commutators.  The group action is checked the same way: act_vector
applies divided powers of the table, the realization conjugates by
exp(tE) as a matrix.  The runtime audits are checked to catch a table
that the derivation got wrong.
"""
import math
import random
from fractions import Fraction

import pytest

from liework import chevalley
from liework.bundles import GroupWord, UnipotentLetter, _T_CHOICES, act_vector
from liework.chevalley import (
    SUPPORTED_TYPES,
    ConstructionAuditError,
    algebra,
    build_algebra,
    cartan_datum,
)
from realization import adjoint_action, realization_algebra

F = Fraction


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_table_gram_weights_and_audit_match_realization(label):
    alg, real = algebra(label), realization_algebra(label)
    assert alg.table == real.table
    assert alg.killing_gram == real.killing_gram
    assert alg.basis_weights == real.basis_weights
    assert alg.audit == real.audit


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_act_vector_matches_matrix_conjugation(label):
    alg = algebra(label)
    roots = list(alg.positive_roots) + [tuple(-c for c in r) for r in alg.positive_roots]
    rng = random.Random(f"conjugation:{label}")
    for _ in range(12):
        w = GroupWord(tuple(UnipotentLetter(rng.choice(roots), rng.choice(_T_CHOICES))
                            for _ in range(rng.randint(1, 4))))
        v = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim))
        den = math.lcm(*(c.denominator for c in v))
        nums, d = act_vector(alg, w, (tuple(int(c * den) for c in v), den))
        assert tuple(F(x, d) for x in nums) == adjoint_action(alg, w, v)


def _tampered_build(monkeypatch, label, tamper):
    # build_algebra over a table that tamper edits in place after derivation
    derive = chevalley.chevalley_table

    def patched(cartan, pos):
        table, weights = derive(cartan, pos)
        rows = [list(row) for row in table]
        tamper(rows, weights, len(pos))
        return tuple(tuple(row) for row in rows), weights

    monkeypatch.setattr(chevalley, "chevalley_table", patched)
    return build_algebra(cartan_datum(label))


def _negate(rows, i, j, keep=lambda k: True):
    # negate the terms of [b_i, b_j] that keep selects, and of [b_j, b_i]
    for a, b in ((i, j), (j, i)):
        rows[a][b] = tuple((k, -c if keep(k) else c) for k, c in rows[a][b])


def _derived_pair(weights, num_pos, rank):
    # basis indices (i, j) of positive roots r, s with r + s a root, other
    # than the extraspecial pair of r + s: its constant comes from the
    # four-term relation
    pos = weights[:num_pos]
    for xi in pos[rank:]:
        a = next(u for u in pos[:rank] if tuple(x - y for x, y in zip(xi, u)) in pos)
        for i, r in enumerate(pos):
            s = tuple(x - y for x, y in zip(xi, r))
            if s in pos and a not in (r, s):
                return i, pos.index(s)
    return None


def _mixed_pair(weights, num_pos):
    # basis indices of e_r and f_s with r - s a root: a constant from
    # N_{r,s}/(t,t) = N_{s,t}/(r,r) = N_{t,r}/(s,s)
    return next((i, j) for i in range(num_pos) for j in range(len(weights) - num_pos,
                                                               len(weights))
                if tuple(x + y for x, y in zip(weights[i], weights[j])) in weights)


@pytest.mark.parametrize("label,kind", [
    ("A3", "positive"), ("B3", "positive"), ("C3", "positive"), ("D4", "positive"),
    ("G2", "positive"), ("A2", "mixed"), ("B2", "mixed"), ("G2", "mixed"),
])
def test_build_rejects_a_flipped_derived_constant(monkeypatch, label, kind):
    rank = cartan_datum(label).rank

    def flip(rows, weights, num_pos):
        if kind == "positive":
            _negate(rows, *_derived_pair(weights, num_pos, rank))
        else:
            _negate(rows, *_mixed_pair(weights, num_pos))

    with pytest.raises(ConstructionAuditError, match=rf"{label}: jacobi-violations"):
        _tampered_build(monkeypatch, label, flip)


@pytest.mark.parametrize("label", ["A2", "B3", "G2"])
def test_build_rejects_a_flipped_coroot_coefficient(monkeypatch, label):
    def flip(rows, weights, num_pos):
        # [e_r, f_r] for the highest root r: negate its first coroot coefficient
        i = num_pos - 1
        j = len(weights) - 1
        first = rows[i][j][0][0]
        _negate(rows, i, j, keep=lambda k: k == first)

    with pytest.raises(ConstructionAuditError, match=rf"{label}: jacobi-violations"):
        _tampered_build(monkeypatch, label, flip)


def test_untampered_patch_builds_the_same_algebra(monkeypatch):
    # the harness itself changes nothing when the tamper is a no-op
    alg = _tampered_build(monkeypatch, "G2", lambda rows, weights, num_pos: None)
    assert alg.table == algebra("G2").table and alg.audit == algebra("G2").audit
