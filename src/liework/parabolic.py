"""Standard parabolic subalgebras and their attached linear data.

For a subset gamma of simple-root indices (1-based), the standard
parabolic p is spanned by the Cartan subalgebra, all positive root
spaces, and the negative root spaces of roots supported inside gamma.
Alongside p this module computes the Levi factor, the nilradical u, the
derived subalgebras, Killing perps, and three quotients: the torus
quotient p/[p,p], the abelianized nilradical u/[u,u], and the twist
space [p,p]-perp / p-perp.  killing_quotients reads the last two off the
subspace p alone, for the standard p here and for every transported p.

Every structural identity is checked at construction time and failures
raise ParabolicAuditError naming the identity, so downstream code can
rely on the datum without re-deriving anything.  The reported identities
come back as CheckRecords on ``ParabolicDatum.audit``, which the suites
report instead of re-proving them.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .chevalley import (
    ChevalleyAlgebra,
    CheckRecord,
    algebra,
    _support,
    check_record,
    raise_on_failure,
)
from .exactlin import (
    IntMat,
    QuotientSpace,
    Subspace,
    class_of,
    quotient,
    smith_normal_form,
    span,
    subspace_sum,
)

_MAX_RETRIES = 32  # find_richardson's seeded candidates after the first


class ParabolicAuditError(RuntimeError):
    """A construction-time identity failed; the message names it."""


class RichardsonSearchError(RuntimeError):
    """Retries exhausted without an open tangent space."""

    def __init__(self, message: str, best_tangent_dim: int):
        super().__init__(message)
        self.best_tangent_dim = best_tangent_dim


@dataclass(frozen=True, eq=False)
class ParabolicDatum:
    """A parabolic subalgebra with its full verified dossier of spaces."""

    alg: ChevalleyAlgebra
    gamma: frozenset[int]
    p: Subspace
    levi: Subspace
    levi_derived: Subspace
    u: Subspace
    u_derived: Subspace
    p_derived: Subspace
    p_derived_perp: Subspace
    a_p: QuotientSpace
    a_u: QuotientSpace
    twist_space: QuotientSpace
    torus_rank: int
    levi_root_positions: tuple[int, ...]  # positive-root indices inside gamma
    u_root_positions: tuple[int, ...]  # positive-root indices outside gamma
    # records of the build-time identities, in report order
    audit: tuple[CheckRecord, ...] = field(repr=False)

    def label(self) -> str:
        return format_case(self.alg.cartan.type_label, self.gamma)


@dataclass(frozen=True)
class RichardsonCertificate:
    element: tuple[int, ...]
    tangent: Subspace


@dataclass(frozen=True)
class TorsorCertificate:
    infinitesimal_free: bool
    lattice_generating: bool
    induced_rank: int
    characters: IntMat  # torus_character_set of the element
    smith_invariants: tuple[int, ...]


def parse_case(text: str) -> tuple[str, frozenset[int]]:
    """Parse a case string like "A3:1,3" or "B2:-" (empty gamma); each index
    is written as format_case writes it, at most once."""
    if ":" not in text:
        raise ValueError(f"case spec {text!r} must look like TYPE:indices or TYPE:-")
    label, _, tail = text.partition(":")
    if tail == "-":
        return label, frozenset()
    tokens = tail.split(",")
    if not all(t.isascii() and t.isdigit() and t[0] != "0" for t in tokens):
        raise ValueError(f"bad index list in case spec {text!r}: an index is "
                         "ASCII digits with no sign, space or leading zero, "
                         "at least 1 (use '-' for empty)")
    idx = frozenset(map(int, tokens))
    if len(idx) < len(tokens):
        raise ValueError(f"repeated index in case spec {text!r}")
    return label, idx


def format_case(type_label: str, gamma: Iterable[int]) -> str:
    """The case string parse_case reads: "A3:1,3", or "B2:-" for empty gamma."""
    return f"{type_label}:" + (",".join(str(i) for i in sorted(gamma)) or "-")


def _supported_on(coords: Sequence[int], gamma: frozenset[int]) -> bool:
    return all(c == 0 or (i + 1) in gamma for i, c in enumerate(coords))


def killing_quotients(alg: ChevalleyAlgebra,
                      p: Subspace) -> tuple[QuotientSpace, QuotientSpace]:
    """The twist space [p,p]-perp / p-perp and the torus quotient p/[p,p],
    read off the subspace p alone, with no reference to how p was made."""
    p_derived = alg.bracket_space(p, p)
    return (quotient(alg.killing_perp(p_derived), alg.killing_perp(p)),
            quotient(p, p_derived))


def build_parabolic(alg: ChevalleyAlgebra, gamma: Iterable[int]) -> ParabolicDatum:
    """Build and verify the dossier for the standard parabolic of gamma."""
    gset = frozenset(int(i) for i in gamma)
    if not gset <= set(range(1, alg.rank + 1)):
        raise ValueError(f"gamma {sorted(gset)} not a subset of 1..{alg.rank}")
    dim = alg.dim
    num_pos = alg.num_positive

    levi_pos = tuple(k for k, r in enumerate(alg.positive_roots)
                     if _supported_on(r, gset))
    u_pos = tuple(sorted(set(range(num_pos)).difference(levi_pos)))

    levi_idx = (list(levi_pos) + [num_pos + i for i in range(alg.rank)]
                + [num_pos + alg.rank + k for k in levi_pos])
    p = Subspace.coordinate(dim, levi_idx + list(u_pos))
    levi = Subspace.coordinate(dim, levi_idx)
    u = Subspace.coordinate(dim, u_pos)

    levi_derived = alg.bracket_space(levi, levi)
    u_derived = alg.bracket_space(u, u)
    twist_space, a_p = killing_quotients(alg, p)
    p_derived, p_perp = a_p.divisor, twist_space.divisor
    p_derived_perp = twist_space.total
    perp_ok = p_perp == u
    derived_ok = p_derived == subspace_sum(levi_derived, u)
    inside_ok = p.contains_space(p_derived_perp)
    where = f"{alg.cartan.type_label} gamma {sorted(gset)}"
    # the twist space's divisor is p-perp; these identities make it u
    audit = raise_on_failure((
        check_record("nilradical-is-p-perp", True, perp_ok, perp_ok),
        check_record("derived-p-decomposition", True, derived_ok, derived_ok),
        check_record("derived-perp-inside-p", True, inside_ok, inside_ok),
    ), ParabolicAuditError, where)

    a_u = quotient(u, u_derived)

    torus_rank = alg.rank - len(gset)
    rank_ok = a_p.dim == torus_rank == twist_space.dim
    # Killing form must pair the two torus-rank quotients perfectly
    pairing_ok = True
    if torus_rank:
        gram = [[alg._killing_ints(z, y) for y in twist_space.section[0]]
                for z in a_p.section[0]]
        pairing_ok = span(gram, torus_rank).dim == torus_rank
    dim_c = dim - p.dim
    leaf_dim = dim_c + p_derived_perp.dim - torus_rank

    audit += raise_on_failure((
        check_record("torus-rank", torus_rank,
                     f"a_p={a_p.dim},twist={twist_space.dim}", rank_ok),
        check_record("torus-pairing-nondegenerate", True, pairing_ok,
                     pairing_ok),
        check_record("leaf-twice-codim", 2 * dim_c, leaf_dim,
                     leaf_dim == 2 * dim_c),
    ), ParabolicAuditError, where)

    return ParabolicDatum(
        alg=alg, gamma=gset, p=p, levi=levi, levi_derived=levi_derived,
        u=u, u_derived=u_derived, p_derived=p_derived,
        p_derived_perp=p_derived_perp, a_p=a_p, a_u=a_u,
        twist_space=twist_space, torus_rank=torus_rank,
        levi_root_positions=levi_pos, u_root_positions=u_pos, audit=audit)


@functools.lru_cache(maxsize=None)
def standard_parabolic(type_label: str, gamma: frozenset[int]) -> ParabolicDatum:
    """Cached dossier for (type label, gamma)."""
    return build_parabolic(algebra(type_label), gamma)


def richardson_candidate(pd: ParabolicDatum, coeffs: Sequence[int]) -> tuple[int, ...]:
    v = [0] * pd.alg.dim
    for c, k in zip(coeffs, pd.u_root_positions):
        v[k] = c
    return tuple(v)


@functools.lru_cache(maxsize=None)
def find_richardson(pd: ParabolicDatum, seed: int = 0) -> RichardsonCertificate:
    """Element of u whose parabolic orbit is open in u.

    Tries the sum of all root vectors of u first; falls back to seeded
    random small integer coefficients.  Raises RichardsonSearchError with
    the best achieved tangent dimension if every retry fails.  Memoised:
    the suites share one search per case; an error is not cached.
    """
    want = pd.u
    best = -1
    rng = random.Random(f"richardson:{pd.label()}:{seed}")
    for attempt in range(_MAX_RETRIES + 1):
        if attempt == 0:
            coeffs: list[int] = [1] * len(pd.u_root_positions)
        else:
            coeffs = [rng.randint(1, 7) for _ in pd.u_root_positions]
        x = richardson_candidate(pd, coeffs)
        tangent = pd.alg.bracket_space(pd.p, span([x], pd.alg.dim))
        if tangent == want:
            return RichardsonCertificate(element=x, tangent=tangent)
        best = max(best, tangent.dim)
    raise RichardsonSearchError(
        f"no open orbit found for {pd.label()} after {_MAX_RETRIES} retries",
        best_tangent_dim=best)


def torus_character_set(pd: ParabolicDatum, x: Sequence) -> IntMat:
    """Distinct torus weights of x's nonzero components, mod the gamma roots.

    Rows are root coordinates with the gamma positions deleted (the gamma
    simple roots are unit vectors, so deletion realizes the quotient
    lattice), one per distinct restricted weight, sorted.
    """
    keep = [i for i in range(pd.alg.rank) if (i + 1) not in pd.gamma]
    seen = set()
    for i, c in enumerate(x):
        if not c:
            continue
        w = pd.alg.basis_weights[i]
        if w is None:
            raise ValueError("vector has a component outside the root spaces")
        seen.add(tuple(w[k] for k in keep))
    rows = sorted(seen)
    return IntMat.from_rows(rows, len(keep))


def torsor_certificate(pd: ParabolicDatum,
                       cert: RichardsonCertificate) -> TorsorCertificate:
    """Freeness evidence for the torus action on the open orbit.

    infinitesimal_free: the induced linear map p/[p,p] -> u/[u,u] sending a
    section z to the class of [z, x] has zero kernel.  lattice_generating:
    the Smith invariants of the restricted-weight matrix of x are all 1
    with rank equal to the torus rank, ruling out finite stabilizers that
    the linear check cannot see.
    """
    if cert.tangent != pd.u:
        raise ValueError("torsor certificate requires an open-orbit element")
    x = cert.element
    rows = [class_of(pd.a_u, pd.alg.bracket(z, x))[0] for z in pd.a_p.section[0]]
    induced_rank = span(rows, pd.a_u.dim).dim if rows else 0
    infinitesimal_free = induced_rank == pd.torus_rank

    characters = torus_character_set(pd, x)
    invariants = smith_normal_form(characters)
    lattice_generating = (len(invariants) == pd.torus_rank
                          and all(v == 1 for v in invariants))
    return TorsorCertificate(
        infinitesimal_free=infinitesimal_free,
        lattice_generating=lattice_generating,
        induced_rank=induced_rank,
        characters=characters,
        smith_invariants=invariants)


def h1_witness(pd: ParabolicDatum) -> str | None:
    """A concrete basis pair violating the triviality hypothesis, if any, as
    the text "[a, b] = v", or None when the hypothesis holds: the derived
    Levi acts trivially on the abelianized nilradical, [[l,l], u] inside
    [u,u].  That holds for gamma empty or full but fails for many
    intermediate gamma.  The scan runs over the integer basis rows; a
    witness is named by its echelon rows."""
    alg, lev, u = pd.alg, pd.levi_derived, pd.u
    for i, a in enumerate(lev.ints):
        for j, b in enumerate(u.ints):
            v = alg._bracket_ints(_support(a), _support(b))  # echelon rows: ints
            if any(v) and not pd.u_derived.contains(v):
                # the bracket of the echelon rows a / da, b / db
                da, db = a[lev.pivots[i]], b[u.pivots[j]]
                return (f"[{alg.vector_name(a, da)}, {alg.vector_name(b, db)}] = "
                        f"{alg.vector_name(v, da * db)}")
    return None


def fixedpoint_check(pd: ParabolicDatum) -> bool:
    """Whether [p, [p,p]-perp] lands inside the nilradical."""
    moved = pd.alg.bracket_space(pd.p, pd.p_derived_perp)
    return pd.u.contains_space(moved)
