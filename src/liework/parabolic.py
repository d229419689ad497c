"""Standard parabolic subalgebras and their attached linear data.

For a subset gamma of simple-root indices (1-based), the standard
parabolic p is spanned by the Cartan subalgebra, all positive root
spaces, and the negative root spaces of roots supported inside gamma.
Alongside p this module computes the Levi factor, the nilradical u, the
derived subalgebras, Killing perps, and two quotients: the torus
quotient p/[p,p] and the twist space [p,p]-perp / p-perp, which
killing_quotients reads off the subspace p alone, for the standard p
here and for every transported p.  The abelianized nilradical u/[u,u]
is read by its dimension, a_u_dim = u.dim - u_derived.dim, once [u,u] is
checked to lie in u.
find_richardson returns each case's one RichardsonCertificate.

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
    VectorOutsideTotal,
    _check_ints,
    _coordinate_indices,
    _echelon_pivots,
    quotient,
    smith_normal_form,
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
    twist_space: QuotientSpace
    torus_rank: int
    levi_root_positions: tuple[int, ...]  # positive-root indices inside gamma
    u_root_positions: tuple[int, ...]  # positive-root indices outside gamma
    # records of the build-time identities, in report order
    audit: tuple[CheckRecord, ...] = field(repr=False)

    def label(self) -> str:
        return format_case(self.alg.cartan.type_label, self.gamma)

    @property
    def a_u_dim(self) -> int:
        """dim u/[u,u]; build_parabolic checks that [u,u] lies in u."""
        return self.u.dim - self.u_derived.dim


@dataclass(frozen=True)
class RichardsonCertificate:
    """An element x of u with [p, x] = u (every [z, x], z a row of p, lies in
    u, of rank dim u there), so its orbit is open, and the evidence that the
    torus acts freely on that orbit.  infinitesimal_free: the induced map
    p/[p,p] -> u/[u,u], z to the class of [z, x], of rank induced_rank, has
    zero kernel.  lattice_generating: the Smith invariants of the
    restricted-weight matrix of x are all 1 with rank equal to the torus
    rank, ruling out finite stabilizers the linear check cannot see."""

    element: tuple[int, ...]
    tangent: Subspace  # u, once the rank proves [p, x] = u
    induced_rank: int
    infinitesimal_free: bool
    characters: IntMat  # torus_character_set of the element
    smith_invariants: tuple[int, ...]
    lattice_generating: bool


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


def _coordinate_span_contains(c: Subspace, s: Subspace) -> bool:
    """c.contains_space(s) for a coordinate subspace c, with no elimination:
    a row lies in the span of the unit vectors at c's indices iff it
    vanishes off them."""
    idx = _coordinate_indices(c)
    off = [j for j in range(c.ambient_dim) if j not in idx]
    return not any(r[j] for r in s.ints for j in off)


def killing_quotients(alg: ChevalleyAlgebra,
                      p: Subspace) -> tuple[QuotientSpace, QuotientSpace]:
    """The twist space [p,p]-perp / p-perp and the torus quotient p/[p,p],
    read off the subspace p alone, with no reference to how p was made."""
    p_derived = alg.bracket_space(p)
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

    levi_derived = alg.bracket_space(levi)
    u_derived = alg.bracket_space(u)
    twist_space, a_p = killing_quotients(alg, p)
    p_derived, p_perp = a_p.divisor, twist_space.divisor
    p_derived_perp = twist_space.total
    perp_ok = p_perp == u
    derived_ok = p_derived == subspace_sum(levi_derived, u)
    inside_ok = _coordinate_span_contains(p, p_derived_perp)
    where = f"{alg.cartan.type_label} gamma {sorted(gset)}"
    # the twist space's divisor is p-perp; these identities make it u
    audit = raise_on_failure((
        check_record("nilradical-is-p-perp", True, perp_ok, perp_ok),
        check_record("derived-p-decomposition", True, derived_ok, derived_ok),
        check_record("derived-perp-inside-p", True, inside_ok, inside_ok),
    ), ParabolicAuditError, where)

    if not _coordinate_span_contains(u, u_derived):
        raise ParabolicAuditError(f"{where}: [u,u] does not lie in u")

    torus_rank = alg.rank - len(gset)
    rank_ok = a_p.dim == torus_rank == twist_space.dim
    # Killing form must pair the two torus-rank quotients perfectly
    pairing_ok = True
    if torus_rank:
        gram = [[alg._killing_ints(z, y) for y in twist_space.section[0]]
                for z in a_p.section[0]]
        pairing_ok = len(_echelon_pivots(gram, torus_rank)) == torus_rank
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
        p_derived_perp=p_derived_perp, a_p=a_p,
        twist_space=twist_space, torus_rank=torus_rank,
        levi_root_positions=levi_pos, u_root_positions=u_pos, audit=audit)


@functools.lru_cache(maxsize=None)
def standard_parabolic(type_label: str, gamma: frozenset[int]) -> ParabolicDatum:
    """Cached dossier for (type label, gamma)."""
    return build_parabolic(algebra(type_label), gamma)


def richardson_candidate(pd: ParabolicDatum, coeffs: Sequence[int]) -> tuple[int, ...]:
    """The element of u with coefficient coeffs[i] on the i-th u root vector."""
    if len(coeffs) != len(pd.u_root_positions):
        raise ValueError(f"{pd.label()}: {len(coeffs)} coefficients, one per u root")
    _check_ints("coefficients", coeffs)
    v = [0] * pd.alg.dim
    for c, k in zip(coeffs, pd.u_root_positions):
        v[k] = c
    return tuple(v)


def _u_coords(pd: ParabolicDatum, v: list[int]) -> list[int] | None:
    """v's coordinates on u, or None if v has a nonzero coordinate outside u."""
    w = [v[k] for k in pd.u_root_positions]
    return w if w.count(0) - v.count(0) == len(w) - len(v) else None


def _tangent_rank(pd: ParabolicDatum, x: Sequence[int]) -> int | None:
    """dim [p, x] for x in u, on u's coordinates, or None if some [z, x], z a
    row of p, leaves u.  Every bracket is checked to lie in u; the rank is
    read by forward steps alone, p's rows last-first, and stops at dim u,
    which proves [p, x] = u."""
    xs = _support(x)
    ws = [_u_coords(pd, pd.alg._bracket_ints(_support(z), xs)) for z in pd.p.ints[::-1]]
    if None in ws:
        return None
    return len(_echelon_pivots(ws, pd.u.dim))


@functools.lru_cache(maxsize=None, typed=True)
def find_richardson(pd: ParabolicDatum, seed: int = 0) -> RichardsonCertificate:
    """An element of u whose parabolic orbit is open in u, with its freeness evidence.

    Tries the sum of all root vectors of u first; falls back to seeded
    random small integer coefficients.  Raises RichardsonSearchError with
    the best achieved tangent dimension if every retry fails, and
    TypeError for a seed that is not an int (a bool or 1.0 would seed
    another search under int 1's cache entry).  Memoised: the suites
    share one search per case; an error is not cached.
    """
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    best = -1
    rng = random.Random(f"richardson:{pd.label()}:{seed}")
    for attempt in range(_MAX_RETRIES + 1):
        if attempt == 0:
            coeffs: list[int] = [1] * len(pd.u_root_positions)
        else:
            coeffs = [rng.randint(1, 7) for _ in pd.u_root_positions]
        x = richardson_candidate(pd, coeffs)
        if (rank := _tangent_rank(pd, x)) == pd.u.dim:
            break
        best = max(best, -1 if rank is None else rank)
    else:
        raise RichardsonSearchError(
            f"no open orbit found for {pd.label()} after {_MAX_RETRIES} retries",
            best_tangent_dim=best)
    # the freeness evidence: the rank that [z, x], z in a_p's section, adds to [u,u]
    xs = _support(x)
    vs = [pd.alg._bracket_ints(_support(z), xs) for z in pd.a_p.section[0]]
    if any(_u_coords(pd, v) is None for v in vs):
        raise VectorOutsideTotal("a bracket [z, x] lies outside u")
    induced_rank = (len(_echelon_pivots(vs, pd.alg.dim, seed=pd.u_derived))
                    - pd.u_derived.dim)
    characters = torus_character_set(pd, x)
    invariants = smith_normal_form(characters)
    return RichardsonCertificate(
        element=x, tangent=pd.u, induced_rank=induced_rank,
        infinitesimal_free=induced_rank == pd.torus_rank,
        characters=characters, smith_invariants=invariants,
        lattice_generating=invariants == (1,) * pd.torus_rank)


def torus_character_set(pd: ParabolicDatum, x: Sequence) -> IntMat:
    """Distinct torus weights of x's nonzero components, mod the gamma roots.

    Rows are root coordinates with the gamma positions deleted (the gamma
    simple roots are unit vectors, so deletion realizes the quotient
    lattice), one per distinct restricted weight, sorted.
    """
    if len(x) != pd.alg.dim:
        raise ValueError("vector length does not match algebra dimension")
    keep = [i for i in range(pd.alg.rank) if (i + 1) not in pd.gamma]
    seen = set()
    for i, c in enumerate(x):
        if not c:
            continue
        w = pd.alg.basis_weights[i]
        if w is None:
            raise ValueError("vector has a component outside the root spaces")
        seen.add(tuple(w[k] for k in keep))
    return IntMat.from_rows(sorted(seen), len(keep))


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
    """Whether [p, [p,p]-perp] lies in u, with no span built.  For each unit
    row e_j of [p,p]-perp, one subset test: the indices named in table[i][j]
    over p's unit rows e_i must all lie in u.  Any other pair's bracket must
    vanish outside u."""
    alg, inside = pd.alg, frozenset(pd.u_root_positions)
    xss = [_support(z) for z in pd.p.ints]
    units = [xs[0][0] for xs in xss if len(xs) == 1]
    rest = [xs for xs in xss if len(xs) > 1]
    for y in map(_support, pd.p_derived_perp.ints):
        if unit := len(y) == 1:
            j = y[0][0]
            if not inside.issuperset(k for i in units for k, _ in alg.table[i][j]):
                return False
        if any(_u_coords(pd, alg._bracket_ints(xs, y)) is None
               for xs in (rest if unit else xss)):
            return False
    return True
