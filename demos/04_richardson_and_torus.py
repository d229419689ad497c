"""
Richardson elements and freeness certificates
=============================================

The dense orbit in the nilradical is witnessed by an element x with
[p, x] = u, and the universal torus acts freely on the fiber.  One search
returns x with both pieces of freeness evidence: one at the tangent
level, one at the character-lattice level.
"""
from liework.parabolic import (
    find_richardson, standard_parabolic, torus_character_set,
)

pd = standard_parabolic("C3", frozenset({2}))
print("case", pd.label(), " dim u =", pd.u.dim)

# The all-ones combination of u-root vectors is tried first; if its
# bracket with p fails to fill u, seeded small coefficients are retried.
# Only an element whose orbit is open is returned, with its freeness
# evidence computed in the same call.
cert = find_richardson(pd)
print("element:", pd.alg.vector_name(cert.element))
print("tangent [p,x] fills u:", cert.tangent == pd.u,
      f"({cert.tangent.dim} of {pd.u.dim})")

# Infinitesimal freeness: pushing the torus directions a_p into u/[u,u]
# along x has full rank, so the stabilizer of x in the torus is finite.
print("induced rank:", cert.induced_rank, "of", pd.torus_rank,
      "->", "free" if cert.infinitesimal_free else "NOT free")

# Lattice freeness: the characters through which the torus scales the
# support of x span the full restricted weight lattice exactly when every
# Smith invariant is 1.  That rules out finite stabilizers too.
print("character rows:", cert.characters.rows)
print("smith invariants:", list(cert.smith_invariants),
      "->", "generating" if cert.lattice_generating else "NOT generating")

# The characters themselves: coordinates of u-roots in the simple-root
# basis with the gamma positions deleted.
chars = torus_character_set(pd, cert.element)
for row in range(chars.rows):
    print("  character", chars.row(row))

# Both kinds of freeness hold across every gamma of every supported type; the
# verification suites sweep that matrix.
for gamma in (frozenset(), frozenset({1}), frozenset({1, 2, 3})):
    q = standard_parabolic("C3", gamma)
    c = find_richardson(q)
    print(q.label(), "free:", c.infinitesimal_free,
          " generating:", c.lattice_generating)
