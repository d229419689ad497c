"""
The twisted family over the torus
=================================

Points of the incidence family are pairs (parabolic, covector) moved
around by exact group words.  The moment map reads off the covector, the
twist map reads off the torus level, and both behave under the action
exactly as claimed.
"""
import random
from fractions import Fraction

from liework.bundles import (
    act_uc_point, act_vector, canonical_id, fiber_dimension,
    invariance_pairing_square, make_uc_point, pi_c, random_word,
    stabilizer_word, twist_level, twist_section, IDENTITY_WORD,
)
from liework.parabolic import standard_parabolic

pd = standard_parabolic("A2", frozenset({1}))
alg = pd.alg
print("case", pd.label(), " twist dim =", pd.twist_space.dim)

# Pick a twist level and take its canonical section in [p,p]-perp.  The
# twist map carries the opposite sign of the section class: covectors at
# level psi sit over the character -psi of the torus.
psi = twist_level(pd, [3])
nums, den = twist_section(pd, psi)  # integer numerators over one denominator
x0 = tuple(Fraction(x, den) for x in nums)
print("section of psi=3:", alg.vector_name(x0))

base = make_uc_point(pd, IDENTITY_WORD, x0)
print("pi of base point:", pi_c(pd, base))

# Transport by a random word: the subspace moves, the covector moves, and
# the membership invariant is re-verified at the destination.
rng = random.Random("demo:twisted")
w = random_word(alg, rng, length=4)
moved = act_uc_point(pd, w, base)
print("moved parabolic equals p:", moved.p == pd.p)
print("mu is equivariant:", moved.x == act_vector(alg, w, x0))
print("pi is invariant:", pi_c(pd, moved) == pi_c(pd, base))

# Words built from parabolic generators stabilize p; the twist space
# rebuilt from scratch at the (unchanged) subspace gives the identity on
# levels.  This is a verified fact, not a definition.
s = stabilizer_word(pd, rng, length=3)
print("stabilizer fixes p:", canonical_id(pd, s, [psi]) == [psi])

# The two routes around the transport square agree exactly: pairing
# against torus sections rebuilt far away equals pairing pulled back near.
[(far, near)] = invariance_pairing_square(pd, w, [psi])
print("invariance square:", far == near, " value:", far)

# Fibers of pi are equi-dimensional: twice the codimension of p at every
# level.
print("fiber dims at psi = 0..3:",
      [fiber_dimension(pd, twist_level(pd, [k])) for k in range(4)])

# The family embeds into the partial resolution family, pairs (p, x) with
# x in p, by the identity on pairs: both moment maps read x, so the
# triangle commutes once the moved covector lies in the moved parabolic.
print("embedding keeps moment:", moved.p.contains(moved.x))
