"""
Exact rational linear algebra
=============================

Everything downstream rests on arithmetic in Q: row reduction without
rounding, canonical subspaces, quotients with chosen sections, and Smith
normal form over Z.
"""
from fractions import Fraction

from liework.exactlin import (
    IntMat, class_of, kernel, quotient, rref,
    smith_normal_form, span, subspace_sum,
)

# A matrix over Q is its rows and a column count; rref returns the reduced
# rows and the pivot columns.  No epsilon anywhere: 1/3 stays 1/3.
r, pivots = rref([[1, 2, 3], [2, 4, 7], [1, 2, 4]], 3)
print("rref pivots:", pivots)
print("rref row 0:", r[0])

# Subspaces are canonical: two spans of the same space compare equal.
a = span([[1, 0, 1], [0, 1, 1]], 3)
b = span([[1, 1, 2], [1, -1, 0]], 3)
print("same plane:", a == b)

# Sum and intersection come from echelon bookkeeping, not numerics: the
# intersection is the set of vectors that satisfy the annihilating
# equations of both subspaces, and rref prints a subspace's rows over Q.
c = span([[1, 0, 1], [0, 0, 1]], 3)
line = kernel(kernel(a.ints, 3).ints + kernel(c.ints, 3).ints, 3)
print("intersection dim:", line.dim, "basis:", list(rref(line.ints, 3)[0]))
print("sum dim:", subspace_sum(a, span([[0, 0, 1]], 3)).dim)

# Kernels are exact too.
k = kernel([[1, 2, 0], [0, 0, 1]], 3)
print("kernel basis:", list(rref(k.ints, 3)[0]))

# Quotients carry a deterministic section; class_of returns coordinates of
# a vector's class in that section basis, as integer numerators over one
# positive denominator in lowest terms.
q = quotient(span([[1, 0, 0], [0, 1, 0]], 3), span([[1, 1, 0]], 3))
print("quotient dim:", q.dim)
for v in ([1, 0, 0], [1, 1, 0]):
    nums, den = class_of(q, v)
    print(f"class of {tuple(v)}:", tuple(Fraction(x, den) for x in nums))

# Fractions propagate exactly through row reduction.
print("1/3 rref:", rref([[Fraction(1, 3)]], 1)[0][0])

# Over Z, the Smith invariants certify lattice properties: these say the
# rows generate a full sublattice of index 2.  They are computed modulo
# the determinant of a maximal minor, so entries never grow past it.
print("smith invariants:", smith_normal_form(IntMat.from_rows([[2, 0], [0, 1]])))
