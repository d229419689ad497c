"""
Chevalley bases from Cartan matrices
====================================

A Cartan matrix determines the root system; the extraspecial signs pin
the basis; the structure constants computed from them are integers and
every classical identity is audited at build time.
"""
from liework.chevalley import algebra, cartan_datum, root_name, roots_from_cartan

# Root enumeration is pure combinatorics on the Cartan matrix.
datum = cartan_datum("G2")
positive = roots_from_cartan(datum)
print("G2 positive roots:")
for r in positive:
    print("  height", sum(r), " ", root_name(r))

# algebra() builds the full bracket table and refuses to return anything
# that fails its own audits (Jacobi, Killing invariance, integrality).
g2 = algebra("G2")
print("dim g =", g2.dim)

# Brackets are sparse exact vectors in the Chevalley basis.
e1 = g2.one_hot(g2.e_index(positive[0]))
e2 = g2.one_hot(g2.e_index(positive[1]))
print("[e_a1, e_a2] =", g2.vector_name(g2.bracket(e1, e2)))

# The N-constant magnitudes follow the root-string law |N| = p + 1; for
# the long root a1 + a2 brackets with e_a1 climb the string up to
# 3a1 + a2, so constants of size 2 and 3 appear.
e12 = g2.one_hot(g2.e_index(positive[2]))
print("[e_a1, e_a1+a2] =", g2.vector_name(g2.bracket(e1, e12)))

# Cartan pieces: [e_b, f_b] = h_b, the coroot, an integer vector of simple
# coroots.
f1 = g2.one_hot(g2.f_index(positive[0]))
print("[e_a1, f_a1] =", g2.vector_name(g2.bracket(e1, f1)))

# The Killing form is the trace form of the adjoint representation,
# computed from the sparse table.  For G2 the dual Coxeter number shows
# up: kappa(h1, h1) = 48.
h1 = g2.one_hot(g2.h_index(1))
print("kappa(h1, h1) =", g2.killing(h1, h1))
print("kappa(e1, f1) =", g2.killing(e1, f1))

# Weight grading: kappa pairs the b-root space only with the (-b)-root
# space, so mixed pairings vanish identically.
print("kappa(e1, e2) =", g2.killing(e1, e2))
