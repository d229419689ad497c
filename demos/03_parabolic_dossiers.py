"""
Parabolic subalgebras and their dossiers
========================================

A subset of simple roots cuts out a standard parabolic p = l + u.  The
datum carries every derived object the twist family needs, with the
defining identities re-verified during construction.
"""
from liework.parabolic import standard_parabolic

# Gamma = {1, 3} inside B3: the Levi keeps roots supported on a1 and a3,
# the nilradical takes every other positive root space.
pd = standard_parabolic("B3", frozenset({1, 3}))
print("case", pd.label())
print("dim p =", pd.p.dim, " dim l =", pd.levi.dim, " dim u =", pd.u.dim)

# The Killing perp of p inside g is exactly the nilradical; that is the
# identity making p self-normalizing.  p-perp is the divisor of the twist
# space below.
print("p-perp == u:", pd.twist_space.divisor == pd.u)

# [p,p] = [l,l] + u splits the derived algebra.
print("dim [p,p] =", pd.p_derived.dim, "= dim [l,l] + dim u =",
      pd.levi_derived.dim, "+", pd.u.dim)

# The universal torus of the family is the center direction count of l:
# rank minus |gamma|.
print("torus rank =", pd.torus_rank)

# The twist space [p,p]-perp / u pairs nondegenerately with a_p = p/[p,p];
# its dimension equals the torus rank.
print("twist dim =", pd.twist_space.dim, " a_p dim =", pd.a_p.dim)

# The class C of parabolics conjugate to p is G/P, so dim C is the
# codimension of p.  The family U_C over C adds the fiber [p,p]-perp, and
# its generic symplectic leaf has dimension 2 dim C: the build counts that
# leaf, audits it and keeps it as its leaf-twice-codim record.
def leaf_dim(q):
    return int(next(r.actual for r in q.audit if r.name == "leaf-twice-codim"))


dim_c = pd.alg.dim - pd.p.dim
print("dim C =", dim_c, " dim U_C =", dim_c + pd.p_derived_perp.dim,
      " leaf =", leaf_dim(pd), "= 2 * dim C")

# Sweep all subsets of the simple roots of B3 and watch the torus rank
# drop as gamma grows.
print("\ngamma -> (dim p, dim u, torus rank, leaf)")
for k in range(8):
    gamma = frozenset(i + 1 for i in range(3) if k >> i & 1)
    q = standard_parabolic("B3", gamma)
    name = ",".join(str(i) for i in sorted(gamma)) or "-"
    print(f"  {name:<6} ({q.p.dim:2d}, {q.u.dim}, {q.torus_rank}, "
          f"{leaf_dim(q):2d})")
