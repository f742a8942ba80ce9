"""
Siegel dissection into normalized form
======================================

Normalization rearranges a Farey symbol by cut-and-glue operations until
the cyclic arc word factors into handle blocks (a b a* b*), cusp blocks
(c c*) and fixed elliptic arcs.  The group is unchanged; what one gains is
a minimal independent generator system with exactly 2*genus hyperbolic
elements and a symplectic basis of the homology of the quotient surface.
"""

from fareysym import counts, gamma0_symbol, normalize

sym = gamma0_symbol(22)
print("unimodular word for Gamma0(22):")
print("   ", " ".join(str(v) for v in sym.vertices))

log = []
norm = normalize(sym, on_step=log.append)
print("\nSiegel steps (kind, pivots, prefix length afterwards):")
for entry in log:
    print("   %-11s pivots=%-8s w=%d" % (entry["kind"], entry["pivots"],
                                         entry["w_len"]))

print("\nnormalized word:")
print("   ", " ".join(str(v) for v in norm.vertices))
print("block structure:")
for kind, idx in norm.factorize():
    print("   %-6s arcs %s" % (kind, idx))

g, nu_inf, nu2, nu3, index = counts(norm)
q, p, f = norm.block_counts()
print("\n%d handle block(s) = genus %d; %d cusp block(s) = %d cusps; "
      "%d fixed arc(s)" % (q, g, p, nu_inf, f))

# The price of normalization: coefficient growth in the vertices.
before = max(v.height_bits() for v in sym.vertices)
after = max(v.height_bits() for v in norm.vertices)
print("vertex height: %d bits before, %d bits after (grows roughly "
      "linearly in the level)" % (before, after))
