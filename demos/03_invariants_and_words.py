"""
Cusp data, generators and the word problem
==========================================

The successor map walks a vertex of the polygon through the gluing
elements; its cycles are the cusp classes and the product along a cycle
generates the stabilizer, with the cusp width appearing as the translation
length.  The word problem first decides membership by a walk on the
coset table (one class per right coset, the index of them), then peels a
member back to the identity one side-crossing at a time.  On a symbol
that normalize made, the word is the unimodular symbol's with each letter
replaced by its word in the normalized gluings.
"""

from itertools import groupby

from fareysym import (IMat, contains, coset_table, cusp_orbits, express_word,
                      gamma0_symbol, generators, normalize, word_product)

sym = gamma0_symbol(15)
print("cusp classes of Gamma0(15):")
for orbit in cusp_orbits(sym):
    print("   representative %-5s width %d  orbit vertices %s"
          % (orbit.representative, orbit.width,
             [str(sym.vertices[i]) for i in orbit.vertex_indices]))

norm = normalize(sym)
gens = generators(norm)
print("\nindependent generators of the normalized symbol:")
for m, tag, arc in gens.entries:
    print("   arc %2d  %-10s %s" % (arc, tag, m.entries()))
print("symplectic pair(s):", [(a.entries(), b.entries())
                              for a, b in gens.symplectic_pairs])

# Express a product of generators back as a word.
g = sym.gluing(1) * sym.gluing(2).inverse() * sym.gluing(0)
word = express_word(sym, g)
print("\ntarget matrix:", g.entries())
print("recovered word (arc, exponent):", word)
print("product of the word:", word_product(sym, word).entries(), "(up to sign)")

# The same g in the gluings of the normalized symbol, each letter named by
# its block: a handle (quad), a cusp (pair) or an elliptic point (fixed).
# The word comes from the unimodular one, each letter replaced by that
# gluing's word in the normalized gluings, which the normalization recorded.
block = {i: kind for kind, arcs in norm.factorize() for i in arcs}
name = {"quad": "handle", "pair": "cusp", "fixed": "elliptic"}
nword = express_word(norm, g)
print("\nthe same matrix in the normalized gluings:")
runs = [(i, sum(e for _, e in run)) for i, run in groupby(nword, lambda x: x[0])]
print("   ", " ".join("%s(%d)%s" % (name[block[i]], i, "" if e == 1 else "^%d" % e)
                      for i, e in runs))
if not word_product(norm, nword).psl_eq(g):
    raise SystemExit("the normalized word does not multiply back to g")
print("its product is the target matrix, up to sign")

# Matrices outside the group are refused by the coset walk alone.
print("\ncoset table of Gamma0(15): %d classes" % len(coset_table(sym)))
print("is [[1,1],[1,2]] in Gamma0(15)?", contains(sym, IMat(1, 1, 1, 2)),
      express_word(sym, IMat(1, 1, 1, 2)))
