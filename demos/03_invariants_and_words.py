"""
Cusp data, generators and the word problem
==========================================

The successor map walks a vertex of the polygon through the gluing
elements; its cycles are the cusp classes and the product along a cycle
generates the stabilizer, with the cusp width appearing as the translation
length.  The word problem first decides membership by a walk on the
coset table (one class per right coset, the index of them), then peels a
member back to the identity one side-crossing at a time.
"""

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

# Matrices outside the group are refused by the coset walk alone.
print("\ncoset table of Gamma0(15): %d classes" % len(coset_table(sym)))
print("is [[1,1],[1,2]] in Gamma0(15)?", contains(sym, IMat(1, 1, 1, 2)),
      express_word(sym, IMat(1, 1, 1, 2)))
