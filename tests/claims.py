"""The paper's headline claims as checks on one group, shared by the tests
on Gamma0(N) (test_invariants) and on permutation groups (test_kulkarni):
the quads of the normal form are a symplectic basis of H1, and the
stabilizer word of the cusp at vertex 0 is the block relation."""

from fractions import Fraction

from fareysym.invariants import cusp_orbits, express_word, generators


class IntersectionForm:
    """omega on Z^pairs of a unimodular symbol: the curve dual to a pair
    {i, i*} of non-elliptic arcs (i < i*) crosses arc i one way and arc i*
    the other, and two such curves cross once, with a sign, exactly when
    their pairs interleave."""

    def __init__(self, sym):
        self.sym = sym
        self.pairs = [(i, j) for i, j in enumerate(sym.pairing) if i < j]
        self.col = {i: c for c, (i, _) in enumerate(self.pairs)}
        self.omega = [[(i < k < j < l) - (k < i < l < j)
                       for k, l in self.pairs] for i, j in self.pairs]

    def vector(self, m):
        """The exponent sum, pair by pair, of the word of m."""
        v = [0] * len(self.pairs)
        for i, e in express_word(self.sym, m):
            j = self.sym.pairing[i]
            if i < j:
                v[self.col[i]] += e
            elif j < i:
                v[self.col[j]] -= e
        return v

    def times(self, v):
        """omega v."""
        return [sum(x * y for x, y in zip(row, v)) for row in self.omega]


def rank(rows):
    """The rank over Q of an integer matrix."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(r + 1, len(rows)):
            if rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def gram_is_J(form, ns, g, where):
    """The exponent-sum vectors of the quad gluings (a1, b1, ..., ag, bg)
    of a normalized symbol ns of genus g have Gram matrix +-J under the
    intersection form of a unimodular symbol of the same group, one sign
    per symbol."""
    vectors = [form.vector(m) for pair in
               generators(ns).symplectic_pairs for m in pair]
    images = [form.times(w) for w in vectors]
    gram = [[sum(x * y for x, y in zip(v, w)) for w in images]
            for v in vectors]
    sign = gram[0][1] if g else 1
    assert sign in (1, -1), where
    assert gram == [[sign * ((y == x + 1 and x % 2 == 0)
                             - (x == y + 1 and y % 2 == 0))
                     for y in range(2 * g)] for x in range(2 * g)], where


def block_relation_holds(sym, where):
    """The cusp orbit of the vertex where the block word of a normalized
    symbol starts goes once around the polygon: its stabilizer word reads
    the blocks in reverse order, a quad (a, b, a*, b*) as b a* b* a, a pair
    (c, c*) as c and a fixed arc as itself, every letter with exponent
    -1, up to rotation."""
    blocks = sym.factorize()
    orbit, = [o for o in cusp_orbits(sym)
              if blocks[0][1][0] in o.vertex_indices]
    letters = [j for j, _ in orbit.stabilizer_word]
    assert {e for _, e in orbit.stabilizer_word} == {-1}, where
    want = []
    for kind, idx in reversed(blocks):
        want += [idx[1], idx[2], idx[3], idx[0]] if kind == "quad" else [idx[0]]
    assert len(letters) == len(want) and any(
        letters[k:] + letters[:k] == want for k in range(len(want))), where
