"""Derived data of a Farey symbol: cusp orbits and widths, the count tuple
(genus, cusps, elliptic points, index), independent generator systems, and
the word problem in the gluing generators.
"""

from .exact import Cusp, IMat, IDENTITY, INFINITY, FareyError, gcdex
from .symbol import (ARC_ELLIPTIC2, ARC_ELLIPTIC3, ARC_HYPERBOLIC,
                     ARC_PARABOLIC)


class CuspClass:
    """One Gamma-orbit of polygon vertices.

    The stabilizer word is a sequence of (arc index, exponent) whose product
    generates the stabilizer of the representative; it is parabolic and
    conjugate to [[1, w], [0, 1]] where w > 0 is the width of the cusp.
    """

    __slots__ = ("representative", "width", "stabilizer_word", "vertex_indices")

    def __init__(self, representative, width, stabilizer_word, vertex_indices):
        self.representative = representative
        self.width = width
        self.stabilizer_word = stabilizer_word
        self.vertex_indices = vertex_indices

    def __repr__(self):
        return "CuspClass(%s, width=%d, orbit_size=%d)" % (
            self.representative, self.width, len(self.vertex_indices))


def successor_permutation(sym):
    """The successor map on vertex indices: v -> gluing(arc at v)^-1 (v).

    Vertex i is the origin of arc i, and the image is again a vertex; the
    cycles of this permutation are the Gamma-orbits of the vertices.
    """
    where = {v: i for i, v in enumerate(sym.vertices)}
    succ = []
    for i in range(sym.n):
        img = sym.gluing(i).inverse().apply(sym.vertices[i])
        j = where.get(img)
        if j is None:
            raise FareyError("successor of vertex %s is not a vertex" % sym.vertices[i])
        succ.append(j)
    return succ


def _width_at(delta, cusp):
    """w > 0 with delta conjugate to [[1, w], [0, 1]] fixing the cusp."""
    p, q = cusp.num, cusp.den
    x, y, _ = gcdex(p, q)  # x*p + y*q = 1
    conj = IMat(p, -y, q, x)
    t = conj.inverse() * delta * conj
    if t.c != 0 or abs(t.a) != 1 or t.a != t.d:
        raise FareyError("stabilizer product is not parabolic at its cusp")
    w = t.b * t.a
    if w <= 0:
        raise FareyError("cusp width came out nonpositive")
    return w


def cusp_orbits(sym):
    """Gamma-orbits of the polygon vertices, as CuspClass records.

    The sum of the widths over all orbits equals the index of the group.
    """
    memo = sym._memo
    if "orbits" in memo:
        return memo["orbits"]
    succ = successor_permutation(sym)
    seen = [False] * sym.n
    orbits = []
    for start in range(sym.n):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = succ[i]
        if i != start:
            raise FareyError("successor map is not a permutation")
        word = [(j, -1) for j in reversed(cycle)]
        delta = IDENTITY
        for j in cycle:
            delta = sym.gluing(j).inverse() * delta
        width = _width_at(delta, sym.vertices[start])
        orbits.append(CuspClass(sym.vertices[start], width, word, tuple(cycle)))
    memo["orbits"] = orbits
    return orbits


def counts(sym):
    """(genus, nu_inf, nu2, nu3, index) read off the symbol.

    nu2/nu3 count the fixed arcs, nu_inf the vertex orbits, the index is
    the sum of the cusp widths (equal to 3(n-2) + nu3 on unimodular
    symbols), and the genus comes from the Euler characteristic of the
    glued surface.
    """
    nu2 = sum(1 for mu in sym.ell.values() if mu == 2)
    nu3 = sum(1 for mu in sym.ell.values() if mu == 3)
    orbits = cusp_orbits(sym)
    nu_inf = len(orbits)
    index = sum(o.width for o in orbits)
    if sym.is_unimodular():
        if index != 3 * (sym.n - 2) + nu3:
            raise FareyError("width sum disagrees with arc count")
    twice_genus = 1 - nu_inf + (sym.n - nu2 - nu3) // 2
    if (sym.n - nu2 - nu3) % 2 or twice_genus % 2 or twice_genus < 0:
        raise FareyError("arc count and orbits give no genus")
    return (twice_genus // 2, nu_inf, nu2, nu3, index)


class GeneratorSystem:
    """Independent generators read off the pairing, one per orbit.

    entries is a list of (matrix, class tag, arc index); for a normalized
    symbol, symplectic_pairs lists the (hyperbolic, hyperbolic) couples
    coming from the quad blocks, one per handle of the surface.
    """

    __slots__ = ("entries", "symplectic_pairs")

    def __init__(self, entries, symplectic_pairs):
        self.entries = entries
        self.symplectic_pairs = symplectic_pairs

    def count_by_class(self):
        out = {ARC_HYPERBOLIC: 0, ARC_PARABOLIC: 0,
               ARC_ELLIPTIC2: 0, ARC_ELLIPTIC3: 0}
        for _, tag, _ in self.entries:
            out[tag] += 1
        return out

    def matrices(self):
        return [m for m, _, _ in self.entries]

    def __len__(self):
        return len(self.entries)


def generators(sym):
    """GeneratorSystem for the symbol's group."""
    entries = []
    for i in range(sym.n):
        j = sym.pairing[i]
        if i <= j:
            entries.append((sym.gluing(i), sym.arc_class(i), i))
    pairs = []
    if sym.is_normalized():
        for kind, idx in sym.factorize():
            if kind == "quad":
                pairs.append((sym.gluing(idx[0]), sym.gluing(idx[1])))
    return GeneratorSystem(entries, pairs)


def word_product(sym, word):
    """Product of gluing generators given as (arc index, exponent) pairs."""
    out = IDENTITY
    for i, e in word:
        g = sym.gluing(i)
        out = out * (g if e == 1 else g.inverse() if e == -1 else g ** e)
    return out


def _infinity_orbit(sym):
    for orbit in cusp_orbits(sym):
        if INFINITY in (sym.vertices[i] for i in orbit.vertex_indices):
            return orbit
    raise FareyError("infinity is not a vertex of the symbol")


def express_word(sym, g, max_steps=None):
    """Express g as a word in the gluing generators, or None if g is not in
    the group.

    Returns a list of (arc index, exponent) whose product equals g up to
    sign.  The reduction repeatedly locates the image of infinity (nudged
    off the vertices by evaluating at a large rational) among the boundary
    intervals and strips the corresponding generator; a matrix fixing
    infinity is then compared against powers of the stabilizer of infinity.

    The entry-size of the working matrix can grow transiently (a parabolic
    shift may enlarge the top row before the next step flips it down), so
    progress is measured on a window: the running minimum of the size must
    drop within n+8 steps.  A member always reduces to the identity or to a
    power of the infinity-stabilizer, because its translate of the domain
    is interior-disjoint from the domain itself; a non-member eventually
    oscillates among the finitely many translates touching the domain, and
    that stall is the rejection witness.
    """
    if g.det() != 1:
        raise FareyError("express_word needs an integral det-1 matrix")
    orbit = _infinity_orbit(sym)
    width = orbit.width
    stab = orbit.stabilizer_word
    # rotate the stabilizer word so it starts at infinity itself
    pos = next(k for k, (i, _) in enumerate(reversed(stab))
               if sym.vertices[i] == INFINITY)
    cycle = [i for i, _ in reversed(stab)]
    cycle = cycle[pos:] + cycle[:pos]
    stab = [(i, -1) for i in reversed(cycle)]
    vertex_set = set(sym.vertices)
    verts = sym.vertices
    n = sym.n

    word = []
    g = g.psl_normalize()
    steps = 0
    cap = max_steps or (g.size().bit_length() + 8) * (n + 8) * 4
    window = n + 8
    best = g.size()
    since_best = 0
    while True:
        steps += 1
        if steps > cap:
            raise FareyError("word reduction exceeded its step cap")
        if g.is_identity_psl():
            return word
        if g.c == 0:
            k = g.b * g.a  # psl-normalization makes the diagonal +-1
            if k % width:
                return None
            e = k // width
            if e > 0:
                for _ in range(e):
                    word.extend(stab)
            else:
                inv = [(i, -x) for i, x in reversed(stab)]
                for _ in range(-e):
                    word.extend(inv)
            return word
        m = 1 + max(max(abs(x) for x in g.entries()),
                    max(max(abs(v.num), v.den) for v in verts))
        while True:
            x = Cusp(g.a * m + g.b, g.c * m + g.d)
            if x not in vertex_set:
                break
            m *= 2
        side = None
        for i in range(n):
            r, s = verts[i], verts[(i + 1) % n]
            if (r.num * x.den - x.num * r.den) * (x.num * s.den - s.num * x.den) \
                    * (s.num * r.den - r.num * s.den) > 0:
                side = i
                break
        if side is None:
            raise FareyError("image of infinity escaped all boundary intervals")
        g2 = (sym.gluing(side).inverse() * g).psl_normalize()
        if g2.size() < best:
            best = g2.size()
            since_best = 0
        else:
            since_best += 1
            if since_best > window:
                return None
        word.append((side, 1))
        g = g2


def contains(sym, g):
    """Membership test for the symbol's group."""
    return express_word(sym, g) is not None
