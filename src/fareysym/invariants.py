"""Derived data of a Farey symbol: cusp orbits and widths, the count tuple
(genus, cusps, elliptic points, index), independent generator systems, and
the word problem in the gluing generators.
"""

from .exact import IMat, IDENTITY, FareyError


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


def _width_at(delta, cusp):
    """w > 0 with delta conjugate to [[1, w], [0, 1]] fixing the cusp."""
    p, q = cusp.num, cusp.den
    # x*p + y*q = 1; any solution does, as it only changes conj by a power of T
    x = pow(p, -1, q) if q else p
    y = (1 - x * p) // q if q else 0
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

    Vertex i is the origin of arc i, and its successor gluing(i)^-1(v_i) is
    the end of the partner arc, vertex pairing[i] + 1: gluing(i) carries the
    reversed partner onto arc i, and an order-3 gluing sends v_{i+1} to v_i.
    The cycles of the successor map are the orbits.  The sum of the widths
    over all orbits equals the index of the group.
    """
    memo = sym._memo
    if "orbits" in memo:
        return memo["orbits"]
    n = sym.n
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = (sym.pairing[i] + 1) % n
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


def _word_data(sym):
    """The word problem's per-symbol data, built once: the index k of the
    arc (infinity, 0), the numerators and denominators of the vertices
    after infinity (increasing, see FareySymbol.vertex_order), the inverse
    gluings, the largest vertex entry, and the width and stabilizer word
    of the cusp at infinity, rotated to start at infinity itself."""
    memo = sym._memo
    if "word" in memo:
        return memo["word"]
    k, finite = sym.vertex_order()
    orbit = next(o for o in cusp_orbits(sym) if k in o.vertex_indices)
    cycle = orbit.vertex_indices
    pos = cycle.index(k)
    cycle = cycle[pos:] + cycle[:pos]
    memo["word"] = (k, [v.num for v in finite], [v.den for v in finite],
                    [g.inverse() for g in sym.gluings()],
                    max(max(abs(v.num), v.den) for v in sym.vertices),
                    orbit.width, [(i, -1) for i in reversed(cycle)])
    return memo["word"]


def express_word(sym, g):
    """Express g as a word in the gluing generators of a valid symbol, or
    None if g is not in the group.

    Returns a list of (arc index, exponent) whose product equals g up to
    sign.  The reduction repeatedly locates the image of infinity (nudged
    off the vertices by evaluating at a large rational) among the boundary
    intervals and strips the corresponding generator; a matrix fixing
    infinity is then compared against powers of the stabilizer of infinity.
    Read from infinity, the vertices of a valid symbol increase, so each
    step finds its interval by bisection, in O(log n) cross products.

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
    k, nums, dens, inverses, vert_height, width, stab = _word_data(sym)
    n = sym.n

    word = []
    g = g.psl_normalize()
    steps = 0
    cap = (g.size().bit_length() + 8) * (n + 8) * 4
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
            shift = g.b * g.a  # psl-normalization makes the diagonal +-1
            if shift % width:
                return None
            e = shift // width
            if len(stab) == 1:
                return word + [(stab[0][0], -e)]
            if abs(e) * len(stab) > cap:
                raise FareyError("word reduction exceeded its step cap")
            if e < 0:
                stab = [(i, -x) for i, x in reversed(stab)]
            return word + stab * abs(e)
        # x = (p : q) = g(m), q > 0; c != 0 and m > |d| make q nonzero
        m = 1 + max(max(abs(x) for x in g.entries()), vert_height)
        side = None
        while side is None:
            p, q = g.a * m + g.b, g.c * m + g.d
            if q < 0:
                p, q = -p, -q
            # the finite vertices before lo lie below x, those from hi on above
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                d = p * dens[mid] - nums[mid] * q
                if d == 0:  # x is a vertex: move it off
                    m *= 2
                    break
                if d < 0:
                    hi = mid
                else:
                    lo = mid + 1
            else:
                side = (k + lo) % n
        g2 = (inverses[side] * g).psl_normalize()
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
