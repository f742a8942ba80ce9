"""Derived data of a Farey symbol: cusp orbits and widths, the count tuple
(genus, cusps, elliptic points, index), independent generator systems, the
coset table of the group, and the word problem in the gluing generators.
"""

from .exact import IDENTITY, FareyError, _int_arg, _int_args, _shown, _sl2_arg
from .kulkarni import gamma0_symbol
from .siegel import _inverse, start_words


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
    """w > 0 with delta = +-(1 - pqw, p^2 w, -q^2 w, 1 + pqw), the parabolic
    of width w fixing the cusp p/q: the conjugate of [[1, w], [0, 1]]."""
    p, q = cusp.num, cusp.den
    a, b, c, d = delta
    if a + d == -2:
        a, b, c, d = -a, -b, -c, -d
    w = -c // (q * q) if q else b
    if (a, b, c, d) != (1 - p * q * w, p * p * w, -q * q * w, 1 + p * q * w):
        raise FareyError("stabilizer product is not parabolic at its cusp")
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
    glue = sym.gluings()
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
        # the product of the inverse gluings, as four ints: a gluing has
        # det 1, so its inverse is its adjugate (d, -b, -c, a)
        a, b, c, d = IDENTITY
        for j in cycle:
            ga, gb, gc, gd = glue[j]
            a, b, c, d = (gd * a - gb * c, gd * b - gb * d,
                          ga * c - gc * a, ga * d - gc * b)
        width = _width_at((a, b, c, d), sym.vertices[start])
        orbits.append(CuspClass(sym.vertices[start], width, word, tuple(cycle)))
    memo["orbits"] = orbits
    return orbits


def counts(sym):
    """(genus, nu_inf, nu2, nu3, index) read off the symbol.

    nu2/nu3 count the fixed arcs, nu_inf the vertex orbits, the index is
    the sum of the cusp widths (equal to 3(n-2) + nu3, the polygon's area),
    and the genus comes from the Euler characteristic of the glued
    surface.
    """
    nu2 = sum(1 for mu in sym.ell.values() if mu == 2)
    nu3 = sum(1 for mu in sym.ell.values() if mu == 3)
    orbits = cusp_orbits(sym)
    nu_inf = len(orbits)
    index = sum(o.width for o in orbits)
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
    glue = sym.gluings()
    entries = [(glue[i], sym.arc_class(i), i)
               for i, j in enumerate(sym.pairing) if i <= j]
    pairs = []
    if sym.is_normalized():
        for kind, idx in sym.factorize():
            if kind == "quad":
                pairs.append((glue[idx[0]], glue[idx[1]]))
    return GeneratorSystem(entries, pairs)


def word_product(sym, word):
    """Product of gluing generators given as (arc index, exponent) pairs;
    raises FareyError unless the word is iterable, each letter is a pair,
    each index an int in [0, n) and each exponent an int."""
    out, n = IDENTITY, sym.n
    try:
        letters = iter(word)
    except TypeError:
        raise FareyError("a word is an iterable of letters, got %s"
                         % _shown(word)) from None
    for letter in letters:
        try:
            i, e = letter
        except (TypeError, ValueError):
            raise FareyError("word letter %s is not a pair" % _shown(letter)) from None
        _int_arg(i, 0, n, "word letter arc indices are ints in [0, n)")
        _int_arg(e, None, None, "word letter exponents are ints")
        g = sym.gluing(i)
        out = out * (g if e == 1 else g.inverse() if e == -1 else g ** e)
    return out


def _word_data(sym):
    """The word problem's per-symbol data, built once: the index k of the
    arc (infinity, 0), the numerators and denominators of the vertices
    after infinity (increasing, see FareySymbol.vertex_order), the inverse
    gluings, the place of each arc's partner counted from arc k (None on a
    unimodular symbol, whose searches bisect), and the width and stabilizer
    word of the cusp at infinity, rotated to start at infinity itself."""
    memo = sym._memo
    if "word" in memo:
        return memo["word"]
    k, finite = sym.vertex_order()
    orbit = next(o for o in cusp_orbits(sym) if k in o.vertex_indices)
    # the word spells the cycle reversed: cut it after vertex k's letter
    stab = orbit.stabilizer_word
    cut = len(stab) - orbit.vertex_indices.index(k)
    partner = (None if sym.is_unimodular()
               else [(j - k) % sym.n for j in sym.pairing])
    # int lists: _interval reads nums[t] without a Cusp field lookup
    memo["word"] = (k, [v.num for v in finite], [v.den for v in finite],
                    [g.adjugate() for g in sym.gluings()], partner,
                    orbit.width, stab[cut:] + stab[:cut])
    return memo["word"]


def _interval(nums, dens, p, q, start):
    """The boundary interval just left of x = p/q (q > 0) among the
    increasing rationals nums[t]/dens[t]: the lo with those before lo below
    x and those from lo on at or above it, as bisect_left finds it.

    With start None the search is plain bisection.  Otherwise it gallops
    from the right end of interval start, probing 1, 2, 4, ... places
    further in the direction x lies until x is bracketed, and bisects what
    is left.  Every probe keeps the invariant (those before lo below x,
    those from hi on at or above it), so the answer is the one plain
    bisection gives.
    """
    lo, hi = 0, len(nums)
    if start is not None:
        base = start if start < hi else hi - 1
        off = 1
        if nums[base] * q < p * dens[base]:
            lo = base + 1
            while base + off < hi:
                i = base + off
                if nums[i] * q >= p * dens[i]:
                    hi = i
                    break
                lo = i + 1
                off *= 2
        else:
            hi = base
            while base - off >= 0:
                i = base - off
                if nums[i] * q < p * dens[i]:
                    lo = i + 1
                    break
                hi = i
                off *= 2
    while lo < hi:
        i = (lo + hi) // 2
        if nums[i] * q < p * dens[i]:
            lo = i + 1
        else:
            hi = i
    return lo


class CosetTable:
    """The right cosets of a finite-index group in PSL2(Z), as the
    Gamma-classes of directed Farey edges: the class of x(infinity -> 0)
    stands for the coset Gamma x, so the group itself is the class start of
    (infinity -> 0).

    Right multiplication permutes the classes: S[c] reverses the edge, and
    U[c] rotates it inside the Farey triangle on its left (x -> x U with
    U: infinity -> 1 -> 0 -> infinity), so that T = U then S turns the edge
    about its start.  cycle[c] is the T-cycle through c, shared by its
    members, and pos[c] the place of c on it; a cycle is as long as the
    width of the cusp at the edge's start.

    S and U must be lists or tuples of one length m >= 1 with int entries
    in [0, m), S an involution and U of order 3 (U U U the identity), so
    that they define the action of PSL2(Z) = <S> * <U> on m classes; any
    other table raises FareyError naming its first bad class.
    """

    __slots__ = ("S", "U", "start", "cycle", "pos")

    def __init__(self, S, U, start):
        _check_action(S, U)
        self.S, self.U = S, U
        self.start = _int_arg(start, 0, len(S), "start classes are ints in [0, len(S))")
        self.cycle = cycle = [None] * len(S)
        self.pos = pos = [0] * len(S)
        for x in range(len(S)):
            cyc = []
            while cycle[x] is None:
                cycle[x] = cyc
                pos[x] = len(cyc)
                cyc.append(x)
                x = S[U[x]]

    def __len__(self):
        return len(self.S)

    def coset(self, g):
        """The class of g(infinity -> 0), for a det-1 matrix g.

        Euclid with nearest-integer quotients splits g as
        T^q1 S T^q2 S ... T^qk: each step takes |c| to at most |c|/2, and
        each power of T is one jump along a T-cycle, so the walk costs
        O(#partial quotients) whatever n and the exponents are.
        """
        a, b, c, d = g
        S, cycle, pos = self.S, self.cycle, self.pos
        x = self.start
        while c:
            q = (2 * a + c) // (2 * c)
            a, b = a - q * c, b - q * d
            cyc = cycle[x]
            x = S[cyc[(pos[x] + q) % len(cyc)]]
            a, b, c, d = c, d, -a, -b
        cyc = cycle[x]
        return cyc[(pos[x] + a * b) % len(cyc)]  # g = T^(ab), a = d = +-1

    def contains(self, g):
        return self.coset(g) == self.start


def _check_action(S, U):
    """Raise FareyError unless S and U are the tables CosetTable needs."""
    for table in (S, U):
        if not isinstance(table, (list, tuple)):
            raise FareyError("a coset table's S and U are lists, got %s"
                             % _shown(table))
        _int_args(table, "coset table entries must be ints")
    m = len(S)
    if not 0 < m == len(U):
        raise FareyError("a coset table's S and U have one length m >= 1, got "
                         "%d and %d" % (m, len(U)))
    classes = list(range(m))
    if not (0 <= min(S) and max(S) < m and 0 <= min(U) and max(U) < m):
        x = next(x for x in classes if not (0 <= S[x] < m and 0 <= U[x] < m))
        raise FareyError("coset table class %d is sent out of [0, %d)" % (x, m))
    if [S[y] for y in S] != classes or [U[U[y]] for y in U] != classes:
        x = next(x for x in classes if S[S[x]] != x or U[U[U[x]]] != x)
        raise FareyError("%s is not the identity at coset table class %d"
                         % ("S S" if S[S[x]] != x else "U U U", x))


def _unimodular_table(sym):
    """The coset table of a unimodular symbol, in O(n).

    Its polygon is a union of n - 2 Farey triangles, found by a stack scan
    over the vertices read from infinity: a vertex whose stack neighbour
    and successor are Farey neighbours is an ear.  Each triangle gives the
    three classes of its edges directed with it on their left, as the arcs
    run; an order-3 arc adds one class for the triangle outside it, fixed
    by U.  A boundary arc reversed is its partner's arc (through the
    gluing), itself for an order-2 arc, and the outside class for an
    order-3 arc.  That makes 3(n - 2) + nu3 classes, the index.
    """
    k, finite = sym.vertex_order()
    n = sym.n
    if n == 2:  # no triangle: PSL2(Z), orders 2 and 3, or Gamma^2, 3 and 3
        return (CosetTable([0], [0], 0) if 2 in sym.ell.values()
                else CosetTable([1, 0], [0, 1], 0))
    pts = ((1, 0),) + finite
    edge = {}  # (tail, head), by position from infinity -> class
    U = []
    stack = [0, 1]
    for r in range(2, n):
        p, q = pts[r]
        while len(stack) > 1:
            x, y = pts[stack[-2]]
            if abs(x * q - p * y) != 1:
                break
            b = stack.pop()
            a = stack[-1]
            t = len(U)
            edge[a, b], edge[b, r], edge[r, a] = t, t + 1, t + 2
            U += (t + 2, t, t + 1)
        stack.append(r)
    if stack != [0, n - 1]:
        raise FareyError("the polygon is not a union of Farey triangles")
    S = [None] * len(U)
    for (a, b), e in edge.items():
        rev = edge.get((b, a))
        if rev is not None:
            S[e] = rev
            continue
        i = (k + a) % n  # a boundary arc, b = a + 1
        j = sym.pairing[i]
        if j != i:
            S[e] = edge[(j - k) % n, (j - k + 1) % n]
        elif sym.ell[i] == 2:
            S[e] = e
        else:
            S[e] = len(U)
            U.append(len(U))
            S.append(e)
    return CosetTable(S, U, edge[0, 1])


def coset_table(sym):
    """The CosetTable of the symbol's group, built once per symbol.

    The symbol is validated first, which checks that a symbol with a level
    has the group Gamma0(level).  A symbol made by a normalization run or a
    base cut walks on the unimodular symbol that run started from (cuts
    preserve the group).  Otherwise a unimodular symbol gives its own table
    and any other walks on gamma0_symbol(level), which becomes its
    companion; a non-unimodular symbol with neither a level nor a companion
    raises FareyError.
    """
    memo = sym._memo
    if "cosets" in memo:
        return memo["cosets"]
    sym.validate()
    if "companion" not in memo and not sym.is_unimodular():
        if sym.level is None:
            raise FareyError("the word problem on a non-unimodular symbol "
                             "needs its level or the symbol it was cut from")
        memo["companion"] = gamma0_symbol(sym.level)  # rotations share it
    companion = memo.get("companion")
    memo["cosets"] = table = (_unimodular_table(sym) if companion is None
                              else coset_table(companion))
    return table


def express_word(sym, g):
    """Express g as a word in the gluing generators of a valid symbol, or
    None if g is not in the group.

    Returns a list of (arc index, exponent) whose product equals g up to
    sign.  Membership is decided first, exactly, by the coset walk (see
    coset_table), so a non-member costs O(#partial quotients) and never
    reaches the reduction.  A member is then reduced: each step finds the
    boundary interval just left of g(infinity) = a/c, where g(m) lies for
    every large m (g(m) - a/c = -1/(c(cm + d))), and strips the
    corresponding generator, until a matrix fixing infinity is left, a
    power of the stabilizer of infinity.  Read from infinity, the vertices
    of a valid symbol increase, so each step finds its interval by a search
    that keeps the bisection invariant (see _interval) and answers as
    bisection does.  On a unimodular symbol it is bisection; on any other it
    gallops, first from the middle, then from the partner of the arc just
    stripped, where a normalized symbol's next interval most often lies.
    The matrix is kept as four integers, sign-fixed at the top of each step as
    IMat.psl_normalize does.  A member whose reduction runs past the step
    cap raises FareyError; the answer is never None for a member.

    The gluings freely generate the group, a free product of copies of Z,
    Z/2 and Z/3, so g has one reduced word: put each letter on the
    generator min(i, partner(i)), take fixed arcs' exponents mod their
    order and merge neighbours, and every word for g reduces to it.  The
    answer spells it as (arc, 1) letters up to the shortest prefix after
    which the rest fixes infinity, then the power of the stabilizer of
    infinity: one letter when that is one gluing, else its word repeated,
    inverted for a negative power, and pushed onto the prefix (_pushed):
    where they meet, a run of one fixed arc may close up, as on the two-arc
    symbols: Gamma0(1)'s [[1, -1], [1, 0]] is [(1, 1), (1, 1)].

    So a symbol that normalize made from a unimodular symbol, its
    companion, when its stabilizer of infinity is one gluing, takes a
    shorter way to the same word: g is reduced on the companion, where
    words are short, each letter is replaced by that gluing's word in this
    symbol's gluings (start_words, from the run's step records, memoized),
    and the words are pushed one onto the next.  Where the reduction on
    the companion refuses, g is reduced here as on any other symbol.
    """
    _sl2_arg(g, "express_word needs an integral det-1 matrix")
    stab = _word_data(sym)[6]
    if not coset_table(sym).contains(g):
        return None
    if _substitutes(sym):
        try:
            word = _reduce(sym._memo["companion"], g)
        except FareyError:
            pass
        else:
            return _substituted(sym, word, stab[0][0], _cap(g, sym.n))
    return _reduce(sym, g)


def _cap(g, n):
    """The most steps a reduction of g on n arcs may take."""
    a, b, c, d = g
    return ((abs(a) + abs(b) + abs(c) + abs(d)).bit_length() + 8) * (n + 8) * 4


def _reduce(sym, g):
    """The word of a member g by the reduction express_word describes."""
    k, nums, dens, inverses, partner, width, stab = _word_data(sym)
    n = sym.n
    word = []
    a, b, c, d = g
    steps = 0
    cap = _cap(g, n)
    start = None if partner is None else (n - 1) // 2
    while True:
        if a < 0 or (not a and b < 0):
            a, b, c, d = -a, -b, -c, -d
        steps += 1
        if steps > cap:
            raise FareyError("word reduction exceeded its step cap")
        if not c:  # a = d = 1 after the sign fix
            if not b:
                return word
            if b % width:
                raise FareyError("the reduction left a translation that the "
                                 "coset walk accepted but the cusp refuses")
            e = b // width
            if len(stab) == 1:
                return word + [(stab[0][0], -e)]
            if abs(e) * len(stab) > cap:
                raise FareyError("word reduction exceeded its step cap")
            if e < 0:
                stab = _inverse(stab)
            _pushed(word, stab * abs(e), sym.pairing, sym.ell)
            return word
        p, q = (a, c) if c > 0 else (-a, -c)
        side = (k + _interval(nums, dens, p, q, start)) % n
        word.append((side, 1))
        if partner is not None:
            start = partner[side]
        ia, ib, ic, id_ = inverses[side]
        a, b, c, d = (ia * a + ib * c, ia * b + ib * d,
                      ic * a + id_ * c, ic * b + id_ * d)


def _substitutes(sym):
    """Whether express_word substitutes into the companion's words on sym:
    sym carries the step records of a normalize run on its companion, a
    unimodular symbol, with no step of side "other" (see start_words), and
    its stabilizer of infinity is one gluing.  Decided once per symbol."""
    memo = sym._memo
    if "substitutes" not in memo:
        steps = memo.get("steps")
        memo["substitutes"] = (
            steps is not None and len(_word_data(sym)[6]) == 1
            and all(side != "other" for _, _, _, side in steps)
            and memo["companion"].is_unimodular())
    return memo["substitutes"]


def _pushed(word, letters, pairing, ell):
    """Push letters (arc, +-1) onto the reduced word one at a time: a letter
    (i, x) deletes its inverse just before it, (i, -x), or (partner(i), x)
    if i is not fixed, or on a fixed arc the order - 1 letters (i, x) whose
    run it closes up, and else stays.  The word stays reduced.  Returns
    whether the last letter stayed."""
    kept = False
    for letter in letters:
        i, x = letter
        t = len(word) - 1
        if i in ell and word[t:] != [(i, -x)]:
            t = len(word) + 1 - ell[i]
            kept = word[t:] != [letter] * (ell[i] - 1)
        else:
            kept = t < 0 or word[t] not in ((i, -x), (pairing[i], x))
        if kept:
            word.append(letter)
        else:
            del word[t:]
    return kept


def _start_word(sym, u, m):
    """The companion's gluing of arc u to the power m = +-1, as a reduced
    word on sym's gluings spelled in (arc, 1) letters, as express_word
    spells a prefix: the run's word (start_words, from its step records)
    with each inverse letter spelled as its inverse (the partner's letter,
    or a fixed arc's own order - 1 times), pushed.  Built at the first call
    and memoized."""
    memo = sym._memo
    if "start_words" not in memo:  # the letters (i, 1) shared by the words
        memo["start_words"] = ({}, start_words(memo["steps"],
                                               memo["companion"].pairing),
                               [(i, 1) for i in range(sym.n)])
    words, word, one = memo["start_words"]
    if (u, m) not in words:
        pairing, ell = sym.pairing, sym.ell
        spelled = []
        for p, x in word(u) if m == 1 else _inverse(word(u)):
            spelled += ([one[p]] if x == 1
                        else [one[pairing[p]]] * (ell.get(p, 2) - 1))
        words[u, m] = out = []
        _pushed(out, spelled, pairing, ell)
    return words[u, m]


def _substituted(sym, word, s, cap):
    """The companion's word of a member with each letter replaced by its
    _start_word, freely reduced and spelled as express_word does; s is the
    arc whose gluing generates the stabilizer of infinity.  Each start
    word is pushed until one of its letters stays on an arc that is not
    fixed; the rest is copied, exactly, for a start word is reduced and its
    later letters meet only its own.  Only the last letter of a companion
    word may have an exponent other than +-1: a power of the companion's
    stabilizer of infinity, whose word is then one letter on the generator
    of s, so its exponent is carried, never expanded."""
    pairing, ell = sym.pairing, sym.ell
    out, carry = [], 0
    for u, m in word:
        if m != 1 and m != -1:
            (i, _), = _start_word(sym, u, 1)
            carry = m if i == s else -m
            continue
        w = _start_word(sym, u, m)
        for j, letter in enumerate(w):
            if _pushed(out, (letter,), pairing, ell) and letter[0] not in ell:
                out += w[j + 1:]
                break
    t = len(out)
    while t and out[t - 1][0] in (s, pairing[s]):
        t -= 1
    carry += sum(1 if a == s else -1 for a, _ in out[t:])
    del out[t:]
    if len(out) >= cap:
        raise FareyError("word reduction exceeded its step cap")
    return out + [(s, carry)] if carry else out


def contains(sym, g):
    """Membership test for the symbol's group, by the coset walk alone."""
    return coset_table(sym).contains(
        _sl2_arg(g, "contains needs an integral det-1 matrix"))
