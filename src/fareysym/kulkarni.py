"""Construction of a unimodular Farey symbol from a membership oracle.

The procedure is Kulkarni's subdivision method: starting from the triangle
(infinity, 0, 1), every new arc is tested, in creation order, for an order-2
self-pairing, then an order-3 self-pairing, then a cross-pairing with any
other unresolved arc; arcs that resolve nothing wait in a queue, and the
oldest waiting arc is subdivided at the mediant of its endpoints whenever no
test fires.  Pairings are unique when they exist (two candidate partners
would force two boundary arcs into the same right coset of the group), so
the only order-sensitive choice is which arc to subdivide, and breadth-first
subdivision is what reproduces the classical polygons for Gamma0(N).

For Gamma0(N) the membership tests reduce to equalities in P^1(Z/N) applied
to bottom rows of arc matrices, which turns every pairing search into a hash
lookup; any other oracle is answered by explicit matrix membership tests.

An arc (a, b, c, d) of Gamma0(N) has the keys in = (c : d) and out = (d : -c).
Inside the builder a point (c : d) has one of three keys: the int x = d/c
mod N when c is a unit mod N, N + c/d when only d is, and, when neither is,
the pair (g, d * (c/g)^-1 mod N/g) with g = gcd(c, N) > 1.  That pair is
p1_normalize's (g, w) before its search for the least unit lift, and costs
one gcd and one inverse mod N/g.  Scaling by a unit fixes it, and two points
with the same pair differ by the unit mod N that the CRT lifts from
(c'/g) / (c/g) mod N/g.  Each point thus has exactly one key, so keys compare
equal iff their points do, and gamma0_oracle(N).coset_key of a matrix is the
key of its bottom row.  A mediant split sends the in-points of the halves
(a, b - a, c, d - c) and (a - b, b, c - d, d) to the ratios x - 1 and
x/(1 - x) of the parent's x = d/c, and their out-points to (1 - x : 1) and
(x : x - 1), of ratio 1 + y with y = -1/x: fixed Moebius maps.  So the
builder derives the halves' keys from their parent's in whichever chart each
lands, with at most one modular inverse per split, of x - 1, 1 - c/d or
d - c, and none when c and d are units but x - 1 is not, as at every even
level.  The halves whose rows have neither entry a unit take the pair; no
code here calls p1_normalize, the tests' reference for these keys.

An arc pairs with itself with order 2 when in = out and with order 3 when
(-c : c - d) = out.  Two points of P^1(Z/N) are equal iff the determinant of
their rows is 0 mod N, so the tests are the congruences N | c^2 + d^2 and
N | c^2 - cd + d^2 on the arc's bottom row, and no key is needed for them.

The builder runs one breadth-first loop and pairs each new arc in one of two
ways: for Gamma0(N) the loop claims its keys, tests the congruences and looks
it up in the pool of unpaired arcs; any other oracle's arcs go to resolve,
which scans the walk with membership tests.  Either way the walk's pair or
fix writes the pairing, and its split makes the mediant, and each reports
its trace event; replay_trace applies the same three methods to the events
it reads.
"""

from collections import deque
from math import gcd

from . import classical
from .exact import (IMat, INFINITY, ZERO, FareyError, InvalidSymbolError,
                    ORDER2, _coprime_cusp, _int_arg, _int_args, _shown,
                    _sl2_arg)
from .symbol import FareySymbol, gluing_entries, symbol_from_ids

# order-3 rotation attached to the arc (infinity, 0)
_ODD_AT_INF = IMat(-1, -1, 1, 0)
# order-3 rotation infinity -> 1 -> 0 -> infinity of the start triangle
_START_ROTATION = IMat(1, -1, 1, 0)
# The largest index gamma0_symbol builds.  The builder holds 160-180 bytes
# per unit of index at its peak (tracemalloc, N = 2310 to 100003), so this
# bound is about 1.7 GB.
MAX_INDEX = 10**7
# why the arc (infinity, 0), from which a symbol is read, is never split
_NO_ANCHOR = ("cannot yet build a symbol without that arc, which needs "
              "another vertical arc (infinity, x0) as its anchor")


def p1_normalize(N, u, v):
    """Canonical representative of (u : v) in P^1(Z/NZ).

    Stein, Algorithm 8.29.  Two pairs get the same canonical form iff they
    differ by a unit of Z/NZ; (u, v) must be coprime to N as a pair.  The
    form is (0, 1) when N divides u, else (g, v') with g = gcd(u, N) and v'
    the least v*s mod N over the units s with s*u = g mod N.  Those s are
    the unit lifts of s0 = (u/g)^-1 mod N/g, and v*s runs over
    w + (N/g)*j (j mod g), so the least j whose lift is a unit gives v' in
    a few steps.
    """
    _int_arg(N, 1, None, "P^1(Z/N) needs a positive level")
    _int_args((u, v), "P^1(Z/N) coordinates must be ints")
    if N == 1:
        return (0, 0)
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise FareyError("(%s : %s) is not a point of P^1(Z/%s)"
                             % (_shown(u), _shown(v), _shown(N)))
        return (0, 1)
    g = gcd(u, N)
    if g == 1:
        return (1, v * pow(u, -1, N) % N)
    if gcd(g, v) > 1:
        raise FareyError("(%s : %s) is not a point of P^1(Z/%s)"
                         % (_shown(u), _shown(v), _shown(N)))
    step = N // g
    s0 = pow(u // g, -1, step)
    q, w = divmod(v * s0, step)
    v_inv = pow(v, -1, g)
    # v*(s0 + step*k) = w + step*(q + v*k), so candidate j has k = (j-q)/v
    # mod g; some lift of the unit s0 is a unit mod N, so the scan ends
    j = 0
    while gcd(s0 + step * ((j - q) * v_inv % g), N) != 1:
        j += 1
    return (g, w + step * j)


class MembershipOracle:
    """A computable membership test for a finite-index subgroup of PSL2(Z).

    predicate(m) must be invariant under m -> -m and accept the identity.
    index_bound, when declared, a positive int, caps the number of mediant
    insertions the builder will attempt.  coset_key is None except on
    gamma0_oracle's oracles, where key(a, b, c, d) of a det-1 matrix names
    its right coset, key(*m1) == key(*m2) iff m1 * m2^-1 is in Gamma0(N), and
    the builder pairs arcs by hash lookups instead of membership scans.
    """

    def __init__(self, predicate, index_bound=None, name=None, level=None):
        if not predicate(IMat(1, 0, 0, 1)):
            raise FareyError("membership oracle rejects the identity")
        if index_bound is not None:
            _int_arg(index_bound, 1, None, "index_bound must be a positive int")
        self.predicate = predicate
        self.index_bound = index_bound
        self.coset_key = None
        self.name = name or "oracle"
        self.level = level

    def __call__(self, m):
        return self.predicate(m)

    def __repr__(self):
        return "MembershipOracle(%s)" % self.name


class _P1Key:
    """The coset key of Gamma0(N): the chart key of (c : d).  The builder
    recognizes it and derives the keys of split arcs itself."""

    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level

    def __call__(self, a, b, c, d):
        _sl2_arg((a, b, c, d), "a coset key needs an integral det-1 matrix")
        return _chart_key(self.level, c, d)


def _chart_key(N, c, d):
    """The chart key of the point (c : d) of P^1(Z/N), N >= 1: d/c when c
    is a unit mod N, N + c/d when only d is, else _nonunit_key's pair."""
    if gcd(c, N) == 1:
        return d * pow(c, -1, N) % N
    if gcd(d, N) == 1:
        return N + c * pow(d, -1, N) % N
    return _nonunit_key(N, c, d)


def _nonunit_key(N, c, d):
    """The key (g, d * (c/g)^-1 mod N/g), g = gcd(c, N), of a point (c : d)
    with neither entry a unit mod N: p1_normalize's pair before its search
    for the least unit lift (module docstring)."""
    g = gcd(c, N)
    step = N // g
    return g, d * pow(c // g, -1, step) % step


def _split_keys(N, k_in, k_out, c, d):
    """Keys of the halves of an arc with bottom row (c, d), in-key k_in and
    out-key k_out: the pairs (in, out) of the left and right halves.  In
    the two charts they come from the parent's keys with at most one
    modular inverse; a half whose row has neither entry a unit takes
    _nonunit_key's pairs (module docstring)."""
    if type(k_in) is tuple:  # neither c nor d is a unit
        e = d - c
        if gcd(e, N) != 1:
            return ((_nonunit_key(N, c, e), _nonunit_key(N, e, -c)),
                    (_nonunit_key(N, -e, d), _nonunit_key(N, d, e)))
        s = pow(e, -1, N)
        return (N + c * s % N, -c * s % N), (-d * s % N, N + d * s % N)
    if k_in < N:  # c is a unit, x = d/c
        x = k_in
        if gcd(x - 1, N) == 1:
            i = pow(x - 1, -1, N)
            r_out = (k_out + 1) % N if k_out < N else N + x * i % N
            return ((x - 1) % N, -i % N), (-x * i % N, r_out)
        left = ((x - 1) % N, N + (1 - x) % N)
        if k_out < N:  # d is a unit too, y = -c/d = -1/x
            return left, (N + (-1 - k_out) % N, (k_out + 1) % N)
        return left, (_nonunit_key(N, c - d, d), _nonunit_key(N, d, d - c))
    t = k_in - N  # only d is a unit, t = c/d
    r_out = (1 - t) % N
    if gcd(1 - t, N) == 1:
        s = pow(1 - t, -1, N)
        return (N + t * s % N, -t * s % N), (-s % N, r_out)
    return ((_nonunit_key(N, c, d - c), _nonunit_key(N, d - c, -c)),
            (N + (t - 1) % N, r_out))


def gamma0_oracle(N):
    """Oracle for the Hecke congruence subgroup Gamma0(N): c = 0 mod N."""
    _int_arg(N, 1, None, "level must be a positive integer",
             InvalidSymbolError)
    oracle = MembershipOracle(lambda m: m.c % N == 0,
                              index_bound=classical.index_gamma0(N),
                              name="Gamma0(%s)" % _shown(N), level=N)
    oracle.coset_key = _P1Key(N)
    return oracle


class _Walk:
    """The boundary of the polygon being built, as flat lists by arc id.

    Arc k has the det-1 matrix ent[k] = (a, b, c, d); its columns (a : c)
    and (b : d) are its ends.  nxt[k] is the next arc in the cyclic walk,
    partner[k] its partner (None while unpaired) and ell[k] the order of a
    self-paired arc.  Only split changes ent and nxt: the left half of a
    split arc takes over its id and the right half gets the next id, so
    the lists hold exactly the arcs of the walk.  Arc 0, the arc
    (infinity, 0), is never split, and the walk is read from it.  Only
    pair and fix write partner and ell.  Each of split, pair and fix
    passes its event, a mediant or a pairing, to on_event when one is
    given.
    """

    __slots__ = ("ent", "nxt", "partner", "ell", "on_event")

    def __init__(self, on_event=None):
        # the triangle (infinity, 0, 1): arcs (infinity, 0), (0, 1), (1, infinity)
        self.ent = [(1, 0, 0, 1), (0, -1, 1, -1), (1, -1, 1, 0)]
        self.nxt = [1, 2, 0]
        self.partner = [None, None, None]
        self.ell = {}
        self.on_event = on_event

    def pair(self, k, j):
        """Pair arcs k and j with each other."""
        self.partner[k] = j
        self.partner[j] = k
        if self.on_event is not None:
            self.on_event(("pair",) + self.ends(k) + self.ends(j))

    def fix(self, k, mu):
        """Pair arc k with itself, with order mu, 2 or 3."""
        self.partner[k] = k
        self.ell[k] = mu
        if self.on_event is not None:
            self.on_event(("even" if mu == 2 else "odd",) + self.ends(k))

    def split(self, k):
        """Replace arc k in the walk by its halves at the mediant of its
        ends: the left half keeps the id k, the right half gets the next
        id.  Return (k, right)."""
        if self.on_event is not None:
            self.on_event(("mediant",) + self.ends(k))
        ent, nxt = self.ent, self.nxt
        a, b, c, d = ent[k]
        right = len(ent)
        ent[k] = (a, b - a, c, d - c)
        ent.append((a - b, b, c - d, d))
        q = nxt[k]
        nxt[k] = right
        nxt.append(q)
        self.partner.append(None)
        return k, right

    def ends(self, k):
        a, b, c, d = self.ent[k]
        return (str(_coprime_cusp(a, c)), str(_coprime_cusp(b, d)))

    def arcs(self):
        """The ids of the walk's arcs in order, starting at arc 0."""
        nxt = self.nxt
        out = []
        k = 0
        for _ in range(len(self.ent)):
            out.append(k)
            k = nxt[k]
        if k != 0:
            raise FareyError("boundary walk is not closed")
        return out

    def symbol(self, level):
        arcs = self.arcs()
        vertices = [_coprime_cusp(self.ent[k][0], self.ent[k][2]) for k in arcs]
        return symbol_from_ids(arcs, self.partner, self.ell, vertices, level)


def _full_group_symbol(level):
    return FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 3}, level=level)


def build_unimodular(oracle, on_event=None):
    """Unimodular Farey symbol whose gluing group is the oracle's group.

    Deterministic for a fixed oracle.  Raises FareyError when the insertion
    cap is hit, which indicates an infinite-index (or dishonest) oracle, for
    a group other than PSL2(Z) that holds the rotation of the start
    triangle (infinity, 0, 1), which would fold that triangle onto itself,
    and when the arc (infinity, 0) pairs with no arc of that triangle: the
    builder would split it, and a symbol is read from that arc.
    on_event, when given, is called with each replayable event in turn;
    their list is the trace that replay_trace rebuilds the symbol from.
    """
    pred = oracle.predicate
    if pred(ORDER2) and pred(_ODD_AT_INF):
        # Both rotation classes at (infinity, 0) lie in the group, so the
        # group is all of PSL2(Z); the two-arc symbol is the only one that
        # does not overcount.
        if on_event is not None:
            on_event(("full-group",))
        return _full_group_symbol(oracle.level)
    if pred(_START_ROTATION):
        raise FareyError("the group holds the order-3 rotation infinity -> 1 "
                         "-> 0 -> infinity of the start triangle; the builder "
                         "cannot yet build such a group, which needs a start "
                         "other than the triangle (infinity, 0, 1)")

    walk = _Walk(on_event)
    ent, partner = walk.ent, walk.partner
    key = oracle.coset_key
    N = key.level if type(key) is _P1Key else None
    if N is not None:
        # arc k's keys: in = (c : d) and out = (d : -c), the reversed arc's
        # in-key, in the builder's charts (module docstring)
        in_key = [_chart_key(N, c, d) for a, b, c, d in ent]
        out_key = [_chart_key(N, d, -c) for a, b, c, d in ent]
        pool = {}        # out-key -> unpaired arc id
        claimed = set()  # right-coset labels already used up by the polygon

    def claim(label):
        if label in claimed:
            raise FareyError("coset label claimed twice; the oracle does "
                             "not define a genuine subgroup")
        claimed.add(label)

    def resolve(k):
        """Self-pair or cross-pair arc k by membership tests, if one fires,
        of the gluings gluing_entries makes, whose sign pred ignores."""
        a, b, c, d = ent[k]
        r, s = (a, c), (b, d)
        if pred(gluing_entries(r, s, r, s, 2)):
            walk.fix(k, 2)
        elif pred(gluing_entries(r, s, r, s, 3)):
            walk.fix(k, 3)
        else:
            for j in walk.arcs():
                if j != k and partner[j] is None:
                    e, f, g, h = ent[j]
                    if pred(gluing_entries(r, s, (e, g), (f, h))):
                        walk.pair(k, j)
                        return

    fresh = (0, 1, 2)  # the arcs to pair: the triangle's, then each split's
    waiting = deque()
    cap = 10 * oracle.index_bound if oracle.index_bound else 10**6
    inserts = 0

    while True:
        if N is None:
            for k in fresh:
                resolve(k)
        else:
            for k in fresh:
                a, b, c, d = ent[k]
                k_in, k_out = in_key[k], out_key[k]
                claim(k_in)
                # (c : d) = (d : -c), resp. (-c : c - d) = (d : -c), in P^1(Z/N)
                s = c * c + d * d
                if s % N == 0:
                    walk.fix(k, 2)
                elif (s - c * d) % N == 0:
                    claim(k_out)
                    walk.fix(k, 3)
                else:
                    j = pool.pop(k_in, None)
                    if j is None:
                        pool[k_out] = k
                    else:
                        walk.pair(k, j)
        waiting += fresh
        while waiting and partner[waiting[0]] is not None:
            waiting.popleft()
        if not waiting:
            break
        victim = waiting.popleft()
        if victim == 0:  # the arc (infinity, 0)
            raise FareyError("the arc (infinity, 0) pairs with no arc of the "
                             "start triangle, so the builder would split it; "
                             "it " + _NO_ANCHOR)
        inserts += 1
        if inserts > cap:
            raise FareyError("mediant insertion cap %d exceeded; the oracle "
                             "group looks like it has infinite index" % cap)
        a, b, c, d = ent[victim]  # split overwrites it with its left half
        fresh = walk.split(victim)
        if N is not None:
            k_out = out_key[victim]
            del pool[k_out]
            claim(k_out)
            # the left half takes the victim's slots, the right half the next
            (li, lo), (ri, ro) = _split_keys(N, in_key[victim], k_out, c, d)
            in_key[victim] = li
            out_key[victim] = lo
            in_key.append(ri)
            out_key.append(ro)

    # the symbol is read from the walk alone: free the key tables first
    in_key = out_key = pool = claimed = None
    return walk.symbol(oracle.level)


def replay_trace(trace, level=None):
    """Rebuild the symbol a trace came from, without consulting any oracle;
    a split of the arc (infinity, 0) is refused, as in the builder."""
    if not isinstance(trace, (list, tuple)):
        raise FareyError("a trace is a list of events, got %s"
                         % type(trace).__name__)
    if trace and trace[0] == ("full-group",):
        if len(trace) > 1:
            raise FareyError("a full-group trace has no further events")
        return _full_group_symbol(level)
    walk = _Walk()
    by_ends = {walk.ends(k): k for k in range(3)}

    def boundary(ends):
        k = by_ends.get(tuple(ends))
        if k is None:
            raise FareyError("trace event names no boundary arc %r" % (ends,))
        return k

    for event in trace:
        if type(event) is not tuple or not all(type(x) is str for x in event):
            raise FareyError("trace event %s is not a tuple of strings"
                             % _shown(event))
        kind = event[0] if event else None
        k = boundary(event[1:3])
        if kind in ("even", "odd"):
            walk.fix(k, 2 if kind == "even" else 3)
        elif kind == "pair":
            walk.pair(k, boundary(event[3:5]))
        elif kind == "mediant":
            if k == 0:
                raise FareyError("the trace splits the arc (infinity, 0); "
                                 "the builder " + _NO_ANCHOR)
            del by_ends[walk.ends(k)]
            for child in walk.split(k):
                by_ends[walk.ends(child)] = child
        else:
            raise FareyError("unknown trace event %r" % (event,))
    return walk.symbol(level)


def gamma0_symbol(N, on_event=None):
    """Convenience wrapper: unimodular symbol for Gamma0(N).  Refuses a
    level whose index exceeds MAX_INDEX, which would take the builder
    gigabytes.  The index of Gamma0(N) exceeds N for N > 1, so a level past
    MAX_INDEX is refused before it is factored."""
    _int_arg(N, 1, None, "level must be a positive integer",
             InvalidSymbolError)
    oracle = gamma0_oracle(N) if N <= MAX_INDEX else None
    if oracle is None or oracle.index_bound > MAX_INDEX:
        raise InvalidSymbolError("Gamma0(%s) has index above %d, too large "
                                 "to build" % (_shown(N), MAX_INDEX))
    return build_unimodular(oracle, on_event)
