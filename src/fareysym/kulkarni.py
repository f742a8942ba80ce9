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
lookup; a generic oracle falls back to explicit matrix membership tests.
"""

from collections import deque
from math import gcd

from . import classical
from .exact import (Cusp, IMat, INFINITY, ZERO, FareyError, InvalidSymbolError,
                    ORDER2, ORDER3, REVERSE, arc_matrix)
from .symbol import FareySymbol

# order-3 rotation attached to the arc (infinity, 0)
_ODD_AT_INF = IMat(-1, -1, 1, 0)


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
    if N == 1:
        return (0, 0)
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise FareyError("(%d : %d) is not a point of P^1(Z/%d)" % (u, v, N))
        return (0, 1)
    g = gcd(u, N)
    if g == 1:
        return (1, v * pow(u, -1, N) % N)
    if gcd(g, v) > 1:
        raise FareyError("(%d : %d) is not a point of P^1(Z/%d)" % (u, v, N))
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
    index_bound, when declared, caps the number of mediant insertions the
    builder will attempt.  coset_key, when given, must be a function with
    key(m1) == key(m2) iff m1 * m2^{-1} is in the group; it lets the builder
    replace membership scans with hash lookups without changing the result.
    """

    def __init__(self, predicate, index_bound=None, coset_key=None,
                 name=None, level=None):
        if not predicate(IMat(1, 0, 0, 1)):
            raise FareyError("membership oracle rejects the identity")
        self.predicate = predicate
        self.index_bound = index_bound
        self.coset_key = coset_key
        self.name = name or "oracle"
        self.level = level

    def __call__(self, m):
        return self.predicate(m)

    def __repr__(self):
        return "MembershipOracle(%s)" % self.name


def gamma0_oracle(N):
    """Oracle for the Hecke congruence subgroup Gamma0(N): c = 0 mod N."""
    if N < 1:
        raise InvalidSymbolError("level must be a positive integer, got %r" % N)
    return MembershipOracle(
        lambda m: m.c % N == 0,
        index_bound=classical.index_gamma0(N),
        coset_key=lambda m: p1_normalize(N, m.c, m.d),
        name="Gamma0(%d)" % N,
        level=N)


class _Arc:
    __slots__ = ("r", "s", "mat", "neg", "in_key", "out_key", "partner",
                 "ell", "prv", "nxt")

    def __init__(self, r, s, keyed=False, key=None):
        self.r = r
        self.s = s
        self.mat = arc_matrix(r, s)
        if self.mat.det() != 1:
            raise FareyError("builder arcs must be unimodular")
        self.neg = self.mat * REVERSE
        self.in_key = key(self.mat) if keyed else None
        self.out_key = key(self.neg) if keyed else None
        self.partner = None
        self.ell = None
        self.prv = None  # neighbors in the cyclic boundary walk
        self.nxt = None

    def ends(self):
        return (str(self.r), str(self.s))


def _seed(make):
    """The triangle (infinity, 0, 1) as a closed walk of make(r, s) arcs."""
    arcs = [make(INFINITY, ZERO), make(ZERO, Cusp(1)), make(Cusp(1), INFINITY)]
    for arc, succ in zip(arcs, arcs[1:] + arcs[:1]):
        arc.nxt = succ
        succ.prv = arc
    return arcs


def _split(victim, make):
    """Replace victim in the walk by (left, right), split at its mediant."""
    m = victim.mat
    mid = Cusp(m.a - m.b, m.c - m.d)
    left = make(victim.r, mid)
    right = make(mid, victim.s)
    left.prv, left.nxt = victim.prv, right
    right.prv, right.nxt = left, victim.nxt
    victim.prv.nxt = left
    victim.nxt.prv = right
    return left, right


def _cycle(first, count):
    """The arcs of the cyclic walk starting at first, as a list."""
    out = []
    arc = first
    for _ in range(count):
        out.append(arc)
        arc = arc.nxt
    if arc is not first:
        raise FareyError("boundary walk is not closed")
    return out


def _full_group_symbol(level):
    return FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 3}, level=level)


def build_unimodular(oracle, on_event=None):
    """Unimodular Farey symbol whose gluing group is the oracle's group.

    Deterministic for a fixed oracle.  Raises FareyError when the insertion
    cap is hit, which indicates an infinite-index (or dishonest) oracle.
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

    keyed = oracle.coset_key is not None
    key = oracle.coset_key
    pool = {}        # out_key -> arc, for the keyed fast path
    claimed = set()  # right-coset labels already used up by the polygon

    def claim(label):
        if keyed:
            if label in claimed:
                raise FareyError("coset label claimed twice; the oracle does "
                                 "not define a genuine subgroup")
            claimed.add(label)

    def make_arc(r, s):
        arc = _Arc(r, s, keyed, key)
        claim(arc.in_key)
        return arc

    def is_even(arc):
        if keyed:
            return arc.in_key == arc.out_key
        return pred(arc.mat * arc.neg.adjugate())

    def is_odd(arc):
        if keyed:
            return key(arc.neg * ORDER3) == arc.out_key
        return pred(arc.neg * ORDER3 * arc.neg.adjugate())

    def find_partner(arc):
        if keyed:
            return pool.get(arc.in_key)
        for cand in _cycle(first, count):
            if cand is arc or cand.partner is not None:
                continue
            if pred(arc.mat * cand.neg.adjugate()):
                return cand
        return None

    def resolve(arc):
        """Self-pair or cross-pair a freshly created arc if a test fires."""
        if is_even(arc):
            arc.partner = arc
            arc.ell = 2
            if on_event is not None:
                on_event(("even",) + arc.ends())
            return
        if is_odd(arc):
            arc.partner = arc
            arc.ell = 3
            claim(arc.out_key)
            if on_event is not None:
                on_event(("odd",) + arc.ends())
            return
        other = find_partner(arc)
        if other is not None:
            arc.partner = other
            other.partner = arc
            if keyed:
                del pool[other.out_key]
            if on_event is not None:
                on_event(("pair",) + arc.ends() + other.ends())
        elif keyed:
            pool[arc.out_key] = arc

    seed = _seed(make_arc)
    first = seed[0]
    count = 3
    waiting = deque()
    for arc in seed:
        resolve(arc)
        waiting.append(arc)
    cap = 10 * oracle.index_bound if oracle.index_bound else 10**6
    inserts = 0

    while waiting:
        victim = waiting.popleft()
        if victim.partner is not None:
            continue
        inserts += 1
        if inserts > cap:
            raise FareyError("mediant insertion cap %d exceeded; the oracle "
                             "group looks like it has infinite index" % cap)
        if keyed:
            del pool[victim.out_key]
            claim(victim.out_key)
        if on_event is not None:
            on_event(("mediant",) + victim.ends())
        left, right = _split(victim, make_arc)
        if first is victim:
            first = left
        count += 1
        for child in (left, right):
            resolve(child)
            waiting.append(child)

    return _assemble(_cycle(first, count), oracle.level)


def _assemble(arcs, level):
    index = {id(arc): i for i, arc in enumerate(arcs)}
    pairing = [index.get(id(arc.partner)) for arc in arcs]
    if None in pairing:
        raise FareyError("boundary arc %r has no partner on the boundary"
                         % (arcs[pairing.index(None)].ends(),))
    ell = {i: arc.ell for i, arc in enumerate(arcs) if arc.partner is arc}
    return FareySymbol([arc.r for arc in arcs], pairing, ell, level=level)


def replay_trace(trace, level=None):
    """Rebuild the symbol a trace came from, without consulting any oracle."""
    if trace and trace[0] == ("full-group",):
        return _full_group_symbol(level)
    seed = _seed(_Arc)
    first = seed[0]
    count = 3
    by_ends = {arc.ends(): arc for arc in seed}

    def boundary(ends):
        arc = by_ends.get(tuple(ends))
        if arc is None:
            raise FareyError("trace event names no boundary arc %r" % (ends,))
        return arc

    for event in trace:
        kind = event[0] if event else None
        arc = boundary(event[1:3])
        if kind in ("even", "odd"):
            arc.partner = arc
            arc.ell = 2 if kind == "even" else 3
        elif kind == "pair":
            other = boundary(event[3:5])
            arc.partner = other
            other.partner = arc
        elif kind == "mediant":
            left, right = _split(arc, _Arc)
            if first is arc:
                first = left
            count += 1
            del by_ends[arc.ends()]
            by_ends[left.ends()] = left
            by_ends[right.ends()] = right
        else:
            raise FareyError("unknown trace event %r" % (event,))
    return _assemble(_cycle(first, count), level)


def gamma0_symbol(N, on_event=None):
    """Convenience wrapper: unimodular symbol for Gamma0(N)."""
    return build_unimodular(gamma0_oracle(N), on_event)
