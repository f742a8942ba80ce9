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

An arc (a, b, c, d) of Gamma0(N) has three keys: in = (c : d), out = (d : -c)
and odd = (-c : c - d).  A mediant split acts on them by fixed Moebius maps,
so the builder derives the halves' keys from their parent's.  The arc is in
unit form when c and d are units mod N; with x = d/c and y = -c/d its keys
are in = (1, x), out = (1, y) and odd = (1, x - 1), the last one whenever c
alone is a unit.  When x - 1 is a unit too, with i = (x - 1)^-1, the left
half (a, b - a, c, d - c) has x = x - 1 and y = -i, the right half
(a - b, b, c - d, d) has x = -x*i and y = 1 + y, and both are again in unit
form: one modular inverse replaces every p1_normalize call of the split.
Otherwise the halves' keys come from p1_normalize, except the left half's
in-key, which is its parent's odd key since (c : d - c) = -(-c : c - d).
A key (1, r) is exactly the pair p1_normalize returns for its point, so
derived and computed keys compare equal.
"""

from collections import deque
from math import gcd

from . import classical
from .exact import (IMat, INFINITY, ZERO, FareyError, InvalidSymbolError,
                    ORDER2, ORDER3, _coprime_cusp)
from .symbol import FareySymbol, symbol_from_ids

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
    if N < 1:
        raise FareyError("P^1(Z/%d) needs a positive level" % N)
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
    builder will attempt.  coset_key, when given, is called with the four
    entries (a, b, c, d) of a det-1 matrix m and must satisfy
    key(*m1) == key(*m2) iff m1 * m2^{-1} is in the group; it lets the
    builder replace membership scans with hash lookups without changing the
    result.
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


class _P1Key:
    """The coset key of Gamma0(N): the point (c : d) of P^1(Z/N).  The
    builder recognizes it and derives the keys of split arcs itself."""

    __slots__ = ("level",)

    def __init__(self, level):
        self.level = level

    def __call__(self, a, b, c, d):
        return p1_normalize(self.level, c, d)


def _unit_halves(N, x, y):
    """Keys of the halves (left, right) of an arc in unit form with ratios
    x = d/c and y = -c/d mod N: the pairs of their in- and out-keys, or None
    when x - 1 is not a unit mod N."""
    try:
        i = pow(x - 1, -1, N)
    except ValueError:
        return None
    xr = -x * i % N
    return ((1, x - 1), (1, xr)), ((1, -i % N), (1, (y + 1) % N))


def gamma0_oracle(N):
    """Oracle for the Hecke congruence subgroup Gamma0(N): c = 0 mod N."""
    if type(N) is not int or N <= 0:
        raise InvalidSymbolError("level must be a positive integer, got %r" % (N,))
    return MembershipOracle(
        lambda m: m.c % N == 0,
        index_bound=classical.index_gamma0(N),
        coset_key=_P1Key(N),
        name="Gamma0(%d)" % N,
        level=N)


class _Walk:
    """The boundary of the polygon being built, as flat lists by arc id.

    Arc k has the det-1 matrix ent[k] = (a, b, c, d); its columns (a : c)
    and (b : d) are its ends.  nxt[k] and prv[k] are its neighbours in the
    cyclic walk, partner[k] its partner (None while unpaired) and ell[k]
    the order of a self-paired arc.  Ids follow creation order; a split
    arc keeps its id and entries but leaves the walk.
    """

    __slots__ = ("ent", "nxt", "prv", "partner", "ell", "first")

    def __init__(self):
        # the triangle (infinity, 0, 1): arcs (infinity, 0), (0, 1), (1, infinity)
        self.ent = [(1, 0, 0, 1), (0, -1, 1, -1), (1, -1, 1, 0)]
        self.nxt = [1, 2, 0]
        self.prv = [2, 0, 1]
        self.partner = [None, None, None]
        self.ell = {}
        self.first = 0

    def split(self, k):
        """Replace arc k in the walk by its halves at the mediant of its
        ends; return their ids (left, right)."""
        a, b, c, d = self.ent[k]
        left = len(self.ent)
        right = left + 1
        self.ent += ((a, b - a, c, d - c), (a - b, b, c - d, d))
        p, q = self.prv[k], self.nxt[k]
        self.nxt += (right, q)
        self.prv += (p, left)
        self.nxt[p] = left
        self.prv[q] = right
        self.partner += (None, None)
        if self.first == k:
            self.first = left
        return left, right

    def ends(self, k):
        a, b, c, d = self.ent[k]
        return (str(_coprime_cusp(a, c)), str(_coprime_cusp(b, d)))

    def arcs(self):
        """The ids of the walk's arcs in order, starting at first."""
        nxt, first = self.nxt, self.first
        out = []
        k = first
        for _ in range((len(self.ent) + 3) // 2):  # each split adds one arc
            out.append(k)
            k = nxt[k]
        if k != first:
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

    key = oracle.coset_key
    keyed = key is not None
    # for Gamma0(N), split arcs take their keys from their parent's
    N = key.level if type(key) is _P1Key else None
    walk = _Walk()
    ent, partner, ell = walk.ent, walk.partner, walk.ell
    # An arc m's in-key is key(m) and its out-key key(m * REVERSE), the key
    # of the reversed arc; m * REVERSE = (b, -a, d, -c) needs no product.
    # Its odd key is key(m * REVERSE * ORDER3); for Gamma0(N) the ones not
    # read off the in-key are kept for the split (module docstring).
    in_key, out_key, odd_key = [], [], {}
    pool = {}        # out_key -> unpaired arc id, for the keyed fast path
    claimed = set()  # right-coset labels already used up by the polygon

    def claim(label):
        if label in claimed:
            raise FareyError("coset label claimed twice; the oracle does "
                             "not define a genuine subgroup")
        claimed.add(label)

    def made(k):
        """Record a new arc's keys and claim its in-key."""
        if keyed:
            a, b, c, d = ent[k]
            in_key.append(key(a, b, c, d))
            out_key.append(key(b, -a, d, -c))
            claim(in_key[k])

    def odd(k):
        k_in = in_key[k]
        if N is not None and k_in[0] == 1:  # c is a unit
            return (1, (k_in[1] - 1) % N)
        o = odd_key.get(k)
        if o is None:
            # m * REVERSE * ORDER3 = (-a, a - b, -c, c - d)
            a, b, c, d = ent[k]
            o = odd_key[k] = key(-a, a - b, -c, c - d)
        return o

    def split(k):
        """Split arc k and record its halves' keys; return their ids."""
        left, right = walk.split(k)
        if N is None:
            made(left)
            made(right)
            return left, right
        (u, x), (w, y) = in_key[k], out_key[k]
        keys = _unit_halves(N, x, y) if u == w == 1 else None
        if keys is None:
            c, d = ent[k][2:]
            keys = ((odd(k), p1_normalize(N, c - d, d)),
                    (p1_normalize(N, d - c, -c), p1_normalize(N, d, d - c)))
        ins, outs = keys
        in_key.extend(ins)
        out_key.extend(outs)
        claim(ins[0])
        claim(ins[1])
        return left, right

    def mats(k):
        """An arc's matrix m and m * REVERSE, for the keyless tests."""
        a, b, c, d = ent[k]
        return IMat(a, b, c, d), IMat(b, -a, d, -c)

    def is_even(k):
        if keyed:
            return in_key[k] == out_key[k]
        m, neg = mats(k)
        return pred(m * neg.adjugate())

    def is_odd(k):
        if keyed:
            return odd(k) == out_key[k]
        neg = mats(k)[1]
        return pred(neg * ORDER3 * neg.adjugate())

    def find_partner(k):
        if keyed:
            return pool.get(in_key[k])
        m = mats(k)[0]
        for j in walk.arcs():
            if j == k or partner[j] is not None:
                continue
            if pred(m * mats(j)[1].adjugate()):
                return j
        return None

    def resolve(k):
        """Self-pair or cross-pair a freshly created arc if a test fires."""
        if is_even(k):
            partner[k] = k
            ell[k] = 2
            if on_event is not None:
                on_event(("even",) + walk.ends(k))
            return
        if is_odd(k):
            partner[k] = k
            ell[k] = 3
            if keyed:
                claim(out_key[k])
            if on_event is not None:
                on_event(("odd",) + walk.ends(k))
            return
        j = find_partner(k)
        if j is not None:
            partner[k] = j
            partner[j] = k
            if keyed:
                del pool[out_key[j]]
            if on_event is not None:
                on_event(("pair",) + walk.ends(k) + walk.ends(j))
        elif keyed:
            pool[out_key[k]] = k

    for k in range(3):
        made(k)
    for k in range(3):
        resolve(k)
    waiting = deque(range(3))
    cap = 10 * oracle.index_bound if oracle.index_bound else 10**6
    inserts = 0

    while waiting:
        victim = waiting.popleft()
        if partner[victim] is not None:
            continue
        inserts += 1
        if inserts > cap:
            raise FareyError("mediant insertion cap %d exceeded; the oracle "
                             "group looks like it has infinite index" % cap)
        if keyed:
            del pool[out_key[victim]]
            claim(out_key[victim])
        if on_event is not None:
            on_event(("mediant",) + walk.ends(victim))
        left, right = split(victim)
        for child in (left, right):
            resolve(child)
            waiting.append(child)

    return walk.symbol(oracle.level)


def replay_trace(trace, level=None):
    """Rebuild the symbol a trace came from, without consulting any oracle."""
    if trace and trace[0] == ("full-group",):
        if len(trace) > 1:
            raise FareyError("a full-group trace has no further events")
        return _full_group_symbol(level)
    walk = _Walk()
    partner = walk.partner
    by_ends = {walk.ends(k): k for k in range(3)}

    def boundary(ends):
        k = by_ends.get(tuple(ends))
        if k is None:
            raise FareyError("trace event names no boundary arc %r" % (ends,))
        return k

    for event in trace:
        if type(event) is not tuple or not all(type(x) is str for x in event):
            raise FareyError("trace event %r is not a tuple of strings" % (event,))
        kind = event[0] if event else None
        k = boundary(event[1:3])
        if kind in ("even", "odd"):
            partner[k] = k
            walk.ell[k] = 2 if kind == "even" else 3
        elif kind == "pair":
            j = boundary(event[3:5])
            partner[k] = j
            partner[j] = k
        elif kind == "mediant":
            del by_ends[walk.ends(k)]
            for child in walk.split(k):
                by_ends[walk.ends(child)] = child
        else:
            raise FareyError("unknown trace event %r" % (event,))
    return walk.symbol(level)


def gamma0_symbol(N, on_event=None):
    """Convenience wrapper: unimodular symbol for Gamma0(N)."""
    return build_unimodular(gamma0_oracle(N), on_event)
