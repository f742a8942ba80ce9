"""The extended Farey symbol: cyclic vertex list, side-pairing involution,
and elliptic orders on the fixed arcs.

Arc i runs from vertices[i] to vertices[(i+1) % n].  The pairing sigma is an
involution on arc indices; sigma-fixed arcs carry an elliptic order 2 or 3.
The gluing matrix of every arc is derived from the arc matrices, never
stored, so any transformation only has to produce vertices and a pairing.
"""

import json

from .exact import (Cusp, INFINITY, ZERO, FareyError, InvalidSymbolError,
                    NotNormalizedError, ORDER3, REVERSE, arc_matrix, classify,
                    cross, exact_div,
                    CLS_ELLIPTIC2, CLS_ELLIPTIC3, CLS_PARABOLIC, CLS_HYPERBOLIC)


def block_at(paired, k, room):
    """The block of Siegel's normal form starting at position k: ("fixed", 1)
    for an elliptic arc, ("pair", 2) for a cusp block c c*, ("quad", 4) for
    a handle a b a* b*, or None.  paired(p, q) says whether the arcs at
    positions p and q are partners; room is the number of positions left."""
    if paired(k, k):
        return ("fixed", 1)
    if room > 1 and paired(k, k + 1):
        return ("pair", 2)
    if room > 3 and paired(k, k + 2) and paired(k + 1, k + 3):
        return ("quad", 4)
    return None


def gluing_matrix(a, a_star, order=None):
    """The gluing matrix of an arc, from its arc matrix a and its partner's
    arc matrix a_star (a itself for a fixed arc of the given order).

    For a paired arc this is A_a (A_{a*}^-)^{-1}, carrying the reversed
    partner onto the arc; a fixed arc yields the order-2 rotation about
    its midpoint, or the order-3 rotation fixing the triangle hanging off
    the arc.  Raises InvalidSymbolError if the result is not integral.
    """
    am = a_star * REVERSE
    num = am * ORDER3 * am.adjugate() if order == 3 else a * am.adjugate()
    return exact_div(num, am.det())


class FareySymbol:
    """An extended Farey symbol (vertices, pairing involution, elliptic map)."""

    __slots__ = ("vertices", "pairing", "ell", "level", "_mats", "_glue", "_memo")

    def __init__(self, vertices, pairing, ell=None, level=None):
        vertices = tuple(vertices)
        pairing = tuple(pairing)
        ell = dict(ell or {})
        n = len(vertices)
        if n < 2:
            raise InvalidSymbolError("a symbol needs at least 2 vertices")
        if len(pairing) != n:
            raise InvalidSymbolError("pairing length %d != %d arcs" % (len(pairing), n))
        if sorted(pairing) != list(range(n)):
            raise InvalidSymbolError("pairing is not a permutation of the arcs")
        for i, j in enumerate(pairing):
            if pairing[j] != i:
                raise InvalidSymbolError("pairing is not an involution at arc %d" % i)
        fixed = {i for i in range(n) if pairing[i] == i}
        if set(ell) != fixed:
            raise InvalidSymbolError("elliptic orders must be given exactly on the "
                                     "fixed arcs %s" % sorted(fixed))
        for i, mu in ell.items():
            if mu not in (2, 3):
                raise InvalidSymbolError("elliptic order must be 2 or 3, got %r" % mu)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_mats", [None] * n)
        object.__setattr__(self, "_glue", [None] * n)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *a):
        raise AttributeError("FareySymbol is immutable")

    @property
    def n(self):
        return len(self.vertices)

    def __eq__(self, other):
        return (isinstance(other, FareySymbol)
                and self.vertices == other.vertices
                and self.pairing == other.pairing
                and self.ell == other.ell
                and self.level == other.level)

    def __repr__(self):
        return "FareySymbol(n=%d%s)" % (self.n, "" if self.level is None
                                        else ", level=%s" % self.level)

    # -- basic geometry -------------------------------------------------

    def arc(self, i):
        """Endpoints (r, s) of arc i."""
        return self.vertices[i], self.vertices[(i + 1) % self.n]

    def arc_mat(self, i):
        m = self._mats[i]
        if m is None:
            r, s = self.arc(i)
            m = arc_matrix(r, s)
            self._mats[i] = m
        return m

    def width(self, i):
        return self.arc_mat(i).det()

    def is_unimodular(self):
        return all(self.width(i) == 1 for i in range(self.n))

    def infinity_zero_arc(self):
        """Index of the arc (infinity, 0), or None."""
        for i in range(self.n):
            r, s = self.arc(i)
            if r == INFINITY and s == ZERO:
                return i
        return None

    def vertex_order(self):
        """(k, finite): the index k of the arc (infinity, 0) and the
        vertices after infinity, read from that arc on.

        The vertices go once around P^1(R) in circular order exactly when
        finite is 0 and then strictly increasing rationals; raises
        InvalidSymbolError otherwise.  This costs one cross product per
        vertex, and it is what lets the word problem locate a point among
        the boundary intervals by bisection.
        """
        k = self.infinity_zero_arc()
        if k is None:
            raise InvalidSymbolError("no arc (infinity, 0)")
        finite = self.vertices[k + 1:] + self.vertices[:k]
        for r, s in zip(finite, finite[1:]):
            if not s.den or cross(r, s) >= 0:
                raise InvalidSymbolError(
                    "vertices read from (infinity, 0) are not increasing at %s, %s"
                    % (r, s))
        return k, finite

    # -- gluing data -----------------------------------------------------

    def gluing(self, i):
        """The gluing matrix of arc i (integral, det 1, unique up to sign);
        see gluing_matrix."""
        g = self._glue[i]
        if g is not None:
            return g
        g = gluing_matrix(self.arc_mat(i), self.arc_mat(self.pairing[i]),
                          self.ell.get(i))
        if g.det() != 1:
            raise InvalidSymbolError(
                "gluing of arc %d has det %d (paired widths differ?)" % (i, g.det()))
        self._glue[i] = g
        return g

    def gluings(self):
        return [self.gluing(i) for i in range(self.n)]

    # -- combinatorics ---------------------------------------------------

    def distance(self, i, j):
        """Cyclic distance min((i-j) mod n, (j-i) mod n)."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise FareyError("arc index out of range")
        d = (i - j) % n
        return min(d, n - d)

    def arc_class(self, i):
        """Hyperbolic / parabolic / elliptic2 / elliptic3, read off distances."""
        d = self.distance(i, self.pairing[i])
        if d == 0:
            return CLS_ELLIPTIC2 if self.ell[i] == 2 else CLS_ELLIPTIC3
        if d == 1:
            return CLS_PARABOLIC
        return CLS_HYPERBOLIC

    def class_counts(self):
        """Arc classes counted modulo the involution: dict tag -> count."""
        seen = set()
        out = {CLS_HYPERBOLIC: 0, CLS_PARABOLIC: 0, CLS_ELLIPTIC2: 0, CLS_ELLIPTIC3: 0}
        for i in range(self.n):
            if i in seen:
                continue
            seen.add(i)
            seen.add(self.pairing[i])
            out[self.arc_class(i)] += 1
        return out

    def is_linked(self, i, j):
        """True iff the pairs of i and j interleave around the cycle."""
        si, sj = self.pairing[i], self.pairing[j]
        if i == si or j == sj:
            raise FareyError("linkedness is defined for non-fixed arcs")
        if i == j:
            raise FareyError("linkedness needs two distinct arcs")
        n = self.n
        lo, hi = i, si
        inside = lambda k: 0 < (k - lo) % n < (hi - lo) % n
        return inside(j) != inside(sj)

    def normalization_defect(self):
        """Index of an arc violating normalization, or None if normalized.

        Normalized means every arc is at distance <= 2 from its partner,
        with distance exactly 2 iff the arc is linked to another one.  At
        distance 2 the chord has exactly one arc strictly inside, and the
        arc is linked iff that one is not fixed; a chord at distance 1 has
        nothing inside, so it is never linked.
        """
        n = self.n
        for i in range(n):
            j = self.pairing[i]
            d = self.distance(i, j)
            if d > 2:
                return i
            if d == 2:
                mid = (i + 1) % n if j == (i + 2) % n else (i - 1) % n
                if self.pairing[mid] == mid:
                    return i
        return None

    def is_normalized(self):
        return self.normalization_defect() is None

    def factorize(self):
        """Split a normalized symbol into quad/pair/fixed blocks.

        Returns a list of ("quad"|"pair"|"fixed", indices) tuples whose index
        tuples partition the arcs; indices refer to this symbol's labeling.
        Raises NotNormalizedError (carrying a violating arc) otherwise.
        """
        bad = self.normalization_defect()
        if bad is not None:
            raise NotNormalizedError(bad)
        n, pairing = self.n, self.pairing
        for offset in range(n):
            def paired(p, q):
                return pairing[(offset + p) % n] == (offset + q) % n

            blocks = []
            p = 0
            while p < n:
                block = block_at(paired, p, n - p)
                if block is None:
                    break
                kind, size = block
                blocks.append((kind, tuple((offset + p + t) % n for t in range(size))))
                p += size
            else:
                return blocks
        raise InvalidSymbolError("normalized symbol admits no block decomposition")

    def block_counts(self):
        """(#quad, #pair, #fixed) of a normalized symbol."""
        q = p = f = 0
        for kind, _ in self.factorize():
            if kind == "quad":
                q += 1
            elif kind == "pair":
                p += 1
            else:
                f += 1
        return q, p, f

    # -- group -----------------------------------------------------------

    def contains_all(self, oracle):
        """True iff every gluing matrix passes the membership predicate."""
        pred = getattr(oracle, "predicate", oracle)
        return all(pred(self.gluing(i)) for i in range(self.n))

    # -- validation -------------------------------------------------------

    def validate(self, oracle=None):
        """Full structural validation; raises InvalidSymbolError on failure.

        Checks the arc (infinity, 0) and that the vertices go once around
        in circular order (see vertex_order), involution consistency (done
        at construction), equal widths on paired arcs, integrality/det of
        every gluing matrix and a nontrivial gluing on every pair of
        distinct arcs.
        With an oracle, additionally checks membership of every gluing.
        """
        self.vertex_order()
        for i in range(self.n):
            j = self.pairing[i]
            if self.width(i) != self.width(j):
                raise InvalidSymbolError(
                    "paired arcs %d, %d have widths %d != %d"
                    % (i, j, self.width(i), self.width(j)))
            g = self.gluing(i)  # raises if non-integral or det != 1
            if j != i and g.is_identity_psl():
                raise InvalidSymbolError(
                    "paired arcs %d, %d have the identity as gluing" % (i, j))
            if j == i:
                tag = classify(g)
                want = CLS_ELLIPTIC2 if self.ell[i] == 2 else CLS_ELLIPTIC3
                if tag != want:
                    raise InvalidSymbolError(
                        "fixed arc %d has gluing of class %s, expected %s" % (i, tag, want))
        if oracle is not None and not self.contains_all(oracle):
            raise InvalidSymbolError("a gluing matrix fails the membership oracle")
        return self

    # -- relabeling --------------------------------------------------------

    def rotated(self, k):
        """The same symbol with arc k relabeled as arc 0."""
        n = self.n
        k %= n
        verts = self.vertices[k:] + self.vertices[:k]
        pairing = [(self.pairing[(i + k) % n] - k) % n for i in range(n)]
        ell = {(i - k) % n: mu for i, mu in self.ell.items()}
        return FareySymbol(verts, pairing, ell, self.level)

    # -- JSON interchange ---------------------------------------------------

    def to_dict(self):
        d = {"vertices": [str(v) for v in self.vertices],
             "pairing": list(self.pairing),
             "ell": {str(i): mu for i, mu in sorted(self.ell.items())}}
        if self.level is not None:
            d["level"] = self.level
        return d

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    @staticmethod
    def from_dict(d):
        try:
            verts = [Cusp.parse(v) for v in d["vertices"]]
            pairing = list(d["pairing"])
            ell = d.get("ell", {})
            if not isinstance(ell, dict):
                raise TypeError('"ell" must be an object')
            for i in ell:
                # one spelling per arc, so no two keys can name the same arc
                if type(i) is not str or i != str(int(i)):
                    raise ValueError('"ell" key %r is not an arc index in decimal' % (i,))
            ell = {int(i): mu for i, mu in ell.items()}
            if any(type(x) is not int for x in pairing + list(ell.values())):
                raise TypeError('"pairing" entries and "ell" values must be integers')
            level = d.get("level")
            if level is not None and (type(level) is not int or level <= 0):
                raise TypeError('"level" must be a positive integer')
        except (KeyError, ValueError, TypeError, OverflowError, FareyError) as e:
            raise InvalidSymbolError("malformed symbol data: %s" % e)
        return FareySymbol(verts, pairing, ell, level)

    @staticmethod
    def from_json(text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidSymbolError("bad JSON: %s" % e)
        return FareySymbol.from_dict(d)
