"""The extended Farey symbol: cyclic vertex list, side-pairing involution,
and elliptic orders on the fixed arcs.

Arc i runs from vertices[i] to vertices[(i+1) % n].  The pairing sigma is an
involution on arc indices; sigma-fixed arcs carry an elliptic order 2 or 3.
The gluing matrix of every arc is computed from the four endpoints of the
arc and its partner by one closed formula (gluing_entries), never stored,
so any transformation only has to produce vertices and a pairing.
"""

import json

from . import classical
from .exact import (Cusp, IMat, INFINITY, ZERO, FareyError, InvalidSymbolError,
                    NotNormalizedError, cross, _int_arg, _int_args, _new, _shown,
                    _shown_cusp, CLS_ELLIPTIC2, CLS_ELLIPTIC3, CLS_PARABOLIC,
                    CLS_HYPERBOLIC)

_ARC = "arc index out of range: arc indices are ints in [0, n)"


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


def gluing_entries(r, s, t, u, order=None):
    """The gluing IMat (a, b, c, d) of the arc (r, s) whose partner
    is the arc (t, u); the points are integer pairs (p, q) of either sign,
    and a fixed arc of the given order is its own partner.

    With the arc matrix A = [r s] of positive determinant w, the width, and
    A* = [t u] likewise, this is A (A* R)^-1 for R = REVERSE: it carries
    the reversed partner onto the arc.  A fixed arc of order 3 yields
    (A R) U (A R)^-1 for U = ORDER3, the rotation fixing the triangle
    hanging off the arc, whose trace is -w before the division by w.  Any
    signs of the pairs give the matrix, sign included, that their canonical
    Cusps give.  An integral result has det w / w*, for w* the partner's
    width, so paired arcs of unequal widths are refused first and every
    matrix returned has det 1.  Raises FareyError for a degenerate arc and
    InvalidSymbolError if the widths differ or the result is not integral.
    """
    (r1, r2), (s1, s2), (t1, t2), (u1, u2) = r, s, t, u
    d_rs = r1 * s2 - s1 * r2
    d_tu = t1 * u2 - u1 * t2
    if not d_rs or not d_tu:
        p, q = (r, s) if not d_rs else (t, u)
        raise FareyError("degenerate arc (%s, %s)"
                         % (_shown_cusp(p), _shown_cusp(q)))
    w = abs(d_tu)
    if abs(d_rs) != w:
        raise InvalidSymbolError("paired arcs (%s, %s) and (%s, %s) have widths "
                                 "%s != %s" % (_shown_cusp(r), _shown_cusp(s),
                                               _shown_cusp(t), _shown_cusp(u),
                                               _shown(abs(d_rs)), _shown(w)))
    if order == 3:
        if d_rs == -w:  # d_rs < 0, as |d_rs| == w > 0
            s1, s2 = -s1, -s2
        a = r1 * (r2 - s2) + s1 * s2
        b = -(r1 * (r1 - s1) + s1 * s1)
        c = r2 * (r2 - s2) + s2 * s2
        d = -a - w
    else:
        if d_rs != d_tu:  # their signs differ, as |d_rs| == |d_tu| > 0
            s1, s2 = -s1, -s2
        a = -(r1 * t2 + s1 * u2)
        b = r1 * t1 + s1 * u1
        c = -(r2 * t2 + s2 * u2)
        d = r2 * t1 + s2 * u1
        # flip when exactly one of (r1, r2), (t1, t2) is minus a Cusp pair
        if (r2 < 0 or (r2 == 0 and r1 < 0)) != (t2 < 0 or (t2 == 0 and t1 < 0)):
            a, b, c, d = -a, -b, -c, -d
    if w != 1:
        (qa, ra), (qb, rb), (qc, rc), (qd, rd) = (divmod(a, w), divmod(b, w),
                                                  divmod(c, w), divmod(d, w))
        if ra or rb or rc or rd:
            raise InvalidSymbolError("gluing numerator %s is not divisible by %s"
                                     % (_shown((a, b, c, d)), _shown(w)))
        a, b, c, d = qa, qb, qc, qd
    return _new(IMat, (a, b, c, d))


class FareySymbol:
    """An extended Farey symbol (vertices, pairing involution, elliptic map)."""

    __slots__ = ("vertices", "pairing", "ell", "level", "_glue", "_memo")

    def __init__(self, vertices, pairing, ell=None, level=None):
        vertices = tuple(vertices)
        if not {Cusp}.issuperset(map(type, vertices)):  # one C-level test
            bad = next(v for v in vertices if type(v) is not Cusp)
            raise InvalidSymbolError("vertices must be Cusps, got %s" % _shown(bad))
        pairing = _int_args(tuple(pairing), "pairing entries must be ints",
                            InvalidSymbolError)
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
            _int_arg(i, 0, n, _ARC, InvalidSymbolError)
            _int_arg(mu, 2, 4, "elliptic order must be 2 or 3",
                     InvalidSymbolError)
        if level is not None:
            _int_arg(level, 1, None, "level must be a positive integer",
                     InvalidSymbolError)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "level", level)
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
        v = self.vertices
        return v[_int_arg(i, 0, len(v), _ARC)], v[(i + 1) % len(v)]

    def width(self, i):
        return abs(cross(*self.arc(i)))

    def is_unimodular(self):
        v = self.vertices
        return all(abs(cross(r, s)) == 1 for r, s in zip(v, v[1:] + v[:1]))

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
        the boundary intervals by a search over the vertex order.
        """
        k = self.infinity_zero_arc()
        if k is None:
            raise InvalidSymbolError("no arc (infinity, 0)")
        finite = self.vertices[k + 1:] + self.vertices[:k]
        for r, s in zip(finite, finite[1:]):
            if not s.den or cross(r, s) >= 0:
                raise InvalidSymbolError(
                    "vertices read from (infinity, 0) are not increasing at %s, %s"
                    % (_shown_cusp(r), _shown_cusp(s)))
        return k, finite

    # -- gluing data -----------------------------------------------------

    def gluing(self, i):
        """The gluing matrix of arc i (integral, det 1, unique up to sign);
        see gluing_entries."""
        g = self._glue[_int_arg(i, 0, len(self._glue), _ARC)]
        if g is None:
            n, v, j = self.n, self.vertices, self.pairing[i]
            g = self._glued(i, v[i], v[(i + 1) % n], v[j], v[(j + 1) % n])
        return g

    def _glued(self, i, r, s, t, u):
        """The gluing of arc i from its ends r, s and its partner's t, u
        as Cusps or integer pairs, cached; gluing_entries checks it.  The
        partner j of a non-fixed arc is glued by the inverse, which
        gluing_entries gives as minus the adjugate, so that is cached too:
        its checks are those of arc i, as they are symmetric in the arcs."""
        g = self._glue[i] = gluing_entries(r, s, t, u, self.ell.get(i))
        j = self.pairing[i]
        if j != i:
            a, b, c, d = g
            self._glue[j] = _new(IMat, (-d, b, c, -a))
        return g

    def gluings(self):
        """The gluing matrices of all arcs, in arc order; cached ones are
        read without a call."""
        return [g or self.gluing(i) for i, g in enumerate(self._glue)]

    # -- combinatorics ---------------------------------------------------

    def distance(self, i, j):
        """Cyclic distance min((i-j) mod n, (j-i) mod n)."""
        n = self.n
        d = (_int_arg(i, 0, n, _ARC) - _int_arg(j, 0, n, _ARC)) % n
        return min(d, n - d)

    def arc_class(self, i):
        """Hyperbolic / parabolic / elliptic2 / elliptic3, read off distances."""
        n = self.n
        d = (_int_arg(i, 0, n, _ARC) - self.pairing[i]) % n
        if d == 0:
            return CLS_ELLIPTIC2 if self.ell[i] == 2 else CLS_ELLIPTIC3
        if d == 1 or d == n - 1:
            return CLS_PARABOLIC
        return CLS_HYPERBOLIC

    def class_counts(self):
        """Arc classes counted modulo the involution: dict tag -> count."""
        out = {CLS_HYPERBOLIC: 0, CLS_PARABOLIC: 0, CLS_ELLIPTIC2: 0, CLS_ELLIPTIC3: 0}
        for i, j in enumerate(self.pairing):
            if i <= j:  # one arc per orbit, as generators takes them
                out[self.arc_class(i)] += 1
        return out

    def normalization_defect(self):
        """Index of an arc violating normalization, or None if normalized.

        Normalized means every arc is at distance <= 2 from its partner,
        with distance exactly 2 iff the arc is linked to another one.  At
        distance 2 the chord has exactly one arc strictly inside, and the
        arc is linked iff that one is not fixed; a chord at distance 1 has
        nothing inside, so it is never linked.  Memoized.
        """
        memo = self._memo
        if "defect" not in memo:
            n, pairing = self.n, self.pairing
            bad = None
            for i, j in enumerate(pairing):
                d = min((i - j) % n, (j - i) % n)
                mid = (i + 1) % n if j == (i + 2) % n else (i - 1) % n
                if d > 2 or d == 2 and pairing[mid] == mid:
                    bad = i
                    break
            memo["defect"] = bad
        return memo["defect"]

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
        if not callable(pred):
            raise FareyError("a membership oracle is callable, got %s"
                             % _shown(oracle))
        return all(pred(self.gluing(i)) for i in range(self.n))

    # -- validation -------------------------------------------------------

    def validate(self, oracle=None):
        """Full structural validation; raises InvalidSymbolError on failure.

        Checks the arc (infinity, 0) and that the vertices go once around
        in circular order (see vertex_order), involution consistency (done
        at construction), equal widths on paired arcs and integrality of
        every gluing matrix, so det 1 (both in gluing_entries, once per
        pair of arcs), a nontrivial gluing on every pair of distinct arcs,
        and a positive area 3(n - 2) + nu3, so an order-3 arc on a two-arc
        symbol.  With a level, the group must be Gamma0(level): every gluing
        has c = 0 (mod level), and the index 3(n - 2) + nu3, the polygon's
        area, is Gamma0(level)'s.  A pass is memoized, a failure is not.
        With an oracle, additionally checks membership of every gluing, on
        every call; an oracle that is not callable raises FareyError.
        """
        if "valid" not in self._memo:
            self._check_structure()
            self._memo["valid"] = True
        if oracle is not None and not self.contains_all(oracle):
            raise InvalidSymbolError("a gluing matrix fails the membership oracle")
        return self

    def _check_structure(self):
        self.vertex_order()
        # exact tuples: CPython's fast unpacking skips tuple subclasses
        pts = [(v.num, v.den) for v in self.vertices]
        pts.append(pts[0])
        glue = self._glue
        for i, j in enumerate(self.pairing):
            # raises if the widths differ or the result is not integral
            g = glue[i] or self._glued(i, pts[i], pts[i + 1],
                                       pts[j], pts[j + 1])
            if j != i and not g.b and not g.c:  # det 1, so g = +-identity
                raise InvalidSymbolError(
                    "paired arcs %d, %d have the identity as gluing" % (i, j))
        nu3 = sum(mu == 3 for mu in self.ell.values())
        if 3 * (self.n - 2) + nu3 < 1:
            raise InvalidSymbolError("the polygon has area 0: a two-arc symbol "
                                     "needs an order-3 arc")
        level = self.level
        # c first, so that a wrong huge level fails before it is factored
        if level is not None and (
                any(g.c % level for g in glue)
                or 3 * (self.n - 2) + nu3 != classical.index_gamma0(level)):
            raise InvalidSymbolError("the symbol's group is not Gamma0(%s), its "
                                     "level" % _shown(level))

    # -- relabeling --------------------------------------------------------

    def rotated(self, k):
        """The same symbol with arc k relabeled as arc 0."""
        n = self.n
        k = _int_arg(k, None, None, "rotations are by an int number of arcs") % n
        verts = self.vertices[k:] + self.vertices[:k]
        pairing = [(self.pairing[(i + k) % n] - k) % n for i in range(n)]
        ell = {(i - k) % n: mu for i, mu in self.ell.items()}
        out = FareySymbol(verts, pairing, ell, self.level)
        if "companion" in self._memo:  # the same group
            out._memo["companion"] = self._memo["companion"]
        return out

    # -- JSON interchange ---------------------------------------------------

    def to_dict(self):
        d = {"vertices": [str(v) for v in self.vertices],
             "pairing": list(self.pairing),
             "ell": {str(i): mu for i, mu in sorted(self.ell.items())}}
        if self.level is not None:
            d["level"] = self.level
        return d

    def to_json(self):
        return json.dumps(self.to_dict())

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
        except (KeyError, ValueError, TypeError, OverflowError, FareyError) as e:
            raise InvalidSymbolError("malformed symbol data: %s" % e)
        return FareySymbol(verts, pairing, ell, d.get("level"))

    @staticmethod
    def from_json(text):
        """The symbol of a JSON document, given as str or as UTF-8 bytes.
        Raises InvalidSymbolError for anything that is not one: bytes that
        are not UTF-8, bad JSON, nesting too deep for the parser or an
        integer too long to convert."""
        try:
            if isinstance(text, bytes):
                text = text.decode("utf-8")
            d = json.loads(text)
        except (TypeError, ValueError, RecursionError) as e:
            raise InvalidSymbolError("bad JSON: %s" % e)
        return FareySymbol.from_dict(d)


def symbol_from_ids(ids, partner, ell, vertices, level):
    """The FareySymbol of a polygon kept by arc id: ids in boundary order,
    partner and ell by id, vertices by position.  Raises FareyError when an
    arc's partner is not among ids."""
    pos = {a: p for p, a in enumerate(ids)}
    pairing = [pos.get(partner[a]) for a in ids]
    if None in pairing:
        p = pairing.index(None)
        raise FareyError("boundary arc (%s, %s) has no partner on the boundary"
                         % (_shown_cusp(vertices[p]),
                            _shown_cusp(vertices[(p + 1) % len(ids)])))
    fixed = {p: ell.get(a) for p, a in enumerate(ids) if partner[a] == a}
    return FareySymbol(vertices, pairing, fixed, level)
