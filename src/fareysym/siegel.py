"""Siegel dissection of a Farey symbol into normalized form.

The two base operations cut the fundamental polygon along a chord between
two vertices and reglue one of the pieces after moving it by the pivot's
gluing matrix; they preserve the group and the symbol axioms.  A Siegel
step chains at most four base operations to extend the normalized prefix W
of the cyclic arc word by a fixed arc (+1), an adjacent pair (+2) or an
interleaved quadruple (+4), following Siegel's construction of a canonical
dissection of a compact Riemann surface.  The driver loops Siegel steps
until the whole word is a sequence of quad/pair/fixed blocks.

A run works on one private polygon rather than on a chain of symbols.  The
polygon holds the start vertex of the arc at each position, the id of the
arc at each position, and, by arc id, the partner and the elliptic order.
A cut gives its chord pair the ids of the pivot pair it replaces, so the
partner and order tables never change during a run; a cut only splices
the two id/vertex lists, moving one piece's vertices by the pivot gluing.
A FareySymbol is built from the polygon only at the end, or when a caller
asks for one (on_op, NormalizationState.symbol).

Throughout, the polygon is kept rotated so that W occupies positions
[0, w): each cut is told which of its arcs must land at position w and
splices its lists already rotated.  W is never transformed: the arc
(infinity, 0) is placed inside W at the start, and the polygon refuses any
cut that would move or replace that arc, which is what keeps coefficient
growth in check.
"""

from .exact import FareyError, InvalidSymbolError, arc_matrix
from .symbol import FareySymbol, gluing_matrix


def _cyc(seq, a, b):
    """seq[a:b] read cyclically; empty when a == b (mod len(seq))."""
    n = len(seq)
    a %= n
    b %= n
    return seq[a:b] if a <= b else seq[a:] + seq[:b]


class _Polygon:
    """The working polygon of a normalization run, cut in place.

    verts[p] and ids[p] are the start vertex and the id of the arc at
    position p; partner and ell are indexed by id.  keep is the id of an
    arc that no cut may move or replace, or None.
    """

    __slots__ = ("verts", "ids", "partner", "ell", "level", "keep", "_frozen")

    def __init__(self, sym, keep=None):
        self.verts = list(sym.vertices)
        self.ids = list(range(sym.n))
        self.partner = sym.pairing
        self.ell = sym.ell
        self.level = sym.level
        self.keep = keep
        self._frozen = sym

    @property
    def n(self):
        return len(self.ids)

    def pos(self, arc_id):
        return self.ids.index(arc_id)

    def paired(self, p, q):
        """True iff the arc at position q is the partner of the one at p."""
        return self.partner[self.ids[p]] == self.ids[q]

    def gluing(self, i, j):
        """Gluing matrix of the arc at position i, whose partner is at j."""
        n, v = self.n, self.verts
        return gluing_matrix(arc_matrix(v[i], v[(i + 1) % n]),
                             arc_matrix(v[j], v[(j + 1) % n]),
                             self.ell.get(self.ids[i]))

    def freeze(self):
        """The polygon as a FareySymbol, cached until the next cut."""
        if self._frozen is None:
            pos = [0] * self.n
            for p, arc_id in enumerate(self.ids):
                pos[arc_id] = p
            pairing = [pos[self.partner[a]] for a in self.ids]
            ell = {pos[a]: mu for a, mu in self.ell.items()}
            self._frozen = FareySymbol(self.verts, pairing, ell, self.level)
        return self._frozen

    def glue(self, head_ids, head, tail_ids, tail, g, move_tail, chord, place):
        """Make head + tail the polygon's cyclic word of arcs.

        The tail's vertices are moved by g^-1 (move_tail) or the head's by
        g.  chord holds the ids of the pivot arcs the cut replaces; place =
        (old position, position) rotates the result so the arc that sat at
        the old position lands at position, and by default chord[0] is
        arc 0.
        """
        if self.keep is not None and (
                self.keep in chord
                or self.keep in (tail_ids if move_tail else head_ids)):
            raise InvalidSymbolError(
                "normalization would move or replace the arc (infinity, 0); "
                "rotate the symbol so it can start the normalized prefix")
        if g.det() != 1:
            raise InvalidSymbolError(
                "pivot gluing has det %d (paired widths differ?)" % g.det())
        if move_tail:
            tail = g.inverse().apply_all(tail)
        else:
            head = g.apply_all(head)
        ids = head_ids + tail_ids
        verts = head + tail
        n = self.n
        if len(ids) != n or len(verts) != n:
            raise FareyError("cut produced %d arcs, expected %d" % (len(verts), n))
        if len(set(ids)) != n:
            raise FareyError("cut produced repeated arc ids")
        if place is None:
            k = ids.index(chord[0])
        else:
            k = (ids.index(self.ids[place[0]]) - place[1]) % n
        self.ids = ids[k:] + ids[:k]
        self.verts = verts[k:] + verts[:k]
        self._frozen = None


def _cut_result(sym, poly):
    """What a base operation returns: nothing for the working polygon of a
    run, else (symbol, mapping) with mapping old position -> new one."""
    if poly is sym:
        return None
    return poly.freeze(), {arc_id: p for p, arc_id in enumerate(poly.ids)}


def base_cut(sym, pivot, c1, c2, side, place=None):
    """Non-elliptic cut-and-glue along the chord (vertex c1, vertex c2).

    Writing the cyclic word as X1 a X2 X3 a* X4 with a the pivot arc, c2 the
    vertex between X2 and X3 and c1 the vertex between X4 and X1, the piece
    containing the pivot is moved by gluing(a)^-1 (side="pivot") or the other
    piece is moved by gluing(a) (side="other"); the chord becomes the new
    paired arcs a', a'*.  Returns (symbol, mapping) where mapping sends old
    arc positions to new ones (the pivot pair maps to the chord pair).
    place = (old arc, position) rotates the output so that the image of the
    old arc sits at position; by default the chord a' is arc 0.  sym may
    also be the working polygon of a normalization run, which is then cut
    in place and nothing is returned.
    """
    poly = sym if isinstance(sym, _Polygon) else _Polygon(sym)
    n = poly.n
    i = pivot
    j = poly.pos(poly.partner[poly.ids[i]])
    if i == j:
        raise FareyError("base_cut needs a non-fixed pivot")
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise FareyError("cut vertices out of range")
    if (c2 - (i + 1)) % n > (j - (i + 1)) % n or (c1 - (j + 1)) % n > (i - (j + 1)) % n:
        raise FareyError("cuts do not separate the pivot from its partner")
    if side not in ("pivot", "other"):
        raise FareyError("side must be 'pivot' or 'other'")

    # Head X4 a' X3 (a' starts at c1), tail X2 a'* X1 (a'* starts at c2); the
    # pivot piece is the tail.  The chord a' (a'*) keeps the id of a (a*).
    ids, v = poly.ids, poly.verts
    poly.glue(_cyc(ids, j + 1, c1) + [ids[i]] + _cyc(ids, c2, j),
              _cyc(v, j + 1, c1 + 1) + _cyc(v, c2, j),
              _cyc(ids, i + 1, c2) + [ids[j]] + _cyc(ids, c1, i),
              _cyc(v, i + 1, c2 + 1) + _cyc(v, c1, i),
              poly.gluing(i, j), side == "pivot", (ids[i], ids[j]), place)
    return _cut_result(sym, poly)


def base_cut_elliptic(sym, pivot, cut, side, place=None):
    """Cut from the elliptic point of a fixed arc to the vertex `cut`.

    The piece between the cut and the pivot arc is moved: side="before"
    moves the factor X1 (from the cut vertex up to the pivot) by the
    gluing's inverse, side="after" moves the factor X2 (from past the pivot
    back to the cut vertex) by the gluing.  The elliptic arc reappears with
    the cut vertex as an endpoint; its order is unchanged.  place and the
    working polygon are as for base_cut; by default the new elliptic arc
    is arc 0.
    """
    poly = sym if isinstance(sym, _Polygon) else _Polygon(sym)
    n = poly.n
    i = pivot
    if not poly.paired(i, i):
        raise FareyError("base_cut_elliptic needs a fixed pivot")
    if not 0 <= cut < n:
        raise FareyError("cut vertex out of range")
    if side not in ("before", "after"):
        raise FareyError("side must be 'before' or 'after'")

    # Head X2 a' (a' starts at the cut vertex), tail X1.
    ids, v = poly.ids, poly.verts
    poly.glue(_cyc(ids, i + 1, cut) + [ids[i]],
              _cyc(v, i + 1, cut) + [v[cut]],
              _cyc(ids, cut, i),
              _cyc(v, cut, i),
              poly.gluing(i, i), side == "before", (ids[i],), place)
    return _cut_result(sym, poly)


class NormalizationState:
    """A working polygon together with the length of its normalized prefix W.

    The polygon is kept rotated so the prefix occupies arc positions
    [0, w_len); the prefix always decomposes into quad/pair/fixed blocks.
    siegel_step advances the state in place.  .symbol is the polygon as a
    FareySymbol, built on demand and cached until the next cut.
    """

    __slots__ = ("w_len", "log", "_poly")

    def __init__(self, symbol, w_len=0, log=None):
        self._poly = _Polygon(symbol, symbol.infinity_zero_arc())
        self.w_len = w_len
        self.log = log

    @property
    def symbol(self):
        return self._poly.freeze()

    def done(self):
        return self.w_len >= self._poly.n


def _start_state(sym, collect_log=False):
    """Rotate so the block containing (infinity, 0) can start the prefix."""
    i0 = sym.infinity_zero_arc()
    if i0 is None:
        raise InvalidSymbolError("symbol has no arc (infinity, 0)")
    n = sym.n
    j0 = sym.pairing[i0]
    if j0 == i0 or j0 == (i0 + 1) % n:
        rot = i0
    elif j0 == (i0 - 1) % n:
        rot = j0
    else:
        rot = i0
        for p in (i0, i0 - 1, i0 - 2, i0 - 3):
            if (sym.pairing[p % n] == (p + 2) % n
                    and sym.pairing[(p + 1) % n] == (p + 3) % n):
                rot = p % n
                break
    return NormalizationState(sym.rotated(rot), 0, [] if collect_log else None)


def _extend_blocks(poly, w):
    """Grow the prefix over ready-made blocks sitting right after it."""
    n = poly.n
    k = w
    while k < n:
        if poly.paired(k, k):
            k += 1
        elif k + 1 < n and poly.paired(k, k + 1):
            k += 2
        elif k + 3 < n and poly.paired(k, k + 2) and poly.paired(k + 1, k + 3):
            k += 4
        else:
            break
    return k


def _step_elliptic(poly, w, pivot, on_op):
    base_cut_elliptic(poly, pivot, w, "before", (pivot, w))
    if on_op:
        on_op(poly.freeze())
    if not poly.paired(w, w):
        raise FareyError("elliptic step did not fix arc %d" % w)
    return w + 1


def _step_parabolic(poly, w, pivot, on_op):
    """Move the adjacent pair at (pivot, pivot+1) next to the prefix.

    Of the two pair operations, the one cutting at the prefix boundary and
    moving the gap block (variant A) keeps coefficient growth markedly lower
    than moving the tail block (variant B), so A is used whenever it leaves
    (infinity, 0) alone.
    """
    if poly.keep not in poly.ids[w:pivot]:      # the gap variant A moves
        base_cut(poly, pivot, w, pivot + 1, "pivot", (pivot, w))
        if on_op:
            on_op(poly.freeze())
        if not poly.paired(w, w + 1):
            raise FareyError("parabolic step did not pair arcs %d, %d" % (w, w + 1))
    else:
        base_cut(poly, pivot, 0, pivot + 1, "other")
        if on_op:
            on_op(poly.freeze())
        # word is already (a' a'* W X gY); the prefix simply starts at a'.
        if not poly.paired(0, 1):
            raise FareyError("parabolic step did not pair arcs 0, 1")
    return w + 2


def _step_hyperbolic(poly, w, a_pos, on_op):
    """Case where two interleaved pivot pairs become a quad after W.

    Four base operations; the pieces containing W (and the trailing block T)
    are never transformed.  Each chord keeps the id of the pivot it
    replaces, so a, b, a*, b* below name the current arcs of those ids.
    """
    n = poly.n
    a, b = poly.ids[a_pos], poly.ids[a_pos + 1]
    a_s, b_s = poly.partner[a], poly.partner[b]
    b_pos, as_pos, bs_pos = a_pos + 1, poly.pos(a_s), poly.pos(b_s)
    if not w <= a_pos < b_pos < as_pos < bs_pos < n:
        raise FareyError("pivots out of pattern")

    # 1: cut (w, a*); move the piece X a b Y by gluing(b)^-1.
    base_cut(poly, b_pos, w, as_pos, "pivot", (b_pos, w))
    if on_op:
        on_op(poly.freeze())
    if poly.ids[w:w + 2] != [b, a_s]:
        raise FareyError("hyperbolic cut 1 out of pattern")

    # 2: cut (b'*, b'-start); move the piece b' a* Z Y by gluing(a).
    base_cut(poly, poly.pos(a), poly.pos(b_s), w, "other", (w + 1, w))
    if on_op:
        on_op(poly.freeze())
    if poly.ids[w:w + 2] != [a_s, b_s]:
        raise FareyError("hyperbolic cut 2 out of pattern")

    # 3: cut (a'*-start, past b'*); move the piece a'* b'* by gluing(b'*)^-1.
    base_cut(poly, w + 1, w, w + 2, "pivot", (w + 1, w))
    if on_op:
        on_op(poly.freeze())
    a3 = poly.pos(a)
    if not (poly.ids[w] == b_s and poly.ids[a3 + 1:a3 + 3] == [b, a_s]):
        raise FareyError("hyperbolic cut 3 out of pattern")

    # 4: cut (past b'', a'*-start); move the piece X Z Y a' b''* by gluing(a')^-1.
    base_cut(poly, a3, w + 1, a3 + 2, "pivot", (w, w))
    if on_op:
        on_op(poly.freeze())
    if not (poly.paired(w, w + 2) and poly.paired(w + 1, w + 3)):
        raise FareyError("hyperbolic step did not leave a quad")
    return w + 4


def _choose_step(poly, w):
    """(kind, pivots, handler) of the first non-extend step that applies."""
    ids, partner = poly.ids, poly.partner
    n = len(ids)
    for e in range(w, n):
        if partner[ids[e]] == ids[e]:
            return "elliptic", [e], _step_elliptic
    for k in range(w, n - 1):
        if partner[ids[k]] == ids[k + 1]:
            return "parabolic", [k], _step_parabolic
    # the first arc whose partner precedes it within [w, n)
    seen = {}
    for f in range(w, n):
        a_pos = seen.get(partner[ids[f]])
        if a_pos is not None:
            return "hyperbolic", [a_pos, a_pos + 1], _step_hyperbolic
        seen[ids[f]] = f
    raise FareyError("no Siegel step applies; symbol state is inconsistent")


def siegel_step(state, on_op=None):
    """Extend the normalized prefix of state in place and return state.

    w_len strictly increases.  Dispatch: grow over ready-made blocks when
    possible, otherwise handle the first fixed arc (+1), the first adjacent
    pair (+2), or pick the interleaved pivots given by the first arc whose
    partner precedes it (+4).  One of the four cases always applies while
    w_len < n.  on_op, when given, is called with the symbol after every
    base operation.
    """
    poly, w = state._poly, state.w_len
    if w >= poly.n:
        raise FareyError("symbol is already fully normalized")

    k = _extend_blocks(poly, w)
    if k > w:
        kind, pivots = "extend", []
        state.w_len = k
    else:
        kind, pivots, handler = _choose_step(poly, w)
        state.w_len = handler(poly, w, pivots[0], on_op)
    if state.log is not None:
        state.log.append({"kind": kind, "pivots": pivots, "w_len": state.w_len})
    return state


def normalize(sym, on_op=None, collect_log=False, validate=True):
    """Normalized Farey symbol with the same group as the input.

    Every arc of the output is at distance <= 2 from its partner and the
    word factors into quad (handle), pair (cusp) and fixed (elliptic)
    blocks.  The arc (infinity, 0) is preserved.  on_op, when given, is
    called with every intermediate symbol produced by a base operation,
    which costs one symbol construction per base operation.
    """
    if validate:
        sym.validate()
    state = _start_state(sym, collect_log)
    while not state.done():
        w_before = state.w_len
        state = siegel_step(state, on_op)
        if state.w_len <= w_before:
            raise FareyError("Siegel step failed to make progress")
    out = state.symbol
    if validate:
        out.validate()
        if not out.is_normalized():
            raise FareyError("normalization finished on a non-normalized symbol")
    return (out, state.log) if collect_log else out
