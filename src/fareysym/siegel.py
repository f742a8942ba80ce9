"""Siegel dissection of a Farey symbol into normalized form.

The two base operations cut the fundamental polygon along a chord between
two vertices and reglue one of the pieces after moving it by the pivot's
gluing matrix; they preserve the group and the symbol axioms.  A Siegel
step extends the normalized prefix W of the cyclic arc word by one block
(symbol.block_at): a fixed arc (+1) or an adjacent pair (+2) by one base
operation, or an interleaved quadruple (+4) by the composite of four,
following Siegel's construction of a canonical dissection of a compact
Riemann surface.  The driver loops Siegel steps until the whole word is a
sequence of blocks.

A run is one NormalizationState: a private polygon, cut in place, and the
length of W.  The polygon holds the start vertex and the id of the arc at
each position, and, by arc id, the partner and the elliptic order.  A cut
gives its chord pair the ids of the pivot pair it replaces, so the partner
and order tables never change during a run.  Every cut and step is a
segment table: it reads the word as slices, moves some of them by a matrix
and commits the new word, a list of (ids, vertices) segments and an
optional rotation, through NormalizationState.commit, the one place that
changes the polygon, checks it and reports it to on_op, once per step but
an extend.  Both public cuts are one cut (_cut): read from its first cut
vertex, X1 a X2 X3 a* X4 becomes a' X3 X2 a'* X1 X4, and an elliptic pivot
is its own partner, with X2, X3 and a'* empty.  A hyperbolic step reads
W X a b Y a* Z b* T and writes W b* a b a* X Z Y T, moving X, Z and Y
by B^-1 A B A^-1, B^-1 A B and B^-1 A for A, B its pivots' gluings
(_step_hyperbolic).
The vertices are the input's Cusps and, once moved, plain pairs (p, q) of
either sign, coprime as a det-1 move keeps them: symbol.gluing_entries
takes both and refuses paired arcs of unequal widths, so every gluing it
returns has det 1.  A run makes new Cusps only for the FareySymbol it
builds at the end or on request (on_op, NormalizationState.symbol).

Throughout, the polygon is kept rotated so that W occupies positions
[0, w): each cut is told which of its arcs must land at position w.  W is
never transformed: the arc (infinity, 0) is placed inside W at the start,
and NormalizationState.check_keep refuses every cut that would move or
replace that arc, which is what keeps coefficient growth in check.

A step pays for the window it rewrites, not for the whole polygon.  A
commit may replace just the positions [lo, hi): its each-arc-once check
is then that the new ids are distinct and, as a set, the ids they replace,
which is the whole-polygon check since nothing outside the window changes.
An elliptic step and a parabolic one of variant A commit only [w, j], j
the pivot's partner (see _cut), a hyperbolic step only [w, b*].  The step
choice rests on two invariants of a run.  Fixed arcs only ever leave the
tail [w, n), so once one scan finds none, no later step scans for one.  A
hyperbolic step is chosen only when the tail holds no adjacent pair, and it
keeps X, Z, Y and T each in order, so the next search for a pair tests only
the seams X|Z, Z|Y and Y|T; any other commit brings back the full scan.

A run records itself in small ints, NormalizationState.steps: its start
rotation, then for each step that cuts its kind, pivots, the bounds of the
window it rewrites and its side.  _layout reads a record as the step's
segment table, for the hyperbolic step itself and for start_words, which
replays the records on the input's arc ids and writes each input gluing
as a word in the output's.  normalize leaves the records in its output's
memo when its input is its own companion, for the word problem.
"""

from .exact import (FareyError, InvalidSymbolError, _coprime_cusp, _int_arg,
                    _shown)
from .symbol import block_at, gluing_entries, symbol_from_ids


# The most arcs normalize takes.  Its time grows as about n^3.5 from
# Gamma0(3000), 2402 arcs, 2.3 s on a 2-core x86-64 host, to Gamma0(10007),
# 3338 arcs, 7.5 s; so 4000 arcs take about 14 s, and Gamma0(100003),
# 33,336 arcs, would take about 7 hours.
MAX_ARCS = 4000


def check_arcs(n):
    """Refuse a normalization of n arcs, n > MAX_ARCS, before any work."""
    if n > MAX_ARCS:
        raise InvalidSymbolError("normalize takes at most %d arcs, as its time "
                                 "grows as about n^3.5; got %d" % (MAX_ARCS, n))


def _moved(g, pts):
    """The integer pairs pts, each moved by the matrix g."""
    a, b, c, d = g
    return [(a * p + b * q, c * p + d * q) for p, q in pts]


class NormalizationState:
    """The working polygon of a normalization run, cut in place, and the
    length w_len of its normalized prefix W, at positions [0, w_len).

    verts[p] and ids[p] are the start vertex, a Cusp or an integer pair
    (p, q) of either sign, and the id of the arc at position p; partner and
    ell are indexed by id.  commit is the one way to change them: every cut
    and step hands it the new word as a table of segments.  keep is the id
    of the arc (infinity, 0), which no cut may move or replace
    (check_keep), or None.  on_op and on_step, when set, see each commit
    and each step.  .symbol builds the polygon as a FareySymbol on each
    access, with origin, the input or the unimodular symbol the input walks
    on, as its companion for the word problem: cuts preserve the group.
    fixed and seams are what the step choice knows of the tail [w_len, n):
    fixed is False once it holds no fixed arc, and seams, when not None,
    lists the only positions k where the arcs at k, k + 1 may be an
    adjacent pair (_choose_step).  steps records a run's start rotation
    and each step but an extend as small ints (see start_words).
    """

    __slots__ = ("verts", "ids", "partner", "ell", "level", "keep",
                 "w_len", "on_op", "on_step", "origin", "fixed", "seams",
                 "steps")

    def __init__(self, symbol, w_len=0):
        self.verts = list(symbol.vertices)
        self.ids = list(range(symbol.n))
        self.partner = symbol.pairing
        self.ell = symbol.ell
        self.level = symbol.level
        self.keep = symbol.infinity_zero_arc()
        self.w_len = _int_arg(w_len, 0, symbol.n + 1, "w_len is an int in [0, n]")
        self.on_op = None
        self.on_step = None
        self.origin = symbol._memo.get("companion", symbol)
        self.fixed = True
        self.seams = None
        self.steps = []

    @property
    def n(self):
        return len(self.ids)

    def done(self):
        return self.w_len >= self.n

    def pos(self, arc_id):
        return self.ids.index(arc_id)

    def paired(self, p, q):
        """True iff the arc at position q is the partner of the one at p."""
        return self.partner[self.ids[p]] == self.ids[q]

    @property
    def symbol(self):
        out = symbol_from_ids(self.ids, self.partner, self.ell,
                              [_coprime_cusp(p, q) for p, q in self.verts],
                              self.level)
        out._memo["companion"] = self.origin
        return out

    def check_keep(self, *id_lists):
        """Refuse a cut that moves or replaces the arcs of id_lists when
        the arc (infinity, 0) is among them."""
        if self.keep is not None and any(self.keep in ids for ids in id_lists):
            raise InvalidSymbolError(
                "normalization would move or replace the arc (infinity, 0), "
                "which it keeps fixed; it cannot yet do so when that arc lies "
                "in no block (fixed arc, pair or quad) of the input word")

    def commit(self, segments, place=None, lo=0, hi=None):
        """Make the concatenation of segments, a list of (ids, vertices),
        positions [lo, hi) of the polygon, all of it by default, after
        checking that it holds the ids it replaces, each once, and report
        the polygon to on_op.  Nothing outside the window changes, so each
        arc is still on the boundary once.  place = (arc id, position), for
        a whole-polygon commit, first rotates the new word so that arc lands
        at position.  Every commit clears seams.  A step commits once."""
        ids, verts = [], []
        for seg_ids, seg_verts in segments:
            ids += seg_ids
            verts += seg_verts
        hi = self.n if hi is None else hi
        m = hi - lo
        if len(ids) != m or len(verts) != m:
            raise FareyError("cut produced %d arcs, expected %d" % (len(verts), m))
        # m distinct ids that include the m distinct ones they replace
        new = set(ids)
        if len(new) != m or not new.issuperset(self.ids[lo:hi]):
            raise FareyError("cut produced repeated or foreign arc ids")
        if place is not None:
            k = (ids.index(place[0]) - place[1]) % m
            ids, verts = ids[k:] + ids[:k], verts[k:] + verts[:k]
        self.ids[lo:hi] = ids
        self.verts[lo:hi] = verts
        self.seams = None
        if self.on_op is not None:
            self.on_op(self.symbol)


def _working(sym):
    """A run's own state, or a one-off state that may move every arc."""
    if isinstance(sym, NormalizationState):
        return sym
    state = NormalizationState(sym)
    state.keep = None
    return state


def _cut(sym, state, i, j, c1, c2, move_tail, place):
    """The one cut both public cuts make, with pivot a at position i and its
    partner a* at j: read from vertex c1, the word X1 a X2 X3 a* X4, with
    vertex c2 between X2 and X3, becomes a' X3 X2 a'* X1 X4 after X2 a'* X1
    is moved by g^-1 (move_tail) or a' X3 X4 by g, the pivot's gluing.  An
    elliptic pivot is its own partner, i = j = c2: X2, X3 and a'* are empty.
    A cut in order at positions [c1, j] that lands a' at c1 and moves the
    pivot's piece leaves X4 in place, so it commits only [c1, j + 1); any
    other commits the whole word, placed by place (base_cut's) or with a'
    at 0.  Returns nothing for a run's state, else (symbol, mapping) with
    mapping old position -> new one."""
    if place is not None:
        if not isinstance(place, (tuple, list)) or len(place) != 2:
            raise FareyError("place must be a pair (old position, position)")
        for p in place:
            _int_arg(p, 0, state.n, "place out of range: positions must "
                     "be ints in [0, n)")
    n, ids, verts = state.n, state.ids, state.verts
    chord = [ids[i], ids[j]]
    if move_tail and place is not None and place[0] == i and place[1] == c1 <= i <= j:
        lo, hi, place = c1, j + 1, None
    else:  # the word read from c1, so the cut is in order in [0, j]
        place = (chord[0], 0) if place is None else (state.ids[place[0]], place[1])
        ids, verts = ids[c1:] + ids[:c1], verts[c1:] + verts[:c1]
        i, j, c2 = [(x - c1) % n for x in (i, j, c2)]
        lo, hi = 0, n
    star = int(j > i)
    segs = [([ids[i]], [verts[lo]]), (ids[c2:j], verts[c2:j]),           # a' X3
            (ids[i + 1:c2] + ids[j:j + star], verts[i + 1:c2 + star]),  # X2 a'*
            (ids[lo:i], verts[lo:i]), (ids[j + 1:hi], verts[j + 1:hi])]  # X1 X4
    moved = (2, 3) if move_tail else (0, 1, 4)
    state.check_keep(chord, *[segs[k][0] for k in moved])
    g = gluing_entries(verts[i], verts[(i + 1) % n], verts[j],
                       verts[(j + 1) % n], state.ell.get(chord[0]))
    g = g.adjugate() if move_tail else g
    for k in moved:
        segs[k] = (segs[k][0], _moved(g, segs[k][1]))
    state.commit(segs, place, lo, hi)
    if state is sym:
        return None
    return state.symbol, {arc_id: p for p, arc_id in enumerate(state.ids)}


def base_cut(sym, pivot, c1, c2, side, place=None):
    """Non-elliptic cut-and-glue along the chord (vertex c1, vertex c2).

    Writing the cyclic word from past the pivot's partner as X4 X1 a X2 X3
    a*, with a the pivot arc, c2 the vertex between X2 and X3 and c1 the
    vertex between X4 and X1, the new word is X4 a' X3 X2 a'* X1: the piece
    X2 a'* X1 containing the pivot is moved by gluing(a)^-1 (side="pivot")
    or the other piece X4 a' X3 is moved by gluing(a) (side="other"); the
    chord becomes the new paired arcs a', a'*, with a' starting at c1 and
    a'* at c2.  Returns (symbol, mapping) where mapping sends old arc
    positions to new ones (the pivot pair maps to the chord pair).
    place = (old arc, position) rotates the output so that the image of the
    old arc sits at position; by default the chord a' is arc 0.  sym may
    also be the NormalizationState of a run, which is then cut in place and
    nothing is returned.
    """
    state = _working(sym)
    n = state.n
    i = _int_arg(pivot, 0, n, "pivot out of range: positions must be ints in [0, n)")
    j = state.pos(state.partner[state.ids[i]])
    if i == j:
        raise FareyError("base_cut needs a non-fixed pivot")
    for c in (c1, c2):
        _int_arg(c, 0, n, "cut vertex out of range: positions must be ints in [0, n)")
    if (c2 - (i + 1)) % n > (j - (i + 1)) % n or (c1 - (j + 1)) % n > (i - (j + 1)) % n:
        raise FareyError("cuts do not separate the pivot from its partner")
    if side not in ("pivot", "other"):
        raise FareyError("side must be 'pivot' or 'other'")
    return _cut(sym, state, i, j, c1, c2, side == "pivot", place)


def base_cut_elliptic(sym, pivot, cut, side, place=None):
    """Cut from the elliptic point of a fixed arc to the vertex `cut`.

    Writing the cyclic word from past the pivot e as X2 X1 e, with the cut
    vertex between X2 and X1, the new word is X2 e' X1: side="before"
    moves X1 (from the cut vertex up to the pivot) by the gluing's inverse,
    side="after" moves X2 (from past the pivot back to the cut vertex) by
    the gluing.  The elliptic arc e' starts at the cut vertex; its order is
    unchanged.  place and the run's state are as for base_cut; by default
    the new elliptic arc is arc 0.
    """
    state = _working(sym)
    n = state.n
    i = _int_arg(pivot, 0, n, "pivot out of range: positions must be ints in [0, n)")
    if not state.paired(i, i):
        raise FareyError("base_cut_elliptic needs a fixed pivot")
    _int_arg(cut, 0, n, "cut vertex out of range: positions must be ints in [0, n)")
    if side not in ("before", "after"):
        raise FareyError("side must be 'before' or 'after'")
    return _cut(sym, state, i, i, cut, i, side == "before", place)


def _start_state(sym, on_op=None, on_step=None):
    """The run's state, rotated so the block covering (infinity, 0) can
    start the prefix, with its observers attached."""
    i0 = sym.infinity_zero_arc()
    if i0 is None:
        raise InvalidSymbolError("symbol has no arc (infinity, 0)")
    n, pairing = sym.n, sym.pairing

    def paired(p, q):
        return pairing[p % n] == q % n

    rot = i0
    for back in range(4):
        block = block_at(paired, i0 - back, n)
        if block is not None and back < block[1]:
            rot = (i0 - back) % n
            break
    state = NormalizationState(sym)
    state.commit([(state.ids, state.verts)], (rot, 0))
    state.on_op, state.on_step = on_op, on_step
    state.steps.append(("start", [rot], (0, n), None))
    return state


def _extend_blocks(state, w):
    """Grow the prefix over ready-made blocks sitting right after it."""
    n = state.n
    k = w
    while k < n:
        block = block_at(state.paired, k, n - k)
        if block is None:
            break
        k += block[1]
    return k


def _step_elliptic(state, w, pivot):
    base_cut_elliptic(state, pivot, w, "before", (pivot, w))
    if not state.paired(w, w):
        raise FareyError("elliptic step did not fix arc %d" % w)
    state.steps.append(("elliptic", [pivot], (w, pivot + 1), "before"))
    return w + 1


def _step_parabolic(state, w, pivot):
    """Move the adjacent pair at (pivot, pivot+1) next to the prefix.

    Of the two pair operations, the one cutting at the prefix boundary and
    moving the gap block (variant A) keeps coefficient growth markedly lower
    than moving the tail block (variant B), so A is used whenever it leaves
    (infinity, 0) alone.
    """
    if state.keep not in state.ids[w:pivot]:      # the gap variant A moves
        base_cut(state, pivot, w, pivot + 1, "pivot", (pivot, w))
        if not state.paired(w, w + 1):
            raise FareyError("parabolic step did not pair arcs %d, %d" % (w, w + 1))
        state.steps.append(("parabolic", [pivot], (w, pivot + 2), "pivot"))
    else:
        base_cut(state, pivot, 0, pivot + 1, "other")
        # word is already (a' a'* W X gY); the prefix simply starts at a'.
        if not state.paired(0, 1):
            raise FareyError("parabolic step did not pair arcs 0, 1")
        state.steps.append(("parabolic", [pivot], (0, state.n), "other"))
    return w + 2


def _step_hyperbolic(state, w, a_pos):
    """Case where two interleaved pivot pairs become a quad after W.

    The word W X a b Y a* Z b* T becomes W b* a b a* X Z Y T.  It is the
    result of four base cuts, whose stages are
        W b a* Z Y b* X a T    cut (w, a*), moving X a b Y by g1^-1,
        W a* b* X Z Y a b T    cut (b*, b), moving a* Z Y a by g2,
        W b* X Z Y a b a* T    cut (b*, X), moving b a* by g3^-1,
        W b* a b a* X Z Y T    cut (a, b*), moving b a* X Z Y by g4^-1,
    where each chord keeps the id, and the gluing, of the pivot it replaces
    and gi is the gluing of that cut's pivot.  With P the vertices before
    the step and nx = b*+1 (mod n), let A and B be the pivots' gluings
        A = gluing(P[a], P[b], P[a*], P[a*+1]),
        B = gluing(P[b], P[b+1], P[b*], P[nx]).
    A cut that moves an arc by M while the arc's partner stays turns its
    gluing h into M h, so cut by cut, up to sign, g1 = B, g2 = B^-1 A,
    g3 = B^-1 A^-1 B and g4 = B^-1 A B^-1 A^-1 B.  The step makes the four
    cuts as one splice, and on_op sees its one commit, the last stage: X
    moves by g4^-1 g1^-1 = B^-1 A B A^-1, the handle relation, Z by
    g4^-1 g2 = B^-1 A B and Y by g4^-1 g2 g1^-1 = B^-1 A; W and T stay, and
    the quad starts at P[w], B^-1 P[w], B^-1 A B P[w] and B^-1 A B^2 P[w].
    The sign is invisible: gluing_entries and _coprime_cusp read a pair and
    its negative alike.  The splice rewrites only the window [w, b*].
    """
    n, ids, P = state.n, state.ids, state.verts
    b_pos = a_pos + 1
    a, b = ids[a_pos], ids[b_pos]
    a_s, b_s = state.partner[a], state.partner[b]
    try:  # a* after b and b* after a*, else the pattern fails below
        as_pos = ids.index(a_s, b_pos + 1)
        bs_pos = ids.index(b_s, as_pos + 1)
    except ValueError:
        bs_pos = n
    if not w <= a_pos < bs_pos < n:
        raise FareyError("pivots out of pattern")
    state.check_keep(ids[w:bs_pos + 1])

    A = gluing_entries(P[a_pos], P[b_pos], P[as_pos], P[as_pos + 1])
    B = gluing_entries(P[b_pos], P[b_pos + 1], P[bs_pos], P[(bs_pos + 1) % n])
    b_inv = B.adjugate()
    y, w1 = b_inv * A, _moved(b_inv, P[w:w + 1])   # B^-1 A, [B^-1 P[w]]
    z = y * B                                      # B^-1 A B
    quad = P[w:w + 1] + w1 + _moved(z * B, w1 + P[w:w + 1])
    record = ("hyperbolic", [a_pos, b_pos], (w, as_pos, bs_pos + 1), None)
    head, spans = _layout(*record[:3])
    g = (None, z * A.adjugate(), z, y)
    segs = [(ids[lo:hi], _moved(g[m], P[lo:hi])) for lo, hi, m in spans]
    state.commit([([ids[p] for p in head], quad)] + segs, lo=w, hi=bs_pos + 1)
    if not (state.paired(w, w + 2) and state.paired(w + 1, w + 3)):
        raise FareyError("hyperbolic step did not leave a quad")
    state.steps.append(record)
    # no segment of the new tail X Z Y T holds an adjacent pair, as the old
    # tail held none: only the seams X|Z, Z|Y and Y|T, at the last
    # positions of X, Z and Y, can
    x_last = a_pos + 3
    z_last = x_last + bs_pos - as_pos - 1
    state.seams = [x_last, z_last, bs_pos]
    return w + 4


def _layout(kind, pivots, bounds):
    """The window [lo, hi) = bounds[0], bounds[-1] that a step record
    rewrites, as the positions written first, the pivots, and the slices
    (start, stop, move) written after them, each moved by a matrix: 0 the
    cut pivot's gluing g inverted, 1, 2 and 3 the hyperbolic step's
    B^-1 A B A^-1, B^-1 A B and B^-1 A (X, Z and Y)."""
    if kind == "hyperbolic":
        (a_pos, b_pos), (w, as_pos, hi) = pivots, bounds
        return ((hi - 1, a_pos, b_pos, as_pos),
                ((w, a_pos, 1), (as_pos + 1, hi - 1, 2), (b_pos + 1, as_pos, 3)))
    (pivot,), (w, hi) = pivots, bounds
    return range(pivot, hi), ((w, pivot, 0),)


# Each move inverted, and a hyperbolic pivot's gluing before its step, as
# words in the gluings of the step's pivots after it, letters (0, e) and
# (1, e) for A'^e and B'^e.  A cut leaves its pivot's gluing g alone, so
# g^-1 inverted is (0, 1).  A hyperbolic step leaves A' = B^-1 A B^-1 A^-1 B
# and B' = B^-1 A B^2, so z = A' B', y = A'^2 B', x = A'^-1 B'^-1 A' B',
# A = B'^-1 A'^-1 B' A'^2 B' and B = B'^-1 A'^-1 B'.
_UNMOVE = (((0, 1),), ((1, -1), (0, -1), (1, 1), (0, 1)),
           ((1, -1), (0, -1)), ((1, -1), (0, -1), (0, -1)))
_BEFORE = (((1, -1), (0, -1), (1, 1), (0, 1), (0, 1), (1, 1)),
           ((1, -1), (0, -1), (1, 1)))


def _inverse(word):
    return [(i, -e) for i, e in reversed(word)]


def start_words(steps, partner):
    """Replay a run's step records on its input's arc ids: a function that
    writes the input's gluing of arc e as (arc, exponent) letters in the
    output's gluings.

    A step that moves an arc by M and its partner by M' turns the arc's
    gluing h into M h M'^-1.  No step moves an arc of W, and a pivot joins
    W with the gluing its step leaves, so h_e = L_e P_e L_e*^-1: L_e is the
    product of e's moves inverted, first move first, and P_e e's gluing
    when it joined W, its own last one but for a hyperbolic pivot, whose
    A, B, A^-1 or B^-1 _BEFORE writes.  The parabolic step's variant B,
    side "other", is not replayed: it commits the whole word and moves the
    tail by g, and no run on a unimodular symbol was seen to take it (runs
    on cut symbols do), so callers check that a record holds none."""
    from array import array  # here, so that import fareysym loads no array
    n = len(partner)
    ids = list(range(n))
    moves = [array("l") for _ in ids]  # each id's moves, as 4 step + move
    pivots, before = [], {}
    for t, (kind, piv, bounds, _) in enumerate(steps):
        if kind == "start":
            ids = ids[piv[0]:] + ids[:piv[0]]
            pivots.append(None)
            continue
        head, spans = _layout(kind, piv, bounds)
        new = [ids[p] for p in head]
        for lo, hi, m in spans:
            for e in ids[lo:hi]:
                moves[e].append(4 * t + m)
            new += ids[lo:hi]
        pivots.append(new[1:3] if kind == "hyperbolic" else new[:1])
        if kind == "hyperbolic":
            b_s, a, b, a_s = new[:4]
            before.update({a: (t, 0, False), b: (t, 1, False),
                           a_s: (t, 0, True), b_s: (t, 1, True)})
        ids[bounds[0]:bounds[-1]] = new
    at = [0] * n  # the output arc of each id
    for p, e in enumerate(ids):
        at[e] = p

    def unmoves(e):
        out = []
        for m in moves[e]:
            piv = pivots[m >> 2]
            out += [(at[piv[i]], x) for i, x in _UNMOVE[m & 3]]
        return out

    def word(e):
        if e in before:
            t, k, inverted = before[e]
            p = [(at[pivots[t][i]], x) for i, x in _BEFORE[k]]
            p = _inverse(p) if inverted else p
        else:
            p = [(at[e], 1)]
        return unmoves(e) + p + _inverse(unmoves(partner[e]))
    return word


def _choose_step(state, w):
    """(kind, pivots, handler) of the first non-extend step that applies:
    the first fixed arc in [w, n), else the first adjacent pair, else the
    first arc whose partner precedes it.  Fixed arcs only ever leave the
    tail, so once a scan finds none the run never scans for one again; the
    pairs are sought only at state.seams when it is set."""
    ids, partner = state.ids, state.partner
    n = len(ids)
    if state.fixed:
        for e in range(w, n):
            if partner[ids[e]] == ids[e]:
                return "elliptic", [e], _step_elliptic
        state.fixed = False
    pair_at = (range(w, n - 1) if state.seams is None
               else [k for k in state.seams if w <= k < n - 1])
    for k in pair_at:
        if partner[ids[k]] == ids[k + 1]:
            return "parabolic", [k], _step_parabolic
    seen = {}
    for f in range(w, n):
        a_pos = seen.get(partner[ids[f]])
        if a_pos is not None:
            return "hyperbolic", [a_pos, a_pos + 1], _step_hyperbolic
        seen[ids[f]] = f
    raise FareyError("no Siegel step applies; symbol state is inconsistent")


def siegel_step(state):
    """Extend the normalized prefix of state in place and return state.

    w_len strictly increases.  Dispatch: grow over ready-made blocks when
    possible, otherwise handle the first fixed arc (+1), the first adjacent
    pair (+2), or pick the interleaved pivots given by the first arc whose
    partner precedes it (+4).  One of the four cases always applies while
    w_len < n.  The state's on_op sees the step's commit, none for an
    extend, and its on_step this step's record.  Any state but a
    NormalizationState raises FareyError naming it.
    """
    if not isinstance(state, NormalizationState):
        raise FareyError("siegel_step needs a NormalizationState, got %s"
                         % _shown(state))
    w = state.w_len
    if w >= state.n:
        raise FareyError("symbol is already fully normalized")

    k = _extend_blocks(state, w)
    if k > w:
        kind, pivots = "extend", []
        state.w_len = k
    else:
        kind, pivots, handler = _choose_step(state, w)
        state.w_len = handler(state, w, pivots[0])
    if state.on_step is not None:
        state.on_step({"kind": kind, "pivots": pivots, "w_len": state.w_len})
    return state


def normalize(sym, on_op=None, on_step=None):
    """Normalized Farey symbol with the same group as the input.

    Every arc of the output is at distance <= 2 from its partner and the
    word factors into quad (handle), pair (cusp) and fixed (elliptic)
    blocks.  The arc (infinity, 0) is preserved.  on_op, when given, gets
    each step's commit as a symbol, one built per step but an extend, and
    on_step, when given, each step's {"kind", "pivots", "w_len"} record.
    A symbol of more than MAX_ARCS arcs is refused first (check_arcs).
    """
    check_arcs(sym.n)
    sym.validate()
    state = _start_state(sym, on_op, on_step)
    while not state.done():
        w_before = state.w_len
        state = siegel_step(state)
        if state.w_len <= w_before:
            raise FareyError("Siegel step failed to make progress")
    out = state.symbol
    out.validate()
    if not out.is_normalized():
        raise FareyError("normalization finished on a non-normalized symbol")
    if state.origin is sym:  # the records replay on the companion's arcs
        out._memo["steps"] = state.steps
    return out
