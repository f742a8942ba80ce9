"""Siegel dissection of a Farey symbol into normalized form.

The two base operations cut the fundamental polygon along a chord between
two vertices and reglue one of the pieces after moving it by the pivot's
gluing matrix; they preserve the group and the symbol axioms.  A Siegel
step chains at most four base operations to extend the normalized prefix W
of the cyclic arc word by a fixed arc (+1), an adjacent pair (+2) or an
interleaved quadruple (+4), following Siegel's construction of a canonical
dissection of a compact Riemann surface.  The driver loops Siegel steps
until the whole word is a sequence of quad/pair/fixed blocks.

Throughout, the working symbol is kept rotated so that W occupies arc
positions [0, w): each cut is told which of its arcs must land at position
w and builds its output already rotated.  The arc (infinity, 0) is placed
inside W at the start and the cut choices never apply a Moebius transform
to W, which is what keeps coefficient growth in check.
"""

from .exact import FareyError, InvalidSymbolError, INFINITY, ZERO
from .symbol import FareySymbol


def _crange(a, b, n):
    """Arc indices a, a+1, ..., b-1 cyclically; empty when a == b (mod n)."""
    out = []
    i = a % n
    b %= n
    while i != b:
        out.append(i)
        i = (i + 1) % n
    return out


def _assemble(sym, items, place):
    """The symbol whose arcs are items, a list of (old arc, start vertex).

    Each chord is labelled with the old arc it replaces, so one lookup
    relabels the pairing and the elliptic orders.  place = (old, position)
    rotates the list so the arc labelled old lands at position.
    """
    n = sym.n
    if len(items) != n:
        raise FareyError("cut produced %d arcs, expected %d" % (len(items), n))
    if place is not None:
        k = ([old for old, _ in items].index(place[0]) - place[1]) % n
        items = items[k:] + items[:k]
    mapping = {old: pos for pos, (old, _) in enumerate(items)}
    pairing = [mapping[sym.pairing[old]] for old, _ in items]
    ell = {mapping[t]: mu for t, mu in sym.ell.items()}
    return FareySymbol([v for _, v in items], pairing, ell, sym.level), mapping


def base_cut(sym, pivot, c1, c2, side, place=None):
    """Non-elliptic cut-and-glue along the chord (vertex c1, vertex c2).

    Writing the cyclic word as X1 a X2 X3 a* X4 with a the pivot arc, c2 the
    vertex between X2 and X3 and c1 the vertex between X4 and X1, the piece
    containing the pivot is moved by gluing(a)^-1 (side="pivot") or the other
    piece is moved by gluing(a) (side="other"); the chord becomes the new
    paired arcs a', a'*.  Returns (symbol, mapping) where mapping sends old
    arc positions to new ones (the pivot pair maps to the chord pair).
    place = (old arc, position) rotates the output so that the image of the
    old arc sits at position; by default the chord a' is arc 0.
    """
    n = sym.n
    i = pivot
    j = sym.pairing[i]
    if i == j:
        raise FareyError("base_cut needs a non-fixed pivot")
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise FareyError("cut vertices out of range")
    if (c2 - (i + 1)) % n > (j - (i + 1)) % n or (c1 - (j + 1)) % n > (i - (j + 1)) % n:
        raise FareyError("cuts do not separate the pivot from its partner")
    if side not in ("pivot", "other"):
        raise FareyError("side must be 'pivot' or 'other'")

    g = sym.gluing(i)
    v = sym.vertices
    move = g.inverse().apply if side == "pivot" else g.apply

    # Each entry is (old arc, start vertex); the chord a' (a'*) replaces i (j).
    items = []
    if side == "pivot":
        items.append((i, v[c1]))
        items.extend((t, v[t]) for t in _crange(c2, j, n))
        items.extend((t, move(v[t])) for t in _crange(i + 1, c2, n))
        items.append((j, move(v[c2])))
        items.extend((t, move(v[t])) for t in _crange(c1, i, n))
        items.extend((t, v[t]) for t in _crange(j + 1, c1, n))
    else:
        items.append((i, move(v[c1])))
        items.extend((t, move(v[t])) for t in _crange(c2, j, n))
        items.extend((t, v[t]) for t in _crange(i + 1, c2, n))
        items.append((j, v[c2]))
        items.extend((t, v[t]) for t in _crange(c1, i, n))
        items.extend((t, move(v[t])) for t in _crange(j + 1, c1, n))
    return _assemble(sym, items, place)


def base_cut_elliptic(sym, pivot, cut, side, place=None):
    """Cut from the elliptic point of a fixed arc to the vertex `cut`.

    The piece between the cut and the pivot arc is moved: side="before"
    moves the factor X1 (from the cut vertex up to the pivot) by the
    gluing's inverse, side="after" moves the factor X2 (from past the pivot
    back to the cut vertex) by the gluing.  The elliptic arc reappears with
    the cut vertex as an endpoint; its order is unchanged.  place is as
    for base_cut; by default the new elliptic arc is arc 0.
    """
    n = sym.n
    i = pivot
    if sym.pairing[i] != i:
        raise FareyError("base_cut_elliptic needs a fixed pivot")
    if not 0 <= cut < n:
        raise FareyError("cut vertex out of range")
    if side not in ("before", "after"):
        raise FareyError("side must be 'before' or 'after'")

    g = sym.gluing(i)
    v = sym.vertices
    items = []
    if side == "before":
        move = g.inverse().apply
        items.append((i, v[cut]))
        items.extend((t, move(v[t])) for t in _crange(cut, i, n))
        items.extend((t, v[t]) for t in _crange(i + 1, cut, n))
    else:
        move = g.apply
        items.append((i, move(v[cut])))
        items.extend((t, v[t]) for t in _crange(cut, i, n))
        items.extend((t, move(v[t])) for t in _crange(i + 1, cut, n))
    return _assemble(sym, items, place)


class NormalizationState:
    """A symbol together with the length of its normalized prefix W.

    The symbol is kept rotated so the prefix occupies arc positions
    [0, w_len); the prefix always decomposes into quad/pair/fixed blocks.
    """

    __slots__ = ("symbol", "w_len", "log")

    def __init__(self, symbol, w_len=0, log=None):
        self.symbol = symbol
        self.w_len = w_len
        self.log = log

    def done(self):
        return self.w_len >= self.symbol.n


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


def _guard(sym, positions, w):
    """Refuse to Moebius-transform the (infinity, 0) arc.

    positions are the arc indices about to be moved (or replaced, for the
    pivots).  Inputs coming from the Kulkarni builder always place
    (infinity, 0) inside W, where it is never touched.
    """
    for t in positions:
        r, s = sym.arc(t)
        if r == INFINITY and s == ZERO:
            raise InvalidSymbolError(
                "normalization would transform the arc (infinity, 0); "
                "rotate the symbol so it can start the normalized prefix")


def _extend_blocks(state):
    """Grow the prefix over ready-made blocks sitting right after it."""
    sym, w = state.symbol, state.w_len
    n = sym.n
    k = w
    while k < n:
        if sym.pairing[k] == k:
            k += 1
        elif k + 1 < n and sym.pairing[k] == k + 1:
            k += 2
        elif (k + 3 < n and sym.pairing[k] == k + 2
              and sym.pairing[k + 1] == k + 3):
            k += 4
        else:
            break
    return k


def _step_elliptic(state, pivot, on_op=None):
    sym, w = state.symbol, state.w_len
    gap = _crange(w, pivot, sym.n)
    _guard(sym, gap, w)
    out, _ = base_cut_elliptic(sym, pivot, w, "before", (pivot, w))
    if on_op:
        on_op(out)
    if out.pairing[w] != w:
        raise FareyError("elliptic step did not fix arc %d" % w)
    return NormalizationState(out, w + 1, state.log)


def _step_parabolic(state, pivot, on_op=None):
    """Move the adjacent pair at (pivot, pivot+1) next to the prefix.

    Of the two pair operations, the one cutting at the prefix boundary and
    moving the gap block (variant A) keeps coefficient growth markedly lower
    than moving the tail block (variant B), so A is used whenever it leaves
    (infinity, 0) alone.
    """
    sym, w = state.symbol, state.w_len
    n = sym.n
    x_range = _crange(w, pivot, n)          # moved by variant A
    inf0 = sym.infinity_zero_arc()
    if inf0 in (pivot, pivot + 1):
        raise InvalidSymbolError(
            "normalization would replace the arc (infinity, 0)")
    if inf0 not in x_range:
        out, _ = base_cut(sym, pivot, w, pivot + 1, "pivot", (pivot, w))
        if on_op:
            on_op(out)
        if out.pairing[w] != w + 1:
            raise FareyError("parabolic step did not pair arcs %d, %d" % (w, w + 1))
    else:
        out, _ = base_cut(sym, pivot, 0, pivot + 1, "other")
        if on_op:
            on_op(out)
        # word is already (a' a'* W X gY); the prefix simply starts at a'.
        if out.pairing[0] != 1:
            raise FareyError("parabolic step did not pair arcs 0, 1")
    return NormalizationState(out, w + 2, state.log)


def _step_hyperbolic(state, a_pos, on_op=None):
    """Case where two interleaved pivot pairs become a quad after W.

    Four base operations; the pieces containing W (and the trailing block T)
    are never transformed.
    """
    sym, w = state.symbol, state.w_len
    n = sym.n
    b_pos = a_pos + 1
    as_pos = sym.pairing[a_pos]
    bs_pos = sym.pairing[b_pos]
    if not w <= a_pos < b_pos < as_pos < bs_pos < n:
        raise FareyError("pivots out of pattern")
    _guard(sym, _crange(w, as_pos, n) + _crange(as_pos, bs_pos + 1, n), w)

    # 1: cut (w, a*); move the piece X a b Y by gluing(b)^-1.
    out, m = base_cut(sym, b_pos, w, as_pos, "pivot", (b_pos, w))
    if on_op:
        on_op(out)
    a1, as1, b1, bs1 = m[a_pos], m[as_pos], m[b_pos], m[bs_pos]
    if not (b1 == w and as1 == w + 1):
        raise FareyError("hyperbolic cut 1 out of pattern")

    # 2: cut (b'*, b'-start); move the piece b' a* Z Y by gluing(a).
    out2, m2 = base_cut(out, a1, bs1, w, "other", (as1, w))
    if on_op:
        on_op(out2)
    a2, as2, b2, bs2 = m2[a1], m2[as1], m2[b1], m2[bs1]
    if not (as2 == w and bs2 == w + 1):
        raise FareyError("hyperbolic cut 2 out of pattern")

    # 3: cut (a'*-start, past b'*); move the piece a'* b'* by gluing(b'*)^-1.
    out3, m3 = base_cut(out2, bs2, w, w + 2, "pivot", (bs2, w))
    if on_op:
        on_op(out3)
    a3, as3, b3, bs3 = m3[a2], m3[as2], m3[b2], m3[bs2]
    if not (bs3 == w and b3 == a3 + 1 and as3 == a3 + 2):
        raise FareyError("hyperbolic cut 3 out of pattern")

    # 4: cut (past b'', a'*-start); move the piece X Z Y a' b''* by gluing(a')^-1.
    out4, _ = base_cut(out3, a3, w + 1, as3, "pivot", (bs3, w))
    if on_op:
        on_op(out4)
    if not (out4.pairing[w] == w + 2 and out4.pairing[w + 1] == w + 3):
        raise FareyError("hyperbolic step did not leave a quad")
    return NormalizationState(out4, w + 4, state.log)


def _choose_step(sym, w):
    """(kind, pivots, handler) of the first non-extend step that applies."""
    n = sym.n
    for e in range(w, n):
        if sym.pairing[e] == e:
            return "elliptic", [e], _step_elliptic
    for k in range(w, n - 1):
        if sym.pairing[k] == k + 1:
            return "parabolic", [k], _step_parabolic
    for f in range(w, n):
        if w <= sym.pairing[f] < f:
            a_pos = sym.pairing[f]
            return "hyperbolic", [a_pos, a_pos + 1], _step_hyperbolic
    raise FareyError("no Siegel step applies; symbol state is inconsistent")


def siegel_step(state, on_op=None):
    """Extend the normalized prefix; w_len strictly increases.

    Dispatch: grow over ready-made blocks when possible, otherwise handle
    the first fixed arc (+1), the first adjacent pair (+2), or pick the
    interleaved pivots given by the first arc whose partner precedes it
    (+4).  One of the four cases always applies while w_len < n.
    """
    sym, w = state.symbol, state.w_len
    if w >= sym.n:
        raise FareyError("symbol is already fully normalized")

    k = _extend_blocks(state)
    if k > w:
        kind, pivots = "extend", []
        new = NormalizationState(sym, k, state.log)
    else:
        kind, pivots, handler = _choose_step(sym, w)
        new = handler(state, pivots[0], on_op)
    if state.log is not None:
        state.log.append({"kind": kind, "pivots": pivots, "w_len": new.w_len})
    return new


def normalize(sym, on_op=None, collect_log=False, validate=True):
    """Normalized Farey symbol with the same group as the input.

    Every arc of the output is at distance <= 2 from its partner and the
    word factors into quad (handle), pair (cusp) and fixed (elliptic)
    blocks.  The arc (infinity, 0) is preserved.  on_op, when given, is
    called with every intermediate symbol produced by a base operation.
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
