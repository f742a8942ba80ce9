import random
import re
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fareysym.exact import (Cusp, IMat, INFINITY, ZERO, FareyError,
                            InvalidSymbolError, NotNormalizedError, ORDER3,
                            REVERSE, arc_matrix, classify,
                            CLS_ELLIPTIC2, CLS_ELLIPTIC3, CLS_HYPERBOLIC,
                            CLS_PARABOLIC)
from fareysym.symbol import FareySymbol, gluing_entries, symbol_from_ids
from fareysym.kulkarni import gamma0_oracle, gamma0_symbol
from fareysym.siegel import normalize


def test_a_huge_width_is_named_by_its_size():
    # a width past CPython's 4300-digit limit raised a bare ValueError
    sym = FareySymbol([INFINITY, ZERO, Cusp(1, 2), Cusp(10**5000)], [1, 0, 3, 2])
    with pytest.raises(InvalidSymbolError,
                       match=r"have widths <int of 16611 bits> != 1$"):
        sym.validate()


@pytest.mark.parametrize("vertices,pairing,ell,names", [
    # paired arcs of unequal widths; the message was 10,074 characters
    ([INFINITY, ZERO, Cusp(1, 2), Cusp(10**5000)], [1, 0, 3, 2], None,
     "paired arcs (1/2, <cusp of 16610 bits>) and (<cusp of 16610 bits>, "
     "1/0) have widths <int of 16611 bits> != 1"),
    # vertices out of circular order; the message was 5,063 characters
    ([INFINITY, ZERO, Cusp(10**5000, 3), Cusp(1, 2)], [0, 1, 2, 3],
     {0: 2, 1: 2, 2: 2, 3: 2},
     "vertices read from (infinity, 0) are not increasing at "
     "<cusp of 16610 bits>, 1/2"),
])
def test_a_huge_cusp_is_named_by_its_size(vertices, pairing, ell, names):
    with pytest.raises(InvalidSymbolError) as info:
        FareySymbol(vertices, pairing, ell).validate()
    assert str(info.value) == names and len(names) < 300


def test_an_unpaired_boundary_arc_is_named_by_its_ends():
    with pytest.raises(FareyError) as info:
        symbol_from_ids([0, 1], [2, 1], {}, [Cusp(10**5000), ZERO], None)
    assert str(info.value) == ("boundary arc (<cusp of 16610 bits>, 0/1) has "
                               "no partner on the boundary")
    with pytest.raises(FareyError) as info:  # the end is the next vertex
        symbol_from_ids([0, 1, 2], [5, 1, 2], {}, [INFINITY, ZERO, Cusp(1)], None)
    assert str(info.value) == "boundary arc (1/0, 0/1) has no partner on the boundary"


@pytest.mark.parametrize("vertices,pairing,ell,level,names", [
    # a width of 4001 digits, below CPython's digit limit; the message was
    # 4,090 characters
    ([INFINITY, ZERO, Cusp(1, 2), Cusp(10**4000)], [1, 0, 3, 2], None, None,
     "paired arcs (1/2, <cusp of 13288 bits>) and (<cusp of 13288 bits>, "
     "1/0) have widths <int of 13289 bits> != 1"),
    # a level of 4001 digits; the message was 4,046 characters
    ([INFINITY, ZERO], [0, 1], {0: 2, 1: 3}, 10**4000,
     "the symbol's group is not Gamma0(<int of 13288 bits>), its level"),
], ids=["width", "level"])
def test_a_long_int_is_named_by_its_size(vertices, pairing, ell, level, names):
    with pytest.raises(InvalidSymbolError) as info:
        FareySymbol(vertices, pairing, ell, level).validate()
    assert str(info.value) == names and len(names) < 300


def test_messages_on_ordinary_cusps_keep_their_bytes():
    sym = FareySymbol([INFINITY, ZERO, Cusp(1, 2), Cusp(3)], [1, 0, 3, 2])
    with pytest.raises(InvalidSymbolError) as info:
        sym.validate()
    assert str(info.value) == ("paired arcs (1/2, 3/1) and (3/1, 1/0) have "
                               "widths 5 != 1")
    sym = FareySymbol([INFINITY, ZERO, Cusp(2, 3), Cusp(1, 2)], [0, 1, 2, 3],
                      {0: 2, 1: 2, 2: 2, 3: 2})
    with pytest.raises(InvalidSymbolError) as info:
        sym.validate()
    assert str(info.value) == ("vertices read from (infinity, 0) are not "
                               "increasing at 2/3, 1/2")
    with pytest.raises(FareyError) as info:
        arc_matrix(Cusp(-7, 3), Cusp(-7, 3))
    assert str(info.value) == "degenerate arc (-7/3, -7/3)"


def pattern_symbol(pairing, ell=None):
    """Symbol with placeholder vertices for purely combinatorial tests."""
    return FareySymbol([Cusp(i, 1) for i in range(len(pairing))], pairing, ell)


def is_linked(s, i, j):
    """True iff the pairs of the arcs i and j of s interleave around the
    cycle: the reference for normalization_defect."""
    n, pairing = s.n, s.pairing
    si, sj = pairing[i], pairing[j]
    if i == si or j == sj:
        raise FareyError("linkedness is defined for non-fixed arcs")
    if i == j:
        raise FareyError("linkedness needs two distinct arcs")
    inside = lambda k: 0 < (k - i) % n < (si - i) % n
    return inside(j) != inside(sj)


def reference_defect(s):
    """normalization_defect by its definition: O(n^2) linkedness scans."""
    def linked_to_any(i):
        return s.pairing[i] != i and any(
            is_linked(s, i, j) for j in range(s.n)
            if j not in (i, s.pairing[i]) and s.pairing[j] != j)

    for i in range(s.n):
        d = s.distance(i, s.pairing[i])
        if (d > 2 or (d == 2 and not linked_to_any(i))
                or (d < 2 and linked_to_any(i))):
            return i
    return None


def random_pairing(rng, n):
    """A uniform involution with a random number of fixed arcs, or one built
    from fixed/pair/quad blocks and (a, fixed, a*) triples, rotated."""
    if rng.random() < 0.5:
        arcs = rng.sample(range(n), n)
        pairing = list(range(n))
        rest = arcs[rng.choice(range(n % 2, n + 1, 2)):]
        for a, b in zip(rest[::2], rest[1::2]):
            pairing[a], pairing[b] = b, a
        return pairing
    blocks = []
    while len(blocks) < n:
        p = len(blocks)
        kind = rng.randint(1, min(4, n - p))
        blocks += {1: [p], 2: [p + 1, p], 3: [p + 2, p + 1, p],
                   4: [p + 2, p + 3, p, p + 1]}[kind]
    k = rng.randrange(n)
    return [(blocks[(i + k) % n] - k) % n for i in range(n)]


def reference_gluing(r, s, t, u, order=None):
    """The gluing by the matrix chain gluing_entries replaces: arc matrices
    A, A* of the arcs (r, s) and (t, u), given as integer pairs of either
    sign, then A (A* R)^-1, or for order 3 (A* R) U (A* R)^-1, with R =
    REVERSE and U = ORDER3, divided by det A*."""
    a = arc_matrix(Cusp(*r), Cusp(*s))
    am = arc_matrix(Cusp(*t), Cusp(*u)) * REVERSE
    num = am * ORDER3 * am.adjugate() if order == 3 else a * am.adjugate()
    k = am.det()
    if any(x % k for x in num.entries()):
        raise InvalidSymbolError("not divisible by %d" % k)
    return tuple(x // k for x in num.entries())


@st.composite
def arcs_of_width(draw, w):
    """An arc (r, s) of width w as two primitive integer pairs, each of
    either sign: M (1, 0) and M (x, +-w) for a random M in SL2(Z) and x
    prime to w."""
    m = IMat(1, 0, 0, 1)
    for k in draw(st.lists(st.integers(-4, 4), max_size=5)):
        m = m * IMat(1, k, 0, 1) * IMat(0, -1, 1, 0)
    x = draw(st.integers(-9, 9).filter(lambda x: gcd(x, w) == 1))
    y = draw(st.sampled_from([w, -w]))
    r, s = (m.a, m.c), (m.a * x + m.b * y, m.c * x + m.d * y)
    return tuple((p, q) if draw(st.booleans()) else (-p, -q) for p, q in (r, s))


@st.composite
def gluing_inputs(draw):
    """(r, s, t, u, order): a pair of arcs of equal width 1..6, or one arc
    of width 1..6 twice, with its endpoint pairs of either sign, for a fixed
    arc of order 2 or 3."""
    w = draw(st.integers(1, 6))
    order = draw(st.sampled_from([None, 2, 3]))
    r, s = draw(arcs_of_width(w))
    if order is None:
        t, u = draw(arcs_of_width(w))
    else:
        t, u = (p if draw(st.booleans()) else (-p[0], -p[1]) for p in (r, s))
    return r, s, t, u, order


@st.composite
def any_width_inputs(draw):
    """(r, s, t, u, order): two arcs of independent widths 1..6, or a fixed
    arc of order 2 or 3 and width 1..6 twice, its pairs of either sign."""
    order = draw(st.sampled_from([None, None, 2, 3]))
    r, s = draw(st.integers(1, 6).flatmap(arcs_of_width))
    if order is None:
        t, u = draw(st.integers(1, 6).flatmap(arcs_of_width))
    else:
        t, u = (p if draw(st.booleans()) else (-p[0], -p[1]) for p in (r, s))
    return r, s, t, u, order


class TestGluingFormula:
    @settings(max_examples=400, deadline=None)
    @given(gluing_inputs())
    def test_matches_the_matrix_chain(self, args):
        try:
            want = reference_gluing(*args)
        except InvalidSymbolError:
            with pytest.raises(InvalidSymbolError, match="not divisible"):
                gluing_entries(*args)
            return
        assert gluing_entries(*args) == want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 6).flatmap(arcs_of_width), st.sampled_from([2, 3]))
    def test_fixed_arc_trace(self, arc, order):
        """Every integral fixed-arc gluing has trace 0 (order 2) or -1
        (order 3), so its class is the order's: validation needs no class
        check on fixed arcs."""
        r, s = arc
        try:
            a, b, c, d = gluing_entries(r, s, r, s, order)
        except InvalidSymbolError:
            return
        assert a * d - b * c == 1
        assert a + d == (0 if order == 2 else -1)
        assert classify(IMat(a, b, c, d)) == (
            CLS_ELLIPTIC2 if order == 2 else CLS_ELLIPTIC3)

    def test_degenerate_arc_is_named(self):
        with pytest.raises(FareyError, match=r"degenerate arc \(1/2, 1/2\)"):
            gluing_entries((1, 2), (-1, -2), (1, 0), (0, 1))
        with pytest.raises(FareyError, match=r"degenerate arc \(1/0, 1/0\)"):
            gluing_entries((0, 1), (1, 0), (-1, 0), (1, 0))

    @settings(max_examples=400, deadline=None)
    @given(any_width_inputs())
    def test_refuses_exactly_unequal_widths_and_non_integral(self, args):
        """An integral result has det w / w*, so the width check is the
        det-1 check: gluing_entries refuses iff the widths differ or the
        matrix chain is not integral, and all it returns has det 1."""
        (r1, r2), (s1, s2), (t1, t2), (u1, u2) = args[:4]
        w, w_star = abs(r1 * s2 - s1 * r2), abs(t1 * u2 - u1 * t2)
        try:
            want = reference_gluing(*args)
        except InvalidSymbolError:
            want = None
        if w != w_star or want is None:
            with pytest.raises(InvalidSymbolError,
                               match="widths" if w != w_star else "not divisible"):
                gluing_entries(*args)
            return
        g = gluing_entries(*args)
        assert g == want and g.det() == 1

    @settings(max_examples=400, deadline=None)
    @given(any_width_inputs())
    def test_partner_gluing_is_the_negated_adjugate(self, args):
        """The gluing of the partner (t, u) is minus the adjugate of the
        gluing of (r, s), and one side is refused exactly when the other
        is, with the same exception type: FareySymbol caches both from one
        gluing_entries call."""
        r, s, t, u = args[:4]
        outcomes = []
        for ends in ((r, s, t, u), (t, u, r, s)):
            try:
                outcomes.append(gluing_entries(*ends))
            except FareyError as e:
                outcomes.append(type(e))
        g, h = outcomes
        if isinstance(g, IMat) or isinstance(h, IMat):
            assert isinstance(g, IMat) and h == -g.adjugate()
        else:
            assert g is h


class TestConstruction:
    def test_attributes_are_read_only(self, symbol_for):
        sym = symbol_for(11)
        with pytest.raises(AttributeError, match="FareySymbol is immutable"):
            sym.level = 5
        assert sym.level == 11

    def test_symbols_that_differ_in_one_field_are_unequal(self, symbol_for):
        sym = symbol_for(11)
        same = FareySymbol(sym.vertices, sym.pairing, sym.ell, 11)
        assert sym == same and sym != symbol_for(13) and sym != sym.vertices
        assert sym != FareySymbol(sym.vertices, sym.pairing, sym.ell, None)
        two = FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 3})
        assert two != FareySymbol([INFINITY, ZERO], [0, 1], {0: 3, 1: 3})

    def test_repr_names_the_level_when_there_is_one(self, symbol_for):
        assert repr(symbol_for(11)) == "FareySymbol(n=6, level=11)"
        assert repr(FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 3})) \
            == "FareySymbol(n=2)"

    def test_involution_enforced(self):
        with pytest.raises(InvalidSymbolError):
            pattern_symbol([1, 2, 0])
        with pytest.raises(InvalidSymbolError):
            pattern_symbol([0, 1], ell={0: 2})  # arc 1 fixed but no order
        with pytest.raises(InvalidSymbolError):
            pattern_symbol([0, 1], ell={0: 2, 1: 5})
        with pytest.raises(InvalidSymbolError, match="elliptic order"):
            pattern_symbol([0, 1], ell={0: 2, 1: 10**5000})

    def test_too_small(self):
        with pytest.raises(InvalidSymbolError):
            FareySymbol([INFINITY], [0], {0: 2})

    def test_pairing_has_one_entry_per_arc(self):
        with pytest.raises(InvalidSymbolError, match="pairing length 3 != 2 arcs"):
            FareySymbol([INFINITY, ZERO], [0, 1, 2], {0: 2, 1: 3})

    @pytest.mark.parametrize("vertex", [
        tuple, str, lambda v: v.num / (v.den or 1), lambda v: None],
        ids=["tuple", "str", "float", "None"])
    def test_vertices_must_be_cusps(self, vertex):
        """A plain pair compares equal to its Cusp, so the tuple vertices
        of a valid symbol passed the constructor and then failed validate
        with a bare AttributeError; any vertex that is not a Cusp is
        refused up front, every one of them or only the last."""
        s = gamma0_symbol(6)
        for vertices in ([vertex(v) for v in s.vertices],
                         list(s.vertices[:-1]) + [vertex(s.vertices[-1])]):
            with pytest.raises(InvalidSymbolError,
                               match="^vertices must be Cusps, got "):
                FareySymbol(vertices, s.pairing, s.ell, 6).validate()


class TestDistanceAndClasses:
    def test_distance(self):
        s = pattern_symbol([2, 3, 0, 1, 5, 4, 7, 6, 9, 8])
        assert s.distance(0, 9) == 1
        assert s.distance(3, 3) == 0
        assert s.distance(1, 5) == 4

    def test_gluing_fixtures_gamma0_15(self, symbol_for):
        s = symbol_for(15)
        arcs = {s.arc(i): i for i in range(s.n)}
        i = arcs[(Cusp(1, 1), INFINITY)]
        assert s.pairing[i] == arcs[(INFINITY, ZERO)]
        assert s.gluing(i).psl_eq(IMat(1, 1, 0, 1))
        assert s.arc_class(i) == CLS_PARABOLIC
        j = arcs[(ZERO, Cusp(1, 5))]
        assert s.arc(s.pairing[j]) == (Cusp(2, 5), Cusp(1, 2))
        assert s.gluing(j).psl_eq(IMat(2, -1, 15, -7))
        assert s.arc_class(j) == CLS_HYPERBOLIC

    def test_gluing_fixture_gamma0_13(self, symbol_for):
        s = symbol_for(13)
        arcs = {s.arc(i): i for i in range(s.n)}
        i = arcs[(ZERO, Cusp(1, 3))]
        assert s.pairing[i] == i and s.ell[i] == 3
        assert s.gluing(i).psl_eq(IMat(3, -1, 13, -4))
        assert s.arc_class(i) == CLS_ELLIPTIC3
        assert classify(s.gluing(i)) == CLS_ELLIPTIC3

    def test_classes_match_trace_classification(self, symbol_for):
        for N in (2, 11, 13, 15, 37):
            s = symbol_for(N)
            for i in range(s.n):
                assert s.arc_class(i) == classify(s.gluing(i)), (N, i)

    def test_class_counts_take_one_arc_per_orbit(self, symbol_for,
                                                 normalized_for):
        # the reference counts each orbit at its first arc by a seen set
        def reference(s):
            seen = set()
            out = dict.fromkeys((CLS_HYPERBOLIC, CLS_PARABOLIC,
                                 CLS_ELLIPTIC2, CLS_ELLIPTIC3), 0)
            for i in range(s.n):
                if i not in seen:
                    seen.update((i, s.pairing[i]))
                    out[s.arc_class(i)] += 1
            return out

        for N in range(1, 101):
            for s in (symbol_for(N), normalized_for(N)):
                assert s.class_counts() == reference(s), N

    def test_partner_gluing_is_inverse(self, symbol_for):
        for N in (11, 15, 22, 37):
            s = symbol_for(N)
            for i in range(s.n):
                j = s.pairing[i]
                if i != j:
                    assert s.gluing(j).psl_eq(s.gluing(i).inverse())


class TestLinkedAndNormalized:
    def test_defining_patterns(self):
        quad = pattern_symbol([2, 3, 0, 1])
        assert is_linked(quad, 0, 1)
        split = pattern_symbol([1, 0, 3, 2])
        assert not is_linked(split, 0, 2)

    def test_linked_fixture_gamma0_15(self, symbol_for):
        s = symbol_for(15)
        arcs = {s.arc(i): i for i in range(s.n)}
        a2 = arcs[(ZERO, Cusp(1, 5))]
        a3 = arcs[(Cusp(1, 5), Cusp(1, 4))]
        assert is_linked(s, a2, a3)
        # and the distance of a2 to its partner is 4 > 2
        assert s.distance(a2, s.pairing[a2]) == 4
        assert not s.is_normalized()

    def test_fixed_arc_rejected(self):
        s = pattern_symbol([1, 0, 2], ell={2: 2})
        with pytest.raises(FareyError):
            is_linked(s, 0, 2)

    def test_normalized_patterns(self):
        good = pattern_symbol([2, 3, 0, 1, 5, 4, 6], ell={6: 3})
        assert good.is_normalized()
        blocks = good.factorize()
        assert [k for k, _ in blocks] == ["quad", "pair", "fixed"]
        assert good.block_counts() == (1, 1, 1)

    def test_distance_two_unlinked_is_not_normalized(self):
        # pattern a b a* b* c d c* with d fixed: d(c, c*) = 2 but c is
        # linked to nothing
        bad = pattern_symbol([2, 3, 0, 1, 6, 5, 4], ell={5: 2})
        assert not bad.is_normalized()
        assert bad.normalization_defect() == 4
        with pytest.raises(NotNormalizedError) as err:
            bad.factorize()
        assert err.value.arc_index == 4
        assert str(err.value) == "symbol is not normalized (arc 4)"

    def test_factorize_checks_the_defect(self):
        # fault: the memoized defect calls a non-normalized symbol normalized
        bad = pattern_symbol([2, 3, 0, 1, 6, 5, 4], ell={5: 2})
        bad._memo["defect"] = None
        with pytest.raises(InvalidSymbolError, match="admits no block decomposition"):
            bad.factorize()

    def test_factorize_agrees_with_predicate(self, symbol_for, normalized_for):
        for N in (11, 13, 14, 15, 20, 22, 37):
            u = symbol_for(N)
            if u.is_normalized():
                u.factorize()
            else:
                with pytest.raises(NotNormalizedError):
                    u.factorize()
            normalized_for(N).factorize()

    def test_quad_arcs_linked_pair_arcs_not(self, normalized_for):
        s = normalized_for(22)
        for kind, idx in s.factorize():
            if kind == "quad":
                assert is_linked(s, idx[0], idx[1])
            elif kind == "pair":
                assert not any(is_linked(s, idx[0], j) for j in range(s.n)
                               if j not in idx and s.pairing[j] != j)

    def test_defect_matches_reference_on_random_involutions(self):
        rng = random.Random(2018)
        for n in range(2, 41):
            for _ in range(60):
                pairing = random_pairing(rng, n)
                ell = {i: rng.choice((2, 3))
                       for i in range(n) if pairing[i] == i}
                s = pattern_symbol(pairing, ell)
                assert s.normalization_defect() == reference_defect(s), pairing

    def test_defect_matches_reference_on_fixtures(self, symbol_for,
                                                   normalized_for):
        for N in range(1, 61):
            for s in (symbol_for(N), normalized_for(N)):
                assert s.normalization_defect() == reference_defect(s), N

    def test_defect_is_one_pass_per_symbol(self, normalized_for, monkeypatch):
        # the pass calls no method per arc, and is_normalized and factorize,
        # so generators and info too, read its memo
        monkeypatch.setattr(FareySymbol, "distance", None)
        sym = normalized_for(37)
        s = FareySymbol(sym.vertices, sym.pairing, sym.ell)
        assert "defect" not in s._memo
        assert s.normalization_defect() is None and s._memo["defect"] is None
        s._memo["defect"] = 3
        assert not s.is_normalized()
        with pytest.raises(NotNormalizedError):
            s.factorize()


class TestGroupCheck:
    def test_contains_all(self, symbol_for):
        s = symbol_for(15)
        assert s.contains_all(gamma0_oracle(15))
        assert not s.contains_all(gamma0_oracle(30))
        assert s.contains_all(lambda m: True)

    @pytest.mark.parametrize("oracle", [5, "x", (1, 2)])
    def test_an_oracle_that_is_not_callable_is_refused(self, symbol_for, oracle):
        # raised a bare TypeError
        with pytest.raises(FareyError, match="oracle is callable, got "):
            symbol_for(11).validate(oracle=oracle)


class TestValidation:
    def test_fixtures_validate(self, symbol_for):
        for N in (1, 2, 13, 15, 37):
            symbol_for(N).validate(gamma0_oracle(N))

    def test_a_two_arc_symbol_needs_an_order_3_arc(self):
        # {2, 2} has area 3(n - 2) + nu3 = 0: it validated, normalize returned
        # it and counts raised "cusp width came out nonpositive"
        for ell in ({0: 2, 1: 3}, {0: 3, 1: 2}, {0: 3, 1: 3}):
            FareySymbol([INFINITY, ZERO], [0, 1], ell).validate()
        flat = FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 2})
        for call in (flat.validate, lambda: normalize(flat)):
            with pytest.raises(InvalidSymbolError, match="area 0: a two-arc "
                               "symbol needs an order-3 arc"):
                call()

    def test_missing_infinity_zero(self):
        s = FareySymbol([ZERO, Cusp(1, 2), Cusp(1, 1)], [2, 1, 0], {1: 2})
        with pytest.raises(InvalidSymbolError):
            s.validate()

    def test_width_mismatch_rejected(self):
        # pair a width-1 arc with a width-2 arc
        s = FareySymbol([INFINITY, ZERO, Cusp(2, 5), Cusp(1, 1)],
                        [2, 1, 0, 3], {1: 2, 3: 2})
        with pytest.raises(InvalidSymbolError):
            s.validate()

    def test_identity_gluing_rejected(self):
        s = FareySymbol([INFINITY, ZERO], [1, 0], {})
        with pytest.raises(InvalidSymbolError, match="identity"):
            s.validate()

    def test_non_integral_gluing_rejected(self):
        # the width-3 arcs (0, 3) and (3, 6) have equal widths, but no
        # integral matrix carries one onto the other reversed
        s = FareySymbol([INFINITY, ZERO, Cusp(3, 1), Cusp(6, 1)],
                        [3, 2, 1, 0], {})
        with pytest.raises(InvalidSymbolError, match="not divisible by 3"):
            s.validate()

    def test_out_of_order_vertices(self):
        for s in (
                FareySymbol([INFINITY, ZERO, Cusp(1, 1), Cusp(1, 2)], [1, 0, 3, 2], {}),
                # every consecutive triple in circular order, yet two turns around
                FareySymbol([INFINITY, ZERO, Cusp(1, 2), Cusp(-1, 1), Cusp(-1, 2),
                             Cusp(3, 1)], range(6),
                            {0: 2, 1: 2, 2: 3, 3: 2, 4: 3, 5: 2})):
            with pytest.raises(InvalidSymbolError, match="increasing"):
                s.validate()

    def test_failure_is_not_memoized(self):
        s = FareySymbol([INFINITY, ZERO, Cusp(2, 5), Cusp(1, 1)],
                        [2, 1, 0, 3], {1: 2, 3: 2})
        for _ in range(2):
            with pytest.raises(InvalidSymbolError, match="widths"):
                s.validate()

    def test_oracle_checked_on_every_call(self, symbol_for):
        s = FareySymbol.from_dict(symbol_for(15).to_dict())
        s.validate()
        s.validate(gamma0_oracle(15))
        for _ in range(2):
            with pytest.raises(InvalidSymbolError, match="oracle"):
                s.validate(gamma0_oracle(30))

    def test_cached_gluings_are_fresh_gluings(self, symbol_for, normalized_for):
        """Each pair's gluing is computed once and the partner's derived
        from it: whether validate or gluing calls in reverse order fill
        the cache, every entry equals a fresh gluing_entries call."""
        for N in range(1, 61):
            for sym in (symbol_for(N), normalized_for(N)):
                v, n = sym.vertices, sym.n
                want = [gluing_entries(v[i], v[(i + 1) % n], v[j],
                                       v[(j + 1) % n], sym.ell.get(i))
                        for i, j in enumerate(sym.pairing)]
                fresh = FareySymbol.from_dict(sym.to_dict())
                fresh.validate()
                assert fresh._glue == want, N
                fresh = FareySymbol.from_dict(sym.to_dict())
                assert [fresh.gluing(i) for i in reversed(range(n))] == want[::-1], N
                assert fresh._glue == want, N

    def test_failure_names_the_lower_arc_first(self):
        # arcs 0 and 2 have widths 1 and 3: a refused gluing of arc 2
        # caches nothing, and validate still fails at arc 0
        s = FareySymbol([INFINITY, ZERO, Cusp(2, 5), Cusp(1, 1)],
                        [2, 1, 0, 3], {1: 2, 3: 2})
        with pytest.raises(InvalidSymbolError,
                           match=re.escape("(2/5, 1/1) and (1/0, 0/1) have widths 3 != 1")):
            s.gluing(2)
        with pytest.raises(InvalidSymbolError,
                           match=re.escape("(1/0, 0/1) and (2/5, 1/1) have widths 1 != 3")):
            s.validate()


class TestRotationAndJson:
    def test_rotation_is_relabeling(self, symbol_for):
        s = symbol_for(15)
        r = s.rotated(3)
        assert r.n == s.n
        assert r.arc(0) == s.arc(3)
        assert r.rotated(s.n - 3) == s
        r.validate()

    def test_json_roundtrip(self, symbol_for, normalized_for):
        for N in (1, 2, 11, 13, 14, 15, 20, 22, 37):
            for s in (symbol_for(N), normalized_for(N)):
                assert FareySymbol.from_json(s.to_json()) == s

    @pytest.mark.parametrize("ell", [{0: 2.0, 1: 3}, {0: 2, 1: 3.0},
                                     {0.0: 2, 1: 3}, {0: 2, True: 3}])
    def test_ell_that_json_cannot_carry_is_refused(self, ell):
        """A float order or arc was accepted, to_json wrote it as 2.0 or
        "0.0" and from_json refused that; the constructor refuses it now,
        and the same symbol with ints round-trips."""
        with pytest.raises(InvalidSymbolError):
            FareySymbol([INFINITY, ZERO], [0, 1], ell)
        s = FareySymbol([INFINITY, ZERO], [0, 1],
                        {int(i): int(mu) for i, mu in ell.items()})
        assert FareySymbol.from_json(s.to_json()) == s

    @pytest.mark.parametrize("pairing, shown", [
        ([1.0, 0.0], "1.0"), ([True, False], "True"), ([1, 0.0], "0.0"),
        (["1", 0], "'1'"), ([None, 0], "None")])
    def test_pairing_that_json_cannot_carry_is_refused(self, pairing, shown):
        """A float entry raised a bare TypeError, and a bool one was
        accepted and written to JSON as true, which from_json refused; the
        constructor refuses both and names the first bad entry."""
        with pytest.raises(InvalidSymbolError,
                           match="pairing entries must be ints, got %s$"
                           % re.escape(shown)):
            FareySymbol([INFINITY, ZERO], pairing)
        s = FareySymbol([INFINITY, ZERO], [1, 0])
        assert FareySymbol.from_json(s.to_json()) == s

    @pytest.mark.parametrize("ell", [[2], "12", 3])
    def test_ell_that_is_no_object_is_refused(self, ell):
        doc = {"vertices": ["1/0", "0/1", "1/1"], "pairing": [2, 1, 0],
               "ell": ell}
        with pytest.raises(InvalidSymbolError, match='^malformed symbol '
                           'data: "ell" must be an object$'):
            FareySymbol.from_dict(doc)

    def test_json_shape(self, symbol_for):
        d = symbol_for(13).to_dict()
        assert d["vertices"][0] == "1/0"
        assert set(d) == {"vertices", "pairing", "ell", "level"}
        assert d["level"] == 13
        assert all(isinstance(v, int) for v in d["pairing"])

    @pytest.mark.parametrize("level", [0, -3, True, False, 2.0, "13", -10**40,
                                       pytest.param(-10**5000, id="huge")])
    def test_constructor_refuses_bad_level(self, symbol_for, level):
        s = symbol_for(13)
        with pytest.raises(InvalidSymbolError, match="level"):
            FareySymbol(s.vertices, s.pairing, s.ell, level=level)

    def test_constructor_keeps_good_level(self, symbol_for):
        s = symbol_for(13)
        assert FareySymbol(s.vertices, s.pairing, s.ell, level=None).level is None
        assert FareySymbol(s.vertices, s.pairing, s.ell, level=10**40).level == 10**40

    def test_huge_wrong_level_is_named_by_its_size(self, symbol_for):
        # its repr raises ValueError, so the message names it by its size
        s = symbol_for(13)
        huge = FareySymbol(s.vertices, s.pairing, s.ell, level=10**5000)
        with pytest.raises(InvalidSymbolError, match=re.escape(
                "not Gamma0(<int of 16610 bits>), its level")):
            huge.validate()

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidSymbolError):
            FareySymbol.from_json("{not json")
        with pytest.raises(InvalidSymbolError):
            FareySymbol.from_json('{"vertices": ["1/0"], "pairing": "x"}')
