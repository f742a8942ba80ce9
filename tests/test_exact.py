import random

import pytest
from hypothesis import given, settings, strategies as st

from fareysym.exact import (Cusp, IMat, IDENTITY, INFINITY, ZERO, FareyError,
                            ORDER3, REVERSE, arc_matrix,
                            classify, CLS_ELLIPTIC2, CLS_ELLIPTIC3,
                            CLS_HYPERBOLIC, CLS_IDENTITY, CLS_PARABOLIC)


def rand_sl2(rng, length=20):
    """Random word in T, T^-1, S; always det 1."""
    T = IMat(1, 1, 0, 1)
    S = IMat(0, 1, -1, 0)
    g = IDENTITY
    for _ in range(rng.randrange(length)):
        g = g * rng.choice((T, T.inverse(), S))
    return g


@st.composite
def unimodular_matrices(draw):
    """Products of T^k S with k up to 120 bits (entries up to about 2000
    bits), times diag(1, -1) for det -1 and by -1 for either sign."""
    g = IDENTITY
    for k in draw(st.lists(st.integers(-2**120, 2**120), max_size=16)):
        g = g * IMat(k, -1, 1, 0)
    if draw(st.booleans()):
        g = g * IMat(1, 0, 0, -1)
    return -g if draw(st.booleans()) else g


cusps = st.one_of(
    st.sampled_from([INFINITY, ZERO, Cusp(-1, 1)]),
    st.builds(Cusp, st.integers(-2**200, 2**200), st.integers(1, 2**200)))


def rand_cusp(rng):
    while True:
        p, q = rng.randrange(-30, 31), rng.randrange(-30, 31)
        if (p, q) != (0, 0):
            return Cusp(p, q)


class TestCusp:
    def test_canonicalize(self):
        assert Cusp(2, 4) == Cusp(1, 2)
        assert Cusp(-3, 0) == Cusp(1, 0) == INFINITY
        assert Cusp(5, -10) == Cusp(-1, 2)
        assert Cusp(5, -10).num == -1 and Cusp(5, -10).den == 2

    def test_zero_zero_rejected(self):
        with pytest.raises(FareyError):
            Cusp(0, 0)

    def test_text_form(self):
        assert str(INFINITY) == "1/0"
        assert str(Cusp(-1, 2)) == "-1/2"
        assert Cusp.parse("1/0") == INFINITY
        assert Cusp.parse("-3/6") == Cusp(-1, 2)
        assert Cusp.parse("7") == Cusp(7, 1)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_always_coprime_canonical(self, p, q):
        if (p, q) == (0, 0):
            return
        c = Cusp(p, q)
        from math import gcd
        assert gcd(c.num, c.den) == 1
        assert c.den > 0 or (c.den == 0 and c.num == 1)


class TestArcMatrix:
    def test_infinity_zero_is_identity(self):
        assert arc_matrix(INFINITY, ZERO) == IDENTITY

    def test_zero_one(self):
        # oracle: enumerate the four column-sign choices, keep det > 0 and
        # the first-column convention
        r, s = ZERO, Cusp(1, 1)
        wanted = []
        for e1 in (1, -1):
            for e2 in (1, -1):
                m = IMat(e1 * r.num, e2 * s.num, e1 * r.den, e2 * s.den)
                if m.det() > 0 and (m.c > 0 or (m.c == 0 and m.a > 0)):
                    wanted.append(m)
        assert wanted == [arc_matrix(r, s)]
        assert arc_matrix(r, s) == IMat(0, -1, 1, -1)

    def test_width_two(self):
        m = arc_matrix(ZERO, Cusp(2, 5))
        assert m == IMat(0, -2, 1, -5)
        assert m.det() == 2

    def test_degenerate_rejected(self):
        with pytest.raises(FareyError):
            arc_matrix(Cusp(1, 2), Cusp(2, 4))

    def test_reverse_matrix(self):
        assert IDENTITY * REVERSE == IMat(0, -1, 1, 0)
        assert arc_matrix(ZERO, Cusp(1, 5)) * REVERSE == IMat(-1, 0, -5, -1)

    def test_width_symmetry_and_reverse_det(self):
        rng = random.Random(1)
        for _ in range(100):
            r, s = rand_cusp(rng), rand_cusp(rng)
            if r == s:
                continue
            a = arc_matrix(r, s)
            assert a.det() == arc_matrix(s, r).det()
            assert (a * REVERSE).det() == a.det()


class TestMoebius:
    def test_fixtures(self):
        assert IMat(1, 1, 0, 1).apply(INFINITY) == INFINITY
        assert IMat(0, -1, 1, 0).apply(ZERO) == INFINITY
        assert IMat(2, -1, 15, -7).apply(Cusp(1, 2)) == ZERO

    def test_composition(self):
        rng = random.Random(2)
        for _ in range(100):
            g, h = rand_sl2(rng), rand_sl2(rng)
            x = rand_cusp(rng)
            assert (g * h).apply(x) == g.apply(h.apply(x))

    @settings(max_examples=300, deadline=None)
    @given(unimodular_matrices(), st.lists(cusps, max_size=8))
    def test_det_pm1_images_equal_canonical_cusps(self, g, xs):
        assert g.det() in (1, -1)
        a, b, c, d = g.entries()
        want = [Cusp(a * x.num + b * x.den, c * x.num + d * x.den) for x in xs]
        got = g.apply_all(xs)
        assert [(y.num, y.den, hash(y)) for y in got] == [
            (y.num, y.den, hash(y)) for y in want]
        assert got == [g.apply(x) for x in xs]
        for y in got:
            assert type(y) is Cusp
            with pytest.raises(AttributeError):
                y.num = 0

    def test_other_dets_divide_out_the_gcd(self):
        y = IMat(2, 0, 0, 1).apply_all([Cusp(1, 2)])[0]
        assert (y.num, y.den) == (1, 1)
        assert IMat(3, 0, 0, -1).apply_all([Cusp(1, 3), Cusp(-2, 1), INFINITY]) == [
            Cusp(-1, 1), Cusp(6, 1), INFINITY]

    def test_det_zero_rejected(self):
        for m in (IMat(1, 2, 2, 4), IMat(0, 0, 0, 0)):
            with pytest.raises(FareyError):
                m.apply_all([ZERO, INFINITY])
            with pytest.raises(FareyError):
                m.apply(ZERO)

    def test_apply_agrees_with_apply_all(self):
        rng = random.Random(5)
        for _ in range(200):
            m = IMat(*(rng.randrange(-9, 10) for _ in range(4)))
            if m.det() == 0:
                continue
            xs = [rand_cusp(rng) for _ in range(4)]
            assert m.apply_all(xs) == [m.apply(x) for x in xs]


class TestClassify:
    def test_fixtures(self):
        assert classify(IMat(1, 1, 0, 1)) == CLS_PARABOLIC
        assert classify(IMat(-1, 1, -2, 1)) == CLS_ELLIPTIC2
        assert classify(IMat(3, -1, 13, -4)) == CLS_ELLIPTIC3
        assert classify(IMat(2, 1, 1, 1)) == CLS_HYPERBOLIC
        assert classify(IDENTITY) == CLS_IDENTITY
        assert classify(-IDENTITY) == CLS_IDENTITY

    def test_requires_det_one(self):
        with pytest.raises(FareyError):
            classify(IMat(2, 0, 0, 1))

    def test_rotation_identities(self):
        # order-2 and order-3 rotations attached to random unimodular arcs
        rng = random.Random(4)
        found = 0
        while found < 60:
            r, s = rand_cusp(rng), rand_cusp(rng)
            if r == s:
                continue
            a = arc_matrix(r, s)
            if a.det() != 1:
                continue
            found += 1
            am = a * REVERSE
            g2 = a * am.adjugate()
            assert (g2 * g2).psl_normalize().is_identity_psl()
            g3 = am * ORDER3 * am.adjugate()
            gg = g3 * g3
            # 1 + g + g^2 = 0 exactly, as integer matrices
            assert 1 + g3.a + gg.a == 0 and g3.b + gg.b == 0
            assert g3.c + gg.c == 0 and 1 + g3.d + gg.d == 0
            # the three arcs a, g3 a, g3^2 a chain into a closed path
            assert g3.apply(s) == r
            assert gg.apply(r) == s
            assert (g3 ** 3).psl_normalize().is_identity_psl()

    def test_psl_normalize(self):
        m = IMat(-1, 2, 0, -1)
        assert m.psl_normalize() == IMat(1, -2, 0, 1)
        assert m.psl_eq(IMat(1, -2, 0, 1))
        with pytest.raises(FareyError):
            IMat(0, 0, 0, 0).psl_normalize()
