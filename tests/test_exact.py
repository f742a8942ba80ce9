import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fareysym.exact import (Cusp, IMat, IDENTITY, INFINITY, ZERO, FareyError,
                            ORDER3, REVERSE, _coprime_cusp, _int_of, _int_str,
                            _shown, _shown_cusp, arc_matrix,
                            classify, CLS_ELLIPTIC2, CLS_ELLIPTIC3,
                            CLS_HYPERBOLIC, CLS_IDENTITY, CLS_PARABOLIC)
from fareysym.kulkarni import gamma0_symbol
from fareysym.siegel import normalize
from fareysym.symbol import gluing_entries


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


class TestCuspValue:
    """A Cusp is the coprime 2-tuple (num, den): equality, hashing,
    unpacking and immutability come from the tuple."""

    def test_equals_and_hashes_as_its_pair(self):
        c = Cusp(2, 4)
        assert c == (1, 2) and (1, 2) == c and hash(c) == hash((1, 2))
        assert {c: 1}[(1, 2)] == 1 and tuple(c) == (1, 2)
        assert Cusp(1, 2) == (1, 2) and INFINITY == (1, 0) and ZERO == (0, 1)

    @given(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))
    def test_unpacks_as_its_fields(self, p, q):
        if (p, q) == (0, 0):
            return
        c = Cusp(p, q)
        num, den = c
        assert (num, den) == (c.num, c.den) == (c[0], c[1])
        assert type(c) is Cusp and len(c) == 2

    def test_unpacks(self):
        p, q = Cusp(-3, 6)
        assert (p, q) == (-1, 2)

    def test_coprime_cusp_is_a_cusp(self):
        for num, den in ((3, -5), (-3, 5), (-1, 0), (1, 0), (0, -1), (7, 2)):
            c = _coprime_cusp(num, den)
            assert type(c) is Cusp and c == Cusp(num, den)
        assert _coprime_cusp(3, -5) == (-3, 5)

    def test_zero_zero_raises(self):
        with pytest.raises(FareyError, match="P\\^1"):
            Cusp(0, 0)

    def test_immutable(self):
        c = Cusp(1, 2)
        with pytest.raises(AttributeError):
            c.num = 5
        with pytest.raises(AttributeError):
            c.den = 5
        with pytest.raises(AttributeError):
            c.x = 5
        assert c == (1, 2)

    def test_repr_and_str(self):
        assert repr(Cusp(-6, 4)) == "Cusp(-3, 2)" and str(Cusp(-6, 4)) == "-3/2"
        assert repr(INFINITY) == "Cusp(1, 0)" and str(INFINITY) == "1/0"
        big = Cusp(2**70 + 1, 3)
        assert repr(big) == "Cusp(%d, 3)" % (2**70 + 1)
        assert str(big) == "%d/3" % (2**70 + 1)
        assert Cusp.parse(str(big)) == big

    def test_normalize_output_vertices_are_cusps(self):
        for N in (6, 15, 37):
            assert all(type(v) is Cusp for v in normalize(gamma0_symbol(N)).vertices)


# ints of up to 20,000 decimal digits, past CPython's default limit of
# 4300 on int <-> str; r * 10**k + r puts a run of zeros in the middle
huge_ints = st.one_of(
    st.integers(-10**20000, 10**20000),
    st.builds(lambda r, k, sign: sign * (r * 10**k + r),
              st.integers(0, 2**64), st.integers(0, 20000),
              st.sampled_from([1, -1])))


class TestIntCodec:
    @settings(max_examples=60, deadline=None)
    @given(huge_ints)
    def test_round_trip_at_any_size(self, x):
        text = _int_str(x)
        assert _int_of(text) == x
        assert re.fullmatch(r"-?(0|[1-9][0-9]*)", text)
        try:
            plain = str(x)
        except ValueError:  # past the limit: only the codec reads and writes
            assert len(text.lstrip("-")) > 4300
        else:
            assert text == plain and int(plain) == x

    @settings(max_examples=30, deadline=None)
    @given(huge_ints, st.integers(1, 10**30))
    def test_cusps_and_matrices_cross_text(self, p, q):
        c = Cusp(p, q)
        assert Cusp.parse(str(c)) == c
        assert repr(c) == "Cusp(%s, %s)" % (_int_str(c.num), _int_str(c.den))
        m = IMat(1, p, 0, 1)
        assert repr(m) == "IMat(1, %s, 0, 1)" % _int_str(p)

    def test_parse_keeps_int_syntax(self):
        big = "7" * 5000
        assert _int_of(" -" + big + " ") == -int(big[:2500]) * 10**2500 - int(big[2500:])
        assert Cusp.parse("+%s/1" % big) == Cusp(_int_of(big))
        assert _int_of("1_000") == 1000
        for bad in (big + "x", big + "_1", "--" + big, "", "-"):
            with pytest.raises(ValueError):
                _int_of(bad)

    @staticmethod
    def parse_alike(text):
        """Asserts that Cusp.parse gives what the constructor gives: the
        same Cusp, or FareyError with the same message."""
        try:
            p, q = text.split("/") if "/" in text else (text, 1)
            want = Cusp(_int_of(p), _int_of(q))
        except (AttributeError, TypeError, ValueError, FareyError) as e:
            if not isinstance(e, FareyError):
                e = FareyError("not a cusp p/q: %s" % _shown(text))
            with pytest.raises(FareyError) as info:
                Cusp.parse(text)
            assert str(info.value) == str(e)
        else:
            got = Cusp.parse(text)
            assert type(got) is Cusp and got == want

    @pytest.mark.parametrize("text", [
        "0/5", "4/-2", "-1/0", "1/0", "0/0", " 3/ 4", "+3/4", "1_0/3", "7",
        "1/2/3", "", 5, "1" * 5000 + "/3", "-3/4", "3/4x", b"1/2", None])
    def test_parse_equals_the_constructor(self, text):
        # Cusp.parse reads most text without the constructor
        self.parse_alike(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/-+ _", max_size=10))
    def test_parse_equals_the_constructor_on_any_text(self, text):
        self.parse_alike(text)

    def test_a_long_refusal_is_named_by_its_size(self):
        with pytest.raises(FareyError) as info:
            Cusp.parse("1" * 5000 + "x")
        assert str(info.value) == "not a cusp p/q: <str of 5001 characters>"

    def test_a_long_cusp_is_named_by_its_size(self):
        # "p/q" is kept up to 200 characters, either way round and for a
        # pair of either sign; a longer cusp is named by its height in bits
        p = 10**196 + 1
        assert _shown_cusp(Cusp(p, 7)) == "%d/7" % p  # 199 characters
        assert _shown_cusp((-p, -70)) == "%d/70" % p  # 200
        assert _shown_cusp((p, 700)) == "<cusp of 652 bits>"  # 201
        assert _shown_cusp((7, 100 * p)) == "<cusp of 658 bits>"
        assert _shown_cusp(INFINITY) == "1/0"
        with pytest.raises(FareyError) as info:
            arc_matrix(Cusp(10**5000), Cusp(10**5000))
        assert str(info.value) == ("degenerate arc (<cusp of 16610 bits>, "
                                   "<cusp of 16610 bits>)")
        with pytest.raises(FareyError) as info:
            gluing_entries((10**5000, 1), (10**5000, 1), (1, 0), (0, 1))
        assert str(info.value) == ("degenerate arc (<cusp of 16610 bits>, "
                                   "<cusp of 16610 bits>)")


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
        got = [g.apply(x) for x in xs]
        assert [(y.num, y.den, hash(y)) for y in got] == [
            (y.num, y.den, hash(y)) for y in want]
        for y in got:
            assert type(y) is Cusp
            with pytest.raises(AttributeError):
                y.num = 0

    @settings(max_examples=300, deadline=None)
    @given(unimodular_matrices(), st.lists(cusps, max_size=8))
    def test_coprime_cusp_is_canonical(self, g, xs):
        # the Cusps that Siegel and the builder make from coprime integer
        # pairs of either sign, skipping the gcd
        a, b, c, d = g.entries()
        for x in xs:
            p, q = a * x.num + b * x.den, c * x.num + d * x.den
            for pair in ((p, q), (-p, -q)):
                got, want = _coprime_cusp(*pair), Cusp(*pair)
                assert got == want and hash(got) == hash(want)
                assert type(got) is Cusp

    def test_other_dets_divide_out_the_gcd(self):
        y = IMat(2, 0, 0, 1).apply(Cusp(1, 2))
        assert (y.num, y.den) == (1, 1)
        m = IMat(3, 0, 0, -1)
        assert [m.apply(x) for x in (Cusp(1, 3), Cusp(-2, 1), INFINITY)] == [
            Cusp(-1, 1), Cusp(6, 1), INFINITY]

    def test_det_zero_rejected(self):
        for m in (IMat(1, 2, 2, 4), IMat(0, 0, 0, 0)):
            with pytest.raises(FareyError):
                m.apply(ZERO)

    def test_a_plain_pair_is_read_as_its_cusp(self):
        # a plain pair raised a bare AttributeError
        g = IMat(2, -1, 15, -7)
        for point in ((1, 2), (-2, -4), Cusp(1, 2)):
            got = g.apply(point)
            assert got == ZERO and type(got) is Cusp

    @pytest.mark.parametrize("point, message", [
        ((1, 2, 3), r"int pair \(p, q\), got \(1, 2, 3\)"),
        ("1/2", r"int pair \(p, q\), got '1/2'"),
        ((1.0, 2), r"got \(1.0, 2\)"), ((True, 1), r"got \(True, 1\)"),
        ([1, 2], r"got \[1, 2\]"), (None, "got None"),
        ((0, 0), r"\(0, 0\) does not define a point")])
    def test_other_points_are_refused(self, point, message):
        with pytest.raises(FareyError, match=message):
            IMat(1, 1, 0, 1).apply(point)


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

    @pytest.mark.parametrize("g", [(1, 1, 0), (1, 0, 0, 1, 0), 5, None])
    def test_other_shapes_are_refused(self, g):
        # a 3- or 5-tuple raised a bare ValueError, an int a TypeError
        with pytest.raises(FareyError, match="det-1 matrices, got"):
            classify(g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.integers(-3, 3), max_size=6).map(
        lambda ks: reduce(lambda g, k: g * IMat(k, -1, 1, 0), ks, IDENTITY)),
        unimodular_matrices()))
    def test_plain_tuples_classify_as_their_imat(self, g):
        # a plain tuple or list passed the entry check, then raised a bare
        # AttributeError; the reference is the trace rule on the IMat.  Short
        # words in T^k S give every class, long ones large entries.
        if g.det() == -1:
            g = g * IMat(1, 0, 0, -1)
        t = abs(g.trace())
        want = ({0: CLS_ELLIPTIC2, 1: CLS_ELLIPTIC3}.get(t) or CLS_HYPERBOLIC
                if t != 2 else
                CLS_IDENTITY if g.is_identity_psl() else CLS_PARABOLIC)
        assert classify(g) == classify(tuple(g)) == classify(list(g)) == want

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


class TestIMatValue:
    """An IMat is the 4-tuple of its entries: equality, hashing and
    immutability come from the tuple."""

    @given(st.tuples(*[st.integers(-2**70, 2**70)] * 4))
    def test_equals_and_hashes_as_its_entries(self, t):
        m = IMat(*t)
        assert m == t and t == m and hash(m) == hash(t)
        assert (m.a, m.b, m.c, m.d) == t == tuple(m)
        assert type(m.entries()) is tuple and m.entries() == t
        assert list(m) == list(t)
        assert {m: 1}[t] == 1

    def test_immutable(self):
        m = IMat(1, 2, 3, 7)
        with pytest.raises(AttributeError):
            m.a = 5
        with pytest.raises(AttributeError):
            m.e = 5
        assert m == (1, 2, 3, 7)

    def test_repr(self):
        assert repr(IDENTITY) == "IMat(1, 0, 0, 1)"
        assert repr(IMat(-3, 2**70, 0, 5)) == "IMat(-3, %d, 0, 5)" % 2**70

    def test_products_and_powers_stay_imats(self):
        g = IMat(2, 1, 1, 1)
        for m in (g * g, g ** 3, g ** -2, -g, g.inverse(), g.adjugate(),
                  IMat(0, -1, 1, 0).inverse(), IMat(1, 0, 0, -1).inverse(),
                  g.psl_normalize(), (-g).psl_normalize()):
            assert type(m) is IMat
        assert g ** 3 == (13, 8, 8, 5) and g ** -2 == (2, -3, -3, 5)
        assert IMat(1, 0, 0, -1).inverse() == (1, 0, 0, -1)
        assert (-g).psl_normalize() == g and (-g).is_identity_psl() is False
        assert (-IDENTITY).is_identity_psl()

    def test_gluing_entries_returns_an_imat(self):
        g = gluing_entries((1, 0), (0, 1), (0, 1), (1, 0))
        assert type(g) is IMat and g.det() == 1
