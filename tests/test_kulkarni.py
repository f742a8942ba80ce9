import hashlib
import json
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fareysym import classical
from fareysym import kulkarni
from fareysym.delta0 import delta0_presentation
from fareysym.exact import (Cusp, IMat, INFINITY, REVERSE, FareyError,
                            InvalidSymbolError, classify, CLS_HYPERBOLIC)
from fareysym.invariants import (CosetTable, contains, counts, cusp_orbits,
                                 express_word, generators, word_product)
from fareysym.kulkarni import (MAX_INDEX, MembershipOracle, build_unimodular,
                               gamma0_oracle, gamma0_symbol, p1_normalize,
                               replay_trace, _chart_key, _nonunit_key,
                               _split_keys, _Walk)
from fareysym.siegel import normalize
from fareysym.symbol import FareySymbol

from claims import (IntersectionForm, block_relation_holds, gram_is_J, rank,
                    stabilizer_at_infinity_holds)

# appendix polygons: the unimodular vertex lists for small levels
KNOWN_VERTICES = {
    7: "1/0 0/1 1/2 1/1",
    8: "1/0 0/1 1/4 1/3 1/2 1/1",
    9: "1/0 0/1 1/3 1/2 2/3 1/1",
    10: "1/0 0/1 1/3 2/5 1/2 3/5 2/3 1/1",
    11: "1/0 0/1 1/3 1/2 2/3 1/1",
    12: "1/0 0/1 1/6 1/5 1/4 1/3 1/2 2/3 3/4 1/1",
    13: "1/0 0/1 1/3 1/2 2/3 1/1",
    15: "1/0 0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 1/1",
    16: "1/0 0/1 1/4 1/3 3/8 2/5 1/2 2/3 3/4 1/1",
    17: "1/0 0/1 1/4 1/3 2/5 1/2 2/3 1/1",
    20: "1/0 0/1 1/5 1/4 2/7 3/10 1/3 3/8 2/5 1/2 3/5 2/3 3/4 1/1",
    22: "1/0 0/1 1/4 3/11 2/7 1/3 4/11 3/8 2/5 1/2 3/5 2/3 3/4 1/1",
    23: "1/0 0/1 1/4 1/3 2/5 1/2 3/5 2/3 3/4 1/1",
    37: "1/0 0/1 1/5 1/4 1/3 3/8 2/5 3/7 1/2 4/7 3/5 2/3 3/4 1/1",
}

# sha256 of gamma0_symbol(N).to_json() for levels of the build benchmark,
# computed with the gcdex-based p1_normalize that preceded the current one
BUILD_DIGESTS = {
    2310: "924d8f7d726a87652c7d172de8cebba824c489286d16a9396ace0236be035422",
    3060: "07f6c0316261a079bf87995d9374fd768f740f951463930fa1ab497fb9e47da4",
    9409: "7d9490312a925cb02b9251bf13b15715967cf5841dc9c1c5036f65a2a770d404",
    10007: "46b674750e3911834b6a17cc9c1fae327e5744b2b14810803fcff904ddbba78b",
    # computed with the builder whose Gamma0(N) keys were p1_normalize pairs
    6930: "df82d15c024601f344047e1134c40b7fead9717e0aa1a6967343b2b2de192c9e",
    40000: "d790218fdabc5308a02b42a3e99641719f882be9d9c87f7206b978578d79cebd",
    8192: "7474842925af2cc7874ba99a735fca26240a3593436f55324866438a9a5b56ba",
    # computed with the builder that keyed points with neither entry a unit
    # by p1_normalize's pair
    2520: "985f3fe954991fc3a9cc0e3c674a8c4d1ee4019b2613d8efcbba411b6fc93ef4",
    3210: "ec4a4fb3f2251deaa7921be2cfbbbfa07152c3c81a41467487e50222b9335fa4",
}

# sha256 over gamma0_symbol(N).to_json() + "\n" for N = 1..400, and over
# json.dumps(trace) + "\n" of the on_event traces for N = 1..60 and 2310,
# both computed with the builder that kept one object per arc
SYMBOLS_TO_400_DIGEST = \
    "0eac9cdcc8a01c87f0d800ef10c3d79804611f20e46cb5f39296571056ef7d96"
TRACES_DIGEST = \
    "4594c8fb16b15ab83a674701891d15f1c9ef8692013e9f44a99a48cf4130622a"


def units(N):
    return [t for t in range(1, N + 1) if gcd(t, N) == 1]


def reference_p1(N, u, v, unit_list):
    """The least (t*u mod N, t*v mod N) over the units t of Z/NZ."""
    return min((t * u % N, t * v % N) for t in unit_list)


class TestP1Normalize:
    @pytest.mark.parametrize("N", [7, 12, 16, 45])
    def test_normal_form_is_a_fixed_point(self, N):
        from hypothesis import given, strategies as st

        @given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
        def prop(u, v):
            from math import gcd
            if gcd(gcd(u, v), N) != 1:
                return
            cu, cv = p1_normalize(N, u, v)
            assert p1_normalize(N, cu, cv) == (cu, cv)
            assert p1_normalize(N, -u, -v) == (cu, cv)
        prop()

    def test_identifies_unit_multiples(self):
        N = 12
        from math import gcd
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) != 1:
                    continue
                base = p1_normalize(N, u, v)
                for t in range(1, N):
                    if gcd(t, N) == 1:
                        assert p1_normalize(N, t * u, t * v) == base

    def test_separates_distinct_points(self):
        N = 12
        from math import gcd
        classes = set()
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) == 1:
                    classes.add(p1_normalize(N, u, v))
        assert len(classes) == classical.index_gamma0(N)

    def test_level_one(self):
        assert p1_normalize(1, 5, 7) == (0, 0)

    def test_invalid_point(self):
        with pytest.raises(FareyError):
            p1_normalize(4, 2, 2)
        with pytest.raises(FareyError, match="not a point"):
            p1_normalize(10**5000, 2, 4)

    @pytest.mark.parametrize("N, u, v", [(0, 1, 1), (0, 0, 1), (-6, 3, -5),
                                         (-1, 1, 0), (6.0, 1, 2), (True, 1, 0),
                                         pytest.param(-10**5000, 1, 2, id="huge")])
    def test_level_below_one_raises(self, N, u, v):
        with pytest.raises(FareyError, match="positive level"):
            p1_normalize(N, u, v)

    @pytest.mark.parametrize("N, u, v", [(6, 1.5, 2), (6, 1, 2.0), (6, True, 1),
                                         (6, 1, None), (1, "1", 0),
                                         pytest.param(10**5000, 10**5000, 1.5,
                                                      id="huge")])
    def test_coordinates_must_be_ints(self, N, u, v):
        with pytest.raises(FareyError, match="must be ints"):
            p1_normalize(N, u, v)

    def test_least_unit_multiple_small_levels(self):
        for N in range(1, 61):
            unit_list = units(N)
            for u in range(N):
                for v in range(N):
                    if gcd(gcd(u, v), N) != 1:
                        with pytest.raises(FareyError):
                            p1_normalize(N, u, v)
                        continue
                    assert p1_normalize(N, u, v) == reference_p1(N, u, v, unit_list)

    @pytest.mark.parametrize("N", [2310, 3060, 9409, 10007])
    def test_least_unit_multiple_large_levels(self, N):
        rng = random.Random(N)
        unit_list = units(N)
        divisors = [g for g in range(1, N) if N % g == 0]
        checked = 0
        while checked < 40:
            # half the rows share a factor with N: the non-unit branch
            g = rng.choice(divisors) if checked % 2 else 1
            u = g * rng.randrange(1, N)
            v = rng.randrange(N)
            if gcd(gcd(u, v), N) != 1:
                continue
            assert p1_normalize(N, u, v) == reference_p1(N, u, v, unit_list)
            checked += 1


class TestGamma0Oracle:
    def test_predicate(self):
        o = gamma0_oracle(15)
        assert o(IMat(2, -1, 15, -7))
        assert not o(IMat(-1, 0, 5, -1))
        assert gamma0_oracle(1)(IMat(19, 7, 8, 3))

    def test_level_validation(self):
        with pytest.raises(FareyError):
            gamma0_oracle(0)

    @pytest.mark.parametrize("N", [2, 6, 13, 49, 60, 2310])
    def test_coset_key_decides_the_right_coset(self, N):
        # key(*m1) == key(*m2) iff m1 * m2^-1 has c = 0 mod N
        from hypothesis import given, settings, strategies as st
        key = gamma0_oracle(N).coset_key
        S = IMat(0, -1, 1, 0)

        def word(qs):
            """The product of the T^q S, q in qs."""
            m = IMat(1, 0, 0, 1)
            for q in qs:
                m = m * IMat(1, q, 0, 1) * S
            return m

        mats = st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(word)

        @settings(max_examples=200, deadline=None)
        @given(mats, mats, st.booleans(), st.integers(-20, 20),
               st.integers(-20, 20))
        def prop(m1, m2, same_coset, t, s):
            if same_coset:  # m2 = h m1 with h = (1, 0; Nt, 1)(1, s; 0, 1)
                m2 = IMat(1, s, N * t, N * t * s + 1) * m1
            in_group = (m1 * m2.adjugate()).c % N == 0
            assert in_group or not same_coset
            assert (key(*m1) == key(*m2)) == in_group
        prop()

    @pytest.mark.parametrize("level", [0, -7, 7.0, True, False, "7", None,
                                       pytest.param(-10**5000, id="huge")])
    def test_level_must_be_a_positive_int(self, level, monkeypatch):
        # refused before anything is built: no P^1 key is ever computed
        calls = []
        for name in ("p1_normalize", "_chart_key"):
            monkeypatch.setattr(kulkarni, name, lambda *args: calls.append(args))
        with pytest.raises(InvalidSymbolError, match="positive integer"):
            gamma0_oracle(level)
        with pytest.raises(InvalidSymbolError, match="positive integer"):
            gamma0_symbol(level)
        assert calls == []

    def test_huge_level_is_named_by_its_size(self):
        # "Gamma0(%d)" of it raised a bare ValueError: its repr raises
        o = gamma0_oracle(10**5000)
        assert repr(o) == "MembershipOracle(Gamma0(<int of 16610 bits>))"
        assert o(IMat(1, 0, 10**5000, 1)) and not o(IMat(1, 0, 10**4999, 1))
        # its index is beyond any list, so it is refused before the build
        with pytest.raises(FareyError, match=r"Gamma0\(<int of 16610 bits>\) "
                                             "has index above"):
            gamma0_symbol(10**5000)

    def test_level_past_maxsize_is_refused_before_it_is_factored(
            self, monkeypatch):
        # trial division of a prime past 2^63 takes billions of steps, and
        # so does any level past MAX_INDEX: its index exceeds the level, so
        # it is refused unfactored; a level at most MAX_INDEX whose index
        # passes it is factored once
        calls = []
        factorize = classical.factorize
        monkeypatch.setattr(classical, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        for N in (2**64 - 59, 2**63 - 25, 10**12, MAX_INDEX + 1):
            with pytest.raises(InvalidSymbolError, match=(
                    r"^Gamma0\(%d\) has index above %d, too large to build$"
                    % (N, MAX_INDEX))):
                gamma0_symbol(N)
        assert calls == []
        with pytest.raises(InvalidSymbolError, match="too large to build"):
            gamma0_symbol(MAX_INDEX)
        assert calls == [MAX_INDEX]

    def test_an_index_of_max_index_itself_builds(self, monkeypatch):
        monkeypatch.setattr(kulkarni, "MAX_INDEX", 24)
        assert counts(gamma0_symbol(12))[4] == 24
        with pytest.raises(InvalidSymbolError, match=r"^Gamma0\(18\) has index "
                           "above 24, too large to build$"):
            gamma0_symbol(18)

    def test_sign_invariance(self):
        o = gamma0_oracle(6)
        m = IMat(1, 1, 6, 7)
        assert o(m) == o(-m)
        assert o.coset_key(*m.entries()) == o.coset_key(*(-m).entries())

    def test_coset_key_refuses_a_matrix_outside_sl2z(self):
        # the chart key of a pair that is no point of P^1(Z/N) means nothing
        key = gamma0_oracle(4).coset_key
        assert key(1, 0, 0, 1) == 4
        for m in [(1, 0, 2, 2), (1, 0, 0, -1), (1.0, 0, 0, 1), (1, 0, 0, "1")]:
            with pytest.raises(FareyError, match="integral det-1 matrix"):
                key(*m)

    def test_rejecting_identity_is_an_error(self):
        with pytest.raises(FareyError):
            MembershipOracle(lambda m: False)

    @pytest.mark.parametrize("bound", [0, -1, 2.5, True, "6",
                                       pytest.param(-10**5000, id="huge")])
    def test_index_bound_must_be_a_positive_int(self, bound):
        # unchecked, 0 falls back to the default cap and -1 fails later
        # with a negative insertion cap
        with pytest.raises(FareyError, match="index_bound"):
            MembershipOracle(gamma0_oracle(6).predicate, index_bound=bound)


def primitive_row(c, d):
    """(c, d) divided by its gcd; (0, 1) for (0, 0)."""
    g = gcd(c, d)
    return (c // g, d // g) if g else (0, 1)


# levels for the chart properties: primes, powers of 2 and 3, odd composites
# and even smooth levels; at 13, 10009, 2, 65, 91, 1105 and 2210 some points
# self-pair, so the congruences fire as well as stay silent
CHART_LEVELS = [13, 10009, 2, 8192, 9, 6561, 65, 91, 1105, 3003, 2210, 2310,
                2520, 6930, 40000]


def rows(N):
    """Primitive rows (c, d) whose entries are multiples of random divisors
    of N, so that every chart and the fallback are drawn."""
    from hypothesis import strategies as st
    divisors = [g for g in range(1, N + 1) if N % g == 0]
    entry = st.tuples(st.sampled_from(divisors), st.integers(-10**6, 10**6))
    return st.tuples(entry, entry).map(
        lambda r: primitive_row(r[0][0] * r[0][1], r[1][0] * r[1][1]))


def unit_multiple(N, c, d, lam, s, t):
    """A primitive row for the point lam * (c : d) when lam is a unit mod N
    (else for (c : d)), its entries moved by multiples of N."""
    if gcd(lam, N) != 1:
        lam = 1
    return primitive_row(lam * c + N * s, lam * d + N * t)


class TestKeyRecurrence:
    """The builder's Gamma0(N) keys of an arc (a, b, c, d): in = (c : d) and
    out = (d : -c), derived from the parent's keys when the arc is split
    into (a, b - a, c, d - c) and (a - b, b, c - d, d).  It self-pairs with
    order 2 when in = out and with order 3 when (-c : c - d) = out."""

    @staticmethod
    def keys(N, c, d):
        return (p1_normalize(N, c, d), p1_normalize(N, d, -c),
                p1_normalize(N, -c, c - d))

    @staticmethod
    def chart_keys(N, c, d):
        return _chart_key(N, c, d), _chart_key(N, d, -c)

    # odd primes, prime squares and odd composites
    @pytest.mark.parametrize("N", [3, 5, 13, 101, 10007, 9, 25, 121, 10201,
                                   15, 45, 105, 1155, 3003])
    def test_unit_form_halves_equal_p1_normalize(self, N):
        # in unit form the keys are the ratios r of p1_normalize's (1, r)
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None)
        @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
        def prop(c, d):
            c, d = primitive_row(c, d)
            if gcd(c, N) != 1 or gcd(d, N) != 1:
                return
            k_in, k_out = self.chart_keys(N, c, d)
            (u, x), (w, y), odd = self.keys(N, c, d)
            assert u == w == 1 and (k_in, k_out) == (x, y)
            assert odd == (1, (x - 1) % N)
            halves = _split_keys(N, k_in, k_out, c, d)
            for side, (c1, d1) in enumerate(((c, d - c), (c - d, d))):
                assert halves[side] == self.chart_keys(N, c1, d1)
        prop()

    @pytest.mark.parametrize("N", CHART_LEVELS)
    def test_split_keys_equal_chart_keys(self, N):
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(rows(N))
        def prop(row):
            c, d = row
            k_in, k_out = self.chart_keys(N, c, d)
            halves = _split_keys(N, k_in, k_out, c, d)
            for side, (c1, d1) in enumerate(((c, d - c), (c - d, d))):
                assert halves[side] == self.chart_keys(N, c1, d1)
        prop()

    @pytest.mark.parametrize("N", CHART_LEVELS)
    def test_chart_keys_agree_with_p1_normalize(self, N):
        # two rows have equal builder keys iff they are the same point
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None)
        @given(rows(N), rows(N), st.booleans(),
               st.integers(-10**6, 10**6), st.integers(-9, 9), st.integers(-9, 9))
        def prop(r1, r2, same, lam, s, t):
            if same:
                r2 = unit_multiple(N, *r1, lam, s, t)
            assert ((_chart_key(N, *r1) == _chart_key(N, *r2))
                    == (p1_normalize(N, *r1) == p1_normalize(N, *r2)))
        prop()

    @pytest.mark.parametrize("N", CHART_LEVELS)
    def test_self_pairing_congruences_agree_with_keys(self, N):
        # N | c^2 + d^2 iff in = out, and N | c^2 - cd + d^2 iff the odd key
        # (-c : c - d) equals out; the rows drawn from the roots of
        # x^2 + 1 and x^2 - x + 1 mod N are the self-pairing ones
        from hypothesis import given, settings, strategies as st
        roots = [(x, 1) for x in range(N)
                 if (x * x + 1) % N == 0 or (x * x - x + 1) % N == 0]
        row = rows(N)
        if roots:
            row = st.one_of(row, st.tuples(
                st.sampled_from(roots), st.integers(-10**6, 10**6),
                st.integers(-9, 9), st.integers(-9, 9)).map(
                    lambda r: unit_multiple(N, *r[0], r[1], r[2], r[3])))

        @settings(max_examples=200, deadline=None)
        @given(row)
        def prop(r):
            c, d = r
            k_in, k_out = self.chart_keys(N, c, d)
            p_in, p_out, p_odd = self.keys(N, c, d)
            even = (c * c + d * d) % N == 0
            assert even == (k_in == k_out) == (p_in == p_out)
            odd = (c * c - c * d + d * d) % N == 0
            assert odd == (_chart_key(N, -c, c - d) == k_out) == (p_odd == p_out)
        prop()

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 12, 30, 64, 2310, 3060, 9409,
                                   10007])
    def test_left_in_key_is_parent_odd_key(self, N):
        # the left half's in-point (c : d - c) is the parent's odd point
        # (-c : c - d), so the order-3 congruence N | c^2 - cd + d^2 holds
        # iff the left half's in-key equals the parent's out-key; the rows
        # drawn from the roots of x^2 - x + 1 mod N (at 9409) make it hold
        from hypothesis import given, settings, strategies as st
        ints = st.integers(-10**6, 10**6)
        row = st.tuples(ints, ints).map(lambda r: primitive_row(*r))
        roots = [(x, 1) for x in range(N) if (x * x - x + 1) % N == 0]
        if roots:
            row = st.one_of(row, st.tuples(
                st.sampled_from(roots), ints, st.integers(-9, 9),
                st.integers(-9, 9)).map(
                    lambda r: unit_multiple(N, *r[0], r[1], r[2], r[3])))

        @settings(max_examples=200, deadline=None)
        @given(row)
        def prop(r):
            c, d = r
            k_in, k_out = self.chart_keys(N, c, d)
            left_in = _split_keys(N, k_in, k_out, c, d)[0][0]
            assert left_in == _chart_key(N, -c, c - d)
            odd = (c * c - c * d + d * d) % N == 0
            assert odd == (left_in == k_out)
        prop()

    @pytest.mark.parametrize("N", CHART_LEVELS)
    def test_nonunit_key_is_p1_normalize_pair_before_search(self, N):
        # a point with neither entry a unit is keyed by (g, w mod N/g) of
        # p1_normalize's (g, w); at primes and prime powers no primitive
        # row is such a point, and every example passes over
        from hypothesis import given, settings

        @settings(max_examples=200, deadline=None)
        @given(rows(N))
        def prop(row):
            c, d = row
            if gcd(c, N) == 1 or gcd(d, N) == 1:
                return
            g, w = p1_normalize(N, c, d)
            assert _chart_key(N, c, d) == _nonunit_key(N, c, d) == (g, w % (N // g))
        prop()

    @staticmethod
    def p1_calls(N, monkeypatch):
        calls = [0]
        original = kulkarni.p1_normalize

        def counted(*args):
            calls[0] += 1
            return original(*args)
        monkeypatch.setattr(kulkarni, "p1_normalize", counted)
        sym = gamma0_symbol(N)
        monkeypatch.undo()
        return sym, calls[0]

    def test_prime_level_needs_few_p1_calls(self, monkeypatch):
        # 3338 arcs; the builder that computed every key made 20019 calls,
        # and at a prime every key lies in one of the two charts
        sym, calls = self.p1_calls(10007, monkeypatch)
        assert sym.n == 3338
        assert calls == 0

    def test_even_level_needs_fewer_p1_calls(self, monkeypatch):
        # at these even levels no unit x = d/c has x - 1 a unit, and many
        # rows have neither entry a unit; the charts carry every key whose
        # row has a unit entry and _nonunit_key the others, so no level
        # calls p1_normalize.  At 2310 the builder that computed every key
        # made 13827 calls, the one that derived keys only when c, d and
        # x - 1 were units 9982, and the one that keyed rows with neither
        # entry a unit by p1_normalize 3676
        for N, n in ((2310, 2306), (2520, 2306), (6930, 6914)):
            sym, calls = self.p1_calls(N, monkeypatch)
            assert (sym.n, calls) == (n, 0)


class TestBuild:
    def test_full_group(self):
        s = gamma0_symbol(1)
        assert [str(v) for v in s.vertices] == ["1/0", "0/1"]
        assert s.pairing == (0, 1)
        assert s.ell == {0: 2, 1: 3}
        s.validate(gamma0_oracle(1))

    def test_gamma0_2(self):
        s = gamma0_symbol(2)
        assert [str(v) for v in s.vertices] == ["1/0", "0/1", "1/1"]
        assert s.pairing == (2, 1, 0)
        assert s.ell == {1: 2}
        assert s.gluing(1).psl_eq(IMat(-1, 1, -2, 1))

    def test_gamma0_15_pairing(self):
        s = gamma0_symbol(15)
        assert s.pairing == (9, 5, 6, 8, 7, 1, 2, 4, 3, 0)
        assert s.ell == {}

    @pytest.mark.parametrize("N", sorted(KNOWN_VERTICES))
    def test_known_polygons(self, N):
        s = gamma0_symbol(N)
        assert " ".join(str(v) for v in s.vertices) == KNOWN_VERTICES[N]
        s.validate(gamma0_oracle(N))

    def test_unimodular_and_index(self):
        for N in range(1, 61):
            s = gamma0_symbol(N)
            assert s.is_unimodular()
            nu3 = sum(1 for mu in s.ell.values() if mu == 3)
            assert 3 * (s.n - 2) + nu3 == classical.index_gamma0(N)

    def test_deterministic(self):
        assert gamma0_symbol(30) == gamma0_symbol(30)

    def test_oracle_without_key_agrees(self):
        for N in (1, 2, 3, 4, 7, 11, 13, 15, 24, 25, 36, 49, 60, 210):
            fast = gamma0_oracle(N)
            slow = MembershipOracle(fast.predicate,
                                    index_bound=fast.index_bound, level=N)
            assert build_unimodular(slow) == build_unimodular(fast)

    def test_colliding_key_is_refused(self, monkeypatch):
        # split keys that put both halves in one coset claim a label twice
        monkeypatch.setattr(kulkarni, "_split_keys",
                            lambda N, k_in, k_out, c, d: ((0, 1), (0, 2)))
        with pytest.raises(FareyError, match="coset label claimed twice"):
            gamma0_symbol(13)

    def test_symbols_to_400_are_pinned(self):
        h = hashlib.sha256()
        for N in range(1, 401):
            h.update((gamma0_symbol(N).to_json() + "\n").encode())
        assert h.hexdigest() == SYMBOLS_TO_400_DIGEST

    def test_traces_are_pinned(self):
        h = hashlib.sha256()
        for N in list(range(1, 61)) + [2310]:
            trace = []
            gamma0_symbol(N, on_event=trace.append)
            h.update((json.dumps(trace) + "\n").encode())
        assert h.hexdigest() == TRACES_DIGEST

    def test_trace_replays(self):
        for N in (1, 2, 13, 22, 37, 2310):
            trace = []
            sym = gamma0_symbol(N, on_event=trace.append)
            assert replay_trace(trace, level=N) == sym

    def test_keyless_trace_replays(self):
        for N in (2, 13, 24):
            fast = gamma0_oracle(N)
            slow = MembershipOracle(fast.predicate, index_bound=fast.index_bound)
            trace = []
            sym = build_unimodular(slow, on_event=trace.append)
            assert replay_trace(trace) == sym

    def test_corrupted_trace_raises(self):
        trace = []
        gamma0_symbol(13, on_event=trace.append)
        split = trace.index(("mediant", "0/1", "1/1"))
        for bad, match in (
                # the arc is already split
                (trace[:split + 1] + [trace[split]], "no boundary arc"),
                ([("pair", "1/0", "0/1", "5/7", "1/1")], "no boundary arc"),
                ([("even", "2/3", "1/1")], "no boundary arc"),
                # events that are not tuples of strings
                ([5], "not a tuple of strings"),
                ([None], "not a tuple of strings"),
                ([("mediant", ["1/0", "0/1"])], "not a tuple of strings"),
                (["mediant"], "not a tuple of strings"),
                # nothing may follow the full group's one event
                ([("full-group",), 5, None], "no further events"),
                ([("full-group",), ("full-group",)], "no further events"),
                # traces that are not lists of events
                (5, "list of events"),
                (None, "list of events"),
                # a huge int is named by its size
                ([(10**5000,)], "not a tuple of strings"),
                # an event of no known kind, on a boundary arc
                ([("bogus", "1/0", "0/1")], "unknown trace event")):
            with pytest.raises(FareyError, match=match):
                replay_trace(bad)

    def test_incomplete_trace_raises(self):
        trace = []
        gamma0_symbol(13, on_event=trace.append)
        for bad, match in ((trace[:-1], "no partner"), ([], "no partner"),
                           ([()], "no boundary arc")):
            with pytest.raises(FareyError, match=match):
                replay_trace(bad)

    def test_a_trace_that_splits_infinity_zero_is_refused(self):
        # the builder refuses to split the arc (infinity, 0); this replay
        # returned the polygon 1/0 -1/1 0/1 1/1, which validate refuses
        trace = [("mediant", "1/0", "0/1"),
                 ("pair", "1/1", "1/0", "1/0", "-1/1"),
                 ("pair", "0/1", "1/1", "-1/1", "0/1")]
        with pytest.raises(FareyError, match=r"^the trace splits the arc "
                           r"\(infinity, 0\); the builder cannot yet build a "
                           "symbol without that arc"):
            replay_trace(trace)

    def test_mutated_traces_replay_or_raise(self):
        # dropping or emptying an event leaves an arc unpaired or names a
        # missing arc; duplicating one either splits a gone arc or repeats
        # a pairing, so a replay that succeeds gives the original symbol
        from hypothesis import given, settings, strategies as st
        built = {}
        for N in (1, 2, 13, 37):
            trace = []
            built[N] = (gamma0_symbol(N, on_event=trace.append), trace)
        edits = st.tuples(st.sampled_from(["drop", "duplicate", "empty"]),
                          st.integers(0, 10**6))

        @settings(max_examples=300, deadline=None)
        @given(st.sampled_from(sorted(built)), st.lists(edits, min_size=1, max_size=3))
        def prop(N, edit_list):
            sym, trace = built[N]
            trace = list(trace)
            for edit, i in edit_list:
                if not trace:
                    break
                i %= len(trace)
                if edit == "drop":
                    del trace[i]
                elif edit == "duplicate":
                    trace.insert(i, trace[i])
                else:
                    trace[i] = ()
            try:
                out = replay_trace(trace, level=N)
            except FareyError:
                return
            assert out == sym
        prop()

    def test_always_returns_a_symbol(self):
        for N in (1, 2, 37):
            sym = gamma0_symbol(N)
            assert isinstance(sym, FareySymbol)
            traced = gamma0_symbol(N, on_event=[].append)
            assert isinstance(traced, FareySymbol) and traced == sym

    @pytest.mark.parametrize("N", sorted(BUILD_DIGESTS))
    def test_build_level_digests(self, N):
        text = gamma0_symbol(N).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGESTS[N]

    def test_infinite_index_capped(self):
        # the group generated by the identity alone has infinite index
        dead = MembershipOracle(lambda m: m.psl_normalize().is_identity_psl(),
                                index_bound=6)
        with pytest.raises(FareyError):
            build_unimodular(dead)
        # so has <T>, whose (infinity, 0) pairs with the start triangle's
        # (1, infinity): the builder reaches its insertion cap, 10 * 5
        translations = MembershipOracle(lambda m: m.c == 0, index_bound=5)
        with pytest.raises(FareyError, match="mediant insertion cap 50 exceeded"):
            build_unimodular(translations)

    def test_the_insertion_cap_is_reached_inclusively(self):
        # this group of index 33 takes exactly 10 mediant insertions, the
        # cap of index_bound=1
        S, U = uniform_pair(random.Random(328), 36)
        trace = []
        oracle = MembershipOracle(CosetTable(S, U, 0).contains, index_bound=1)
        build_unimodular(oracle, on_event=trace.append).validate(oracle)
        assert sum(event[0] == "mediant" for event in trace) == 10

    def test_the_keyless_pairing_tests_only_unpaired_arcs(self):
        # the work of the membership scans: Gamma^0(6) = {b = 0 mod 6}
        # asks its predicate 32 times, 52 when an arc is also tried against
        # itself and against arcs already paired
        calls = []
        build_unimodular(MembershipOracle(lambda m: calls.append(m) or m.b % 6 == 0))
        assert len(calls) == 32

    def test_a_keyless_oracle_without_index_bound_is_capped_at_1000(self):
        # <T> again, with no index_bound: the default cap was 10**6
        # insertions, and the generic pairing's scans made it weeks to reach
        with pytest.raises(FareyError, match="mediant insertion cap 1000 "
                           "exceeded; the oracle group looks like it has "
                           "infinite index"):
            build_unimodular(MembershipOracle(lambda m: m.c == 0))

    @pytest.mark.parametrize("oracle", [lambda m: True, None, 5])
    def test_an_oracle_that_is_no_membership_oracle_is_refused(self, oracle):
        # each raised a bare AttributeError
        with pytest.raises(FareyError, match="needs a MembershipOracle, got "):
            build_unimodular(oracle)

    @pytest.mark.parametrize("predicate", [5, None, "c == 0"])
    def test_a_predicate_that_is_not_callable_is_refused(self, predicate):
        # each raised a bare TypeError
        with pytest.raises(FareyError, match="predicate is callable, got "):
            MembershipOracle(predicate)

    def test_the_walk_checks_it_closes(self):
        # fault: the walk's next-arc table skips back from arc 2 to arc 1
        walk = _Walk()
        assert walk.arcs() == [0, 1, 2]
        walk.nxt[2] = 1
        with pytest.raises(FareyError, match="boundary walk is not closed"):
            walk.arcs()

    @pytest.mark.parametrize("S,U", [([1, 0], [0, 1]),
                                     ([1, 0, 3, 2], [0, 2, 3, 1])])
    def test_start_rotation_group_is_refused(self, S, U):
        # each group holds infinity -> 1 -> 0 -> infinity, which fixes the
        # start class: Gamma^2 of index 2, for which the builder returned a
        # 3-arc symbol of index 6, and a group of index 4 with cusp widths
        # 3 and 1 (U fixes class 0 and turns the other three)
        oracle = MembershipOracle(CosetTable(S, U, 0).contains)
        assert oracle(IMat(1, -1, 1, 0))
        with pytest.raises(FareyError, match="rotation infinity -> 1 -> 0"):
            build_unimodular(oracle)

    def test_a_split_arc_infinity_zero_is_refused(self):
        # Gamma(2) pairs (infinity, 0) with no arc of the start triangle;
        # the builder returned the polygon 1/0 -1/1 0/1 1/1, which has no
        # arc (infinity, 0) and which validate refuses
        oracle = MembershipOracle(lambda m: m.b % 2 == 0 and m.c % 2 == 0,
                                  index_bound=6)
        with pytest.raises(FareyError, match=r"arc \(infinity, 0\) pairs with "
                           "no arc of the start triangle"):
            build_unimodular(oracle)

    def test_walk_holds_only_its_boundary(self):
        # the left half of a split arc keeps its id and the right half gets
        # the next, so after k splits each list has 3 + k entries, all on
        # the walk, which closes up end to start; each split reports its
        # mediant event
        rng = random.Random(5)
        events = []
        walk = _Walk(events.append)
        for k in range(1, 41):
            victim = rng.randrange(1, len(walk.ent))
            ends = walk.ends(victim)
            assert walk.split(victim) == (victim, k + 2)
            assert events[-1] == ("mediant",) + ends
            assert walk.ends(victim)[0] == ends[0]
            assert walk.ends(k + 2)[1] == ends[1]
            assert (len(walk.ent), len(walk.nxt), len(walk.partner)) == (3 + k,) * 3
            arcs = walk.arcs()
            assert sorted(arcs) == list(range(3 + k))
            chain = [walk.ends(j) for j in arcs]
            assert all(e[1] == f[0] for e, f in zip(chain, chain[1:] + chain[:1]))
        assert len(events) == 40

    @pytest.mark.parametrize("N", [2310, 10007])
    def test_builder_peak_memory_per_unit_of_index(self, N):
        # the builder holds only the arcs of its walk, and frees its key
        # tables before it makes the symbol; it held 274-300 bytes per
        # unit of index when split arcs stayed in its lists
        gamma0_symbol(N)
        tracemalloc.start()
        try:
            gamma0_symbol(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 220 * classical.index_gamma0(N)

    def test_mediants_stay_in_circular_order(self):
        # every vertex list from the builder passes the circular-order check
        for N in (19, 28, 45):
            gamma0_symbol(N).validate()

    def test_infinity_zero_pair_is_adjacent(self):
        for N in range(2, 40):
            s = gamma0_symbol(N)
            i = s.infinity_zero_arc()
            assert s.pairing[i] == (i - 1) % s.n
            assert s.arc((i - 1) % s.n) == (Cusp(1, 1), INFINITY)


def coset_pair(rng, max_points=39, pair_all=False):
    """A transitive pair (S, U) of permutations with S^2 = U^3 = 1, the
    action of PSL2(Z) = Z/2 * Z/3 on the right cosets of a subgroup of
    index len(S), point 0 the subgroup itself.  The orbits of U, 3-cycles
    and then fixed points, are joined into one orbit by a random tree of
    S-swaps, fixed points dropped once no point is left to swap with, and
    a random share of the points left pairs up by S (all of them but one
    of an odd count with pair_all).  rng makes every choice."""
    mu = rng.randint(1, max_points)
    turns = rng.randint(0, mu // 3)
    points = rng.sample(range(mu), mu)
    blobs = ([points[k:k + 3] for k in range(0, 3 * turns, 3)]
             + [[p] for p in points[3 * turns:]])
    S, U = {}, {}
    kept, free = list(blobs[0]), list(blobs[0])
    for blob in blobs[1:]:
        if not free:
            break
        a = free.pop(rng.randrange(len(free)))
        b = rng.choice(blob)
        S[a], S[b] = b, a
        kept += blob
        free += [p for p in blob if p != b]
    rng.shuffle(free)
    pairs = len(free) // 2 if pair_all else rng.randint(0, len(free) // 2)
    for k in range(0, 2 * pairs, 2):
        a, b = free[k:k + 2]
        S[a], S[b] = b, a
    for blob in blobs:
        for a, b in zip(blob, blob[1:] + blob[:1]):
            U[a] = b
    k = rng.randrange(len(kept))  # the subgroup's coset, renumbered 0
    kept = kept[k:] + kept[:k]
    label = {p: i for i, p in enumerate(kept)}
    return [label[S.get(p, p)] for p in kept], [label[U[p]] for p in kept]


def uniform_pair(rng, max_points):
    """A transitive pair (S, U) with S^2 = U^3 = 1 on mu <= max_points
    points, point 0 the subgroup's coset: S a random involution with at
    most one fixed point and U a random product of mu // 3 disjoint
    3-cycles, drawn again until the pair is transitive.  Unlike
    coset_pair's tree of S-swaps, this leaves few fixed points and few
    cusps, so the genus grows with mu.  rng makes every choice."""
    while True:
        mu = rng.randint(1, max_points)
        S, U = list(range(mu)), list(range(mu))
        points = rng.sample(range(mu), mu)
        for k in range(0, mu - 1, 2):
            a, b = points[k:k + 2]
            S[a], S[b] = b, a
        points = rng.sample(range(mu), mu)
        for k in range(0, mu - 2, 3):
            a, b, c = points[k:k + 3]
            U[a], U[b], U[c] = b, c, a
        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for y in (S[x], U[x]):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        if len(seen) == mu:
            return S, U


@st.composite
def transitive_pairs(draw):
    """coset_pair's pairs.  Hypothesis draws only the seed of the generator
    that makes every choice: its own draws lean to small counts and
    near-identity orders, which give small orbits."""
    return coset_pair(random.Random(draw(st.integers(0, 2**32))))


def permutation_invariants(S, U):
    """(genus, nu_inf, nu2, nu3, index) and the sorted cusp widths of the
    group of a transitive pair, by the formulas: index mu = len(S); nu2
    and nu3 are the fixed points of S and of U; the cusps are the cycles
    of x -> S[U[x]], of their lengths as widths; and 12g = 12 + mu - 3nu2
    - 4nu3 - 6nu_inf."""
    mu = len(S)
    nu2 = sum(S[x] == x for x in range(mu))
    nu3 = sum(U[x] == x for x in range(mu))
    widths, seen = [], set()
    for x in range(mu):
        w = 0
        while x not in seen:
            seen.add(x)
            x = S[U[x]]
            w += 1
        if w:
            widths.append(w)
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * len(widths)
    assert twelve_g >= 0 and twelve_g % 12 == 0
    return (twelve_g // 12, len(widths), nu2, nu3, mu), sorted(widths)


@settings(max_examples=200, deadline=None)
@given(transitive_pairs())
def test_permutation_groups_build_or_are_refused(pair):
    """Any finite-index subgroup, given by the membership predicate of its
    coset table: the builder either refuses it with one of its two named
    limitations, or returns a symbol that validates and agrees with the
    permutation formulas."""
    S, U = pair
    want, widths = permutation_invariants(S, U)
    oracle = MembershipOracle(CosetTable(S, U, 0).contains, index_bound=len(S))
    trace = []
    try:
        sym = build_unimodular(oracle, on_event=trace.append)
    except FareyError as e:
        assert ("rotation infinity -> 1 -> 0" in str(e)
                or "pairs with no arc of the start triangle" in str(e))
        return
    sym.validate(oracle)
    assert counts(sym) == want
    assert sorted(o.width for o in cusp_orbits(sym)) == widths
    # the membership-scan path records a trace that rebuilds the symbol
    assert replay_trace(trace) == sym


# S, T, ST and TS: S with T or with ST generates PSL2(Z), so a group of
# index above 1 misses one of them
ST_PROBES = (REVERSE, IMat(1, 1, 0, 1), REVERSE * IMat(1, 1, 0, 1),
             IMat(1, 1, 0, 1) * REVERSE)


def normalized_permutation_group(S, U):
    """The group of a transitive pair, built and normalized: its coset
    table, its unimodular and normalized symbols and the symbols the
    normalization commits, or None when the builder refuses the group (the
    two refusals test_permutation_groups_build_or_are_refused names)."""
    table = CosetTable(S, U, 0)
    try:
        sym = build_unimodular(MembershipOracle(table.contains, index_bound=len(S)))
    except FareyError:
        return None
    ops = []
    return table, sym, normalize(sym, on_op=ops.append), ops


def check_every_layer(S, U, table, sym, nsym, ops, seed):
    """Every layer on a normalized permutation group, against the
    permutation formulas and the coset table's own membership test: each
    symbol the normalization commits and the block counts, counts on both
    representations, the word problem and membership on both, the Delta0
    relations on both and the JSON round trip of both symbols."""
    want, _ = permutation_invariants(S, U)
    g, nu_inf, nu2, nu3, mu = want
    for op in ops:
        op.validate(table.contains)
    assert nsym.block_counts() == (g, nu_inf - 1, nu2 + nu3)
    assert counts(sym) == counts(nsym) == want
    rng = random.Random(seed)
    for rep in (sym, nsym):
        for _ in range(5):
            x = IMat(1, 0, 0, 1)
            for _ in range(rng.randint(1, 6)):
                x = x * rep.gluing(rng.randrange(rep.n)) ** rng.choice((-1, 1))
            word = express_word(rep, x)
            assert word is not None and word_product(rep, word).psl_eq(x)
            assert contains(rep, x) and table.contains(x)
        probed = [table.contains(y) for y in ST_PROBES]
        assert [contains(rep, y) for y in ST_PROBES] == probed
        assert mu == 1 or not all(probed)
        assert delta0_presentation(rep).check()
        assert FareySymbol.from_json(rep.to_json()) == rep
    # read back from JSON, a normalized symbol that is not unimodular has
    # no level and no symbol it was cut from, so it has no word problem yet
    # (a known gap: ROADMAP item 15)
    back = FareySymbol.from_json(nsym.to_json())
    if not back.is_unimodular():
        with pytest.raises(FareyError, match="^the word problem on a "
                           "non-unimodular symbol needs its level or the "
                           "symbol it was cut from$"):
            express_word(back, IMat(1, 0, 0, 1))


@settings(max_examples=200, deadline=None)
@given(transitive_pairs(), st.integers(0, 2**32))
def test_permutation_groups_through_every_layer(pair, seed):
    """check_every_layer on the groups the builder makes from a coset
    table."""
    built = normalized_permutation_group(*pair)
    if built is not None:
        check_every_layer(*pair, *built, seed)


def test_permutation_groups_that_step_through_every_layer():
    """check_every_layer on each group of 3000 seeded coset tables, of
    index up to 60 and every free point paired by S, whose normalization
    commits a symbol: few groups that transitive_pairs draws need a Siegel
    cut, and these give hundreds of committed symbols to validate (454
    at this seed; 340 to 469 at seeds 1 to 8)."""
    rng = random.Random(6)
    committed = 0
    for _ in range(3000):
        S, U = coset_pair(rng, max_points=60, pair_all=True)
        built = normalized_permutation_group(S, U)
        if built is not None and built[3]:
            check_every_layer(S, U, *built, rng.getrandbits(32))
            committed += len(built[3])
    assert committed >= 400


def test_stabilizer_at_infinity_on_uniform_permutation_groups():
    """The word problem's stabilizer of infinity is the rotated cycle of
    its orbit on both symbols of each group that 1000 seeded uniform_pair
    draws of index up to 200 build.  The floor keeps a silent refusal from
    emptying the test: this seed builds 64 groups (59 and 73 at seeds 2
    and 1)."""
    rng = random.Random(45)
    built = 0
    for _ in range(1000):
        S, U = uniform_pair(rng, max_points=200)
        group = normalized_permutation_group(S, U)
        if group is not None:
            for sym in group[1:3]:
                stabilizer_at_infinity_holds(sym, (S, U))
            built += 1
    assert built >= 40


def test_uniform_permutation_groups_keep_the_headline_claims():
    """On each group of 1500 seeded uniform_pair draws, of index up to 200,
    that the builder builds: check_every_layer, and the paper's headline
    claims.  The quad gluings of the normal form are a symplectic basis of
    H1 (Gram matrix +-J under the intersection form of the unimodular
    symbol, whose rank is 2g), the stabilizer word of the cusp at vertex 0
    is the block relation, and the generating system holds exactly 2g
    hyperbolic elements, in g symplectic pairs.  The floors keep a silent
    refusal from emptying the test: this seed builds 93 groups of summed
    genus 284, genus up to 14 (91 to 118 groups of summed genus 228 to 385
    at seeds 1 to 8)."""
    rng = random.Random(1)
    built = summed_genus = 0
    for _ in range(1500):
        S, U = uniform_pair(rng, max_points=200)
        group = normalized_permutation_group(S, U)
        if group is None:
            continue
        check_every_layer(S, U, *group, rng.getrandbits(32))
        _, sym, nsym, _ = group
        g = permutation_invariants(S, U)[0][0]
        where = (S, U)
        form = IntersectionForm(sym)
        assert rank(form.omega) == 2 * g, where
        gram_is_J(form, nsym, g, where)
        assert nsym.factorize()[0][1][0] == 0, where
        block_relation_holds(nsym, where)
        gens = generators(nsym)
        assert sum(classify(m) == CLS_HYPERBOLIC
                   for m in gens.matrices()) == 2 * g, where
        assert len(gens.symplectic_pairs) == g, where
        built += 1
        summed_genus += g
    assert built >= 80 and summed_genus >= 240
