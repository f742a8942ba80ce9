import bisect
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fareysym import classical, invariants
from fareysym.exact import (IMat, IDENTITY, INFINITY, ZERO, Cusp, FareyError,
                            InvalidSymbolError, classify, CLS_HYPERBOLIC, CLS_PARABOLIC)
from fareysym.invariants import (CosetTable, CuspClass, _interval, _width_at,
                                 contains, coset_table,
                                 counts, cusp_orbits, express_word, generators,
                                 word_product)
from fareysym.kulkarni import MembershipOracle, build_unimodular, gamma0_symbol
from fareysym.siegel import base_cut, normalize
from fareysym.symbol import FareySymbol

from claims import (IntersectionForm, block_relation_holds, gram_is_J, rank,
                    stabilizer_at_infinity_holds)

S, T = IMat(0, 1, -1, 0), IMat(1, 1, 0, 1)
# a member of Gamma0(6) that a reduction judging progress by a window of
# steps used to reject on the normalized symbol
WITNESS_6 = IMat(775716883104425, 33344582147310051, 24629656566474,
                 1058718231520391)


def transporter_candidates(c1, c2, k_range=12):
    """Elements of SL2(Z) mapping the cusp c1 to c2: g2 T^k g1^-1."""
    def to_cusp(c):
        p, q = c.num, c.den
        a, b = p, q
        x0, y0, x1, y1 = 1, 0, 0, 1
        while b:
            qq, r = divmod(a, b)
            a, b = b, r
            x0, x1 = x1, x0 - qq * x1
            y0, y1 = y1, y0 - qq * y1
        if a < 0:
            x0, y0 = -x0, -y0
        return IMat(p, -y0, q, x0)
    g1, g2 = to_cusp(c1), to_cusp(c2)
    for k in range(-k_range, k_range + 1):
        yield g2 * IMat(1, k, 0, 1) * g1.inverse()


class TestCuspOrbits:
    def test_gamma0_2(self, symbol_for):
        orbits = cusp_orbits(symbol_for(2))
        data = sorted((str(o.representative), o.width) for o in orbits)
        assert data == [("0/1", 2), ("1/0", 1)]

    def test_gamma0_1(self, symbol_for):
        orbits = cusp_orbits(symbol_for(1))
        assert len(orbits) == 1 and orbits[0].width == 1

    def test_gamma0_15_has_four_cusps(self, symbol_for):
        assert len(cusp_orbits(symbol_for(15))) == 4

    def test_stabilizer_words(self, symbol_for):
        for N in (1, 2, 11, 13, 15, 22, 37):
            s = symbol_for(N)
            for o in cusp_orbits(s):
                delta = word_product(s, o.stabilizer_word)
                assert abs(delta.trace()) == 2
                assert classify(delta.psl_normalize()) == CLS_PARABOLIC
                assert delta.apply(o.representative) == o.representative
                assert o.width > 0

    def test_width_sum_is_index(self, symbol_for, normalized_for):
        for N in range(1, 60):
            widths = sorted(o.width for o in cusp_orbits(symbol_for(N)))
            assert widths == classical.cusp_widths_gamma0(N), N
            assert sum(o.width for o in cusp_orbits(normalized_for(N))) \
                == classical.index_gamma0(N)

    def test_successor_is_partner_arc_end(self, symbol_for, normalized_for):
        """The reference successor of vertex i is the Moebius image
        gluing(i)^-1(v_i), looked up among the vertices; cusp_orbits walks
        (pairing[i] + 1) mod n instead, so each orbit is a cycle of it."""
        for N in range(1, 41):
            for base in (symbol_for(N), normalized_for(N)):
                for k in range(base.n):
                    s = base.rotated(k)
                    where = {v: i for i, v in enumerate(s.vertices)}
                    succ = [where[s.gluing(i).inverse().apply(v)]
                            for i, v in enumerate(s.vertices)]
                    assert succ == [(j + 1) % s.n for j in s.pairing], (N, k)
                    for o in cusp_orbits(s):
                        cyc = o.vertex_indices
                        assert [succ[i] for i in cyc] == list(cyc[1:] + cyc[:1])


class TestCounts:
    @pytest.mark.parametrize("N,expected", [
        (15, (1, 4, 0, 0, 24)),
        (37, (2, 2, 2, 2, 38)),
        (11, (1, 2, 0, 0, 12)),
        (1, (0, 1, 1, 1, 1)),
    ])
    def test_fixtures(self, symbol_for, N, expected):
        assert counts(symbol_for(N)) == expected

    def test_oracle_sweep(self, symbol_for):
        for N in range(1, 120):
            assert counts(symbol_for(N)) == classical.counts_gamma0(N), N

    def test_representation_independence(self, symbol_for, normalized_for):
        for N in range(1, 60):
            assert counts(symbol_for(N)) == counts(normalized_for(N)), N

    def test_genus_equals_quad_blocks(self, normalized_for):
        for N in (11, 14, 15, 22, 37, 57):
            ns = normalized_for(N)
            assert counts(ns)[0] == ns.block_counts()[0]


class TestGenerators:
    def test_gamma0_14_symplectic_pair(self, normalized_for):
        ns = normalized_for(14)
        assert ns.class_counts()["hyperbolic"] == 2
        assert len(generators(ns).symplectic_pairs) == 1

    def test_gamma0_15_classes(self, normalized_for):
        cc = normalized_for(15).class_counts()
        assert cc["hyperbolic"] == 2 and cc["parabolic"] == 3
        assert cc["elliptic2"] == cc["elliptic3"] == 0

    def test_gamma0_1(self, symbol_for):
        cc = symbol_for(1).class_counts()
        assert cc == {"hyperbolic": 0, "parabolic": 0,
                      "elliptic2": 1, "elliptic3": 1}

    def test_count_formula(self, normalized_for):
        for N in range(1, 60):
            ns = normalized_for(N)
            g, nu_inf, nu2, nu3, _ = counts(ns)
            assert len(generators(ns)) == 2 * g + (nu_inf - 1) + nu2 + nu3, N
            assert len(generators(ns).symplectic_pairs) == g

    def test_stabilizer_word_is_the_block_relation(self, normalized_for):
        """block_relation_holds on the normal form, and on each rotation
        for N <= 40."""
        for N in range(1, 301):
            ns = normalized_for(N)
            assert ns.factorize()[0][1][0] == 0, N
            block_relation_holds(ns, N)
            if N <= 40:
                for k in range(ns.n):
                    block_relation_holds(ns.rotated(k), (N, k))

    def test_minimal_hyperbolic_count(self, normalized_for):
        # Gamma maps onto H1(X; Z) = Z^2g and kills its parabolic and
        # elliptic elements, so a generating system holds at least 2g
        # hyperbolic elements; the normalized symbol's has exactly 2g
        for N in range(1, 301):
            ns = normalized_for(N)
            for i in range(ns.n):
                assert classify(ns.gluing(i)) == ns.arc_class(i), (N, i)
            g = classical.genus_gamma0(N)
            gens = generators(ns)
            assert sum(classify(m) == CLS_HYPERBOLIC
                       for m in gens.matrices()) == 2 * g, N
            assert len(gens.symplectic_pairs) == g, N
            for pair in gens.symplectic_pairs:
                assert [classify(m) for m in pair] == [CLS_HYPERBOLIC] * 2, N

    def test_symplectic_basis(self, symbol_for, normalized_for):
        """The quads of the normal form are a symplectic basis of H1: on
        the unimodular symbol, with omega the signed interleaving form on
        its non-elliptic pairs (the intersection form of their dual
        curves), omega has rank 2g and the exponent-sum vectors of the
        quad gluings (a1, b1, ..., ag, bg) have Gram matrix +-J, one sign
        per symbol; the pair (cusp) gluings lie in the radical of omega.
        H1 with omega is unimodular of rank 2g, with g from the classical
        formula, so 2g vectors with Gram +-J span it: the rank is computed
        only where it is cheap.  Every rotation of the normal form for
        N <= 40 gives a symplectic basis too."""
        for N in range(1, 301):
            uni, ns = symbol_for(N), normalized_for(N)
            form = IntersectionForm(uni)
            g = classical.genus_gamma0(N)
            if N <= 120 or N == 200:
                assert rank(form.omega) == 2 * g, N
            gram_is_J(form, ns, g, N)
            if N <= 40:
                for k in range(ns.n):
                    gram_is_J(form, ns.rotated(k), g, (N, k))
            if N <= 80:
                for kind, idx in ns.factorize():
                    if kind == "pair":
                        v = form.vector(ns.gluing(idx[0]))
                        assert not any(form.times(v)), N

    def test_no_pairs_on_unnormalized(self, symbol_for):
        assert generators(symbol_for(15)).symplectic_pairs == []


class TestExpressWord:
    def test_identity(self, symbol_for):
        assert express_word(symbol_for(15), IDENTITY) == []
        assert express_word(symbol_for(15), -IDENTITY) == []

    def test_generators_are_one_letter(self, symbol_for):
        s = symbol_for(15)
        for i in range(s.n):
            w = express_word(s, s.gluing(i))
            assert w is not None
            assert word_product(s, w).psl_eq(s.gluing(i))

    def test_round_trip_random_words(self, symbol_for):
        rng = random.Random(11)
        for N in (2, 11, 13, 15, 22, 37):
            s = symbol_for(N)
            for _ in range(60):
                w = [(rng.randrange(s.n), rng.choice((1, -1)))
                     for _ in range(rng.randrange(1, 31))]
                g = word_product(s, w)
                out = express_word(s, g)
                assert out is not None
                assert word_product(s, out).psl_eq(g.psl_normalize())

    def test_known_nonmember(self, symbol_for):
        assert express_word(symbol_for(15), IMat(1, 1, 1, 2)) is None

    def test_det_checked(self, symbol_for):
        with pytest.raises(FareyError):
            express_word(symbol_for(15), IMat(1, 0, 0, 2))

    def test_verdict_matches_congruence_test(self, symbol_for):
        rng = random.Random(13)
        T, S = IMat(1, 1, 0, 1), IMat(0, 1, -1, 0)
        for N in range(1, 51):
            s = symbol_for(N)
            for _ in range(40):
                g = IDENTITY
                for _ in range(rng.randrange(0, 30)):
                    g = g * rng.choice((T, T.inverse(), S))
                assert contains(s, g) == (g.c % N == 0), (N, g)

    def test_parabolic_powers(self, symbol_for):
        # powers of the infinity stabilizer reduce through the cusp branch
        for N in (5, 12):
            s = symbol_for(N)
            for e in (-3, -1, 1, 2, 7):
                g = IMat(1, e * N, 0, 1)
                w = express_word(s, g)
                assert w is not None and word_product(s, w).psl_eq(g)

    def test_huge_translation_is_one_letter(self, symbol_for, normalized_for):
        # for N > 1 the stabilizer of infinity is one gluing, so T^e is one
        # letter whatever e; at N = 1 it is two, and |e| copies hit the cap
        g = IMat(1, 10**12, 0, 1)
        for s in (symbol_for(6), normalized_for(6)):
            for h in (g, g.inverse()):
                w = express_word(s, h)
                assert len(w) == 1 and word_product(s, w).psl_eq(h)
        with pytest.raises(FareyError, match="step cap"):
            express_word(symbol_for(1), g)

    @pytest.mark.parametrize("word", [
        [(99, 1)], [(6, 1)], [(-1, 1)], [(0, 1.5)], [(0, True)], [(True, 1)],
        [(1.0, 1)], [("0", 1)], [(0, 1), (0, None)], [(0,)], [5],
        [(10**5000, 1)]])
    def test_word_product_refuses_malformed_letters(self, symbol_for, word):
        # gamma0_symbol(11) has 6 arcs; a bad letter is named, not indexed
        with pytest.raises(FareyError, match="word letter"):
            word_product(symbol_for(11), word)

    def test_word_product_refuses_a_word_that_is_no_iterable(self, symbol_for):
        # it raised a bare TypeError
        with pytest.raises(FareyError, match="^a word is an iterable of "
                                             "letters, got None$"):
            word_product(symbol_for(11), None)


def member_matrix(rng, sym, bits):
    """Random word in the gluings of sym until an entry reaches `bits`."""
    gens = sym.gluings()
    g = IDENTITY
    while max(abs(x) for x in g.entries()).bit_length() < bits:
        h = rng.choice(gens)
        g = g * (h if rng.random() < 0.5 else h.inverse())
    return g


def st_matrix(rng, bits):
    """Random S/T word, T exponents in +-1..3, until an entry reaches `bits`."""
    g = IDENTITY
    while max(abs(x) for x in g.entries()).bit_length() < bits:
        g = g * (S if rng.random() < 0.5 else T ** rng.choice((-3, -2, -1, 1, 2, 3)))
    return g


def word_record(sym, g, reduce=express_word):
    """The answer of express_word, or of another reduction, as text: the
    word, None, or the error message."""
    try:
        return repr(reduce(sym, g))
    except FareyError as e:
        return "FareyError: %s" % e


class TestWordProblemIsPinned:
    """Every answer of express_word, None and errors included, on fixed
    seeded inputs: a change to how the reduction finds its steps must leave
    each word unchanged."""

    @staticmethod
    def digest(levels, bits, count, rotate):
        h = hashlib.sha256()
        records = 0
        for N in levels:
            uni = gamma0_symbol(N)
            rng = random.Random(N)
            mats = [member_matrix(rng, uni, bits) for _ in range(count)]
            mats += [st_matrix(rng, bits) for _ in range(count)]
            if N <= 40 and not rotate:
                # the witness, a member, and a member with a partial
                # quotient near 2^40, whose reduction runs into the step cap
                mats.append(WITNESS_6)
                u = member_matrix(rng, uni, 8)
                mats.append(u * IMat(1, 0, N, 1) ** (2 ** 40 + 3) * u.inverse())
            for sym in (uni, normalize(uni)):
                # rotations put infinity at every offset of the vertex list
                for k in (range(sym.n) if rotate else (0,)):
                    s = sym.rotated(k)
                    for g in mats:
                        h.update((word_record(s, g) + "\n").encode())
                        records += 1
        return records, h.hexdigest()

    def test_every_rotation(self):
        # 12 of the 16 records of level 1 changed once, when the two-arc
        # words were reduced; levels 2 to 40 alone read (3888, "3231f543…")
        assert self.digest(range(1, 41), 24, 2, True) == (
            3904, "ef8ead1b2d17d09c8971142d3e6f278523de0b0f5792ff64e4154085c4a96f81")

    def test_large_levels_and_known_defects(self):
        assert self.digest((6, 36, 180, 210), 64, 4, False) == (
            72, "76a881eed9ea743fc16603605c1dba9019f0a108ff322859ab478082c5816b37")


def test_words_on_rotated_symbols(symbol_for, normalized_for):
    """A returned word multiplies back to +-g on every rotation, and None
    comes only for c != 0 mod N, on both representations."""
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((1, 2, 6, 13, 15, 36, 37)), st.booleans(),
           st.integers(0, 10 ** 6), st.booleans(), st.integers(0, 2 ** 32))
    def prop(N, normalized, k, member, seed):
        uni = symbol_for(N)
        sym = (normalized_for(N) if normalized else uni).rotated(k)
        rng = random.Random(seed)
        g = member_matrix(rng, uni, 40) if member else st_matrix(rng, 40)
        word = express_word(sym, g)
        if word is not None:
            assert word_product(sym, word).psl_eq(g)
        else:
            assert g.c % N != 0
    prop()


def huge_parabolic(rng, uni, N):
    """u [[1, 0], [N, 1]]^(2^40 + 3) u^-1: a member of Gamma0(N) whose a/c
    has one partial quotient near 2^40."""
    u = member_matrix(rng, uni, 8)
    return u * IMat(1, 0, N, 1) ** (2 ** 40 + 3) * u.inverse()


class TestCosetWalk:
    def test_table_size_is_the_index(self, symbol_for):
        for N in range(1, 401):
            t = coset_table(symbol_for(N))
            assert len(t) == classical.index_gamma0(N), N
            for x in range(len(t)):
                assert t.S[t.S[x]] == x and t.U[t.U[t.U[x]]] == x, (N, x)

    def test_witness_on_both_representations(self, symbol_for, normalized_for):
        for sym in (symbol_for(6), normalized_for(6)):
            assert contains(sym, WITNESS_6)
            word = express_word(sym, WITNESS_6)
            assert word_product(sym, word).psl_eq(WITNESS_6)

    def test_huge_partial_quotient_is_a_member(self, symbol_for, normalized_for):
        rng = random.Random(40)
        for N in (6, 36, 210):
            g = huge_parabolic(rng, symbol_for(N), N)
            for sym in (symbol_for(N), normalized_for(N)):
                assert contains(sym, g), N
                assert not contains(sym, g * IMat(1, 1, 0, 1) ** 3 * S), N

    def test_walk_agrees_with_congruence(self, symbol_for, normalized_for):
        """contains(sym, g) == (c = 0 mod N) on both representations and
        random rotations, for entries of 50 bits and more; a word, when
        express_word gives one, multiplies back to +-g, and None comes only
        for a non-member."""
        @settings(max_examples=120, deadline=None)
        @given(st.sampled_from((2, 6, 13, 36, 37, 60, 210)), st.booleans(),
               st.integers(0, 10 ** 6), st.booleans(), st.integers(50, 90),
               st.integers(0, 2 ** 32))
        def prop(N, normalized, k, member, bits, seed):
            uni = symbol_for(N)
            sym = (normalized_for(N) if normalized else uni).rotated(k)
            rng = random.Random(seed)
            g = member_matrix(rng, uni, bits) if member else st_matrix(rng, bits)
            assert contains(sym, g) == (g.c % N == 0)
            try:
                word = express_word(sym, g)
            except FareyError as e:
                assert g.c % N == 0 and "step cap" in str(e)
                return
            if word is None:
                assert g.c % N != 0
            else:
                assert word_product(sym, word).psl_eq(g)
        prop()


def test_stabilizer_at_infinity_is_the_rotated_cycle(symbol_for,
                                                     normalized_for):
    for N in range(1, 101):
        for sym in (symbol_for(N), normalized_for(N)):
            stabilizer_at_infinity_holds(sym, N)


def bisect_interval(nums, dens, p, q):
    """The reference's bisection: the lo with nums[t]/dens[t] below p/q
    (q > 0) for t < lo and above it from lo on, or None when a probe lands
    on p/q."""
    lo, hi = 0, len(nums)
    while lo < hi:
        mid = (lo + hi) // 2
        d = p * dens[mid] - nums[mid] * q
        if d == 0:
            return None
        if d < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_express_word(sym, g):
    """The member reduction on IMat with plain bisection from the middle,
    locating g(m) at a large m moved off the vertices, as it was before it
    moved to four integers, the galloping search and g(infinity) = a/c;
    express_word must give the same word, None or step-cap error on
    Gamma0(N), N > 1."""
    if g.det() != 1:
        raise FareyError("express_word needs an integral det-1 matrix")
    k, finite = sym.vertex_order()
    nums, dens = [v.num for v in finite], [v.den for v in finite]
    inverses = [h.inverse() for h in sym.gluings()]
    vert_height = max(max(abs(v.num), v.den) for v in sym.vertices)
    orbit = next(o for o in cusp_orbits(sym) if k in o.vertex_indices)
    cycle = orbit.vertex_indices
    pos = cycle.index(k)
    cycle = cycle[pos:] + cycle[:pos]
    width, stab = orbit.width, [(i, -1) for i in reversed(cycle)]
    if not coset_table(sym).contains(g):
        return None
    n = sym.n

    word = []
    g = g.psl_normalize()
    steps = 0
    cap = (g.size().bit_length() + 8) * (n + 8) * 4
    while True:
        steps += 1
        if steps > cap:
            raise FareyError("word reduction exceeded its step cap")
        if g.is_identity_psl():
            return word
        if g.c == 0:
            shift = g.b * g.a
            if shift % width:
                raise FareyError("the reduction left a translation that the "
                                 "coset walk accepted but the cusp refuses")
            e = shift // width
            if len(stab) == 1:
                return word + [(stab[0][0], -e)]
            if abs(e) * len(stab) > cap:
                raise FareyError("word reduction exceeded its step cap")
            if e < 0:
                stab = [(i, -x) for i, x in reversed(stab)]
            return word + stab * abs(e)
        m = 1 + max(max(abs(x) for x in g.entries()), vert_height)
        lo = None
        while lo is None:
            p, q = g.a * m + g.b, g.c * m + g.d
            if q < 0:
                p, q = -p, -q
            lo = bisect_interval(nums, dens, p, q)
            if lo is None:
                m *= 2
        side = (k + lo) % n
        word.append((side, 1))
        g = (inverses[side] * g).psl_normalize()


class TestIntervalSearch:
    """_interval against bisect_left over Fractions, from every start, with
    x on a vertex and off them."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=14,
                    unique=True),
           st.one_of(st.integers(0, 13), st.fractions(max_denominator=60)))
    def test_matches_bisection_from_every_start(self, values, x):
        values.sort()
        if isinstance(x, int):  # x on a vertex
            x = values[x % len(values)]
        nums = [v.numerator for v in values]
        dens = [v.denominator for v in values]
        p, q = x.numerator, x.denominator
        want = bisect.bisect_left(values, x)
        for start in [None, *range(len(values) + 1)]:  # None: bisection
            # p/q need not be in lowest terms
            assert _interval(nums, dens, p, q, start) == want, start
            assert _interval(nums, dens, 3 * p, 3 * q, start) == want, start

    def test_far_starts(self):
        values = [Fraction(t, 7) for t in range(-40, 41, 3)]
        nums = [v.numerator for v in values]
        dens = [v.denominator for v in values]
        for t in range(-45, 46):
            for x in (Fraction(t, 7), Fraction(t, 7) + Fraction(1, 100)):
                want = bisect.bisect_left(values, x)
                for start in [None, *range(len(values) + 1)]:
                    assert _interval(nums, dens, x.numerator, x.denominator,
                                     start) == want, (x, start)

    def test_probes_are_pinned(self):
        # the answers are bisection's from any start, so only the count of
        # probes tells how the gallop brackets x and where it starts
        class Probes(list):
            count = 0

            def __getitem__(self, t):
                Probes.count += 1
                return list.__getitem__(self, t)
        nums, dens = Probes(range(0, 128, 2)), [1] * 64
        for start in range(65):
            for x in range(-1, 130):
                assert _interval(nums, dens, x, 1, start) == bisect.bisect_left(
                    range(0, 128, 2), x)
        assert Probes.count == 78593


def test_gallops_start_at_the_stripped_arc_s_partner(normalized_for,
                                                      monkeypatch):
    """On a non-unimodular symbol the first search starts in the middle,
    at (n - 1) // 2, and each later one at the partner of the arc the step
    before stripped, counted from the arc (infinity, 0)."""
    starts = []
    interval = invariants._interval
    monkeypatch.setattr(invariants, "_interval", lambda nums, dens, p, q, start:
                        starts.append(start) or interval(nums, dens, p, q, start))
    rng = random.Random(61)
    for N in (23, 36):
        for r in (0, 1, 5):
            sym = normalized_for(N).rotated(r)
            assert not sym.is_unimodular()
            k, n = sym.infinity_zero_arc(), sym.n
            for _ in range(5):
                starts.clear()
                word = express_word(sym, member_matrix(rng, sym, 64))
                assert len(starts) > 1
                assert starts == [(n - 1) // 2] + [
                    (sym.pairing[i] - k) % n for i, _ in word[:len(starts) - 1]]


def test_the_step_cap_is_pinned(symbol_for, monkeypatch):
    """A member whose reduction circles a cusp other than infinity makes
    ((|a| + |b| + |c| + |d|).bit_length() + 8) * (n + 8) * 4 steps, one
    search each, and is refused at the next; a power of the stabilizer of
    infinity is answered up to that many letters."""
    sym = symbol_for(6)
    u = IMat(2, 1, 1, 1)
    g = u * IMat(1, 0, 6, 1) ** (2 ** 40 + 3) * u.inverse()
    calls = []
    interval = invariants._interval
    monkeypatch.setattr(invariants, "_interval", lambda *args:
                        calls.append(1) or interval(*args))
    with pytest.raises(FareyError, match="step cap"):
        express_word(sym, g)
    assert len(calls) == (sum(map(abs, g)).bit_length() + 8) * (sym.n + 8) * 4
    # Gamma0(1): two letters per T, and the cap of T^340 is (9 + 8) * 10 * 4
    one = symbol_for(1)
    assert len(express_word(one, T ** 340)) == 680
    with pytest.raises(FareyError, match="step cap"):
        express_word(one, T ** 341)


def test_unimodular_symbols_bisect(symbol_for, normalized_for, monkeypatch):
    """The word problem bisects on a unimodular symbol, where a gallop from
    the stripped arc's partner takes more probes, and gallops on any other;
    the words are the reference's either way."""
    starts = []
    interval = invariants._interval
    monkeypatch.setattr(invariants, "_interval", lambda nums, dens, p, q, start:
                        starts.append(start) or interval(nums, dens, p, q, start))
    rng = random.Random(36)
    seen = set()
    for N in (6, 36, 180):
        for sym in (symbol_for(N), normalized_for(N)):
            for _ in range(5):
                g = member_matrix(rng, symbol_for(N), 64)
                starts.clear()
                assert express_word(sym, g) == reference_express_word(sym, g)
                assert starts
                uni = sym.is_unimodular()
                assert all((start is None) == uni for start in starts), N
                seen.add(uni)
    assert seen == {True, False}


def test_reduction_matches_the_reference(symbol_for, normalized_for):
    """express_word and reference_express_word agree on members, S/T words
    and members with a huge partial quotient (the step cap), on both
    representations and random rotations."""
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 6, 13, 36, 60, 180)), st.booleans(),
           st.integers(0, 10 ** 6), st.sampled_from(("member", "st", "huge")),
           st.integers(16, 80), st.integers(0, 2 ** 32))
    def prop(N, normalized, k, kind, bits, seed):
        uni = symbol_for(N)
        sym = (normalized_for(N) if normalized else uni).rotated(k)
        rng = random.Random(seed)
        if kind == "member":
            g = member_matrix(rng, uni, bits)
        elif kind == "st":
            g = st_matrix(rng, bits)
        else:
            g = huge_parabolic(rng, uni, N)
        want = word_record(sym, g, reference_express_word)
        assert word_record(sym, g) == want
        if kind == "huge":  # the reduction circles a cusp other than infinity
            assert "step cap" in want
    prop()


def free_reduction(sym, word):
    """word in the free product of the gluings: each letter on the generator
    min(i, partner(i)), the exponents of fixed arcs mod their order, and
    adjacent letters on one generator merged."""
    out = []
    for i, e in word:
        gen = min(i, sym.pairing[i])
        if gen != i:
            e = -e
        order = sym.ell.get(i)
        if out and out[-1][0] == gen:
            e += out.pop()[1]
        if order:
            e %= order
        if e:
            out.append((gen, e))
    return out


def is_reduced(sym, word):
    """No two adjacent letters on one free generator cancel, and no run of
    letters on one fixed arc reaches its order or has exponents summing to
    0 mod its order."""
    run = total = 0
    for t, (i, e) in enumerate(word):
        j, f = word[t - 1] if t else (None, 0)
        order = sym.ell.get(i)
        run, total = (run + abs(e), total + e) if j == i else (abs(e), e)
        if order and (run >= order or total % order == 0):
            return False
        if not order and j in (i, sym.pairing[i]) and (f if j == i else -f) + e == 0:
            return False
    return True


def test_words_are_free_product_normal_forms(symbol_for, normalized_for):
    """express_word(word_product(w)) is reduced and reduces to w's free
    reduction: the gluings are free generators, so the reduced word of a
    member is unique.  Level 1 and None (Gamma^2) draw the two-arc
    symbols, whose words once held a run of a fixed arc as long as its
    order."""
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((1, 2, 3, 13, 36, 60, 210, None)), st.booleans(),
           st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from((1, -1, 2, -3))),
                    min_size=1, max_size=14))
    def prop(N, normalized, letters):
        sym = (gamma_squared() if N is None
               else normalized_for(N) if normalized else symbol_for(N))
        w = [(i % sym.n, e) for i, e in letters]
        out = express_word(sym, word_product(sym, w))
        assert is_reduced(sym, out)
        assert free_reduction(sym, out) == free_reduction(sym, w)
    prop()


def test_two_arc_words_are_reduced(symbol_for):
    # Gamma0(1) gave [(1, 1), (0, 1), (0, 1), (1, 1)], arc 0 of order 2, and
    # Gamma^2 (0, 1) three times in a row, arc 0 of order 3
    g = IMat(1, -1, 1, 0)
    for sym in (symbol_for(1), gamma_squared()):
        assert express_word(sym, g) == [(1, 1), (1, 1)]
        assert word_product(sym, [(1, 1), (1, 1)]).psl_eq(g)


def gamma_upper(N):
    """The unimodular symbol of Gamma^0(N) = {b = 0 mod N}, from the keyless
    builder: a group other than Gamma0(N), with no level."""
    return build_unimodular(MembershipOracle(lambda m: m.b % N == 0))


class TestWordProblemOnGammaUpper:
    """On Gamma^0(N) many members have |c| = 1 or g(infinity) on a vertex at
    some step of the reduction, which no member of Gamma0(N), N > 1, has."""

    @pytest.mark.parametrize("N", [2, 3, 5, 6, 7])
    def test_members_multiply_back(self, N):
        sym = gamma_upper(N)
        assert sym.level is None
        vertices = set(sym.vertices)
        rng = random.Random(N)
        edge_steps = 0
        for _ in range(60):
            g = member_matrix(rng, sym, 30)
            word = express_word(sym, g)
            assert word is not None and word_product(sym, word).psl_eq(g)
            h = g
            for i, e in word:
                if h.c and (abs(h.c) == 1 or h.apply(INFINITY) in vertices):
                    edge_steps += 1
                h = sym.gluing(i).inverse() ** e * h
        assert edge_steps > 0

    @pytest.mark.parametrize("N", [2, 3, 5, 6, 7])
    def test_verdict_matches_the_congruence(self, N):
        sym = gamma_upper(N)
        assert express_word(sym, T) is None
        assert express_word(sym, S) is None
        rng = random.Random(100 + N)
        for _ in range(60):
            g = st_matrix(rng, 30)
            word = express_word(sym, g)
            if word is None:
                assert g.b % N != 0
            else:
                assert word_product(sym, word).psl_eq(g)


def reference_width_at(delta, cusp):
    """_width_at by conjugation, as it was before the closed form: move the
    cusp to infinity and read the translation."""
    p, q = cusp.num, cusp.den
    x = pow(p, -1, q) if q else p
    y = (1 - x * p) // q if q else 0
    conj = IMat(p, -y, q, x)
    t = conj.inverse() * delta * conj
    if t.c != 0 or abs(t.a) != 1 or t.a != t.d:
        raise FareyError("stabilizer product is not parabolic at its cusp")
    w = t.b * t.a
    if w <= 0:
        raise FareyError("cusp width came out nonpositive")
    return w


def width_record(delta, cusp, width_at=_width_at):
    try:
        return width_at(delta, cusp)
    except FareyError as e:
        return "FareyError: %s" % e


class TestWidthAt:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 24), st.integers(-6, 6),
           st.sampled_from(("own cusp", "mirrored cusp", "other cusp",
                            "any matrix")),
           st.booleans())
    def test_matches_the_conjugation(self, seed, bits, w, kind, negate):
        rng = random.Random(seed)
        h = st_matrix(rng, bits)
        delta = h * T ** w * h.inverse()
        cusp = h.apply(INFINITY)
        if kind == "mirrored cusp":  # b and c fit width w there too
            cusp = Cusp(-cusp.num, cusp.den)
        elif kind == "other cusp":
            cusp = st_matrix(rng, bits).apply(INFINITY)
        elif kind == "any matrix":
            delta = st_matrix(rng, bits)
        if negate:
            delta = -delta
        want = width_record(delta, cusp, reference_width_at)
        assert width_record(delta, cusp) == want
        if kind == "own cusp":
            assert want == (w if w > 0 else
                            "FareyError: cusp width came out nonpositive")

    def test_rejects(self):
        h = IMat(2, 1, 5, 3)  # h(infinity) = 2/5
        cusp = Cusp(2, 5)
        assert _width_at(h * T ** 3 * h.inverse(), cusp) == 3
        assert _width_at(-(h * T ** 3 * h.inverse()), cusp) == 3
        assert _width_at(T ** 4, INFINITY) == 4
        assert _width_at(S * T ** 2 * S.inverse(), Cusp(0, 1)) == 2
        for delta, at, match in (
                (IMat(2, 1, 1, 1), cusp, "not parabolic"),  # hyperbolic
                (h * T ** 3 * h.inverse(), Cusp(1, 3), "not parabolic"),
                (h * T ** 3 * h.inverse(), Cusp(-2, 5), "not parabolic"),
                (T ** 3, Cusp(0, 1), "not parabolic"),
                (IDENTITY, cusp, "nonpositive"),
                (-IDENTITY, INFINITY, "nonpositive"),
                (h * T ** -2 * h.inverse(), cusp, "nonpositive")):
            with pytest.raises(FareyError, match=match):
                _width_at(delta, at)


class TestCompanion:
    """A non-unimodular symbol walks on a unimodular symbol of its group."""

    def test_normalized_walks_on_its_input(self, symbol_for, normalized_for):
        for N in (6, 36):
            assert coset_table(normalized_for(N)) is coset_table(symbol_for(N))
            assert coset_table(normalized_for(N).rotated(3)) \
                is coset_table(symbol_for(N))

    def test_base_cut_walks_on_its_input(self, symbol_for):
        s = symbol_for(15)
        out = base_cut(s, 1, 0, 3, "other")[0]
        assert not out.is_unimodular()
        assert coset_table(out) is coset_table(s)

    def test_level_gives_the_companion(self, normalized_for):
        sym = FareySymbol.from_dict(normalized_for(36).to_dict())
        assert not sym.is_unimodular()
        rng = random.Random(36)
        for _ in range(50):
            g = st_matrix(rng, 50)
            assert contains(sym, g) == (g.c % 36 == 0)
        assert coset_table(sym.rotated(5)) is coset_table(sym)

    def test_wrong_level_raises(self, normalized_for):
        d = normalized_for(13).to_dict()
        d["level"] = 26
        sym = FareySymbol.from_dict(d)
        with pytest.raises(FareyError, match="not Gamma0"):
            contains(sym, IDENTITY)
        with pytest.raises(FareyError, match="not Gamma0"):
            express_word(sym, IDENTITY)

    @pytest.mark.parametrize("level", [3, 7, 12, 10**40 + 3])
    def test_level_contradicting_the_group_raises(self, symbol_for,
                                                 normalized_for, level):
        """Validation refuses it: 3 divides every c of Gamma0(6) but the
        index is 4, not 12; the others fail c = 0 (mod level) before the
        level is factored."""
        for sym in (symbol_for(6), normalized_for(6)):
            d = sym.to_dict()
            d["level"] = level
            with pytest.raises(InvalidSymbolError, match="not Gamma0"):
                FareySymbol.from_dict(d).validate()
            for call in (contains, express_word):
                with pytest.raises(InvalidSymbolError, match="not Gamma0"):
                    call(FareySymbol.from_dict(d), IDENTITY)

    def test_no_level_and_no_companion_raises(self, normalized_for):
        d = normalized_for(15).to_dict()
        del d["level"]
        sym = FareySymbol.from_dict(d)
        assert not sym.is_unimodular()
        with pytest.raises(FareyError, match="needs its level"):
            express_word(sym, IDENTITY)


def gamma_squared():
    """A fresh symbol of Gamma^2, the subgroup of index 2 in PSL2(Z) that
    its elements of order 3 generate: two arcs, both of order 3."""
    return FareySymbol([INFINITY, ZERO], [0, 1], {0: 3, 1: 3})


class TestGammaSquared:
    """The one two-arc symbol besides PSL2(Z)'s that validate admits; its
    coset table has two classes, swapped by S and each fixed by U."""

    def test_counts_and_table(self):
        sym = gamma_squared()
        assert counts(sym) == (0, 1, 0, 2, 2)
        table = coset_table(sym)
        assert (table.S, table.U, table.start) == ([1, 0], [0, 1], 0)

    def test_membership_is_an_even_number_of_s(self):
        # contains and express_word refused the symbol: "a two-arc symbol
        # other than PSL2(Z)'s has no coset table"
        sym = gamma_squared()
        U = IMat(1, -1, 1, 0)
        rng = random.Random(2)
        for _ in range(1000):
            word = [rng.choice((S, U, U * U)) for _ in range(rng.randrange(16))]
            g = IDENTITY
            for x in word:
                g = g * x
            member = sum(x is S for x in word) % 2 == 0
            assert contains(sym, g) == member
            out = express_word(sym, g)
            assert (out is not None) == member
            assert out is None or word_product(sym, out).psl_eq(g)


class TestCosetTable:
    @pytest.mark.parametrize("S_, U_, message", [
        # U is no permutation: T and S were both called non-members
        ([1, 0], [0, 0], "U U U is not the identity at coset table class 1$"),
        # U has order 2: a 3-arc symbol of index 4 was built from it
        ([0, 1], [1, 0], "U U U is not the identity at coset table class 0$"),
        ([1, 1], [0, 1], "S S is not the identity at coset table class 0$"),
        ([1, 2, 0], [0, 1, 2], "S S is not the identity at coset table class 0$"),
        ([0, 2], [0, 1], r"class 1 is sent out of \[0, 2\)$"),
        ([0, 1], [-1, 1], r"class 0 is sent out of \[0, 2\)$"),
        ([0, 1], [0], "one length m >= 1, got 2 and 1$"),
        ([], [], "one length m >= 1, got 0 and 0$"),
        (5, [0], "S and U are lists, got 5$"),
        ([0], "0", "S and U are lists, got '0'$"),
        ([0, 1.0], [0, 1], "entries must be ints, got 1.0$"),
        ([0, 1], [0, 2], r"class 1 is sent out of \[0, 2\)$"),
    ])
    def test_tables_that_define_no_action_are_refused(self, S_, U_, message):
        # the last five raised IndexError or TypeError, or were accepted
        with pytest.raises(FareyError, match=message):
            CosetTable(S_, U_, 0)


class TestCrossChecks:
    """counts, the coset table and the word reduction each check what they
    read from another component; with a fault put into that component, the
    check fires."""

    @staticmethod
    def with_orbits(N, orbits):
        sym = gamma0_symbol(N)
        sym._memo["orbits"] = orbits(cusp_orbits(sym))
        return sym

    def test_counts_checks_the_width_sum(self):
        # fault: cusp_orbits gives the first cusp a width one too large
        sym = self.with_orbits(11, lambda orbits: [
            CuspClass(o.representative, o.width + (k == 0), o.stabilizer_word,
                      o.vertex_indices) for k, o in enumerate(orbits)])
        with pytest.raises(FareyError, match="width sum disagrees"):
            counts(sym)

    def test_counts_checks_the_genus(self):
        # fault: cusp_orbits splits the cusp of width 11 into widths 1 and 10
        def split(orbits):
            o = orbits[-1]
            assert o.width == 11
            return orbits[:-1] + [CuspClass(o.representative, w, o.stabilizer_word,
                                            o.vertex_indices) for w in (1, 10)]
        with pytest.raises(FareyError, match="arc count and orbits give no genus"):
            counts(self.with_orbits(11, split))

    def test_the_triangle_scan_checks_unimodularity(self, normalized_for,
                                                     monkeypatch):
        # fault: is_unimodular reads True on a symbol with wider arcs, so
        # the coset table is read off its own polygon
        sym = FareySymbol.from_dict(normalized_for(36).to_dict())
        assert not sym.is_unimodular()
        monkeypatch.setattr(FareySymbol, "is_unimodular", lambda self: True)
        with pytest.raises(FareyError, match="not a union of Farey triangles"):
            contains(sym, IDENTITY)

    def test_the_reduction_checks_the_coset_walk(self):
        # fault: PSL2(Z)'s one-class table for Gamma^2, where T, no member,
        # then reaches the reduction and is left a translation by 1
        sym = gamma_squared()
        sym._memo["cosets"] = CosetTable([0], [0], 0)
        with pytest.raises(FareyError, match="left a translation that the "
                           "coset walk accepted but the cusp refuses"):
            express_word(sym, T)


class TestCuspEquivalence:
    """Endpoint equivalence structure of normalized symbols."""

    def test_pair_block_cusps_are_inequivalent(self, normalized_for):
        for N in (15, 20, 22):
            ns = normalized_for(N)
            shared = []
            for kind, idx in ns.factorize():
                if kind == "pair":
                    shared.append(ns.arc(idx[0])[1])  # cusp shared by c, c*
            for i in range(len(shared)):
                for j in range(i + 1, len(shared)):
                    for t in transporter_candidates(shared[i], shared[j]):
                        assert not contains(ns, t), (N, shared[i], shared[j])

    def test_orbits_separate_pair_cusps(self, normalized_for):
        for N in (15, 20, 22, 37):
            ns = normalized_for(N)
            orbit_of = {}
            for k, o in enumerate(cusp_orbits(ns)):
                for vi in o.vertex_indices:
                    orbit_of[ns.vertices[vi]] = k
            shared = [ns.arc(idx[0])[1] for kind, idx in ns.factorize()
                      if kind == "pair"]
            assert len({orbit_of[c] for c in shared}) == len(shared)

    def test_quad_and_fixed_endpoints_equivalent(self, normalized_for):
        for N in (14, 22, 37):
            ns = normalized_for(N)
            orbit_of = {}
            for k, o in enumerate(cusp_orbits(ns)):
                for vi in o.vertex_indices:
                    orbit_of[ns.vertices[vi]] = k
            classes = set()
            for kind, idx in ns.factorize():
                if kind in ("quad", "fixed"):
                    for i in idx:
                        classes.add(orbit_of[ns.arc(i)[0]])
                        classes.add(orbit_of[ns.arc(i)[1]])
            assert len(classes) == 1, N

    def test_explicit_transporters_along_orbits(self, normalized_for):
        # successor products transport any orbit vertex to any other
        ns = normalized_for(22)
        for o in cusp_orbits(ns):
            idxs = list(o.vertex_indices)
            g = IDENTITY
            for j in idxs[:-1]:
                arc = j
                g = ns.gluing(arc).inverse() * g
                assert contains(ns, g)
            # g maps the first vertex to the last one in the cycle
            assert g.apply(ns.vertices[idxs[0]]) == ns.vertices[idxs[-1]]
