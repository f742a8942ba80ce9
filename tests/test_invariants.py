import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fareysym import classical
from fareysym.exact import (IMat, IDENTITY, FareyError,
                            classify, CLS_PARABOLIC)
from fareysym.invariants import (contains, counts, cusp_orbits, express_word,
                                 generators, word_product)
from fareysym.kulkarni import gamma0_symbol
from fareysym.siegel import normalize

S, T = IMat(0, 1, -1, 0), IMat(1, 1, 0, 1)
# a member of Gamma0(6) that the stall window rejects on the normalized symbol
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


def word_record(sym, g):
    """express_word's answer as text: the word, None, or the error message."""
    try:
        return repr(express_word(sym, g))
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
                # the ROADMAP witness, and a member with a partial quotient
                # near 2^40, which runs into the step cap
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
        assert self.digest(range(1, 41), 24, 2, True) == (
            3904, "5806620daed64103e4fbaa814ad0c0aaa0b52b339f02a7fb1d564fcd1d5f8a01")

    def test_large_levels_and_known_defects(self):
        assert self.digest((6, 36, 180, 210), 64, 4, False) == (
            72, "c1bfda9089d79d8b40e6543f4be1891e22c019a533230b1d19c811f455528d08")


def test_words_on_rotated_symbols(symbol_for, normalized_for):
    """A returned word multiplies back to +-g on every rotation; on a
    unimodular symbol None comes only for c != 0 mod N."""
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
        elif not normalized:
            assert g.c % N != 0
    prop()


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
