from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fareysym.exact import (Cusp, IMat, IDENTITY, INFINITY, ZERO, FareyError,
                            InvalidSymbolError)
from fareysym.delta0 import (Delta0Presentation, GroupRingElement, _element,
                             arc_divisor, delta0_presentation, resolution_maps)
from fareysym.symbol import FareySymbol

T = IMat(1, 1, 0, 1)


class TestGroupRing:
    def test_merging_and_zero(self):
        g = IMat(1, 1, 0, 1)
        x = GroupRingElement.of(g) + GroupRingElement.of(-g)
        assert x == GroupRingElement.of(g, 2)
        assert (x - x).is_zero()
        assert GroupRingElement({g: 0}).is_zero()

    def test_ring_multiplication(self):
        g = IMat(1, 1, 0, 1)
        one = GroupRingElement.one()
        a = one + GroupRingElement.of(g)
        b = one - GroupRingElement.of(g)
        prod = a * b
        assert prod == one - GroupRingElement.of(g * g)

    def test_scalar_multiplication(self):
        x = GroupRingElement.one() * 3
        assert x.terms[IDENTITY] == 3

    def test_scalar_multiplication_on_the_left(self):
        # int * element raised a bare TypeError
        y = GroupRingElement.of(IMat(1, 1, 0, 1)) - GroupRingElement.one() * 3
        assert 3 * y == y * 3 == y + y + y

    @pytest.mark.parametrize("coeff", [2.5, 2.0, True, "2", None])
    def test_constructor_checks_its_coefficients(self, coeff):
        # 2.5 was accepted and printed as +2
        with pytest.raises(FareyError, match="coefficients must be ints"):
            GroupRingElement({IDENTITY: 1, IMat(1, 1, 0, 1): coeff})

    def test_distinct_elements_differ(self):
        one, of = GroupRingElement.one(), GroupRingElement.of
        assert one != GroupRingElement.zero() and one != of(T)
        assert of(T) != of(T, 2) and of(T) != of(T) + of(T.inverse())
        assert one != 1 and one == of(IDENTITY)

    @pytest.mark.parametrize("call, message", [
        (lambda: GroupRingElement.of(5), "sums of IMats, got 5"),
        (lambda: GroupRingElement.of((1, 1, 0, 1)), r"sums of IMats, got \(1, 1"),
        (lambda: GroupRingElement({5: 1}), r"dict of IMat keys, got \{5: 1\}"),
        (lambda: GroupRingElement(5), "dict of IMat keys, got 5"),
        (lambda: GroupRingElement(0), "dict of IMat keys, got 0"),
        (lambda: GroupRingElement([]), r"dict of IMat keys, got \[\]"),
        (lambda: GroupRingElement.one() + 1, "need a GroupRingElement, got 1"),
        (lambda: GroupRingElement.one() - 1, "need a GroupRingElement, got 1"),
        (lambda: GroupRingElement.one() - "a", "need a GroupRingElement, got 'a'"),
    ])
    def test_operands_that_are_no_group_ring_data_are_refused(self, call, message):
        # each raised a bare AttributeError or TypeError
        with pytest.raises(FareyError, match=message):
            call()

    def test_divisor_action(self):
        x = GroupRingElement.of(IMat(0, 1, -1, 0))  # swaps 0 and infinity
        d = x.act_on_divisor({ZERO: 1, INFINITY: -1})
        assert d == {INFINITY: 1, ZERO: -1}

    def test_divisor_of_plain_pairs(self):
        # a plain pair key raised a bare AttributeError; pairs naming one
        # cusp add up as their Cusps would
        x = GroupRingElement.of(IMat(0, 1, -1, 0)) + GroupRingElement.one()
        want = x.act_on_divisor({ZERO: 1, Cusp(1, 2): -1})
        assert x.act_on_divisor({(0, 1): 1, (1, 2): -1}) == want
        got = x.act_on_divisor({(0, 1): 1, (2, 4): -2, (-1, -2): 1})
        assert got == want and {type(c) for c in got} == {Cusp}

    @pytest.mark.parametrize("key, message", [
        ((1, 2, 3), r"int pair \(p, q\), got \(1, 2, 3\)"),
        ("1/2", r"int pair \(p, q\), got '1/2'"),
        ((0, 0), r"\(0, 0\) does not define a point")])
    def test_divisor_keys_that_are_no_points_are_refused(self, key, message):
        with pytest.raises(FareyError, match=message):
            GroupRingElement.one().act_on_divisor({ZERO: 1, key: -1})

    @pytest.mark.parametrize("divisor", [[(ZERO, 1), (INFINITY, -1)],
                                         [((0, 1), 1)], ()])
    def test_divisor_that_is_no_dict_is_refused(self, divisor):
        # a list of pairs raised a bare AttributeError; test_contract's
        # rows refuse other non-dicts and coefficients that are no ints
        with pytest.raises(FareyError, match="^a divisor is a dict of points "
                                             "to int coefficients, got "):
            GroupRingElement.one().act_on_divisor(divisor)


def reference_act_on_divisor(x, divisor):
    """act_on_divisor as a double loop of its own, the reference for the
    one that sums through _divisor_sum."""
    out = {}
    for m, c in x.terms.items():
        for cusp, k in divisor.items():
            img = m.apply(cusp)
            out[img] = out.get(img, 0) + c * k
    return {cusp: k for cusp, k in out.items() if k}


# det-1 matrices as words in T and S, short so that terms repeat, and with
# a sign, so that an element may be built of both g and -g
_det1 = st.builds(
    lambda word, sign: reduce(lambda m, f: m * f, word, IDENTITY) * sign,
    st.lists(st.sampled_from([IMat(1, 1, 0, 1), IMat(1, -1, 0, 1),
                              IMat(0, -1, 1, 0)]), max_size=6),
    st.sampled_from([IDENTITY, IMat(-1, 0, 0, -1)]))
_elements = st.lists(st.tuples(_det1, st.integers(-3, 3)), max_size=6).map(
    lambda terms: reduce(lambda x, t: x + GroupRingElement.of(*t), terms,
                         GroupRingElement.zero()))
_cusps = st.tuples(st.integers(-5, 5), st.integers(0, 5)).filter(
    lambda t: t != (0, 0)).map(lambda t: Cusp(*t))


@settings(max_examples=300, deadline=None)
@given(_elements, st.dictionaries(_cusps, st.integers(-2, 2), max_size=6))
def test_divisor_action_equals_the_double_loop(x, divisor):
    """The same dict in the same insertion order, also where images of
    two terms meet and cancel and where the divisor holds zeros."""
    got = x.act_on_divisor(divisor)
    assert list(got.items()) == list(reference_act_on_divisor(x, divisor).items())


class TestPresentation:
    def test_gamma0_2(self, symbol_for):
        pres = delta0_presentation(symbol_for(2))
        sym = pres.symbol
        # first generator is the (infinity, 0) orbit representative
        assert sym.arc(pres.generators[0]) == (INFINITY, ZERO)
        assert pres.elliptic == [1]
        assert len(pres.mu[1]) == 2
        assert pres.lam[1] == GroupRingElement.one()
        lam0 = pres.lam[pres.generators[0]]
        assert lam0 == GroupRingElement.one() - \
            GroupRingElement.of(sym.gluing(pres.generators[0]).inverse())
        pres.check()

    def test_gamma0_13_mu_sizes(self, symbol_for):
        pres = delta0_presentation(symbol_for(13))
        sizes = sorted(len(pres.mu[e]) for e in pres.elliptic)
        assert sizes == [2, 2, 3, 3]
        pres.check()

    def test_boundary_divisors_telescope(self, symbol_for):
        for N in (1, 11, 15, 37):
            sym = symbol_for(N)
            total = {}
            for i in range(sym.n):
                for c, k in arc_divisor(sym, i).items():
                    total[c] = total.get(c, 0) + k
            assert not any(total.values())

    def test_a_degenerate_arc_has_no_divisor(self):
        sym = FareySymbol([INFINITY, ZERO, ZERO], [0, 1, 2], {0: 2, 1: 2, 2: 2})
        with pytest.raises(FareyError, match="^degenerate arc$"):
            arc_divisor(sym, 1)

    def test_check_refuses_wrong_gluings(self, symbol_for):
        """check() recomputes each gluing's action; with a wrong gluing put
        into a fresh symbol's cache, _glue, the block on it fires.  The
        presentation is built by hand around the fresh symbol, since
        delta0_presentation would validate it first, which rewrites the
        cache.  A gluing that moves only one end of the reversed partner
        right is refused too, whichever end it is."""
        def with_gluing(i, g):
            sym = symbol_for(13)
            fresh = FareySymbol(sym.vertices, sym.pairing, sym.ell, sym.level)
            fresh._glue[i] = g
            pres = delta0_presentation(sym)
            return Delta0Presentation(fresh, pres.generators, pres.elliptic,
                                      pres.lam, pres.mu)

        sym = symbol_for(13)
        i = next(i for i, j in enumerate(sym.pairing) if i < j)
        g = sym.gluing(i)
        u, v = sym.arc(sym.pairing[i])
        for fixed in (u, v):  # the parabolic of width 1 fixing p/q
            p, q = fixed
            moved = g * IMat(1 - p * q, p * p, -q * q, 1 + p * q)
            assert (moved.apply(v) == g.apply(v)) == (fixed == v)
            for wrong in (T * g, moved):
                with pytest.raises(FareyError, match="gluing does not carry the "
                                   "reversed partner onto arc %d$" % i):
                    with_gluing(i, wrong).check()
        for order, message in ((2, "fails gamma\\^2 = \\+-1"),
                               (3, "triangle at arc %d does not close")):
            e = next(e for e, mu in sorted(sym.ell.items()) if mu == order)
            with pytest.raises(FareyError, match=message.replace("%d", str(e))):
                with_gluing(e, T).check()

    def test_an_invalid_symbol_is_refused_first(self):
        # the area-0 symbol validate refuses gets no presentation
        flat = FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 2})
        with pytest.raises(InvalidSymbolError, match="area 0"):
            delta0_presentation(flat)

    def test_checks_pass_across_fixtures(self, symbol_for, normalized_for):
        for N in (1, 2, 7, 11, 13, 15, 22, 37):
            delta0_presentation(symbol_for(N)).check()
            delta0_presentation(normalized_for(N)).check()

    def test_relations_vanish(self, symbol_for, normalized_for):
        # sum_a lambda_a {arc a} = 0 and mu_e {arc e} = 0, which check()
        # evaluates, on both representations
        for N in range(1, 121):
            for sym in (symbol_for(N), normalized_for(N)):
                pres = delta0_presentation(sym)
                total = {}
                for a in pres.generators:
                    for c, k in pres.lam[a].act_on_divisor(
                            arc_divisor(sym, a)).items():
                        total[c] = total.get(c, 0) + k
                assert not any(total.values()), N
                for e in pres.elliptic:
                    assert not pres.mu[e].act_on_divisor(arc_divisor(sym, e))
                assert pres.check()

    def test_wrong_relations_are_refused(self, symbol_for, normalized_for):
        # both mutants passed a check() that tested only the geometry: the
        # first generator's lambda built from the second's gluing, and
        # lambda = 2 on an elliptic arc
        swapped = doubled = 0
        for N in range(1, 121):
            for sym in (symbol_for(N), normalized_for(N)):
                pres = delta0_presentation(sym)
                nonell = [a for a in pres.generators if a not in sym.ell]
                if len(nonell) >= 2:
                    g = sym.gluing(nonell[1]).adjugate()
                    pres.lam[nonell[0]] = _element([(IDENTITY, 1), (g, -1)])
                    with pytest.raises(FareyError, match="global relation"):
                        pres.check()
                    swapped += 1
                pres = delta0_presentation(sym)
                if pres.elliptic:
                    pres.lam[pres.elliptic[0]] = GroupRingElement.one() * 2
                    with pytest.raises(FareyError, match="global relation"):
                        pres.check()
                    doubled += 1
        assert (swapped, doubled) == (228, 84)

    def test_wrong_torsion_relation_is_refused(self, symbol_for):
        # mu = 1 + gamma on an order-3 arc leaves its triangle open
        for N in (3, 7, 13):
            sym = symbol_for(N)
            pres = delta0_presentation(sym)
            e = next(i for i in pres.elliptic if sym.ell[i] == 3)
            pres.mu[e] = GroupRingElement.one() + GroupRingElement.of(sym.gluing(e))
            with pytest.raises(FareyError, match="torsion relation of "
                               "elliptic arc %d" % e):
                pres.check()

    def test_relations_equal_the_group_ring_construction(
            self, symbol_for, normalized_for):
        """Each lambda and mu is built in one step; the reference builds
        them from group ring operations, with the gluing's inverse."""
        one, of = GroupRingElement.one, GroupRingElement.of
        for N in (1, 2, 3, 7, 13, 15, 37, 91, 180, 210):
            for sym in (symbol_for(N), normalized_for(N), symbol_for(N).rotated(3)):
                pres = delta0_presentation(sym)
                for i in pres.generators:
                    g = sym.gluing(i)
                    if i in sym.ell:
                        assert pres.lam[i] == one()
                        acc, p = one(), IDENTITY
                        for _ in range(sym.ell[i] - 1):
                            p = p * g
                            acc = acc + of(p)
                        assert pres.mu[i] == acc
                        assert list(pres.mu[i].terms) == list(acc.terms)
                    else:
                        want = one() - of(g.inverse())
                        assert pres.lam[i] == want
                        assert list(pres.lam[i].terms) == list(want.terms)

    def test_generator_count(self, symbol_for):
        for N in (2, 13, 15, 37):
            sym = symbol_for(N)
            pres = delta0_presentation(sym)
            nonell = (sym.n - len(sym.ell)) // 2
            assert len(pres.generators) == nonell + len(sym.ell)

    def test_jsonable(self, symbol_for):
        doc = delta0_presentation(symbol_for(13)).to_jsonable()
        assert set(doc) == {"generators", "elliptic", "lambda", "mu"}
        assert len(doc["mu"]) == 4


class TestResolution:
    def test_stage_validation(self, symbol_for):
        with pytest.raises(FareyError):
            resolution_maps(symbol_for(2), 0)

    def test_stage1_shape(self, symbol_for):
        sym = symbol_for(13)
        rows = resolution_maps(sym, 1)
        pres = delta0_presentation(sym)
        assert len(rows) == 1 + len(pres.elliptic)
        assert all(len(r) == len(pres.generators) for r in rows)

    def test_no_elliptic_means_no_higher_stages(self, symbol_for):
        assert resolution_maps(symbol_for(15), 2) == []
        assert resolution_maps(symbol_for(15), 5) == []

    def test_gamma0_13_stage2_diagonal(self, symbol_for):
        rows = resolution_maps(symbol_for(13), 2)
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                assert entry.is_zero() == (i != j)

    def test_consecutive_maps_compose_to_zero(self, symbol_for,
                                              normalized_for):
        for N in (2, 13, 37):
            sym = symbol_for(N)
            for stage in (2, 3, 4):
                a = resolution_maps(sym, stage)
                b = resolution_maps(sym, stage + 1)
                for i in range(len(a)):
                    assert (b[i][i] * a[i][i]).is_zero(), (N, stage)
                    assert (a[i][i] * b[i][i]).is_zero(), (N, stage)
        # the first junction: stage 2 has no entry for the lambda row of
        # stage 1, so each of its rows gets a zero in front
        for N in (2, 3, 13, 37, 91, 133):
            for sym in (symbol_for(N), normalized_for(N)):
                one, two = resolution_maps(sym, 1), resolution_maps(sym, 2)
                assert len(two) == len(one) - 1 == len(sym.ell), N
                for row in two:
                    padded = [GroupRingElement.zero()] + row
                    for col in zip(*one):
                        total = reduce(GroupRingElement.__add__,
                                       [x * y for x, y in zip(padded, col)])
                        assert total.is_zero(), (N, row, col)

    def test_elliptic_power_is_identity(self, symbol_for):
        for N in (2, 13):
            sym = symbol_for(N)
            for i, mu in sym.ell.items():
                g = sym.gluing(i) ** mu
                assert g.psl_normalize().is_identity_psl()

    @pytest.mark.parametrize("stage", [2.5, True, "2", None, 1.0,
                                       pytest.param(-10**5000, id="huge")])
    def test_stage_must_be_an_int(self, symbol_for, stage):
        # unchecked, 2.5 gives [], True the stage-1 map and "2" a TypeError
        with pytest.raises(FareyError, match="stages"):
            resolution_maps(symbol_for(13), stage)
