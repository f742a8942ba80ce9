"""The argument contract of the public API: a scalar argument outside its
domain raises FareyError, never a bare exception and never a wrong answer.

ROWS lists every public callable's scalar parameters, one row each: a
name, the parameter's domain, a value inside it, and a call that puts
the value in that parameter's place with every other argument valid.
ROWS also holds containers and objects: a divisor must be a dict, a word
an iterable of letters, a render spec a RenderSpec or None, a coset
table's S and U lists, a point of arc_matrix a Cusp or an int pair, a
group ring term an IMat, a group ring operand a GroupRingElement, a
membership predicate or oracle callable and build_unimodular's oracle a
MembershipOracle.  Symbol parameters and the other matrix parameters are
duck-typed and outside the contract; so are the entries of a matrix
built by IMat itself, which is not checked where it is made but where it
enters contains, express_word, classify and the power operator.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fareysym import (Cusp, CosetTable, FareyError, FareySymbol,
                      GroupRingElement, IMat, INFINITY, MembershipOracle, NormalizationState,
                      RenderSpec, ZERO, arc_matrix, base_cut, base_cut_elliptic,
                      build_unimodular, classify, contains, express_word,
                      gamma0_oracle, gamma0_symbol, render_chords,
                      render_polygon, replay_trace, resolution_maps,
                      word_product)
from fareysym import classical
from fareysym.kulkarni import p1_normalize
from fareysym.render import MAX_SIDE, elliptic_center

# three arcs: 0 and 2 are paired, 1 is fixed of order 2
SYM = gamma0_symbol(2)
TRACE = []
gamma0_symbol(2, on_event=TRACE.append)
T = IMat(1, 1, 0, 1)

BAD = [2.5, 2.0, 0.5, True, False, "3", "a", None, -1, 10**5000, -10**5000,
       math.nan, math.inf, Fraction(7, 2), (1, 2)]


def ints(lo=None, hi=None, none=False):
    """The domain of ints in [lo, hi), a None bound being open, and of None
    too when none is set."""
    def domain(v):
        if v is None:
            return none
        return (type(v) is int and (lo is None or v >= lo)
                and (hi is None or v < hi))
    return domain


def cusp_text(v):
    return isinstance(v, str) and re.fullmatch(r"-?\d+(/-?\d+)?", v) is not None


def point(v):
    return type(v) is Cusp or (type(v) is tuple and len(v) == 2
                               and all(type(x) is int for x in v))


def gcd_ints(v):
    # Cusp leaves its check to math.gcd, free on ints, which reads a bool
    # as 0 or 1
    return isinstance(v, int)


ARC = ints(0, SYM.n)

ROWS = [
    ("factorize(n)", ints(1), 12, classical.factorize),
    ("index_gamma0(N)", ints(1), 12, classical.index_gamma0),
    ("p1_normalize(N)", ints(1), 6, lambda v: p1_normalize(v, 1, 2)),
    ("p1_normalize(u)", ints(), 1, lambda v: p1_normalize(6, v, 1)),
    ("p1_normalize(v)", ints(), 1, lambda v: p1_normalize(6, 1, v)),
    ("MembershipOracle(index_bound)", ints(1, none=True), 3,
     lambda v: MembershipOracle(lambda m: True, index_bound=v)),
    ("MembershipOracle(predicate)", callable, lambda m: True, MembershipOracle),
    ("build_unimodular(oracle)", lambda v: isinstance(v, MembershipOracle),
     gamma0_oracle(2), build_unimodular),
    ("gamma0_oracle(N)", ints(1), 2, gamma0_oracle),
    ("gamma0_oracle(N).coset_key(entry)", ints(), 0,
     lambda v: gamma0_oracle(6).coset_key(1, v, 0, 1)),
    ("gamma0_symbol(N)", ints(1), 2, gamma0_symbol),
    ("replay_trace(level)", ints(1, none=True), 2,
     lambda v: replay_trace(TRACE, level=v)),
    ("FareySymbol(pairing entry)", ints(0, 1), 0,
     lambda v: FareySymbol([INFINITY, ZERO], [v, 1], {0: 2, 1: 3})),
    ("FareySymbol(ell key)", ints(0, 1), 0,
     lambda v: FareySymbol([INFINITY, ZERO], [0, 1], {v: 2, 1: 3})),
    ("FareySymbol(ell order)", ints(2, 4), 2,
     lambda v: FareySymbol([INFINITY, ZERO], [0, 1], {0: v, 1: 3})),
    ("FareySymbol(level)", ints(1, none=True), 2,
     lambda v: FareySymbol(SYM.vertices, SYM.pairing, SYM.ell, v)),
    ("FareySymbol.from_json(text)", lambda v: isinstance(v, (str, bytes)),
     SYM.to_json(), FareySymbol.from_json),
    ("FareySymbol.from_dict(d)", lambda v: isinstance(v, dict),
     SYM.to_dict(), FareySymbol.from_dict),
    ("FareySymbol.arc(i)", ARC, 0, SYM.arc),
    ("FareySymbol.width(i)", ARC, 0, SYM.width),
    ("FareySymbol.gluing(i)", ARC, 0, SYM.gluing),
    ("FareySymbol.arc_class(i)", ARC, 0, SYM.arc_class),
    ("FareySymbol.distance(i)", ARC, 0, lambda v: SYM.distance(v, 1)),
    ("FareySymbol.distance(j)", ARC, 0, lambda v: SYM.distance(1, v)),
    ("FareySymbol.rotated(k)", ints(), 1, SYM.rotated),
    ("FareySymbol.validate(oracle)", lambda v: v is None or callable(v),
     gamma0_oracle(2), lambda v: SYM.validate(oracle=v)),
    ("arc_matrix(r)", point, (1, 2), lambda v: arc_matrix(v, ZERO)),
    ("arc_matrix(s)", point, (1, 2), lambda v: arc_matrix(INFINITY, v)),
    ("elliptic_center(i)", lambda v: type(v) is int and v in SYM.ell, 1,
     lambda v: elliptic_center(SYM, v)),
    ("Cusp(num)", gcd_ints, 1, lambda v: Cusp(v, 2)),
    ("Cusp(den)", gcd_ints, 2, lambda v: Cusp(1, v)),
    ("Cusp.parse(text)", cusp_text, "1/2", Cusp.parse),
    ("IMat ** e", ints(), 2, lambda v: T ** v),
    ("classify(entry)", ints(), 0, lambda v: classify(IMat(1, v, 0, 1))),
    ("contains(entry)", ints(), 0, lambda v: contains(SYM, IMat(1, v, 0, 1))),
    ("express_word(entry)", ints(), 0,
     lambda v: express_word(SYM, IMat(1, v, 0, 1))),
    ("word_product(index)", ARC, 0, lambda v: word_product(SYM, [(v, 1)])),
    ("word_product(exponent)", ints(), 2,
     lambda v: word_product(SYM, [(0, v)])),
    ("CosetTable(start)", ints(0, 1), 0, lambda v: CosetTable([0], [0], v)),
    ("CosetTable(S)", lambda v: v in ([0], (0,)), [0],
     lambda v: CosetTable(v, [0], 0)),
    ("CosetTable(U)", lambda v: v in ([0], (0,)), [0],
     lambda v: CosetTable([0], v, 0)),
    ("base_cut(pivot)", ARC, 2, lambda v: base_cut(SYM, v, 2, 0, "pivot")),
    ("base_cut(c1)", ARC, 2, lambda v: base_cut(SYM, 2, v, 0, "pivot")),
    ("base_cut(c2)", ARC, 0, lambda v: base_cut(SYM, 2, 2, v, "pivot")),
    ("base_cut(place old)", ARC, 0,
     lambda v: base_cut(SYM, 2, 2, 0, "pivot", (v, 0))),
    ("base_cut(place new)", ARC, 0,
     lambda v: base_cut(SYM, 2, 2, 0, "pivot", (0, v))),
    ("base_cut_elliptic(pivot)", ARC, 1,
     lambda v: base_cut_elliptic(SYM, v, 0, "after")),
    ("base_cut_elliptic(cut)", ARC, 0,
     lambda v: base_cut_elliptic(SYM, 1, v, "after")),
    ("NormalizationState(w_len)", ints(0, SYM.n + 1), 0,
     lambda v: NormalizationState(SYM, v)),
    ("resolution_maps(stage)", ints(1), 1, lambda v: resolution_maps(SYM, v)),
    ("GroupRingElement.of(coeff)", ints(), 2,
     lambda v: GroupRingElement.of(T, v)),
    ("GroupRingElement * k", ints(), 2, lambda v: GroupRingElement.one() * v),
    ("GroupRingElement(coeff)", ints(), 2, lambda v: GroupRingElement({T: v})),
    ("GroupRingElement.of(mat)", lambda v: type(v) is IMat, T,
     GroupRingElement.of),
    ("GroupRingElement(term)", lambda v: type(v) is IMat, T,
     lambda v: GroupRingElement({v: 1})),
    ("GroupRingElement + x", lambda v: isinstance(v, GroupRingElement),
     GroupRingElement.one(), lambda v: GroupRingElement.one() + v),
    ("GroupRingElement - x", lambda v: isinstance(v, GroupRingElement),
     GroupRingElement.one(), lambda v: GroupRingElement.one() - v),
    ("k * GroupRingElement", ints(), 2, lambda v: v * GroupRingElement.one()),
    ("GroupRingElement.act_on_divisor(coefficient)", ints(), 1,
     lambda v: GroupRingElement.one().act_on_divisor({ZERO: v})),
    ("GroupRingElement.act_on_divisor(divisor)", lambda v: isinstance(v, dict),
     {ZERO: 1}, GroupRingElement.one().act_on_divisor),
    ("word_product(word)", lambda v: isinstance(v, list), [(0, 1)],
     lambda v: word_product(SYM, v)),
    ("render_chords(spec)", lambda v: v is None or isinstance(v, RenderSpec),
     RenderSpec(), lambda v: render_chords(SYM, v)),
    ("render_polygon(spec)", lambda v: v is None or isinstance(v, RenderSpec),
     RenderSpec(style="disk"), lambda v: render_polygon(SYM, v)),
    ("RenderSpec(width)", ints(1, MAX_SIDE + 1), 600,
     lambda v: RenderSpec(width=v)),
    ("RenderSpec(height)", ints(1, MAX_SIDE + 1), 400,
     lambda v: RenderSpec(height=v)),
]


@pytest.mark.parametrize("name, domain, good, call", ROWS,
                         ids=[row[0] for row in ROWS])
def test_each_row_accepts_its_good_value(name, domain, good, call):
    # so a refusal below is the parameter's, not another argument's
    assert domain(good)
    call(good)


@pytest.mark.parametrize("name, domain, good, call", ROWS,
                         ids=[row[0] for row in ROWS])
def test_each_bad_value_is_refused(name, domain, good, call):
    for value in BAD:
        if not domain(value):
            with pytest.raises(FareyError):
                call(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROWS),
       st.one_of(st.sampled_from(BAD), st.integers(-2**70, 2**70)))
def test_out_of_domain_scalars_raise_farey_error(row, value):
    """A value outside the domain of one parameter, every other argument
    valid, raises FareyError: a bare exception fails the test, and so does
    an answer."""
    name, domain, good, call = row
    assume(not domain(value))
    with pytest.raises(FareyError):
        call(value)
