import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import fareysym
from fareysym import classical, siegel
from fareysym.exact import Cusp, FareyError, INFINITY, InvalidSymbolError, ZERO
from fareysym.kulkarni import gamma0_oracle, gamma0_symbol
from fareysym.invariants import counts, express_word, generators, word_product
from fareysym.siegel import (NormalizationState, base_cut, base_cut_elliptic,
                             normalize, siegel_step, start_words, _start_state,
                             _step_hyperbolic)
from fareysym.symbol import (FareySymbol, block_at, gluing_entries,
                             symbol_from_ids)

from test_kulkarni import coset_pair, normalized_permutation_group, uniform_pair

DIGEST_420 = "c0f78472b2e92a5dc8b4443285b2124810fbcb79439f801f0cd9289dac75d290"


def legal_cuts(sym):
    """Every (cut, args) that base_cut or base_cut_elliptic accepts on sym."""
    n, pairing = sym.n, sym.pairing
    for i in range(n):
        j = pairing[i]
        if i == j:
            for cut in range(n):
                for side in ("before", "after"):
                    yield base_cut_elliptic, (i, cut, side)
            continue
        # c1 a vertex from the end of a* to the start of a, c2 one from the
        # end of a to the start of a*
        for c1 in range(n):
            for c2 in range(n):
                if ((c1 - j - 1) % n <= (i - j - 1) % n
                        and (c2 - i - 1) % n <= (j - i - 1) % n):
                    for side in ("pivot", "other"):
                        yield base_cut, (i, c1, c2, side)


def reference_step(state):
    """(kind, pivots) of the next Siegel step of a run by whole-tail scans,
    the reference for the incremental dispatch: an extend when a block sits
    at w, else the first fixed arc in [w, n), the first adjacent pair, or
    the first arc whose partner precedes it."""
    w, ids, partner = state.w_len, state.ids, state.partner
    n = len(ids)
    if block_at(state.paired, w, n - w) is not None:
        return "extend", []
    for e in range(w, n):
        if partner[ids[e]] == ids[e]:
            return "elliptic", [e]
    for k in range(w, n - 1):
        if partner[ids[k]] == ids[k + 1]:
            return "parabolic", [k]
    seen = {}
    for f in range(w, n):
        a_pos = seen.get(partner[ids[f]])
        if a_pos is not None:
            return "hyperbolic", [a_pos, a_pos + 1]
        seen[ids[f]] = f
    raise AssertionError("no step applies")


def check_dispatch(sym, kinds):
    """Normalize sym one step at a time, checking before each step that
    the step taken is the reference's; counts the steps by kind."""
    log = []
    state = _start_state(sym, on_step=log.append)
    while not state.done():
        want = reference_step(state)
        siegel_step(state)
        assert (log[-1]["kind"], log[-1]["pivots"]) == want, (sym, state.w_len)
        kinds[want[0]] = kinds.get(want[0], 0) + 1


@pytest.fixture
def commits(monkeypatch):
    """Every NormalizationState.commit from here on, as (lo, hi, place)."""
    log = []
    commit = NormalizationState.commit

    def recording(self, segments, place=None, lo=0, hi=None):
        log.append((lo, self.n if hi is None else hi, place))
        commit(self, segments, place, lo, hi)

    monkeypatch.setattr(NormalizationState, "commit", recording)
    return log


def check_windows(sym, commits, kinds):
    """Normalize sym one step at a time, checking the one commit each step
    makes: an elliptic step and a parabolic step that moves the gap (variant
    A) rewrite only [w, j + 1), j the pivot's partner, a hyperbolic step a
    window from w, and only variant B the whole polygon; counts the steps by
    kind."""
    state = _start_state(sym)
    while not state.done():
        w, n, before = state.w_len, state.n, list(state.ids)
        kind, pivots = reference_step(state)
        del commits[:]
        siegel_step(state)
        if kind == "extend":
            assert commits == []
        elif kind == "parabolic" and state.keep in before[w:pivots[0]]:
            kind = "variant B"
            assert [(lo, hi) for lo, hi, _ in commits] == [(0, n)], (sym, w)
        else:
            (lo, hi, place), = commits
            assert (lo, place) == (w, None), (sym, kind, w)
            if kind != "hyperbolic":
                assert hi == pivots[0] + (kind == "parabolic") + 1, (sym, kind, w)
        kinds[kind] = kinds.get(kind, 0) + 1


class TestBaseCut:
    def test_trivial_cut_is_rotation(self, symbol_for):
        # adjacent pivot pair, both transformed blocks empty
        s = symbol_for(2)  # pairing (2, 1, 0): pivot 2 has partner 0
        out, mapping = base_cut(s, 2, 2, 0, "pivot")
        assert out.n == s.n
        # a' has the pivot's endpoints, everything else is untouched
        assert out.arc(mapping[2]) == s.arc(2)
        assert out.arc(mapping[0]) == s.arc(0)
        assert out.arc(mapping[1]) == s.arc(1)
        out.validate(gamma0_oracle(2))

    def test_pivot_gluing_is_preserved(self, symbol_for):
        s = symbol_for(15)
        g = s.gluing(1)
        out, mapping = base_cut(s, 1, 1, 3, "pivot")
        out.validate(gamma0_oracle(15))
        assert out.gluing(mapping[1]).psl_eq(g)
        out2, mapping2 = base_cut(s, 1, 0, 3, "other")
        out2.validate(gamma0_oracle(15))
        assert out2.gluing(mapping2[1]).psl_eq(g)

    def test_widths_of_spectators_unchanged(self, symbol_for):
        s = symbol_for(22)
        out, mapping = base_cut(s, 2, 8, 4, "pivot")
        for t in range(s.n):
            if t in (2, s.pairing[2]):
                continue
            assert out.width(mapping[t]) == s.width(t), t

    def test_group_is_preserved(self, symbol_for):
        s = symbol_for(15)
        oracle = gamma0_oracle(15)
        out, _ = base_cut(s, 1, 0, 3, "other")
        out.validate(oracle)
        assert out.contains_all(oracle)
        # and conversely the old generators still reduce in the new symbol
        for i in range(s.n):
            assert express_word(out, s.gluing(i)) is not None

    def test_new_gluings_are_pivot_conjugates(self, symbol_for):
        # every spectator gluing after a cut equals g, p^-1 g, g p or
        # p^-1 g p where p is the pivot gluing and g the old one
        s = symbol_for(22)
        for pivot, c1, c2, side in ((2, 8, 4, "pivot"), (2, 8, 4, "other"),
                                    (3, 1, 5, "pivot")):
            p = s.gluing(pivot)
            out, mapping = base_cut(s, pivot, c1, c2, side)
            q = p.inverse() if side == "pivot" else p
            for t in range(s.n):
                if t in (pivot, s.pairing[pivot]):
                    continue
                g = s.gluing(t)
                candidates = (g, q * g, g * q.inverse(), q * g * q.inverse())
                new = out.gluing(mapping[t])
                assert any(new.psl_eq(c) for c in candidates), (pivot, t)

    def test_elliptic_pivot_rejected(self, symbol_for):
        s = symbol_for(2)
        with pytest.raises(FareyError):
            base_cut(s, 1, 0, 2, "pivot")

    def test_cut_legality_checked(self, symbol_for):
        s = symbol_for(15)  # pivot 1 pairs with 5
        with pytest.raises(FareyError, match="cuts do not separate the pivot "
                           "from its partner"):
            base_cut(s, 1, 3, 7, "pivot")  # cuts on the wrong sides

    @pytest.mark.parametrize("c1,c2", [(7, 7), (3, 3)])
    def test_one_cut_end_on_the_wrong_side_is_refused(self, symbol_for, c1, c2):
        # c1 belongs in 6..1 and c2 in 2..5 (base_cut(s, 1, 7, 3) is legal):
        # only c2, then only c1, is misplaced
        s = symbol_for(15)  # pivot 1 pairs with 5
        with pytest.raises(FareyError, match="cuts do not separate the pivot "
                           "from its partner"):
            base_cut(s, 1, c1, c2, "pivot")

    @pytest.mark.parametrize("args,message", [
        ((2, 3, 0, "pivot"), "out of range"),
        ((2, 2, -1, "pivot"), "out of range"),
        ((2, 2, 0, "sideways"), "side must be"),
        ((3, 2, 0, "pivot"), "pivot out of range"),
        ((-1, 2, 0, "pivot"), "pivot out of range"),
        ((2, 2, 0, "pivot", (5, 0)), "place out of range"),
        ((2, 2, 0, "pivot", (-1, 0)), "place out of range"),
        ((2, 2, 0, "pivot", (0, 7)), "place out of range"),
        ((2, 2, 0, "pivot", (0, -1)), "place out of range"),
        ((2, 2, 0, "pivot", (0,)), "place must be a pair"),
        ((2, 2, 0, "pivot", (0, 1, 2)), "place must be a pair"),
        ((2, 2, 0, "pivot", 0), "place must be a pair"),
        ((2, 2, 0, "pivot", (0.0, 1)), "positions must be ints"),
        ((2.0, 2, 0, "pivot"), "positions must be ints"),
        ((2, 2.0, 0, "pivot"), "positions must be ints"),
        ((2, 2, 0.0, "pivot"), "positions must be ints"),
        # its repr raises ValueError, so it is named by its type
        ((2, 2, 0, "pivot", (Fraction(10**5000), 1)), "positions must be ints"),
    ])
    def test_bad_arguments_raise(self, symbol_for, args, message):
        s = symbol_for(2)  # pairing (2, 1, 0): pivot 2 has partner 0
        with pytest.raises(FareyError, match=message):
            base_cut(s, *args)

    @pytest.mark.parametrize("args,message", [
        ((0, 0, "after"), "needs a fixed pivot"),
        ((1, 3, "after"), "out of range"),
        ((1, -1, "before"), "out of range"),
        ((1, 0, "pivot"), "side must be"),
        ((3, 0, "before"), "pivot out of range"),
        ((-1, 0, "before"), "pivot out of range"),
        ((-2, 0, "before"), "pivot out of range"),
        ((1, 0, "after", (5, 0)), "place out of range"),
        ((1, 0, "after", (-1, 0)), "place out of range"),
        ((1, 0, "after", (0, 7)), "place out of range"),
        ((1, 0, "after", (0, -1)), "place out of range"),
        ((1, 0, "after", (0,)), "place must be a pair"),
        ((1, 0, "after", (0, 1.0)), "positions must be ints"),
        ((1.0, 0, "after"), "positions must be ints"),
        ((1, 0.0, "after"), "positions must be ints"),
    ])
    def test_bad_elliptic_arguments_raise(self, symbol_for, args, message):
        s = symbol_for(2)  # arc 1 is the fixed one
        with pytest.raises(FareyError, match=message):
            base_cut_elliptic(s, *args)

    def test_elliptic_cut_keeps_order_and_group(self, symbol_for):
        s = symbol_for(2)
        out, mapping = base_cut_elliptic(s, 1, 0, "after")
        out.validate(gamma0_oracle(2))
        assert out.ell[mapping[1]] == 2
        assert [str(v) for v in out.vertices] == ["1/2", "1/0", "0/1"]
        g = out.gluing(mapping[1])
        assert g.psl_eq(s.gluing(1))

    def test_elliptic_cut_order3_identity(self, symbol_for):
        s = symbol_for(13)
        pivot = next(i for i, mu in s.ell.items() if mu == 3)
        out, mapping = base_cut_elliptic(s, pivot, 0, "after")
        g = out.gluing(mapping[pivot])
        gg = g * g
        assert 1 + g.a + gg.a == 0 and g.b + gg.b == 0
        assert g.c + gg.c == 0 and 1 + g.d + gg.d == 0
        assert out.contains_all(gamma0_oracle(13))

    def test_empty_block_is_rotation(self, symbol_for):
        # cut at the arc's own endpoint: the moved block is empty and the
        # result is the same symbol relabeled
        s = symbol_for(2)
        out, mapping = base_cut_elliptic(s, 1, 2, "after")
        assert out == s.rotated((2 - mapping[2]) % s.n)

    @staticmethod
    def check_place(s, cut, *args):
        out, mapping = cut(s, *args)
        for old in range(s.n):
            for t in range(s.n):
                k = (mapping[old] - t) % s.n
                placed, placed_map = cut(s, *args, place=(old, t))
                assert placed == out.rotated(k), (args, old, t)
                assert placed_map == {a: (p - k) % s.n
                                      for a, p in mapping.items()}

    def test_place_is_rotation(self, symbol_for):
        s = symbol_for(22)
        for args in ((2, 8, 4, "pivot"), (2, 8, 4, "other"),
                     (3, 1, 5, "pivot")):
            self.check_place(s, base_cut, *args)

    def test_elliptic_place_is_rotation(self, symbol_for):
        s = symbol_for(13)
        pivot = next(i for i, mu in s.ell.items() if mu == 3)
        for cut, side in ((0, "after"), (0, "before"), (3, "after")):
            self.check_place(s, base_cut_elliptic, pivot, cut, side)

    def test_every_legal_cut_is_pinned(self):
        # every pivot, cut vertex and side, on the unimodular and the
        # normalized symbol: the output symbol and the position mapping
        h = hashlib.sha256()
        count = 0
        for N in range(1, 25):
            uni = gamma0_symbol(N)
            for sym in (uni, normalize(uni)):
                for cut, args in legal_cuts(sym):
                    out, mapping = cut(sym, *args)
                    h.update((out.to_json() + json.dumps(sorted(mapping.items()))
                              + "\n").encode())
                    count += 1
        assert (count, h.hexdigest()) == (
            11876, "7268cccace47edad7a8e42a664dbc0a577aea7fced5b14b97ed9f0fbed809155")

    def test_infinity_zero_refusals_are_pinned(self):
        # the same cuts on a run's state, which keeps the arc (infinity, 0):
        # the polygon each one leaves, or its refusal
        h = hashlib.sha256()
        count = applied = 0
        for N in range(1, 19):
            uni = gamma0_symbol(N)
            for sym in (uni, normalize(uni)):
                for cut, args in legal_cuts(sym):
                    state = NormalizationState(sym)
                    assert state.keep is not None
                    try:
                        assert cut(state, *args) is None
                    except InvalidSymbolError as e:
                        assert "(infinity, 0)" in str(e), (N, args)
                        h.update(b"refused\n")
                    else:
                        h.update(repr((state.ids, [tuple(v) for v in state.verts])).encode()
                                 + b"\n")
                        applied += 1
                    count += 1
        assert (count, applied, h.hexdigest()) == (
            4540, 1862, "51874ff97bc35ce215f509537f82733d602638afc68787a15e5c458ffb944f10")


class TestSiegelStep:
    def test_dispatch_matches_the_whole_tail_scans(self):
        kinds = {}
        for N in range(1, 201):
            check_dispatch(gamma0_symbol(N), kinds)
        assert kinds == {"extend": 425, "elliptic": 149, "parabolic": 761,
                         "hyperbolic": 1931}

    def test_dispatch_matches_on_every_legal_cut(self):
        # the output of every legal cut, so pairs, quads and fixed arcs sit
        # anywhere in the tail; a symbol the run refuses, at its start or
        # partway, is checked up to the refusal
        kinds = {}
        done = refused = 0
        for N in range(1, 19):
            uni = gamma0_symbol(N)
            for sym in (uni, normalize(uni)):
                for cut, args in legal_cuts(sym):
                    try:
                        check_dispatch(cut(sym, *args)[0], kinds)
                    except InvalidSymbolError:
                        refused += 1
                    else:
                        done += 1
        assert (done, refused) == (1848, 2692)
        assert kinds["elliptic"] > 100 and kinds["hyperbolic"] > 300, kinds

    def test_steps_commit_only_their_windows(self, commits):
        kinds = {}
        for N in range(1, 201):
            check_windows(gamma0_symbol(N), commits, kinds)
        assert kinds == {"extend": 425, "elliptic": 149, "parabolic": 761,
                         "hyperbolic": 1931}

    def test_steps_commit_only_their_windows_on_every_legal_cut(self, commits):
        kinds, refused = {}, 0
        for N in range(1, 19):
            uni = gamma0_symbol(N)
            for sym in (uni, normalize(uni)):
                for cut, args in legal_cuts(sym):
                    try:
                        check_windows(cut(sym, *args)[0], commits, kinds)
                    except InvalidSymbolError:
                        refused += 1
        # the same symbols and refusals as the dispatch test's
        assert refused == 2692
        assert kinds == {"extend": 2961, "elliptic": 144, "parabolic": 1394,
                         "variant B": 374, "hyperbolic": 304}

    @pytest.mark.parametrize("window", [
        lambda ids: ids[2:5],
        lambda ids: ids[2:5] + ids[2:3],
        lambda ids: ids[2:5] + ids[6:7],
        lambda ids: ids[2:5] + [-1],
        lambda ids: ids[2:7],
    ], ids=["drops-one", "repeats-one", "one-from-outside", "unknown-id",
            "one-too-many"])
    def test_window_commit_holds_each_arc_once(self, symbol_for, window):
        # the window is positions [2, 6); an arc from outside it would be
        # on the boundary twice
        state = NormalizationState(symbol_for(15))
        ids, verts = list(state.ids), list(state.verts)
        new = window(ids)
        with pytest.raises(FareyError, match="cut produced"):
            state.commit([(new, verts[2:2 + len(new)])], lo=2, hi=6)
        assert (state.ids, state.verts) == (ids, verts)
        state.commit([(ids[5:1:-1], verts[5:1:-1])], lo=2, hi=6)
        assert state.ids == ids[:2] + ids[5:1:-1] + ids[6:]
        assert state.verts == verts[:2] + verts[5:1:-1] + verts[6:]

    def test_window_commit_has_a_vertex_per_arc(self, symbol_for):
        state = NormalizationState(symbol_for(15))
        ids, verts = list(state.ids), list(state.verts)
        with pytest.raises(FareyError, match="cut produced 3 arcs, expected 4"):
            state.commit([(ids[2:6], verts[2:5])], lo=2, hi=6)
        assert (state.ids, state.verts) == (ids, verts)

    def test_first_step_extends_infinity_pair(self, symbol_for):
        state = _start_state(symbol_for(15))
        state = siegel_step(state)
        assert state.w_len == 2
        assert state.symbol.arc(1) == (INFINITY, ZERO)

    def test_elliptic_step_adds_one(self, symbol_for):
        # level 10 has an elliptic arc separated from the prefix by a gap
        log = []
        state = _start_state(symbol_for(10), on_step=log.append)
        kinds = []
        while not state.done():
            w0 = state.w_len
            state = siegel_step(state)
            kinds.append((log[-1]["kind"], state.w_len - w0))
        assert ("elliptic", 1) in kinds

    def test_hyperbolic_step_adds_quad(self, symbol_for):
        state = _start_state(symbol_for(15))
        state = siegel_step(state)   # extend the infinity pair
        w = state.w_len
        state = siegel_step(state)   # first inversion must be hyperbolic
        assert state.w_len == w + 4
        p = state.symbol.pairing
        assert p[w] == w + 2 and p[w + 1] == w + 3

    @pytest.mark.parametrize("pairing,ell,starts", [
        # a b a* b* c c* e: each arc's run starts at its block
        ([2, 3, 0, 1, 5, 4, 6], {6: 2}, [0, 0, 0, 0, 4, 4, 6]),
        # e x y y* x*: x starts no block, so the run starts at x itself
        ([0, 4, 3, 2, 1], {0: 2}, [None, 1, None, None, None]),
    ])
    def test_start_rotation(self, pairing, ell, starts):
        # _start_state only reads the combinatorics and (infinity, 0), so
        # the other vertices are placeholders
        n = len(pairing)
        for i0, start in enumerate(starts):
            if start is None:
                continue
            verts = [Cusp(k + 1) for k in range(n)]
            verts[i0], verts[(i0 + 1) % n] = INFINITY, ZERO
            sym = FareySymbol(verts, pairing, ell)
            for k in range(n):
                assert _start_state(sym.rotated(k)).symbol == sym.rotated(start)

    def test_progress_and_validity_each_step(self, symbol_for):
        oracle = gamma0_oracle(22)
        state = _start_state(symbol_for(22), on_op=lambda s: s.validate(oracle))
        while not state.done():
            w0 = state.w_len
            state = siegel_step(state)
            assert state.w_len > w0

    @staticmethod
    def four_cuts(state, w, a_pos):
        """The hyperbolic step as four base cuts, the reference for the
        fused step: W X a b Y a* Z b* T becomes W b* a b a* X Z Y T."""
        a, b = state.ids[a_pos], state.ids[a_pos + 1]
        as_pos = state.pos(state.partner[a])
        base_cut(state, a_pos + 1, w, as_pos, "pivot", (a_pos + 1, w))
        base_cut(state, state.pos(a), state.pos(state.partner[b]), w, "other",
                 (w + 1, w))
        base_cut(state, w + 1, w, w + 2, "pivot", (w + 1, w))
        a3 = state.pos(a)
        base_cut(state, a3, w + 1, a3 + 2, "pivot", (w, w))

    def test_hyperbolic_step_equals_four_base_cuts(self):
        def copy(state, on_op):
            out = NormalizationState.__new__(NormalizationState)
            for name in NormalizationState.__slots__:
                setattr(out, name, getattr(state, name))
            out.ids, out.verts = list(state.ids), list(state.verts)
            out.on_op, out.on_step = on_op, None
            return out

        def arcs(state):
            return state.ids, [Cusp(p, q) for p, q in state.verts]

        # the fused step commits once, the reference's last stage; each of
        # the reference's four stages is a valid symbol of the same group
        steps = 0
        for N in range(1, 201):
            oracle = gamma0_oracle(N)
            log = []
            state = _start_state(gamma0_symbol(N), on_step=log.append)
            while not state.done():
                before = copy(state, None)
                siegel_step(state)
                if log[-1]["kind"] != "hyperbolic":
                    continue
                w, a_pos = before.w_len, log[-1]["pivots"][0]
                ref_ops, fused_ops = [], []
                ref, staged = copy(before, ref_ops.append), copy(before, fused_ops.append)
                self.four_cuts(ref, w, a_pos)
                siegel_step(staged)
                assert arcs(state) == arcs(ref) == arcs(staged), (N, w)
                assert len(ref_ops) == 4 and fused_ops == ref_ops[-1:], (N, w)
                for stage in ref_ops:
                    stage.validate(oracle)
                steps += 1
        assert steps > 1000

    def test_hyperbolic_step_equals_four_base_cuts_on_permutation_groups(self):
        """The fused step's matrices are words in its two pivot gluings, a
        group identity and no fact of Gamma0(N): the same comparison on the
        groups of 3000 seeded coset tables, each stage validated against
        the group's membership test.  The floors keep a silent refusal from
        emptying the test: this seed builds 501 groups, 70 of them taking
        357 hyperbolic steps (52 to 72 groups taking 222 to 374 steps at
        seeds 1 to 5)."""
        rng = random.Random(48)
        groups = stepped = steps = 0
        for k in range(3000):
            S, U = (uniform_pair(rng, max_points=200) if k % 2
                    else coset_pair(rng, max_points=60, pair_all=True))
            built = normalized_permutation_group(S, U)
            if built is None:
                continue
            table, sym, nsym, _ = built
            groups += 1
            log = []
            state = _start_state(sym, on_step=log.append)
            while not state.done():
                before = state_copy(state, None)
                siegel_step(state)
                if log[-1]["kind"] != "hyperbolic":
                    continue
                ref_ops = []
                ref = state_copy(before, ref_ops.append)
                self.four_cuts(ref, before.w_len, log[-1]["pivots"][0])
                assert arcs_of(state) == arcs_of(ref), (S, U, before.w_len)
                for stage in ref_ops:
                    stage.validate(table.contains)
                steps += 1
            assert state.symbol.vertices == nsym.vertices, (S, U)
            stepped += any(entry["kind"] == "hyperbolic" for entry in log)
        assert groups >= 400 and stepped >= 40 and steps >= 200, (
            groups, stepped, steps)

    def test_hyperbolic_step_glues_its_two_pivots(self, monkeypatch):
        # each step reads the gluings A of a and B of b, and no other
        calls = []

        def counting(*args):
            calls.append(args)
            return gluing_entries(*args)

        monkeypatch.setattr(siegel, "gluing_entries", counting)
        steps = 0
        for N in (23, 60, 210):
            state = _start_state(gamma0_symbol(N))
            while not state.done():
                kind, pivots = reference_step(state)
                ids, P, n = list(state.ids), list(state.verts), state.n
                del calls[:]
                siegel_step(state)
                if kind != "hyperbolic":
                    continue
                a_pos, b_pos = pivots
                as_pos = ids.index(state.partner[ids[a_pos]])
                bs_pos = ids.index(state.partner[ids[b_pos]])
                assert calls == [
                    (P[a_pos], P[b_pos], P[as_pos], P[as_pos + 1]),
                    (P[b_pos], P[b_pos + 1], P[bs_pos], P[(bs_pos + 1) % n])]
                steps += 1
        assert steps == 49

    @pytest.mark.parametrize("N", [11, 37, 60, 97])
    def test_hyperbolic_step_refuses_pivots_out_of_pattern(self, N):
        # W X a b Y a* Z b* T needs w <= a and a* after b, b* after a*;
        # every other choice of w and a raises before anything moves
        sym = gamma0_symbol(N)
        n = sym.n
        refused = 0
        for w in range(n - 1):
            for a_pos in range(n - 1):
                state = NormalizationState(sym, w)
                ids, partner = state.ids, state.partner
                as_pos = state.pos(partner[ids[a_pos]])
                if w <= a_pos < a_pos + 1 < as_pos < state.pos(
                        partner[ids[a_pos + 1]]):
                    continue
                with pytest.raises(FareyError, match="pivots out of pattern"):
                    _step_hyperbolic(state, w, a_pos)
                assert state.ids == list(range(n))
                refused += 1
        assert refused > n

    def test_step_refuses_to_move_infinity_zero(self, symbol_for):
        # unrotated, the (infinity, 0) arc of level 2 starts no ready block,
        # so the first step would have to move it
        state = NormalizationState(symbol_for(2))
        with pytest.raises(InvalidSymbolError, match=r"arc \(infinity, 0\)"):
            siegel_step(state)

    def test_done_state_rejects_further_steps(self, normalized_for):
        state = NormalizationState(normalized_for(11), normalized_for(11).n)
        with pytest.raises(FareyError, match="already fully normalized"):
            siegel_step(state)


def state_copy(state, on_op):
    """A copy of a run's state that cuts on its own, seen by on_op."""
    out = NormalizationState.__new__(NormalizationState)
    for name in NormalizationState.__slots__:
        setattr(out, name, getattr(state, name))
    out.ids, out.verts = list(state.ids), list(state.verts)
    out.on_op, out.on_step = on_op, None
    return out


def arcs_of(state):
    """A state's arc ids and its vertices as Cusps, which fix their sign."""
    return state.ids, [Cusp(p, q) for p, q in state.verts]


def state_before(sym, kind):
    """A run on sym, stepped until its next step is of the given kind."""
    state = _start_state(sym)
    while reference_step(state)[0] != kind:
        siegel_step(state)
    return state


class TestCrossChecks:
    """Each step checks the block it made, and normalize checks its run;
    with a fault put into the component a check guards, the check fires."""

    def test_elliptic_step_checks_its_fixed_arc(self, monkeypatch):
        # fault: the elliptic cut moves nothing
        state = state_before(gamma0_symbol(10), "elliptic")
        monkeypatch.setattr(siegel, "base_cut_elliptic", lambda *args: None)
        with pytest.raises(FareyError, match="elliptic step did not fix arc"):
            siegel_step(state)

    def test_parabolic_step_checks_its_pair(self, monkeypatch):
        # fault: the pair cut moves nothing, whether it moves the gap
        # (variant A) or, with (infinity, 0) in the gap, the tail (variant B)
        gap = state_before(gamma0_symbol(6), "parabolic")
        tail = state_before(base_cut(gamma0_symbol(6), 2, 0, 3, "other")[0],
                            "parabolic")
        assert tail.keep in tail.ids[tail.w_len:reference_step(tail)[1][0]]
        monkeypatch.setattr(siegel, "base_cut", lambda *args: None)
        with pytest.raises(FareyError, match="did not pair arcs %d, %d"
                           % (gap.w_len, gap.w_len + 1)):
            siegel_step(gap)
        with pytest.raises(FareyError, match="did not pair arcs 0, 1"):
            siegel_step(tail)

    def test_hyperbolic_step_checks_its_quad(self, monkeypatch):
        # fault: the splice of the four cuts is never committed
        state = state_before(gamma0_symbol(23), "hyperbolic")
        monkeypatch.setattr(NormalizationState, "commit", lambda *args, **kw: None)
        with pytest.raises(FareyError, match="did not leave a quad"):
            siegel_step(state)

    def test_hyperbolic_step_keeps_infinity_zero(self):
        # fault: the run's kept arc (infinity, 0) is put into the window
        # [w, b*] the step rewrites, at its first arc, at the last arc of Z
        # and at b*; normalize keeps it in W, so no public input does this
        state = state_before(gamma0_symbol(23), "hyperbolic")
        a_pos = reference_step(state)[1][0]
        ids, partner = state.ids, state.partner
        bs_pos = ids.index(partner[ids[a_pos + 1]])
        for p in (state.w_len, bs_pos - 1, bs_pos):
            moved = state_copy(state, None)
            moved.keep = ids[p]
            with pytest.raises(InvalidSymbolError, match="would move or "
                               r"replace the arc \(infinity, 0\)"):
                siegel_step(moved)

    def test_a_prefix_cutting_a_block_leaves_no_step(self, normalized_for):
        # a public state whose W is no union of blocks: the last arc's
        # partner lies in W
        sym = normalized_for(11)
        assert sym.pairing[-1] != sym.n - 1
        with pytest.raises(FareyError, match="no Siegel step applies"):
            siegel_step(NormalizationState(sym, sym.n - 1))

    def test_normalize_checks_each_step_makes_progress(self, monkeypatch):
        # fault: a step that leaves the state as it found it
        monkeypatch.setattr(siegel, "siegel_step", lambda state: state)
        with pytest.raises(FareyError, match="failed to make progress"):
            normalize(gamma0_symbol(23))

    def test_normalize_checks_its_output(self, monkeypatch):
        # fault: a step that declares the whole word normalized
        def done(state):
            state.w_len = state.n
            return state
        monkeypatch.setattr(siegel, "siegel_step", done)
        with pytest.raises(FareyError, match="finished on a non-normalized"):
            normalize(gamma0_symbol(23))

    def test_normalize_validates_its_input_before_any_step(self):
        # Gamma0(11)'s symbol with the level 13 contradicts its own group
        sym = gamma0_symbol(11)
        wrong = FareySymbol(sym.vertices, sym.pairing, sym.ell, 13)
        log = []
        with pytest.raises(InvalidSymbolError, match=r"not Gamma0\(13\)"):
            normalize(wrong, on_step=log.append)
        assert log == []
        normalize(sym, on_step=log.append)
        assert log

    def test_normalize_validates_its_output(self, monkeypatch):
        # fault: the symbol built at the end has its last vertex moved, so
        # the arcs at that vertex change width
        def perturbed(ids, partner, ell, vertices, level):
            p, q = vertices[-1]
            vertices[-1] = Cusp(p + 1, q + 1)
            return symbol_from_ids(ids, partner, ell, vertices, level)

        monkeypatch.setattr(siegel, "symbol_from_ids", perturbed)
        with pytest.raises(InvalidSymbolError, match="have widths"):
            normalize(gamma0_symbol(23))

    def test_a_state_that_is_no_normalization_state_is_refused(self, symbol_for):
        for state in (symbol_for(11), None, 3):
            with pytest.raises(FareyError, match="needs a NormalizationState"):
                siegel_step(state)


class TestNormalize:
    @pytest.mark.parametrize("N,quads,pairs", [
        (15, 1, 3), (20, 1, 5), (37, 2, 1), (14, 1, 3),
        (11, 1, 1), (13, 0, 1), (1, 0, 0),
    ])
    def test_block_counts(self, normalized_for, N, quads, pairs):
        q, p, f = normalized_for(N).block_counts()
        assert (q, p) == (quads, pairs)

    def test_start_words_multiply_back(self, symbol_for, normalized_for):
        """Replayed from a run's step records (start_words), each gluing of
        the unimodular input is the product of its word in the normalized
        gluings: Gamma0(N) for N = 2..79, 180, 210 and 420, and the groups of
        300 seeded permutation draws.  The records are the start rotation
        and the kinds and pivots of the steps on_step sees but the extends,
        and none moved W."""
        def check(uni, sym, log):
            steps = sym._memo["steps"]
            assert steps[0][0] == "start"
            assert [(kind, pivots) for kind, pivots, _, _ in steps[1:]] == [
                (r["kind"], r["pivots"]) for r in log if r["kind"] != "extend"]
            assert all(side != "other" for _, _, _, side in steps)
            word = start_words(steps, uni.pairing)
            for e in range(uni.n):
                assert word_product(sym, word(e)).psl_eq(uni.gluing(e)), e
        for N in [*range(2, 80), 180, 210, 420]:
            log = []
            check(symbol_for(N), normalize(symbol_for(N), on_step=log.append),
                  log)
        rng = random.Random(48)
        for t in range(300):
            built = normalized_permutation_group(
                *(coset_pair(rng) if t % 2 else uniform_pair(rng, 60)))
            if built is not None:
                log = []
                check(built[1], normalize(built[1], on_step=log.append), log)

    def test_too_many_arcs_are_refused_first(self, monkeypatch, symbol_for):
        sym = symbol_for(13)
        monkeypatch.setattr(siegel, "MAX_ARCS", sym.n)
        assert normalize(sym).n == sym.n
        monkeypatch.setattr(siegel, "MAX_ARCS", sym.n - 1)
        # before validation, which refuses the symbol of the wrong level
        wrong = FareySymbol(sym.vertices, sym.pairing, sym.ell, 12)
        for s in (sym, wrong):
            with pytest.raises(InvalidSymbolError, match=(
                    r"^normalize takes at most %d arcs, as its time grows as "
                    r"about n\^3\.5; got %d$" % (sym.n - 1, sym.n))):
                normalize(s)

    def test_only_a_run_on_its_companion_keeps_its_records(self, symbol_for):
        uni = symbol_for(6)
        cut = base_cut(uni, 2, 0, 3, "other")[0]
        assert "steps" in normalize(uni)._memo
        assert "steps" in normalize(uni.rotated(2))._memo
        assert "steps" not in normalize(cut)._memo

    def test_output_is_normalized_and_valid(self, normalized_for):
        for N in (1, 2, 10, 13, 15, 22, 37, 49):
            ns = normalized_for(N)
            assert ns.is_normalized()
            ns.validate(gamma0_oracle(N))
            assert ns.infinity_zero_arc() is not None

    def test_counts_preserved(self, symbol_for, normalized_for):
        for N in range(1, 50):
            assert counts(symbol_for(N)) == counts(normalized_for(N)), N

    def test_factor_counts_match_oracles(self, normalized_for):
        for N in range(1, 60):
            q, p, f = normalized_for(N).block_counts()
            assert q == classical.genus_gamma0(N), N
            assert p == classical.nu_inf_gamma0(N) - 1, N
            assert f == classical.nu2_gamma0(N) + classical.nu3_gamma0(N), N

    def test_group_unchanged_both_directions(self, symbol_for, normalized_for):
        for N in (2, 11, 13, 15):
            s, ns = symbol_for(N), normalized_for(N)
            for m in generators(s).matrices():
                assert express_word(ns, m) is not None
            for m in generators(ns).matrices():
                assert express_word(s, m) is not None

    def test_parabolic_step_moving_the_tail(self):
        # (infinity, 0) sits in the gap before the first pair, so the
        # parabolic step must move the tail block instead (variant B)
        sym = base_cut(gamma0_symbol(6), 2, 0, 3, "other")[0]
        out = normalize(sym)
        out.validate(gamma0_oracle(6))
        assert out.is_normalized() and out.infinity_zero_arc() is not None
        assert counts(out) == (0, 4, 0, 0, 12)
        assert out.block_counts() == (0, 3, 0)

    def test_every_hook_combination_returns_the_symbol(self, symbol_for):
        sym = symbol_for(15)
        plain = normalize(sym)
        for on_op in (None, [].append):
            for on_step in (None, [].append):
                out = normalize(sym, on_op=on_op, on_step=on_step)
                assert isinstance(out, FareySymbol) and out == plain

    def test_trace_log(self, symbol_for):
        log = []
        out = normalize(symbol_for(15), on_step=log.append)
        kinds = [e["kind"] for e in log]
        assert kinds[0] == "extend"
        assert "hyperbolic" in kinds
        assert all(set(e) == {"kind", "pivots", "w_len"} for e in log)
        ws = [e["w_len"] for e in log]
        assert ws == sorted(ws) and ws[-1] == out.n

    def test_normalize_is_idempotent_on_output(self, normalized_for):
        ns = normalized_for(22)
        again = normalize(ns)
        assert again.is_normalized()
        assert counts(again) == counts(ns)

    def test_output_digest_is_pinned(self):
        text = "".join(normalize(gamma0_symbol(N)).to_json() + "\n"
                       for N in range(1, 151))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e94179506169477177b4a3b6720de6b7375c734f5f7492f54ba075f21521c93a")

    def test_heights_stay_modest(self, normalized_for):
        for N in (100, 250):
            h = max(v.height_bits() for v in normalized_for(N).vertices)
            assert h <= N + 10

    @pytest.mark.parametrize("N,digest", [
        (420, DIGEST_420),
        (1000, "81683eed6c092951d361584b6f3fb002f83ac0e49825484ab658a6abd000686b"),
        (2000, "4505535d325ef2dd73b897508d286ad9b6352f49a9ddc85243f36c71a164842a"),
        (3000, "69548916f02a61de56dc0b5fbdca5f6ed7cc6331d38e8e0a34837e95748d48cd"),
    ])
    def test_large_output_digest_is_pinned(self, N, digest):
        text = normalize(gamma0_symbol(N)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_optimized_mode_output_is_pinned(self):
        # python -O strips assert statements, so no check may rest on one
        src = os.path.dirname(os.path.dirname(os.path.abspath(fareysym.__file__)))
        code = ("import hashlib, sys\n"
                "from fareysym.kulkarni import gamma0_symbol\n"
                "from fareysym.siegel import normalize\n"
                "text = normalize(gamma0_symbol(420)).to_json()\n"
                "print(sys.flags.optimize, hashlib.sha256(text.encode()).hexdigest())\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", DIGEST_420]

    def test_intermediate_symbols_are_pinned(self):
        # on_op sees each commit of the run: one symbol per step but an extend
        h = hashlib.sha256()
        count = 0
        for N in range(1, 61):
            ops, log = [], []
            normalize(gamma0_symbol(N), on_op=ops.append, on_step=log.append)
            assert len(ops) == sum(e["kind"] != "extend" for e in log), N
            for s in ops:
                h.update((s.to_json() + "\n").encode())
            count += len(ops)
        assert (count, h.hexdigest()) == (
            254, "284c5adaceba02d074b18caa30fcd894f15aef14ac0b3e4de111e91ef1960397")

    def test_every_rotation_is_pinned(self):
        # every rotation of the unimodular and the normalized symbol: the
        # start rotation, the steps taken, the output and its blocks
        h = hashlib.sha256()
        count = 0
        for N in range(1, 41):
            uni = gamma0_symbol(N)
            for sym in (uni, normalize(uni)):
                for k in range(sym.n):
                    s = sym.rotated(k)
                    if s.is_normalized():
                        h.update(repr(s.factorize()).encode())
                    log = []
                    out = normalize(s, on_step=log.append)
                    h.update((out.to_json() + json.dumps(log)
                              + repr(out.factorize()) + "\n").encode())
                    count += 1
        assert (count, h.hexdigest()) == (
            976, "e53c2a25ef3c08753edff4013297f56be11a9ddf783452b4ab31902185d5b5d5")

    def test_one_symbol_per_normalize(self, monkeypatch):
        symbols = {N: gamma0_symbol(N) for N in (15, 37, 60, 210)}
        built = []
        init = FareySymbol.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FareySymbol, "__init__", counting_init)
        for N, sym in symbols.items():
            del built[:]
            normalize(sym)
            assert len(built) == 1, (N, len(built))
