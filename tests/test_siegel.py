import hashlib

import pytest

from fareysym import classical
from fareysym.exact import FareyError, INFINITY, InvalidSymbolError, ZERO
from fareysym.kulkarni import gamma0_oracle, gamma0_symbol
from fareysym.invariants import counts, express_word, generators
from fareysym.siegel import (NormalizationState, base_cut, base_cut_elliptic,
                             normalize, siegel_step, _start_state)
from fareysym.symbol import FareySymbol


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
        with pytest.raises(FareyError):
            base_cut(s, 1, 3, 7, "pivot")  # cuts on the wrong sides

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


class TestSiegelStep:
    def test_first_step_extends_infinity_pair(self, symbol_for):
        state = _start_state(symbol_for(15))
        state = siegel_step(state)
        assert state.w_len == 2
        assert state.symbol.arc(1) == (INFINITY, ZERO)

    def test_elliptic_step_adds_one(self, symbol_for):
        # level 10 has an elliptic arc separated from the prefix by a gap
        state = _start_state(symbol_for(10))
        kinds = []
        state = NormalizationState(state.symbol, state.w_len, [])
        while not state.done():
            w0 = state.w_len
            state = siegel_step(state)
            kinds.append((state.log[-1]["kind"], state.w_len - w0))
        assert ("elliptic", 1) in kinds

    def test_hyperbolic_step_adds_quad(self, symbol_for):
        state = _start_state(symbol_for(15))
        state = siegel_step(state)   # extend the infinity pair
        w = state.w_len
        state = siegel_step(state)   # first inversion must be hyperbolic
        assert state.w_len == w + 4
        p = state.symbol.pairing
        assert p[w] == w + 2 and p[w + 1] == w + 3

    def test_progress_and_validity_each_step(self, symbol_for):
        oracle = gamma0_oracle(22)
        state = _start_state(symbol_for(22))
        while not state.done():
            w0 = state.w_len
            state = siegel_step(state, on_op=lambda s: s.validate(oracle))
            assert state.w_len > w0

    def test_step_refuses_to_move_infinity_zero(self, symbol_for):
        # unrotated, the (infinity, 0) arc of level 2 starts no ready block,
        # so the first step would have to move it
        state = NormalizationState(symbol_for(2))
        with pytest.raises(InvalidSymbolError, match=r"arc \(infinity, 0\)"):
            siegel_step(state)

    def test_done_state_rejects_further_steps(self, normalized_for):
        state = NormalizationState(normalized_for(11), normalized_for(11).n)
        with pytest.raises(FareyError):
            siegel_step(state)


class TestNormalize:
    @pytest.mark.parametrize("N,quads,pairs", [
        (15, 1, 3), (20, 1, 5), (37, 2, 1), (14, 1, 3),
        (11, 1, 1), (13, 0, 1), (1, 0, 0),
    ])
    def test_block_counts(self, normalized_for, N, quads, pairs):
        q, p, f = normalized_for(N).block_counts()
        assert (q, p) == (quads, pairs)

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

    def test_trace_log(self, symbol_for):
        out, log = normalize(symbol_for(15), collect_log=True)
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
        (420, "c0f78472b2e92a5dc8b4443285b2124810fbcb79439f801f0cd9289dac75d290"),
        (1000, "81683eed6c092951d361584b6f3fb002f83ac0e49825484ab658a6abd000686b"),
        (2000, "4505535d325ef2dd73b897508d286ad9b6352f49a9ddc85243f36c71a164842a"),
    ])
    def test_large_output_digest_is_pinned(self, N, digest):
        text = normalize(gamma0_symbol(N)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_intermediate_symbols_are_pinned(self):
        h = hashlib.sha256()
        count = 0
        for N in range(1, 61):
            ops = []
            normalize(gamma0_symbol(N), on_op=ops.append)
            for s in ops:
                h.update((s.to_json() + "\n").encode())
            count += len(ops)
        assert (count, h.hexdigest()) == (
            584, "7343de62996aec59385315811410a59b70de7c01c9eba18c0fe5b2b7638c1b91")

    def test_at_most_two_symbols_per_normalize(self, monkeypatch):
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
            assert len(built) <= 2, (N, len(built))
