import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from fareysym.cli import check_level, cli_dispatch, make_parser
from fareysym.kulkarni import gamma0_symbol
from fareysym.siegel import base_cut
from fareysym.symbol import FareySymbol


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_build_level_15(self, capsys):
        code, out, _ = run(capsys, "build", "--level", "15")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 10
        assert doc["pairing"] == [9, 5, 6, 8, 7, 1, 2, 4, 3, 0]
        assert doc["level"] == 15

    def test_info_level_37(self, capsys):
        code, out, _ = run(capsys, "info", "--level", "37")
        assert code == 0
        doc = json.loads(out)
        assert doc["genus"] == 2 and doc["nu_inf"] == 2
        assert doc["nu2"] == 2 and doc["nu3"] == 2
        assert doc["index"] == 38

    def test_member_fixture(self, capsys):
        code, out, _ = run(capsys, "member", "--level", "15",
                           "--matrix", "2,-1,15,-7")
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True and doc["word"]

    def test_nonmember(self, capsys):
        code, out, _ = run(capsys, "member", "--level", "15",
                           "--matrix", "1,1,1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is False and doc["word"] is None

    def test_normalize_roundtrip_through_files(self, tmp_path, capsys):
        sym_file = tmp_path / "s.json"
        norm_file = tmp_path / "n.json"
        assert run(capsys, "build", "--level", "20",
                   "--out", str(sym_file))[0] == 0
        assert run(capsys, "normalize", "--in", str(sym_file),
                   "--out", str(norm_file))[0] == 0
        norm = FareySymbol.from_json(norm_file.read_text())
        assert norm.is_normalized()
        assert norm.block_counts() == (1, 5, 0)

    def test_normalize_trace(self, capsys):
        code, out, err = run(capsys, "normalize", "--level", "15", "--trace")
        assert code == 0
        lines = [json.loads(x) for x in err.splitlines() if x.strip()]
        assert lines and all({"kind", "pivots", "w_len"} == set(e) for e in lines)

    def test_presentation(self, capsys):
        code, out, _ = run(capsys, "presentation", "--level", "13")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["mu"]) == 4

    def test_render_styles(self, tmp_path, capsys):
        for style in ("chords", "halfplane", "disk"):
            out_file = tmp_path / ("%s.svg" % style)
            code, _, _ = run(capsys, "render", "--level", "13",
                             "--style", style, "--out", str(out_file))
            assert code == 0
            ET.parse(out_file)

    def test_scan_range(self, capsys):
        code, out, err = run(capsys, "scan", "--from", "1", "--to", "12")
        assert code == 0
        assert "0 failure(s)" in out

    def test_scan_full_range(self, capsys):
        # the whole desk-scale range passes the invariant suite
        code, out, _ = run(capsys, "scan", "--from", "1", "--to", "300")
        assert code == 0
        assert "0 failure(s)" in out


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "build")[0] == 1
        assert run(capsys, "bogus")[0] == 1

    def test_validation_failure_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["1/0", "0/1"], "pairing": [0, 0]}')
        assert run(capsys, "info", "--in", str(bad))[0] == 2
        assert run(capsys, "member", "--level", "5",
                   "--matrix", "2,0,0,1")[0] == 2
        assert run(capsys, "member", "--level", "5",
                   "--matrix", "nope")[0] == 2
        assert run(capsys, "info", "--in", str(tmp_path / "missing.json"))[0] == 2

    def test_normalize_names_its_start_limitation(self, tmp_path, capsys):
        # a valid symbol whose arc (infinity, 0) lies in no block at the
        # start; normalize picks the rotation itself, so rotating is no cure
        path = tmp_path / "cut.json"
        path.write_text(base_cut(gamma0_symbol(10), 2, 0, 3, "other")[0].to_json())
        code, _, err = run(capsys, "normalize", "--in", str(path))
        assert code == 2
        assert "lies in no block" in err and "rotate" not in err

    @pytest.mark.parametrize("command", ["info", "normalize"])
    @pytest.mark.parametrize("change", [
        {"vertices": ["1/0", "0/1", "0/0"]},
        {"ell": [2]},
        {"level": "two"},
        {"level": 2.5},
        {"level": True},
        {"vertices": ["1/0", "0/1"], "pairing": [1, 0], "ell": {}},
        {"pairing": [2.9, 1, 0]},
        {"pairing": ["2", 1, 0]},
        {"pairing": [2, True, 0]},
        {"ell": {"1": 2.2}},
        # keys that int() reads as arc 1 but that are not its decimal name;
        # the first pair would otherwise give arc 1 both orders
        {"ell": {"1": 2, "01": 3}},
        {"ell": {"01": 2}},
        {"ell": {" 1": 2}},
        {"ell": {"+1": 2}},
        {"level": 0},
        {"level": -3},
    ])
    def test_malformed_input_is_2(self, tmp_path, capsys, command, change):
        doc = {"vertices": ["1/0", "0/1", "1/1"], "pairing": [2, 1, 0],
               "ell": {"1": 2}, "level": 2}
        doc.update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, command, "--in", str(bad))[0] == 2


    @pytest.mark.parametrize("command", ["info", "normalize", "presentation"])
    def test_vertices_winding_twice_are_2(self, tmp_path, capsys, command):
        # every consecutive triple is in circular order, but the list goes
        # twice around P^1(R), so it bounds no polygon
        doc = {"vertices": ["1/0", "0/1", "1/2", "-1/1", "-1/2", "3/1"],
               "pairing": [0, 1, 2, 3, 4, 5],
               "ell": {"0": 2, "1": 2, "2": 3, "3": 2, "4": 3, "5": 2}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--in", str(bad))
        assert (code, out) == (2, "")
        assert "increasing" in err

    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["build", "--level"],
        ["info", "--level"],
        ["normalize", "--level"],
        ["presentation", "--level"],
        ["render", "--level"],
        ["member", "--matrix", "1,0,0,1", "--level"],
        ["render", "--level", "6", "--width"],
        ["render", "--level", "6", "--height"],
    ])
    def test_nonpositive_size_is_2(self, capsys, argv, size):
        code, out, err = run(capsys, *argv, size)
        assert (code, out) == (2, "")
        assert "positive" in err


class TestParserReuse:
    CALLS = [
        ["build"],
        ["info", "--level", "13"],
        ["build", "--level", "15"],
        ["render", "--level", "7", "--style", "disk"],
        ["info", "--level", "6"],
    ]

    def test_cached_parser_matches_fresh_parser(self, capsys):
        assert make_parser() is make_parser()
        cached = [run(capsys, *argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            make_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [c[0] for c in cached] == [1, 0, 0, 0, 0]
        assert cached == fresh


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# values that int() refuses or reads loosely
odd_numbers = st.sampled_from([float("inf"), float("-inf"), float("nan"),
                               2.5, 1e300, True, "1", None])
cusp_texts = st.builds("%d/%d".__mod__,
                       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))


@st.composite
def near_valid_symbols(draw, symbols):
    """The JSON of a symbol from symbols (a list of fixture getters, N ->
    FareySymbol) at a level up to 30, after up to three small edits."""
    doc = draw(st.sampled_from(symbols))(draw(st.integers(1, 30))).to_dict()
    verts, pairing = list(doc["vertices"]), list(doc["pairing"])
    ell = dict(doc["ell"])
    replaced = {}
    for _ in range(draw(st.integers(0, 3))):
        n = len(verts)
        edit = draw(st.sampled_from(["vertex", "pair", "swap", "drop",
                                     "rotate", "ell", "level", "key"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if edit == "vertex":
            verts[i] = draw(cusp_texts)
        elif edit == "pair":
            pairing[i] = draw(st.integers(-1, n) | odd_numbers | json_values)
        elif edit == "swap":
            pairing[i], pairing[j] = pairing[j], pairing[i]
        elif edit == "drop" and n > 2:
            del verts[i]
            del pairing[i]
        elif edit == "rotate":
            verts = verts[i:] + verts[:i]
        elif edit == "ell":
            ell[str(i)] = draw(st.integers(-1, 4) | odd_numbers | json_values)
        elif edit == "level":
            doc["level"] = draw(json_values)
        elif edit == "key":
            key = draw(st.sampled_from(["vertices", "pairing", "ell"]))
            replaced[key] = draw(json_values)
    doc.update(vertices=verts, pairing=pairing, ell=ell)
    doc.update(replaced)
    return doc


def test_fuzzed_input_exits_0_1_or_2(tmp_path, capsys, symbol_for,
                                    normalized_for):
    path = tmp_path / "in.json"
    documents = (
        json_values
        | st.fixed_dictionaries({}, optional={
            key: json_values for key in ("vertices", "pairing", "ell", "level")})
        | near_valid_symbols([symbol_for, normalized_for]))

    @settings(max_examples=300, deadline=None)
    @given(documents,
           st.sampled_from(["info", "normalize", "presentation", "render"]))
    def prop(doc, command):
        path.write_text(json.dumps(doc))
        assert run(capsys, command, "--in", str(path))[0] in (0, 1, 2)
    prop()


class TestCheckLevel:
    def test_clean_level(self):
        assert check_level(30) == []
