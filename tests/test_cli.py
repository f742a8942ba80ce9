import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from fareysym import classical
from fareysym import cli
from fareysym.cli import (_info_json, _member_json, _presentation_json,
                          _written, check_level, cli_dispatch, make_parser)
from fareysym.delta0 import delta0_presentation
from fareysym.exact import FareyError, IMat, _int_of, _int_str
from fareysym.invariants import generators, word_product
from fareysym.kulkarni import MAX_INDEX, gamma0_symbol
from fareysym.siegel import base_cut, base_cut_elliptic, normalize
from fareysym.symbol import FareySymbol

# sha256 over the info and presentation JSON, in that order, of the
# unimodular and then the normalized symbol of each level in INFO_LEVELS,
# each read back through --in; info prints every generator's matrix, signs
# included
INFO_LEVELS = list(range(1, 101)) + [180, 420]
INFO_DIGEST = "ff5341ad88cc7586ea42d99bc3b8899ef8732f92819e5e14646c6a3e982b897e"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    @pytest.mark.parametrize("argv, code", [(["info", "--level", "11"], 0),
                                            (["info", "--level", "0"], 2)])
    def test_main_exits_with_the_dispatch_status(self, capsys, monkeypatch,
                                                 argv, code):
        # main in this process: the tests of the console script spawn it
        want = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["fareysym"] + argv)
        with pytest.raises(SystemExit) as exit_:
            cli.main()
        out = capsys.readouterr()
        assert (exit_.value.code, out.out, out.err) == want
        assert want[0] == code

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

    def test_member_negative_first_entry(self, capsys):
        # argparse reads a separate "-1,0,0,-1" as an option; the attached
        # form --matrix=... passes it as the value
        code, out, err = run(capsys, "member", "--level", "6",
                             "--matrix=-1,0,0,-1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["member"] is True and doc["word"] == []

    def test_member_past_the_digit_limit(self, capsys):
        # a member of Gamma0(6) with an entry of 5000 digits, which int()
        # refuses: --matrix was refused with exit 2
        b = "1" * 5000
        code, out, err = run(capsys, "member", "--level", "6",
                             "--matrix", "1,%s,0,1" % b)
        assert (code, err) == (0, "")
        assert out.startswith('{"level": 6, "matrix": [1, %s, 0, 1], '
                              '"member": true, "word": [[' % b)
        doc = json.loads(out, parse_int=_int_of)
        g = IMat(*doc["matrix"])
        assert g == (1, _int_of(b), 0, 1)
        word = [tuple(t) for t in doc["word"]]
        assert word_product(gamma0_symbol(6), word).psl_eq(g)
        code, out, err = run(capsys, "member", "--level", "6",
                             "--matrix", "1,%sx,0,1" % b)
        assert (code, out) == (2, "")
        assert err == "error: --matrix wants four comma-separated integers\n"

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

    def test_info_and_presentation_digest_is_pinned(self, tmp_path, capsys,
                                                    symbol_for, normalized_for):
        path = tmp_path / "s.json"
        h = hashlib.sha256()
        for N in INFO_LEVELS:
            for sym in (symbol_for(N), normalized_for(N)):
                path.write_text(sym.to_json())
                for command in ("info", "presentation"):
                    code, out, _ = run(capsys, command, "--in", str(path))
                    assert code == 0, (N, command)
                    h.update(out.encode())
        assert h.hexdigest() == INFO_DIGEST

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

    def test_an_internal_fault_is_3(self, capsys, monkeypatch):
        # a FareyError that is no refusal of the input, here put into the
        # command's callee, is the program's own fault
        def broken(sym, **kwargs):
            raise FareyError("injected fault")

        monkeypatch.setattr(cli, "normalize", broken)
        assert run(capsys, "normalize", "--level", "11") == (
            3, "", "internal error: injected fault\n")

    def test_normalize_names_its_start_limitation(self, tmp_path, capsys):
        # a valid symbol whose arc (infinity, 0) lies in no block at the
        # start; normalize picks the rotation itself, so rotating is no cure
        path = tmp_path / "cut.json"
        path.write_text(base_cut(gamma0_symbol(10), 2, 0, 3, "other")[0].to_json())
        code, _, err = run(capsys, "normalize", "--in", str(path))
        assert code == 2
        assert "lies in no block" in err and "rotate" not in err

    @pytest.mark.parametrize("command", ["info", "normalize", "presentation",
                                         "render"])
    def test_no_symbol_is_2(self, capsys, command):
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err == "error: either --level or --in is required\n"

    @pytest.mark.parametrize("command", ["info", "normalize", "presentation",
                                         "render"])
    @pytest.mark.parametrize("normal,level", [(False, 7), (True, 10**40 + 3)],
                             ids=["level-7", "huge-level"])
    def test_level_contradicting_the_group_is_2(self, tmp_path, capsys,
                                               command, normal, level):
        """The N = 6 symbol with another level: its gluings have c = 0 mod
        6 only, so validation refuses it before the level is factored."""
        sym = gamma0_symbol(6)
        doc = (normalize(sym) if normal else sym).to_dict()
        doc["level"] = level
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--in", str(bad))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: the symbol's group is not Gamma0(%d), its "
                       "level\n" % level)

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

    @pytest.mark.parametrize("command", ["info", "normalize"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe",                    # not UTF-8
        b"[" * 1000 + b"]" * 1000,      # nested deeper than the parser goes
        # an integer longer than int() converts from text
        b'{"vertices": ["1/0", "0/1"], "pairing": [0, 1], '
        b'"ell": {"0": 2, "1": 3}, "level": 1' + b"0" * 4999 + b"}",
    ], ids=["not-utf8", "deep", "long-int"])
    def test_unreadable_file_is_2(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, command, "--in", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["info", "normalize"])
    @pytest.mark.parametrize("doc,message", [
        # the two arcs of (infinity, 0) glued to each other by the identity
        ({"vertices": ["1/0", "0/1"], "pairing": [1, 0], "ell": {}},
         "identity"),
        # the width-3 arcs (0, 3) and (3, 6) have equal widths, but their
        # gluing is not integral
        ({"vertices": ["1/0", "0/1", "3/1", "6/1"], "pairing": [3, 2, 1, 0],
          "ell": {}}, "not divisible by 3"),
        # the arc (infinity, 0) of width 1 paired with (2/5, 1) of width 3
        ({"vertices": ["1/0", "0/1", "2/5", "1/1"], "pairing": [2, 1, 0, 3],
          "ell": {"1": 2, "3": 2}}, "widths"),
    ])
    def test_bad_gluing_is_2(self, tmp_path, capsys, command, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--in", str(bad))
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

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
        ["scan", "--from", "1", "--to", "3", "--jobs"],
        ["scan", "--to", "3", "--from"],
    ])
    def test_nonpositive_size_is_2(self, capsys, argv, size):
        code, out, err = run(capsys, *argv, size)
        assert (code, out) == (2, "")
        assert "positive" in err

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The sizes of the pools scan starts.  The pool is a stand-in that
        records its size and streams in this process, so no worker is
        started; it has no map, which would hold one result slot per level."""
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items):
                return map(func, items)

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        return sizes

    @pytest.mark.parametrize("jobs,levels,size", [
        ("64", ("1", "3"), 3), ("2", ("1", "3"), 2), ("8", ("5", "5"), None),
        ("1", ("1", "3"), None), ("64", ("1", "9"), 4)])
    def test_scan_starts_no_more_workers_than_levels(
            self, capsys, monkeypatch, pool_sizes, jobs, levels, size):
        """Nor more than the 4 cores os.cpu_count is made to report."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        code, out, _ = run(capsys, "scan", "--from", levels[0],
                           "--to", levels[1], "--jobs", jobs)
        assert code == 0 and "0 failure(s)" in out
        assert pool_sizes == ([size] if size else [])

    def test_scan_without_a_cpu_count_starts_no_workers(
            self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        code, out, _ = run(capsys, "scan", "--from", "1", "--to", "3",
                           "--jobs", "2")
        assert code == 0 and "scanned 3 levels, 0 failure(s)" in out
        assert pool_sizes == []

    @pytest.mark.parametrize("counts,widths,failures", [
        (None, None, 3), ((9, 9, 9, 9, 9), [], 12)], ids=["raises", "wrong"])
    def test_scan_reports_failed_levels(self, capsys, monkeypatch, counts,
                                        widths, failures):
        """Broken classical formulas fail every level: by a FareyError
        (one failure each) or by wrong values (counts, widths, normalized
        counts and block counts: four each)."""
        def counts_gamma0(N):
            if counts is None:
                raise FareyError("no counts for %d" % N)
            return counts

        monkeypatch.setattr(classical, "counts_gamma0", counts_gamma0)
        if widths is not None:
            monkeypatch.setattr(classical, "cusp_widths_gamma0",
                                lambda N: widths)
        code, out, err = run(capsys, "scan", "--from", "4", "--to", "6")
        assert code == 2
        assert out == "scanned 3 levels, %d failure(s)\n" % failures
        lines = err.splitlines()
        assert len(lines) == failures + 1
        assert all(line.startswith("N=%d: " % N) for line, N in
                   zip(lines, sorted([4, 5, 6] * (failures // 3))))
        assert lines[-1] == ("error: %d level(s) failed the invariant suite"
                             % failures)

    def test_empty_scan_range_is_2(self, capsys):
        code, out, err = run(capsys, "scan", "--from", "5", "--to", "4",
                             "--jobs", "8")
        assert (code, out) == (2, "")
        assert "--from 5 must not exceed --to 4" in err

    @pytest.mark.parametrize("argv", [
        ["build", "--level", "1" + "0" * 30],
        ["build", "--level", "18446744073709551557"],  # a prime past 2^63
        ["member", "--level", "1" + "0" * 30, "--matrix", "1,0,0,1"],
        ["build", "--level", "1000000000000"],
        ["build", "--level", "9223372036854775783"],  # the prime below 2^63
        ["normalize", "--level", str(MAX_INDEX + 1)],
    ])
    def test_level_too_large_to_build_is_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: Gamma0(%s) has index above %d, too large to "
                       "build\n" % (argv[2], MAX_INDEX))

    def test_scan_past_maxsize_is_2(self, capsys):
        code, out, err = run(capsys, "scan", "--from", "1",
                             "--to", "1" + "0" * 30)
        assert (code, out) == (2, "")
        assert err == ("error: --to must be at most %d, got 1%s\n"
                       % (MAX_INDEX, "0" * 30))

    @pytest.mark.parametrize("stop", [sys.maxsize, MAX_INDEX + 1])
    def test_scan_past_the_index_bound_is_2_at_once(self, capsys, stop):
        # no level past MAX_INDEX can be built, so no such range is scanned
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", "--from", "1", "--to", str(stop),
                             "--jobs", "2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: --to must be at most %d, got %d\n" % (MAX_INDEX, stop)

    def test_scan_reaches_the_index_bound_itself(self, capsys, monkeypatch):
        # with the bound lowered to 6, --to 6 scans and --to 7 is refused
        monkeypatch.setattr(cli, "MAX_INDEX", 6)
        assert run(capsys, "scan", "--from", "5", "--to", "6") == (
            0, "scanned 2 levels, 0 failure(s)\n", "")
        assert run(capsys, "scan", "--from", "5", "--to", "7") == (
            2, "", "error: --to must be at most 6, got 7\n")

    def test_scan_with_worker_processes(self):
        """One real multiprocessing.Pool run, through the module's entry
        point in a fresh interpreter."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run(
            [sys.executable, "-m", "fareysym.cli", "scan", "--from", "1",
             "--to", "12", "--jobs", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "scanned 12 levels, 0 failure(s)\n"


# every option of every subcommand: (dest, type, default, required, choices)
_LEVEL_IN = {"--level": ("level", int, None, False, None),
             "--in": ("infile", None, None, False, None)}
_OUT = {"--out": ("out", None, None, False, None)}
OPTIONS = {
    "build": {"--level": ("level", int, None, True, None), **_OUT},
    "normalize": {**_LEVEL_IN, **_OUT,
                  "--trace": ("trace", None, False, False, None)},
    "info": {**_LEVEL_IN, **_OUT},
    "presentation": {**_LEVEL_IN, **_OUT},
    "member": {"--level": ("level", int, None, True, None),
               "--matrix": ("matrix", None, None, True, None), **_OUT},
    "render": {**_LEVEL_IN, **_OUT,
               "--style": ("style", None, "chords", False,
                           ("chords", "halfplane", "disk")),
               "--width": ("width", int, 600, False, None),
               "--height": ("height", int, 400, False, None)},
    "scan": {"--from": ("start", int, None, True, None),
             "--to": ("stop", int, None, True, None),
             "--jobs": ("jobs", int, 1, False, None)},
}


def test_every_subcommand_keeps_its_options():
    # the options shared through parent parsers are declared once; each
    # subcommand must still get every option it declared on its own
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {"/".join(a.option_strings):
                  (a.dest, a.type, a.default, a.required, a.choices)
                  for a in parser._actions if a.dest != "help"}
           for name, parser in sub.choices.items()}
    assert got == OPTIONS


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

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_block_count_is_checked(self, monkeypatch, k):
        # fault: the normalized symbol's count of quads, pairs or fixed
        # arcs, one at a time, is one too many
        counts = FareySymbol.block_counts
        monkeypatch.setattr(FareySymbol, "block_counts", lambda self: tuple(
            x + (t == k) for t, x in enumerate(counts(self))))
        want = [3, 7, 0]  # genus 3, 8 cusps, no elliptic points
        want[k] += 1
        assert check_level(30) == ["N=30: block counts (%d,%d,%d) off"
                                   % tuple(want)]


# the fuzz corpus: the unimodular and the normalized symbol of each level
FUZZ_LEVELS = (1, 2, 3, 4, 6, 7, 11, 13, 25, 30)
FUZZ_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?'
                        rb'|true|false|null|[\[\]{}:,]')
FUZZ_POOL = (b"0", b"-1", b"2", b"3", b"7", b"1" + b"0" * 40, b"2.5", b"null",
             b"true", b"[]", b"{}", b'"1/0"', b'"0/1"', b'"-1/2"', b'"3/0"',
             b'"0/0"', b'"x"', b'"2"', b'"01"', b'["1/0"]', b'{"0": 2}')


def mutate_bytes(rng, data):
    """One byte-level edit: overwrite, insert or delete a byte, or copy a
    run of bytes elsewhere."""
    i = rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if kind == 1:
        return data[:i] + bytes([rng.choice(b'0123456789-/",:[]{}')]) + data[i:]
    if kind == 2:
        return data[:i] + data[i + 1:]
    j = rng.randrange(len(data))
    return data[:j] + data[i:i + rng.randrange(1, 12)] + data[j:]


def mutate_tokens(rng, data):
    """One token-level edit of a JSON text that keeps it JSON (but for a
    duplicate key): replace a value by one from FUZZ_POOL or by another
    value of the text of the same kind (string or not), swap two such
    values, or drop or repeat a list item."""
    toks = FUZZ_TOKEN.findall(data)
    values = [k for k, t in enumerate(toks) if t not in b"[]{}:,"
              and toks[k + 1] != b":"]
    i = rng.choice(values)
    j = rng.choice([k for k in values if toks[k][:1] == toks[i][:1] == b'"'
                    or b'"' not in toks[k][:1] + toks[i][:1]])
    kind = rng.randrange(4)
    if kind == 0:
        toks[i] = rng.choice(FUZZ_POOL)
    elif kind == 1:
        toks[i] = toks[j]
    elif kind == 2:
        toks[i], toks[j] = toks[j], toks[i]
    elif toks[i + 1] == b"," and toks[i - 1] in b"[,":
        toks[i:i + 2] = [] if rng.randrange(2) else toks[i:i + 2] * 2
    return b" ".join(toks)


def test_mutated_files_exit_0_or_2(tmp_path, capsys, symbol_for,
                                   normalized_for):
    """Seeded byte- and token-level mutations of the JSON of 20 symbols
    (N <= 30, unimodular and normalized), read through --in by four
    commands: each run exits 0, or 2 with one error line, and none raises."""
    rng = random.Random(20261018)
    path = tmp_path / "in.json"
    seen = set()
    for N in FUZZ_LEVELS:
        for sym in (symbol_for(N), normalized_for(N)):
            data = sym.to_json().encode()
            for command in ("info", "normalize", "presentation", "render"):
                for mutate in (mutate_bytes,) * 4 + (mutate_tokens,) * 8:
                    mutant = data
                    for _ in range(rng.randrange(1, 4)):
                        mutant = mutate(rng, mutant)
                    path.write_bytes(mutant)
                    code, out, err = run(capsys, command, "--in", str(path))
                    assert code in (0, 2), (command, mutant, err)
                    if code == 2:
                        assert out == "" and err.startswith("error: "), (command, mutant)
                        assert err.count("\n") == 1, (command, mutant, err)
                    seen.add(code)
    assert seen == {0, 2}


# keys and strings that exercise every escape: non-ASCII (astral included),
# quote, backslash and control characters
json_texts = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e')
                     | st.characters(), max_size=6)
json_ints = st.integers(-2 ** 800, 2 ** 800)
# a matrix as the documents hold it: an IMat in info, a list in presentation
json_matrices = (st.builds(IMat, json_ints, json_ints, json_ints, json_ints)
                 | st.lists(json_ints, min_size=4, max_size=4))


def records(**fields):
    """Dicts with these keys in this order, as the commands make them, each
    value drawn from its strategy."""
    return st.tuples(*fields.values()).map(lambda vs: dict(zip(fields, vs)))


info_fields = dict(
    n_arcs=json_ints, unimodular=st.booleans(), normalized=st.booleans(),
    genus=json_ints, nu_inf=json_ints, nu2=json_ints, nu3=json_ints,
    index=json_ints,
    cusps=st.lists(records(
        representative=json_texts, width=json_ints,
        stabilizer_word=st.lists(st.tuples(json_ints, json_ints), max_size=4)),
        max_size=4),
    generators=st.lists(records(**{"matrix": json_matrices,
                                   "class": json_texts, "arc": json_ints}),
                        max_size=4),
    symplectic_pairs=st.lists(st.tuples(json_matrices, json_matrices),
                              max_size=3))
info_documents = records(**info_fields) | records(**info_fields, level=json_ints)
json_relations = st.dictionaries(
    json_texts, st.lists(st.tuples(json_ints, json_matrices).map(list),
                         max_size=3), max_size=4)
presentation_documents = records(**{
    "generators": st.lists(json_ints, max_size=5),
    "elliptic": st.dictionaries(json_texts, json_ints, max_size=4),
    "lambda": json_relations, "mu": json_relations})
member_documents = records(
    level=json_ints, matrix=st.lists(json_ints, min_size=4, max_size=4),
    member=st.booleans(),
    word=st.none() | st.lists(st.lists(json_ints, min_size=2, max_size=2),
                              max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.tuples(st.just(_info_json), info_documents, st.just(2))
       | st.tuples(st.just(_presentation_json), presentation_documents,
                   st.just(2))
       | st.tuples(st.just(_member_json), member_documents, st.none()))
def test_written_gives_json_dumps_bytes(write_doc):
    # info and presentation print with indent=2, member without
    write, doc, indent = write_doc
    assert _written(write, doc) == json.dumps(doc, indent=indent)


def tall_symbol(bits):
    """A valid symbol with a vertex of more than `bits` bits: seeded base
    cuts on gamma0_symbol(11), each kept when it raises the height and
    keeps the arc (infinity, 0)."""
    rng = random.Random(14)
    sym, height = gamma0_symbol(11), 0
    while height <= bits:
        n = sym.n
        i = rng.randrange(n)
        j = sym.pairing[i]
        if i == j:
            out = base_cut_elliptic(sym, i, rng.randrange(n),
                                    rng.choice(("before", "after")))[0]
        else:
            c1 = (j + 1 + rng.randrange((i - j - 1) % n + 1)) % n
            c2 = (i + 1 + rng.randrange((j - i - 1) % n + 1)) % n
            out = base_cut(sym, i, c1, c2, rng.choice(("pivot", "other")))[0]
        h = max(v.height_bits() for v in out.vertices)
        if h > height and out.infinity_zero_arc() is not None:
            sym, height = out, h
    return sym


def test_symbol_past_the_digit_limit_crosses_json(tmp_path, capsys):
    # 4300 digits, CPython's limit on int <-> str, is about 14,284 bits;
    # this symbol's vertices reach 37,397 bits and its gluings 22,048
    sym = tall_symbol(30000)
    sym.validate()
    text = sym.to_json()
    assert FareySymbol.from_json(text) == sym
    path = tmp_path / "tall.json"
    path.write_text(text)
    code, out, err = run(capsys, "info", "--in", str(path))
    assert code == 0, err
    doc = json.loads(out, parse_int=_int_of)
    assert [g["matrix"] for g in doc["generators"]] == [
        list(m) for m in generators(sym).matrices()]
    assert max(abs(x) for g in doc["generators"] for x in g["matrix"]) > 10**4300
    code, out, err = run(capsys, "presentation", "--in", str(path))
    assert code == 0, err
    assert json.loads(out, parse_int=_int_of) == delta0_presentation(sym).to_jsonable()
    # normalize reads and validates it, then stops at the known gap of an
    # arc (infinity, 0) that lies in no block of the input word (ROADMAP
    # item 6), so its refusal shows that the file was read
    code, out, err = run(capsys, "normalize", "--in", str(path))
    assert code == 2 and "arc (infinity, 0)" in err, err


def test_written_ints_past_the_digit_limit():
    # json.dumps refuses them; the bytes are json.dumps's layout with each
    # such int written whole
    def info(x):
        return {"n_arcs": x, "unimodular": True, "normalized": False,
                "genus": 1, "nu_inf": -x, "nu2": 0, "nu3": 0, "index": x,
                "cusps": [{"representative": "1/0", "width": x,
                           "stabilizer_word": [(x, -1), (2, 1)]}],
                "generators": [{"matrix": IMat(x, -x, 0, 1), "class": "x",
                                "arc": 2}],
                "symplectic_pairs": [(IMat(1, x, 0, 1), IMat(1, 0, -x, 1))],
                "level": x}

    def presentation(x):
        return {"generators": [x, 2], "elliptic": {"3": x},
                "lambda": {"0": [[x, [1, x, -x, 2]]], "3": []}, "mu": {"3": []}}

    def member(x):
        return {"level": 6, "matrix": [1, x, 0, 1], "member": True,
                "word": [[0, 1], [2, -x]]}

    big = 7 * 10**5000 + 3
    for write, doc, indent in ((_info_json, info, 2),
                               (_presentation_json, presentation, 2),
                               (_member_json, member, None)):
        text = _written(write, doc(big))
        assert text.replace(_int_str(big), "7") == json.dumps(doc(7),
                                                              indent=indent)
        assert json.loads(text, parse_int=_int_of) == json.loads(
            json.dumps(doc(7)).replace("7", _int_str(big)), parse_int=_int_of)
