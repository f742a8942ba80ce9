"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation failure on the inputs,
3 internal invariant violation.  Symbols travel as JSON objects with keys
"vertices", "pairing", "ell" and optional "level".  To revalidate the
symbols a normalization commits, one per Siegel step that cuts, call
normalize(sym, on_op=lambda s: s.validate()).  info and presentation
print the bytes json.dumps(doc, indent=2) gives and member those of
json.dumps(doc), each written by one % template per record kind joined with
str.join (_info_json, _presentation_json, _member_json): CPython's C
encoder runs only without indent.  All three go through _written: a
document holding an int past CPython's 4300-digit limit, which json.dumps
refuses, is written again by the same templates with each int formatted by
exact._int_str.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import classical
from .exact import (FareyError, IMat, InvalidSymbolError, NotNormalizedError,
                    _int_arg, _int_of, _int_str)
from .invariants import counts, cusp_orbits, express_word, generators
from .kulkarni import MAX_INDEX, gamma0_oracle, gamma0_symbol
from .render import STYLES, RenderSpec, render_chords, render_polygon
from .siegel import check_arcs, normalize
from .symbol import FareySymbol
from .delta0 import delta0_presentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _load_symbol(args):
    if args.infile:
        with open(args.infile, "rb") as fh:
            sym = FareySymbol.from_json(fh.read())
        sym.validate()
        return sym
    if args.level is not None:
        return gamma0_symbol(args.level)
    raise InvalidSymbolError("either --level or --in is required")


def _matrix(pad):
    """The template of a matrix's four ints, as json.dumps(..., indent=2)
    writes them in a list opened at indentation pad."""
    return "[\n%s\n%s]" % (",\n".join([pad + "  %s"] * 4), pad)


# one % template per record kind, each written at its place in the document
_INFO = ('{\n  "n_arcs": %s,\n  "unimodular": %s,\n  "normalized": %s,\n'
         '  "genus": %s,\n  "nu_inf": %s,\n  "nu2": %s,\n  "nu3": %s,\n'
         '  "index": %s,\n  "cusps": %s,\n  "generators": %s,\n'
         '  "symplectic_pairs": %s%s\n}')
_LEVEL = ',\n  "level": %s'
_CUSP = ('    {\n      "representative": %s,\n      "width": %s,\n'
         '      "stabilizer_word": %s\n    }')
_LETTER = "        [\n          %s,\n          %s\n        ]"
_GENERATOR = ('    {\n      "matrix": ' + _matrix("      ")
              + ',\n      "class": %s,\n      "arc": %s\n    }')
_PAIR = "    [\n      %s,\n      %s\n    ]" % ((_matrix("      "),) * 2)
_PRESENTATION = ('{\n  "generators": %s,\n  "elliptic": %s,\n  "lambda": %s,'
                 '\n  "mu": %s\n}')
_TERM = "      [\n        %s,\n        " + _matrix("        ") + "\n      ]"
_MEMBER = '{"level": %s, "matrix": [%s, %s, %s, %s], "member": %s, "word": %s}'


def _block(items, pad, brackets="[]"):
    """A list (or, with brackets "{}", a dict) as json.dumps(..., indent=2)
    writes it when opened at indentation pad: items are its entries, each
    already written at pad plus two spaces."""
    if not items:
        return brackets
    return "%s\n%s\n%s%s" % (brackets[0], ",\n".join(items), pad, brackets[1])


def _info_json(doc, ints):
    """json.dumps(doc, indent=2) for the document _cmd_info makes; ints
    turns a sequence of the document's ints into the tuple its template
    formats."""
    cusps = [_CUSP % (encode_basestring_ascii(c["representative"]),
                      *ints((c["width"],)),
                      _block([_LETTER % ints(t) for t in c["stabilizer_word"]],
                             "      "))
             for c in doc["cusps"]]
    gens = [_GENERATOR % (*ints(g["matrix"]), encode_basestring_ascii(g["class"]),
                          *ints((g["arc"],)))
            for g in doc["generators"]]
    pairs = [_PAIR % ints((*a, *b)) for a, b in doc["symplectic_pairs"]]
    level = _LEVEL % ints((doc["level"],)) if "level" in doc else ""
    return _INFO % (*ints((doc["n_arcs"],)),
                    "true" if doc["unimodular"] else "false",
                    "true" if doc["normalized"] else "false",
                    *ints((doc["genus"], doc["nu_inf"], doc["nu2"], doc["nu3"],
                           doc["index"])),
                    _block(cusps, "  "), _block(gens, "  "), _block(pairs, "  "),
                    level)


def _presentation_json(doc, ints):
    """json.dumps(doc, indent=2) for a Delta0Presentation.to_jsonable()
    document; ints as for _info_json."""
    def relations(terms):
        return _block(["    %s: %s" % (encode_basestring_ascii(k), _block(
            [_TERM % ints((c, *m)) for c, m in v], "    "))
            for k, v in terms.items()], "  ", "{}")
    ell = doc["elliptic"]
    return _PRESENTATION % (
        _block(["    %s" % x for x in ints(doc["generators"])], "  "),
        _block(["    %s: %s" % kv for kv in
                zip(map(encode_basestring_ascii, ell), ints(ell.values()))],
               "  ", "{}"),
        relations(doc["lambda"]), relations(doc["mu"]))


def _member_json(doc, ints):
    """json.dumps(doc) for the document _cmd_member makes; ints as for
    _info_json."""
    word = doc["word"]
    return _MEMBER % (*ints((doc["level"], *doc["matrix"])),
                      "true" if doc["member"] else "false",
                      "null" if word is None else "[%s]" % ", ".join(
                          ["[%s, %s]" % ints(letter) for letter in word]))


def _written(write, doc):
    """write(doc, tuple): the templates format the ints themselves.  A
    document holding an int past CPython's digit limit, which they and
    json.dumps refuse, is written again with each int by exact._int_str."""
    try:
        return write(doc, tuple)
    except ValueError:
        return write(doc, lambda xs: tuple(map(_int_str, xs)))


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_build(args):
    sym = gamma0_symbol(args.level)
    _emit(sym.to_json(), args.out)


def _cmd_normalize(args):
    if not args.infile and args.level is not None and 0 < args.level <= MAX_INDEX:
        # refused before it is built: Gamma0(N) has 3(n - 2) + nu3 = index
        N = args.level
        check_arcs((classical.index_gamma0(N) - classical.nu3_gamma0(N)) // 3 + 2)
    sym = _load_symbol(args)
    on_step = None
    if args.trace:
        def on_step(entry):
            sys.stderr.write(json.dumps(entry) + "\n")
    _emit(normalize(sym, on_step=on_step).to_json(), args.out)


def _cmd_info(args):
    sym = _load_symbol(args)
    g, nu_inf, nu2, nu3, index = counts(sym)
    gens = generators(sym)
    doc = {
        "n_arcs": sym.n,
        "unimodular": sym.is_unimodular(),
        "normalized": sym.is_normalized(),
        "genus": g,
        "nu_inf": nu_inf,
        "nu2": nu2,
        "nu3": nu3,
        "index": index,
        "cusps": [{"representative": str(o.representative),
                   "width": o.width,
                   "stabilizer_word": o.stabilizer_word}
                  for o in cusp_orbits(sym)],
        "generators": [{"matrix": m, "class": tag, "arc": i}
                       for m, tag, i in gens.entries],
        "symplectic_pairs": gens.symplectic_pairs,
    }
    if sym.level is not None:
        doc["level"] = sym.level
    _emit(_written(_info_json, doc), args.out)


def _cmd_presentation(args):
    sym = _load_symbol(args)
    pres = delta0_presentation(sym)
    _emit(_written(_presentation_json, pres.to_jsonable()), args.out)


def _cmd_member(args):
    try:
        a, b, c, d = (_int_of(x) for x in args.matrix.split(","))
    except ValueError:
        raise InvalidSymbolError("--matrix wants four comma-separated integers")
    g = IMat(a, b, c, d)
    if g.det() != 1:
        raise InvalidSymbolError("matrix must have determinant 1")
    sym = gamma0_symbol(args.level)
    word = express_word(sym, g)
    doc = {"level": args.level, "matrix": [a, b, c, d],
           "member": word is not None, "word": word}
    _emit(_written(_member_json, doc), args.out)


def _cmd_render(args):
    sym = _load_symbol(args)
    spec = RenderSpec(style=args.style, width=args.width, height=args.height)
    render = render_chords if args.style == "chords" else render_polygon
    _emit(render(sym, spec), args.out)


def check_level(N):
    """Invariant suite for one level; returns a list of failure strings."""
    failures = []
    try:
        oracle = gamma0_oracle(N)
        sym = gamma0_symbol(N)
        sym.validate(oracle)
        got = counts(sym)
        want = classical.counts_gamma0(N)
        if got != want:
            failures.append("N=%d: counts %s != classical %s" % (N, got, want))
        widths = sorted(o.width for o in cusp_orbits(sym))
        if widths != classical.cusp_widths_gamma0(N):
            failures.append("N=%d: cusp widths differ" % N)
        norm = normalize(sym)
        norm.validate(oracle)
        if counts(norm) != want:
            failures.append("N=%d: normalized counts drifted" % N)
        q, p, f = norm.block_counts()
        if q != want[0] or p != want[1] - 1 or f != want[2] + want[3]:
            failures.append("N=%d: block counts (%d,%d,%d) off" % (N, q, p, f))
    except FareyError as e:
        failures.append("N=%d: %s" % (N, e))
    return failures


def _cmd_scan(args):
    _int_arg(args.jobs, 1, None, "--jobs must be a positive integer",
             InvalidSymbolError)
    _int_arg(args.start, 1, None, "--from must be a positive integer",
             InvalidSymbolError)
    # no level past MAX_INDEX can be built: its index exceeds the level
    _int_arg(args.stop, None, MAX_INDEX + 1, "--to must be at most %d"
             % MAX_INDEX, InvalidSymbolError)
    if args.start > args.stop:
        raise InvalidSymbolError("--from %d must not exceed --to %d"
                                 % (args.start, args.stop))
    levels = range(args.start, args.stop + 1)
    jobs = min(args.jobs, len(levels), os.cpu_count() or 1)
    if jobs > 1:  # imap streams the levels; map would hold one slot each
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            bad = [msg for msgs in pool.imap(check_level, levels) for msg in msgs]
    else:
        bad = [msg for N in levels for msg in check_level(N)]
    for msg in bad:
        sys.stderr.write(msg + "\n")
    print("scanned %d levels, %d failure(s)" % (len(levels), len(bad)))
    if bad:
        raise InvalidSymbolError("%d level(s) failed the invariant suite" % len(bad))


@functools.lru_cache(maxsize=None)
def make_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every cli_dispatch call can share it."""
    p = _Parser(prog="fareysym",
                description="Farey symbols for Gamma0(N): build, normalize, "
                            "inspect, render.")
    sub = p.add_subparsers(dest="command", required=True)
    # the options several subcommands share, each declared once
    symbol_in = argparse.ArgumentParser(add_help=False)
    symbol_in.add_argument("--level", type=int)
    symbol_in.add_argument("--in", dest="infile")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    b = sub.add_parser("build", parents=[out],
                       help="unimodular symbol for Gamma0(N)")
    b.add_argument("--level", type=int, required=True)
    b.set_defaults(func=_cmd_build)

    nm = sub.add_parser("normalize", parents=[symbol_in, out],
                        help="Siegel-normalize a symbol")
    nm.add_argument("--trace", action="store_true",
                    help="log one JSON line per Siegel step to stderr")
    nm.set_defaults(func=_cmd_normalize)

    inf = sub.add_parser("info", parents=[symbol_in, out],
                         help="counts, cusps and generators")
    inf.set_defaults(func=_cmd_info)

    pr = sub.add_parser("presentation", parents=[symbol_in, out],
                        help="divisor-module presentation")
    pr.set_defaults(func=_cmd_presentation)

    mb = sub.add_parser("member", parents=[out],
                        help="membership + word in the generators")
    mb.add_argument("--level", type=int, required=True)
    mb.add_argument("--matrix", required=True,
                    help="a,b,c,d; write --matrix=a,b,c,d when a < 0")
    mb.set_defaults(func=_cmd_member)

    rd = sub.add_parser("render", parents=[symbol_in, out],
                        help="SVG drawing of a symbol")
    rd.add_argument("--style", default="chords", choices=STYLES)
    rd.add_argument("--width", type=int, default=600)
    rd.add_argument("--height", type=int, default=400)
    rd.set_defaults(func=_cmd_render)

    sc = sub.add_parser("scan", help="run the invariant suite over a range")
    sc.add_argument("--from", dest="start", type=int, required=True)
    sc.add_argument("--to", dest="stop", type=int, required=True)
    sc.add_argument("--jobs", type=int, default=1)
    sc.set_defaults(func=_cmd_scan)
    return p


def cli_dispatch(argv):
    """Run one command line; returns the process exit status."""
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as e:
        return e.code or 0
    try:
        args.func(args)
        return 0
    except (InvalidSymbolError, NotNormalizedError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except FareyError as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 3


def main():
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
