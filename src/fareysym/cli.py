"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation failure on the inputs,
3 internal invariant violation.  Symbols travel as JSON objects with keys
"vertices", "pairing", "ell" and optional "level".  To revalidate every
intermediate symbol of a normalization, call
normalize(sym, on_op=lambda s: s.validate()).  info and presentation
print the bytes json.dumps(doc, indent=2) gives, written by _indented.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import classical
from .exact import (FareyError, IMat, InvalidSymbolError, NotNormalizedError,
                    _int_arg, _int_of, _int_str)
from .invariants import counts, cusp_orbits, express_word, generators
from .kulkarni import gamma0_oracle, gamma0_symbol
from .render import STYLES, RenderSpec, render_chords, render_polygon
from .siegel import normalize
from .symbol import FareySymbol
from .delta0 import delta0_presentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _load_symbol(args):
    if getattr(args, "infile", None):
        with open(args.infile, "rb") as fh:
            sym = FareySymbol.from_json(fh.read())
        sym.validate()
        return sym
    if getattr(args, "level", None) is not None:
        return gamma0_symbol(args.level)
    raise InvalidSymbolError("either --level or --in is required")


_INT = frozenset([int])


def _indented(obj):
    """Exactly json.dumps(obj, indent=2) for a document of dicts with str
    keys, lists, tuples and scalars, faster: CPython's C encoder runs only
    without indent.  A document holding an int past CPython's digit limit,
    which json.dumps refuses, is written again with exact._int_str."""
    try:
        return _dump(obj, "\n", int.__repr__)
    except ValueError:
        return _dump(obj, "\n", _int_str)


def _dump(obj, pad, num):
    """_indented's writer: an int item is written in place by num and a
    list of ints in one pass; any other scalar than a str goes to
    json.dumps."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": "
             + (num(v) if type(v) is int else _dump(v, inner, num))
             for k, v in obj.items()]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _INT.issuperset(map(type, obj)):  # no bools: they print as true
            items = map(num, obj)
        else:
            items = [num(x) if type(x) is int else _dump(x, inner, num)
                     for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return json.dumps(obj)


def _compact(obj):
    """json.dumps(obj) for a document of dicts with str keys, lists and
    scalars, whose ints may pass CPython's digit limit: those are written
    by exact._int_str."""
    if isinstance(obj, dict):
        return "{%s}" % ", ".join([encode_basestring_ascii(k) + ": " + _compact(v)
                                   for k, v in obj.items()])
    if isinstance(obj, list):
        return "[%s]" % ", ".join(map(_compact, obj))
    return _int_str(obj) if type(obj) is int else json.dumps(obj)


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
                   "stabilizer_word": [list(t) for t in o.stabilizer_word]}
                  for o in cusp_orbits(sym)],
        "generators": [{"matrix": list(m), "class": tag, "arc": i}
                       for m, tag, i in gens.entries],
        "symplectic_pairs": [[list(a), list(b)]
                             for a, b in gens.symplectic_pairs],
    }
    if sym.level is not None:
        doc["level"] = sym.level
    _emit(_indented(doc), args.out)


def _cmd_presentation(args):
    sym = _load_symbol(args)
    pres = delta0_presentation(sym)
    _emit(_indented(pres.to_jsonable()), args.out)


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
           "member": word is not None,
           "word": [list(t) for t in word] if word is not None else None}
    _emit(_compact(doc), args.out)


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
    if args.start > args.stop:
        raise InvalidSymbolError("--from %d must not exceed --to %d"
                                 % (args.start, args.stop))
    levels = list(range(args.start, args.stop + 1))
    jobs = min(args.jobs, len(levels))
    if jobs > 1:
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            results = pool.map(check_level, levels)
    else:
        results = [check_level(N) for N in levels]
    bad = [msg for msgs in results for msg in msgs]
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

    b = sub.add_parser("build", help="unimodular symbol for Gamma0(N)")
    b.add_argument("--level", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build)

    nm = sub.add_parser("normalize", help="Siegel-normalize a symbol")
    nm.add_argument("--level", type=int)
    nm.add_argument("--in", dest="infile")
    nm.add_argument("--trace", action="store_true",
                    help="log one JSON line per Siegel step to stderr")
    nm.add_argument("--out")
    nm.set_defaults(func=_cmd_normalize)

    inf = sub.add_parser("info", help="counts, cusps and generators")
    inf.add_argument("--level", type=int)
    inf.add_argument("--in", dest="infile")
    inf.add_argument("--out")
    inf.set_defaults(func=_cmd_info)

    pr = sub.add_parser("presentation", help="divisor-module presentation")
    pr.add_argument("--level", type=int)
    pr.add_argument("--in", dest="infile")
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_presentation)

    mb = sub.add_parser("member", help="membership + word in the generators")
    mb.add_argument("--level", type=int, required=True)
    mb.add_argument("--matrix", required=True, help="a,b,c,d")
    mb.add_argument("--out")
    mb.set_defaults(func=_cmd_member)

    rd = sub.add_parser("render", help="SVG drawing of a symbol")
    rd.add_argument("--level", type=int)
    rd.add_argument("--in", dest="infile")
    rd.add_argument("--style", default="chords", choices=STYLES)
    rd.add_argument("--width", type=int, default=600)
    rd.add_argument("--height", type=int, default=400)
    rd.add_argument("--out")
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
