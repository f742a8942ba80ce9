"""Per-layer tracing for the traced benchmark run.

Wrappers are installed from outside the program, around the public
functions of each module of ``fareysym``, by replacing every name at the
place where it is looked up (a module attribute or a class attribute).
Each span wrapper records (id, name, start, end, parent) in memory; a
layer's self time is its spans' durations minus the time their child spans
cover.  Hot leaf functions (P^1 keys) are timed and counted without storing
a span, and the exact-arithmetic primitives are only counted.  ``restore``
puts every original back; the untraced run installs nothing.
"""

import functools
import gzip
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

from fareysym import cli, delta0, exact, invariants, kulkarni, render, siegel
from fareysym.symbol import FareySymbol

STEP_KINDS = ("extend", "elliptic", "parabolic", "hyperbolic")


class _Frame:
    __slots__ = ("id", "child", "kids")

    def __init__(self, span_id):
        self.id = span_id
        self.child = 0.0
        self.kids = Counter()


class Tracer:
    """Span recorder plus per-name call counts and self times."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.values = defaultdict(int)
        self._ids = itertools.count()
        self._saved = []

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a recorded span; after(result, frame, dur) runs on
        success and its own time is kept out of the parent's self time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = _Frame(next(tracer._ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame.child
                tracer.spans.append((frame.id, name, t0, t1,
                                     parent.id if parent else None))
                if parent is not None:
                    parent.child += dur
                    parent.kids[name] += 1
            if after is not None:
                h0 = perf_counter()
                after(result, frame, dur)
                if parent is not None:
                    parent.child += perf_counter() - h0
            return result
        return wrapper

    def leaf(self, name, fn, after=None):
        """Time and count a hot leaf function without storing its spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - t0
            tracer.calls[name] += 1
            tracer.self_s[name] += dur
            if tracer.stack:
                tracer.stack[-1].child += dur
            if after is not None:
                after(result)
            return result
        return wrapper

    def count(self, name, fn):
        """Count calls only."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owners, attr, wrapper):
        for owner in owners:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public functions of every measured module."""
        v = self.values
        sp, p = self.span, self.patch

        def arcs(sym, frame, dur):
            v["kulkarni.arcs"] += sym.n

        def p1_branch(key):
            if key[0] > 1:
                v["kulkarni.p1_nonunit"] += 1

        def step_kind(state, frame, dur):
            cuts = frame.kids["siegel.base_cut"]
            ell = frame.kids["siegel.base_cut_elliptic"]
            kind = {(0, 0): "extend", (0, 1): "elliptic", (1, 0): "parabolic",
                    (4, 0): "hyperbolic"}.get((cuts, ell), "other")
            v["siegel.steps." + kind] += 1
            v["siegel.step_ms." + kind] += dur * 1e3
            if kind != "extend":
                h = max(c.height_bits() for c in state.symbol.vertices)
                v["siegel.max_height_bits"] = max(v["siegel.max_height_bits"], h)

        def letters(word, frame, dur):
            if word is not None:
                v["invariants.word_letters"] += len(word)

        def terms(pres, frame, dur):
            v["delta0.terms"] += (sum(len(x) for x in pres.lam.values())
                                  + sum(len(x) for x in pres.mu.values()))

        def svg_bytes(doc, frame, dur):
            v["render.svg_bytes"] += len(doc.encode())

        p([cli], "cli_dispatch", sp("cli.dispatch", cli.cli_dispatch))

        p([cli, kulkarni], "gamma0_symbol",
          sp("kulkarni.gamma0_symbol", kulkarni.gamma0_symbol))
        p([kulkarni], "build_unimodular",
          sp("kulkarni.build", kulkarni.build_unimodular, after=arcs))
        p([kulkarni], "p1_normalize",
          self.leaf("kulkarni.p1", kulkarni.p1_normalize, after=p1_branch))

        p([cli, siegel], "normalize", sp("siegel.normalize", siegel.normalize))
        p([siegel], "siegel_step",
          sp("siegel.step", siegel.siegel_step, after=step_kind))
        p([siegel], "base_cut", sp("siegel.base_cut", siegel.base_cut))
        p([siegel], "base_cut_elliptic",
          sp("siegel.base_cut_elliptic", siegel.base_cut_elliptic))

        p([FareySymbol], "__init__", sp("symbol.new", FareySymbol.__init__))
        p([FareySymbol], "rotated", sp("symbol.rotated", FareySymbol.rotated))
        p([FareySymbol], "validate", sp("symbol.validate", FareySymbol.validate))
        p([FareySymbol], "is_normalized",
          sp("symbol.is_normalized", FareySymbol.is_normalized))
        p([FareySymbol], "gluing", self.count("symbol.gluing", FareySymbol.gluing))

        p([cli, invariants], "express_word",
          sp("invariants.express_word", invariants.express_word, after=letters))
        p([cli, invariants], "cusp_orbits",
          sp("invariants.cusp_orbits", invariants.cusp_orbits))
        p([cli, invariants], "generators",
          sp("invariants.generators", invariants.generators))
        p([cli, invariants], "counts", sp("invariants.counts", invariants.counts))

        p([cli, delta0], "delta0_presentation",
          sp("delta0.presentation", delta0.delta0_presentation, after=terms))

        p([cli, render], "render_chords",
          sp("render.chords", render.render_chords, after=svg_bytes))
        p([cli, render], "render_polygon",
          sp("render.polygon", render.render_polygon, after=svg_bytes))

        p([exact.IMat], "__mul__", self.count("exact.mul", exact.IMat.__mul__))
        p([exact.IMat], "apply", self.count("exact.apply", exact.IMat.apply))
        p([exact.Cusp], "__init__", self.count("exact.cusp_new", exact.Cusp.__init__))

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, speed=1.0):
        """Per-layer metrics as {name: (value, unit)}; times are multiplied
        by speed, the traced pass's reference-speed over wall time."""
        c, s, v = self.calls, self.self_s, self.values

        def ms(*names):
            return sum(s[n] for n in names) * 1e3 * speed

        def layer_self(layer):
            return ms(*[n for n in s if n.startswith(layer + ".")])

        out = {
            "cli.calls": (c["cli.dispatch"], "count"),
            "cli.self_ms": (ms("cli.dispatch"), "ms"),
            "cli.out_bytes": (v["cli.out_bytes"], "bytes"),
            "kulkarni.self_ms": (layer_self("kulkarni"), "ms"),
            "kulkarni.build_calls": (c["kulkarni.build"], "count"),
            "kulkarni.build_self_ms": (ms("kulkarni.build", "kulkarni.gamma0_symbol"), "ms"),
            "kulkarni.p1_calls": (c["kulkarni.p1"], "count"),
            "kulkarni.p1_ms": (ms("kulkarni.p1"), "ms"),
            "kulkarni.p1_nonunit_frac": (v["kulkarni.p1_nonunit"] / max(1, c["kulkarni.p1"]), "ratio"),
            "kulkarni.arcs": (v["kulkarni.arcs"], "count"),
            "symbol.self_ms": (layer_self("symbol"), "ms"),
            "symbol.new_calls": (c["symbol.new"], "count"),
            "symbol.new_ms": (ms("symbol.new"), "ms"),
            "symbol.rotated_calls": (c["symbol.rotated"], "count"),
            "symbol.rotated_ms": (ms("symbol.rotated"), "ms"),
            "symbol.validate_ms": (ms("symbol.validate"), "ms"),
            "symbol.is_normalized_ms": (ms("symbol.is_normalized"), "ms"),
            "symbol.gluing_calls": (c["symbol.gluing"], "count"),
            "siegel.self_ms": (layer_self("siegel"), "ms"),
        }
        for kind in STEP_KINDS:
            out["siegel.steps." + kind] = (v["siegel.steps." + kind], "count")
            out["siegel.step_ms." + kind] = (v["siegel.step_ms." + kind] * speed, "ms")
        out.update({
            "siegel.base_cut_calls": (c["siegel.base_cut"] + c["siegel.base_cut_elliptic"], "count"),
            "siegel.base_cut_self_ms": (ms("siegel.base_cut", "siegel.base_cut_elliptic"), "ms"),
            "siegel.max_height_bits": (v["siegel.max_height_bits"], "bits"),
            "invariants.self_ms": (layer_self("invariants"), "ms"),
            "invariants.express_word_calls": (c["invariants.express_word"], "count"),
            "invariants.express_word_ms": (ms("invariants.express_word"), "ms"),
            "invariants.word_letters": (v["invariants.word_letters"], "count"),
            "invariants.cusp_orbits_ms": (ms("invariants.cusp_orbits"), "ms"),
            "invariants.generators_ms": (ms("invariants.generators"), "ms"),
            "invariants.counts_ms": (ms("invariants.counts"), "ms"),
            "delta0.presentation_ms": (ms("delta0.presentation"), "ms"),
            "delta0.terms": (v["delta0.terms"], "count"),
            "render.svg_ms": (ms("render.chords", "render.polygon"), "ms"),
            "render.svg_bytes": (v["render.svg_bytes"], "bytes"),
            "exact.mul_calls": (c["exact.mul"], "count"),
            "exact.apply_calls": (c["exact.apply"], "count"),
            "exact.cusp_new_calls": (c["exact.cusp_new"], "count"),
        })
        return out

    def write_spans(self, path):
        """Write the recorded spans as gzipped JSON lines, times relative to
        the first span start, in microseconds."""
        base = min((sp[2] for sp in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for span_id, name, t0, t1, parent in sorted(self.spans):
                fh.write(json.dumps([span_id, name, round((t0 - base) * 1e6, 1),
                                     round((t1 - base) * 1e6, 1), parent]) + "\n")
