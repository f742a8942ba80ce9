"""The three benchmark workloads and their oracle checks.

Every workload is a stream of rounds generated from the seed alone.  A
round is a fixed mix of operations (a stratified sample of the input
space), so any number of complete rounds has the same composition and the
latency percentiles do not depend on which levels the seed happened to
draw.  The first ``min_rounds`` rounds always run; they define the output
digest and are what the traced run replays.

Each operation goes through a public entry point: ``cli.cli_dispatch`` for
command lines, ``invariants.express_word`` for the word problem.  Both are
looked up on their module at call time so the traced run's wrappers apply.
Oracle checks run after the round, outside the timed region; they use
``fareysym.classical`` and direct matrix arithmetic as the reference.
"""

import hashlib
import json
import os
import random
import xml.etree.ElementTree as ET

from fareysym import classical, cli, invariants
from fareysym.delta0 import delta0_presentation
from fareysym.exact import FareyError, IMat, NotNormalizedError
from fareysym.kulkarni import gamma0_symbol
from fareysym.siegel import normalize
from fareysym.symbol import FareySymbol

S = IMat(0, -1, 1, 0)
T = IMat(1, 1, 0, 1)
# A genuine member of Gamma0(6) that express_word rejects on the
# normalized symbol (a known false negative of the word problem).
WITNESS_6 = IMat(775716883104425, 33344582147310051, 24629656566474,
                 1058718231520391)
STEP_CAP = "word reduction exceeded its step cap"


def rng_for(seed, *tags):
    """Independent deterministic stream for (seed, tags); string seeding is
    stable across processes and Python hash randomization."""
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def slot_pools(targets, width, index):
    """For each target index t, the levels N (keys of index, a map N -> index
    of Gamma0(N)) whose index lies within width * t of t.  Build and
    normalize costs grow with the index, so a narrow slot fixes an op's cost
    up to the shape of N; that keeps the spread between seeds small."""
    pools = []
    for t in targets:
        pool = sorted(N for N, mu in index.items() if abs(mu - t) <= width * t)
        if not pool:
            raise ValueError("no level has index within %g of %g" % (width * t, t))
        pools.append(pool)
    return pools


def geometric(lo, hi, k):
    return [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]


def height_bits(sym):
    return max(v.height_bits() for v in sym.vertices)


class Op:
    """One timed operation and what its check needs."""

    __slots__ = ("kind", "level", "rep", "n", "height", "argv", "sym", "mat",
                 "out_path")

    def __init__(self, kind, level, rep=None, n=None, height=None, argv=None,
                 sym=None, mat=None):
        self.kind = kind
        self.level = level
        self.rep = rep
        self.n = n
        self.height = height
        self.argv = argv
        self.sym = sym
        self.mat = mat
        self.out_path = None


class Outcome:
    """Result of one op: output bytes, verdict and the values it reports."""

    __slots__ = ("data", "ok", "defect", "error", "n", "height")

    def __init__(self, data, ok=True, defect=False, error=None, n=None, height=None):
        self.data = data
        self.ok = ok
        self.defect = defect
        self.error = error
        self.n = n
        self.height = height


def execute(op):
    """Run op through the public entry point; the part that is timed."""
    if op.argv is not None:
        return cli.cli_dispatch(op.argv + ["--out", op.out_path])
    return invariants.express_word(op.sym, op.mat)


def _read_out(op):
    with open(op.out_path, "rb") as fh:
        data = fh.read()
    os.remove(op.out_path)
    return data


def verify(op, raw, exc):
    """Oracle check of one finished op (untimed).  exc is the exception
    the op raised, if any.  Never raises."""
    try:
        return _verify(op, raw, exc)
    except Exception as e:  # a check that crashes counts as a failed op
        return Outcome(b"", ok=False, error="check crashed: %r" % e)


def _verify(op, raw, exc):
    if op.mat is not None:
        return _verify_member(op, raw, exc)
    if exc is not None:
        return Outcome(b"", ok=False, error=repr(exc))
    if raw != 0:
        return Outcome(b"", ok=False, error="exit status %r" % raw)
    data = _read_out(op)
    text = data.decode()
    want = classical.counts_gamma0(op.level)
    if op.kind in ("build", "normalize"):
        sym = FareySymbol.from_json(text)
        got = invariants.counts(sym)
        out = Outcome(data, n=sym.n, height=height_bits(sym))
        if got != want:
            return _fail(out, "counts %s != classical %s" % (got, want))
        if op.kind == "normalize":
            try:
                blocks = sym.block_counts()
            except NotNormalizedError as e:
                return _fail(out, str(e))
            if blocks != (want[0], want[1] - 1, want[2] + want[3]):
                return _fail(out, "block counts %s off" % (blocks,))
            if sym.to_json() != text:
                return _fail(out, "JSON round trip changed the output")
        return out
    out = Outcome(data, n=op.n, height=op.height)
    if op.kind == "info":
        doc = json.loads(text)
        got = tuple(doc[k] for k in ("genus", "nu_inf", "nu2", "nu3", "index"))
        if got != want:
            return _fail(out, "info counts %s != classical %s" % (got, want))
        if op.rep == "norm" and not doc["normalized"]:
            return _fail(out, "info calls a normalized symbol not normalized")
    elif op.kind == "presentation":
        pres = delta0_presentation(op.sym)
        pres.check()
        if json.loads(text) != pres.to_jsonable():
            return _fail(out, "presentation output differs from the checked one")
    elif op.kind == "render-chords":
        cc = op.sym.class_counts()
        if (text.count('class="chord"') != cc["hyperbolic"] + cc["parabolic"]
                or text.count('class="dot3"') != cc["elliptic3"]
                or text.count('class="dot2"') != cc["elliptic2"]):
            return _fail(out, "chord/dot counts differ from class_counts")
    else:
        root = ET.fromstring(text)
        if not root.tag.endswith("svg"):
            return _fail(out, "render output is not an svg document")
    return out


def is_member(op):
    """The membership oracle: c = 0 (mod N)."""
    return op.mat.c % op.level == 0


def _verify_member(op, raw, exc):
    """Membership oracle: the answer must equal c = 0 (mod N), and a word
    must multiply back to the matrix up to sign.  Only the two known
    word-problem defects of ROADMAP item 1 are counted as defects rather
    than failures: a genuine member rejected on a normalized symbol, and
    the step-cap error on a genuine member.  Any other wrong answer or
    error, a rejection on a unimodular symbol included, is a failure."""
    member = is_member(op)
    if exc is not None:
        data = ("error: %s" % exc).encode()
        out = Outcome(data, n=op.n, height=op.height)
        if member and isinstance(exc, FareyError) and STEP_CAP in str(exc):
            return _defect(out, repr(exc))
        return _fail(out, repr(exc))
    data = json.dumps(raw).encode()
    out = Outcome(data, n=op.n, height=op.height)
    if raw is None:
        if not member:
            return out
        if op.rep == "norm":
            return _defect(out, "member rejected")
        return _fail(out, "member rejected on the unimodular symbol")
    if not member:
        return _fail(out, "non-member accepted")
    if not invariants.word_product(op.sym, raw).psl_eq(op.mat):
        return _fail(out, "word does not multiply back to the matrix")
    return out


def _fail(out, why):
    out.ok = False
    out.error = why
    return out


def _defect(out, why):
    out.defect = True
    out.error = why
    return out


def record(workload, rnd, op, wall_ms, outcome):
    rec = {"workload": workload, "round": rnd, "kind": op.kind,
           "level": op.level, "rep": op.rep, "n": outcome.n,
           "height_bits": outcome.height, "wall_ms": wall_ms,
           "ok": outcome.ok, "known_defect": outcome.defect,
           "sha256": hashlib.sha256(outcome.data).hexdigest()}
    if outcome.error:
        rec["error"] = outcome.error
    return rec


# -- build and normalize -----------------------------------------------------


class LevelWorkload:
    """Rounds of one ``--level N`` command: each round draws one level from
    every pool in self.pools, in a seeded order."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.pools = self.make_pools()

    def _op(self, N):
        return Op(self.name, N, argv=[self.name, "--level", str(N)])

    def setup(self):
        """Warm-up: one op at a fixed level.  No queried symbols."""
        op = self._op(self.WARMUP)
        op.out_path = os.path.join(self.workdir, "warmup.out")
        if execute(op) != 0:
            raise RuntimeError("warm-up %s failed" % self.name)
        os.remove(op.out_path)
        return []

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        ops = [self._op(rng.choice(pool)) for pool in self.pools]
        rng.shuffle(ops)
        return ops

    def probes(self):
        return []


def _level_class(N):
    f = classical.factorize(N)
    if len(f) == 1:
        return "prime" if f[0][1] == 1 else "prime_power"
    return "smooth" if len(f) >= 4 else None


class BuildWorkload(LevelWorkload):
    """``build --level N``: Kulkarni's builder on large levels.

    Each round builds PER_CLASS levels of each class: primes and prime
    powers near index 10000, and levels with at least four distinct prime
    factors near index 7000 (N about 2000 to 11000).  The targets make every
    op cost about the same at the seed commit, so the median and the tail
    come from one population rather than from the edge between two sizes.
    Smooth levels have more arcs per level and take the non-unit branch of
    the P^1 keys, so builder and key changes show here; Siegel and the
    invariants do no work.
    """

    name = "build"
    min_rounds = 2
    round_s = 1.7
    TARGETS = {"prime": 10000, "prime_power": 10000, "smooth": 7000}
    WIDTH, MAX_LEVEL, PER_CLASS = 0.12, 11000, 4
    WARMUP = 2310

    def make_pools(self):
        by_class = {cls: {} for cls in self.TARGETS}
        for N in range(2, self.MAX_LEVEL + 1):
            cls = _level_class(N)
            if cls is not None:
                by_class[cls][N] = classical.index_gamma0(N)
        pools = [pool for cls, t in self.TARGETS.items()
                 for pool in slot_pools([t], self.WIDTH, by_class[cls])]
        return pools * self.PER_CLASS


class NormalizeWorkload(LevelWorkload):
    """``normalize --level N``: Siegel normalization, the known bottleneck.

    Each round normalizes one level at each of twelve index targets spaced
    geometrically over [60, 1200], so arc counts run from about 20 to 400
    and every size is represented; the largest is drawn TOP times so that
    op_tail_ms falls inside it.  The median op is a small symbol and the
    tail op a large one, so a change that helps large n but costs constant
    factors moves op_tail_ms and op_p50_ms in opposite directions.
    """

    name = "normalize"
    min_rounds = 3
    round_s = 1.5
    LO, HI, SLOTS, WIDTH, MAX_LEVEL, TOP = 60, 1200, 12, 0.05, 1500, 2
    WARMUP = 210

    def make_pools(self):
        index = {N: classical.index_gamma0(N) for N in range(1, self.MAX_LEVEL + 1)}
        pools = slot_pools(geometric(self.LO, self.HI, self.SLOTS), self.WIDTH, index)
        return pools + [pools[-1]] * (self.TOP - 1)


# -- query -------------------------------------------------------------------


def _member_matrix(rng, sym, bits):
    """Random word in the gluings of sym until an entry reaches `bits`."""
    gens = sym.gluings()
    g = IMat(1, 0, 0, 1)
    while max(abs(x) for x in g.entries()).bit_length() < bits:
        h = rng.choice(gens)
        g = g * (h if rng.random() < 0.5 else h.inverse())
    return g


def _st_matrix(rng, bits):
    """Random S/T word, T exponents in +-1..3, until an entry reaches `bits`."""
    g = IMat(1, 0, 0, 1)
    while max(abs(x) for x in g.entries()).bit_length() < bits:
        if rng.random() < 0.5:
            g = g * S
        else:
            g = g * T ** rng.choice((-3, -2, -1, 1, 2, 3))
    return g


class QueryWorkload:
    """Read-only queries on symbols built and normalized during set-up.

    The levels are 6, 36, 180 and two seeded levels at each of the index
    targets 72, 144 and 288.  Per level and round: express_word on MATRICES
    members (random words in the unimodular gluings) and as many random S/T
    words, each on both representations; ``info``, ``presentation`` and the
    three ``render`` styles on both representations.  The invariants
    dominate; Kulkarni and Siegel do no timed work.

    The largest level, 180 (index 432, 146 arcs), is fixed rather than
    seeded because the cost of a normalized query at that size varies by up
    to 3x between levels of the same index, and the tail op comes from
    there; it gets TOP_MATRICES matrices of each kind per round so that a
    run holds enough of these queries for op_tail_ms to be a stable
    statistic.  The seed still draws every query matrix.
    """

    name = "query"
    min_rounds = 2
    round_s = 2.7
    BITS = 64
    FIXED, TOP = (6, 36), 180
    MATRICES, TOP_MATRICES = 1, 8
    TARGETS, WIDTH, MAX_LEVEL, PER_BAND = (72, 144, 288), 0.06, 400, 2
    RENDER = ("chords", "halfplane", "disk")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        rng = rng_for(seed, self.name, "levels")
        index = {N: classical.index_gamma0(N) for N in range(1, self.MAX_LEVEL + 1)}
        levels = list(self.FIXED) + [self.TOP]
        for pool in slot_pools(self.TARGETS, self.WIDTH, index):
            levels += rng.sample([N for N in pool if N not in levels], self.PER_BAND)
        self.levels = sorted(levels)
        self.symbols = {}

    def setup(self):
        """Build and normalize every queried symbol, write its JSON for the
        ``--in`` commands, and fill the per-symbol caches."""
        symbols = {}
        for N in self.levels:
            uni = gamma0_symbol(N)
            for rep, sym in (("uni", uni), ("norm", normalize(uni))):
                path = os.path.join(self.workdir, "%s-%d.json" % (rep, N))
                with open(path, "w") as fh:
                    fh.write(sym.to_json())
                invariants.express_word(sym, IMat(1, 0, 0, 1))
                sym.gluings()
                symbols[rep, N] = (sym, path)
        self.symbols = symbols
        return [height_bits(sym) for sym, _ in symbols.values()]

    def _ops_for(self, rng, N):
        ops = []
        uni = self.symbols["uni", N][0]
        count = self.TOP_MATRICES if N == self.TOP else self.MATRICES
        mats = [("member", _member_matrix(rng, uni, self.BITS)) for _ in range(count)]
        mats += [("member-st", _st_matrix(rng, self.BITS)) for _ in range(count)]
        for kind, g in mats:
            for rep in ("uni", "norm"):
                sym = self.symbols[rep, N][0]
                ops.append(Op(kind, N, rep, sym.n, height_bits(sym), sym=sym, mat=g))
        for rep in ("uni", "norm"):
            sym, path = self.symbols[rep, N]
            common = dict(rep=rep, n=sym.n, height=height_bits(sym), sym=sym)
            ops.append(Op("info", N, argv=["info", "--in", path], **common))
            ops.append(Op("presentation", N, argv=["presentation", "--in", path],
                          **common))
            for style in self.RENDER:
                ops.append(Op("render-" + style, N, argv=[
                    "render", "--in", path, "--style", style], **common))
        return ops

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        ops = [op for N in self.levels for op in self._ops_for(rng, N)]
        rng.shuffle(ops)
        return ops

    def probes(self):
        """Inputs that exercise the known word-problem defects: the ROADMAP
        witness at level 6, and members at levels 6 and 36 whose a/c has one
        partial quotient near 2^40 (u * T^m * v with v(infinity) finite)."""
        rng = rng_for(self.seed, self.name, "probes")
        cases = [(6, WITNESS_6)]
        for N in (6, 6, 36, 36):
            uni = self.symbols["uni", N][0]
            v = _member_matrix(rng, uni, 4)
            while v.c == 0:
                v = _member_matrix(rng, uni, 4)
            m = rng.randrange(2 ** 39, 2 ** 41)
            cases.append((N, _member_matrix(rng, uni, 4) * IMat(1, m, 0, 1) * v))
        ops = []
        for N, g in cases:
            for rep in ("uni", "norm"):
                sym = self.symbols[rep, N][0]
                ops.append(Op("probe", N, rep, sym.n, height_bits(sym),
                              sym=sym, mat=g))
        return ops


WORKLOADS = {w.name: w for w in (BuildWorkload, NormalizeWorkload, QueryWorkload)}
