"""Mutate src/fareysym one site at a time and list every mutant tier-1 lets live.

    python tests/mutation_sample.py

A site is one of four mutations (ROADMAP item 23):

- a flipped comparison: `<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`,
  `in` <-> `not in`, `is` <-> `is not`;
- `and` <-> `or`;
- `+` <-> `-` (a binary operator, not `+=`);
- `raise` -> `pass`.

Every site is mutated, each `raise` among them, so a `raise` -> `pass`
mutant that a test fails also shows that tier-1 reaches that `raise`.  Each mutant
lives in a forked child: an import hook compiles its one module from the
mutated syntax tree, so the checkout is never written.  The child first
runs the module's own tests/test_<module>.py with -x; only a mutant that
survives it runs the rest of tier-1, again with -x.  Tests run fastest
first, by their times in an unmutated run of tier-1, which must pass, and
pass again in that order, before any mutant runs: most mutants fall to a
fast test, and the first runs of all mutants take less than half as long
as in file order.  The wall
time T of the second unmutated run sets the timeouts, T + 30 s for the
module's own tests and 2 T + 30 s for the rest.  A child that runs past
its timeout is killed and counts as a kill; so does any failure, a crash,
or running out of the 2 GiB of address space each child gets.  Hypothesis
runs derandomized, without its example database and without shrinking, so
a run is repeatable.  Tests that start a fresh interpreter run the
unmutated code.

The script prints each mutant that survives tier-1 as it finds it, then
one line per module with its kill rate and one line per surviving mutant
that EQUIVALENT does not list, and exits 1 if there is one.  It also exits
1 if an entry of EQUIVALENT names no site, or if a test kills a mutant
listed there.

pytest does not collect this file: its name does not match test_*.py.
"""

import ast
import collections
import json
import importlib.machinery
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # nor the tests' rewritten bytecode

import hypothesis  # noqa: E402  (imported once, before the children fork)
import pytest  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fareysym")
TESTS = os.path.join(ROOT, "tests")

WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))
MEMORY = 2 << 30

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
          ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
          ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}
_SHOWN = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in",
          ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
          ast.Add: "+", ast.Sub: "-"}

# Mutants that no input can tell from the program, keyed by module, the
# enclosing function, the mutated line and the mutation; each value is its
# proof.
EQUIVALENT = {
    ("exact.py", "_int_str", "if x < 0:", "`<` -> `<=`"):
        "int.__repr__ refused x for its 4300 digits, so x != 0",
    ("exact.py", "_shown",
     "if value.bit_length() > 660 and not -10 ** 199 < value < 10 ** 200:",
     "`>` -> `>=`"):
        "an int of 660 bits is below 2**660 < 10**199, inside the range",
    ("exact.py", "_shown",
     'return "%s<int of %d bits>" % ("-" if value < 0 else "",', "`<` -> `<=`"):
        "value has more than 660 bits here, so value != 0",
    ("exact.py", "_coprime_cusp", "if den < 0 or (den == 0 and num < 0):",
     "`<` -> `<=` (#2)"):
        "with den == 0, num == 0 negates to the same pair (0, 0)",
    ("exact.py", "IMat.psl_normalize", "return self if x > 0 else -self",
     "`>` -> `>=`"):
        "x is the first nonzero entry",
    ("exact.py", "arc_matrix", "if d > 0:", "`>` -> `>=`"):
        "d == 0 is refused just above as a degenerate arc",
    ("invariants.py", "counts",
     "if (sym.n - nu2 - nu3) % 2 or twice_genus % 2 or twice_genus < 0:",
     "`-` -> `+`"):
        "n - nu2 - nu3 and n + nu2 - nu3 have one parity",
    ("invariants.py", "counts",
     "if (sym.n - nu2 - nu3) % 2 or twice_genus % 2 or twice_genus < 0:",
     "`-` -> `+` (#2)"):
        "n - nu2 - nu3 and n - nu2 + nu3 have one parity",
    ("invariants.py", "_reduce", "if a < 0 or (not a and b < 0):",
     "`<` -> `<=`"):
        "a == 0 makes c = +-1 != 0: the step reads p/q, the same for both "
        "signs, and the next step fixes the sign again; a = +-1 at c == 0",
    ("invariants.py", "_reduce", "if a < 0 or (not a and b < 0):",
     "`<` -> `<=` (#2)"):
        "a == b == 0 contradicts det 1",
    ("invariants.py", "_reduce", "if e < 0:", "`<` -> `<=`"):
        "b == 0 returned above, so e = b // width != 0",
    ("invariants.py", "_reduce", "p, q = (a, c) if c > 0 else (-a, -c)",
     "`>` -> `>=`"):
        "c == 0 returned above",
    ("kulkarni.py", "_split_keys",
     "if k_out < N:  # d is a unit too, y = -c/d = -1/x", "`<` -> `<=`"):
        "k_out == N only when d = 0 mod N, so x = 0, x - 1 is a unit and "
        "the branch above returned",
    ("kulkarni.py", "_split_keys", "t = k_in - N  # only d is a unit, t = c/d",
     "`-` -> `+`"):
        "t is read only mod N, and k_in + N = k_in - N mod N",
    ("render.py", "_geodesic_to_interior", "sweep = 1 if x < px else 0",
     "`<` -> `<=`"):
        "x == px returned a vertical segment above",
    ("siegel.py", "_cut",
     "if move_tail and place is not None and place[0] == i and place[1] "
     "== c1 <= i <= j:", "`<=` -> `<`"):
        "at c1 == i the whole-word commit, placed by place, writes the arcs "
        "the windowed one does (both cuts, every c2, levels 2 to 59, both "
        "symbols: equal outputs)",
    ("siegel.py", "_step_hyperbolic", "if not w <= a_pos < bs_pos < n:",
     "`<` -> `<=`"):
        "bs_pos is found after b_pos = a_pos + 1, or is n",
    ("siegel.py", "_choose_step",
     "else [k for k in state.seams if w <= k < n - 1])", "`<=` -> `<`"):
        "siegel_step extends over every block at w before it chooses a "
        "step, so no pair starts at w",
    ("symbol.py", "gluing_entries", "if d_rs < 0:", "`<` -> `<=`"):
        "d_rs == 0 is refused above as a degenerate arc",
    ("symbol.py", "gluing_entries", "if (d_rs < 0) != (d_tu < 0):",
     "`<` -> `<=`"):
        "d_rs == 0 is refused above as a degenerate arc",
    ("symbol.py", "gluing_entries", "if (d_rs < 0) != (d_tu < 0):",
     "`<` -> `<=` (#2)"):
        "d_tu == 0 is refused above as a degenerate arc",
    ("symbol.py", "gluing_entries",
     "if (r2 < 0 or (r2 == 0 and r1 < 0)) != (t2 < 0 or (t2 == 0 and t1 < 0)):",
     "`<` -> `<=` (#2)"):
        "r = (0, 0) makes d_rs == 0, refused above",
    ("symbol.py", "gluing_entries",
     "if (r2 < 0 or (r2 == 0 and r1 < 0)) != (t2 < 0 or (t2 == 0 and t1 < 0)):",
     "`<` -> `<=` (#4)"):
        "t = (0, 0) makes d_tu == 0, refused above",
    ("symbol.py", "FareySymbol.factorize",
     "block = block_at(paired, p, n - p)", "`-` -> `+`"):
        "the blocks before p hold their arcs' partners, so no block at p "
        "reaches past n",
}


def _flip(op):
    return _FLIPS[type(op)]()


def _label(op):
    return "`%s` -> `%s`" % (_SHOWN[type(op)], _SHOWN[_FLIPS[type(op)]])


def _mutations(tree):
    """Yield (node, label, apply) for each site of tree; apply() mutates it."""
    for parent in ast.walk(tree):
        for _, block in ast.iter_fields(parent):
            if isinstance(block, list):
                for i, node in enumerate(block):
                    if isinstance(node, ast.Raise):
                        yield (node, "`raise` -> `pass`",
                               lambda b=block, i=i, n=node: b.__setitem__(
                                   i, ast.copy_location(ast.Pass(), n)))
        if isinstance(parent, ast.Compare):
            for i, op in enumerate(parent.ops):
                if type(op) in _FLIPS:
                    # the key tells the ops of a chained comparison apart
                    yield (parent, _label(op) + "#%d" % i,
                           lambda n=parent, i=i: n.ops.__setitem__(
                               i, _flip(n.ops[i])))
        elif (isinstance(parent, ast.BoolOp)
              or isinstance(parent, ast.BinOp) and type(parent.op) in _FLIPS):
            yield (parent, _label(parent.op),
                   lambda n=parent: setattr(n, "op", _flip(n.op)))


def _where(node):
    return (type(node).__name__, node.lineno, node.col_offset,
            node.end_lineno, node.end_col_offset)


Site = collections.namedtuple("Site", "module line key label name text")


def sites_of(module):
    """Every site of src/fareysym/<module>.py, in source order."""
    path = os.path.join(PACKAGE, module + ".py")
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    names = {}

    def name(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            names[id(child)] = ".".join(inner) or "<module>"
            name(child, inner)
    name(tree, ())
    found = []
    for node, label, _ in _mutations(tree):
        text = lines[node.lineno - 1].strip()
        found.append(Site(module, node.lineno, _where(node) + (label,),
                          label.split("#")[0], names[id(node)], text))
    found.sort(key=lambda s: s.key[1:])
    # a listed equivalent is named without line numbers, which move
    seen = collections.Counter()
    keyed = []
    for s in found:
        name = (s.module, s.name, s.text, s.label)
        seen[name] += 1
        if seen[name] > 1:
            s = s._replace(label="%s (#%d)" % (s.label, seen[name]))
        keyed.append(s)
    return keyed


def _equivalence_key(site):
    return (site.module + ".py", site.name, site.text, site.label)


class _MutantLoader(importlib.machinery.SourceFileLoader):
    key = None

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        tree = ast.parse(self.get_data(path), path)
        applied = [apply() for node, label, apply in _mutations(tree)
                   if _where(node) + (label,) == self.key]
        if len(applied) != 1:
            raise ImportError("mutation site %r not found" % (self.key,))
        return compile(ast.fix_missing_locations(tree), path, "exec",
                       dont_inherit=True)


class _MutantFinder:
    def __init__(self, site):
        self.site = site
        self.origin = os.path.join(PACKAGE, site.module + ".py")

    def find_spec(self, name, path=None, target=None):
        if name != "fareysym." + self.site.module:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.origin != self.origin:
            return None
        spec.loader = _MutantLoader(name, spec.origin)
        spec.loader.key = self.site.key
        return spec


class _Order:
    """A pytest plugin: run the tests fastest first by times, a dict of
    test id -> seconds, and add up each test's time in seen."""

    def __init__(self, times):
        self.times = times
        self.seen = collections.Counter()

    def pytest_collection_modifyitems(self, items):
        items.sort(key=lambda item: self.times.get(item.nodeid, 0.0))

    def pytest_runtest_logreport(self, report):
        self.seen[report.nodeid] += report.duration


hypothesis.settings.register_profile(
    "mutation", database=None, derandomize=True, print_blob=False,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.reuse,
            hypothesis.Phase.generate])


def _child(paths, site, times, tmp, record):
    """In the forked child: run pytest on paths against the mutant of site."""
    code = 3
    try:
        os.setpgid(0, 0)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(devnull, fd)
        hypothesis.settings.load_profile("mutation")
        if site is not None:
            sys.meta_path.insert(0, _MutantFinder(site))
        order = _Order(times)
        code = pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                            "--rootdir", ROOT, "--basetemp", tmp] + paths,
                           plugins=[order])
        if record is not None:
            with open(record, "w") as f:
                json.dump(order.seen, f)
    finally:
        os._exit(int(code))


class _Pool:
    """At most WORKERS forked children, each killed at its deadline."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.running = {}
        self.count = 0

    def start(self, paths, site, times, timeout, done, record=None):
        self.count += 1
        tmp = os.path.join(self.tmp, str(self.count))
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _child(paths, site, times, tmp, record)
        self.running[pid] = (time.monotonic() + timeout, tmp, done)

    def wait(self):
        """Reap the children that ended or ran out of time; call done(code),
        with code None for a timeout."""
        while True:
            now = time.monotonic()
            for pid, (deadline, tmp, done) in list(self.running.items()):
                ended, status = os.waitpid(pid, os.WNOHANG)
                if not ended and now < deadline:
                    continue
                self._kill(pid)
                if not ended:
                    os.waitpid(pid, 0)
                del self.running[pid]
                shutil.rmtree(tmp, ignore_errors=True)
                done(os.waitstatus_to_exitcode(status) if ended else None)
                return
            time.sleep(0.02)

    def drain(self, queue):
        """Run every job of queue, which the done() callbacks may extend."""
        while queue or self.running:
            while queue and len(self.running) < WORKERS:
                self.start(*queue.popleft())
            self.wait()

    @staticmethod
    def _kill(pid):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self):
        for pid in list(self.running):
            self._kill(pid)
            os.waitpid(pid, 0)
        self.running.clear()


def _baseline(pool, times):
    """Run tier-1 unmutated, ordered by times; return its wall time and
    {test id: seconds}, or exit if it fails."""
    record = os.path.join(pool.tmp, "times.json")
    codes = []
    start = time.monotonic()
    pool.start([TESTS], None, times, 3600, codes.append, record)
    pool.drain(collections.deque())
    if codes != [0]:
        sys.exit("tier-1 fails unmutated (exit %s)%s" % (
            codes[0], " in the order by time" if times else ""))
    spent = time.monotonic() - start
    with open(record) as f:
        seen = json.load(f)
    print("tier-1 unmutated%s: %d tests passed in %.0f s" % (
        " (fastest first)" if times else "", len(seen), spent), flush=True)
    return spent, seen


def main():
    if any(name == "fareysym" or name.startswith("fareysym.")
           for name in sys.modules):
        sys.exit("fareysym is imported before the mutants are made")
    sys.path.insert(0, SRC)
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE)
                     if name.endswith(".py") and name != "__init__.py")
    every = {m: sites_of(m) for m in modules}
    known = {_equivalence_key(s) for m in modules for s in every[m]}
    stale = [key for key in EQUIVALENT if key not in known]
    print("mutation sample: every site, %d in %d modules, %d workers"
          % (sum(map(len, every.values())), len(modules), WORKERS), flush=True)

    tmp = tempfile.mkdtemp(prefix="mutation-sample-")
    pool = _Pool(tmp)
    try:
        _, times = _baseline(pool, {})
        spent, _ = _baseline(pool, times)
        own = {m: os.path.join(TESTS, "test_%s.py" % m) for m in modules}
        rest = {m: [os.path.join(TESTS, name)
                    for name in sorted(os.listdir(TESTS))
                    if name.startswith("test_") and name.endswith(".py")
                    and os.path.join(TESTS, name) != own[m]]
                for m in modules}

        outcome = {}
        queue = collections.deque()

        def first(site):
            def done(code):
                if code == 0:
                    queue.append((rest[site.module], site, times,
                                  2 * spent + 30, second(site)))
                else:
                    outcome[site] = ("own", code)
            return done

        def second(site):
            def done(code):
                outcome[site] = ("rest", code) if code != 0 else ("survived", 0)
                if code == 0:
                    print("survived tier-1: %s%s" % (_shown(site), (
                        " (equivalent)" if _equivalence_key(site) in EQUIVALENT
                        else "")), flush=True)
            return done

        for m in modules:
            for site in every[m]:
                queue.append(([own[m]], site, times, spent + 30,
                              first(site)))
        start = time.monotonic()
        pool.drain(queue)
    finally:
        pool.close()
        shutil.rmtree(tmp, ignore_errors=True)

    failures = 0
    for m in modules:
        runs = every[m]
        killed = [s for s in runs if outcome[s][0] != "survived"]
        listed = [s for s in runs if _equivalence_key(s) in EQUIVALENT]
        print("kill rate: %-10s %3d of %3d killed (%d by its own tests, %d by "
              "the rest, %d timed out), %d equivalent, %d survived" % (
                  m, len(killed), len(runs),
                  sum(outcome[s][0] == "own" for s in runs),
                  sum(outcome[s][0] == "rest" for s in runs),
                  sum(outcome[s][1] is None for s in runs), len(listed),
                  len(set(runs) - set(killed) - set(listed))))
    print("%d mutants in %.0f s" % (
        sum(map(len, every.values())), time.monotonic() - start))
    for m in modules:
        for s in every[m]:
            how, code = outcome[s]
            listed = _equivalence_key(s) in EQUIVALENT
            if how == "survived" and not listed:
                print("survivor: %s" % _shown(s))
            elif listed and how != "survived" and code is not None:
                print("killed but listed as equivalent: %s" % _shown(s))
            else:
                continue
            failures += 1
    for key in stale:
        print("listed as equivalent but no such site: %r" % (key,))
    sys.exit(1 if failures or stale else 0)


def _shown(site):
    return "src/fareysym/%s.py:%d in %s: %s  %s" % (
        site.module, site.line, site.name, site.label, site.text)


if __name__ == "__main__":
    main()
