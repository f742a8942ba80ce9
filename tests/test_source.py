import ast
import os
import pathlib
import subprocess
import sys

import fareysym
from fareysym import cli

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "fareysym"


def test_import_loads_no_code_inspector():
    # RenderSpec was a dataclass, and dataclasses brings inspect, ast, dis,
    # tokenize and eight more modules into every process that imports the
    # package; the elliptic points and the genus were exact rationals, and
    # fractions brings decimal with it; -S keeps site's .pth hooks out of
    # the count
    code = ("import sys, fareysym.cli; print(sorted({'dataclasses', 'inspect', "
            "'ast', 'dis', 'tokenize', 'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_no_bare_assert_in_src():
    # python -O strips assert statements, so no runtime check may use one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_every_exported_name_resolves():
    missing = [name for name in fareysym.__all__ if not hasattr(fareysym, name)]
    assert not missing, missing


def test_no_unused_imports_in_src():
    # __init__.py imports in order to re-export, so it is left out
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not found, found


def test_no_unreferenced_private_names_in_src():
    # no dead helpers: every module-level _name (dunders aside) is named
    # somewhere in src/ outside its own definition, by a load, an
    # attribute or an import
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))]
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = {id(n) for n in ast.walk(node)}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in defined and id(node) not in defined[name]:
                used.add(name)
    assert sorted(set(defined) - used) == []


def test_reference_oracles_stay_out_of_src():
    # coset_key and the builder share the chart keys, so nothing in src/
    # names p1_normalize, which the tests keep as the keys' reference, and
    # FareySymbol has no is_linked, the tests' reference for
    # normalization_defect
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "p1_normalize"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "p1_normalize"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
    assert not hasattr(fareysym.FareySymbol, "is_linked")


def test_records_have_one_writer():
    # kulkarni: _Walk.pair and _Walk.fix write every pairing and build its
    # trace event, for both pairing paths of the builder and for the
    # replay, which only compares event kinds; delta0: _element alone
    # sign-normalizes and merges the terms of a group ring element
    def nodes_of(tree, kind, name):
        return {id(node) for top in ast.walk(tree)
                if isinstance(top, kind) and top.name == name
                for node in ast.walk(top)}

    tree = ast.parse((SRC / "kulkarni.py").read_text())
    walk = nodes_of(tree, ast.ClassDef, "_Walk")
    compared = {id(node) for top in ast.walk(tree)
                if isinstance(top, ast.Compare) for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in walk:
            continue
        if (isinstance(node, ast.Subscript)
                and not isinstance(node.ctx, ast.Load)):
            name = getattr(node.value, "id", getattr(node.value, "attr", None))
            if name in ("partner", "ell"):
                found.append("kulkarni.py:%d writes %s" % (node.lineno, name))
        elif (isinstance(node, ast.Constant)
                and node.value in ("pair", "even", "odd")
                and id(node) not in compared):
            found.append("kulkarni.py:%d builds %r" % (node.lineno, node.value))
    tree = ast.parse((SRC / "delta0.py").read_text())
    element = nodes_of(tree, ast.FunctionDef, "_element")
    normalizing = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "psl_normalize"]
    assert any(id(node) in element for node in normalizing)
    found += ["delta0.py:%d normalizes" % node.lineno
              for node in normalizing if id(node) not in element]
    assert not found, found


def test_walk_has_one_splice():
    # kulkarni: _Walk.split is the one place that changes the walk's
    # lists and builds the mediant event; the builder and the replay call
    # it, and the replay only compares event kinds
    tree = ast.parse((SRC / "kulkarni.py").read_text())
    walk = {id(node) for top in ast.walk(tree)
            if isinstance(top, ast.ClassDef) and top.name == "_Walk"
            for node in ast.walk(top)}
    compared = {id(node) for top in ast.walk(tree)
                if isinstance(top, ast.Compare) for node in ast.walk(top)}

    def name_of(node):
        return getattr(node, "id", getattr(node, "attr", None))

    lists = ("ent", "nxt", "prv")
    found = []
    for node in ast.walk(tree):
        if id(node) in walk:
            continue
        if (isinstance(node, ast.Subscript)
                and not isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.AugAssign)):
            target = node.value if isinstance(node, ast.Subscript) else node.target
            if name_of(target) in lists:
                found.append("kulkarni.py:%d writes %s"
                             % (node.lineno, name_of(target)))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert")
                and name_of(node.func.value) in lists):
            found.append("kulkarni.py:%d grows %s"
                         % (node.lineno, name_of(node.func.value)))
        elif (isinstance(node, ast.Constant) and node.value == "mediant"
                and id(node) not in compared):
            found.append("kulkarni.py:%d builds 'mediant'" % node.lineno)
    assert not found, found


def test_int_checks_only_in_exact():
    # exact._int_arg is the one check of an int argument; a type(x) is not
    # int elsewhere is a second copy of that rule
    def is_type_call(e):
        return (isinstance(e, ast.Call) and isinstance(e.func, ast.Name)
                and e.func.id == "type")

    def is_int(e):
        return isinstance(e, ast.Name) and e.id == "int"

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + node.comparators
            for op, a, b in zip(node.ops, sides, sides[1:]):
                if (isinstance(op, (ast.IsNot, ast.NotEq))
                        and (is_type_call(a) and is_int(b)
                             or is_int(a) and is_type_call(b))):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_no_keyword_pass_through_in_src():
    # a **kw parameter passes options through that no caller names, and
    # escapes every check of its own arguments
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
                    and node.args.kwarg is not None):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_benchmark_tracer_installs(tmp_path, monkeypatch):
    """perfbench's tracer wraps functions and methods of src/ by name; it
    must find every one of them, count through them, and put each original
    back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        tracer.active = True
        out = tmp_path / "n15.json"
        assert cli.cli_dispatch(["normalize", "--level", "15",
                                 "--out", str(out)]) == 0
        assert cli.cli_dispatch(["info", "--in", str(out),
                                 "--out", str(tmp_path / "info.json")]) == 0
        # level 26 takes elliptic, parabolic and hyperbolic steps; the
        # tracer reads an elliptic or parabolic step off its one call to
        # the module global base_cut_elliptic or base_cut
        assert cli.cli_dispatch(["normalize", "--level", "26",
                                 "--out", str(tmp_path / "n26.json")]) == 0
    finally:
        tracer.active = False
        tracer.restore()
    assert saved and all(owner.__dict__[attr] is original
                         for owner, attr, original in saved)
    metrics = tracer.layer_metrics()
    assert metrics["siegel.base_cut_calls"][0] > 0
    assert metrics["exact.cusp_new_calls"][0] > 0
    assert metrics["siegel.steps.elliptic"][0] >= 1
    assert metrics["siegel.steps.parabolic"][0] >= 1
