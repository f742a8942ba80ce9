"""List every `raise` statement in src/fareysym that the tier-1 tests never run.

    python tests/raise_coverage.py

An import hook compiles each module of the package with one counter call
in front of every `raise`; line numbers are kept.  Tier-1 then runs in this
process through pytest.main.  The script prints each site never reached,
as file:line and the statement, and exits 1 if there is any (or with
pytest's code if a test fails).  Code that runs only in a subprocess, such
as a CLI test that spawns the interpreter, is not counted.

pytest does not collect this file: its name does not match test_*.py.
"""

import ast
import importlib.machinery
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fareysym")
HIT = "_raise_coverage_hit"

reached = set()


def raise_sites(tree):
    return sorted((node.lineno, node.col_offset) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


class _Counting(ast.NodeTransformer):
    """Put `_raise_coverage_hit((path, line, col))` before every raise."""

    def __init__(self, path):
        self.path = path

    def visit_Raise(self, node):
        key = ast.Constant((self.path, node.lineno, node.col_offset))
        call = ast.Expr(ast.Call(ast.Name(HIT, ast.Load()), [key], []))
        return [ast.copy_location(call, node), node]


class _CountingLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        # compiled afresh every time: no cached bytecode is read or written
        path = self.get_filename(fullname)
        tree = _Counting(path).visit(ast.parse(self.get_data(path), path))
        return compile(ast.fix_missing_locations(tree), path, "exec",
                       dont_inherit=True)

    def exec_module(self, module):
        module.__dict__[HIT] = reached.add
        super().exec_module(module)


class _CountingFinder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != "fareysym" and not name.startswith("fareysym."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path or [SRC])
        if spec is not None and spec.origin.startswith(PACKAGE + os.sep):
            spec.loader = _CountingLoader(name, spec.origin)
        return spec


def main():
    if any(name == "fareysym" or name.startswith("fareysym.")
           for name in sys.modules):
        sys.exit("fareysym is imported before the hook is installed")
    sys.path.insert(0, SRC)
    sys.meta_path.insert(0, _CountingFinder)
    code = pytest.main(["-q", "--continue-on-collection-errors",
                        "--rootdir", ROOT, os.path.join(ROOT, "tests")])
    sites = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            sites += [(path, line, col, lines[line - 1].strip())
                      for line, col in raise_sites(ast.parse("\n".join(lines)))]
    missed = [site for site in sites if site[:3] not in reached]
    print("raise coverage: %d sites, %d reached, %d unreached"
          % (len(sites), len(sites) - len(missed), len(missed)))
    for path, line, _, text in missed:
        print("unreached: %s:%d  %s" % (os.path.relpath(path, ROOT), line, text))
    sys.exit(int(code) or (1 if missed else 0))


if __name__ == "__main__":
    main()
