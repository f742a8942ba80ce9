import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "fareysym"


def test_no_bare_assert_in_src():
    # python -O strips assert statements, so no runtime check may use one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
