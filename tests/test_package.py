import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncmotives"


def test_no_assert_in_the_package():
    """python -O drops assert statements, so every check in the package
    raises a package error instead."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
