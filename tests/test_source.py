"""Properties of the package source itself."""

import ast
import pathlib

import chcverify

PACKAGE = pathlib.Path(chcverify.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements; internal checks must raise.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"
    assert len(list(PACKAGE.glob("*.py"))) > 5
