"""Package-wide source rules that no single module's tests can see."""

import ast
import pathlib

import loopgas

SRC = pathlib.Path(loopgas.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a self-check written as one
    # silently disappears; every check in the package must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in loopgas: {found}"
