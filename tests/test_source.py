"""Rules that the library's source keeps, checked by parsing it."""

import ast
from pathlib import Path

import frameproof_lab

PACKAGE = Path(frameproof_lab.__file__).parent


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so every check in the library is an
    # explicit raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
