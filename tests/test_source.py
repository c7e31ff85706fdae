"""Source-level rules for the package."""

import ast
from pathlib import Path

import bodenhu

PACKAGE = Path(bodenhu.__file__).parent


def test_no_assert_statements():
    """Invariants must survive python -O, which strips assert statements."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
