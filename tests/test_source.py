"""Checks on the package source itself."""

import ast
from pathlib import Path

import nilpair

SOURCES = sorted(Path(nilpair.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; the package raises typed errors instead
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
