"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCE_FILES = sorted((Path(__file__).resolve().parents[1] / "src" / "sumnet").glob("*.py"))


@pytest.mark.parametrize("path", SOURCE_FILES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # python -O strips assert statements, so library invariants must raise
    # typed errors instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"
