"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def _is_object(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "object"


def _uses_object_dtype(call: ast.Call) -> bool:
    astype = isinstance(call.func, ast.Attribute) and call.func.attr == "astype"
    if astype and call.args and _is_object(call.args[0]):
        return True
    return any(kw.arg == "dtype" and _is_object(kw.value) for kw in call.keywords)


def _is_raw_product(node: ast.AST) -> bool:
    """An @ or @= whose left operand is not a freshly built FieldMatrix."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.MatMult)
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return False
    left = node.left
    builds_field_matrix = (
        isinstance(left, ast.Call) and isinstance(left.func, ast.Name) and left.func.id == "FieldMatrix"
    )
    return not builds_field_matrix


@pytest.mark.parametrize("path", SOURCE_FILES, ids=lambda p: p.name)
def test_modular_products_go_through_the_kernel(path):
    # every product of residues must run in field._matmul_mod, whose bound
    # keeps it exact: a raw int64 product can wrap and an object-dtype one
    # is slow.  Outside the kernel, @ is allowed only with a freshly built
    # FieldMatrix on the left, which dispatches to FieldMatrix.__matmul__
    # and hence to the kernel (with anything but a FieldMatrix on the
    # right it raises).
    tree = ast.parse(path.read_text(), filename=str(path))
    kernel = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_matmul_mod"
        for node in ast.walk(fn)
    }
    object_dtype = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _uses_object_dtype(node)
    ]
    raw_products = [
        node.lineno for node in ast.walk(tree) if _is_raw_product(node) and id(node) not in kernel
    ]
    assert not object_dtype, f"{path.name} uses object dtype on lines {object_dtype}"
    assert not raw_products, f"{path.name} has @ outside _matmul_mod on lines {raw_products}"


def _indented_dump(call: ast.Call) -> bool:
    """A json.dump/json.dumps call (under any alias) with an indent."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("dump", "dumps") and any(kw.arg == "indent" for kw in call.keywords)


@pytest.mark.parametrize("path", SOURCE_FILES, ids=lambda p: p.name)
def test_indented_json_goes_through_the_writer(path):
    # json.dumps(indent=...) runs the standard library's pure-Python
    # encoder; every indented document is written by _jsonwriter.dumps,
    # which emits the same bytes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _indented_dump(node)]
    assert not lines, f"{path.name} calls json.dumps(indent=...) on lines {lines}; use _jsonwriter.dumps"


_COMMANDS_WITHOUT_MASKED_ARRAYS = """
import contextlib, io, sys
from sumnet.cli import main

work = sys.argv[1]
runs = (
    ["build", "--fano", "--json", work + "/net.json"],
    ["code", "--fano", "--field", "3", "--save-code", work + "/code.json"],
    ["simulate", "--fano", "--field", "3", "--code", work + "/code.json", "--trials", "20"],
)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma(tmp_path):
    # numpy.ma loads on first use of np.unique and some other helpers, and
    # costs every command about 1.6 MB of peak RSS
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_MASKED_ARRAYS, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _reads_of_lifted_views(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("encoders", "decoders")
    ]


def test_checks_read_only_the_held_core():
    # a code holds its core and w; its lifted views (.encoders, .decoders)
    # are built on request, w^2 times the core's size.  The checks and the
    # simulators read the core and map rows and columns back, so no line
    # of verify.py reads a view; the w = 1 oracle of the tests builds the
    # code as given in tests/conftest.py
    path = Path(__file__).resolve().parents[1] / "src" / "sumnet" / "verify.py"
    lines = _reads_of_lifted_views(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"verify.py reads a lifted view of a code on lines {lines}"


def test_code_document_is_written_from_the_held_core():
    # the sumnet.code/1 writer renders each lifted row from the core as it
    # writes it, so neither it nor the document it renders reads a view
    path = Path(__file__).resolve().parents[1] / "src" / "sumnet" / "coding.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    writers = {"code_to_json", "code_save", "_code_document"}
    found = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in writers]
    assert {fn.name for fn in found} == writers
    lines = [line for fn in found for line in _reads_of_lifted_views(fn)]
    assert not lines, f"the code document reads a lifted view of a code on lines {lines}"
