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
    ["build", "--fano", "--dot", work + "/net.dot", "--filter-terminals", "p1,B1"],
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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _names_perfbench_reads_from_the_cli() -> set[str]:
    """The sumnet names the traced benchmark run looks up on ``sumnet.cli``:
    the second field of each ``CLI_ENTRY_POINTS`` row in traced.py, and the
    attributes that prepare.py's ``code_document`` reads off its namespace."""
    traced = ast.parse((PERFBENCH / "traced.py").read_text())
    rows = next(
        node.value.elts
        for node in traced.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_ENTRY_POINTS"]
    )
    names = {row.elts[1].value for row in rows}
    prepare = ast.parse((PERFBENCH / "prepare.py").read_text())
    fn = next(node for node in prepare.body if isinstance(node, ast.FunctionDef) and node.name == "code_document")
    namespace = fn.args.args[0].arg
    names |= {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == namespace
    }
    return names


def test_cli_binds_every_name_perfbench_reads():
    # the traced run wraps these names where sumnet.cli binds them and
    # builds its set-up code document through them; a name the CLI stops
    # binding is silently left unwrapped, and its spans read nothing
    import sumnet.cli

    names = _names_perfbench_reads_from_the_cli()
    assert {"fano", "sts_bose", "build_sum_network", "build_code", "PrimeField", "code_to_json"} <= names
    assert sorted(x for x in names if not hasattr(sumnet.cli, x)) == []


# public functions and methods that no module of the library references
_UNREFERENCED_BY_DESIGN = {
    "block_source_extractor": "paper-facing API: reassembles a block's source at its terminal",
    "build_code_char_divides": "paper-facing API: the scalar code, refusing the other regime",
    "build_code_char_not_divides": "paper-facing API: the fractional code, refusing the other regime",
    "simulate": "paper-facing API: one assignment of source vectors through the network",
    "unicast_control_holds": "paper-facing API: the control of the alphabet-change demonstration",
    "network_from_json": "boundary reader of sumnet.network/1 documents",
    "network_export_dot": "paper-facing API: the network as DOT text",
    "_Parser.error": "argparse calls it on a usage error",
    "NetworkCode.encoders": "the lifted encoders: perfbench's traced run reads them for its sizes",
    "NetworkCode.decoders": "the lifted decoders: README's library sketch and the test oracles read them",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_function_is_used_by_the_library():
    # a public name that only tests call is surface every later change has
    # to keep working; test oracles live in tests/conftest.py instead.  A
    # function counts as used when any module names it, bare, as an
    # attribute or in a from-import, and a method only when a module reads
    # it as an attribute (a local of the same name is no use of it); the
    # package's re-exports do not count
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCE_FILES}
    named, read = set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                named.update(alias.name for alias in node.names)
    unused = {
        qualified
        for tree in trees.values()
        for qualified, name in _public_definitions(tree)
        if not name.startswith("_") and name not in (read if "." in qualified else named | read)
    }
    assert sorted(unused - set(_UNREFERENCED_BY_DESIGN)) == [], "move test-only helpers to tests/conftest.py"
    assert sorted(set(_UNREFERENCED_BY_DESIGN) - unused) == [], "the library now uses these; drop them here"
