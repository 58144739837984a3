"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sumnet.coding import code_save

from conftest import reordered_fano_code

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


# numpy's product functions, called as np.matmul(...), a.dot(...) or bare
_PRODUCT_FUNCTIONS = {"matmul", "dot", "einsum", "tensordot", "inner"}


def _is_product_call(node: ast.AST) -> bool:
    """A call of one of numpy's product functions, under any owner."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in _PRODUCT_FUNCTIONS


@pytest.mark.parametrize("path", SOURCE_FILES, ids=lambda p: p.name)
def test_modular_products_go_through_the_kernel(path):
    # every product of residues must run in field._matmul_mod, whose bound
    # keeps it exact: a raw int64 product can wrap and an object-dtype one
    # is slow.  Outside the kernel, @ is allowed only with a freshly built
    # FieldMatrix on the left, which dispatches to FieldMatrix.__matmul__
    # and hence to the kernel (with anything but a FieldMatrix on the
    # right it raises), and numpy's product functions not at all.
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
        node.lineno
        for node in ast.walk(tree)
        if (_is_raw_product(node) or _is_product_call(node)) and id(node) not in kernel
    ]
    assert not object_dtype, f"{path.name} uses object dtype on lines {object_dtype}"
    assert not raw_products, f"{path.name} has a product outside _matmul_mod on lines {raw_products}"


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
    ["simulate", "--fano", "--field", "3", "--code", work + "/reordered.json", "--trials", "20"],
)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma(tmp_path):
    # numpy.ma loads on first use of np.unique and some other helpers, and
    # costs every command about 1.6 MB of peak RSS; a decoder listing its
    # in-edges in another order than the network's is compared as a set
    code_save(reordered_fano_code(), tmp_path / "reordered.json")
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
    # a code holds its kernels, core decoders and w; its lifted views
    # (.encoders, .decoders) are built on request, w^2 times the core's
    # size, and _core_encoder widens a kernel to the whole stacked source
    # vector.  The checks and the simulators read the kernels and the core
    # and map rows and columns back, so no line of verify.py reads a view
    # or builds a full-width encoder; the w = 1 oracle of the tests builds
    # the code as given in tests/conftest.py
    path = Path(__file__).resolve().parents[1] / "src" / "sumnet" / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _reads_of_lifted_views(tree)
    assert not lines, f"verify.py reads a lifted view of a code on lines {lines}"
    widened = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_core_encoder")
        or (isinstance(node, ast.Name) and node.id == "_core_encoder")
    ]
    assert not widened, f"verify.py builds a full-width encoder on lines {widened}"


def _is_table_rows(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "_TABLE_ROWS" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == "_TABLE_ROWS"


def test_only_one_routine_chunks_the_tables():
    # _jsonwriter._rows chunks every table the library writes: the network
    # document's edge rows, the code document's decoder in-edges and the
    # DOT edge lines.  A second loop over _TABLE_ROWS would chunk one of
    # them its own way, so nothing else reads it
    reads = []
    for path in SOURCE_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "_jsonwriter.py":
            (rows,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_rows"]
            allowed = set(map(id, ast.walk(rows)))
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_table_rows(node) and id(node) not in allowed
        ]
    assert not reads, f"_TABLE_ROWS is read outside _jsonwriter._rows at {reads}"


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


_SPANS_TRACED_AND_READ = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, traced
import sumnet.cli as cli
from sumnet import coding, verify

wrapped = traced.install(traced.Tracer(), cli, (verify, coding))
read = {name for spans, _, _ in run.LAYER_METRICS.values() for name in spans}
print(json.dumps({"wrapped": sorted(wrapped), "read": sorted(read)}))
"""


def _perfbench_child(script: str) -> dict:
    """The JSON that ``script`` prints, run with perfbench's directory as
    its first argument.  traced.py's install rebinds module attributes, so
    it runs in a child process, which leaves no bytecode beside
    perfbench's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", script, str(PERFBENCH)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_perfbench_wraps_every_span_its_layer_metrics_read():
    # traced.py's install wraps names bound in sumnet.cli, sumnet.verify,
    # sumnet.coding and FieldMatrix.__matmul__; a name the library stops
    # binding there is silently left unwrapped, and every metric of its
    # span reads nothing
    spans = _perfbench_child(_SPANS_TRACED_AND_READ)
    assert "field.matmul" in spans["read"] and "coding.from_json" in spans["read"]
    assert sorted(set(spans["read"]) - set(spans["wrapped"])) == []


_TRACED_CODE_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import traced
import sumnet.cli as cli
from sumnet import coding, verify

tracer = traced.Tracer()
traced.install(tracer, cli, (verify, coding))
if {zeroed}:
    build = cli.build_code

    def zeroed(net, f):
        # the code with core row 0 of kernel 1 zeroed in every copy
        code = build(net, f)
        kernels = list(code.core_kernels)
        a = kernels[0].array.copy()
        a[0] = 0
        kernels[0] = coding.FieldMatrix(f, a)
        return coding.NetworkCode._from_core(code.design, f, code.params, kernels, code.core_decoders, code.w)

    cli.build_code = zeroed
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = cli.main(["code", "--fano", "--field", "3", "--format", "json"])
names = [span["name"] for span in tracer.spans]
failures = sum(
    span["attrs"]["failures"] for span in tracer.spans
    if span["name"] in ("verify.partial_sum", "verify.block_sum")
)
print(json.dumps({{"exit_code": exit_code, "names": names, "recoverability_failures": failures}}))
"""


def test_perfbench_traced_code_run_opens_every_span_it_wraps():
    # a name the library still binds but no longer calls is wrapped and
    # never opened, so its metrics read nothing; this runs the fractional
    # code on Fano through the wrapped names and counts the spans it opens,
    # once as built and once with a kernel row zeroed
    for zeroed, exit_code, failing in ((False, 0, 0), (True, 2, 4)):
        run = _perfbench_child(_TRACED_CODE_RUN.format(zeroed=zeroed))
        assert run["exit_code"] == exit_code  # every check passed, or CHECK_FAILED
        opened = set(run["names"])
        for name in (
            "designs.generate", "network.build", "coding.build", "verify.transfer",
            "verify.partial_sum", "verify.block_sum", "field.matmul",
        ):
            assert name in opened, name
        # every decoder certifies its group on the built code, so no group
        # is eliminated; on the broken one each failing group, and no other,
        # is: the group of point 1 and those of the three blocks through it
        assert run["recoverability_failures"] == failing
        assert run["names"].count("field.row_space") == failing


# public functions and methods that no module of the library references
_UNREFERENCED_BY_DESIGN = {
    "block_source_extractor": "paper-facing API: reassembles a block's source at its terminal",
    "build_code_char_divides": "paper-facing API: the scalar code, refusing the other regime",
    "build_code_char_not_divides": "paper-facing API: the fractional code, refusing the other regime",
    "simulate": "paper-facing API: one assignment of source vectors through the network",
    "unicast_control_holds": "paper-facing API: the control of the alphabet-change demonstration",
    "partial_sum_row": "paper-facing API: the full-width map of a point's partial sum",
    "network_from_json": "boundary reader of sumnet.network/1 documents",
    "network_export_dot": "paper-facing API: the network as DOT text",
    "_Parser.error": "argparse calls it on a usage error",
    "NetworkCode.encoders": "the lifted encoders: perfbench's traced run reads them for its sizes",
    "NetworkCode.decoders": "the lifted decoders: README's library sketch and the test oracles read them",
    "SumNetwork.in_edges": "README names it among the network's accessors, and the test oracles read it",
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


def _narrowed(fn: ast.FunctionDef) -> dict[str, set[str]]:
    """Per name that ``fn`` tests with ``isinstance(name, C)`` (or a tuple
    of classes), the names of those classes."""
    narrowed = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
        ):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            narrowed.setdefault(node.args[0].id, set()).update(k.id for k in kinds if isinstance(k, ast.Name))
    return narrowed


def _attribute_reads(node: ast.AST, cls: str | None = None, narrowed: dict | None = None):
    """(attribute name, the classes it is read on) of each attribute read
    under ``node``: class C for a read on ``self`` in a method of C, or on
    a name its function narrows with ``isinstance(name, C)``; None for any
    other receiver, which may be of any class."""
    narrowed = narrowed or {}
    if isinstance(node, ast.FunctionDef):
        narrowed = {**narrowed, **({"self": {cls}} if cls else {}), **_narrowed(node)}
    elif isinstance(node, ast.Attribute):
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        yield node.attr, narrowed.get(receiver)
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, node.name if isinstance(node, ast.ClassDef) else None, narrowed)


def test_every_public_function_is_used_by_the_library():
    # a public name that only tests call is surface every later change has
    # to keep working; test oracles live in tests/conftest.py instead.  A
    # function counts as used when any module names it, bare, as an
    # attribute or in a from-import, and a method only when a module reads
    # it as an attribute (a local of the same name is no use of it) on a
    # receiver that may be of its class: ``self`` in its class's methods, a
    # name narrowed to its class by ``isinstance``, or any receiver of
    # unknown class; the package's re-exports do not count
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCE_FILES}
    named, read, read_on = set(), set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                named.update(alias.name for alias in node.names)
        for attr, classes in _attribute_reads(tree):
            if classes is None:
                read.add(attr)
            else:
                read_on.update(f"{c}.{attr}" for c in classes)
    read_anywhere = read | {qualified.split(".")[1] for qualified in read_on}
    unused = {
        qualified
        for tree in trees.values()
        for qualified, name in _public_definitions(tree)
        if not name.startswith("_")
        and not (name in read or qualified in read_on if "." in qualified else name in named | read_anywhere)
    }
    assert sorted(unused - set(_UNREFERENCED_BY_DESIGN)) == [], "move test-only helpers to tests/conftest.py"
    assert sorted(set(_UNREFERENCED_BY_DESIGN) - unused) == [], "the library now uses these; drop them here"
