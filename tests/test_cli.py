import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from functools import lru_cache, reduce
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet import cli, coding, designs
from sumnet.cli import build_parser, main
from sumnet.coding import NetworkCode, code_from_json, code_load, code_to_json
from sumnet.coding import build_code
from sumnet.designs import Design, ParseError, _load_json, _read_text, fano, sts_bose
from sumnet.field import PrimeField
from sumnet.network import build_sum_network, network_export_json, network_from_json, parse_node_label
from sumnet.verify import ShapeMismatchError, transfer_check

from conftest import code_from_whole_text, peak_allocation_below, within_seconds


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parser_supports_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["design", "--fano"])
    assert args.command == "design" and args.fano
    args = parser.parse_args(["build", "--sts", "9", "--dot", "x.dot"])
    assert args.command == "build" and args.sts == 9 and args.dot == "x.dot"
    args = parser.parse_args(["code", "--fano", "--field", "3"])
    assert args.field == 3
    args = parser.parse_args(["capacity", "--load", "d.json", "--field", "7"])
    assert args.load == "d.json"
    args = parser.parse_args(["simulate", "--fano", "--field", "3", "--trials", "10", "--seed", "5"])
    assert args.trials == 10 and args.seed == 5
    args = parser.parse_args(["counterexample", "--gamma", "2", "--format", "json"])
    assert args.gamma == 2 and args.format == "json"


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["design"]) == 1  # no design source
    assert main(["design", "--fano", "--sts", "9"]) == 1  # mutually exclusive
    assert main(["code", "--fano"]) == 1  # missing --field
    assert main(["frobnicate"]) == 1


def test_a_closed_stdout_exits_one_without_a_message():
    # the reader of the pipe goes away before the command writes: that is
    # no failed check (exit 2), and nothing is printed about it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "sumnet.cli", "code", "--fano", "--field", "3"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        child.stdout.close()
        stderr = child.stderr.read()
    assert (child.wait(timeout=120), stderr) == (1, b"")


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_fano_json(capsys):
    assert main(["design", "--fano", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "sumnet.design-report/1"
    assert data["valid"] is True
    assert data["design"]["blocks"] == [
        [1, 2, 3], [3, 4, 5], [1, 5, 6], [1, 4, 7], [2, 5, 7], [3, 6, 7], [2, 4, 6],
    ]


def test_design_sts9(capsys):
    assert main(["design", "--sts", "9"]) == 0
    out = capsys.readouterr().out
    assert "v=9" in out and "b=12" in out and "valid: yes" in out


def test_design_sts8_is_usage_error(capsys):
    assert main(["design", "--sts", "8"]) == 1


def test_design_save_and_reload(tmp_path, capsys):
    path = tmp_path / "d.json"
    assert main(["design", "--sts", "9", "--save", str(path)]) == 0
    capsys.readouterr()
    assert main(["design", "--load", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_design_invalid_file_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 3, "k": 3, "lambda": 1, "blocks": [[1, 2]]}))
    assert main(["design", "--load", str(path)]) == 2


def with_a_json_boolean(design: dict, where: str) -> str:
    """The message ``Design.from_dict`` refuses ``design`` with after a
    JSON ``true`` replaces lambda or a point of the last block."""
    if where == "lambda":
        design["lambda"] = True
        return "v, k and lambda must be integers"
    design["blocks"][-1][1] = True
    return f"bad block {design['blocks'][-1]!r}"


@pytest.mark.parametrize("where", ["lambda", "block"])
def test_design_load_rejects_json_booleans(tmp_path, capsys, where):
    data = fano().to_dict()
    message = with_a_json_boolean(data, where)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["design", "--load", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"sumnet: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--load"],
        ["code", "--field", "3", "--load"],
        ["capacity", "--field", "3", "--load"],
        ["simulate", "--field", "3", "--load"],
        ["simulate", "--fano", "--field", "3", "--code"],
    ],
    ids=["design", "code", "capacity", "simulate", "simulate-code"],
)
def test_a_file_that_is_not_utf8_is_refused(tmp_path, capsys, argv):
    # JSON text is UTF-8: other bytes are a parse error, not a traceback
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("sumnet: error: not UTF-8 text: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_fano_dot(tmp_path, capsys):
    dot_path = tmp_path / "fano.dot"
    assert main(["build", "--fano", "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.count("[style=bold]") == 7


def test_build_filtered_dot(tmp_path, capsys):
    dot_path = tmp_path / "part.dot"
    rc = main(["build", "--fano", "--dot", str(dot_path), "--filter-terminals", "p1,B1"])
    assert rc == 0
    assert dot_path.read_text().count("[style=bold]") == 3
    # whitespace around a token is no part of it
    spaced = tmp_path / "spaced.dot"
    assert main(["build", "--fano", "--dot", str(spaced), "--filter-terminals", " p1, B1 "]) == 0
    assert spaced.read_bytes() == dot_path.read_bytes()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("p99", "terminal 'p99' is not a terminal of the network"),
        ("p1,B8", "terminal 'B8' is not a terminal of the network"),
        ("p1,x1", "terminal 'x1' should look like p3 or B2"),
        ("p0", "bad node label 'terminal-point:0'"),
        # a number is ASCII digits without a leading zero, as int() does not ask
        ("p+1", "terminal 'p+1' should look like p3 or B2"),
        ("p 1", "terminal 'p 1' should look like p3 or B2"),
        ("p1,p01", "terminal 'p01' should look like p3 or B2"),
        ("B\u0663", "terminal 'B\u0663' should look like p3 or B2"),
        ("p1_0", "terminal 'p1_0' should look like p3 or B2"),
    ],
)
def test_build_refuses_a_filter_terminal_the_network_lacks(tmp_path, capsys, spec, message):
    # a terminal outside the network is refused as a malformed token is,
    # before any file is written; p1_0 would name p10, which STS(15) has
    design = ["--sts", "15"] if spec == "p1_0" else ["--fano"]
    dot_path, json_path = tmp_path / "part.dot", tmp_path / "net.json"
    argv = ["build", *design, "--dot", str(dot_path), "--json", str(json_path), "--filter-terminals", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sumnet: error: {message}\n"
    assert not dot_path.exists() and not json_path.exists()


@pytest.mark.parametrize(
    "args,spec,digest",
    [
        (["--fano"], "p1,B1", "8f5598a0854236e6c599979617aa9a52cce8823cbd0f2200f3d439c1db90a466"),
        (["--sts", "9"], "p3,B2,B7", "11e8cfc37298c2142554ce52fa22e44308444003c9f2fdd6f6e8fefbdc96db59"),
    ],
)
def test_build_filtered_dot_keeps_its_golden_digest(tmp_path, capsys, args, spec, digest):
    # the digests of tests/test_network.py's NETWORK_DOT_SHA256, written
    # through the command's terminal filter
    dot_path = tmp_path / "part.dot"
    assert main(["build", *args, "--dot", str(dot_path), "--filter-terminals", spec]) == 0
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == digest


def test_build_sts9_network_file(tmp_path, capsys):
    net_path = tmp_path / "n.json"
    assert main(["build", "--sts", "9", "--json", str(net_path)]) == 0
    data = json.loads(net_path.read_text())
    assert len(data["nodes"]) == 60
    out = capsys.readouterr().out
    assert "nodes: 60" in out


def test_build_bad_design_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["build", "--load", str(path)]) == 2


# ---------------------------------------------------------------------------
# code / capacity
# ---------------------------------------------------------------------------

def test_code_fano_gf2(capsys):
    assert main(["code", "--fano", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert "rate: 1/1" in out and "transfer check: ok" in out


def test_code_fano_gf3_json(capsys):
    assert main(["code", "--fano", "--field", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rate"] == {"m": 6, "n": 12}
    assert data["transfer_check"] and data["partial_sum_recoverable"] and data["block_sum_recoverable"]


def test_code_sts9_gf5(capsys):
    assert main(["code", "--sts", "9", "--field", "5"]) == 0
    out = capsys.readouterr().out
    assert "rate: 9/21" in out


def test_code_save(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    code = code_from_json(path.read_text())
    assert code.params.m == 6


def test_saved_code_is_the_code_document(tmp_path, capsys):
    # w = 3: every map is written row by row from its core
    path = tmp_path / "code.json"
    assert main(["code", "--sts", "9", "--field", "5", "--save-code", str(path)]) == 0
    code = build_code(build_sum_network(sts_bose(9)), PrimeField(5))
    assert code.w == 3
    assert path.read_bytes() == code_to_json(code).encode()


def test_save_code_into_a_directory_is_an_error(tmp_path, capsys):
    assert main(["code", "--fano", "--field", "3", "--save-code", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sumnet: error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_save_code_streams_the_document(tmp_path, capsys):
    # the 12 MB document is written as it is rendered, never held whole
    path = tmp_path / "code.json"
    what = "code --sts 15 --field 3 --save-code"
    with peak_allocation_below(4 * 2**20, what):
        assert main(["code", "--sts", "15", "--field", "3", "--save-code", str(path)]) == 0
    assert path.stat().st_size > 4 * 2**20


def test_build_streams_both_network_documents(tmp_path, capsys):
    # the 9.8 MB JSON and 2.8 MB DOT documents of STS(45)'s 119,595 edges
    # are written in chunks of rows; building and validating alone peak
    # at about 5.6 MiB of traced allocations
    net_path, dot_path = tmp_path / "net.json", tmp_path / "net.dot"
    what = "build --sts 45 --json --dot"
    with peak_allocation_below(12 * 2**20, what), within_seconds(30.0, what):
        assert main(["build", "--sts", "45", "--json", str(net_path), "--dot", str(dot_path)]) == 0
    assert net_path.stat().st_size == 9_759_889
    assert dot_path.stat().st_size == 2_772_659


def test_code_rejects_composite_field(capsys):
    assert main(["code", "--fano", "--field", "4"]) == 1


def test_huge_prime_field_is_refused_within_a_second(capsys):
    # 2^61 - 1 is prime; trial division up to its square root took minutes
    start = time.perf_counter()
    with within_seconds(1.0, "capacity --field 2^61-1"):
        assert main(["capacity", "--sts", "9", "--field", "2305843009213693951"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "modulus 2305843009213693951 too large" in capsys.readouterr().err


def test_code_sts33_fractional_passes_every_check(capsys):
    # w = 11: the lifted maps would be 89M cells, about 712 MB
    what = "code --sts 33 --field 3"
    with peak_allocation_below(32 * 2**20, what), within_seconds(30.0, what):
        assert main(["code", "--sts", "33", "--field", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rate"] == {"m": 33, "n": 209} and report["failures"] == []
    assert report["transfer_check"] and report["partial_sum_recoverable"] and report["block_sum_recoverable"]


def test_capacity_values(capsys):
    assert main(["capacity", "--fano", "--field", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["achieved"] == {"num": 1, "den": 1}
    assert main(["capacity", "--fano", "--field", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["achieved"] == {"num": 1, "den": 2} == data["upper"]
    assert main(["capacity", "--sts", "15", "--field", "7", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["achieved"] == {"num": 3, "den": 10}
    assert data["matches"] is True


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fano_gf3(capsys):
    assert main(["simulate", "--fano", "--field", "3", "--trials", "200", "--seed", "42"]) == 0
    assert "200/200" in capsys.readouterr().out


def test_simulate_zero_trials(capsys):
    assert main(["simulate", "--fano", "--field", "3", "--trials", "0", "--seed", "1"]) == 0


def test_simulate_negative_counts_are_usage_errors(capsys, monkeypatch):
    monkeypatch.setenv("SUMNET_SEED", "-3")
    for argv, name in (
        (["--trials", "-1"], "--trials"),
        (["--seed", "-4"], "--seed"),
        ([], "$SUMNET_SEED"),
    ):
        assert main(["simulate", "--fano", "--field", "3", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("sumnet: error:") and name in captured.err


def test_simulate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SUMNET_SEED", "7")
    assert main(["simulate", "--fano", "--field", "2", "--trials", "10"]) == 0
    assert "seed 7" in capsys.readouterr().out


def test_simulate_corrupted_code_exits_two(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["encoders"][0][0][0] = (data["encoders"][0][0][0] + 1) % 3
    path.write_text(json.dumps(data))
    rc = main(["simulate", "--fano", "--field", "3", "--trials", "50", "--seed", "3",
               "--code", str(path)])
    assert rc == 2
    assert "decoded" in capsys.readouterr().out


def test_simulate_rejects_bogus_regime(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    data["params"]["regime"] = "bogus"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
    assert "regime='bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("k", [0, 1])
def test_simulate_rejects_a_code_whose_blocks_hold_fewer_than_two_points(tmp_path, capsys, k):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["design"]["k"] = k
    path.write_text(json.dumps(data))
    assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sumnet: error: malformed code document: block size must be at least 2, got k={k}\n"


def test_simulate_rejects_wrong_message_length(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    data["params"]["m"] = 3
    path.write_text(json.dumps(data))
    assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
    assert "m=3" in capsys.readouterr().err


def test_simulate_rejects_encoder_reading_unwired_source(tmp_path, capsys):
    # block 5 misses point 1: simulation never hands bottleneck 1 its source,
    # so the coefficient would pass every trial while transfer_check fails
    path = tmp_path / "code.json"
    assert main(["code", "--sts", "9", "--field", "3", "--save-code", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    m = data["params"]["m"]
    assert 0 not in data["design"]["blocks"][4]
    data["encoders"][0][0][(9 + 4) * m] = 1
    path.write_text(json.dumps(data))
    assert main(["simulate", "--sts", "9", "--field", "3", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bottleneck 1 reads source-block:5, which is not wired into it" in captured.err


def test_simulate_rejects_misshapen_matrices(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    saved = path.read_text()

    def drop_last_column(rows):
        return [row[:-1] for row in rows]

    cases = (
        (("encoders",), lambda encoders: encoders[:-1], "6 encoders for 7 bottlenecks"),
        (("encoders", 0), drop_last_column, "encoder of bottleneck 1 has shape (12, 83)"),
        (("decoders", "terminal-point:2", "matrix"), lambda rows: rows[:-1],
         "decoder at terminal-point:2 has shape (5, 72), expected (6, 72)"),
        (("decoders", "terminal-block:3", "matrix"), drop_last_column,
         "decoder at terminal-block:3 has shape (6, 59), expected (6, 60)"),
        (("decoders", "terminal-point:1", "in_edges"), lambda rows: [],
         "decoder at terminal-point:1 has shape (6, 72), expected (6, 0)"),
    )
    for (*outer, key), corrupt, message in cases:
        data = holder = json.loads(saved)
        for step in outer:
            holder = holder[step]
        holder[key] = corrupt(holder[key])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
        assert message in capsys.readouterr().err


def assert_simulate_refuses(path, argv, text: str, message: str, capsys) -> None:
    """``code_from_json`` refuses ``text`` with ``ParseError`` and
    ``simulate --code`` exits 2 with one error line, both saying ``message``."""
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        code_from_json(text)
    path.write_text(text)
    capsys.readouterr()
    assert main(["simulate", *argv, "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"sumnet: error: {message}\n")


@pytest.mark.parametrize("design", [["--fano"], ["--sts", "9"]])
def test_simulate_refuses_a_code_document_that_spells_a_key_twice(tmp_path, capsys, design):
    # json.loads keeps the last of two equal keys: a corrupted copy of a
    # decoder listed before the true one was dropped, and one listed after
    # it was read
    path, argv = tmp_path / "code.json", [*design, "--field", "3"]
    assert main(["code", *argv, "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    text = json.dumps(data)
    decoder = data["decoders"]["terminal-point:1"]
    corrupted = {**decoder, "matrix": [[(x + 1) % 3 for x in row] for row in decoder["matrix"]]}
    entry, schema = f'"terminal-point:1": {json.dumps(corrupted)}', '"schema": "sumnet.code/1"'
    cases = (
        (text.replace('"decoders": {', '"decoders": {' + entry + ", ", 1), "terminal-point:1"),
        (text.replace('}, "design": ', ", " + entry + '}, "design": ', 1), "terminal-point:1"),
        (text.replace(schema, f"{schema}, {schema}", 1), "schema"),
    )
    for changed, key in cases:
        assert changed != text
        assert_simulate_refuses(path, argv, changed, f"duplicate key {key!r}", capsys)


RESPELLED = ["terminal-point:01", "terminal-point:+1", "terminal-point: 1", "terminal-point:1_0"]


@pytest.mark.parametrize("spelling", RESPELLED)
def test_simulate_refuses_a_code_document_with_a_respelled_label(tmp_path, capsys, spelling):
    # int() reads each spelling, so it once loaded as a second key for
    # terminal-point:1 (or, for 1_0, terminal-point:10)
    path, argv = tmp_path / "code.json", ["--fano", "--field", "3"]
    assert main(["code", *argv, "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    as_key = {t if t != "terminal-point:1" else spelling: entry for t, entry in data["decoders"].items()}
    as_head = json.loads(json.dumps(data["decoders"]))
    for row in as_head["terminal-point:1"]["in_edges"]:
        row[1] = spelling
    message = f"malformed code document: node label {spelling!r} is not spelled "
    message += repr(parse_node_label(spelling).label())
    for decoders in (as_key, as_head):
        assert_simulate_refuses(path, argv, json.dumps({**data, "decoders": decoders}), message, capsys)


@lru_cache(maxsize=None)
def valid_documents() -> dict[tuple[str, str], str]:
    """(design, kind) -> a valid document: the design, its network, and its
    code over GF(2) and GF(3), for Fano and STS(9)."""
    docs = {}
    for name, make in (("--fano", fano), ("--sts 9", lambda: sts_bose(9))):
        d = make()
        net = build_sum_network(d)
        docs[name, "design"] = json.dumps(d.to_dict())
        docs[name, "network"] = network_export_json(net)
        for p in (2, 3):
            docs[name, f"code {p}"] = code_to_json(build_code(net, PrimeField(p)))
    return docs


def document_sites(value, path=()):
    """(path, key) of every object in a JSON value, key None, and of every
    node label in it, key True where the label is an object's key."""
    if isinstance(value, dict):
        yield path, None
        for key, item in value.items():
            if isinstance(key, str) and is_node_label(key):
                yield (*path, key), True
            yield from document_sites(item, (*path, key))
    elif isinstance(value, list) and not (value and isinstance(value[0], int)):  # skip matrix rows
        for x, item in enumerate(value):
            yield from document_sites(item, (*path, x))
    elif isinstance(value, str) and is_node_label(value):
        yield path, False


def is_node_label(text: str) -> bool:
    try:
        return parse_node_label(text).label() == text
    except ParseError:
        return False


def respellings(label: str) -> list[str]:
    """Spellings of a label's number that int() reads as the same number."""
    kind, number = label.rsplit(":", 1)
    grouped = f"{number[0]}_{number[1:]}" if len(number) > 1 else f"0_{number}"
    return [f"{kind}:{x}" for x in (f"0{number}", f"+{number}", f" {number}", f"{number} ", grouped)]


def value_at(data, path):
    return reduce(lambda holder, step: holder[step], path, data)


def replace_at(data, path, value):
    """``data`` with the value at ``path`` replaced."""
    if not path:
        return value
    value_at(data, path[:-1])[path[-1]] = value
    return data


@st.composite
def corrupted_documents(draw):
    """A valid Fano or STS(9) document (design, network or code) with one
    object's key spelled twice, or one node label respelled, anywhere in
    it; design documents hold no labels.  Returns the document kind, its
    design arguments, its text and the message it must be refused with."""
    (design, kind), text = draw(st.sampled_from(sorted(valid_documents().items())))
    data = json.loads(text)
    sites = list(document_sites(data))
    duplicate = kind == "design" or draw(st.booleans())
    path, key = draw(st.sampled_from([(path, key) for path, key in sites if (key is None) == duplicate]))
    if duplicate:
        holder = value_at(data, path)
        twice = draw(st.sampled_from(sorted(holder)))
        members = list(holder.items())
        members.insert(draw(st.integers(0, len(members))), ("\0twice", holder[twice]))
        text = json.dumps(replace_at(data, path, dict(members)))
        text = text.replace(json.dumps("\0twice"), json.dumps(twice), 1)
        return kind, design, text, f"duplicate key {twice!r}"
    label = path[-1] if key else value_at(data, path)
    spelled = draw(st.sampled_from(respellings(label)))
    if key:
        holder = value_at(data, path[:-1])
        renamed = {spelled if k == label else k: item for k, item in holder.items()}
        data = replace_at(data, path[:-1], renamed)
    else:
        data = replace_at(data, path, spelled)
    return kind, design, json.dumps(data), f"node label {spelled!r} is not spelled {label!r}"


@settings(max_examples=80, deadline=None)
@given(corrupted_documents())
def test_a_key_spelled_twice_or_a_respelled_label_anywhere_is_refused(case):
    # the one JSON reader refuses a key spelled twice in any object, and
    # the network and code readers a node label not in its canonical
    # spelling, wherever in the document it stands; a design or code
    # document is then refused on the command line with one error line
    kind, design, text, message = case
    readers = {"design": lambda x: Design.from_dict(_load_json(x)), "network": network_from_json}
    with pytest.raises(ParseError) as refused:
        readers.get(kind, code_from_json)(text)
    assert message in str(refused.value)
    if kind == "network":
        return
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "doc.json"
        path.write_text(text)
        if kind == "design":
            argv = ["simulate", "--load", str(path), "--field", "3", "--trials", "5"]
        else:
            argv = ["simulate", *design.split(), "--field", kind.split()[1], "--code", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"sumnet: error: {refused.value}\n")


def test_simulate_rejects_decoder_in_edges_outside_the_design(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    saved = path.read_text()

    def set_edge(index, tail=None, head=None, kind=None):
        def corrupt(decoders):
            edge = decoders["terminal-point:2"]["in_edges"][index]
            edge[:] = [tail or edge[0], head or edge[1], kind or edge[2]]
        return corrupt

    def rename(old, new):
        def corrupt(decoders):
            decoders[new] = decoders.pop(old)
        return corrupt

    at = "decoder at terminal-point:2 lists in-edge"
    cases = (
        (set_edge(1, head="terminal-point:3"),
         f"{at} source-point:1 -> terminal-point:3, which does not end at its terminal"),
        (set_edge(1, kind="relay"),
         f"{at} source-point:1 -> terminal-point:2 of kind 'relay', not a terminal in-edge kind"),
        (set_edge(0, kind="direct"),
         f"{at} bottleneck-head:2 -> terminal-point:2: a direct edge cannot start at a bottleneck-head"),
        (set_edge(1, tail="source-block:8"),
         f"{at} source-block:8 -> terminal-point:2: source-block:8 is not a node of the design"),
        (rename("terminal-block:7", "terminal-block:8"),
         "decoder at terminal-block:8, which is not a terminal of the design"),
        (rename("terminal-block:7", "source-point:1"),
         "decoder at source-point:1, which is not a terminal of the design"),
        (lambda decoders: decoders.pop("terminal-block:7"), "no decoder for terminal-block:7"),
    )
    for corrupt, message in cases:
        data = json.loads(saved)
        corrupt(data["decoders"])
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def set_entry(*where, value):
    """A corruption of a code document's value that sets the entry at
    ``where`` to ``value``."""
    return lambda data: replace_at(data, where, value)


FIRST_DECODER_ENTRY = ("decoders", "terminal-point:1", "matrix", 0, 0)
NOT_INTEGER = "malformed code document: matrix entries must be integers of magnitude below 2**63"
# single faults of a Fano/GF(3) code document, each with its refusal
NOT_JSON_INTEGERS = (
    (set_entry(*FIRST_DECODER_ENTRY, value=1.5), "malformed code document: 1.5 is not an integer"),
    (set_entry(*FIRST_DECODER_ENTRY, value="1"), NOT_INTEGER),
    (set_entry(*FIRST_DECODER_ENTRY, value=True), NOT_INTEGER),
    (set_entry(*FIRST_DECODER_ENTRY, value=2**70), NOT_INTEGER),
    (set_entry("encoders", 0, 0, 0, value="1"), NOT_INTEGER),
    (set_entry("encoders", 0, 0, 0, value=2**63), NOT_INTEGER),
    (lambda data: data.update(decoders=list(data["decoders"].values())),
     "malformed code document: decoders must be an object keyed by terminal label"),
)


def test_simulate_rejects_coefficients_that_are_not_json_integers(tmp_path, capsys):
    # a float was truncated (1.5 read as 1), a string parsed, a boolean
    # among integers read as 1, an integer past int64 and a list of
    # decoders escaped as tracebacks
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    saved = path.read_text()
    assert json.loads(saved)["decoders"]["terminal-point:1"]["matrix"][0][0] == 1
    for corrupt, message in NOT_JSON_INTEGERS:
        data = json.loads(saved)
        corrupt(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["simulate", "--fano", "--field", "3", "--trials", "20", "--code", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sumnet: error: {message}\n"


def outcome(read):
    """What ``read()`` returns, or the type and text of what it raises."""
    try:
        return read()
    except Exception as exc:  # compared, type and text, with the reference
        return type(exc), str(exc)


def respell(data, draw) -> str:
    """A code document's value written anew: every object's keys in a drawn
    order, a drawn indent and separators, and whitespace around it."""
    def shuffled(value):
        if isinstance(value, dict):
            return {key: shuffled(value[key]) for key in draw(st.permutations(list(value)))}
        if isinstance(value, list):
            return [shuffled(x) for x in value]
        return value

    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")]))
    text = json.dumps(shuffled(data), indent=indent, separators=separators, ensure_ascii=False)
    return draw(st.sampled_from(["", " ", "\n\t"])) + text + draw(st.sampled_from(["", "\n"]))


# a matrix entry written in place of a spelling, which then replaces its text
SPELLED = "\0spelled"


def spell(text: str, spelling: str) -> str:
    """``text`` with its ``SPELLED`` entry spelled ``spelling``."""
    assert text.count(json.dumps(SPELLED)) == 1
    return text.replace(json.dumps(SPELLED), spelling)


def edge_spellings(entry: int, p: int) -> dict[str, str]:
    """Spellings of a matrix entry over GF(p) at the edge of the rows read
    in bulk, each read as ``entry``: those past it (a sign, 19 digits),
    which json decodes, and those just inside it (18 digits, a tab or CR LF
    between entries)."""
    found = {
        "negative": str(entry - p),
        "18 digits": str(10**17 + (entry - 10**17) % p),
        "19 digits": str(10**18 + (entry - 10**18) % p),
        "tab": f"\t{entry}\t",
        "CR LF": f"\r\n{entry}\r\n",
    }
    if entry == 0:
        found["-0"] = "-0"
    if entry == (2**63 - 1) % p:
        found["2**63 - 1"] = str(2**63 - 1)
    return found


@st.composite
def respelled_code_documents(draw):
    """A valid Fano or STS(9) code document over GF(2) or GF(3), respelled,
    with a member added to the document or to a decoder entry, which the
    reader ignores: non-ASCII text, or a JSON integer or literal that a
    window ending inside it would cut short.  One matrix entry may be
    spelled at the edge of the rows read in bulk (``edge_spellings``)."""
    codes = sorted(key for key in valid_documents() if key[1].startswith("code"))
    data = json.loads(valid_documents()[draw(st.sampled_from(codes))])
    holder = draw(st.sampled_from([data, *data["decoders"].values()]))
    note = st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4)
    holder["note"] = draw(note | st.integers(10**6, 10**30) | st.integers() | st.booleans() | st.none())
    if not draw(st.booleans()):
        return respell(data, draw).encode()
    matrices = [*data["encoders"], *(entry["matrix"] for entry in data["decoders"].values())]
    row = draw(st.sampled_from(draw(st.sampled_from(matrices))))
    x = draw(st.integers(0, len(row) - 1))
    spelling = draw(st.sampled_from(sorted(edge_spellings(row[x], data["p"]).values())))
    row[x] = SPELLED
    return spell(respell(data, draw), spelling).encode()


@st.composite
def faulty_code_documents(draw):
    """The bytes of a respelled Fano/GF(3) code document with one fault: a
    matrix entry that is no JSON integer (``NOT_JSON_INTEGERS``), the
    document cut off at a drawn byte, or a stray byte that is not UTF-8."""
    data = json.loads(valid_documents()["--fano", "code 3"])
    data["note"] = "\u00e9t\u00e9"
    fault = draw(st.sampled_from(["entry", "truncated", "stray byte"]))
    if fault == "entry":
        corrupt, _ = draw(st.sampled_from(NOT_JSON_INTEGERS))
        corrupt(data)
    raw = respell(data, draw).encode()
    at = draw(st.integers(0, len(raw)))
    if fault == "truncated":
        return raw[:at]
    if fault == "stray byte":
        return raw[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[at:]
    return raw


def assert_both_readers_agree(raw: bytes, read_bytes: int):
    """``code_load`` of ``raw``, read ``read_bytes`` at a time so that every
    value straddles a window boundary, and ``code_from_json`` of its text
    both return or refuse what the reference reader of the whole text
    does; returns that outcome."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "code.json"
        path.write_bytes(raw)
        expected = outcome(lambda: code_from_whole_text(_read_text(path)))
        with patch.object(designs, "_READ_BYTES", read_bytes):
            assert outcome(lambda: code_load(path)) == expected
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        assert expected[0] is ParseError and expected[1].startswith("not UTF-8 text: ")
    else:
        assert outcome(lambda: code_from_json(text)) == expected
    return expected


@settings(max_examples=50, deadline=None)
@given(respelled_code_documents(), st.integers(1, 7))
def test_a_respelled_code_document_loads_as_its_whole_text_does(raw, read_bytes):
    # indent, separators, key order and non-ASCII text do not change the
    # code a document holds, read whole or a few bytes at a time
    loaded = assert_both_readers_agree(raw, read_bytes)
    assert isinstance(loaded, NetworkCode)


@settings(max_examples=60, deadline=None)
@given(faulty_code_documents(), st.integers(1, 7))
def test_a_faulty_code_document_is_refused_as_its_whole_text_is(raw, read_bytes):
    # a cut-off document is refused where the whole text's parse refuses
    # it, a stray byte as text that is not UTF-8, and an entry that is no
    # JSON integer with the text of its single fault
    refused = assert_both_readers_agree(raw, read_bytes)
    assert isinstance(refused, NetworkCode) or refused[0] is ParseError


@pytest.mark.parametrize("read_bytes", [1, 2, 5])
def test_a_number_the_window_cuts_off_is_read_whole(read_bytes):
    # a value that ends where the text read so far ends may go on past it
    text = valid_documents()["--fano", "code 3"]
    data = json.loads(text)
    data["note"] = 1234567890123
    data["decoders"]["terminal-point:1"]["note"] = -98765
    assert assert_both_readers_agree(json.dumps(data).encode(), read_bytes) == code_from_json(text)


@pytest.mark.parametrize("read_bytes", [1, 3])
@pytest.mark.parametrize("fault", range(len(NOT_JSON_INTEGERS)))
def test_an_entry_that_is_no_json_integer_is_refused_by_both_readers(fault, read_bytes):
    data = json.loads(valid_documents()["--fano", "code 3"])
    corrupt, message = NOT_JSON_INTEGERS[fault]
    corrupt(data)
    raw = json.dumps(data, indent=2).encode()
    assert assert_both_readers_agree(raw, read_bytes) == (ParseError, message)


def fano_document() -> tuple[dict, list]:
    """The value of the Fano/GF(3) code document and the matrix of its
    decoder at terminal-point:1, six rows of 72 entries."""
    data = json.loads(valid_documents()["--fano", "code 3"])
    return data, data["decoders"]["terminal-point:1"]["matrix"]


# spellings of entry 1 of that matrix's row 2, which is 0, and how each is
# refused: where the whole text's parse stops, or with the text of its entry
NOT_JSON = "not valid JSON: "
FAULTY_SPELLINGS = {
    "leading zero": ("01", NOT_JSON),
    "plus sign": ("+1", NOT_JSON),
    "space inside": ("1 2", NOT_JSON),
    "exponent": ("1E3", "malformed code document: 1E3 is not an integer"),
    "hexadecimal": ("0x1", NOT_JSON),
    "2**63": (str(2**63), NOT_INTEGER),
}
READS = [*range(1, 8), designs._READ_BYTES]


@pytest.mark.parametrize("read_bytes", READS)
@pytest.mark.parametrize("name", sorted({*edge_spellings(0, 3), *edge_spellings(1, 3)}))
def test_an_entry_spelled_at_the_edge_of_the_bulk_rows_loads_as_its_value(name, read_bytes):
    # a row is read in bulk only when it is spelled as json.dumps spells
    # integers below 10**18; json decodes every other row, so a sign, 19
    # digits or a value past int64 read as they did
    data, matrix = fano_document()
    x = next(x for x, entry in enumerate(matrix[2]) if name in edge_spellings(entry, 3))
    spelling, matrix[2][x] = edge_spellings(matrix[2][x], 3)[name], SPELLED
    raw = spell(json.dumps(data, indent=2), spelling).encode()
    assert assert_both_readers_agree(raw, read_bytes) == code_from_json(valid_documents()["--fano", "code 3"])


@pytest.mark.parametrize("read_bytes", READS)
@pytest.mark.parametrize("name", sorted(FAULTY_SPELLINGS))
def test_an_entry_spelled_past_the_bulk_rows_is_refused_as_before(name, read_bytes):
    spelling, message = FAULTY_SPELLINGS[name]
    data, matrix = fano_document()
    matrix[2][1] = SPELLED
    refused = assert_both_readers_agree(spell(json.dumps(data, indent=2), spelling).encode(), read_bytes)
    assert refused[0] is ParseError and refused[1].startswith(message)


@pytest.mark.parametrize("read_bytes", READS)
@pytest.mark.parametrize("fault", ["trailing comma", "token between rows", "ragged row", "empty matrix"])
def test_a_matrix_the_bulk_rows_do_not_fit_is_refused_as_before(fault, read_bytes):
    data, matrix = fano_document()
    last = matrix[2][-1]
    if fault == "trailing comma":
        matrix[2][-1] = SPELLED
        raw = spell(json.dumps(data, indent=2), f"{last},").encode()
    elif fault == "token between rows":
        # the next row's first entry moved out of it: as many runs of
        # digits as entries, and the brackets and commas of a matrix
        matrix[2][-1], matrix[3][0] = SPELLED, "gone"
        moved = f'{json.dumps(SPELLED)}], ["gone", '
        assert json.dumps(data).count(moved) == 1
        raw = json.dumps(data).replace(moved, f"{last}], 7[, ").encode()
    else:
        if fault == "ragged row":
            matrix[2].pop()
        else:
            matrix.clear()
        raw = json.dumps(data, indent=2).encode()
    refused = assert_both_readers_agree(raw, read_bytes)
    assert refused[0] is ParseError
    syntax = fault in ("trailing comma", "token between rows")
    assert refused[1].startswith(NOT_JSON if syntax else "malformed code document: ")


def test_a_valid_code_document_decodes_no_matrix_row_through_json(tmp_path, monkeypatch):
    # json decodes the keys and the values beside the matrices, a fixed
    # number per decoder entry, and none of the matrices' rows
    decoded = []
    value = designs._Window.value
    monkeypatch.setattr(designs._Window, "value", lambda window: decoded.append(1) or value(window))
    counts = {}
    for design, p in ((["--sts", "9"], "3"), (["--sts", "15"], "2147483647")):
        path = tmp_path / f"code-{p}.json"
        assert main(["code", *design, "--field", p, "--save-code", str(path)]) == 0
        decoded.clear()
        code = code_load(path)
        rows = sum(x.rows for x in code.encoders) + sum(x.matrix.rows for x in code.decoders.values())
        assert len(decoded) < rows
        # per decoder entry its label, two keys and its in-edges
        counts[p] = len(decoded) - 4 * len(code.decoders)
    # six top-level keys and four of their values
    assert counts == {"3": 10, "2147483647": 10}


def test_simulate_reads_a_valid_code_document_without_its_whole_text(tmp_path, capsys, monkeypatch):
    # a document spelled as code_save spells it is streamed; the text of any
    # other document, respelled or at fault, is read whole, once
    path = tmp_path / "code.json"
    argv = ["simulate", "--sts", "9", "--field", "3", "--trials", "20", "--code", str(path)]
    assert main(["code", "--sts", "9", "--field", "3", "--save-code", str(path)]) == 0
    read = []
    for module in (cli, coding, designs):
        if hasattr(module, "_read_text"):
            whole = module._read_text
            monkeypatch.setattr(module, "_read_text", lambda p, whole=whole: read.append(p) or whole(p))
    assert main(argv) == 0
    assert read == []
    path.write_bytes(path.read_bytes()[:-100])
    capsys.readouterr()
    assert main(argv) == 2
    assert read == [str(path)]
    assert capsys.readouterr().err.startswith("sumnet: error: not valid JSON: ")

    # one matrix entry of a Fano/GF(3) document spelled -0
    fano_argv = ["simulate", "--fano", "--field", "3", "--trials", "20", "--code", str(path)]
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    capsys.readouterr()
    read.clear()
    assert main(fano_argv) == 0
    canonical = capsys.readouterr()
    assert read == []
    text = path.read_text()
    zero = re.compile(r'"matrix": \[\s*\[[^\]]*?\b(0),').search(text).start(1)
    path.write_text(text[:zero] + "-" + text[zero:])
    assert main(fano_argv) == 0
    assert read == [str(path)]
    assert capsys.readouterr() == canonical


@pytest.mark.parametrize("where", ["lambda", "block"])
def test_simulate_rejects_a_design_with_json_booleans(tmp_path, capsys, where):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    message = with_a_json_boolean(data["design"], where)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", "--fano", "--field", "3", "--trials", "20", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sumnet: error: malformed code document: {message}\n"


def test_simulate_rejects_boolean_code_params(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "2", "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    data["params"].update(m=True, n=True)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", "--fano", "--field", "2", "--trials", "20", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sumnet: error: malformed code document: params m and n must be integers\n"


def test_simulate_rejects_a_direct_edge_the_network_lacks(tmp_path, capsys):
    # source-point:2 shares its point with terminal-point:2, so the network
    # wires it through the bottleneck only; the document is well formed
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    data = json.loads(path.read_text())
    edge = data["decoders"]["terminal-point:2"]["in_edges"][1]
    assert edge[2] == "direct" and edge[0] != "source-point:2"
    edge[0] = "source-point:2"
    text = json.dumps(data)
    message = "decoder in-edges disagree with network at terminal-point:2"
    with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
        transfer_check(build_sum_network(fano()), code_from_json(text))
    path.write_text(text)
    capsys.readouterr()
    assert main(["simulate", "--fano", "--field", "3", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sumnet: error: {message}\n"


# sha256 of the stdout below, as the per-terminal simulation printed it
SIM_FILE_STDOUT_SHA256 = "1d05fa3c3779388c9fcc04c2abc1398c4b9bccece52b6b24f0df81963e781fd2"


def test_simulate_saved_sts15_code_over_the_largest_prime(tmp_path, capsys):
    # the shape of the benchmark's sim-file workload at 200 trials: a code
    # document read from disk, decoded over GF(2^31 - 1)
    path = tmp_path / "code.json"
    assert main(["code", "--sts", "15", "--field", "2147483647", "--save-code", str(path)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--sts", "15", "--field", "2147483647", "--code", str(path)]
    assert main([*argv, "--trials", "200", "--seed", "7", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ok"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == SIM_FILE_STDOUT_SHA256


def test_simulate_saved_code_with_dense_large_coefficients(tmp_path, capsys, rebased_fano_bigprime):
    _, code = rebased_fano_bigprime
    path = tmp_path / "code.json"
    path.write_text(code_to_json(code))
    rc = main(["simulate", "--fano", "--field", "2147483647", "--trials", "50", "--seed", "0",
               "--code", str(path)])
    assert rc == 0
    assert "50/50" in capsys.readouterr().out


def test_simulate_code_field_mismatch(tmp_path, capsys):
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    assert main(["simulate", "--fano", "--field", "5", "--code", str(path)]) == 2


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def test_counterexample_gamma2(capsys):
    assert main(["counterexample", "--gamma", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAILS" in out and "2 -> 1" in out


def test_counterexample_gamma1_usage_error():
    assert main(["counterexample", "--gamma", "1"]) == 1


def test_counterexample_gamma_above_cap_is_usage_error(capsys):
    # blocks of 2^17 symbols: refused at once, before any block is built
    assert main(["counterexample", "--gamma", "17"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sumnet: error:") and err.count("\n") == 1 and "gamma=17" in err


def test_counterexample_json(capsys):
    assert main(["counterexample", "--gamma", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gamma"] == 3 and data["kprime"] == 5
    assert data["any_failure"] is True


def test_counterexample_search_mode(capsys):
    assert main(["counterexample", "--gamma", "2", "--search", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "exhaustive-search"
    outcomes = {o["two_maps_to"]: o for o in data["outcomes"]}
    assert outcomes[0]["exhausted"] is True
    assert outcomes[1]["fails"] is True


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_invocations_produce_identical_json(capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for argv in (
        ["design", "--sts", "9", "--format", "json"],
        ["code", "--fano", "--field", "3", "--format", "json"],
        ["simulate", "--fano", "--field", "3", "--trials", "100", "--seed", "11",
         "--format", "json"],
        ["counterexample", "--gamma", "2", "--format", "json"],
    ):
        assert run(argv) == run(argv)
