import hashlib
import json
import time

import pytest

from sumnet.cli import build_parser, main
from sumnet.coding import code_from_json, code_to_json
from sumnet.coding import build_code
from sumnet.designs import fano, sts_bose
from sumnet.field import PrimeField
from sumnet.network import build_sum_network
from sumnet.verify import ShapeMismatchError, transfer_check

from conftest import peak_allocation_below, within_seconds


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


def test_simulate_rejects_coefficients_that_are_not_json_integers(tmp_path, capsys):
    # a float was truncated (1.5 read as 1), a string parsed, a boolean
    # among integers read as 1, an integer past int64 and a list of
    # decoders escaped as tracebacks
    path = tmp_path / "code.json"
    assert main(["code", "--fano", "--field", "3", "--save-code", str(path)]) == 0
    saved = path.read_text()

    def set_entry(*where, value):
        def corrupt(data):
            *outer, last = where
            holder = data
            for step in outer:
                holder = holder[step]
            holder[last] = value
        return corrupt

    first_decoder = ("decoders", "terminal-point:1", "matrix", 0, 0)
    not_integer = "malformed code document: matrix entries must be integers of magnitude below 2**63"
    cases = (
        (set_entry(*first_decoder, value=1.5), "malformed code document: 1.5 is not an integer"),
        (set_entry(*first_decoder, value="1"), not_integer),
        (set_entry(*first_decoder, value=True), not_integer),
        (set_entry(*first_decoder, value=2**70), not_integer),
        (set_entry("encoders", 0, 0, 0, value="1"), not_integer),
        (set_entry("encoders", 0, 0, 0, value=2**63), not_integer),
        (lambda data: data.update(decoders=list(data["decoders"].values())),
         "malformed code document: decoders must be an object keyed by terminal label"),
    )
    assert json.loads(saved)["decoders"]["terminal-point:1"]["matrix"][0][0] == 1
    for corrupt, message in cases:
        data = json.loads(saved)
        corrupt(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["simulate", "--fano", "--field", "3", "--trials", "20", "--code", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sumnet: error: {message}\n"


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
