import hashlib
import json
import re
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet import verify as verify_module
from sumnet.coding import (
    REGIME_DIVIDES,
    NetworkCode,
    TerminalDecoder,
    UnsupportedLambdaError,
    _core,
    _kernel_columns,
    _lift,
    _unlift,
    build_code,
    build_code_char_divides,
    code_from_json,
    code_to_json,
    partial_sum_row,
)
from sumnet.designs import Design, InvalidDesignError, ParseError, fano, sts_bose
from sumnet.field import FieldMatrix, PrimeField, _Prepared, _rows_outside_row_space
from sumnet.network import (
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_BOTTLENECK,
    EDGE_DIRECT,
    EDGE_HEAD_TO_TERMINAL,
    EDGE_SOURCE_TO_TAIL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    Edge,
    NodeId,
    SumNetwork,
    build_sum_network,
    network_validate,
)
from sumnet.verify import (
    ShapeMismatchError,
    _check_compatible,
    _simulate_batch,
    block_sum_recoverable,
    capacity_report,
    fractional_upper_bound,
    partial_sum_recoverable,
    simulate,
    simulate_trials,
    transfer_check,
)

from conftest import (
    PLANES,
    as_given,
    assert_core_path_agrees,
    core_code,
    drop_block_correction,
    oracle_check_compatible,
    oracle_recoverability_failures,
    oracle_simulate_batch,
    oracle_transfer_failures,
    peak_allocation_below,
    projective_plane,
    rebase_bottlenecks,
    source_column,
    terminal_in_edges,
    vstack,
    within_seconds,
)

BIG = 2147483647


def fano_code(p):
    net = build_sum_network(fano())
    code = build_code(net, PrimeField(p))
    return net, code


def replace_encoder(code: NetworkCode, i: int, enc: FieldMatrix) -> NetworkCode:
    encoders = list(code.encoders)
    encoders[i] = enc
    return NetworkCode(code.design, code.field, code.params, tuple(encoders), code.decoders)


def zero_encoder(code: NetworkCode, i: int) -> NetworkCode:
    zeros = np.zeros(code.encoders[i].shape, dtype=np.int64)
    return replace_encoder(code, i, FieldMatrix(code.field, zeros))


def shift_entries(mat: FieldMatrix, entries, delta: int) -> FieldMatrix:
    """The matrix with ``delta`` added at each (row, col) of ``entries``."""
    a = mat.array.copy()
    for row, col in entries:
        a[row, col] += delta
    return FieldMatrix(mat.field, a)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

def test_transfer_check_fano_gf2():
    net, code = fano_code(2)
    assert transfer_check(net, code).ok


def test_transfer_check_fano_gf3():
    net, code = fano_code(3)
    assert transfer_check(net, code).ok


def test_transfer_check_sts9_gf2():
    net = build_sum_network(sts_bose(9))
    code = build_code_char_divides(net, PrimeField(2))
    assert transfer_check(net, code).ok


def test_transfer_check_reports_missing_correction_at_every_block_terminal():
    net, code = fano_code(3)
    broken = drop_block_correction(net, code)
    result = transfer_check(net, broken)
    assert not result.ok
    failed_at = {x.at for x in result.failures}
    assert failed_at == {NodeId(TERMINAL_BLOCK, j) for j in range(7)}
    # a failure record names a witness input
    assert "unit input" in result.failures[0].detail


def test_fractional_code_at_sts27_is_built_checked_and_simulated_as_its_core():
    # w = 9: the lifted maps alone would be 28M cells, about 224 MB
    what = "STS(27)/GF(3) build, checks and 64 simulated trials"
    with peak_allocation_below(32 * 2**20, what), within_seconds(30.0, what):
        net = build_sum_network(sts_bose(27))
        code = build_code(net, PrimeField(3))
        for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
            assert check(net, code).ok, check.__name__
        assert simulate_trials(net, code, 64, seed=0).ok
    assert code.w == 9 and code.params.rate == (27, 144)


def test_a_thousand_simulated_trials_at_sts27_stay_below_their_memory_bound():
    # the drawn sources are held as uint8, 144 sources of 27 x 1000 values
    # (3.7 MiB), and no array holds every trial's decoded values: each
    # chunk of trials is compared with its sums as it is decoded.  The
    # traced peak is about 18.5 MiB, most of it one chunk's arrays (504
    # columns; 16.2 MiB at the 396 columns of a 2^19-cell budget)
    net = build_sum_network(sts_bose(27))
    code = build_code(net, PrimeField(3))
    what = "simulate_trials at STS(27)/GF(3), 1000 trials"
    with peak_allocation_below(20 * 2**20, what), within_seconds(30.0, what):
        assert simulate_trials(net, code, 1000, seed=0).ok


def test_transfer_check_rejects_mismatched_code():
    net, _ = fano_code(3)
    other = build_sum_network(sts_bose(9))
    code9 = build_code(other, PrimeField(3))
    with pytest.raises(ShapeMismatchError):
        transfer_check(net, code9)


def test_encoder_reading_an_unwired_source_is_rejected():
    # block 5 misses point 1, so bottleneck 1 never receives its source and
    # its kernel has no columns for it: the code is refused where it is made
    d = sts_bose(9)
    net = build_sum_network(d)
    code = build_code(net, PrimeField(3))
    assert 0 not in d.blocks[4]
    col = source_column(d, NodeId(SOURCE_BLOCK, 4), code.params.m)
    message = "^bottleneck 1 reads source-block:5, which is not wired into it$"
    with pytest.raises(ShapeMismatchError, match=message):
        replace_encoder(code, 0, shift_entries(code.encoders[0], [(0, col)], 1))


def decoder_blocks(code: NetworkCode, t: NodeId) -> list[np.ndarray]:
    """The column block of each in-edge of t's decoder, in in-edge order:
    n columns for a head edge, m for a direct edge."""
    m, n = code.params.m, code.params.n
    dec = code.decoders[t]
    blocks, col = [], 0
    for e in dec.in_edges:
        width = n if e.kind == EDGE_HEAD_TO_TERMINAL else m
        blocks.append(dec.matrix.array[:, col : col + width])
        col += width
    return blocks


def replace_decoder(code: NetworkCode, t: NodeId, in_edges, blocks) -> NetworkCode:
    decoders = dict(code.decoders)
    decoders[t] = TerminalDecoder(in_edges, FieldMatrix(code.field, np.hstack(blocks)))
    return NetworkCode(code.design, code.field, code.params, code.encoders, decoders)


def test_decoder_in_edges_in_another_order_are_accepted():
    net, code = fano_code(3)
    t = NodeId(TERMINAL_BLOCK, 2)
    edges, blocks = code.decoders[t].in_edges, decoder_blocks(code, t)
    # direct edges first, head edges last, columns permuted to match
    again = replace_decoder(code, t, edges[::-1], blocks[::-1])
    loaded = code_from_json(code_to_json(again))
    assert loaded == again
    for case in (again, loaded):
        assert transfer_check(net, case).ok
        assert simulate_trials(net, case, 50, seed=0).ok


def test_decoder_missing_an_in_edge_is_refused():
    net, code = fano_code(3)
    t = NodeId(TERMINAL_POINT, 1)
    edges, blocks = code.decoders[t].in_edges, decoder_blocks(code, t)
    short = replace_decoder(code, t, edges[:-1], blocks[:-1])
    message = "^decoder in-edges disagree with network at terminal-point:2$"
    for case in (short, code_from_json(code_to_json(short))):
        for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
            with pytest.raises(ShapeMismatchError, match=message):
                check(net, case)
        with pytest.raises(ShapeMismatchError, match=message):
            simulate_trials(net, case, 10, seed=0)


@pytest.mark.parametrize("alias", ["another terminal", "a point past v", "a tail past v"])
def test_decoder_in_edges_that_alias_the_networks_are_refused(alias):
    # each decoder below lists the canonical tail ids and edge kinds of the
    # network's in-edges, so only its labels tell it apart: in-edges into
    # another terminal, a direct edge from source-point:14 for
    # source-block:7 (id 13 either way), or a head edge from
    # bottleneck-tail:8 for bottleneck-head:1 (id 21)
    net, code = fano_code(3)
    t = NodeId(TERMINAL_POINT, 0)
    edges, blocks = code.decoders[t].in_edges, decoder_blocks(code, t)
    assert (edges[0].tail, edges[-1].tail) == (NodeId(BOTTLENECK_HEAD, 0), NodeId(SOURCE_BLOCK, 6))
    if alias == "another terminal":
        edges = tuple(e._replace(head=NodeId(TERMINAL_POINT, 1)) for e in edges)
    elif alias == "a point past v":
        edges = (*edges[:-1], edges[-1]._replace(tail=NodeId(SOURCE_POINT, 13)))
    else:
        edges = (edges[0]._replace(tail=NodeId(BOTTLENECK_TAIL, 7)), *edges[1:])
    aliased = replace_decoder(code, t, edges, blocks)
    message = "^decoder in-edges disagree with network at terminal-point:1$"
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        with pytest.raises(ShapeMismatchError, match=message):
            check(net, aliased)
    with pytest.raises(ShapeMismatchError, match=message):
        simulate_trials(net, aliased, 10, seed=0)


def test_a_repeated_direct_in_edge_counts_once_per_listing():
    # terminal-point:1 lists its direct edge from source-point:2 twice.  The
    # transfer map must add both blocks, as simulation does: a scatter that
    # drops a repeated column (``+=`` in place of ``np.add.at``) would pass
    # the copied block below
    net, code = fano_code(2)
    t = NodeId(TERMINAL_POINT, 0)
    edges, blocks = code.decoders[t].in_edges, decoder_blocks(code, t)
    again = edges[1]
    assert (again.tail, again.kind) == (NodeId(SOURCE_POINT, 1), "direct")
    zero = replace_decoder(code, t, (*edges, again), (*blocks, 0 * blocks[1]))
    copied = replace_decoder(code, t, (*edges, again), (*blocks, blocks[1]))
    for case in (zero, code_from_json(code_to_json(zero))):
        assert transfer_check(net, case).ok
        assert simulate_trials(net, case, 50, seed=0).ok
    failure = "unit input at source-point:2[0] decodes to 0, expected 1 (output row 0)"
    for case in (copied, code_from_json(code_to_json(copied))):
        result = transfer_check(net, case)
        assert [(x.at, x.detail) for x in result.failures] == [(t, failure)]
        assert simulate_trials(net, case, 50, seed=0).mismatched_trials == 29


@pytest.mark.parametrize("p", [2, 3])
def test_a_code_for_a_terminal_fed_from_outside_the_design_is_refused(p):
    # source-point:8 is no node of Fano, so the decoder build_code makes for
    # terminal-point:1 reads an in-edge that no check and no document accepts
    d = fano()
    net = build_sum_network(d)
    extra, t = NodeId(SOURCE_POINT, 7), NodeId(TERMINAL_POINT, 0)
    wider = SumNetwork(d, (*net.nodes, extra), (*net.edges, Edge(extra, t, EDGE_DIRECT)))
    code = build_code(wider, PrimeField(p))
    assert code.decoders[t].in_edges == terminal_in_edges(wider, t)
    message = "^decoder in-edges disagree with network at terminal-point:1$"
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        with pytest.raises(ShapeMismatchError, match=message):
            check(wider, code)
    with pytest.raises(ShapeMismatchError, match=message):
        simulate_trials(wider, code, 10, seed=0)
    text = code_to_json(code)
    assert ["source-point:8", "terminal-point:1", "direct"] in json.loads(text)["decoders"][
        "terminal-point:1"
    ]["in_edges"]
    refused = (
        "decoder at terminal-point:1 lists in-edge source-point:8 -> terminal-point:1: "
        "source-point:8 is not a node of the design"
    )
    with pytest.raises(ParseError, match=f"^{refused}$"):
        code_from_json(text)


def test_a_bottleneck_fed_from_outside_the_design_is_refused():
    # source-point:8 is no node of Fano; its stacked columns would be those
    # of source-block:1, so the checks must not read them as its values
    d = fano()
    net = build_sum_network(d)
    extra = NodeId(SOURCE_POINT, 7)
    fed = Edge(extra, NodeId(BOTTLENECK_TAIL, 0), EDGE_SOURCE_TO_TAIL)
    wider = SumNetwork(d, (*net.nodes, extra), (*net.edges, fed))
    code = build_code(net, PrimeField(3))
    message = "^bottleneck 1 is fed by a node that is no source of the design$"
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        with pytest.raises(ShapeMismatchError, match=message):
            check(wider, code)


def assert_every_entry_point_refuses(net, code, message: str) -> None:
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        with pytest.raises(ShapeMismatchError, match=message):
            check(net, code)
    with pytest.raises(ShapeMismatchError, match=message):
        simulate(net, code, {s: [0] * code.params.m for s in net.sources()})
    with pytest.raises(ShapeMismatchError, match=message):
        simulate_trials(net, code, 50, seed=0)


@pytest.mark.parametrize("p", [2, 3])
def test_a_repeated_source_to_tail_edge_is_read_once_on_both_paths(p):
    # source-point:1 feeds bottleneck-tail:1 twice.  Kernel 1 reads each of
    # its sources once on both paths; simulation once read the repeated
    # source twice and mismatched trials that transfer_check passed
    d = fano()
    net = build_sum_network(d)
    again = Edge(NodeId(SOURCE_POINT, 0), NodeId(BOTTLENECK_TAIL, 0), EDGE_SOURCE_TO_TAIL)
    twice = SumNetwork(d, net.nodes, (*net.edges, again))
    code = build_code(net, PrimeField(p))
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        assert check(twice, code).ok, check.__name__
    summary = simulate_trials(twice, code, 50, seed=0)
    assert summary.ok and summary.mismatched_trials == 0


@pytest.mark.parametrize("p", [2, 3])
def test_a_source_its_kernel_reads_must_feed_the_bottleneck(p):
    # block 1 holds point 1, so kernel 1 reads source-block:1; a network
    # that does not feed it to bottleneck-tail:1 cannot carry the code
    d = fano()
    net = build_sum_network(d)
    fed = Edge(NodeId(SOURCE_BLOCK, 0), NodeId(BOTTLENECK_TAIL, 0), EDGE_SOURCE_TO_TAIL)
    assert 0 in d.blocks[0] and fed in net.edges
    cut = SumNetwork(d, net.nodes, tuple(e for e in net.edges if e != fed))
    message = "^bottleneck 1 reads source-block:1, which is not wired into it$"
    assert_every_entry_point_refuses(cut, build_code(net, PrimeField(p)), message)


def test_the_constructor_refuses_a_code_that_does_not_fit_its_design():
    _, code = fano_code(3)
    d, f, params = code.design, code.field, code.params
    encoders, decoders = list(code.encoders), dict(code.decoders)
    t = NodeId(TERMINAL_POINT, 0)
    short = TerminalDecoder(decoders[t].in_edges, FieldMatrix(f, decoders[t].matrix.array[:-1]))
    assert 4 not in d.blocks_through(0)
    col = source_column(d, NodeId(SOURCE_BLOCK, 4), params.m)
    cases = (
        (encoders[:-1], decoders, "6 encoders for 7 bottlenecks"),
        (
            [FieldMatrix(f, encoders[0].array[:, :-1]), *encoders[1:]],
            decoders,
            "encoder of bottleneck 1 has shape (12, 83), expected (12, 84)",
        ),
        (encoders, {**decoders, t: short}, "decoder at terminal-point:1 has shape (5, 72), expected (6, 72)"),
        (
            [shift_entries(encoders[0], [(0, col)], 1), *encoders[1:]],
            decoders,
            "bottleneck 1 reads source-block:5, which is not wired into it",
        ),
    )
    for given, held, message in cases:
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            NetworkCode(d, f, params, given, held)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["fano", "sts9", "PG(2,3)", "AG(2,3)"])
def test_a_code_made_from_its_maps_holds_their_kernels(name, p):
    # k = 3 is scalar over GF(2) and fractional over GF(3); k = 4 (PG(2,3))
    # the other way round
    d = {"fano": fano, "sts9": lambda: sts_bose(9), **PLANES}[name]()
    code = build_code(build_sum_network(d), PrimeField(p))
    assert NetworkCode(d, code.field, code.params, code.encoders, code.decoders) == code
    for i, (enc, kernel) in enumerate(zip(code.encoders, code.core_kernels)):
        lifted = FieldMatrix(code.field, enc.array[:, _kernel_columns(d, i, code.params.m)])
        assert lifted == _lift(kernel, code.w), i


@pytest.mark.parametrize("p", [2, 3])
def test_swapped_bottleneck_edges_are_refused(p):
    # bottleneck-tail:1 feeds bottleneck-head:2 and tail 2 feeds head 1.
    # transfer_check multiplies head edge i by encoder i, so it passed this
    # network, while simulation delivered the other point's partial sum
    d = fano()
    net = build_sum_network(d)
    head1, head2 = NodeId(BOTTLENECK_HEAD, 0), NodeId(BOTTLENECK_HEAD, 1)
    swap = {head1: head2, head2: head1}
    edges = [
        Edge(e.tail, swap.get(e.head, e.head), e.kind) if e.kind == EDGE_BOTTLENECK else e
        for e in net.edges
    ]
    swapped = SumNetwork(d, net.nodes, edges)
    assert not network_validate(swapped).ok
    code = build_code(net, PrimeField(p))
    message = "^bottleneck-head:1 is not fed by bottleneck-tail:1 alone$"
    assert_every_entry_point_refuses(swapped, code, message)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", [EDGE_SOURCE_TO_TAIL, EDGE_DIRECT])
def test_a_bottleneck_head_fed_by_a_second_edge_is_refused(p, kind):
    # source-point:4 also feeds bottleneck-head:1: the checks never read a
    # head's in-edges, and simulation failed unpacking them
    d = fano()
    net = build_sum_network(d)
    extra = Edge(NodeId(SOURCE_POINT, 3), NodeId(BOTTLENECK_HEAD, 0), kind)
    wider = SumNetwork(d, net.nodes, (*net.edges, extra))
    code = build_code(net, PrimeField(p))
    message = "^bottleneck-head:1 is not fed by bottleneck-tail:1 alone$"
    assert_every_entry_point_refuses(wider, code, message)


def relisted(net, drop=(), add=()) -> SumNetwork:
    """The network with the listed nodes ``drop`` left off its node list
    and ``add`` appended to it; every edge stays."""
    return SumNetwork(net.design, (*(x for x in net.nodes if x not in drop), *add), net.edges)


SOURCE_4, TERMINAL_B1 = NodeId(SOURCE_POINT, 3), NodeId(TERMINAL_BLOCK, 0)
MISLISTED = {
    "extra source": ({"add": [NodeId(SOURCE_POINT, 7)]}, "source-point:8, which is no node of the design"),
    "missing source": ({"drop": [SOURCE_4]}, "source-point:4 0 times, not once"),
    "repeated source": ({"add": [SOURCE_4]}, "source-point:4 2 times, not once"),
    "missing terminal": ({"drop": [TERMINAL_B1]}, "terminal-block:1 0 times, not once"),
    "repeated terminal": ({"add": [TERMINAL_B1]}, "terminal-block:1 2 times, not once"),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", sorted(MISLISTED))
def test_a_network_not_listing_the_designs_sources_and_terminals_once_is_refused(p, case):
    # every edge is in place, so only the node list is wrong: an extra
    # source was summed in the expected values but fed nothing, so
    # transfer_check passed while simulation mismatched; a missing one was
    # neither drawn nor expected, and a missing terminal was never checked
    net, code = fano_code(p)
    change, listed = MISLISTED[case]
    assert_every_entry_point_refuses(relisted(net, **change), code, f"^the network lists {listed}$")


def test_a_wrong_block_terminal_left_off_the_node_list_is_refused():
    # the dropped correction is wrong at terminal-block:1 alone; with that
    # terminal unlisted, no check and no simulation looked at it
    net, code = fano_code(3)
    broken = drop_block_correction(net, code, blocks=[0])
    assert [x.at for x in transfer_check(net, broken).failures] == [TERMINAL_B1]
    assert not simulate_trials(net, broken, 50, seed=0).ok
    listed = "^the network lists terminal-block:1 0 times, not once$"
    assert_every_entry_point_refuses(relisted(net, drop=[TERMINAL_B1]), broken, listed)


@pytest.mark.parametrize("p", [2, 3])
def test_checks_make_no_edge_objects_for_terminal_in_edges(p, monkeypatch):
    # decoders hold their in-edges as arrays and the checks read the
    # bottleneck wiring off the network's in-index, so building the code,
    # checking it and simulating it make no Edge object at all
    d = sts_bose(15)
    net = build_sum_network(d)
    made = []
    edges_at = SumNetwork._edges_at
    monkeypatch.setattr(SumNetwork, "_edges_at", lambda self, ids: made.append(ids) or edges_at(self, ids))
    code = build_code(net, PrimeField(p))
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        assert check(net, code).ok
    assert simulate_trials(net, code, 20, seed=0).ok
    monkeypatch.undo()
    assert made == []
    for t in net.terminals():
        assert code.decoders[t].in_edges == terminal_in_edges(net, t)


@pytest.mark.parametrize("design", [fano, lambda: sts_bose(15)], ids=["fano", "sts15"])
def test_the_checks_take_one_product_per_bottleneck_and_one_numbering(design, monkeypatch):
    # the transfer check stacks the head-edge blocks of every decoder that
    # reads a bottleneck and multiplies them by its kernel once, and the
    # compatibility check numbers every decoder's in-edges in one call, a
    # network this small being one chunk
    net = build_sum_network(design())
    code = build_code(net, PrimeField(3))
    products, numberings = [], []
    matmul, fitting = FieldMatrix.__matmul__, verify_module._fitting
    monkeypatch.setattr(FieldMatrix, "__matmul__", lambda a, b: products.append(a.shape) or matmul(a, b))
    monkeypatch.setattr(verify_module, "_fitting", lambda *args: numberings.append(args) or fitting(*args))
    verify_module._check_compatible(net, code)
    assert len(numberings) == 1
    assert transfer_check(net, code).ok
    assert len(products) == net.design.v and len(numberings) == 2


def test_the_transfer_check_at_sts63_composes_in_chunks_within_its_memory_bound():
    # one composed block of every terminal would be 2,142 x 2,142 cells
    # (35 MiB as int64); a chunk holds about _CHECK_CELLS cells of maps and
    # of decoders.  The traced peak is about 3.1 MiB, 1.8 MiB of it the
    # numbering that the compatibility check returns
    net = build_sum_network(sts_bose(63))
    code = build_code(net, PrimeField(3))
    what = "transfer_check at STS(63)/GF(3)"
    with peak_allocation_below(8 * 2**20, what), within_seconds(30.0, what):
        assert transfer_check(net, code).ok


@st.composite
def miswired_codes(draw):
    """A Fano, STS(9) or STS(15) code over GF(2, 3, 5, 2**31 - 1), held as
    its core, changed one of four ways: a decoder entry bumped, a decoder's
    in-edges permuted with their column blocks (a code the checks accept),
    one in-edge's tail swapped to another source, or a kernel entry zeroed."""
    d = draw(st.sampled_from((fano(), sts_bose(9), sts_bose(15))))
    f = PrimeField(draw(st.sampled_from((2, 3, 5, BIG))))
    net = build_sum_network(d)
    code = build_code(net, f)
    m, n = code.core_params.rate
    kernels, decoders = list(code.core_kernels), dict(code.core_decoders)
    way = draw(st.sampled_from(("bump", "permute", "swap", "zero")))
    if way == "zero":
        i = draw(st.integers(0, d.v - 1))
        a = kernels[i].array.copy()
        a[draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))] = 0
        kernels[i] = FieldMatrix(f, a)
    else:
        t = draw(st.sampled_from(sorted(decoders, key=lambda x: x.sort_key)))
        edges, a = list(decoders[t].in_edges), decoders[t].matrix.array.copy()
        if way == "bump":
            a[draw(st.integers(0, m - 1)), draw(st.integers(0, a.shape[1] - 1))] += draw(st.integers(1, f.p - 1))
        elif way == "permute":
            widths = [n if e.kind == EDGE_HEAD_TO_TERMINAL else m for e in edges]
            blocks = np.split(a, np.cumsum(widths)[:-1], axis=1)
            order = draw(st.permutations(range(len(edges))))
            edges, a = [edges[x] for x in order], np.hstack([blocks[x] for x in order])
        else:
            j = draw(st.sampled_from([j for j, e in enumerate(edges) if e.kind == EDGE_DIRECT]))
            edges[j] = edges[j]._replace(tail=draw(st.sampled_from(net.sources())))
        decoders[t] = TerminalDecoder(edges, FieldMatrix(f, a))
    return net, NetworkCode._from_core(d, f, code.params, kernels, decoders, code.w)


@settings(max_examples=80, deadline=None)
@given(miswired_codes(), st.sampled_from((1, 7, 1 << 14)))
def test_the_checks_agree_with_the_per_terminal_oracles(case, cells):
    # in chunks of any size the compatibility check numbers, or refuses,
    # as the per-terminal loop did, and the transfer check reports the
    # failures of the per-terminal composition, in the same order
    net, code = case
    with patch.object(verify_module, "_CHECK_CELLS", cells):
        try:
            want = oracle_check_compatible(net, code)
        except ShapeMismatchError as exc:
            for check in (verify_module._check_compatible, transfer_check):
                with pytest.raises(ShapeMismatchError, match=f"^{re.escape(str(exc))}$"):
                    check(net, code)
            return
        got = verify_module._check_compatible(net, code)
        assert list(got) == list(want)
        for t, (tail, kind) in want.items():
            assert (got[t][0].tolist(), got[t][1].tolist()) == (tail.tolist(), kind.tolist())
        result = transfer_check(net, code)
        assert [(x.at, x.detail) for x in result.failures] == oracle_transfer_failures(net, code)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_all_zero_sources_decode_to_zero():
    net, code = fano_code(3)
    m = code.params.m
    outputs = simulate(net, code, {s: [0] * m for s in net.sources()})
    for value in outputs.values():
        assert not value.any()


def test_single_unit_source_reaches_every_terminal():
    net, code = fano_code(2)
    sources = {s: [0] for s in net.sources()}
    sources[NodeId(SOURCE_POINT, 0)] = [1]
    outputs = simulate(net, code, sources)
    assert len(outputs) == 14
    for value in outputs.values():
        assert value.tolist() == [1]


def test_simulation_matches_plain_sums():
    net, code = fano_code(3)
    summary = simulate_trials(net, code, 1000, seed=42)
    assert summary.ok
    assert summary.trials == 1000 and summary.mismatched_trials == 0


def test_simulation_exact_with_dense_large_coefficients(rebased_fano_bigprime):
    # every decoder row mixes many residues near 2^31, so a raw int64
    # product of decoder and symbols would wrap
    net, code = rebased_fano_bigprime
    assert transfer_check(net, code).ok
    summary = simulate_trials(net, code, 50, 0)
    assert summary.ok and summary.mismatched_trials == 0


def test_simulation_catches_missing_correction():
    net, code = fano_code(3)
    summary = simulate_trials(net, drop_block_correction(net, code), 50, seed=1)
    assert not summary.ok
    assert summary.mismatched_trials > 0
    assert all(x.at.kind == TERMINAL_BLOCK for x in summary.failures)


def test_zero_trials_is_a_vacuous_pass():
    net, code = fano_code(3)
    summary = simulate_trials(net, code, 0, seed=9)
    assert summary.ok and summary.trials == 0


def test_simulate_rejects_wrong_length_vector():
    net, code = fano_code(3)
    sources = {s: [0] * code.params.m for s in net.sources()}
    sources[NodeId(SOURCE_BLOCK, 0)] = [0]
    with pytest.raises(ShapeMismatchError):
        simulate(net, code, sources)


def test_simulate_requires_every_source():
    net, code = fano_code(3)
    sources = {s: [0] * code.params.m for s in net.sources()}
    del sources[NodeId(SOURCE_POINT, 3)]
    with pytest.raises(ShapeMismatchError):
        simulate(net, code, sources)


# ---------------------------------------------------------------------------
# recoverability of partial sums
# ---------------------------------------------------------------------------

def test_partial_sums_recoverable_for_both_families():
    for p in (2, 3):
        net, code = fano_code(p)
        assert partial_sum_recoverable(net, code).ok


def test_zeroed_encoder_breaks_partial_sum_recovery():
    net, code = fano_code(3)
    result = partial_sum_recoverable(net, zero_encoder(code, 0))
    assert not result.ok
    assert result.failures[0].at.index == 0


def test_block_sums_recoverable_for_both_families():
    for p in (2, 3):
        net, code = fano_code(p)
        assert block_sum_recoverable(net, code).ok


def test_zeroed_encoder_breaks_block_sum_recovery():
    net, code = fano_code(3)
    result = block_sum_recoverable(net, zero_encoder(code, 0))
    assert not result.ok
    # blocks through point 1 are A, C, D
    assert {x.at.index for x in result.failures} == {0, 2, 3}


def test_single_bottleneck_cannot_recover_a_block_sum():
    # the target needs all k bottlenecks of the block: any single encoder
    # has zero columns at sources outside its own neighborhood
    net, code = fano_code(3)
    d = code.design
    f = code.field
    m = code.params.m
    width = (d.v + d.b) * m
    target = np.zeros((m, width), dtype=np.int64)
    eye = np.eye(m, dtype=np.int64)
    for point in d.blocks[0]:
        target[:, point * m : (point + 1) * m] = eye
    for l in d.block_neighborhood(0):
        lo = (d.v + l) * m
        target[:, lo : lo + m] = eye
    from sumnet.field import row_space_contains

    single = code.encoders[d.blocks[0][0]]
    full = vstack([code.encoders[point] for point in d.blocks[0]])
    assert not row_space_contains(single, FieldMatrix(f, target[:1]))
    assert row_space_contains(full, FieldMatrix(f, target[:1]))


def first_row_outside(encoders: list[FieldMatrix], target: np.ndarray) -> int | None:
    """The first row of the full-width ``target`` that the stacked rows of
    ``encoders`` do not span, or None."""
    outside = _rows_outside_row_space(vstack(encoders).array, target, encoders[0].field.p)
    return int(outside[0]) if outside.size else None


def neighborhood_sum(d: Design, j: int, m: int) -> np.ndarray:
    """The m x (v+b)m map summing block j's points and the blocks in its
    neighborhood, block j among them."""
    target = np.zeros((m, (d.v + d.b) * m), dtype=np.int64)
    for source in (*d.blocks[j], *(d.v + x for x in d.block_neighborhood(j))):
        target[:, source * m : (source + 1) * m] = np.eye(m, dtype=np.int64)
    return target


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recoverability_failures_are_the_lifted_codes_first_rows(data):
    # one or two core rows a of drawn encoders are zeroed, either in every
    # copy (lifted rows a*w .. a*w+w-1, so the code stays w copies of its
    # core) or in copy u alone (so it is held at w = 1).  Each check's
    # failures are those of the full-width system of the lifted encoders,
    # which maps no core row or column back
    d = data.draw(st.sampled_from((fano(), sts_bose(9))))
    f = PrimeField(data.draw(st.sampled_from((2, 3, 5))))
    net = build_sum_network(d)
    code = build_code(net, f)
    m, n, w = code.params.m, code.params.n, code.w
    alike, u = data.draw(st.booleans()), data.draw(st.integers(0, w - 1))
    encoders = [e.array.copy() for e in code.encoders]
    for _ in range(data.draw(st.integers(1, 2))):
        i, a = data.draw(st.integers(0, d.v - 1)), data.draw(st.integers(0, n // w - 1))
        encoders[i][slice(a * w, (a + 1) * w) if alike else a * w + u] = 0
    broken = NetworkCode(d, f, code.params, tuple(FieldMatrix(f, e) for e in encoders), code.decoders)
    assert broken.w == (w if alike else 1)
    lifted = broken.encoders
    partial = [(i, first_row_outside([lifted[i]], partial_sum_row(d, i, m, f).array)) for i in range(d.v)]
    block = [
        (j, first_row_outside([lifted[x] for x in points], neighborhood_sum(d, j, m)))
        for j, points in enumerate(d.blocks)
    ]
    assert [(x.at, x.detail) for x in partial_sum_recoverable(net, broken).failures] == [
        (NodeId(BOTTLENECK_TAIL, i), f"partial-sum row {row} not recoverable from bottleneck {i + 1}")
        for i, row in partial
        if row is not None
    ]
    assert [(x.at, x.detail) for x in block_sum_recoverable(net, broken).failures] == [
        (NodeId(TERMINAL_BLOCK, j), f"block {j + 1} neighborhood sum row {row} not recoverable")
        for j, row in block
        if row is not None
    ]


def eliminations():
    """A patch of ``verify.row_space_contains`` that counts its calls: one
    per recoverability group that its decoder's certificate leaves open."""
    return patch.object(verify_module, "row_space_contains", wraps=verify_module.row_space_contains)


CERTIFIED_CHECKS = (partial_sum_recoverable, block_sum_recoverable)


@st.composite
def recoverability_corruptions(draw):
    """A Fano, STS(9), STS(15) or PG(2,3) code over GF(2, 3, 5, 2**31 - 1),
    held as its core, changed one of four ways: a head-block entry of a
    decoder bumped (its certificate fails, its kernels still pass), a kernel
    row zeroed (both may fail), a decoder's in-edges permuted with their
    column blocks, or a direct-block entry bumped (the certificate passes,
    the transfer check fails)."""
    d = draw(st.sampled_from((fano(), sts_bose(9), sts_bose(15), projective_plane(3))))
    f = PrimeField(draw(st.sampled_from((2, 3, 5, BIG))))
    net = build_sum_network(d)
    code = build_code(net, f)
    m, n = code.core_params.rate
    kernels, decoders = list(code.core_kernels), dict(code.core_decoders)
    way = draw(st.sampled_from(("head", "zero", "permute", "direct")))
    if way == "zero":
        i = draw(st.integers(0, d.v - 1))
        a = kernels[i].array.copy()
        a[draw(st.integers(0, a.shape[0] - 1))] = 0
        kernels[i] = FieldMatrix(f, a)
    else:
        t = draw(st.sampled_from(sorted(decoders, key=lambda x: x.sort_key)))
        edges = list(decoders[t].in_edges)
        widths = [n if e.kind == EDGE_HEAD_TO_TERMINAL else m for e in edges]
        blocks = np.split(decoders[t].matrix.array.copy(), np.cumsum(widths)[:-1], axis=1)
        if way == "permute":
            order = draw(st.permutations(range(len(edges))))
            edges, blocks = [edges[x] for x in order], [blocks[x] for x in order]
        else:
            kind = EDGE_HEAD_TO_TERMINAL if way == "head" else EDGE_DIRECT
            x = draw(st.sampled_from([x for x, e in enumerate(edges) if e.kind == kind]))
            at = draw(st.integers(0, m - 1)), draw(st.integers(0, widths[x] - 1))
            blocks[x][at] += draw(st.integers(1, f.p - 1))
        decoders[t] = TerminalDecoder(edges, FieldMatrix(f, np.hstack(blocks)))
    return way, net, NetworkCode._from_core(d, f, code.params, kernels, decoders, code.w)


@settings(max_examples=80, deadline=None)
@given(recoverability_corruptions())
def test_certified_recoverability_agrees_with_elimination_alone(case):
    # a group passes by its decoder's certificate or is eliminated, and
    # either way both checks report the failures, in the order, that
    # eliminating every group reports
    way, net, code = case
    with eliminations() as spy:
        got = [[(x.at, x.detail) for x in check(net, code).failures] for check in CERTIFIED_CHECKS]
    partial, block = oracle_recoverability_failures(net, code)
    assert got == [partial, block]
    assert spy.call_count >= len(partial) + len(block)
    if way == "head":  # one certificate fails, and its group's elimination passes
        assert spy.call_count == 1 and partial == block == []
    elif way in ("permute", "direct"):
        assert spy.call_count == 0 and partial == block == []
    if way == "direct":
        assert not transfer_check(net, code).ok


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("design", [fano, lambda: sts_bose(15)], ids=["fano", "sts15"])
def test_a_correct_code_passes_recoverability_with_no_elimination(design, p):
    # every terminal's decoder certifies its group, so no group is eliminated
    net = build_sum_network(design())
    code = build_code(net, PrimeField(p))
    with eliminations() as spy:
        assert all(check(net, code).ok for check in CERTIFIED_CHECKS)
    assert spy.call_count == 0


def test_one_failing_block_group_is_eliminated_once():
    # on Fano/GF(3), zeroing core row 3 of kernel 1 leaves every partial sum
    # recoverable and every block but one certified by its decoder
    net, code = fano_code(3)
    kernels = list(code.core_kernels)
    a = kernels[0].array.copy()
    a[3] = 0
    kernels[0] = FieldMatrix(code.field, a)
    broken = NetworkCode._from_core(code.design, code.field, code.params, kernels, code.core_decoders, code.w)
    partial, block = oracle_recoverability_failures(net, broken)
    assert partial == [] and len(block) == 1
    with eliminations() as spy:
        assert partial_sum_recoverable(net, broken).ok
    assert spy.call_count == 0
    with eliminations() as spy:
        assert [(x.at, x.detail) for x in block_sum_recoverable(net, broken).failures] == block
    assert spy.call_count == 1


@pytest.mark.parametrize(
    "kind,p,fake",
    [(TERMINAL_POINT, 2, False), (TERMINAL_POINT, 3, False), (TERMINAL_BLOCK, 2, False),
     (TERMINAL_BLOCK, 3, False), (TERMINAL_POINT, 2, True)],
)
def test_a_terminal_reading_a_head_outside_its_group_is_eliminated(kind, p, fake):
    # the network also wires bottleneck-head:h, of a point outside t's
    # group, into t, and t's decoder lists that in-edge.  The compatibility
    # check accepts this, and a head outside the group proves nothing of
    # the group's own kernels, so the group is eliminated.  With a zero
    # block t's map is still the certificate's.  With ``fake``, the scalar
    # kernel of point 1 no longer reads the block through points 1 and 2,
    # and head 2's block supplies that block on the group's union: a check
    # of the union alone would certify a group that elimination fails
    d = fano()
    net = build_sum_network(d)
    t = NodeId(kind, 0)
    group = (0,) if kind == TERMINAL_POINT else d.blocks[0]
    h = next(i for i in range(d.v) if i not in group)
    extra = Edge(NodeId(BOTTLENECK_HEAD, h), t, EDGE_HEAD_TO_TERMINAL)
    wider = SumNetwork(d, net.nodes, (*net.edges, extra))
    code = build_code(net, PrimeField(p))
    m, n = code.core_params.rate
    kernels, decoders = list(code.core_kernels), dict(code.core_decoders)
    block = np.zeros((m, n), dtype=np.int64)
    if fake:
        shared = next(j for j, x in enumerate(d.blocks) if 0 in x and h in x)
        a = kernels[0].array.copy()
        a[:, 1 + list(d.blocks_through(0)).index(shared)] = 0
        kernels[0], block[:] = FieldMatrix(code.field, a), 1
    dec = decoders[t]
    decoders[t] = TerminalDecoder((*dec.in_edges, extra), FieldMatrix(code.field, np.hstack([dec.matrix.array, block])))
    wired = NetworkCode._from_core(d, code.field, code.params, kernels, decoders, code.w)
    partial, blocks = oracle_recoverability_failures(wider, wired)
    assert (partial + blocks != []) == fake
    with eliminations() as spy:
        got = [[(x.at, x.detail) for x in check(wider, wired).failures] for check in CERTIFIED_CHECKS]
    assert got == [partial, blocks]
    assert spy.call_count >= 1


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_fano():
    d = fano()
    even = capacity_report(d, PrimeField(2))
    assert even.achieved == even.upper == Fraction(1)
    odd = capacity_report(d, PrimeField(3))
    assert odd.achieved == Fraction(1, 2)
    assert odd.upper == Fraction(1, 2)
    assert odd.matches


def test_capacity_sts9_gf5():
    report = capacity_report(sts_bose(9), PrimeField(5))
    assert report.achieved == Fraction(9, 21) == Fraction(3, 7)
    assert report.upper == Fraction(3, 7)
    assert report.matches


def test_capacity_matches_code_rate():
    for v, p in ((9, 5), (15, 3)):
        d = sts_bose(v)
        net = build_sum_network(d)
        code = build_code(net, PrimeField(p))
        report = capacity_report(d, PrimeField(p))
        assert Fraction(code.params.m, code.params.n) == report.achieved


def test_fractional_upper_bound_values():
    assert fractional_upper_bound(fano()) == Fraction(1, 2)
    assert fractional_upper_bound(sts_bose(9)) == Fraction(3, 7)
    assert fractional_upper_bound(sts_bose(15)) == Fraction(3, 10)
    assert fractional_upper_bound(sts_bose(15)) == Fraction(6, 5 + 15)


def test_fractional_upper_bound_rejects_design_missing_a_block():
    # Fano without block G: lambda is still declared 1 but b = 6, so v/(v+b)
    # = 7/13 is not the lambda=1 bound
    d = fano()
    short = Design(v=d.v, k=d.k, lambda_=1, blocks=d.blocks[:6])
    with pytest.raises(InvalidDesignError, match="b=6"):
        fractional_upper_bound(short)


def test_capacity_requires_lambda_one():
    d = Design(v=4, k=3, lambda_=2, blocks=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    with pytest.raises(UnsupportedLambdaError):
        capacity_report(d, PrimeField(5))
    with pytest.raises(UnsupportedLambdaError):
        fractional_upper_bound(d)


@pytest.mark.parametrize("k", [0, 1])
def test_capacity_refuses_blocks_of_fewer_than_two_points(k):
    d = Design(v=7, k=k, lambda_=1, blocks=())
    with pytest.raises(InvalidDesignError, match=f"^block size must be at least 2, got k={k}$"):
        capacity_report(d, PrimeField(3))


def test_bounds_never_exceed_one():
    for v in (3, 9, 15, 21):
        assert fractional_upper_bound(sts_bose(v)) <= 1


# ---------------------------------------------------------------------------
# cross-validation of the two evaluation paths
# ---------------------------------------------------------------------------

def test_transfer_and_simulation_agree_on_fano_grid():
    for p in (2, 3, 5):
        net, code = fano_code(p)
        assert transfer_check(net, code).ok
        summary = simulate_trials(net, code, 300, seed=p)
        assert summary.ok


def _region_entries(draw, rows: int, col_lo: int, cols: int, w: int, structured: bool):
    """Entries to corrupt inside rows x [col_lo, col_lo + cols): one anywhere,
    or one core entry in all w copies, (a*w + u, col_lo + b*w + u)."""
    if not structured:
        return [(draw(st.integers(0, rows - 1)), col_lo + draw(st.integers(0, cols - 1)))]
    a = draw(st.integers(0, rows // w - 1))
    b = draw(st.integers(0, cols // w - 1))
    return [(a * w + u, col_lo + b * w + u) for u in range(w)]


@st.composite
def corrupted_codes(draw, primes=(2, 3, 5)):
    """A Fano or STS(9) code over GF(p), p in ``primes``, with entries
    shifted inside its wired support: in one encoder's wired source columns
    or anywhere in one decoder, either a single entry or the same entry of
    every copy.  A zero shift leaves the code correct; re-basing the
    bottlenecks after the shift keeps its end-to-end maps but makes it
    dense."""
    d = draw(st.sampled_from((fano(), sts_bose(9))))
    f = PrimeField(draw(st.sampled_from(primes)))
    net = build_sum_network(d)
    code = build_code(net, f)
    m, n = code.params.m, code.params.n
    w = 1 if code.params.regime == REGIME_DIVIDES else m // d.k
    structured = draw(st.booleans())
    delta = draw(st.integers(0, f.p - 1))
    if draw(st.booleans()):
        i = draw(st.integers(0, d.v - 1))
        source = draw(st.sampled_from([e.tail for e in net.in_edges(NodeId(BOTTLENECK_TAIL, i))]))
        entries = _region_entries(draw, n, source_column(d, source, m), m, w, structured)
        code = replace_encoder(code, i, shift_entries(code.encoders[i], entries, delta))
    else:
        t = draw(st.sampled_from(sorted(code.decoders, key=lambda x: x.sort_key)))
        dec = code.decoders[t]
        entries = _region_entries(draw, m, 0, dec.matrix.cols, w, structured)
        decoders = dict(code.decoders)
        decoders[t] = TerminalDecoder(dec.in_edges, shift_entries(dec.matrix, entries, delta))
        code = NetworkCode(d, f, code.params, code.encoders, decoders)
    if draw(st.booleans()):
        code = rebase_bottlenecks(net, code, seed=draw(st.integers(0, 2**32 - 1)))
    return net, code


@settings(max_examples=40, deadline=None)
@given(corrupted_codes(), st.integers(0, 2**32 - 1))
def test_transfer_and_simulation_agree_on_corrupted_codes(case, seed):
    # a wrong end-to-end map fools one random trial with probability at
    # most 1/p, so 64 trials all pass it with probability at most 2^-64
    net, code = case
    assert transfer_check(net, code).ok == simulate_trials(net, code, 64, seed).ok
    assert code_from_json(code_to_json(code)) == code


@settings(max_examples=40, deadline=None)
@given(corrupted_codes(), st.integers(0, 2**32 - 1))
def test_core_path_agrees_with_the_full_path_on_corrupted_codes(case, seed):
    assert_core_path_agrees(*case, seed)


def repeat_a_direct_in_edge(code: NetworkCode, draw) -> NetworkCode:
    """The code with one terminal listing one of its direct in-edges again,
    with a random block of decoder columns."""
    t = draw(st.sampled_from(sorted(code.decoders, key=lambda x: x.sort_key)))
    edges, blocks = code.decoders[t].in_edges, decoder_blocks(code, t)
    j = draw(st.sampled_from([j for j, e in enumerate(edges) if e.kind == EDGE_DIRECT]))
    seed = draw(st.integers(0, 2**32 - 1))
    block = np.random.default_rng(seed).integers(0, code.field.p, size=blocks[j].shape)
    return replace_decoder(code, t, (*edges, edges[j]), (*blocks, block))


def assert_simulation_matches_the_oracle(net, code, w: int, trials: int, seed: int) -> None:
    """``_simulate_batch`` decodes the oracle's values, value for value, and
    ``simulate_trials``, which draws the same values and compares them with
    their sums a chunk at a time, reports what those values give."""
    rng = np.random.default_rng(seed)
    c, p = code.params.m, code.field.p
    batch = {s: rng.integers(0, p, size=(c, w * trials)) for s in net.sources()}
    got = _simulate_batch(net, code, batch, _check_compatible(net, code))
    want = oracle_simulate_batch(net, code, batch)
    assert list(got) == list(want)
    for t in want:
        assert got[t].dtype == np.int64 and np.array_equal(got[t], want[t]), t
    sums = sum(batch.values()) % p
    wrong = {t: np.flatnonzero((want[t] != sums).any(axis=0)) for t in sorted(want, key=lambda x: x.sort_key)}
    witnesses = [
        (t, f"trial {x}: decoded {want[t][:, x].tolist()}, sum of sources is {sums[:, x].tolist()}")
        for t, x in ((t, int(x[0])) for t, x in wrong.items() if x.size)
    ]
    summary = simulate_trials(net, code, w * trials, seed)
    assert summary.mismatched_trials == len(set(np.concatenate(list(wrong.values())).tolist()))
    assert [(x.at, x.detail) for x in summary.failures] == witnesses


@settings(max_examples=60, deadline=None)
@given(
    corrupted_codes(primes=(2, 3, 5, BIG)),
    st.integers(1, 40),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_simulation_agrees_with_the_per_terminal_oracle(case, trials, cells, seed, data):
    # the code as given and its core, w > 1 for an interleaved code; a tiny
    # cell budget cuts the trial columns into many chunks, most often with
    # a shorter last one
    net, code = case
    if data.draw(st.booleans()):
        code = repeat_a_direct_in_edge(code, data.draw)
    with patch.object(verify_module, "_CHUNK_CELLS", cells):
        for core, w in ((as_given(code), 1), (core_code(code), code.w)):
            assert_simulation_matches_the_oracle(net, core, w, trials, seed)


def test_simulation_decodes_in_chunks_with_a_shorter_last_one(monkeypatch):
    net, code = fano_code(3)
    d, w, (c, n) = net.design, code.w, code.core_params.rate
    assert w == 2
    # value rows plus decoded rows per core column; a budget of 16 columns
    # is 8 whole trials of w copies, which cuts 25 trials into three chunks,
    # evenly wide but for one
    rows = (d.v + d.b) * c + d.v * n + len(net.terminals()) * c
    monkeypatch.setattr(verify_module, "_CHUNK_CELLS", 16 * rows)
    widths, kernel = [], verify_module._matmul_mod

    def spy(a, b, p):
        if isinstance(a, _Prepared) and a.balanced.shape[0] == len(net.terminals()) * c:
            widths.append(b.shape[1])
        return kernel(a, b, p)

    monkeypatch.setattr(verify_module, "_matmul_mod", spy)
    assert_simulation_matches_the_oracle(net, code, 1, 25, seed=4)
    # once for the decoded block, once for the trials compared with their sums
    assert widths == [w * 9, w * 9, w * 7] * 2


def test_simulation_over_a_large_prime_decodes_in_one_pass_per_chunk(monkeypatch):
    # the decode matrix is prepared once in balanced residues, where its
    # -(k-1) is small, so however small the budget each chunk of whole
    # trials is decoded by one product with one reduction
    net = build_sum_network(sts_bose(9))
    code = build_code(net, PrimeField(BIG))
    w, c = code.w, code.core_params.m
    tall = len(net.terminals()) * c
    monkeypatch.setattr(verify_module, "_CHUNK_CELLS", 1)
    decodes, kernel, mod = [], verify_module._matmul_mod, np.mod

    def spy(a, b, p):
        if not (isinstance(a, _Prepared) and a.balanced.shape[0] == tall):
            return kernel(a, b, p)
        reductions = []

        def counting_mod(*args, **kwargs):
            reductions.append(1)
            return mod(*args, **kwargs)

        with monkeypatch.context() as patch_mod:
            patch_mod.setattr(np, "mod", counting_mod)
            got = kernel(a, b, p)
        decodes.append((b.shape[1], len(reductions)))
        return got

    monkeypatch.setattr(verify_module, "_matmul_mod", spy)
    assert_simulation_matches_the_oracle(net, code, 1, 20, seed=2)
    # one chunk per trial, w columns wide, for the decoded block and again
    # for the compared trials
    assert w == 3 and decodes == [(w, 1)] * 40


def test_a_code_holds_its_core_and_lifts_its_maps_on_request():
    net, code = fano_code(3)
    with pytest.raises(TypeError):
        code.core_decoders[NodeId(TERMINAL_BLOCK, 0)] = code.core_decoders[NodeId(TERMINAL_BLOCK, 1)]
    with pytest.raises(TypeError):
        code.decoders[NodeId(TERMINAL_BLOCK, 0)] = code.decoders[NodeId(TERMINAL_BLOCK, 1)]
    assert (code.w, code.core_params.rate) == (2, (3, 6))
    # bottleneck 1's kernel reads its point and the three blocks through it
    assert code.core_kernels[0].shape == (6, 12) and code.encoders[0].shape == (12, 84)
    # the constructor takes the (m, n) maps and finds the core build_code made
    again = NetworkCode(code.design, code.field, code.params, list(code.encoders), code.decoders)
    assert isinstance(again.encoders, tuple) and again == code
    assert (again.w, again.core_kernels, again.core_decoders) == (2, code.core_kernels, code.core_decoders)
    # the lifted views of the same code held at w = 1 are the same maps
    flat = as_given(code)
    assert flat.w == 1 and (flat.encoders, flat.decoders) == (code.encoders, code.decoders)
    # at w = 1 the decoders are the held maps themselves; the encoders are
    # built from the kernels on request
    scalar = build_code(net, PrimeField(2))
    assert scalar.w == 1 and scalar.decoders is scalar.core_decoders


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unlift_inverts_lift_and_rejects_a_broken_copy(data):
    f = PrimeField(data.draw(st.sampled_from((2, 3, 5, 2147483647))))
    rows, cols, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, f.p - 1), min_size=cols, max_size=cols)
    core = FieldMatrix(f, data.draw(st.lists(entries, min_size=rows, max_size=rows)))
    lifted = _lift(core, w)
    assert _unlift(lifted, w) == core
    if w == 1:
        return
    delta = data.draw(st.integers(1, f.p - 1))
    i, b = data.draw(st.integers(0, rows * w - 1)), data.draw(st.integers(0, cols - 1))
    off = b * w + (i % w + data.draw(st.integers(1, w - 1))) % w  # another copy's column
    assert _unlift(shift_entries(lifted, [(i, off)], delta), w) is None
    assert _unlift(shift_entries(lifted, [(i, b * w + i % w)], delta), w) is None


# ---------------------------------------------------------------------------
# golden failure reports: verdicts and failure texts are pinned byte for byte
# ---------------------------------------------------------------------------

def zero_encoder_row(code: NetworkCode, i: int, row: int) -> NetworkCode:
    a = code.encoders[i].array.copy()
    a[row] = 0
    return replace_encoder(code, i, FieldMatrix(code.field, a))


def bump_decoder_entry(code: NetworkCode) -> NetworkCode:
    """Add 1 to entry (0, 0) of the first terminal's decoder."""
    t = min(code.decoders, key=lambda x: x.sort_key)
    dec = code.decoders[t]
    a = dec.matrix.array.copy()
    a[0, 0] += 1
    decoders = dict(code.decoders)
    decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=FieldMatrix(code.field, a))
    return NetworkCode(code.design, code.field, code.params, code.encoders, decoders)


def zero_core_encoder_row(code: NetworkCode, i: int) -> NetworkCode:
    """Zero the last core partial-sum row, c-1, in every copy of encoder i."""
    c, _, w = _core(code.design, code.params)
    a = code.encoders[i].array.copy()
    a[(c - 1) * w : c * w] = 0
    return replace_encoder(code, i, FieldMatrix(code.field, a))


def bump_core_decoder_entry(code: NetworkCode) -> NetworkCode:
    """Add 1 at core entry (c-1, 0) in every copy of the first terminal's
    decoder: entries ((c-1)*w + u, u)."""
    c, _, w = _core(code.design, code.params)
    t = min(code.decoders, key=lambda x: x.sort_key)
    dec = code.decoders[t]
    a = dec.matrix.array.copy()
    for u in range(w):
        a[(c - 1) * w + u, u] += 1
    decoders = dict(code.decoders)
    decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=FieldMatrix(code.field, a))
    return NetworkCode(code.design, code.field, code.params, code.encoders, decoders)


# decoder-entry and encoder-row break the interleaving of a fractional code;
# the other four change every copy alike and keep it
CORRUPTIONS = {
    # the last partial-sum row, so failures name a row other than the first
    "encoder-row": lambda net, code: zero_encoder_row(code, 0, code.params.m - 1),
    "decoder-entry": lambda net, code: bump_decoder_entry(code),
    "one-correction": lambda net, code: drop_block_correction(net, code, blocks=[0]),
    "encoder": lambda net, code: zero_encoder(code, 0),
    "structured-encoder-row": lambda net, code: zero_core_encoder_row(code, 0),
    "structured-decoder-entry": lambda net, code: bump_core_decoder_entry(code),
}

DESIGNS = {"fano": fano, "sts9": lambda: sts_bose(9), "sts15": lambda: sts_bose(15)}


def test_corruptions_keep_or_break_the_interleaving():
    net = build_sum_network(sts_bose(9))
    code = build_code(net, PrimeField(5))
    copies = {name: corrupt(net, code).w for name, corrupt in CORRUPTIONS.items()}
    assert copies == {
        "encoder-row": 1,
        "decoder-entry": 1,
        "one-correction": 3,
        "encoder": 3,
        "structured-encoder-row": 3,
        "structured-decoder-entry": 3,
    }


def failure_report(net, code) -> str:
    lines = []
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        result = check(net, code)
        lines.append(f"{check.__name__} ok={result.ok}")
        lines += [f"  {x.at.label() if x.at else None}: {x.detail}" for x in result.failures]
    return "\n".join(lines) + "\n"


FAILURE_REPORT_SHA256 = {
    ('fano', 2, 'decoder-entry'): "5067e67535a707156755d2a8c9f1855011138f0d1f2472d9b1d42296c65d6d13",
    ('fano', 2, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2, 'encoder-row'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2, 'one-correction'): "bb7a64886da181c934a3bc439b1e1c72e1cbbbcb94f38a4e0fdde81b6a859686",
    ('fano', 3, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 3, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 3, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 3, 'one-correction'): "fd3a9663af2adfed3ab4ec2a0bf4c42d97e063fceca7413e100a00e64a5ab971",
    ('fano', 3, 'structured-decoder-entry'): "500dacce15f594c89e2f20492d32e13eaa8952f93d718a047acb1c100c4c8b41",
    ('fano', 3, 'structured-encoder-row'): "6503bf32d5de5a14cadc637c58f4b6eca2b88fded8c323f89144616dc9c8fa67",
    ('fano', 5, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 5, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 5, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 5, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('fano', 5, 'structured-decoder-entry'): "500dacce15f594c89e2f20492d32e13eaa8952f93d718a047acb1c100c4c8b41",
    ('fano', 5, 'structured-encoder-row'): "6503bf32d5de5a14cadc637c58f4b6eca2b88fded8c323f89144616dc9c8fa67",
    ('fano', 2147483647, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 2147483647, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2147483647, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 2147483647, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('fano', 2147483647, 'structured-decoder-entry'): "500dacce15f594c89e2f20492d32e13eaa8952f93d718a047acb1c100c4c8b41",
    ('fano', 2147483647, 'structured-encoder-row'): "6503bf32d5de5a14cadc637c58f4b6eca2b88fded8c323f89144616dc9c8fa67",
    ('sts9', 2, 'decoder-entry'): "5067e67535a707156755d2a8c9f1855011138f0d1f2472d9b1d42296c65d6d13",
    ('sts9', 2, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2, 'encoder-row'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2, 'one-correction'): "bb7a64886da181c934a3bc439b1e1c72e1cbbbcb94f38a4e0fdde81b6a859686",
    ('sts9', 3, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 3, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 3, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 3, 'one-correction'): "fd3a9663af2adfed3ab4ec2a0bf4c42d97e063fceca7413e100a00e64a5ab971",
    ('sts9', 3, 'structured-decoder-entry'): "e6cff2112e8c91f854378e8a4bf1351d2100ecc18033f8e5cd07c9d6aec010ff",
    ('sts9', 3, 'structured-encoder-row'): "cb098aa8ca75b930798cadfeac1310253f993848016394bb2266e305f750e0b3",
    ('sts9', 5, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 5, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 5, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 5, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('sts9', 5, 'structured-decoder-entry'): "e6cff2112e8c91f854378e8a4bf1351d2100ecc18033f8e5cd07c9d6aec010ff",
    ('sts9', 5, 'structured-encoder-row'): "cb098aa8ca75b930798cadfeac1310253f993848016394bb2266e305f750e0b3",
    ('sts9', 2147483647, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 2147483647, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2147483647, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 2147483647, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('sts9', 2147483647, 'structured-decoder-entry'): "e6cff2112e8c91f854378e8a4bf1351d2100ecc18033f8e5cd07c9d6aec010ff",
    ('sts9', 2147483647, 'structured-encoder-row'): "cb098aa8ca75b930798cadfeac1310253f993848016394bb2266e305f750e0b3",
    ('sts15', 3, 'structured-decoder-entry'): "14d48de5e5fe45028cb8181d9b2be6bbe4d1995cca290e823d6738f44f58346e",
    ('sts15', 3, 'structured-encoder-row'): "30ac0f19dacc896fb9f164eb55163cc85148eceb2af2c5017f7e2e8bb8fa4368",
    ('sts15', 5, 'structured-decoder-entry'): "14d48de5e5fe45028cb8181d9b2be6bbe4d1995cca290e823d6738f44f58346e",
    ('sts15', 5, 'structured-encoder-row'): "30ac0f19dacc896fb9f164eb55163cc85148eceb2af2c5017f7e2e8bb8fa4368",
    ('sts15', 2147483647, 'structured-decoder-entry'): "14d48de5e5fe45028cb8181d9b2be6bbe4d1995cca290e823d6738f44f58346e",
    ('sts15', 2147483647, 'structured-encoder-row'): "30ac0f19dacc896fb9f164eb55163cc85148eceb2af2c5017f7e2e8bb8fa4368",
}


@pytest.mark.parametrize("name,p,corruption", sorted(FAILURE_REPORT_SHA256))
def test_failure_report_golden_digest(name, p, corruption):
    net = build_sum_network(DESIGNS[name]())
    broken = CORRUPTIONS[corruption](net, build_code(net, PrimeField(p)))
    text = failure_report(net, broken)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILURE_REPORT_SHA256[name, p, corruption]


def simulation_report(net, code) -> str:
    summary = simulate_trials(net, code, 200, seed=7)
    lines = [f"ok={summary.ok} mismatched_trials={summary.mismatched_trials}"]
    lines += [f"  {x.at.label() if x.at else None}: {x.detail}" for x in summary.failures]
    return "\n".join(lines) + "\n"


SIMULATION_REPORT_SHA256 = {
    ('fano', 3, 'decoder-entry'): "26b680fc1c33e128ad2c8520b95dd18efdffa38068d525cc815db9ce15ff9169",
    ('fano', 3, 'encoder'): "5330eea77a0457f32a9a3facebb887dcd53462169fb19a530e46751ffad0a9c3",
    ('fano', 3, 'encoder-row'): "9bf42fb7a6c168b2a88d375dea740f15686645d8f414dde2e5320b8bea72a4fd",
    ('fano', 3, 'one-correction'): "c52b436e690d032f95d7eb5bbe04a86c8cec9def0e2b25c198dd0d0b35c91555",
    ('fano', 3, 'structured-decoder-entry'): "955eed2829874d1781804e1f56becb5e315e53e7c5019eb2661e9a795f488ace",
    ('fano', 3, 'structured-encoder-row'): "0822b8aae8196413363a62cf9de46e1ca99af5d605992b3626357c6e6f0cfd80",
    ('fano', 5, 'decoder-entry'): "ddec8200a469f8395a85d053d4e161168ca59a53e1c6716c15fd719ac5cf4573",
    ('fano', 5, 'encoder'): "c0fbf6c0fbbb8bea191807a90f68076b13b28b117c9b785e83da1b6d1ede32a5",
    ('fano', 5, 'encoder-row'): "8f9f565fe59dcc9090cd29a8aec38325440c4a7889c2cfa18faa95f28905f46b",
    ('fano', 5, 'one-correction'): "aa728cf4bc5067b15d0732a8c1bc145df9ebe0d09ea4434b432abc8c587d9e3c",
    ('fano', 5, 'structured-decoder-entry'): "277fa5e81d2bee074671c91fd982f3f7a930316d4c8911f741fad367f98f8730",
    ('fano', 5, 'structured-encoder-row'): "261e4dc9915ee4c487f799e18a3e53e261efec0829f76138126db0752b565c58",
    ('fano', 2147483647, 'decoder-entry'): "a6f5f0cea4d3ea695dff30b26763fdf5b945bfe7bd9da2897801fb3157b0cf12",
    ('fano', 2147483647, 'encoder'): "102bbc32af5ecc40cbfda653cebb36b9231d48e8d55de91407522e8270700d8f",
    ('fano', 2147483647, 'encoder-row'): "8e6071d08ba68817fd40ee161273bfb37c61a93d53b610722645e15427703604",
    ('fano', 2147483647, 'one-correction'): "96b47f29dfb60fa1d3ad1f2309e602d4d90bf4cbc8b634f671789501ab2def9a",
    ('fano', 2147483647, 'structured-decoder-entry'): "a7cf50589eeea370cdc370841baab59cdc09471c8a233b3cb6eb09ff3f872bf1",
    ('fano', 2147483647, 'structured-encoder-row'): "c02e77a1aee8419a9a4ceb2cb8b14c09dd4948d82dc2d54bfcc5746dda138b19",
    ('sts15', 3, 'decoder-entry'): "b0837782d675bcfca232b4e928ea572a0f36d7ae7d155115ff0730c07b510803",
    ('sts15', 3, 'encoder'): "8a1dd692311feaa7a4126f64c4b88a50d4bb5169b2f7e0c7b37cf1ddc3a00215",
    ('sts15', 3, 'encoder-row'): "d6a415f5b977c720d2504d0a28f5ab9f75273b67d912b769b521a712a5cf42f3",
    ('sts15', 3, 'one-correction'): "b9f9b71a6859939ea89dd6b4853feb0e92ed54108cef12a119eb4d0dcc9cc6bf",
    ('sts15', 3, 'structured-decoder-entry'): "2415cba7d2b9722100d8ecb635380ec4de6a8b996acb12dfade312f260078c9c",
    ('sts15', 3, 'structured-encoder-row'): "70694d45e4c1de9c2812d161aaa47774309953e94024d8c2c2a8962b51f11e1e",
    ('sts15', 5, 'decoder-entry'): "ca8e9b04fc563b2d0bd69ddbd407f0b71e23dbd16ad68164fc01968214418973",
    ('sts15', 5, 'encoder'): "df53bfb94bff6ac9b6f451aa7671f69ca59473a5dd88016f9388382f6fd1d771",
    ('sts15', 5, 'encoder-row'): "c0d3c1781778409ec1dcafedebd6234eac7c7f57a1945da8c237d4086c7e35bf",
    ('sts15', 5, 'one-correction'): "6b5e3b524ae5e02e6a89d39aa237580318db83a1c62f1e675f9041c825d160ca",
    ('sts15', 5, 'structured-decoder-entry'): "b07386d59a5b195f1ea41c92a832e6e8dd7fb23117771010238ff2610b0a5408",
    ('sts15', 5, 'structured-encoder-row'): "ebe59c1af051df243ff972614ff15bf453ffec5832664bb5d6ca3b63717edcdb",
    ('sts15', 2147483647, 'decoder-entry'): "d8deb58f82fb4a7b753d83ac0bf4048f4957a550e78866c58c5b16d6b8302694",
    ('sts15', 2147483647, 'encoder'): "2c35d61293fb3c516e3b1ce3f42a1cc830317025d6afdeb38bb47d1f65fa71a1",
    ('sts15', 2147483647, 'encoder-row'): "498617ea7c7790b3b2722dd7b2de60081420eef1187e9c0fde4cd0d1cf86339c",
    ('sts15', 2147483647, 'one-correction'): "73079e1b8395310fd25b2637f48f0299de9dccc8c7323aa8f019f9c776264eae",
    ('sts15', 2147483647, 'structured-decoder-entry'): "6656eeb614c27faf67f5264a5460a6f8e90239b31b19f871ba92a7fb6ef7f8d3",
    ('sts15', 2147483647, 'structured-encoder-row'): "c06c198efe3cf4e06de923b76ed1e9b6039b5b1486221f80c998028625dc68aa",
    ('sts9', 3, 'decoder-entry'): "8f6b35796a8a4bff5f0d3434667ad51eb5f260a627c68b0b1cb418e3ddf0ae49",
    ('sts9', 3, 'encoder'): "96a770726101d4ec2f827479a6b123b720dbe0069f7ca3fb873a3c3b292af65f",
    ('sts9', 3, 'encoder-row'): "de6e42e053df65389655b1a94b73a398104587e249b5400ed363ae1d21becbb6",
    ('sts9', 3, 'one-correction'): "12ad7d5390d8b7bef5114fb6548f24346a932ac42c4a506a251d918f595334b8",
    ('sts9', 3, 'structured-decoder-entry'): "9b354c9875be43d0334a4bd83fe45537bbf56fb4640a98f5a28c6681b7d62586",
    ('sts9', 3, 'structured-encoder-row'): "797b47b74f8c9e5ab56d5e343b379615077d967b28910059d8bee28fae3aa839",
    ('sts9', 5, 'decoder-entry'): "5e399f5e3da4f9fe1f84cdf2f3062e08b565caf6461ab8fbd6e0e8796b7c6fd5",
    ('sts9', 5, 'encoder'): "96cbfce87069a3ef03008bdcd584fed6132b713e206bbcdad7f692c1f3d477bb",
    ('sts9', 5, 'encoder-row'): "7a76e9a2262a5d10ee6996c8afc384f3d68a2b05a305e3babe5f052897eb492f",
    ('sts9', 5, 'one-correction'): "b54b5befce50959e633ce82a483ad2b118384b67c2e937ad5501615004aa8b8b",
    ('sts9', 5, 'structured-decoder-entry'): "082da0eedf19f24f0518f36017da50883b5e78fd578e2beb43a58e2086e3a74a",
    ('sts9', 5, 'structured-encoder-row'): "8b301b2c4125001efb24057e6f7bbc0422fd4bd7009baf8e78cc7c1c43adf396",
    ('sts9', 2147483647, 'decoder-entry'): "515306ed14584ddc7e7670e1c879eff31b8f73e6d8960871978dca66e1482378",
    ('sts9', 2147483647, 'encoder'): "12086eb81625a2a5b10f1938a24ca33b96421a06f1c717f8bedbfc975bced6fb",
    ('sts9', 2147483647, 'encoder-row'): "19cf0252d31a2bec945314dad96183705ca580740974448b91d45c85e4144fb2",
    ('sts9', 2147483647, 'one-correction'): "28a325f9e407eff052791e8cb3ace532cf490737b4e115e2f4f621eab4b9eff0",
    ('sts9', 2147483647, 'structured-decoder-entry'): "40527fbd4961af2f7733c66df4303638bddde99f7d47f92f1f5fc5ffe336815d",
    ('sts9', 2147483647, 'structured-encoder-row'): "f56ae271f1abf1dd4e5c458776f293e101bbde4a5cf1b5518ace01e2ba2f964a",
}


@pytest.mark.parametrize("name,p,corruption", sorted(SIMULATION_REPORT_SHA256))
def test_simulation_report_golden_digest(name, p, corruption):
    net = build_sum_network(DESIGNS[name]())
    broken = CORRUPTIONS[corruption](net, build_code(net, PrimeField(p)))
    text = simulation_report(net, broken)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATION_REPORT_SHA256[name, p, corruption]
