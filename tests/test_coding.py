import hashlib
import json

import numpy as np
import pytest

from sumnet import coding, verify
from sumnet.coding import (
    CharMismatchError,
    NetworkCode,
    REGIME_DIVIDES,
    REGIME_NOT_DIVIDES,
    TerminalDecoder,
    UnsupportedLambdaError,
    block_source_extractor,
    build_code,
    build_code_char_divides,
    build_code_char_not_divides,
    code_from_json,
    code_params_for,
    code_to_json,
    column_source,
    partial_sum_row,
    slice_layout,
    source_column,
    stacked_width,
    sum_map,
)
from sumnet.designs import Design, InvalidDesignError, ParseError, fano, sts_bose
from sumnet.field import FieldMatrix, PrimeField, vstack
from sumnet.network import (
    BOTTLENECK_TAIL,
    EDGE_HEAD_TO_TERMINAL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    NodeId,
    build_sum_network,
)
from sumnet.verify import ShapeMismatchError, _check_compatible, _simulate_batch

from conftest import affine_plane, projective_plane, source_projection

DESIGNS = {
    "fano": fano,
    "sts9": lambda: sts_bose(9),
    "sts15": lambda: sts_bose(15),
    "pg23": lambda: projective_plane(3),
    "ag23": lambda: affine_plane(3),
    "ag25": lambda: affine_plane(5),
}

# expected selector layout of the fractional Fano code over an odd field:
# per bottleneck, the (block letter, slice color) pairs in rank order
FANO_SELECTOR_LAYOUT = {
    0: [("A", 1), ("C", 1), ("D", 1)],
    1: [("A", 2), ("E", 1), ("G", 1)],
    2: [("A", 3), ("B", 1), ("F", 1)],
    3: [("B", 2), ("D", 2), ("G", 2)],
    4: [("B", 3), ("C", 2), ("E", 2)],
    5: [("C", 3), ("F", 2), ("G", 3)],
    6: [("D", 3), ("E", 3), ("F", 3)],  # general rule, rank order D,E,F
}
BLOCK_LETTERS = "ABCDEFG"


def fano_setup(p):
    d = fano()
    net = build_sum_network(d)
    return d, net, PrimeField(p)


def point_slices(d, point):
    """The slices a bottleneck carries, in rank order."""
    return [s for s in slice_layout(d) if s.point == point]


def block_slices(d, j):
    """The k slices of block j's source, in color order."""
    return sorted((s for s in slice_layout(d) if s.block == j), key=lambda s: s.color)


def composed_extractor(code, net, j):
    """Block j's source extractor composed with its in-edges' global maps."""
    maps = []
    for e in code.decoders[NodeId(TERMINAL_BLOCK, j)].in_edges:
        if e.kind == EDGE_HEAD_TO_TERMINAL:
            maps.append(code.encoders[e.tail.index])
        else:
            maps.append(source_projection(code.design, e.tail, code.params.m, code.field))
    return block_source_extractor(code, net, j) @ vstack(maps)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_partial_sum_row_fano_point1():
    d, _, f = fano_setup(2)
    row = partial_sum_row(d, 0, 1, f)
    hits = [j for j in range(14) if row.array[0, j]]
    assert hits == [0, 7, 9, 10]  # s_1, s_A, s_C, s_D


def test_partial_sum_row_fano_point5():
    d, _, f = fano_setup(2)
    row = partial_sum_row(d, 4, 1, f)
    hits = [j for j in range(14) if row.array[0, j]]
    assert hits == [4, 8, 9, 11]  # s_5, s_B, s_C, s_E


def test_partial_sum_row_single_block_design():
    d = Design(v=3, k=3, lambda_=1, blocks=((0, 1, 2),))
    f = PrimeField(5)
    row = partial_sum_row(d, 0, 1, f)
    assert row.array.tolist() == [[1, 0, 0, 1]]


def test_partial_sum_row_block_structure():
    d, _, f = fano_setup(3)
    m = 6
    mat = partial_sum_row(d, 0, m, f)
    assert mat.shape == (m, stacked_width(d, m))
    eye = np.eye(m, dtype=int)
    for j in range(14):
        block = mat.array[:, j * m : (j + 1) * m]
        if j in (0, 7, 9, 10):
            assert (block == eye).all()
        else:
            assert not block.any()


# ---------------------------------------------------------------------------
# scalar family
# ---------------------------------------------------------------------------

def test_char_divides_fano_gf2():
    d, net, f = fano_setup(2)
    code = build_code_char_divides(net, f)
    assert code.params.m == 1 and code.params.n == 1
    assert code.params.regime == REGIME_DIVIDES
    assert len(code.encoders) == 7
    for i in range(7):
        assert code.encoders[i] == partial_sum_row(d, i, 1, f)


def test_char_divides_rejects_odd_field_on_triples():
    _, net, f = fano_setup(3)
    with pytest.raises(CharMismatchError):
        build_code_char_divides(net, f)


def test_char_not_divides_rejects_gf2_on_triples():
    _, net, f = fano_setup(2)
    with pytest.raises(CharMismatchError):
        build_code_char_not_divides(net, f)


def test_lambda2_rejected():
    d = Design(v=4, k=3, lambda_=2, blocks=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    net = build_sum_network(d)
    with pytest.raises(UnsupportedLambdaError):
        build_code(net, PrimeField(2))


def test_dispatch_picks_family_by_characteristic():
    _, net, _ = fano_setup(2)
    assert build_code(net, PrimeField(2)).params.regime == REGIME_DIVIDES
    assert build_code(net, PrimeField(3)).params.regime == REGIME_NOT_DIVIDES
    assert build_code(net, PrimeField(5)).params.regime == REGIME_NOT_DIVIDES


# ---------------------------------------------------------------------------
# slice layout
# ---------------------------------------------------------------------------

def test_selector_specs_match_expected_layout():
    d, _, _ = fano_setup(3)
    for point, expected in FANO_SELECTOR_LAYOUT.items():
        slices = point_slices(d, point)
        got = [(BLOCK_LETTERS[s.block], s.color) for s in slices]
        assert got == expected, f"point {point + 1}"
        assert [s.rank for s in slices] == [1, 2, 3]


def test_selector_matrix_slices():
    # encoder rows m + (rank-1)w .. m + rank*w - 1 carry the slice; w = 2
    _, net, f = fano_setup(3)
    code = build_code_char_not_divides(net, f)

    def slice_rows(point, rank):
        return code.encoders[point].array[6 + (rank - 1) * 2 : 6 + rank * 2]

    # slice color 1 of block A = coordinates 1:2 of source 8 (s_A)
    rows = slice_rows(0, 1)
    assert rows.shape == (2, 84)
    assert rows[0, 7 * 6] == 1 and rows[1, 7 * 6 + 1] == 1
    assert rows.sum() == 2
    # slice color 2 of block C = coordinates 3:4 of source 10 (s_C)
    rows = slice_rows(4, 2)
    assert rows[0, 9 * 6 + 2] == 1 and rows[1, 9 * 6 + 3] == 1
    assert rows.sum() == 2
    # slice color 3 of block C = coordinates 5:6
    rows = slice_rows(5, 1)
    assert rows[0, 9 * 6 + 4] == 1 and rows[1, 9 * 6 + 5] == 1
    assert rows.sum() == 2


def test_fano_fractional_encoder_layout():
    # hand-assembled from FANO_SELECTOR_LAYOUT: partial sum on top, then one
    # width-2 identity per selector slice
    d, net, f = fano_setup(3)
    code = build_code_char_not_divides(net, f)
    assert (code.params.m, code.params.n) == (6, 12)
    m, w = 6, 2
    for i in range(7):
        expected = np.zeros((12, 84), dtype=np.int64)
        expected[:m] = partial_sum_row(d, i, m, f).array
        for rank, (letter, color) in enumerate(FANO_SELECTOR_LAYOUT[i]):
            lo = (7 + BLOCK_LETTERS.index(letter)) * m + (color - 1) * w
            expected[m + rank * w : m + (rank + 1) * w, lo : lo + w] = np.eye(w, dtype=np.int64)
        assert code.encoders[i].array.tolist() == expected.tolist(), f"encoder {i + 1}"


def test_encoder_locality():
    d, net, _ = fano_setup(3)
    for f in (PrimeField(3), PrimeField(2)):
        code = build_code(net, f)
        m = code.params.m
        for i in range(d.v):
            wired = {e.tail for e in net.in_edges(NodeId(BOTTLENECK_TAIL, i))}
            for j in range(d.v + d.b):
                source = NodeId(SOURCE_POINT, j) if j < d.v else NodeId(SOURCE_BLOCK, j - d.v)
                block = code.encoders[i].array[:, j * m : (j + 1) * m]
                if source not in wired:
                    assert not block.any(), f"encoder {i} reads unwired {source.label()}"


def test_encoder_row_count_formula():
    for v, p in ((9, 5), (15, 7)):
        d = sts_bose(v)
        net = build_sum_network(d)
        code = build_code(net, PrimeField(p))
        m = code.params.m
        assert code.params.n == m + d.r * (m // d.k)
        for enc in code.encoders:
            assert enc.shape == (code.params.n, stacked_width(d, m))


@pytest.mark.parametrize("name,p", [("fano", 3), ("sts9", 3), ("sts15", 5), ("pg23", 2), ("ag25", 3)])
def test_fractional_maps_are_the_core_lifted_by_identity(name, p):
    # every map is w interleaved copies of its (k, k+r) core: the core is
    # every w-th row and column, and kron(core, I_w) restores the whole map
    d = DESIGNS[name]()
    net = build_sum_network(d)
    code = build_code_char_not_divides(net, PrimeField(p))
    w = code.params.m // d.k
    assert w > 1 and code.params.n == w * (d.k + d.r)
    maps = [*code.encoders, *(dec.matrix for dec in code.decoders.values())]
    maps += [block_source_extractor(code, net, j) for j in range(d.b)]
    eye = np.eye(w, dtype=np.int64)
    for a in (x.array for x in maps):
        assert np.array_equal(a, np.kron(a[::w, ::w], eye))


# ---------------------------------------------------------------------------
# block-source reconstruction
# ---------------------------------------------------------------------------

def test_block_specs_for_fano_block_c():
    d, _, _ = fano_setup(3)
    slices = block_slices(d, 2)
    assert [(s.point, s.rank, s.color) for s in slices] == [(0, 2, 1), (4, 2, 2), (5, 1, 3)]


def test_reconstruct_block_c_is_projection():
    d, net, f = fano_setup(3)
    code = build_code_char_not_divides(net, f)
    assert composed_extractor(code, net, 2) == source_projection(d, NodeId(SOURCE_BLOCK, 2), 6, f)


def test_reconstruct_block_a_stacks_three_slices():
    d, net, f = fano_setup(3)
    code = build_code_char_not_divides(net, f)
    assert [(s.point, s.rank) for s in block_slices(d, 0)] == [(0, 1), (1, 1), (2, 1)]
    assert composed_extractor(code, net, 0) == source_projection(
        d, NodeId(SOURCE_BLOCK, 0), 6, f
    )


def test_reconstruct_every_block_of_sts9():
    d = sts_bose(9)
    net = build_sum_network(d)
    f = PrimeField(5)
    code = build_code_char_not_divides(net, f)
    for j in range(d.b):
        assert composed_extractor(code, net, j) == source_projection(
            d, NodeId(SOURCE_BLOCK, j), code.params.m, f
        )


def test_extractor_composes_to_projection():
    # reading the slices off the in-edge values equals projecting the source
    d, net, f = fano_setup(3)
    code = build_code_char_not_divides(net, f)
    for j in range(d.b):
        composed = composed_extractor(code, net, j)
        assert composed == source_projection(d, NodeId(SOURCE_BLOCK, j), code.params.m, f)


# ---------------------------------------------------------------------------
# the overcount identity behind the block decoders
# ---------------------------------------------------------------------------

def test_sum_of_partial_sums_expansion():
    # over any field: sum of the k partial sums of a block's points equals
    # the points' sources + k times the block + the rest of its neighborhood
    for p in (2, 3, 5):
        f = PrimeField(p)
        for d in (fano(), sts_bose(9)):
            m = 2
            width = stacked_width(d, m)
            for j in range(d.b):
                total = np.zeros((m, width), dtype=np.int64)
                for point in d.blocks[j]:
                    total += partial_sum_row(d, point, m, f).array
                expected = np.zeros((m, width), dtype=np.int64)
                for point in d.blocks[j]:
                    expected += source_projection(d, NodeId(SOURCE_POINT, point), m, f).array
                expected += d.k * source_projection(d, NodeId(SOURCE_BLOCK, j), m, f).array
                for l in d.block_neighborhood(j):
                    if l != j:
                        expected += source_projection(d, NodeId(SOURCE_BLOCK, l), m, f).array
                assert FieldMatrix(f, total) == FieldMatrix(f, expected)


def test_char_divides_collapses_block_multiplicity():
    # k = 1 in the field when the characteristic divides k-1
    d = fano()
    f = PrimeField(2)
    proj = source_projection(d, NodeId(SOURCE_BLOCK, 1), 1, f)
    assert FieldMatrix(f, d.k * proj.array) == proj


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_code_json_round_trip():
    _, net, _ = fano_setup(3)
    for p in (2, 3):
        code = build_code(net, PrimeField(p))
        again = code_from_json(code_to_json(code))
        assert again == code


def test_code_json_numbers_each_in_edge_once(monkeypatch):
    # the loader numbers each decoder's in-edges once, to test that they
    # fit the design, and the code it returns holds no numbering
    net = build_sum_network(sts_bose(15))
    code = build_code(net, PrimeField(2))
    text = code_to_json(code)
    numbered, fitting = [], coding._fitting
    monkeypatch.setattr(coding, "_fitting", lambda *args: numbered.append(len(args[2])) or fitting(*args))
    assert code_from_json(text) == code
    assert sum(numbered) == sum(len(dec.in_edges) for dec in code.decoders.values())


@pytest.mark.parametrize("k", [0, 1])
def test_code_json_refuses_blocks_of_fewer_than_two_points(k):
    # the code's block lengths divide by k; a design whose blocks hold
    # fewer than two points is refused before, as design_verify words it
    _, net, f = fano_setup(3)
    data = json.loads(code_to_json(build_code(net, f)))
    data["design"]["k"] = k
    message = f"^malformed code document: block size must be at least 2, got k={k}$"
    with pytest.raises(ParseError, match=message):
        code_from_json(json.dumps(data))
    with pytest.raises(InvalidDesignError, match=f"^block size must be at least 2, got k={k}$"):
        code_params_for(Design(v=7, k=k, lambda_=1, blocks=()), f)


@pytest.mark.parametrize("key", ["m", "n"])
def test_code_json_refuses_boolean_block_lengths(key):
    # true == 1, so a scalar code's params would otherwise load and compare
    # equal to the built code
    _, net, _ = fano_setup(2)
    data = json.loads(code_to_json(build_code(net, PrimeField(2))))
    assert data["params"][key] == 1
    data["params"][key] = True
    message = "^malformed code document: params m and n must be integers$"
    with pytest.raises(ParseError, match=message):
        code_from_json(json.dumps(data))


def test_decoder_refuses_in_edges_its_arrays_cannot_hold():
    # the arrays hold one terminal, and node and edge kinds as codes the
    # network knows; anything else is refused, everything else held as given
    _, net, f = fano_setup(3)
    code = build_code(net, f)
    t = NodeId(TERMINAL_POINT, 0)
    dec = code.decoders[t]
    edges = dec.in_edges
    last = edges[-1]
    cases = (
        ((*edges, code.decoders[NodeId(TERMINAL_POINT, 1)].in_edges[0]), "more than one node"),
        ((*edges[:-1], last._replace(tail=NodeId("bogus", 0))), "does not know"),
        ((*edges[:-1], last._replace(kind="odd")), "does not know"),
    )
    for in_edges, message in cases:
        with pytest.raises(ValueError, match=message):
            TerminalDecoder(in_edges, dec.matrix)
    held = (*edges[:-1], last._replace(tail=NodeId(TERMINAL_BLOCK, 99), kind="bottleneck"))
    assert TerminalDecoder(held, dec.matrix).in_edges == held
    again = TerminalDecoder(edges, dec.matrix)
    assert again == dec and again.in_edges == edges
    assert TerminalDecoder((), FieldMatrix(f, np.zeros((1, 0), dtype=np.int64))).in_edges == ()


@pytest.mark.parametrize("batch", [1, 10, 1 << 14])
@pytest.mark.parametrize("p", [2, 3])
def test_every_decoder_is_numbered_over_the_design(p, batch, monkeypatch):
    # the compatibility check numbers each decoder's in-edges over the
    # design and hands that numbering on with the wiring, which decodes the
    # sum in chunks of any size; a decoder that does not fit its terminal is
    # refused, the first one in terminal order
    monkeypatch.setattr(verify, "_CHUNK_CELLS", batch)
    _, net, f = fano_setup(p)
    code = build_code(net, f)
    wiring = _check_compatible(net, code)
    _, numbered = wiring
    for t in net.terminals():
        into = net._in_ids(t)
        tail, kind = numbered[t]
        assert tail.tolist() == net._canonical_ids[net._tail[into]].tolist()
        assert kind.tolist() == net._kind[into].tolist()
    rng = np.random.default_rng(p)
    m = code.params.m
    sources = {s: rng.integers(0, p, size=(m, 25)) for s in net.sources()}
    total = np.mod(sum(sources.values()), p)
    for out in _simulate_batch(net, code, sources, wiring).values():
        assert np.array_equal(out, total)
    decoders = dict(code.decoders)
    t0, t1, b0 = NodeId(TERMINAL_POINT, 0), NodeId(TERMINAL_POINT, 1), NodeId(TERMINAL_BLOCK, 0)
    edges = decoders[b0].in_edges
    decoders[t0] = TerminalDecoder(decoders[t1].in_edges, decoders[t0].matrix)
    decoders[b0] = TerminalDecoder(
        (*edges[:-1], edges[-1]._replace(tail=NodeId(SOURCE_BLOCK, 7))), decoders[b0].matrix
    )
    for t in (t0, b0):
        broken = NetworkCode(code.design, f, code.params, code.encoders, decoders)
        message = f"^decoder in-edges disagree with network at {t.label()}$"
        with pytest.raises(ShapeMismatchError, match=message):
            _check_compatible(net, broken)
        decoders[t0] = code.decoders[t0]


def test_build_code_numbers_no_in_edge(monkeypatch):
    # a code holds its maps alone; in-edges are numbered where they are
    # checked, so building a code numbers none
    numbered = []
    monkeypatch.setattr(coding, "_fitting", lambda *args: numbered.append(args))
    for p in (2, 3):
        build_code(build_sum_network(sts_bose(15)), PrimeField(p))
    assert numbered == []


def test_code_json_is_deterministic():
    _, net, f = fano_setup(3)
    assert code_to_json(build_code(net, f)) == code_to_json(build_code(net, f))


def test_sum_map_shape():
    d, _, f = fano_setup(3)
    total = sum_map(d, 6, f)
    assert total.shape == (6, 84)
    assert source_column(d, NodeId(SOURCE_BLOCK, 6), 6) == 13 * 6


def test_column_source_inverts_source_column():
    d = fano()
    for m in (1, 6):
        for col in range(stacked_width(d, m)):
            source, offset = column_source(d, col, m)
            assert source_column(d, source, m) + offset == col and 0 <= offset < m
    assert column_source(d, 13 * 6 + 5, 6) == (NodeId(SOURCE_BLOCK, 6), 5)
    assert column_source(d, 6 * 6, 6) == (NodeId(SOURCE_POINT, 6), 0)


# ---------------------------------------------------------------------------
# golden digests: the code documents are pinned byte for byte
# ---------------------------------------------------------------------------

CODE_DOCUMENT_SHA256 = {
    ("fano", 2): "6e792db484d42f4af593dfcdd6dece1725c040f4d7cca1b41e2bbbe9ddc06da7",
    ("fano", 3): "4d5dcb60fac6cc7878db66a4205ec9166a550b698249205bae050ea4a7020f21",
    ("fano", 5): "f49571bb4c981199317acbf22e55c021d2207034b0a1bf2332cf5f90d681e141",
    ("sts9", 2): "6353ef4e82e243e04f88c84e41911a8b96a9c1270cee98dcccdc221fba276bdf",
    ("sts9", 3): "71f560e7638a9a4bff6413d42846b5773f1c3800f09ed7ba2a2ff66539b08ec6",
    ("sts9", 5): "92ba550f985bae0e7db40c6f462cd3ea505dc0de658b46fec37a0c1904755f5c",
    ("sts15", 2): "73aed4ab2d806f69ae7019038c70393ae889db2fd08c12fccac36d698b01a82b",
    ("sts15", 3): "3a96e0ba6cb8bc15eaa8e019cb4628da6f355c3958a23959c6c8be96c45aa333",
    ("sts15", 5): "14f1abc47ed0fa806cdfdc681dc9cbe347a6beb92008935decb94a85890f97a0",
    ("sts15", 2147483647): "ba23d5f98e095749d96e500ad80f97439c2dc0d783e4d9357ff0cddfec046cf5",
    ("pg23", 2): "bcceaf0546a220fff2ca5dacd61e8057d1544bf47b280ae06e3764d11d68be7e",
    ("pg23", 3): "51028ce8bc3f990e2c2b563231cbab4f8274c4379b884affa9ab23729e6715d5",
    ("ag25", 2): "8f7838633d472bee80021bd29676f2b79f21e7abedd292b0d12d20af99b0d295",
    ("ag23", 5): "89e43a5a322cfc3c38e943a77207dc669ebf38baaaa56ca8cf2d455d6b714665",
    ("ag25", 3): "8e87dc965d3cc8bbeb5216ec2b3ee5d9d6c5be60e865cb7932611b9eac33912f",
}


@pytest.mark.parametrize("name,p", sorted(CODE_DOCUMENT_SHA256))
def test_code_document_golden_digest(name, p):
    net = build_sum_network(DESIGNS[name]())
    text = code_to_json(build_code(net, PrimeField(p)))
    assert hashlib.sha256(text.encode()).hexdigest() == CODE_DOCUMENT_SHA256[name, p]
