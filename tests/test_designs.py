import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_integer_rows
from sumnet.coding import slice_layout
from sumnet.designs import (
    Design,
    InvalidDesignError,
    ParseError,
    UnsupportedOrderError,
    design_load,
    design_save,
    design_verify,
    _integer_rows,
    fano,
    sts_bose,
)

FANO_INCIDENCE = [
    [1, 0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 0],
]

FANO_COLORED = [
    [1, 0, 1, 1, 0, 0, 0],
    [2, 0, 0, 0, 1, 0, 1],
    [3, 1, 0, 0, 0, 1, 0],
    [0, 2, 0, 2, 0, 0, 2],
    [0, 3, 2, 0, 2, 0, 0],
    [0, 0, 3, 0, 0, 2, 3],
    [0, 0, 0, 3, 3, 3, 0],
]


def oracle_pair_counts(d: Design) -> dict:
    """Brute-force recount of how many blocks cover each point pair."""
    counts = {pair: 0 for pair in itertools.combinations(range(d.v), 2)}
    for blk in d.blocks:
        for pair in itertools.combinations(sorted(blk), 2):
            counts[pair] += 1
    return counts


def incidence(d: Design) -> list[list[int]]:
    """The v x b 0/1 incidence matrix, read off ``blocks_through``."""
    return [[int(j in d.blocks_through(point)) for j in range(d.b)] for point in range(d.v)]


def colored_incidence(d: Design) -> list[list[int]]:
    """The incidence matrix with each one replaced by its slice color."""
    colored = [[0] * d.b for _ in range(d.v)]
    for s in slice_layout(d):
        colored[s.point][s.block] = s.color
    return colored


def oracle_is_valid(d: Design) -> bool:
    if any(len(set(blk)) != d.k for blk in d.blocks):
        return False
    if any(p < 0 or p >= d.v for blk in d.blocks for p in blk):
        return False
    return all(c == d.lambda_ for c in oracle_pair_counts(d).values())


# ---------------------------------------------------------------------------
# the 7-point plane
# ---------------------------------------------------------------------------

def test_fano_blocks_in_conventional_order():
    d = fano()
    assert [[p + 1 for p in blk] for blk in d.blocks] == [
        [1, 2, 3], [3, 4, 5], [1, 5, 6], [1, 4, 7], [2, 5, 7], [3, 6, 7], [2, 4, 6],
    ]


def test_fano_is_valid():
    d = fano()
    assert design_verify(d).ok
    assert d.r == 3 and d.b == 7


def test_fano_incidence_matrix():
    assert incidence(fano()) == FANO_INCIDENCE


def test_mutated_fano_reports_uncovered_pair():
    d = fano()
    blocks = ((0, 1, 3),) + d.blocks[1:]  # block A becomes {1,2,4}
    bad = Design(v=7, k=3, lambda_=1, blocks=blocks)
    counts = oracle_pair_counts(bad)
    assert counts[(0, 2)] == 0  # pair {1,3} no longer covered
    report = design_verify(bad)
    assert not report.ok
    assert any("{1,3}" in problem for problem in report.problems)


def test_single_block_design_is_valid():
    d = Design(v=3, k=3, lambda_=1, blocks=((0, 1, 2),))
    report = design_verify(d)
    assert report.ok
    assert d.r == 1 and d.b == 1
    assert incidence(d) == [[1], [1], [1]]


# ---------------------------------------------------------------------------
# Steiner systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,b,r", [(9, 12, 4), (15, 35, 7), (21, 70, 10)])
def test_bose_orders(v, b, r):
    d = sts_bose(v)
    assert design_verify(d).ok
    assert d.b == b and d.r == r
    assert d.b == v * (v - 1) // 6
    assert all(sum(row) == r for row in incidence(d))


@pytest.mark.parametrize("v", [7, 8, 13, 6, 0, -3])
def test_bose_rejects_other_orders(v):
    with pytest.raises(UnsupportedOrderError):
        sts_bose(v)


def test_bose_v3_is_the_single_block_design():
    assert sts_bose(3).blocks == ((0, 1, 2),)


def test_bose_is_deterministic():
    assert sts_bose(15) == sts_bose(15)


def test_unique_block_per_pair_when_lambda_is_one():
    d = sts_bose(9)
    for blk in d.blocks:
        for x, y in itertools.combinations(blk, 2):
            shared = set(d.blocks_through(x)) & set(d.blocks_through(y))
            assert len(shared) == 1


def test_total_incidences_equal_bk():
    for d in (fano(), sts_bose(9), sts_bose(15)):
        total = sum(len(d.blocks_through(p)) for p in range(d.v))
        assert total == d.b * d.k == d.v * d.r


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    path = tmp_path / "design.json"
    for d in (fano(), sts_bose(9)):
        design_save(d, path)
        assert design_load(path) == d


def test_load_rejects_invalid_designs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 3, "k": 3, "lambda": 1, "blocks": [[1, 2]]}))
    with pytest.raises(InvalidDesignError):
        design_load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        design_load(path)
    path.write_text(json.dumps({"v": 3, "k": 3}))
    with pytest.raises(ParseError):
        design_load(path)
    path.write_text(json.dumps({"v": 3, "k": 3, "lambda": 1, "blocks": [["a", 2, 3]]}))
    with pytest.raises(ParseError):
        design_load(path)


def test_load_rejects_a_key_spelled_twice(tmp_path):
    path = tmp_path / "twice.json"
    text = json.dumps(fano().to_dict())
    path.write_text(text.replace('"k": 3', '"k": 4, "k": 3', 1))
    with pytest.raises(ParseError, match="^duplicate key 'k'$"):
        design_load(path)


@pytest.mark.parametrize(
    "field,value",
    [("v", True), ("k", True), ("lambda", True), ("lambda", False), ("blocks", [[True, 2, 3]])],
)
def test_load_rejects_json_booleans(tmp_path, field, value):
    # bool subclasses int, so true read as 1 would pass an isinstance check
    data = fano().to_dict()
    data[field] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        design_load(path)
    with pytest.raises(ParseError):
        Design.from_dict(data)


def test_handwritten_sts7_file_equals_fano(tmp_path):
    path = tmp_path / "sts7.json"
    path.write_text(
        json.dumps(
            {
                "v": 7,
                "k": 3,
                "lambda": 1,
                "blocks": [
                    [1, 2, 3], [3, 4, 5], [1, 5, 6], [1, 4, 7],
                    [2, 5, 7], [3, 6, 7], [2, 4, 6],
                ],
            }
        )
    )
    assert design_load(path) == fano()


# ---------------------------------------------------------------------------
# coloring: the colors of the slice layout number each block's points 1..k
# ---------------------------------------------------------------------------

def test_fano_coloring_exact():
    assert colored_incidence(fano()) == FANO_COLORED


def test_coloring_single_column():
    # a lone block on points 1, 3, 4 of four, listed out of order
    d = Design(v=4, k=3, lambda_=1, blocks=((3, 0, 2),))
    assert colored_incidence(d) == [[1], [0], [2], [3]]


def test_coloring_preserves_zero_pattern_and_uses_each_color_once():
    for d in (fano(), sts_bose(9), sts_bose(15)):
        a = incidence(d)
        ac = colored_incidence(d)
        for point in range(d.v):
            assert [bool(x) for x in ac[point]] == [bool(x) for x in a[point]]
        for j in range(d.b):
            nonzero = sorted(ac[point][j] for point in range(d.v) if ac[point][j])
            assert nonzero == list(range(1, d.k + 1))


# ---------------------------------------------------------------------------
# rank-to-block resolution: the ranks of the slice layout
# ---------------------------------------------------------------------------

def block_at_rank(d: Design, point: int, rank: int) -> int:
    (s,) = [s for s in slice_layout(d) if s.point == point and s.rank == rank]
    return s.block


def test_block_at_rank_fano():
    d = fano()
    assert block_at_rank(d, 0, 1) == 0  # point 1, first block: A
    assert block_at_rank(d, 0, 2) == 2  # point 1, second block: C
    assert block_at_rank(d, 6, 3) == 5  # point 7, third block: F


def test_block_at_rank_enumerates_blocks_through_point():
    for d in (fano(), sts_bose(9)):
        for point in range(d.v):
            resolved = [block_at_rank(d, point, rank) for rank in range(1, d.r + 1)]
            assert resolved == list(d.blocks_through(point))
            assert resolved == sorted(set(resolved))


# ---------------------------------------------------------------------------
# randomized agreement with the pair-counting oracle
# ---------------------------------------------------------------------------

def _relabeled(d: Design, rng) -> Design:
    perm = rng.permutation(d.v)
    blocks = tuple(tuple(int(perm[p]) for p in blk) for blk in d.blocks)
    return Design(v=d.v, k=d.k, lambda_=d.lambda_, blocks=blocks)


def _mutated(d: Design, rng) -> Design:
    j = int(rng.integers(d.b))
    blk = list(d.blocks[j])
    slot = int(rng.integers(d.k))
    outside = [p for p in range(d.v) if p not in blk]
    blk[slot] = int(rng.choice(outside))
    blocks = d.blocks[:j] + (tuple(blk),) + d.blocks[j + 1 :]
    return Design(v=d.v, k=d.k, lambda_=d.lambda_, blocks=blocks)


def test_verify_agrees_with_oracle_on_randomized_designs():
    rng = np.random.default_rng(23)
    bases = [fano(), sts_bose(9), sts_bose(15)]
    checked = 0
    for base in bases:
        for _ in range(10):
            good = _relabeled(base, rng)
            assert design_verify(good).ok == oracle_is_valid(good) == True  # noqa: E712
            bad = _mutated(base, rng)
            assert design_verify(bad).ok == oracle_is_valid(bad) == False  # noqa: E712
            checked += 2
    assert checked >= 50


# ---------------------------------------------------------------------------
# the bulk row parser against numpy's text parser
# ---------------------------------------------------------------------------

ROW_FAULTS = (
    "space in a token",
    "leading zero",
    "empty token",
    "digit between rows",
    "ragged rows",
    "sign",
    "dot",
    "exponent",
)


@st.composite
def row_texts(draw):
    """The text of rows of integers as a window hands it to the parser:
    widths 1-40, tokens of 1-19 digits (mostly one, as in a code document),
    JSON whitespace between any two tokens, and in most texts one fault."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    tokens = st.one_of(
        st.sampled_from("0123456789"),
        st.sampled_from("0123456789"),
        st.integers(10, 10**18 - 1).map(str),
        st.integers(10**18, 10**19 - 1).map(str),  # 19 digits, one too many
    )
    cells = [draw(st.lists(tokens, min_size=width, max_size=width)) for _ in range(rows)]
    fault = draw(st.sampled_from((None, *ROW_FAULTS)))
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))
    digit, space = draw(st.sampled_from("0123456789")), draw(st.text(" \t\n\r", min_size=1, max_size=3))
    token = cells[r][c]
    if fault == "space in a token":
        cut = draw(st.integers(1, len(token))) if len(token) > 1 else 1
        cells[r][c] = token[:cut] + space + (token[cut:] or digit)
    elif fault == "leading zero":
        cells[r][c] = "0" + token
    elif fault == "empty token":
        cells[r][c] = ""
    elif fault == "ragged rows":
        cells[r] = cells[r][:-1] if draw(st.booleans()) else [*cells[r], digit]
    elif fault in ("sign", "dot", "exponent"):
        mark = {"sign": draw(st.sampled_from("-+")), "dot": ".", "exponent": draw(st.sampled_from("eE"))}[fault]
        cells[r][c] = mark + token if fault == "sign" else token + mark + digit
    pieces = []
    for x, row in enumerate(cells):
        pieces += ["[", *[y for cell in row for y in (cell, ",")][:-1], "]", ","]
    pieces.pop()
    if fault == "digit between rows":
        pieces.insert(draw(st.sampled_from([x + 1 for x, y in enumerate(pieces) if y == "]"])), digit)
    gaps = draw(st.lists(st.text(" \t\n\r", max_size=3), min_size=len(pieces), max_size=len(pieces)))
    return "".join(g + y for g, y in zip(["", *gaps[1:]], pieces)).encode("ascii")


@settings(max_examples=400, deadline=None)
@given(row_texts())
def test_the_row_parser_reads_what_numpys_text_parser_reads(raw):
    got, want = _integer_rows(raw), oracle_integer_rows(raw)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "raw",
    [b"[1, 2]", b"[7]", b"[0,10]\n, [3 ,\t4]", b"[123456789012345678,0]", b"[1,0],[2,3],[4,5]"],
)
def test_the_row_parser_reads_canonical_rows(raw):
    assert np.array_equal(_integer_rows(raw), oracle_integer_rows(raw))
    assert _integer_rows(raw).dtype == np.int64


@pytest.mark.parametrize(
    "raw",
    [
        b"[1 2]",  # whitespace inside a token
        b"[01,2]",  # a leading zero
        b"[1234567890123456789]",  # 19 digits
        b"[1,,2]",  # an empty token
        b"[]",
        b"[1],5,[2]",  # a digit between rows
        b"[1]5",
        b"[1,2],[3]",  # ragged rows
        b"[-1,2]",  # a sign
        b"[1.0,2]",
        b"[1e3,2]",
    ],
)
def test_the_row_parser_refuses_what_numpys_text_parser_refuses(raw):
    assert _integer_rows(raw) is None and oracle_integer_rows(raw) is None
