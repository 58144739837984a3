"""Linear network codes for sum-networks built from 2-(v,k,1) designs.

Two code families are synthesized, chosen by whether the field
characteristic divides k-1:

* characteristic divides k-1: a scalar (1,1) code where each bottleneck
  carries the partial sum of its own neighborhood and every terminal adds
  what it sees;
* characteristic does not divide k-1: a fractional (m,n) code with
  m = v - (v mod k), which is w = m/k interleaved copies of one (k, k+r)
  core code.  In the core, each bottleneck carries its partial sum plus
  one symbol of every block source in its neighborhood.  The c-th point of
  a block carries the block's c-th symbol (``slice_layout``), so the k
  bottlenecks of a block jointly expose the whole block source.  Block
  terminals use those symbols to cancel the k-fold overcount of their own
  block.  Every core map M is lifted to the paper's layout as
  M (x) I_w: core coordinate a of copy u is coordinate a*w + u, so the
  c-th point carries the width-w slice c of its blocks' sources.

Codes are materialized as global maps: ``encoders[i]`` sends the stacked
source vector to the n symbols on bottleneck i, and each terminal decoder
maps the concatenation of its in-edge values to the m decoded symbols.
Relay edges carry their input unchanged and are not stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ._jsonwriter import dumps
from .designs import Design, ParseError
from .field import FieldMatrix, PrimeField
from .network import (
    EDGE_HEAD_TO_TERMINAL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    Edge,
    NodeId,
    SumNetwork,
    parse_node_label,
)

REGIME_DIVIDES = "char-divides"
REGIME_NOT_DIVIDES = "char-not-divides"


class CharMismatchError(ValueError):
    """The field characteristic does not fit the requested code family."""


class UnsupportedLambdaError(ValueError):
    """Code synthesis requires pair coverage lambda = 1."""


class DegenerateLengthError(ValueError):
    """The fractional construction produced an empty message block."""


@dataclass(frozen=True)
class CodeParams:
    """Message block length m and channel block length n of a code."""

    m: int
    n: int
    regime: str

    @property
    def rate(self) -> tuple[int, int]:
        return (self.m, self.n)


@dataclass(frozen=True)
class TerminalDecoder:
    """A terminal's in-edges in canonical order and its decoding matrix.

    The matrix has m rows and one column per incoming symbol: n columns for
    each head edge, m for each direct edge, in ``in_edges`` order.
    """

    in_edges: tuple[Edge, ...]
    matrix: FieldMatrix


@dataclass(frozen=True)
class NetworkCode:
    design: Design
    field: PrimeField
    params: CodeParams
    encoders: tuple[FieldMatrix, ...]
    decoders: dict[NodeId, TerminalDecoder]


def stacked_width(d: Design, m: int) -> int:
    """Width of the stacked source vector: one m-block per source."""
    return (d.v + d.b) * m


def source_column(d: Design, source: NodeId, m: int) -> int:
    """First column of a source's block in the stacked layout (points
    first, then blocks, each of width m)."""
    if source.kind == SOURCE_POINT:
        return source.index * m
    if source.kind == SOURCE_BLOCK:
        return (d.v + source.index) * m
    raise ValueError(f"{source.label()} is not a source")


def source_columns(d: Design, source: NodeId, m: int) -> slice:
    """The m columns of a source's block in the stacked layout."""
    lo = source_column(d, source, m)
    return slice(lo, lo + m)


def column_source(d: Design, col: int, m: int) -> tuple[NodeId, int]:
    """Inverse of ``source_column``: the source whose block holds stacked
    column ``col``, and the column's offset inside that block."""
    src, offset = divmod(col, m)
    if src < d.v:
        return NodeId(SOURCE_POINT, src), offset
    return NodeId(SOURCE_BLOCK, src - d.v), offset


def sources_sum_map(d: Design, sources: Iterable[NodeId], m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map adding up the listed sources: an identity block
    at each one's columns of the stacked vector."""
    mat = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    starts = np.array([source_column(d, source, m) for source in sources], dtype=np.int64)
    offsets = np.arange(m)
    mat[np.tile(offsets, len(starts)), (starts[:, None] + offsets).ravel()] = 1
    return FieldMatrix(f, mat)


def source_projection(d: Design, source: NodeId, m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map extracting one source from the stacked vector."""
    return sources_sum_map(d, (source,), m, f)


def sum_map(d: Design, m: int, f: PrimeField) -> FieldMatrix:
    """The map sending stacked sources to their sum: [I I ... I]."""
    return FieldMatrix(f, np.tile(np.eye(m, dtype=np.int64), (1, d.v + d.b)))


def partial_sum_row(d: Design, point: int, m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map computing a point's partial sum: the point's own
    source plus every block source whose block contains the point."""
    blocks = (NodeId(SOURCE_BLOCK, j) for j in d.blocks_through(point))
    return sources_sum_map(d, (NodeId(SOURCE_POINT, point), *blocks), m, f)


class Slice(NamedTuple):
    """One incidence of the slice layout of the fractional code.

    Bottleneck ``point`` carries slice ``color`` of block ``block``'s
    source in selector position ``rank``; both numbers count from 1.  In
    the core code, slice c is source coordinate c-1 and selector position
    q is bottleneck symbol k+q-1; the lift widens both by w.
    """

    point: int
    block: int
    rank: int
    color: int


def slice_layout(d: Design) -> tuple[Slice, ...]:
    """Every incidence's slice, ordered by point and then by rank.

    Blocks are stored sorted, so a point's color in block j is its
    position in ``d.blocks[j]`` and block j's rank at a point is its
    position in ``d.blocks_through(point)``.  The k points of a block thus
    carry the block's k slices, one each.
    """
    return tuple(
        Slice(point, j, rank, d.blocks[j].index(point) + 1)
        for point in range(d.v)
        for rank, j in enumerate(d.blocks_through(point), start=1)
    )


def code_params_for(d: Design, f: PrimeField) -> CodeParams:
    """Pick the code family and block lengths for a design and field."""
    if d.lambda_ != 1:
        raise UnsupportedLambdaError(f"code synthesis needs lambda=1, got {d.lambda_}")
    if (d.k - 1) % f.p == 0:
        return CodeParams(m=1, n=1, regime=REGIME_DIVIDES)
    m = d.v - d.v % d.k
    if m == 0:
        raise DegenerateLengthError(f"v={d.v} leaves no full width-{d.k} message block")
    n = m * (d.k + d.r) // d.k  # the core's k + r symbols per k, scaled to m
    return CodeParams(m=m, n=n, regime=REGIME_NOT_DIVIDES)


def _decoders_char_divides(net: SumNetwork, f: PrimeField) -> dict[NodeId, TerminalDecoder]:
    decoders = {}
    for t in net.terminals():
        in_edges = net.terminal_in_edges(t)
        ones = np.ones((1, len(in_edges)), dtype=np.int64)
        decoders[t] = TerminalDecoder(in_edges=in_edges, matrix=FieldMatrix(f, ones))
    return decoders


def build_code_char_divides(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """The scalar (1,1) code, valid when the characteristic divides k-1.

    Each bottleneck carries its point's partial sum; every terminal simply
    adds all of its in-edge symbols.  A block terminal then sees its own
    block source k times, but k = 1 in the field, so the sum comes out
    right.
    """
    d = net.design
    params = code_params_for(d, f)
    if params.regime != REGIME_DIVIDES:
        raise CharMismatchError(f"characteristic {f.p} does not divide k-1 = {d.k - 1}")
    encoders = tuple(partial_sum_row(d, i, 1, f) for i in range(d.v))
    return NetworkCode(
        design=d,
        field=f,
        params=params,
        encoders=encoders,
        decoders=_decoders_char_divides(net, f),
    )


def _block_reader(
    d: Design, layout: tuple[Slice, ...], in_edges: tuple[Edge, ...], j: int
) -> np.ndarray:
    """The core map reading block j's k selector symbols off the head edges
    among ``in_edges`` into their colors' rows; direct edges read nothing."""
    k, n = d.k, d.k + d.r
    at = {s.point: s for s in layout if s.block == j}
    widths = [n if e.kind == EDGE_HEAD_TO_TERMINAL else k for e in in_edges]
    reader = np.zeros((k, sum(widths)), dtype=np.int64)
    col = 0
    for e, width in zip(in_edges, widths):
        if e.kind == EDGE_HEAD_TO_TERMINAL:
            s = at[e.tail.index]
            reader[s.color - 1, col + k + s.rank - 1] = 1
        col += width
    return reader


def _lift(f: PrimeField, core: np.ndarray, params: CodeParams, k: int) -> FieldMatrix:
    """The paper's layout of a core map: w = m/k interleaved copies, core
    entry (a, b) of copy u landing at (a*w + u, b*w + u)."""
    w = params.m // k
    reduced = FieldMatrix(f, core).array
    return FieldMatrix._trusted(f, np.kron(reduced, np.eye(w, dtype=np.int64)))


def block_source_extractor(code: NetworkCode, net: SumNetwork, j: int) -> FieldMatrix:
    """The map reassembling block j's source from terminal t_Bj's in-edges.

    Reads the k selector slices off the k head edges and stacks them in
    color order; composing with the in-edge global maps must reproduce the
    plain projection of the block source.  The scalar code carries no
    slices, so there the map is zero, one column per in-edge symbol.
    """
    d, params = code.design, code.params
    in_edges = net.terminal_in_edges(NodeId(TERMINAL_BLOCK, j))
    if params.regime == REGIME_DIVIDES:
        return code.field.zeros(params.m, len(in_edges))
    return _lift(code.field, _block_reader(d, slice_layout(d), in_edges, j), params, d.k)


def build_code_char_not_divides(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """The fractional (m, n) code for characteristics not dividing k-1.

    Bottleneck i stacks its partial sum over the r selector slices of the
    blocks through point i.  Point terminals read the partial sum off their
    head edge and add their direct edges.  Block terminals additionally
    reassemble their own block source from the selector slices and subtract
    it k-1 times, cancelling the overcount in the sum of partial sums.

    Every map is built once for the (k, k+r) core and lifted to (m, n).
    """
    d = net.design
    params = code_params_for(d, f)
    if params.regime != REGIME_NOT_DIVIDES:
        raise CharMismatchError(f"characteristic {f.p} divides k-1 = {d.k - 1}")
    k, n = d.k, d.k + d.r
    layout = slice_layout(d)

    encoders = [np.zeros((n, stacked_width(d, k)), dtype=np.int64) for _ in range(d.v)]
    for i, enc in enumerate(encoders):
        enc[:k] = partial_sum_row(d, i, k, f).array
    for s in layout:
        col = source_column(d, NodeId(SOURCE_BLOCK, s.block), k) + s.color - 1
        encoders[s.point][k + s.rank - 1, col] = 1

    decoders: dict[NodeId, TerminalDecoder] = {}
    for t in net.terminals():
        in_edges = net.terminal_in_edges(t)
        # [I_k | 0] reads the partial sum off a head edge; direct edges pass through
        matrix = np.hstack(
            [np.eye(k, n if e.kind == EDGE_HEAD_TO_TERMINAL else k, dtype=np.int64) for e in in_edges]
        )
        if t.kind == TERMINAL_BLOCK:
            matrix -= (k - 1) * _block_reader(d, layout, in_edges, t.index)
        decoders[t] = TerminalDecoder(in_edges=in_edges, matrix=_lift(f, matrix, params, k))

    return NetworkCode(
        design=d,
        field=f,
        params=params,
        encoders=tuple(_lift(f, enc, params, k) for enc in encoders),
        decoders=decoders,
    )


def build_code(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """Synthesize the code family matching the field characteristic."""
    if code_params_for(net.design, f).regime == REGIME_DIVIDES:
        return build_code_char_divides(net, f)
    return build_code_char_not_divides(net, f)


def code_to_json(code: NetworkCode) -> str:
    data = {
        "schema": "sumnet.code/1",
        "p": code.field.p,
        "params": {"m": code.params.m, "n": code.params.n, "regime": code.params.regime},
        "design": code.design.to_dict(),
        "encoders": [enc.tolist() for enc in code.encoders],
        "decoders": {
            t.label(): {
                "in_edges": [[e.tail.label(), e.head.label(), e.kind] for e in dec.in_edges],
                "matrix": dec.matrix.tolist(),
            }
            for t, dec in sorted(code.decoders.items(), key=lambda kv: kv[0].sort_key)
        },
    }
    return dumps(data) + "\n"


def code_from_json(text: str) -> NetworkCode:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != "sumnet.code/1":
        raise ParseError("not a sumnet.code/1 document")
    try:
        f = PrimeField(data["p"])
        d = Design.from_dict(data["design"])
        raw_params = data["params"]
        params = CodeParams(m=raw_params["m"], n=raw_params["n"], regime=raw_params["regime"])
        expected = code_params_for(d, f)
        encoders = tuple(FieldMatrix(f, rows) for rows in data["encoders"])
        decoders = {}
        for label, entry in data["decoders"].items():
            t = parse_node_label(label)
            in_edges = tuple(
                Edge(parse_node_label(tail), parse_node_label(head), kind)
                for tail, head, kind in entry["in_edges"]
            )
            decoders[t] = TerminalDecoder(in_edges=in_edges, matrix=FieldMatrix(f, entry["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed code document: {exc}") from exc
    if params != expected:
        raise ParseError(
            f"code params m={params.m} n={params.n} regime={params.regime!r} differ from "
            f"m={expected.m} n={expected.n} regime={expected.regime!r} for this design over {f}"
        )
    return NetworkCode(design=d, field=f, params=params, encoders=encoders, decoders=decoders)
