"""Linear network codes for sum-networks built from 2-(v,k,1) designs.

One construction covers both regimes.  A core code sends c message
symbols of every source over c + s symbols per bottleneck: the c symbols
of the bottleneck's partial sum, then one selector symbol of every block
source in its neighborhood.  The c-th point of a block carries the
block's c-th symbol (``slice_layout``), so the k bottlenecks of a block
jointly expose the whole block source, and block terminals use those
symbols to cancel the k-fold overcount of their own block.  Every core
map M is lifted to the paper's layout as M (x) I_w: core coordinate a of
copy u is coordinate a*w + u.  The regime, whether the field
characteristic divides k-1, only picks (c, s, w):

* characteristic divides k-1: (1, 0, 1).  k = 1 in the field, so the
  overcount needs no correction and no selectors: the scalar (1,1) code,
  where every terminal adds what it sees;
* characteristic does not divide k-1: (k, r, m/k), the fractional (m,n)
  code with m = v - (v mod k); the c-th point carries the width-w slice c
  of its blocks' sources.

A code is held as what it is, w interleaved copies of its core:
``NetworkCode`` stores the (c, c+s) core maps and w, and the decision
that a code is w copies of a core is made here alone.  ``build_code``
stores the core it builds; ``NetworkCode(...)`` and ``code_from_json``
take the paper's (m, n) maps and keep their core when every one is a
lift.  ``encoders[i]`` (the map from the stacked source vector to the n
symbols on bottleneck i) and each decoder's ``matrix`` (from the
concatenation of its in-edge values to the m decoded symbols) are the
lifted maps, built on request; at w = 1 they are the core itself.  The
``sumnet.code/1`` document spells out the lifted maps, but
``code_to_json`` and ``code_save`` render each one from its core, row by
row, and build none of them.  Relay edges carry their input unchanged
and are not stored.  A decoder holds its in-edges only as integer arrays,
the tails' node kind ranks and indexes and the edge kind codes, filled
alike from ``Edge`` objects, the network's in-index or a code document's
labels; ``Edge`` objects are made only when ``TerminalDecoder.in_edges``
is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._jsonwriter import LiftedMatrix, dump, dumps
from .designs import Design, InvalidDesignError, ParseError, ValidationReport, _is_integer
from .field import FieldMatrix, PrimeField
from .network import (
    _EDGE_CODES,
    _EDGE_KINDS,
    _HEAD_TO_TERMINAL,
    _KIND_ORDER,
    _NODE_KINDS,
    BOTTLENECK_HEAD,
    EDGE_DIRECT,
    EDGE_HEAD_TO_TERMINAL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    Edge,
    NodeId,
    SumNetwork,
    _frozen,
    _kind_offsets,
    parse_node_label,
)

REGIME_DIVIDES = "char-divides"
REGIME_NOT_DIVIDES = "char-not-divides"


class CharMismatchError(ValueError):
    """The field characteristic does not fit the requested regime."""


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


class _InEdgeIds(NamedTuple):
    """A decoder's in-edges into ``terminal`` (None when there are none) as
    arrays in listed order: each tail's kind rank (``sort_key`` rank) and
    index, and each edge's kind code."""

    terminal: NodeId | None
    rank: np.ndarray
    index: np.ndarray
    kind: np.ndarray


def _in_edge_ids(terminal: NodeId | None, rank, index, kind) -> _InEdgeIds:
    """The arrays of in-edges into ``terminal``; a node kind rank or an edge
    kind code of -1, a kind the network does not know, is refused.  Ranks
    and codes are held as intp, which indexes without a conversion."""
    rank, kind = np.asarray(rank, np.intp), np.asarray(kind, np.intp)
    if (rank < 0).any() or (kind < 0).any():
        raise ValueError(
            f"decoder in-edges into {terminal.label()} hold a kind the network does not know"
        )
    return _InEdgeIds(terminal, _frozen(rank), _frozen(np.asarray(index, np.int64)), _frozen(kind))


# the tails an in-edge of each kind may start at
_IN_EDGE_TAILS = {EDGE_HEAD_TO_TERMINAL: (BOTTLENECK_HEAD,), EDGE_DIRECT: (SOURCE_POINT, SOURCE_BLOCK)}


# per edge kind code and tail kind rank, whether an in-edge of that kind
# may start at a node of that kind; the last row and column stand for an
# unknown kind and fit nothing
_FITS = _frozen(
    np.array([[x in _IN_EDGE_TAILS.get(k, ()) for x in (*_NODE_KINDS, None)] for k in (*_EDGE_KINDS, None)])
)


def _fitting(
    rank: np.ndarray, index: np.ndarray, kind: np.ndarray, d: Design
) -> tuple[np.ndarray, np.ndarray]:
    """Per in-edge, its tail's canonical id in d and whether it leads from a
    node of d that fits its kind (``_FITS``): a head edge from a bottleneck
    head, a direct edge from a source.  The ids of in-edges that do not fit
    are meaningless."""
    first, size = _kind_offsets(d.v, d.b)
    return first[rank] + index, _FITS[kind, rank] & (0 <= index) & (index < size[rank])


class TerminalDecoder:
    """A terminal's in-edges and its decoding matrix.

    The matrix has m rows and one column per incoming symbol: n columns for
    each head edge, m for each direct edge, in in-edge order.

    The in-edges are held only as the arrays of ``_InEdgeIds``, which
    ``TerminalDecoder(in_edges, matrix)``, ``build_code`` and
    ``code_from_json`` fill alike; ``in_edges`` makes ``Edge`` objects from
    them on request.  In-edges into more than one node, or with a node or
    edge kind the network does not know, are refused with ``ValueError``.
    """

    __slots__ = ("_matrix", "_ids")

    def __init__(self, in_edges: Iterable[Edge], matrix: FieldMatrix):
        edges = tuple(in_edges)
        heads = {e.head for e in edges}
        if len(heads) > 1:
            labels = ", ".join(sorted(x.label() for x in heads))
            raise ValueError(f"decoder in-edges lead into more than one node: {labels}")
        rank = [_KIND_ORDER.get(e.tail.kind, -1) for e in edges]
        kind = [_EDGE_CODES.get(e.kind, -1) for e in edges]
        self._matrix = matrix
        self._ids = _in_edge_ids(next(iter(heads), None), rank, [e.tail.index for e in edges], kind)

    @classmethod
    def _from_ids(cls, ids: _InEdgeIds, matrix: FieldMatrix) -> TerminalDecoder:
        dec = cls.__new__(cls)
        dec._matrix, dec._ids = matrix, ids
        return dec

    @property
    def matrix(self) -> FieldMatrix:
        return self._matrix

    @property
    def in_edges(self) -> tuple[Edge, ...]:
        terminal, rank, index, kind = self._ids
        return tuple(
            Edge(NodeId(_NODE_KINDS[r], x), terminal, _EDGE_KINDS[k])
            for r, x, k in zip(rank.tolist(), index.tolist(), kind.tolist())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TerminalDecoder):
            return NotImplemented
        return self._matrix == other._matrix and self.in_edges == other.in_edges

    def __repr__(self) -> str:
        return f"TerminalDecoder({len(self._ids.kind)} in-edges, matrix {self._matrix.shape})"


def _in_edge_columns(kind: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per in-edge of a decoder, given the edges' kind codes, its width and
    first column in the decoder's matrix: n columns for a head edge, m for
    a direct edge, in in-edge order."""
    width = np.where(kind == _HEAD_TO_TERMINAL, n, m)
    return width, np.cumsum(width) - width


class NetworkCode:
    """A code for the network of ``design`` over ``field``, held as its core:
    the (c, c+s) maps ``core_encoders`` and ``core_decoders``, and the
    number w of interleaved copies of them that make the (m, n) code.

    ``NetworkCode(design, field, params, encoders, decoders)`` takes the
    paper's (m, n) maps.  When every one is its core map lifted by I_w, as
    ``build_code`` makes them, it holds the core; otherwise it holds the
    maps as given with w = 1.  The test is exact and costs O(size): an
    entry changed in one copy only, or a coefficient between copies, makes
    the code its own core.  ``encoders`` and ``decoders`` give the (m, n)
    maps back, lifted on request.  The held form is decided by the (m, n)
    maps alone, so two codes are equal when their (m, n) maps are.  A code
    holds its maps only: its decoders' in-edges are numbered over the
    design where a network is checked against it (``verify``).
    """

    __slots__ = ("design", "field", "params", "w", "core_encoders", "core_decoders")

    def __init__(
        self,
        design: Design,
        field: PrimeField,
        params: CodeParams,
        encoders: Iterable[FieldMatrix],
        decoders: Mapping[NodeId, TerminalDecoder],
    ):
        encoders, decoders = tuple(encoders), dict(decoders)
        c, s, w = _core(design, params)
        core = None
        if w > 1 and (params.m, params.n) == (c * w, (c + s) * w):
            core = _unlift_all(encoders, decoders, w)
        if core is None:
            core, w = (encoders, decoders), 1
        self._hold(design, field, params, *core, w)

    @classmethod
    def _from_core(cls, design, field, params, encoders, decoders, w: int) -> NetworkCode:
        """The (m, n) code ``params`` that is w copies of the given core."""
        code = cls.__new__(cls)
        code._hold(design, field, params, encoders, decoders, w)
        return code

    def _hold(self, design, field, params, encoders, decoders, w) -> None:
        self.design, self.field, self.params, self.w = design, field, params, w
        self.core_encoders = tuple(encoders)
        self.core_decoders = MappingProxyType(dict(decoders))

    @property
    def core_params(self) -> CodeParams:
        """The block lengths of one copy: (c, c+s), or (m, n) at w = 1."""
        return CodeParams(self.params.m // self.w, self.params.n // self.w, self.params.regime)

    @property
    def encoders(self) -> tuple[FieldMatrix, ...]:
        """The (m, n) encoders, lifted on request."""
        return tuple(_lift(enc, self.w) for enc in self.core_encoders)

    @property
    def decoders(self) -> Mapping[NodeId, TerminalDecoder]:
        """The (m, n) decoders, lifted on request."""
        if self.w == 1:
            return self.core_decoders
        return MappingProxyType(
            {
                t: TerminalDecoder._from_ids(dec._ids, _lift(dec.matrix, self.w))
                for t, dec in self.core_decoders.items()
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkCode):
            return NotImplemented
        mine = (self.design, self.field, self.params, self.w, self.core_encoders, self.core_decoders)
        theirs = (other.design, other.field, other.params, other.w, other.core_encoders, other.core_decoders)
        return mine == theirs


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


def column_source(d: Design, col: int, m: int) -> tuple[NodeId, int]:
    """Inverse of ``source_column``: the source whose block holds stacked
    column ``col``, and the column's offset inside that block."""
    src, offset = divmod(col, m)
    if src < d.v:
        return NodeId(SOURCE_POINT, src), offset
    return NodeId(SOURCE_BLOCK, src - d.v), offset


def _sources_sum_array(d: Design, ids: np.ndarray, m: int) -> np.ndarray:
    """The residues of the m x (v+b)m map adding up the sources given by
    their index in the stacked layout, a point's own or v plus a block's:
    an identity block at each one's columns of the stacked vector."""
    mat = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    offsets = np.arange(m)
    mat[np.tile(offsets, len(ids)), (ids[:, None] * m + offsets).ravel()] = 1
    return mat


def sum_map(d: Design, m: int, f: PrimeField) -> FieldMatrix:
    """The map sending stacked sources to their sum: [I I ... I]."""
    return FieldMatrix(f, np.tile(np.eye(m, dtype=np.int64), (1, d.v + d.b)))


def partial_sum_row(d: Design, point: int, m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map computing a point's partial sum: the point's own
    source plus every block source whose block contains the point."""
    ids = np.array([point, *(d.v + j for j in d.blocks_through(point))], dtype=np.int64)
    return FieldMatrix._trusted(f, _sources_sum_array(d, ids, m))


class Slice(NamedTuple):
    """One incidence of the slice layout of the core code.

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
    """Pick the regime and block lengths for a design and field."""
    if d.lambda_ != 1:
        raise UnsupportedLambdaError(f"code synthesis needs lambda=1, got {d.lambda_}")
    if d.k < 2:
        raise InvalidDesignError(ValidationReport([f"block size must be at least 2, got k={d.k}"]))
    if (d.k - 1) % f.p == 0:
        return CodeParams(m=1, n=1, regime=REGIME_DIVIDES)
    m = d.v - d.v % d.k
    if m == 0:
        raise DegenerateLengthError(f"v={d.v} leaves no full width-{d.k} message block")
    n = m * (d.k + d.r) // d.k  # the core's k + r symbols per k, scaled to m
    return CodeParams(m=m, n=n, regime=REGIME_NOT_DIVIDES)


def _core(d: Design, params: CodeParams) -> tuple[int, int, int]:
    """The core (c, s, w) of a code: c message and s selector symbols on
    every bottleneck, in w interleaved copies.  When the characteristic
    divides k-1 the block correction vanishes, so one symbol and no
    selectors suffice."""
    if params.regime == REGIME_DIVIDES:
        return 1, 0, 1
    return d.k, d.r, params.m // d.k


def _block_reader(slices: Iterable[Slice], points: list[int], width: int, c: int, n: int) -> np.ndarray:
    """The core map reading a block's selector symbols, given its
    ``slice_layout`` records, off the head edges from bottlenecks
    ``points``, which lead an in-edge list ``width`` core symbols wide,
    into their colors' rows; direct edges read nothing."""
    start = {point: h * n for h, point in enumerate(points)}
    reader = np.zeros((c, width), dtype=np.int64)
    for sl in slices:
        reader[sl.color - 1, start[sl.point] + c + sl.rank - 1] = 1
    return reader


def _head_points(net: SumNetwork, ids: np.ndarray) -> list[int]:
    """The bottleneck of each head edge among the edge ids ``ids``."""
    heads = ids[net._kind[ids] == _HEAD_TO_TERMINAL]
    return [net._node_table[x].index for x in net._tail[heads].tolist()]


def _lift(core: FieldMatrix, w: int) -> FieldMatrix:
    """The paper's layout of a core map, core (x) I_w: w interleaved copies,
    core entry (a, b) of copy u landing at (a*w + u, b*w + u).  At w = 1
    that is the core itself."""
    if w == 1:
        return core
    a = core.array
    lifted = np.zeros((a.shape[0] * w, a.shape[1] * w), dtype=np.int64)
    for u in range(w):
        lifted[u::w, u::w] = a
    return FieldMatrix._trusted(core.field, lifted)


def _unlift(mat: FieldMatrix, w: int) -> FieldMatrix | None:
    """Inverse of ``_lift``: the core map whose lift by I_w is ``mat``, or
    None when ``mat`` is no such lift.

    Every copy's diagonal block ``mat[u::w, u::w]`` must equal the core
    ``mat[::w, ::w]``.  The copies then hold w * nnz(core) nonzeros, so a
    nonzero count of exactly that leaves none between copies.
    """
    a = mat.array
    if a.shape[0] % w or a.shape[1] % w:
        return None
    core = a[::w, ::w]
    if not all(np.array_equal(a[u::w, u::w], core) for u in range(1, w)):
        return None
    if np.count_nonzero(a) != w * np.count_nonzero(core):
        return None
    return FieldMatrix._trusted(mat.field, core.copy())


def _unlift_all(
    encoders: tuple[FieldMatrix, ...], decoders: dict[NodeId, TerminalDecoder], w: int
) -> tuple[list[FieldMatrix], dict[NodeId, TerminalDecoder]] | None:
    """The core maps whose lifts by I_w are the given maps, or None unless
    every one is such a lift."""
    core_encoders = []
    for enc in encoders:
        core = _unlift(enc, w)
        if core is None:
            return None
        core_encoders.append(core)
    core_decoders = {}
    for t, dec in decoders.items():
        core = _unlift(dec.matrix, w)
        if core is None:
            return None
        core_decoders[t] = TerminalDecoder._from_ids(dec._ids, core)
    return core_encoders, core_decoders


def block_source_extractor(code: NetworkCode, net: SumNetwork, j: int) -> FieldMatrix:
    """The map reassembling block j's source from terminal t_Bj's in-edges.

    Reads the k selector slices off the k head edges and stacks them in
    color order; composing with the in-edge global maps must reproduce the
    plain projection of the block source.  A core without selectors reads
    nothing, so there the map is zero.
    """
    d = code.design
    c, s, w = _core(d, code.params)
    ids = net._terminal_in_ids(NodeId(TERMINAL_BLOCK, j))
    width = int(_in_edge_columns(net._kind[ids], c, c + s)[0].sum())
    reader = np.zeros((c, width), dtype=np.int64)
    if s:
        slices = [sl for sl in slice_layout(d) if sl.block == j]
        reader = _block_reader(slices, _head_points(net, ids), width, c, c + s)
    return _lift(FieldMatrix._trusted(code.field, reader), w)


def build_code(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """The paper's (m, n) code for the network's design over f.

    Bottleneck i stacks its partial sum over the selector slices of the
    blocks through point i.  Every terminal reads the partial sum off its
    head edges and adds its direct edges; a block terminal also subtracts
    its block source, reassembled from the selector slices, k-1 times.
    Every map is built for the (c, c+s) core of ``_core``, and the code is
    held as that core and w; nothing is lifted.  Each decoder takes its
    in-edge arrays from the network's in-index.
    """
    d = net.design
    params = code_params_for(d, f)
    c, s, w = _core(d, params)
    n = c + s
    layout = slice_layout(d) if s else ()
    by_block: dict[int, list[Slice]] = {}
    for sl in layout:
        by_block.setdefault(sl.block, []).append(sl)

    encoders = [np.zeros((n, stacked_width(d, c)), dtype=np.int64) for _ in range(d.v)]
    for i, enc in enumerate(encoders):
        enc[:c] = partial_sum_row(d, i, c, f).array
    for sl in layout:
        col = source_column(d, NodeId(SOURCE_BLOCK, sl.block), c) + sl.color - 1
        encoders[sl.point][c + sl.rank - 1, col] = 1

    # [I_c | 0] per head edge, I_c per direct edge: built once per shape
    head_read, direct_read = np.eye(c, n, dtype=np.int64), np.eye(c, dtype=np.int64)
    reads: dict[tuple[int, int], np.ndarray] = {}
    decoders: dict[NodeId, TerminalDecoder] = {}
    rank, index = net._node_kinds
    for t in net.terminals():
        ids = net._terminal_in_ids(t)
        kind = net._kind[ids]
        heads = int(np.count_nonzero(kind == _HEAD_TO_TERMINAL))  # they lead the order
        shape = (heads, len(ids) - heads)
        if shape not in reads:
            reads[shape] = np.hstack((np.tile(head_read, heads), np.tile(direct_read, shape[1])))
        core = reads[shape]
        if t.kind == TERMINAL_BLOCK and s:
            points = _head_points(net, ids)
            core = core - (d.k - 1) * _block_reader(by_block[t.index], points, core.shape[1], c, n)
        tail = net._tail[ids]
        in_edges = _in_edge_ids(t, rank[tail], index[tail], kind)
        decoders[t] = TerminalDecoder._from_ids(in_edges, FieldMatrix(f, core))

    encoders = tuple(FieldMatrix._trusted(f, enc) for enc in encoders)
    return NetworkCode._from_core(d, f, params, encoders, decoders, w)


def _build_in_regime(net: SumNetwork, f: PrimeField, regime: str, relation: str) -> NetworkCode:
    if code_params_for(net.design, f).regime != regime:
        raise CharMismatchError(f"characteristic {f.p} {relation} k-1 = {net.design.k - 1}")
    return build_code(net, f)


def build_code_char_divides(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """``build_code``, refusing a characteristic that does not divide k-1."""
    return _build_in_regime(net, f, REGIME_DIVIDES, "does not divide")


def build_code_char_not_divides(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """``build_code``, refusing a characteristic that divides k-1."""
    return _build_in_regime(net, f, REGIME_NOT_DIVIDES, "divides")


def _code_document(code: NetworkCode) -> dict:
    """The ``sumnet.code/1`` document of a code: its (m, n) maps in the
    paper's layout, each written from the held core as its lift by I_w."""

    def in_edge_rows(dec: TerminalDecoder) -> list[list[str]]:
        terminal, rank, index, kind = dec._ids
        head = terminal.label() if terminal else None
        return [
            [f"{_NODE_KINDS[r]}:{x + 1}", head, _EDGE_KINDS[k]]
            for r, x, k in zip(rank.tolist(), index.tolist(), kind.tolist())
        ]

    w = code.w
    return {
        "schema": "sumnet.code/1",
        "p": code.field.p,
        "params": {"m": code.params.m, "n": code.params.n, "regime": code.params.regime},
        "design": code.design.to_dict(),
        "encoders": [LiftedMatrix(enc.array, w) for enc in code.core_encoders],
        "decoders": {
            t.label(): {"in_edges": in_edge_rows(dec), "matrix": LiftedMatrix(dec.matrix.array, w)}
            for t, dec in sorted(code.core_decoders.items(), key=lambda kv: kv[0].sort_key)
        },
    }


def code_to_json(code: NetworkCode) -> str:
    """The code as a ``sumnet.code/1`` document."""
    return dumps(_code_document(code)) + "\n"


def code_save(code: NetworkCode, path) -> None:
    """Write ``code_to_json(code)`` to ``path`` as it is rendered, so the
    whole document is never held."""
    with open(path, "w", encoding="ascii") as fp:
        dump(_code_document(code), fp)
        fp.write("\n")


def _bad_in_edge(t: NodeId, row: list) -> str:
    """Why the in-edge ``row`` of the decoder at t, which does not lead
    into t from a node of the design that fits its kind, is refused."""
    tail, head, kind = parse_node_label(row[0]), parse_node_label(row[1]), row[2]
    edge = f"decoder at {t.label()} lists in-edge {tail.label()} -> {head.label()}"
    tails = _IN_EDGE_TAILS.get(kind, ())
    if head != t:
        return f"{edge}, which does not end at its terminal"
    if not tails:
        return f"{edge} of kind {kind!r}, not a terminal in-edge kind"
    if tail.kind not in tails:
        return f"{edge}: a {kind} edge cannot start at a {tail.kind}"
    return f"{edge}: {tail.label()} is not a node of the design"


class _LabelKinds(dict):
    """Node label -> the node's (kind rank, index); a bad label is a
    ``ParseError``."""

    def __missing__(self, label: str) -> tuple[int, int]:
        node = parse_node_label(label)
        x = self[label] = (_KIND_ORDER[node.kind], node.index)
        return x


def _refuse_float(literal: str):
    raise ParseError(f"malformed code document: {literal} is not an integer")


def _coefficients(f: PrimeField, rows, booleans: bool) -> FieldMatrix:
    """``rows`` as a matrix over f.  JSON floats are refused while parsing,
    so numpy infers an integer dtype unless an entry is a string, an
    integer that does not fit int64 or, with only booleans beside it, a
    boolean.  A boolean among integers reads as 0 or 1, so when the
    document spells one (``booleans``) the entries' types are read."""
    a = np.asarray(rows)
    spelled = booleans and bool in set(map(type, np.asarray(rows, object).flat))
    if a.size and (a.dtype.kind != "i" or spelled):
        raise ValueError("matrix entries must be integers of magnitude below 2**63")
    return FieldMatrix(f, a)


def code_from_json(text: str) -> NetworkCode:
    try:
        data = json.loads(text, parse_float=_refuse_float, parse_constant=_refuse_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != "sumnet.code/1":
        raise ParseError("not a sumnet.code/1 document")
    try:
        f = PrimeField(data["p"])
        d = Design.from_dict(data["design"])
        raw_params = data["params"]
        params = CodeParams(m=raw_params["m"], n=raw_params["n"], regime=raw_params["regime"])
        if not (_is_integer(params.m) and _is_integer(params.n)):
            raise ValueError("params m and n must be integers")
        expected = code_params_for(d, f)
        booleans = "true" in text or "false" in text
        encoders = tuple(_coefficients(f, rows, booleans) for rows in data["encoders"])
        if not isinstance(data["decoders"], dict):
            raise ValueError("decoders must be an object keyed by terminal label")
        labels = _LabelKinds()
        parsed = {}
        for label, entry in data["decoders"].items():
            t = parse_node_label(label)
            rows = entry["in_edges"]
            tail, heads, kind = [], set(), []
            for x, h, k in rows:
                try:
                    tail.append(labels[x])
                    heads.add(labels[h])
                except TypeError:  # an unhashable label
                    parse_node_label(x)
                    parse_node_label(h)
                    raise
                # a kind the network does not know is numbered past the
                # known ones, where no in-edge fits it (``_FITS``)
                kind.append(_EDGE_CODES.get(k, len(_EDGE_KINDS)))
            parsed[t] = (rows, tail, heads, kind, _coefficients(f, entry["matrix"], booleans))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed code document: {exc}") from exc
    if params != expected:
        raise ParseError(
            f"code params m={params.m} n={params.n} regime={params.regime!r} differ from "
            f"m={expected.m} n={expected.n} regime={expected.regime!r} for this design over {f}"
        )
    # one decoder per terminal of the design, each of whose in-edges leads
    # into it from a node of the design that fits the edge's kind
    every = [NodeId(TERMINAL_POINT, i) for i in range(d.v)]
    every += [NodeId(TERMINAL_BLOCK, j) for j in range(d.b)]
    terminals, decoders = set(every), {}
    for t, (rows, tail, heads, kind, matrix) in parsed.items():
        if t not in terminals:
            raise ParseError(f"decoder at {t.label()}, which is not a terminal of the design")
        rank, index = np.array(tail, dtype=np.int64).reshape(-1, 2).T
        ids = _in_edge_ids(t, rank, index, kind)
        _, fits = _fitting(ids.rank, ids.index, ids.kind, d)
        own = (_KIND_ORDER[t.kind], t.index)
        if not (fits.all() and heads <= {own}):
            fits &= [labels[h] == own for _, h, _ in rows]
            raise ParseError(_bad_in_edge(t, rows[int(np.argmin(fits))]))
        decoders[t] = TerminalDecoder._from_ids(ids, matrix)
    if len(decoders) < d.v + d.b:
        missing = next(t for t in every if t not in decoders)
        raise ParseError(f"no decoder for {missing.label()}")
    m, n, width = params.m, params.n, stacked_width(d, params.m)
    for i, enc in enumerate(encoders):
        if enc.shape != (n, width):
            raise ParseError(
                f"encoder of bottleneck {i + 1} has shape {enc.shape}, expected {(n, width)}"
            )
    for t, dec in decoders.items():
        shape = (m, int(_in_edge_columns(dec._ids.kind, m, n)[0].sum()))
        if dec.matrix.shape != shape:
            raise ParseError(
                f"decoder at {t.label()} has shape {dec.matrix.shape}, expected {shape}"
            )
    return NetworkCode(design=d, field=f, params=params, encoders=encoders, decoders=decoders)
