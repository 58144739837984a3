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

Codes are materialized as global maps: ``encoders[i]`` sends the stacked
source vector to the n symbols on bottleneck i, and each terminal decoder
maps the concatenation of its in-edge values to the m decoded symbols.
Relay edges carry their input unchanged and are not stored.  A decoder
holds its in-edges only as integer arrays, the tails' node kind ranks and
indexes and the edge kind codes, filled alike from ``Edge`` objects, the
network's in-index or a code document's labels; ``Edge`` objects are made
only when ``TerminalDecoder.in_edges`` is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ._jsonwriter import dumps
from .designs import Design, ParseError
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


@lru_cache(maxsize=16)
def _tail_limits(v: int, b: int) -> np.ndarray:
    """Per edge kind code and tail kind rank, how many nodes of that kind
    an in-edge of that kind may start at in the network of a design with v
    points and b blocks: all of a kind in ``_IN_EDGE_TAILS``, else none.  A
    code or rank of -1, an unknown kind, reads none."""
    _, size = _kind_offsets(v, b)
    limit = np.zeros((len(_EDGE_KINDS) + 1, len(size)), dtype=np.int64)
    for kind, tails in _IN_EDGE_TAILS.items():
        for tail in map(_KIND_ORDER.get, tails):
            limit[_EDGE_CODES[kind], tail] = size[tail]
    return _frozen(limit)


def _fitting(
    rank: np.ndarray, index: np.ndarray, kind: np.ndarray, d: Design
) -> tuple[np.ndarray, np.ndarray]:
    """Per in-edge, its tail's canonical id in d and whether it leads from a
    node of d that fits its kind: a head edge from a bottleneck head, a
    direct edge from a source.  The ids of in-edges that do not fit are
    meaningless."""
    first, _ = _kind_offsets(d.v, d.b)
    return first[rank] + index, (0 <= index) & (index < _tail_limits(d.v, d.b)[kind, rank])


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

    def _ids_at(self, terminal: NodeId, d: Design) -> tuple[np.ndarray, np.ndarray] | None:
        """The in-edges as (canonical tail id, kind code) arrays over d, or
        None unless every one leads into ``terminal`` from a node of d that
        fits its kind."""
        ids = self._ids
        if ids.terminal not in (terminal, None):
            return None
        tail, fits = _fitting(ids.rank, ids.index, ids.kind, d)
        return (tail, ids.kind) if fits.all() else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TerminalDecoder):
            return NotImplemented
        return self._matrix == other._matrix and self.in_edges == other.in_edges

    def __hash__(self) -> int:
        return hash(self._matrix)

    def __repr__(self) -> str:
        return f"TerminalDecoder({len(self._ids.kind)} in-edges, matrix {self._matrix.shape})"


@dataclass(frozen=True)
class NetworkCode:
    """A code as global maps.  The encoders and decoders are held read-only,
    so what is derived from them, ``interleaved_core``, is computed once."""

    design: Design
    field: PrimeField
    params: CodeParams
    encoders: tuple[FieldMatrix, ...]
    decoders: Mapping[NodeId, TerminalDecoder]

    def __post_init__(self):
        object.__setattr__(self, "encoders", tuple(self.encoders))
        object.__setattr__(self, "decoders", MappingProxyType(dict(self.decoders)))

    @cached_property
    def interleaved_core(self) -> tuple["NetworkCode", int]:
        """The code's (c, c+s) core and w when every encoder and decoder is
        its core map lifted by I_w, as ``build_code`` makes them; otherwise
        the code itself and w = 1.

        The test is exact and costs O(size): an entry changed in one copy
        only, or a coefficient between copies, makes the code its own core.
        """
        c, s, w = _core(self.design, self.params)
        if w == 1 or (self.params.m, self.params.n) != (c * w, (c + s) * w):
            return self, 1
        encoders = []
        for enc in self.encoders:
            core = _unlift(enc, w)
            if core is None:
                return self, 1
            encoders.append(core)
        decoders = {}
        for t, dec in self.decoders.items():
            core = _unlift(dec.matrix, w)
            if core is None:
                return self, 1
            decoders[t] = TerminalDecoder._from_ids(dec._ids, core)
        params = CodeParams(m=c, n=c + s, regime=self.params.regime)
        return NetworkCode(self.design, self.field, params, tuple(encoders), decoders), w


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


def _block_reader(
    layout: tuple[Slice, ...], j: int, points: list[int], width: int, c: int, n: int
) -> np.ndarray:
    """The core map reading block j's selector symbols off the head edges
    from bottlenecks ``points``, which lead an in-edge list ``width`` core
    symbols wide, into their colors' rows; direct edges read nothing."""
    start = {point: h * n for h, point in enumerate(points)}
    reader = np.zeros((c, width), dtype=np.int64)
    for sl in layout:
        if sl.block == j:
            reader[sl.color - 1, start[sl.point] + c + sl.rank - 1] = 1
    return reader


def _head_points(net: SumNetwork, ids: np.ndarray) -> list[int]:
    """The bottleneck of each head edge among the edge ids ``ids``."""
    heads = ids[net._kind[ids] == _HEAD_TO_TERMINAL]
    return [net._node_table[x].index for x in net._tail[heads].tolist()]


def _lift(f: PrimeField, core: np.ndarray, w: int) -> FieldMatrix:
    """The paper's layout of a core map, core (x) I_w: w interleaved copies,
    core entry (a, b) of copy u landing at (a*w + u, b*w + u)."""
    reduced = FieldMatrix(f, core).array
    lifted = np.zeros((reduced.shape[0] * w, reduced.shape[1] * w), dtype=np.int64)
    for u in range(w):
        lifted[u::w, u::w] = reduced
    return FieldMatrix._trusted(f, lifted)


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
    points = _head_points(net, ids)
    width = len(points) * (c + s) + (len(ids) - len(points)) * c
    layout = slice_layout(d) if s else ()
    return _lift(code.field, _block_reader(layout, j, points, width, c, c + s), w)


def build_code(net: SumNetwork, f: PrimeField) -> NetworkCode:
    """The paper's (m, n) code for the network's design over f.

    Bottleneck i stacks its partial sum over the selector slices of the
    blocks through point i.  Every terminal reads the partial sum off its
    head edges and adds its direct edges; a block terminal also subtracts
    its block source, reassembled from the selector slices, k-1 times.
    Every map is built for the (c, c+s) core of ``_core`` and lifted by I_w.
    Each decoder takes its in-edge arrays from the network's in-index.
    """
    d = net.design
    params = code_params_for(d, f)
    c, s, w = _core(d, params)
    n = c + s
    layout = slice_layout(d) if s else ()

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
        if t.kind == TERMINAL_BLOCK and layout:
            points = _head_points(net, ids)
            core = core - (d.k - 1) * _block_reader(layout, t.index, points, core.shape[1], c, n)
        tail = net._tail[ids]
        in_edges = _in_edge_ids(t, rank[tail], index[tail], kind)
        decoders[t] = TerminalDecoder._from_ids(in_edges, _lift(f, core, w))

    encoders = tuple(_lift(f, enc, w) for enc in encoders)
    return NetworkCode(design=d, field=f, params=params, encoders=encoders, decoders=decoders)


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


def code_to_json(code: NetworkCode) -> str:
    def in_edge_rows(dec: TerminalDecoder) -> list[list[str]]:
        terminal, rank, index, kind = dec._ids
        head = terminal.label() if terminal else None
        return [
            [f"{_NODE_KINDS[r]}:{x + 1}", head, _EDGE_KINDS[k]]
            for r, x, k in zip(rank.tolist(), index.tolist(), kind.tolist())
        ]

    data = {
        "schema": "sumnet.code/1",
        "p": code.field.p,
        "params": {"m": code.params.m, "n": code.params.n, "regime": code.params.regime},
        "design": code.design.to_dict(),
        "encoders": [enc.tolist() for enc in code.encoders],
        "decoders": {
            t.label(): {"in_edges": in_edge_rows(dec), "matrix": dec.matrix.tolist()}
            for t, dec in sorted(code.decoders.items(), key=lambda kv: kv[0].sort_key)
        },
    }
    return dumps(data) + "\n"


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
            tail, head, kind = [], [], []
            for x, h, k in rows:
                try:
                    tail.append(labels[x])
                    head.append(labels[h])
                except TypeError:  # an unhashable label
                    parse_node_label(x)
                    parse_node_label(h)
                    raise
                kind.append(_EDGE_CODES.get(k, -1))
            parsed[t] = (rows, tail, head, kind, _coefficients(f, entry["matrix"], booleans))
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
    terminals = set(every)
    decoders = {}
    for t, (rows, tail, head, kind, matrix) in parsed.items():
        if t not in terminals:
            raise ParseError(f"decoder at {t.label()}, which is not a terminal of the design")
        rank, index = np.array(tail, dtype=np.int64).reshape(-1, 2).T
        kind = np.array(kind, dtype=np.intp)
        _, fits = _fitting(rank, index, kind, d)
        head = np.array(head, dtype=np.int64).reshape(-1, 2)
        fits &= (head == (_KIND_ORDER[t.kind], t.index)).all(axis=1)
        if not fits.all():
            raise ParseError(_bad_in_edge(t, rows[int(np.argmin(fits))]))
        decoders[t] = TerminalDecoder._from_ids(_in_edge_ids(t, rank, index, kind), matrix)
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
        heads = int(np.count_nonzero(dec._ids.kind == _HEAD_TO_TERMINAL))
        shape = (m, heads * n + (len(dec._ids.kind) - heads) * m)
        if dec.matrix.shape != shape:
            raise ParseError(
                f"decoder at {t.label()} has shape {dec.matrix.shape}, expected {shape}"
            )
    return NetworkCode(design=d, field=f, params=params, encoders=encoders, decoders=decoders)
