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
``NetworkCode`` stores each bottleneck's local kernel, the core decoders
and w, and the decision that a code is w copies of a core is made here
alone.  ``build_code`` stores the core it builds; ``NetworkCode(...)``,
``code_load`` and ``code_from_json`` take the paper's (m, n) maps one at a
time, refuse those that do not fit the design, and keep their core when
every one is a lift, so a code read from a document never holds its
lifted maps at once.  ``code_load`` streams a document spelled as
``code_save`` spells it from its file a window at a time
(``designs._Window``), parsing every matrix's rows in bulk, and never
holds its text; any other document is read whole, once.
``encoders[i]`` (the map from the stacked source vector to the n symbols
on bottleneck i) and each decoder's ``matrix`` (from the concatenation of
its in-edge values to the m decoded symbols) are the lifted maps, built
on request.  The ``sumnet.code/1`` document spells out the lifted maps,
but ``code_to_json`` and ``code_save`` render each one from its core, row
by row, and lift none of them.  Relay edges carry their input unchanged
and are not stored.  A decoder holds its in-edges only as integer arrays,
the tails' node kind ranks and indexes and the edge kind codes, filled
alike from ``Edge`` objects, the network's in-index or a code document's
labels; ``Edge`` objects are made only when ``TerminalDecoder.in_edges``
is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sized

import numpy as np

from ._jsonwriter import LiftedMatrix, StringTable, dump, dumps
from .designs import (
    Design,
    InvalidDesignError,
    ParseError,
    ValidationReport,
    _is_integer,
    _load_json,
    _read_text,
    _Window,
)
from .field import FieldMatrix, PrimeField
from .network import (
    _DIRECT,
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
    _canonical_nodes,
    _frozen,
    _kind_offsets,
    _parse_document_label,
    _starts,
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


class ShapeMismatchError(ValueError):
    """A code does not fit its design, or the network it is checked on."""


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
        raise _unknown_kind(terminal)
    return _InEdgeIds(terminal, _frozen(rank), _frozen(np.asarray(index, np.int64)), _frozen(kind))


def _unknown_kind(terminal: NodeId) -> ValueError:
    return ValueError(
        f"decoder in-edges into {terminal.label()} hold a kind the network does not know"
    )


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
    per bottleneck i the (c+s) x |N(i)|c local kernel ``core_kernels[i]``
    over the sources wired into it in the design (``_kernel_columns``), the
    (c, c+s) maps ``core_decoders``, and the number w of interleaved copies
    of them that make the (m, n) code.

    ``NetworkCode(design, field, params, encoders, decoders)`` takes the
    paper's (m, n) maps and is the one place a code's own invariants are
    checked: it refuses with ``ShapeMismatchError`` an encoder count other
    than v, a map whose shape does not fit m, n and its in-edge kinds, and
    an encoder coefficient on a source not wired into its bottleneck.  It
    reads the maps one at a time, encoders then decoders (a mapping or
    (terminal, decoder) pairs), and keeps only each one's core while every
    map so far is its core map lifted by I_w, as ``build_code`` makes
    them.  At the first map that is no such lift it lifts the cores kept
    back, which is exact, and holds the maps as given with w = 1.  The
    test is exact and costs O(size): an entry changed in one copy only, or
    a coefficient between copies, makes the code its own core.  Encoders
    are counted before any is read; an ``encoders`` without a length is
    gathered first.
    ``encoders`` and ``decoders`` give the (m, n) maps back, built on
    request.  The held form is decided by the (m, n) maps alone, so two
    codes are equal when their (m, n) maps are.  A code holds its maps
    only: its decoders' in-edges are numbered over the design where a
    network is checked against it (``verify``).
    """

    __slots__ = ("design", "field", "params", "w", "core_kernels", "core_decoders")

    def __init__(
        self,
        design: Design,
        field: PrimeField,
        params: CodeParams,
        encoders: Iterable[FieldMatrix],
        decoders: Mapping[NodeId, TerminalDecoder] | Iterable[tuple[NodeId, TerminalDecoder]],
    ):
        m, n, width = params.m, params.n, stacked_width(design, params.m)
        if not isinstance(encoders, Sized):
            encoders = tuple(encoders)
        if len(encoders) != design.v:
            raise ShapeMismatchError(f"{len(encoders)} encoders for {design.v} bottlenecks")
        c, s, w = _core(design, params)
        if (m, n) != (c * w, (c + s) * w):
            w = 1
        kernels: list[FieldMatrix] = []
        held: dict[NodeId, TerminalDecoder] = {}

        def core_of(mat: FieldMatrix) -> FieldMatrix:
            """The core of a map that is a lift by I_w; at the first map
            that is none, every core kept so far is lifted back and the code
            is held as given, at w = 1."""
            nonlocal w
            if w == 1:
                return mat
            core = _unlift(mat, w)
            if core is not None:
                return core
            kernels[:] = [_lift(k, w) for k in kernels]
            for t, dec in held.items():
                held[t] = TerminalDecoder._from_ids(dec._ids, _lift(dec.matrix, w))
            w = 1
            return mat

        for i, enc in enumerate(encoders):
            if enc.shape != (n, width):
                raise ShapeMismatchError(
                    f"encoder of bottleneck {i + 1} has shape {enc.shape}, expected {(n, width)}"
                )
            columns = _kernel_columns(design, i, m)
            unwired = enc.array.any(axis=0)
            unwired[columns] = False
            if unwired.any():
                source, _ = column_source(design, int(np.argmax(unwired)), m)
                raise ShapeMismatchError(
                    f"bottleneck {i + 1} reads {source.label()}, which is not wired into it"
                )
            # a map nonzero only at its kernel columns is a lift exactly
            # when its kernel is
            kernels.append(core_of(FieldMatrix._trusted(field, enc.array[:, columns])))
        for t, dec in decoders.items() if isinstance(decoders, Mapping) else decoders:
            shape = (m, int(_in_edge_columns(dec._ids.kind, m, n)[0].sum()))
            if dec.matrix.shape != shape:
                raise ShapeMismatchError(
                    f"decoder at {t.label()} has shape {dec.matrix.shape}, expected {shape}"
                )
            held[t] = TerminalDecoder._from_ids(dec._ids, core_of(dec.matrix))
        self._hold(design, field, params, kernels, held, w)

    @classmethod
    def _from_core(cls, design, field, params, kernels, decoders, w: int) -> NetworkCode:
        """The (m, n) code ``params`` that is w copies of the given core."""
        code = cls.__new__(cls)
        code._hold(design, field, params, kernels, decoders, w)
        return code

    def _hold(self, design, field, params, kernels, decoders, w) -> None:
        self.design, self.field, self.params, self.w = design, field, params, w
        self.core_kernels = tuple(kernels)
        self.core_decoders = MappingProxyType(dict(decoders))

    @property
    def core_params(self) -> CodeParams:
        """The block lengths of one copy: (c, c+s), or (m, n) at w = 1."""
        return CodeParams(self.params.m // self.w, self.params.n // self.w, self.params.regime)

    def _core_encoder(self, i: int) -> FieldMatrix:
        """Bottleneck i's core map from the whole stacked source vector: its
        kernel at its columns, zeros elsewhere."""
        (c, n), d = self.core_params.rate, self.design
        enc = np.zeros((n, stacked_width(d, c)), dtype=np.int64)
        enc[:, _kernel_columns(d, i, c)] = self.core_kernels[i].array
        return FieldMatrix._trusted(self.field, enc)

    @property
    def encoders(self) -> tuple[FieldMatrix, ...]:
        """The (m, n) encoders, built on request."""
        return tuple(_lift(self._core_encoder(i), self.w) for i in range(self.design.v))

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
        mine = (self.design, self.field, self.params, self.w, self.core_kernels, self.core_decoders)
        theirs = (other.design, other.field, other.params, other.w, other.core_kernels, other.core_decoders)
        return mine == theirs


def stacked_width(d: Design, m: int) -> int:
    """Width of the stacked source vector: one m-block per source."""
    return (d.v + d.b) * m


def _kernel_columns(d: Design, i: int, m: int) -> np.ndarray:
    """The stacked columns of bottleneck i's kernel, m per source wired into
    it in the design: point i's own source, then the source of every block
    through point i in increasing order.  At m = 1 they are the sources'
    indexes in the stacked layout."""
    ids = np.array([i, *(d.v + j for j in d.blocks_through(i))], dtype=np.int64)
    return (ids[:, None] * m + np.arange(m)).ravel()


def column_source(d: Design, col: int, m: int) -> tuple[NodeId, int]:
    """The source whose block holds stacked column ``col`` (points first,
    then blocks, each of width m), and the column's offset inside that
    block."""
    src, offset = divmod(col, m)
    if src < d.v:
        return NodeId(SOURCE_POINT, src), offset
    return NodeId(SOURCE_BLOCK, src - d.v), offset


def sum_map(d: Design, m: int, f: PrimeField) -> FieldMatrix:
    """The map sending stacked sources to their sum: [I I ... I]."""
    return FieldMatrix(f, np.tile(np.eye(m, dtype=np.int64), (1, d.v + d.b)))


def partial_sum_row(d: Design, point: int, m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map computing a point's partial sum: the point's own
    source plus every block source whose block contains the point."""
    columns = _kernel_columns(d, point, m)
    mat = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    mat[columns % m, columns] = 1
    return FieldMatrix._trusted(f, mat)


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

    Both dimensions of ``mat`` are multiples of w.  Every copy's diagonal
    block ``mat[u::w, u::w]`` must equal the core ``mat[::w, ::w]``.  The
    copies then hold w * nnz(core) nonzeros, so a nonzero count of exactly
    that leaves none between copies.
    """
    a = mat.array
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
    Every map is built for the (c, c+s) core of ``_core``, each encoder as
    its bottleneck's kernel, and the code is held as that core and w;
    nothing is lifted.  The decoders take their in-edge arrays from one
    pass over the network's in-index, each a slice of them, and decoders
    of one shape that need no correction hold one matrix.
    """
    d = net.design
    params = code_params_for(d, f)
    c, s, w = _core(d, params)
    n = c + s
    layout = slice_layout(d) if s else ()
    by_block: dict[int, list[Slice]] = {}
    for sl in layout:
        by_block.setdefault(sl.block, []).append(sl)

    # bottleneck i's kernel: [I_c ... I_c] over its sources on the top c
    # rows, the partial sum; block j at rank q is its kernel's source q
    kernels = [np.tile(np.eye(n, c, dtype=np.int64), 1 + len(d.blocks_through(i))) for i in range(d.v)]
    for sl in layout:
        kernels[sl.point][c + sl.rank - 1, sl.rank * c + sl.color - 1] = 1

    # every terminal's head and direct in-edges, numbered at once
    terminals = net.terminals()
    into, at = net._ids_of(terminals, net._in_index)
    kind = net._kind[into]
    kept = (kind == _HEAD_TO_TERMINAL) | (kind == _DIRECT)
    if not kept.all():
        into, kind, at = into[kept], kind[kept], _starts(kept)[at]
    rank, index = net._node_kinds
    tail = net._tail[into]
    rank, index, kind = rank[tail].astype(np.intp), index[tail], kind.astype(np.intp)
    del tail
    for x in (rank, index, kind):
        _frozen(x)
    # per terminal: its head edges, which lead the order, and its in-edges
    # from a node of a kind the network does not know
    heads = np.diff(_starts(kind == _HEAD_TO_TERMINAL)[at]).tolist()
    unknown = np.diff(_starts(rank < 0)[at]).tolist()
    # [I_c | 0] per head edge, I_c per direct edge: built once per shape,
    # and held by every decoder of that shape that needs no correction
    head_read, direct_read = np.eye(c, n, dtype=np.int64), np.eye(c, dtype=np.int64)
    reads: dict[tuple[int, int], FieldMatrix] = {}
    decoders: dict[NodeId, TerminalDecoder] = {}
    for x, t in enumerate(terminals):
        lo, hi = int(at[x]), int(at[x + 1])
        shape = (heads[x], hi - lo - heads[x])
        if shape not in reads:
            read = np.hstack((np.tile(head_read, shape[0]), np.tile(direct_read, shape[1])))
            reads[shape] = FieldMatrix(f, read)
        core = reads[shape]
        if t.kind == TERMINAL_BLOCK and s:
            points = _head_points(net, into[lo:hi])
            reader = _block_reader(by_block[t.index], points, core.cols, c, n)
            core = FieldMatrix(f, core.array - (d.k - 1) * reader)
        if unknown[x]:
            raise _unknown_kind(t)
        in_edges = _InEdgeIds(t, rank[lo:hi], index[lo:hi], kind[lo:hi])
        decoders[t] = TerminalDecoder._from_ids(in_edges, core)

    kernels = tuple(FieldMatrix._trusted(f, kernel) for kernel in kernels)
    return NetworkCode._from_core(d, f, params, kernels, decoders, w)


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

    # the rows of every decoder's in-edges index one list of strings, the
    # labels of the design's nodes, each made once, then the edge kinds; a
    # decoder with a node outside the design lists its own labels
    d = code.design
    nodes = _canonical_nodes(d.v, d.b)
    labels = [*(x.label() for x in nodes), *_EDGE_KINDS]
    first, size = _kind_offsets(d.v, d.b)

    def in_edge_table(dec: TerminalDecoder) -> StringTable:
        terminal, rank, index, kind = dec._ids
        edges = len(kind)
        own = (_KIND_ORDER.get(terminal.kind, -1), terminal.index) if terminal else (-1, 0)
        if ((0 <= index) & (index < size[rank])).all() and 0 <= own[1] < size[own[0]]:
            tails, head, strings = first[rank] + index, first[own[0]] + own[1], labels
        else:  # the tails' labels, the terminal's (if any), the kinds
            strings = [f"{_NODE_KINDS[r]}:{x + 1}" for r, x in zip(rank.tolist(), index.tolist())]
            strings += [terminal.label() if terminal else "", *_EDGE_KINDS]
            tails, head = np.arange(edges), edges
        kinds = kind + (len(strings) - len(_EDGE_KINDS))
        return StringTable(strings, (tails, np.full(edges, head), kinds))

    w = code.w
    return {
        "schema": "sumnet.code/1",
        "p": code.field.p,
        "params": {"m": code.params.m, "n": code.params.n, "regime": code.params.regime},
        "design": code.design.to_dict(),
        "encoders": [LiftedMatrix(code._core_encoder(i).array, w) for i in range(code.design.v)],
        "decoders": {
            t.label(): {"in_edges": in_edge_table(dec), "matrix": LiftedMatrix(dec.matrix.array, w)}
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
        node = _parse_document_label(label)
        x = self[label] = (_KIND_ORDER[node.kind], node.index)
        return x


def _refuse_float(literal: str):
    raise ParseError(f"malformed code document: {literal} is not an integer")


# the hooks of every parse of a code document
_HOOKS = {"parse_float": _refuse_float, "parse_constant": _refuse_float}


def _held(rows) -> np.ndarray | ParseError:
    """A matrix of a code document as held until p is known: ``rows`` as an
    array of the smallest integer dtype of its entries, or the
    ``ParseError`` that refuses them.  JSON floats are refused while
    parsing, so numpy infers an integer dtype unless an entry is a string,
    an integer that does not fit int64 or, with only booleans beside it, a
    boolean; a boolean among integers reads as 0 or 1, so the entries'
    types are read."""
    try:
        a = np.asarray(rows)
        if a.size and (a.dtype.kind != "i" or bool in set(map(type, np.asarray(rows, object).flat))):
            raise ValueError("matrix entries must be integers of magnitude below 2**63")
    except (TypeError, ValueError) as exc:
        refused = ParseError(f"malformed code document: {exc}")
        refused.__cause__ = exc
        return refused
    return _smallest(a) if a.size else a


def _smallest(a: np.ndarray) -> np.ndarray:
    """A non-empty integer array as the smallest integer dtype of its
    entries."""
    return a.astype(np.result_type(np.min_scalar_type(a.min()), np.min_scalar_type(a.max())), copy=False)


class _Maps:
    """The held matrices of a code document (``_held``), each made a matrix
    over f, or its refusal raised, when it is read, and dropped first.  Its
    length is known before any matrix is read."""

    def __init__(self, f: PrimeField, held: list):
        self._f, self._held = f, held

    def __len__(self) -> int:
        return len(self._held)

    def __iter__(self) -> Iterator[FieldMatrix]:
        for x in range(len(self._held)):
            held, self._held[x] = self._held[x], None
            yield _field_matrix(self._f, held)


def _field_matrix(f: PrimeField, held: np.ndarray | ParseError) -> FieldMatrix:
    """A held matrix over f, or the ``ParseError`` that refuses it."""
    if isinstance(held, ParseError):
        raise held
    try:
        return FieldMatrix(f, held)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed code document: {exc}") from exc


def _decoder_entry(label: str, entry, labels: _LabelKinds) -> tuple:
    """A decoder entry of a code document: its terminal, its in-edge rows
    with their tails' (kind rank, index), their heads and their edge kind
    codes, and its held matrix."""
    t = _parse_document_label(label)
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
        # a kind the network does not know is numbered past the known ones,
        # where no in-edge fits it (``_FITS``)
        kind.append(_EDGE_CODES.get(k, len(_EDGE_KINDS)))
    return t, (rows, tail, heads, kind), entry["matrix"]


def _streamed(window: _Window):
    """The value of a code document spelled as ``code_save`` spells it, read
    through ``window``: each matrix, of an encoder or a decoder entry, is
    read in bulk (``_Window.rows``), a window's run of rows at a time, and
    held as its last row is read; every other value is decoded whole.  Any
    other spelling (a matrix row spelled otherwise, an empty or ragged
    matrix, a value of another type where ``code_save`` writes an array or
    an object) or any fault raises a ``ValueError``."""

    def rows():
        found = window.rows()
        if found is None:
            raise ValueError("matrix rows not spelled as code_save spells them")
        return _smallest(found)

    def matrix():
        # the runs' entries are non-negative, so their join has the
        # smallest dtype of the whole
        found = window.items(rows)
        if len({x.shape[1] for x in found}) != 1:
            raise ValueError("an empty or ragged matrix")
        return np.concatenate(found)

    def entry_member(key: str):
        return matrix() if key == "matrix" else window.value()

    def member(key: str):
        if key == "encoders":
            return window.items(matrix)
        if key == "decoders":
            return window.members(lambda label: window.members(entry_member))
        return window.value()

    return window.document(lambda: window.members(member))


def _whole(text: str):
    """The value of a code document decoded whole from its text, its
    matrices held (``_held``) as ``_streamed`` holds them: what ``_code``'s
    ``list()`` reads of ``encoders``, and each decoder entry's ``matrix``."""
    data = _load_json(text, **_HOOKS)
    if isinstance(data, dict):
        if isinstance(data.get("encoders"), (list, str, dict)):
            data["encoders"] = [_held(x) for x in data["encoders"]]
        if isinstance(data.get("decoders"), dict):
            for entry in data["decoders"].values():
                if isinstance(entry, dict) and "matrix" in entry:
                    entry["matrix"] = _held(entry["matrix"])
    return data


def _read(window: _Window, text) -> NetworkCode:
    """The code of a document: streamed through ``window`` when it is
    spelled as ``code_save`` spells it (``_streamed``), else read whole from
    ``text()``, once (``_whole``), which refuses a fault of its JSON or its
    UTF-8 as ``_load_json`` does."""
    try:
        data = _streamed(window)
    except ValueError:  # spelled otherwise, or at fault
        data = None  # the stream's held matrices go before the text is read
    return _code(_whole(text()) if data is None else data)


def code_load(path) -> NetworkCode:
    """The code of the ``sumnet.code/1`` document at ``path``.  A document
    spelled as ``code_save`` spells it is read ``_READ_BYTES`` at a time,
    its text never held whole; its matrix rows, non-negative integers of at
    most 18 digits without a leading zero, are parsed by numpy a window's
    run at a time, and each matrix is held as its smallest integer array
    until the maps are made, one at a time, and only their core is kept.
    Any other document, respelled or at fault, is read whole, once
    (``_whole``), at O(size) memory."""
    with open(path, "rb") as fp:
        return _read(_Window(fp, **_HOOKS), lambda: _read_text(path))


def code_from_json(text: str) -> NetworkCode:
    """The code of a ``sumnet.code/1`` document, read as ``code_load``
    reads a file."""
    return _read(_Window(text, **_HOOKS), lambda: text)


def _code(data) -> NetworkCode:
    """The code of a code document's value, whose matrices are held
    (``_held``)."""
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
        encoders = list(data.pop("encoders"))
        if not isinstance(data["decoders"], dict):
            raise ValueError("decoders must be an object keyed by terminal label")
        labels = _LabelKinds()
        parsed = [_decoder_entry(label, entry, labels) for label, entry in data["decoders"].items()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed code document: {exc}") from exc
    del data  # the held matrices alone outlive the document's values
    matrices = [matrix for _, _, matrix in parsed]
    in_edges = [(t, edges) for t, edges, _ in parsed]
    del parsed
    if params != expected:
        raise ParseError(
            f"code params m={params.m} n={params.n} regime={params.regime!r} differ from "
            f"m={expected.m} n={expected.n} regime={expected.regime!r} for this design over {f}"
        )
    # one decoder per terminal of the design, each of whose in-edges leads
    # into it from a node of the design that fits the edge's kind
    every = [NodeId(TERMINAL_POINT, i) for i in range(d.v)]
    every += [NodeId(TERMINAL_BLOCK, j) for j in range(d.b)]
    terminals, numbered = set(every), {}
    for t, (rows, tail, heads, kind) in in_edges:
        if t not in terminals:
            raise ParseError(f"decoder at {t.label()}, which is not a terminal of the design")
        rank, index = np.array(tail, dtype=np.int64).reshape(-1, 2).T
        ids = _in_edge_ids(t, rank, index, kind)
        _, fits = _fitting(ids.rank, ids.index, ids.kind, d)
        own = (_KIND_ORDER[t.kind], t.index)
        if not (fits.all() and heads <= {own}):
            fits &= [labels[h] == own for _, h, _ in rows]
            raise ParseError(_bad_in_edge(t, rows[int(np.argmin(fits))]))
        numbered[t] = ids
    if len(numbered) < d.v + d.b:
        missing = next(t for t in every if t not in numbered)
        raise ParseError(f"no decoder for {missing.label()}")
    decoders = (
        (t, TerminalDecoder._from_ids(ids, matrix))
        for (t, ids), matrix in zip(numbered.items(), _Maps(f, matrices))
    )
    try:
        return NetworkCode(d, f, params, _Maps(f, encoders), decoders)
    except ShapeMismatchError as exc:
        raise ParseError(str(exc)) from exc
