"""Sum-network DAGs built from block designs.

Each point and each block of the design contributes one source and one
terminal; every point additionally contributes a unit-capacity bottleneck
edge whose tail collects the point's neighborhood and whose head fans it
back out.  All remaining source/terminal pairs are wired directly, so a
2-(v,k,1) design gives Θ((v+b)²) edges: 119,595 at STS(45).

Layout.  The nodes are numbered in ``NodeId.sort_key`` order, nodes of an
unknown kind after the known ones; for a network of exactly the design's
nodes this is the canonical numbering (``_canonical_nodes``) in which
the checks number decoders' in-edge tails.  The edges are three integer arrays
(tail id, head id, kind code) in construction order.  A CSR in-index lists
each node's in-edges by kind code, then tail id, which for a terminal is
the canonical order: head edges by bottleneck, then direct edges by
source.  A CSR out-index lists each node's out-edges by head id.  Every
accessor is a slice of one of them.  ``Edge`` objects are made afresh
each time a caller asks for them; the network keeps none.

``network_validate`` checks in passes over these arrays, not node by
node: every bottleneck's and every terminal's edges are counted at once,
Kahn's algorithm runs a level at a time (``_kahn_levels``) in the order
of a FIFO queue, and which sources reach a node is one OR per level over
64-bit words of source bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._jsonwriter import StringTable, _rows, dump, dumps
from .designs import Design, ParseError, ValidationReport, _load_json

SOURCE_POINT = "source-point"
SOURCE_BLOCK = "source-block"
BOTTLENECK_TAIL = "bottleneck-tail"
BOTTLENECK_HEAD = "bottleneck-head"
TERMINAL_POINT = "terminal-point"
TERMINAL_BLOCK = "terminal-block"

# node kinds in ``NodeId.sort_key`` order
_NODE_KINDS = (
    SOURCE_POINT, SOURCE_BLOCK, BOTTLENECK_TAIL, BOTTLENECK_HEAD, TERMINAL_POINT, TERMINAL_BLOCK
)
_KIND_ORDER = {kind: rank for rank, kind in enumerate(_NODE_KINDS)}

EDGE_BOTTLENECK = "bottleneck"
EDGE_SOURCE_TO_TAIL = "source-to-tail"
EDGE_HEAD_TO_TERMINAL = "head-to-terminal"
EDGE_DIRECT = "direct"

# edge kind codes; a network appends any other kind it is given after these
_EDGE_KINDS = (EDGE_BOTTLENECK, EDGE_SOURCE_TO_TAIL, EDGE_HEAD_TO_TERMINAL, EDGE_DIRECT)
_EDGE_CODES = {kind: code for code, kind in enumerate(_EDGE_KINDS)}
_BOTTLENECK, _SOURCE_TO_TAIL, _HEAD_TO_TERMINAL, _DIRECT = range(len(_EDGE_KINDS))


class NodeId(NamedTuple):
    kind: str
    index: int  # 0-based; label() renders it 1-based

    def label(self) -> str:
        return f"{self.kind}:{self.index + 1}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)


def _node_rank(node: NodeId) -> tuple:
    """``sort_key`` for the known kinds; nodes of other kinds after them."""
    order = _KIND_ORDER.get(node.kind)
    return (0, order, node.index) if order is not None else (1, node.kind, node.index)


@lru_cache(maxsize=16)
def _kind_offsets(v: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Per node kind rank, the canonical id of the kind's first node and
    the kind's node count in the network of a design with v points and b
    blocks; rank -1, an unknown kind, counts no node."""
    size = np.array((v, b, v, v, v, b, 0))
    return _frozen(np.cumsum(size) - size), _frozen(size)


@lru_cache(maxsize=16)
def _canonical_nodes(v: int, b: int) -> tuple[NodeId, ...]:
    """The nodes of the network of a design with v points and b blocks in
    ``NodeId.sort_key`` order: the canonical numbering of its nodes."""
    sizes = zip(_NODE_KINDS, _kind_offsets(v, b)[1].tolist())
    return tuple(NodeId(kind, i) for kind, size in sizes for i in range(size))


def parse_node_label(label: str) -> NodeId:
    try:
        kind, index = label.rsplit(":", 1)
        node = NodeId(kind, int(index) - 1)
    except (AttributeError, ValueError, TypeError) as exc:
        raise ParseError(f"bad node label {label!r}") from exc
    if node.kind not in _KIND_ORDER or node.index < 0:
        raise ParseError(f"bad node label {label!r}")
    return node


def _parse_document_label(label: str) -> NodeId:
    """``parse_node_label`` of a document's label, which must be canonical."""
    node = parse_node_label(label)
    if node.label() != label:
        raise ParseError(f"node label {label!r} is not spelled {node.label()!r}")
    return node


class Edge(NamedTuple):
    tail: NodeId
    head: NodeId
    kind: str


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _csr(keys: np.ndarray, groups: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, order): the edges sorted by ``keys`` (which sort by ``groups``
    first), and group x's edges at ``order[ptr[x]:ptr[x + 1]]``."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=size), out=ptr[1:])
    return _frozen(ptr), _frozen(np.argsort(keys, kind="stable"))


def _starts(counts) -> np.ndarray:
    """Per position of ``counts`` and one past the last, the sum of the
    counts before it: where each of groups of ``counts`` items starts, one
    after another, and where the last ends."""
    at = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=at[1:])
    return at


def _spans(ptr: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray]:
    """The positions ``ptr[x]:ptr[x + 1]`` of every group x in ``groups``,
    one after another, and where each group's start among them: group
    ``groups[g]``'s at ``positions[at[g]:at[g + 1]]``.  Groups with
    consecutive ids are one slice."""
    lo, hi = ptr[groups], ptr[groups + 1]
    at = _starts(hi - lo)
    if len(groups) and groups[-1] - groups[0] == len(groups) - 1 and (np.diff(groups) == 1).all():
        return slice(int(lo[0]), int(hi[-1])), at
    return np.repeat(lo - at[:-1], hi - lo) + np.arange(at[-1]), at


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys`` in increasing order, by ``np.sort``, which
    unlike ``np.unique`` does not load ``numpy.ma``."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


class EdgeList(Sequence):
    """``SumNetwork.edges``: the edges in construction order, compared like
    a tuple.  Its length is read off the arrays; the ``Edge`` objects are
    made on each access to an item."""

    __slots__ = ("_net",)

    def __init__(self, net: SumNetwork):
        self._net = net

    def __len__(self) -> int:
        return len(self._net._tail)

    def __getitem__(self, i):
        ids = range(len(self))[i]
        if isinstance(ids, range):
            return self._net._edges_at(np.arange(ids.start, ids.stop, ids.step))
        return self._net._edges_at(np.array([ids]))[0]

    def _all(self) -> tuple[Edge, ...]:
        return self._net._edges_at(np.arange(len(self)))

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeList):
            other = other._all()
        return self._all() == other

    __hash__ = None

    def __repr__(self) -> str:
        return f"EdgeList({len(self)} edges)"


class SumNetwork:
    """An immutable DAG with typed nodes and classified edges.

    ``SumNetwork(design, nodes, edges)`` accepts any node and edge lists,
    broken ones included, so that ``network_validate`` can report on them.
    """

    def __init__(self, design: Design, nodes: Iterable[NodeId], edges: Iterable[Edge]):
        nodes, edges = tuple(nodes), tuple(edges)
        table = sorted({*nodes, *(x for e in edges for x in (e.tail, e.head))}, key=_node_rank)
        ids = {node: i for i, node in enumerate(table)}
        codes = dict(_EDGE_CODES)
        for e in edges:
            codes.setdefault(e.kind, len(codes))
        self._setup(
            design,
            nodes,
            tuple(table),
            np.fromiter((ids[e.tail] for e in edges), np.int32, len(edges)),
            np.fromiter((ids[e.head] for e in edges), np.int32, len(edges)),
            np.fromiter((codes[e.kind] for e in edges), np.int16, len(edges)),
            tuple(codes),
        )

    @classmethod
    def _from_ids(
        cls,
        design: Design,
        nodes: tuple[NodeId, ...],
        table: tuple[NodeId, ...],
        tail: np.ndarray,
        head: np.ndarray,
        kind: np.ndarray,
    ) -> SumNetwork:
        """A network from edge arrays over ``table``, which must hold the
        listed nodes in ``_node_rank`` order, and the standard edge kinds."""
        net = cls.__new__(cls)
        net._setup(design, nodes, table, tail, head, kind, _EDGE_KINDS)
        return net

    def _setup(self, design, nodes, table, tail, head, kind, kinds) -> None:
        self.design = design
        self.nodes = nodes
        self._node_table = table
        self._ids = {node: i for i, node in enumerate(table)}
        self._tail = _frozen(tail.astype(np.int32, copy=False))
        self._head = _frozen(head.astype(np.int32, copy=False))
        self._kind = _frozen(kind.astype(np.min_scalar_type(len(kinds) - 1), copy=False))
        self._kinds = kinds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumNetwork):
            return NotImplemented
        return (
            self.design == other.design
            and self.nodes == other.nodes
            and self._node_table == other._node_table
            and self._kinds == other._kinds
            and np.array_equal(self._tail, other._tail)
            and np.array_equal(self._head, other._head)
            and np.array_equal(self._kind, other._kind)
        )

    def __repr__(self) -> str:
        return f"SumNetwork(v={self.design.v}, b={self.design.b}, edges={len(self._tail)})"

    @property
    def edges(self) -> EdgeList:
        return EdgeList(self)

    def _edges_at(self, ids: np.ndarray) -> tuple[Edge, ...]:
        """New ``Edge`` objects of the edge ids ``ids``."""
        table, kinds = self._node_table, self._kinds
        tails = map(table.__getitem__, self._tail[ids].tolist())
        heads = map(table.__getitem__, self._head[ids].tolist())
        kind = map(kinds.__getitem__, self._kind[ids].tolist())
        return tuple(map(tuple.__new__, repeat(Edge), zip(tails, heads, kind)))

    @cached_property
    def _in_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR by head; a node's in-edges by kind code, then tail id."""
        size, kinds = len(self._node_table), len(self._kinds)
        keys = (self._head.astype(np.int64) * kinds + self._kind) * size + self._tail
        return _csr(keys, self._head, size)

    @cached_property
    def _out_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR by tail; a node's out-edges by head id."""
        size = len(self._node_table)
        return _csr(self._tail.astype(np.int64) * size + self._head, self._tail, size)

    def _ids_of(
        self, nodes: Sequence[NodeId], index: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The edge ids of every node of ``nodes`` in ``index`` (the in-index
        or the out-index), one node after another, and where each node's
        start: ``nodes[g]``'s at ``ids[at[g]:at[g + 1]]``.  A node that is
        not in the network has none."""
        ptr, order = index
        size = len(self._node_table)
        x = np.fromiter((self._ids.get(node, size) for node in nodes), np.int64, len(nodes))
        spans, at = _spans(np.append(ptr, ptr[-1]), x)
        return order[spans], at

    def _in_ids(self, node: NodeId) -> np.ndarray:
        return self._ids_of((node,), self._in_index)[0]

    def sources(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n.kind in (SOURCE_POINT, SOURCE_BLOCK))

    def terminals(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n.kind in (TERMINAL_POINT, TERMINAL_BLOCK))

    def bottlenecks(self) -> tuple[Edge, ...]:
        """The v bottleneck edges in point order."""
        ids = np.flatnonzero(self._kind == _BOTTLENECK)
        _, index = self._node_kinds
        return self._edges_at(ids[np.argsort(index[self._tail[ids]], kind="stable")])

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        """In-edges of a node by kind (bottleneck, source-to-tail,
        head-to-terminal, direct), then by tail."""
        return self._edges_at(self._in_ids(node))

    def _terminal_in_ids(self, terminal: NodeId) -> np.ndarray:
        """The edge ids of a terminal's in-edges in canonical order: head
        edges by bottleneck index first, then direct edges by source order."""
        ids = self._in_ids(terminal)
        kind = self._kind[ids]
        return ids[(kind == _HEAD_TO_TERMINAL) | (kind == _DIRECT)]

    @cached_property
    def _node_kinds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per node id, the node's kind rank (``sort_key`` rank, -1 for an
        unknown kind) and its index."""
        table = self._node_table
        rank = np.fromiter((_KIND_ORDER.get(x.kind, -1) for x in table), np.int8, len(table))
        index = np.fromiter((x.index for x in table), np.int64, len(table))
        return _frozen(rank), _frozen(index)

    @cached_property
    def _canonical_ids(self) -> np.ndarray:
        """Per node id, the node's id in the design's canonical numbering
        (``_canonical_nodes``); -1 for a node that is not in the design."""
        rank, index = self._node_kinds
        first, size = _kind_offsets(self.design.v, self.design.b)
        return _frozen(np.where((0 <= index) & (index < size[rank]), first[rank] + index, -1))

    @cached_property
    def _has_parallel_edges(self) -> bool:
        """Whether two edges join the same tail to the same head."""
        _, order = self._out_index
        tail, head = self._tail[order], self._head[order]
        return bool(((tail[1:] == tail[:-1]) & (head[1:] == head[:-1])).any())


def _unwired(d: Design) -> np.ndarray:
    """(v+b) × (v+b) booleans over (terminal, source), points before
    blocks: the pairs that share no point, which no bottleneck joins."""
    v, b = d.v, d.b
    unwired = np.ones((v + b, v + b), dtype=bool)
    for point in sorted({*range(v), *(p for blk in d.blocks for p in blk)}):
        meet = [point] if 0 <= point < v else []
        meet += [v + j for j in d.blocks_through(point)]
        unwired[np.ix_(meet, meet)] = False
    return unwired


def build_sum_network(d: Design) -> SumNetwork:
    """Construct the sum-network of a design.

    For each point in turn: the point's and its blocks' sources into the
    bottleneck tail, the bottleneck, and the head out to the point's and
    its blocks' terminals.  Then, terminal by terminal, the direct edges
    from every source that shares no point with it, in source order.
    """
    v, b = d.v, d.b
    nodes = _canonical_nodes(v, b)
    tail_at, head_at, terminal_at = v + b, 2 * v + b, 3 * v + b

    # sources and terminals share a numbering: point i is i, block j is v + j
    tail, head, kind = [], [], []
    for i in range(v):
        near = [i, *(v + j for j in d.blocks_through(i))]
        tail += [*near, tail_at + i, *[head_at + i] * len(near)]
        head += [*[tail_at + i] * len(near), head_at + i, *(terminal_at + x for x in near)]
        kind += [_SOURCE_TO_TAIL] * len(near) + [_BOTTLENECK] + [_HEAD_TO_TERMINAL] * len(near)
    terminal, source = np.nonzero(_unwired(d))
    return SumNetwork._from_ids(
        d,
        nodes,
        nodes,
        np.concatenate((np.array(tail, dtype=np.int32), source)),
        np.concatenate((np.array(head, dtype=np.int32), terminal + terminal_at)),
        np.concatenate((np.array(kind, dtype=np.int8), np.full(len(source), _DIRECT, np.int8))),
    )


def _kahn_levels(n: SumNetwork) -> list[np.ndarray]:
    """Kahn's algorithm over node ids a level at a time: level 0 is the
    nodes without in-edges, by id; level L+1 the nodes released by level L,
    each when its last in-edge is, by the position of that edge's tail,
    then by id.  One after another the levels are the order of Kahn's
    algorithm with a FIFO queue, a node's heads released in id order;
    shorter than the node table on a cycle."""
    size = len(n._node_table)
    indegree = np.bincount(n._head, minlength=size)
    (out_ptr, out_order), (in_ptr, in_order) = n._out_index, n._in_index
    heads, tails = n._head[out_order], n._tail[in_order]
    position = np.zeros(size, dtype=np.int64)
    level, placed, levels = np.flatnonzero(indegree == 0), 0, []
    while level.size:
        levels.append(level)
        position[level] = np.arange(placed, placed + level.size)
        placed += level.size
        out = heads[_spans(out_ptr, level)[0]]
        # a head reached by parallel edges loses one in-edge per edge
        np.subtract.at(indegree, out, 1)
        released = _distinct(out[indegree[out] == 0])
        if not released.size:
            break
        # every tail of a released node is placed; its last is in this level
        spans, at = _spans(in_ptr, released)
        last = np.maximum.reduceat(position[tails[spans]], at[:-1])
        level = released[np.lexsort((released, last))]
    return levels


def _reaching(n: SumNetwork, sources: np.ndarray, levels: list[np.ndarray] | None) -> np.ndarray:
    """Per node id, the set of ``sources`` (node ids) with a path to it, as
    a column of 64-bit words: source s at bit s % 64 of word s // 64.  Given
    the levels of a DAG (``_kahn_levels``), one OR over the in-edges of each
    level settles it; otherwise (None) OR passes over every node with an
    in-edge repeat until nothing changes."""
    ptr, in_order = n._in_index
    tails = n._tail[in_order]
    bit = np.arange(len(sources))
    reach = np.zeros((len(sources) // 64 + 1, len(n._node_table)), dtype=np.uint64)
    reach[bit // 64, sources] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))

    def settle(nodes: np.ndarray) -> bool:
        """OR the sets of its tails into each of ``nodes``, which all have
        an in-edge, a word at a time; whether any set grew."""
        spans, at = _spans(ptr, nodes)
        fed, grew = tails[spans], False
        for word in reach:
            got = np.bitwise_or.reduceat(word[fed], at[:-1]) | word[nodes]
            grew |= not np.array_equal(got, word[nodes])
            word[nodes] = got
        return grew

    if levels is not None:
        for level in levels[1:]:
            settle(level)
    else:
        fed = np.flatnonzero(ptr[1:] > ptr[:-1])
        while settle(fed):
            pass
    return reach


def network_validate(n: SumNetwork) -> ValidationReport:
    """Check every structural invariant of a constructed sum-network."""
    report = ValidationReport()
    d = n.design
    v, b = d.v, d.b
    try:
        r = d.r
    except ValueError:
        report.add("design has no integral replication number")
        return report

    if len(n.nodes) != 2 * (v + b) + 2 * v:
        report.add(f"node count {len(n.nodes)}, expected {2 * (v + b) + 2 * v}")
    listed = set(n.nodes)
    if len(listed) != len(n.nodes):
        report.add("duplicate nodes")
    # the checks below order nodes by kind, which only the known kinds have
    table, ids = n._node_table, n._ids
    unknown = [x for x in table if x.kind not in _KIND_ORDER]
    for x in sorted(unknown):
        report.add(f"node {x.label()} has unknown kind {x.kind!r}")
    if unknown:
        return report
    size = len(table)
    in_degree = np.bincount(n._head, minlength=size)
    out_degree = np.bincount(n._tail, minlength=size)
    for x in np.flatnonzero(in_degree + out_degree).tolist():
        if table[x] not in listed:
            report.add(f"edge endpoint {table[x].label()} is not a listed node")
    if n._has_parallel_edges:
        report.add("parallel edges present")

    bottlenecks = n.bottlenecks()
    if len(bottlenecks) != v:
        report.add(f"{len(bottlenecks)} bottleneck edges, expected {v}")
    for e in bottlenecks:
        if e.tail.kind != BOTTLENECK_TAIL or e.head.kind != BOTTLENECK_HEAD:
            report.add(f"bad bottleneck endpoints {e}")
        elif e.tail.index != e.head.index:
            report.add(f"bottleneck tail/head index mismatch {e}")

    # bottleneck i's tail is fed by, and its head feeds, point i and the
    # blocks through it: the v + b neighbors of a source or a terminal by
    # canonical id, counted from the first; a slot past them for any other
    meets = [(i, *(v + j for j in d.blocks_through(i))) for i in range(v)]
    near = np.zeros((v, v + b + 1), dtype=bool)
    near[np.repeat(np.arange(v), [len(x) for x in meets]), [x for meet in meets for x in meet]] = True

    def reached(at: np.ndarray, ends: np.ndarray, kept: np.ndarray, first: int) -> np.ndarray:
        """Per bottleneck, the slots of the nodes ``ends`` at which its
        ``kept`` edges end, counted from canonical id ``first``; bottleneck
        i's edges are those at ``at[i]:at[i + 1]``."""
        slot = n._canonical_ids[ends[kept]] - first
        slot[(slot < 0) | (slot >= v + b)] = v + b
        got = np.zeros((v, v + b + 1), dtype=bool)
        got[np.repeat(np.arange(v), np.diff(at))[kept], slot] = True
        return got

    into, into_at = n._ids_of([NodeId(BOTTLENECK_TAIL, i) for i in range(v)], n._in_index)
    fed = (reached(into_at, n._tail[into], slice(None), 0) != near).any(axis=1)
    out, out_at = n._ids_of([NodeId(BOTTLENECK_HEAD, i) for i in range(v)], n._out_index)
    first = int(_kind_offsets(v, b)[0][_KIND_ORDER[TERMINAL_POINT]])
    to = n._kind[out] == _HEAD_TO_TERMINAL
    feeds = (reached(out_at, n._head[out], to, first) != near).any(axis=1)
    head_fed = np.append(in_degree, 0)[[ids.get(NodeId(BOTTLENECK_HEAD, i), size) for i in range(v)]]
    into_count, out_count = np.diff(into_at), np.diff(out_at)
    wrong = fed | feeds | (into_count != r + 1) | (out_count != r + 1) | (head_fed != 1)
    for i in np.flatnonzero(wrong).tolist():
        if fed[i]:
            tails = {table[x] for x in n._tail[into[into_at[i] : into_at[i + 1]]].tolist()}
            report.add(f"bottleneck tail {i + 1} fed by {sorted(x.label() for x in tails)}")
        if into_count[i] != r + 1:
            report.add(f"bottleneck tail {i + 1} in-degree != r+1")
        if feeds[i]:
            edges = out[out_at[i] : out_at[i + 1]]
            heads = {table[x] for x in n._head[edges[n._kind[edges] == _HEAD_TO_TERMINAL]].tolist()}
            report.add(f"bottleneck head {i + 1} feeds {sorted(x.label() for x in heads)}")
        if out_count[i] != r + 1:
            report.add(f"bottleneck head {i + 1} out-degree != r+1")
        if head_fed[i] != 1:
            report.add(f"bottleneck head {i + 1} in-degree != 1")

    m_edges = int(np.count_nonzero(n._kind != _DIRECT))
    if m_edges != v + 2 * v * (r + 1):
        report.add(f"|M| = {m_edges}, expected {v + 2 * v * (r + 1)}")

    sources, terminals = n.sources(), n.terminals()
    source_ids = np.fromiter(map(ids.__getitem__, sources), np.int64, len(sources))
    terminal_ids = np.fromiter(map(ids.__getitem__, terminals), np.int64, len(terminals))
    for x in np.flatnonzero(in_degree[source_ids]).tolist():
        report.add(f"source {sources[x].label()} has incoming edges")
    for x in np.flatnonzero(out_degree[terminal_ids]).tolist():
        report.add(f"terminal {terminals[x].label()} has outgoing edges")

    # per node id, and one past the last for a node not in the network:
    # its head and direct in-edges, and the tail of its last head in-edge
    def id_of(kind: str, count: int) -> np.ndarray:
        return np.fromiter((ids.get(NodeId(kind, i), size) for i in range(count)), np.int64, count)

    to_terminal = n._kind == _HEAD_TO_TERMINAL
    head_in = np.bincount(n._head[to_terminal], minlength=size + 1)
    direct_in = np.bincount(n._head[n._kind == _DIRECT], minlength=size + 1)
    head_tail = np.full(size + 1, -1, dtype=np.int64)
    head_tail[n._head[to_terminal]] = n._tail[to_terminal]
    at = id_of(TERMINAL_POINT, v)
    wrong = (head_in[at] != 1) | (head_tail[at] != id_of(BOTTLENECK_HEAD, v))
    direct, expect_direct = direct_in[at], (v - 1) + (b - r)
    for i in np.flatnonzero(wrong | (direct != expect_direct)).tolist():
        t = NodeId(TERMINAL_POINT, i)
        if wrong[i]:
            report.add(f"{t.label()} head edges wrong")
        if direct[i] != expect_direct:
            report.add(f"{t.label()} has {direct[i]} direct edges, expected {expect_direct}")
    at = id_of(TERMINAL_BLOCK, b)
    head, direct = head_in[at], direct_in[at]
    expect_direct = [(v - d.k) + (b - len(d.block_neighborhood(j))) for j in range(b)]
    for j in np.flatnonzero((head != d.k) | (direct != np.array(expect_direct, dtype=np.int64))).tolist():
        t = NodeId(TERMINAL_BLOCK, j)
        if head[j] != d.k:
            report.add(f"{t.label()} has {head[j]} head edges, expected {d.k}")
        if direct[j] != expect_direct[j]:
            report.add(f"{t.label()} has {direct[j]} direct edges, expected {expect_direct[j]}")

    levels = _kahn_levels(n)
    acyclic = sum(map(len, levels)) == size
    if not acyclic:
        report.add("graph is not acyclic")

    # every terminal must see every source through at least one path
    sources = _distinct(source_ids)
    reach = _reaching(n, sources, levels if acyclic else None)
    every = np.bitwise_or.reduce(reach[:, sources], axis=1)
    bit = np.arange(len(sources))
    for x in np.flatnonzero((reach[:, terminal_ids] != every[:, None]).any(axis=0)).tolist():
        seen = reach[bit // 64, terminal_ids[x]] >> (bit % 64).astype(np.uint64) & np.uint64(1)
        names = ", ".join(sorted(table[s].label() for s in sources[seen == 0].tolist()))
        report.add(f"terminal {terminals[x].label()} cannot reach sources: {names}")
    return report


_DOT_PREFIX = {
    SOURCE_POINT: "s_p",
    SOURCE_BLOCK: "s_B",
    BOTTLENECK_TAIL: "m_t",
    BOTTLENECK_HEAD: "m_h",
    TERMINAL_POINT: "t_p",
    TERMINAL_BLOCK: "t_B",
}


def _dot_name(node: NodeId) -> str:
    return f"{_DOT_PREFIX[node.kind]}{node.index + 1}"


def _dot_chunks(n: SumNetwork, terminals: Iterable[NodeId] | None) -> Iterator[str]:
    """The DOT text of ``network_export_dot`` in pieces: the header and
    node lines, then the edge lines in the chunks of ``_jsonwriter._rows``,
    then the closing brace.  Each edge line is three strings made once per
    node or kind: its tail, its head, and a line ending by kind."""
    table = n._node_table
    tail, head, kind = n._tail, n._head, n._kind
    if terminals is None:
        kept_nodes = list(n.nodes)
    else:
        kept_terminals = set(terminals)
        _, index = n._node_kinds
        # per edge: whether it leads into a kept terminal
        fed = np.fromiter((x in kept_terminals for x in table), bool, len(table))[head]
        kept_bottlenecks = set(index[tail[fed & (kind == _HEAD_TO_TERMINAL)]].tolist())
        # per node id: whether its index is a kept bottleneck's
        feeds = np.fromiter((i in kept_bottlenecks for i in index.tolist()), bool, len(table))
        kept = np.flatnonzero(
            ((kind == _BOTTLENECK) & feeds[tail])
            | ((kind == _SOURCE_TO_TAIL) & feeds[head])
            | (((kind == _HEAD_TO_TERMINAL) | (kind == _DIRECT)) & fed)
        )
        tail, head, kind = tail[kept], head[kept], kind[kept]
        kept_nodes = list(n.sources())
        kept_nodes += [NodeId(BOTTLENECK_TAIL, i) for i in sorted(kept_bottlenecks)]
        kept_nodes += [NodeId(BOTTLENECK_HEAD, i) for i in sorted(kept_bottlenecks)]
        kept_nodes += sorted(kept_terminals, key=lambda x: x.sort_key)
    names = [f'"{_dot_name(x)}"' for x in table]
    tails = [f"  {name} -> " for name in names]
    ends = [" [style=bold];\n" if k == EDGE_BOTTLENECK else ";\n" for k in n._kinds]
    yield "".join(["digraph sum_network {\n  rankdir=TB;\n", *(f'  "{_dot_name(x)}";\n' for x in kept_nodes)])
    yield from map("".join, _rows((tails, names, ends), (tail, head, kind)))
    yield "}\n"


def network_export_dot(n: SumNetwork, terminals: Iterable[NodeId] | None = None) -> str:
    """Render the network (or the subgraph feeding selected terminals) as DOT.

    Bottleneck edges carry ``style=bold``; everything else is plain.  With a
    terminal filter, the output keeps all sources, the filtered terminals,
    the bottlenecks feeding them, and only the edges incident to those.
    """
    return "".join(_dot_chunks(n, terminals))


def network_save_dot(n: SumNetwork, path, terminals: Iterable[NodeId] | None = None) -> None:
    """Write ``network_export_dot(n, terminals)`` to ``path`` as it is
    rendered, so the whole document is never held."""
    with open(path, "w", encoding="ascii") as fp:
        fp.writelines(_dot_chunks(n, terminals))


def _network_document(n: SumNetwork) -> dict:
    """The ``sumnet.network/1`` document, its edges a ``StringTable`` over
    the network's edge arrays."""
    # the edge rows index one list of strings: the node labels, then the kinds
    labels = [*(x.label() for x in n._node_table), *n._kinds]
    kind = np.add(n._kind, len(n._node_table), dtype=np.int32)
    return {
        "schema": "sumnet.network/1",
        "design": n.design.to_dict(),
        "nodes": [labels[n._ids[x]] for x in n.nodes],
        "edges": StringTable(labels, (n._tail, n._head, kind)),
    }


def network_export_json(n: SumNetwork) -> str:
    return dumps(_network_document(n)) + "\n"


def network_save(n: SumNetwork, path) -> None:
    """Write ``network_export_json(n)`` to ``path`` as it is rendered, so
    the whole document is never held."""
    with open(path, "w", encoding="ascii") as fp:
        dump(_network_document(n), fp)
        fp.write("\n")


class _ListedIds(dict):
    """Edge endpoint label -> the id of the listed node it names; an
    endpoint that names no listed node is a ``ParseError``."""

    def __init__(self, ids: dict[NodeId, int]):
        super().__init__()
        self._ids = ids

    def __missing__(self, label: str) -> int:
        x = self._ids.get(_parse_document_label(label))
        if x is None:
            raise ParseError(f"edge endpoint {label!r} is not a listed node")
        self[label] = x
        return x


def network_from_json(text: str) -> SumNetwork:
    data = _load_json(text)
    if not isinstance(data, dict) or data.get("schema") != "sumnet.network/1":
        raise ParseError("not a sumnet.network/1 document")
    design = Design.from_dict(data.get("design", {}))
    try:
        nodes = tuple(_parse_document_label(s) for s in data["nodes"])
        table = tuple(sorted(set(nodes), key=_node_rank))
        listed = _ListedIds({node: i for i, node in enumerate(table)})
        tail, head, kind = [], [], []
        for t, h, k in data["edges"]:
            code = _EDGE_CODES.get(k)
            if code is None:
                raise ParseError(f"bad edge kind {k!r}")
            tail.append(listed[t])
            head.append(listed[h])
            kind.append(code)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network document: {exc}") from exc
    return SumNetwork._from_ids(
        design, nodes, table, np.array(tail, np.int32), np.array(head, np.int32), np.array(kind, np.int8)
    )
