"""Sum-network DAGs built from block designs.

Each point and each block of the design contributes one source and one
terminal; every point additionally contributes a unit-capacity bottleneck
edge whose tail collects the point's neighborhood and whose head fans it
back out.  All remaining source/terminal pairs are wired directly.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from operator import attrgetter
from typing import Iterable, NamedTuple

from ._jsonwriter import dumps
from .designs import Design, InvalidDesignError, ParseError, ValidationReport

SOURCE_POINT = "source-point"
SOURCE_BLOCK = "source-block"
BOTTLENECK_TAIL = "bottleneck-tail"
BOTTLENECK_HEAD = "bottleneck-head"
TERMINAL_POINT = "terminal-point"
TERMINAL_BLOCK = "terminal-block"

_KIND_ORDER = {
    SOURCE_POINT: 0,
    SOURCE_BLOCK: 1,
    BOTTLENECK_TAIL: 2,
    BOTTLENECK_HEAD: 3,
    TERMINAL_POINT: 4,
    TERMINAL_BLOCK: 5,
}

EDGE_BOTTLENECK = "bottleneck"
EDGE_SOURCE_TO_TAIL = "source-to-tail"
EDGE_HEAD_TO_TERMINAL = "head-to-terminal"
EDGE_DIRECT = "direct"

_TAIL = attrgetter("tail")
_TAIL_INDEX = attrgetter("tail.index")
_TAIL_SORT_KEY = attrgetter("tail.sort_key")
_SORT_KEY = attrgetter("sort_key")


class NodeId(NamedTuple):
    kind: str
    index: int  # 0-based; label() renders it 1-based

    def label(self) -> str:
        return f"{self.kind}:{self.index + 1}"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)


def parse_node_label(label: str) -> NodeId:
    try:
        kind, index = label.rsplit(":", 1)
        node = NodeId(kind, int(index) - 1)
    except (AttributeError, ValueError, TypeError) as exc:
        raise ParseError(f"bad node label {label!r}") from exc
    if node.kind not in _KIND_ORDER or node.index < 0:
        raise ParseError(f"bad node label {label!r}")
    return node


class Edge(NamedTuple):
    tail: NodeId
    head: NodeId
    kind: str


class SumNetwork:
    """An immutable DAG with typed nodes and classified edges."""

    def __init__(self, design: Design, nodes: Iterable[NodeId], edges: Iterable[Edge]):
        self.design = design
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        into: dict[NodeId, list[Edge]] = defaultdict(list)
        out_of: dict[NodeId, list[Edge]] = defaultdict(list)
        for e in self.edges:
            into[e.head].append(e)
            out_of[e.tail].append(e)
        # keyed by edge endpoints only, so lookups never add a node
        self._in = dict(into)
        self._out = dict(out_of)
        self._terminal_in: dict[NodeId, tuple[Edge, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumNetwork):
            return NotImplemented
        return (
            self.design == other.design
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"SumNetwork(v={self.design.v}, b={self.design.b}, edges={len(self.edges)})"

    def sources(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n.kind in (SOURCE_POINT, SOURCE_BLOCK))

    def terminals(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if n.kind in (TERMINAL_POINT, TERMINAL_BLOCK))

    def bottlenecks(self) -> tuple[Edge, ...]:
        """The v bottleneck edges in point order."""
        found = sorted(
            (e for e in self.edges if e.kind == EDGE_BOTTLENECK), key=lambda e: e.tail.index
        )
        return tuple(found)

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        return tuple(self._in.get(node, ()))

    def out_edges(self, node: NodeId) -> tuple[Edge, ...]:
        return tuple(self._out.get(node, ()))

    def terminal_in_edges(self, terminal: NodeId) -> tuple[Edge, ...]:
        """In-edges of a terminal in canonical order: head edges by
        bottleneck index first, then direct edges by source order.  The
        order is computed once per terminal; later calls return the same
        tuple."""
        order = self._terminal_in.get(terminal)
        if order is None:
            in_edges = self._in.get(terminal, ())
            head = sorted(
                (e for e in in_edges if e.kind == EDGE_HEAD_TO_TERMINAL), key=_TAIL_INDEX
            )
            direct = sorted((e for e in in_edges if e.kind == EDGE_DIRECT), key=_TAIL_SORT_KEY)
            order = self._terminal_in[terminal] = (*head, *direct)
        return order

    def tail_in_edges(self, i: int) -> tuple[Edge, ...]:
        """In-edges of bottleneck tail i, point source first then blocks."""
        return tuple(sorted(self._in.get(NodeId(BOTTLENECK_TAIL, i), ()), key=_TAIL_SORT_KEY))

    def _has_parallel_edges(self) -> bool:
        """Whether two edges join the same tail to the same head."""
        return any(len(set(map(_TAIL, es))) != len(es) for es in self._in.values())


def build_sum_network(d: Design) -> SumNetwork:
    """Construct the sum-network of a design.

    Each node is built once; every edge refers to the node objects listed
    in ``nodes``.
    """
    v, b = d.v, d.b
    sp = [NodeId(SOURCE_POINT, i) for i in range(v)]
    sB = [NodeId(SOURCE_BLOCK, j) for j in range(b)]
    mt = [NodeId(BOTTLENECK_TAIL, i) for i in range(v)]
    mh = [NodeId(BOTTLENECK_HEAD, i) for i in range(v)]
    tp = [NodeId(TERMINAL_POINT, i) for i in range(v)]
    tB = [NodeId(TERMINAL_BLOCK, j) for j in range(b)]
    nodes = sp + sB + mt + mh + tp + tB

    edges: list[Edge] = []
    for i in range(v):
        through = d.blocks_through(i)
        edges.append(Edge(sp[i], mt[i], EDGE_SOURCE_TO_TAIL))
        edges += [Edge(sB[j], mt[i], EDGE_SOURCE_TO_TAIL) for j in through]
        edges.append(Edge(mt[i], mh[i], EDGE_BOTTLENECK))
        edges.append(Edge(mh[i], tp[i], EDGE_HEAD_TO_TERMINAL))
        edges += [Edge(mh[i], tB[j], EDGE_HEAD_TO_TERMINAL) for j in through]
    for i, t in enumerate(tp):
        through = set(d.blocks_through(i))
        edges += [Edge(s, t, EDGE_DIRECT) for l, s in enumerate(sp) if l != i]
        edges += [Edge(s, t, EDGE_DIRECT) for l, s in enumerate(sB) if l not in through]
    for j, t in enumerate(tB):
        members = set(d.blocks[j])
        neighborhood = set(d.block_neighborhood(j))
        edges += [Edge(s, t, EDGE_DIRECT) for l, s in enumerate(sp) if l not in members]
        edges += [Edge(s, t, EDGE_DIRECT) for l, s in enumerate(sB) if l not in neighborhood]

    net = SumNetwork(d, nodes, edges)
    # unit-capacity simple edges: the construction must never repeat one
    if net._has_parallel_edges():
        raise InvalidDesignError(ValidationReport(["network construction repeats an edge"]))
    return net


def topological_order(n: SumNetwork) -> list[NodeId]:
    """Kahn's algorithm over the distinct nodes of the graph (the listed
    nodes and every edge endpoint), ties broken by ``NodeId.sort_key``;
    raises on a cycle."""
    ranked = sorted({*n.nodes, *n._in, *n._out}, key=_SORT_KEY)
    rank = {node: r for r, node in enumerate(ranked)}
    indegree = {node: len(n._in.get(node, ())) for node in ranked}
    ready = deque(node for node in ranked if indegree[node] == 0)
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for head in sorted([e.head for e in n._out.get(node, ())], key=rank.__getitem__):
            indegree[head] -= 1
            if indegree[head] == 0:
                ready.append(head)
    if len(order) != len(ranked):
        raise ValueError("network contains a cycle")
    return order


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
    unknown = {x for x in (*listed, *n._in, *n._out) if x.kind not in _KIND_ORDER}
    for x in sorted(unknown):
        report.add(f"node {x.label()} has unknown kind {x.kind!r}")
    if unknown:
        return report
    for x in sorted((n._in.keys() | n._out.keys()) - listed, key=_SORT_KEY):
        report.add(f"edge endpoint {x.label()} is not a listed node")
    if n._has_parallel_edges():
        report.add("parallel edges present")

    bottlenecks = n.bottlenecks()
    if len(bottlenecks) != v:
        report.add(f"{len(bottlenecks)} bottleneck edges, expected {v}")
    for e in bottlenecks:
        if e.tail.kind != BOTTLENECK_TAIL or e.head.kind != BOTTLENECK_HEAD:
            report.add(f"bad bottleneck endpoints {e}")
        elif e.tail.index != e.head.index:
            report.add(f"bottleneck tail/head index mismatch {e}")

    for i in range(v):
        expect = {NodeId(SOURCE_POINT, i)} | {
            NodeId(SOURCE_BLOCK, j) for j in d.blocks_through(i)
        }
        tails = {e.tail for e in n.in_edges(NodeId(BOTTLENECK_TAIL, i))}
        if tails != expect:
            report.add(f"bottleneck tail {i + 1} fed by {sorted(x.label() for x in tails)}")
        if len(n.in_edges(NodeId(BOTTLENECK_TAIL, i))) != r + 1:
            report.add(f"bottleneck tail {i + 1} in-degree != r+1")
        heads = {
            e.head
            for e in n.out_edges(NodeId(BOTTLENECK_HEAD, i))
            if e.kind == EDGE_HEAD_TO_TERMINAL
        }
        expect_out = {NodeId(TERMINAL_POINT, i)} | {
            NodeId(TERMINAL_BLOCK, j) for j in d.blocks_through(i)
        }
        if heads != expect_out:
            report.add(f"bottleneck head {i + 1} feeds {sorted(x.label() for x in heads)}")
        if len(n.out_edges(NodeId(BOTTLENECK_HEAD, i))) != r + 1:
            report.add(f"bottleneck head {i + 1} out-degree != r+1")

    m_edges = [e for e in n.edges if e.kind != EDGE_DIRECT]
    if len(m_edges) != v + 2 * v * (r + 1):
        report.add(f"|M| = {len(m_edges)}, expected {v + 2 * v * (r + 1)}")

    for s in n.sources():
        if n.in_edges(s):
            report.add(f"source {s.label()} has incoming edges")
    for t in n.terminals():
        if n.out_edges(t):
            report.add(f"terminal {t.label()} has outgoing edges")

    for i in range(v):
        t = NodeId(TERMINAL_POINT, i)
        head = [e for e in n.in_edges(t) if e.kind == EDGE_HEAD_TO_TERMINAL]
        direct = [e for e in n.in_edges(t) if e.kind == EDGE_DIRECT]
        if len(head) != 1 or (head and head[0].tail != NodeId(BOTTLENECK_HEAD, i)):
            report.add(f"{t.label()} head edges wrong")
        if len(direct) != (v - 1) + (b - r):
            report.add(f"{t.label()} has {len(direct)} direct edges, expected {(v - 1) + (b - r)}")
    for j in range(b):
        t = NodeId(TERMINAL_BLOCK, j)
        head = [e for e in n.in_edges(t) if e.kind == EDGE_HEAD_TO_TERMINAL]
        direct = [e for e in n.in_edges(t) if e.kind == EDGE_DIRECT]
        expect_direct = (v - d.k) + (b - len(d.block_neighborhood(j)))
        if len(head) != d.k:
            report.add(f"{t.label()} has {len(head)} head edges, expected {d.k}")
        if len(direct) != expect_direct:
            report.add(f"{t.label()} has {len(direct)} direct edges, expected {expect_direct}")

    try:
        topological_order(n)
    except ValueError:
        report.add("graph is not acyclic")

    # every terminal must see every source through at least one path: a
    # backward search that widens by whole levels with set operations and
    # expands only the nodes that have in-edges
    tails = {head: set(map(_TAIL, es)) for head, es in n._in.items()}
    all_sources = set(n.sources())
    for t in n.terminals():
        seen = {t}
        frontier = seen & tails.keys()
        while frontier:
            frontier = set().union(*(tails[x] for x in frontier)) - seen
            seen |= frontier
            frontier &= tails.keys()
        missing = all_sources - seen
        if missing:
            names = ", ".join(sorted(x.label() for x in missing))
            report.add(f"terminal {t.label()} cannot reach sources: {names}")
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


def network_export_dot(n: SumNetwork, terminals: Iterable[NodeId] | None = None) -> str:
    """Render the network (or the subgraph feeding selected terminals) as DOT.

    Bottleneck edges carry ``style=bold``; everything else is plain.  With a
    terminal filter, the output keeps all sources, the filtered terminals,
    the bottlenecks feeding them, and only the edges incident to those.
    """
    if terminals is None:
        kept_edges = list(n.edges)
        kept_nodes = list(n.nodes)
    else:
        kept_terminals = set(terminals)
        kept_bottlenecks = {
            e.tail.index
            for t in kept_terminals
            for e in n.in_edges(t)
            if e.kind == EDGE_HEAD_TO_TERMINAL
        }
        kept_edges = []
        for e in n.edges:
            if e.kind == EDGE_BOTTLENECK and e.tail.index in kept_bottlenecks:
                kept_edges.append(e)
            elif e.kind == EDGE_SOURCE_TO_TAIL and e.head.index in kept_bottlenecks:
                kept_edges.append(e)
            elif e.kind in (EDGE_HEAD_TO_TERMINAL, EDGE_DIRECT) and e.head in kept_terminals:
                kept_edges.append(e)
        kept_nodes = [x for x in n.sources()]
        kept_nodes += [NodeId(BOTTLENECK_TAIL, i) for i in sorted(kept_bottlenecks)]
        kept_nodes += [NodeId(BOTTLENECK_HEAD, i) for i in sorted(kept_bottlenecks)]
        kept_nodes += sorted(kept_terminals, key=lambda x: x.sort_key)

    lines = ["digraph sum_network {", "  rankdir=TB;"]
    for node in kept_nodes:
        lines.append(f'  "{_dot_name(node)}";')
    for e in kept_edges:
        attr = " [style=bold]" if e.kind == EDGE_BOTTLENECK else ""
        lines.append(f'  "{_dot_name(e.tail)}" -> "{_dot_name(e.head)}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def network_export_json(n: SumNetwork) -> str:
    # one label string per node, so the writer quotes each label once
    label = {node: node.label() for node in (*n.nodes, *n._in, *n._out)}
    data = {
        "schema": "sumnet.network/1",
        "design": n.design.to_dict(),
        "nodes": [label[node] for node in n.nodes],
        "edges": [[label[e.tail], label[e.head], e.kind] for e in n.edges],
    }
    return dumps(data) + "\n"


class _ListedNodes(dict):
    """Edge endpoint label -> the listed node it names; an endpoint that
    names no listed node is a ``ParseError``."""

    def __init__(self, nodes: list[NodeId]):
        super().__init__()
        self._nodes = {node: node for node in nodes}

    def __missing__(self, label: str) -> NodeId:
        node = self._nodes.get(parse_node_label(label))
        if node is None:
            raise ParseError(f"edge endpoint {label!r} is not a listed node")
        self[label] = node
        return node


def network_from_json(text: str) -> SumNetwork:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != "sumnet.network/1":
        raise ParseError("not a sumnet.network/1 document")
    design = Design.from_dict(data.get("design", {}))
    try:
        nodes = [parse_node_label(s) for s in data["nodes"]]
        listed = _ListedNodes(nodes)
        edge_kinds = {EDGE_BOTTLENECK, EDGE_SOURCE_TO_TAIL, EDGE_HEAD_TO_TERMINAL, EDGE_DIRECT}
        edges = []
        for tail, head, kind in data["edges"]:
            if kind not in edge_kinds:
                raise ParseError(f"bad edge kind {kind!r}")
            edges.append(Edge(listed[tail], listed[head], kind))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network document: {exc}") from exc
    return SumNetwork(design, nodes, edges)
