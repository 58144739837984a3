"""Sum-network DAGs built from block designs.

Each point and each block of the design contributes one source and one
terminal; every point additionally contributes a unit-capacity bottleneck
edge whose tail collects the point's neighborhood and whose head fans it
back out.  All remaining source/terminal pairs are wired directly.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from typing import Iterable, NamedTuple

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
    except (ValueError, TypeError) as exc:
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
        self._in: dict[NodeId, list[Edge]] = defaultdict(list)
        self._out: dict[NodeId, list[Edge]] = defaultdict(list)
        for e in self.edges:
            self._in[e.head].append(e)
            self._out[e.tail].append(e)

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
        bottleneck index first, then direct edges by source order."""
        head = sorted(
            (e for e in self._in[terminal] if e.kind == EDGE_HEAD_TO_TERMINAL),
            key=lambda e: e.tail.index,
        )
        direct = sorted(
            (e for e in self._in[terminal] if e.kind == EDGE_DIRECT),
            key=lambda e: e.tail.sort_key,
        )
        return tuple(head) + tuple(direct)

    def tail_in_edges(self, i: int) -> tuple[Edge, ...]:
        """In-edges of bottleneck tail i, point source first then blocks."""
        return tuple(
            sorted(self._in[NodeId(BOTTLENECK_TAIL, i)], key=lambda e: e.tail.sort_key)
        )


def build_sum_network(d: Design) -> SumNetwork:
    """Construct the sum-network of a design."""
    v, b = d.v, d.b
    sp = lambda i: NodeId(SOURCE_POINT, i)
    sB = lambda j: NodeId(SOURCE_BLOCK, j)
    mt = lambda i: NodeId(BOTTLENECK_TAIL, i)
    mh = lambda i: NodeId(BOTTLENECK_HEAD, i)
    tp = lambda i: NodeId(TERMINAL_POINT, i)
    tB = lambda j: NodeId(TERMINAL_BLOCK, j)

    nodes = (
        [sp(i) for i in range(v)]
        + [sB(j) for j in range(b)]
        + [mt(i) for i in range(v)]
        + [mh(i) for i in range(v)]
        + [tp(i) for i in range(v)]
        + [tB(j) for j in range(b)]
    )

    edges: list[Edge] = []
    for i in range(v):
        edges.append(Edge(sp(i), mt(i), EDGE_SOURCE_TO_TAIL))
        for j in d.blocks_through(i):
            edges.append(Edge(sB(j), mt(i), EDGE_SOURCE_TO_TAIL))
        edges.append(Edge(mt(i), mh(i), EDGE_BOTTLENECK))
        edges.append(Edge(mh(i), tp(i), EDGE_HEAD_TO_TERMINAL))
        for j in d.blocks_through(i):
            edges.append(Edge(mh(i), tB(j), EDGE_HEAD_TO_TERMINAL))
    for i in range(v):
        through = set(d.blocks_through(i))
        for l in range(v):
            if l != i:
                edges.append(Edge(sp(l), tp(i), EDGE_DIRECT))
        for l in range(b):
            if l not in through:
                edges.append(Edge(sB(l), tp(i), EDGE_DIRECT))
    for j in range(b):
        members = set(d.blocks[j])
        neighborhood = set(d.block_neighborhood(j))
        for l in range(v):
            if l not in members:
                edges.append(Edge(sp(l), tB(j), EDGE_DIRECT))
        for l in range(b):
            if l not in neighborhood:
                edges.append(Edge(sB(l), tB(j), EDGE_DIRECT))

    # unit-capacity simple edges: the construction must never repeat one
    if len({(e.tail, e.head) for e in edges}) != len(edges):
        raise InvalidDesignError(ValidationReport(["network construction repeats an edge"]))
    return SumNetwork(d, nodes, edges)


def topological_order(n: SumNetwork) -> list[NodeId]:
    """Kahn's algorithm with deterministic tie-breaking; raises on a cycle."""
    indegree = {node: len(n.in_edges(node)) for node in n.nodes}
    ready = deque(sorted((x for x, deg in indegree.items() if deg == 0), key=lambda x: x.sort_key))
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for e in sorted(n.out_edges(node), key=lambda e: e.head.sort_key):
            indegree[e.head] -= 1
            if indegree[e.head] == 0:
                ready.append(e.head)
    if len(order) != len(n.nodes):
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
    if len(set(n.nodes)) != len(n.nodes):
        report.add("duplicate nodes")
    if len({(e.tail, e.head) for e in n.edges}) != len(n.edges):
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

    # every terminal must see every source through at least one path
    reverse: dict[NodeId, list[NodeId]] = defaultdict(list)
    for e in n.edges:
        reverse[e.head].append(e.tail)
    all_sources = set(n.sources())
    for t in n.terminals():
        seen = {t}
        frontier = deque([t])
        while frontier:
            node = frontier.popleft()
            for prev in reverse[node]:
                if prev not in seen:
                    seen.add(prev)
                    frontier.append(prev)
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
    data = {
        "schema": "sumnet.network/1",
        "design": n.design.to_dict(),
        "nodes": [node.label() for node in n.nodes],
        "edges": [[e.tail.label(), e.head.label(), e.kind] for e in n.edges],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
        edge_kinds = {EDGE_BOTTLENECK, EDGE_SOURCE_TO_TAIL, EDGE_HEAD_TO_TERMINAL, EDGE_DIRECT}
        edges = []
        for tail, head, kind in data["edges"]:
            if kind not in edge_kinds:
                raise ParseError(f"bad edge kind {kind!r}")
            edges.append(Edge(parse_node_label(tail), parse_node_label(head), kind))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed network document: {exc}") from exc
    return SumNetwork(design, nodes, edges)
