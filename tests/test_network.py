import hashlib
import json

import pytest

from sumnet.designs import Design, ParseError, fano, sts_bose
from sumnet.network import (
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_DIRECT,
    EDGE_HEAD_TO_TERMINAL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    Edge,
    NodeId,
    SumNetwork,
    build_sum_network,
    network_export_dot,
    network_export_json,
    network_from_json,
    network_validate,
    parse_node_label,
    topological_order,
)


def oracle_reachable_sources(net: SumNetwork, terminal: NodeId) -> set:
    """Forward DFS from every source; independent of the module's reverse BFS."""
    adjacency = {}
    for e in net.edges:
        adjacency.setdefault(e.tail, []).append(e.head)
    reached = set()
    for s in net.sources():
        stack, seen = [s], {s}
        while stack:
            node = stack.pop()
            if node == terminal:
                reached.add(s)
                break
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return reached


# ---------------------------------------------------------------------------
# construction counts
# ---------------------------------------------------------------------------

def test_fano_network_inventory():
    net = build_sum_network(fano())
    kinds = {}
    for node in net.nodes:
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds[SOURCE_POINT] + kinds[SOURCE_BLOCK] == 14
    assert kinds[TERMINAL_POINT] + kinds[TERMINAL_BLOCK] == 14
    assert kinds[BOTTLENECK_TAIL] + kinds[BOTTLENECK_HEAD] == 14
    assert len(net.bottlenecks()) == 7
    assert len(net.nodes) == 2 * (7 + 7) + 2 * 7


def test_fano_tail_in_degree_is_r_plus_one():
    net = build_sum_network(fano())
    for i in range(7):
        assert len(net.in_edges(NodeId(BOTTLENECK_TAIL, i))) == 4


def test_fano_terminal_block_a_wiring():
    net = build_sum_network(fano())
    t_a = NodeId(TERMINAL_BLOCK, 0)
    heads = {e.tail for e in net.in_edges(t_a) if e.kind == EDGE_HEAD_TO_TERMINAL}
    assert heads == {NodeId(BOTTLENECK_HEAD, i) for i in (0, 1, 2)}
    directs = {e.tail for e in net.in_edges(t_a) if e.kind == EDGE_DIRECT}
    # block A meets every other block, so only the four outside points remain
    assert directs == {NodeId(SOURCE_POINT, i) for i in (3, 4, 5, 6)}


def test_fano_terminal_point_one_wiring():
    net = build_sum_network(fano())
    t1 = NodeId(TERMINAL_POINT, 0)
    heads = [e for e in net.in_edges(t1) if e.kind == EDGE_HEAD_TO_TERMINAL]
    assert len(heads) == 1 and heads[0].tail == NodeId(BOTTLENECK_HEAD, 0)
    directs = {e.tail for e in net.in_edges(t1) if e.kind == EDGE_DIRECT}
    expected = {NodeId(SOURCE_POINT, i) for i in range(1, 7)}
    expected |= {NodeId(SOURCE_BLOCK, j) for j in (1, 4, 5, 6)}  # B, E, F, G avoid point 1
    assert directs == expected


def test_bottleneck_incident_edge_count_formula():
    for d in (fano(), sts_bose(9)):
        net = build_sum_network(d)
        m_edges = [e for e in net.edges if e.kind != EDGE_DIRECT]
        assert len(m_edges) == d.v + 2 * d.v * (d.r + 1)


def test_sts9_node_count():
    net = build_sum_network(sts_bose(9))
    assert len(net.nodes) == 2 * (9 + 12) + 2 * 9 == 60


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_generated_networks_validate():
    for d in (fano(), sts_bose(9), sts_bose(15), Design(3, 3, 1, ((0, 1, 2),))):
        report = network_validate(build_sum_network(d))
        assert report.ok, report.problems


def test_lambda2_network_builds_and_validates():
    # all 3-subsets of 4 points: a 2-(4,3,2) design
    d = Design(v=4, k=3, lambda_=2, blocks=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    report = network_validate(build_sum_network(d))
    assert report.ok, report.problems


def test_deleted_direct_edge_is_reported():
    net = build_sum_network(fano())
    victim = next(e for e in net.edges if e.kind == EDGE_DIRECT)
    pruned = SumNetwork(net.design, net.nodes, [e for e in net.edges if e != victim])
    assert oracle_reachable_sources(pruned, victim.head) != set(pruned.sources())
    report = network_validate(pruned)
    assert not report.ok
    assert any("cannot reach" in problem for problem in report.problems)
    assert any("direct edges" in problem for problem in report.problems)


def _without_node(net: SumNetwork, label: str) -> SumNetwork:
    """The same edges with one node left out of the node list."""
    return SumNetwork(net.design, [x for x in net.nodes if x.label() != label], net.edges)


@pytest.mark.parametrize("label", ["terminal-block:7", "source-block:7"])
def test_edge_endpoint_missing_from_nodes_is_reported(label):
    # an edge into an unlisted node used to raise KeyError, and an edge out
    # of one was reported as a cycle
    report = network_validate(_without_node(build_sum_network(fano()), label))
    assert f"edge endpoint {label} is not a listed node" in report.problems
    assert "graph is not acyclic" not in report.problems


def test_node_listed_twice_is_not_a_cycle():
    net = build_sum_network(fano())
    report = network_validate(SumNetwork(net.design, net.nodes + net.nodes[:1], net.edges))
    assert "duplicate nodes" in report.problems
    assert "graph is not acyclic" not in report.problems


def test_node_of_unknown_kind_is_reported():
    # NodeId.sort_key used to raise KeyError on the unknown kind
    net = build_sum_network(fano())
    bogus = NodeId("bogus", 0)
    listed = network_validate(SumNetwork(net.design, net.nodes + (bogus,), net.edges))
    assert "node bogus:1 has unknown kind 'bogus'" in listed.problems
    edge = (Edge(bogus, NodeId(TERMINAL_POINT, 0), EDGE_DIRECT),)
    endpoint = network_validate(SumNetwork(net.design, net.nodes, net.edges + edge))
    assert endpoint.problems == ["node bogus:1 has unknown kind 'bogus'"]


@pytest.mark.parametrize("label", ["terminal-block:7", "source-block:7"])
def test_network_document_with_unlisted_endpoint_is_rejected(label):
    doc = json.loads(network_export_json(build_sum_network(fano())))
    doc["nodes"].remove(label)
    with pytest.raises(ParseError, match="not a listed node"):
        network_from_json(json.dumps(doc))


def test_edge_endpoints_are_the_listed_node_objects():
    built = build_sum_network(sts_bose(9))
    for net in (built, network_from_json(network_export_json(built))):
        listed = {id(x) for x in net.nodes}
        assert all(id(e.tail) in listed and id(e.head) in listed for e in net.edges)


def test_reverse_reachability_matches_forward_oracle():
    net = build_sum_network(sts_bose(9))
    for t in net.terminals()[:4]:
        assert oracle_reachable_sources(net, t) == set(net.sources())


def test_topological_order():
    net = build_sum_network(fano())
    order = topological_order(net)
    position = {node: i for i, node in enumerate(order)}
    assert len(order) == len(net.nodes)
    for e in net.edges:
        assert position[e.tail] < position[e.head]


def test_cycle_detection():
    net = build_sum_network(fano())
    back = net.edges[0]
    looped = SumNetwork(
        net.design, net.nodes, list(net.edges) + [type(back)(back.head, back.tail, "direct")]
    )
    with pytest.raises(ValueError):
        topological_order(looped)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_styles_every_bottleneck():
    dot = network_export_dot(build_sum_network(fano()))
    assert dot.count("[style=bold]") == 7
    assert dot.startswith("digraph")


def test_dot_terminal_filter_keeps_only_feeding_bottlenecks():
    net = build_sum_network(fano())
    dot = network_export_dot(
        net, terminals=[NodeId(TERMINAL_POINT, 0), NodeId(TERMINAL_BLOCK, 0)]
    )
    # only the three bottlenecks of block A's points survive the filter
    assert dot.count("[style=bold]") == 3
    assert '"t_p1"' in dot and '"t_B1"' in dot and '"t_p2"' not in dot
    edge_lines = [line for line in dot.splitlines() if "->" in line]
    # 3 bottlenecks + 3*4 tail feeds + (1+3) head edges + (10+4) directs
    assert len(edge_lines) == 3 + 12 + 4 + 14
    assert sum('-> "t_B1"' in line for line in edge_lines) == 3 + 4
    assert sum('-> "t_p1"' in line for line in edge_lines) == 1 + 10


def test_json_round_trip():
    for d in (fano(), sts_bose(9)):
        net = build_sum_network(d)
        assert network_from_json(network_export_json(net)) == net


def test_node_label_round_trip():
    for node in build_sum_network(fano()).nodes:
        assert parse_node_label(node.label()) == node


# digests computed before the JSON writer replaced json.dumps(indent=2)
NETWORK_DOCUMENT_SHA256 = {
    "fano": "91925ca3223440ebdfea26732fe960950ea17a09bf7737ab9668cd2f3245e753",
    "sts9": "024d0bf88bbdb578d47f75cdc0f6450a399baea54b9f5d89dde74e857a39ed54",
    "sts15": "ff6ded91251f9fecae1370ebbc47d073b3a342b67f541587e6726f0da4d5176a",
    "sts21": "cf8357f1f862c5f0bd512cdd1495a8c44d4a3ff13983e3dceeb6e91d87db0cd3",
}
GOLDEN_DESIGNS = {
    "fano": fano,
    "sts9": lambda: sts_bose(9),
    "sts15": lambda: sts_bose(15),
    "sts21": lambda: sts_bose(21),
}


@pytest.mark.parametrize("name", sorted(NETWORK_DOCUMENT_SHA256))
def test_network_document_golden_digest(name):
    text = network_export_json(build_sum_network(GOLDEN_DESIGNS[name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == NETWORK_DOCUMENT_SHA256[name]


# digests of the space-joined labels, computed before the order was
# derived from precomputed node ranks
TOPOLOGICAL_ORDER_SHA256 = {
    "fano": "e7a4bc67e8e921709db37b727267c3d98792fc945f75dc4bcb8994b11d33286a",
    "sts9": "f51b03b7dc98db2f31f5a254db3e98f1ba3cc84d63ca2055429c33e636e1ddb2",
    "sts15": "6990dc3bcf228a1f54d05363c7aca9d0e33c5ca96c9f468a2bb1d281b3d37ab7",
}


@pytest.mark.parametrize("name", sorted(TOPOLOGICAL_ORDER_SHA256))
def test_topological_order_golden_digest(name):
    order = topological_order(build_sum_network(GOLDEN_DESIGNS[name]()))
    digest = hashlib.sha256(" ".join(x.label() for x in order).encode()).hexdigest()
    assert digest == TOPOLOGICAL_ORDER_SHA256[name]
