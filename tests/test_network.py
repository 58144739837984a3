import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet import _jsonwriter
from sumnet import network as network_module
from sumnet.designs import Design, ParseError, design_verify, fano, sts_bose
from sumnet.network import (
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_BOTTLENECK,
    EDGE_DIRECT,
    EDGE_HEAD_TO_TERMINAL,
    EDGE_SOURCE_TO_TAIL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    Edge,
    NodeId,
    SumNetwork,
    _dot_name,
    _kahn_levels,
    build_sum_network,
    network_export_dot,
    network_export_json,
    network_from_json,
    network_save,
    network_save_dot,
    network_validate,
    parse_node_label,
)

from conftest import (
    affine_plane,
    assert_accessors_match_oracle,
    oracle_kahn,
    oracle_network_validate,
    projective_plane,
    terminal_in_edges,
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


@pytest.mark.parametrize(
    "make",
    [fano, lambda: sts_bose(9), lambda: sts_bose(15), lambda: projective_plane(3), lambda: affine_plane(3)],
    ids=["fano", "sts9", "sts15", "pg23", "ag23"],
)
def test_the_construction_makes_no_parallel_edges(make):
    # each edge kind joins its own kinds of node, and within a kind the
    # construction lists each pair once; see the next test for designs
    # that break the design's own invariants
    assert build_sum_network(make())._has_parallel_edges is False


@st.composite
def defective_designs(draw):
    """Fano or STS(9) with one to three defects that the construction
    accepts and ``design_verify`` refuses: a block repeated, a point
    repeated within a block, a point outside 1..v."""
    base = draw(st.sampled_from((fano(), sts_bose(9))))
    blocks = [list(blk) for blk in base.blocks]
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, len(blocks) - 1))
        defect = draw(st.sampled_from(("block", "point", "outside")))
        if defect == "block":
            blocks.insert(draw(st.integers(0, len(blocks))), list(blocks[j]))
        elif defect == "point":
            x, y = draw(st.lists(st.integers(0, len(blocks[j]) - 1), min_size=2, max_size=2, unique=True))
            blocks[j][x] = blocks[j][y]
        else:
            blocks[j][draw(st.integers(0, len(blocks[j]) - 1))] = draw(st.sampled_from((-1, base.v, base.v + 1)))
    return Design(base.v, base.k, base.lambda_, tuple(map(tuple, blocks)))


@settings(max_examples=60, deadline=None)
@given(defective_designs())
def test_a_defective_design_builds_a_network_without_parallel_edges(d):
    # bottleneck i is fed by point i and by the blocks through it, each
    # once, and its head feeds the same list; the direct edges are the
    # distinct pairs of a boolean matrix, so no defect repeats an edge
    assert not design_verify(d).ok
    assert build_sum_network(d)._has_parallel_edges is False


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


def test_second_feed_into_a_bottleneck_head_is_reported():
    # every check refuses this network; validation must report it too
    net = build_sum_network(fano())
    extra = Edge(NodeId(SOURCE_POINT, 3), NodeId(BOTTLENECK_HEAD, 0), EDGE_DIRECT)
    wider = SumNetwork(net.design, net.nodes, (*net.edges, extra))
    assert network_validate(wider).problems == ["bottleneck head 1 in-degree != 1"]


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
    endpoint = network_validate(SumNetwork(net.design, net.nodes, tuple(net.edges) + edge))
    assert endpoint.problems == ["node bogus:1 has unknown kind 'bogus'"]


@pytest.mark.parametrize("label", ["terminal-block:7", "source-block:7"])
def test_network_document_with_unlisted_endpoint_is_rejected(label):
    doc = json.loads(network_export_json(build_sum_network(fano())))
    doc["nodes"].remove(label)
    with pytest.raises(ParseError, match="not a listed node"):
        network_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "spelling", ["terminal-point:01", "terminal-point:+1", "terminal-point: 1", "terminal-point:1_0"]
)
def test_network_document_with_a_respelled_label_is_refused(spelling):
    # int() reads each spelling, so a respelled node once loaded unnoticed
    text = network_export_json(build_sum_network(fano()))
    canonical = parse_node_label(spelling).label()
    message = f"malformed network document: node label {spelling!r} is not spelled {canonical!r}"
    listed = json.loads(text)
    listed["nodes"] = [spelling if x == "terminal-point:1" else x for x in listed["nodes"]]
    endpoint = json.loads(text)
    edge = next(e for e in endpoint["edges"] if e[1] == "terminal-point:1")
    edge[1] = spelling
    for doc in (listed, endpoint):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            network_from_json(json.dumps(doc))


def test_network_document_that_spells_a_key_twice_is_refused():
    # json.loads would keep the last "schema"
    text = network_export_json(build_sum_network(sts_bose(9)))
    schema = '"schema": "sumnet.network/1"'
    with pytest.raises(ParseError, match="^duplicate key 'schema'$"):
        network_from_json(text.replace(schema, f'"schema": "sumnet.network/0",\n  {schema}', 1))
    assert network_export_json(network_from_json(text)) == text


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


def oracle_dot(net: SumNetwork, terminals=None) -> str:
    """The DOT text rendered edge by edge from ``Edge`` objects."""
    if terminals is None:
        edges, nodes = list(net.edges), list(net.nodes)
    else:
        kept = set(terminals)
        bottlenecks = {e.tail.index for t in kept for e in net.in_edges(t) if e.kind == EDGE_HEAD_TO_TERMINAL}
        edges = [
            e
            for e in net.edges
            if (e.kind == EDGE_BOTTLENECK and e.tail.index in bottlenecks)
            or (e.kind == EDGE_SOURCE_TO_TAIL and e.head.index in bottlenecks)
            or (e.kind in (EDGE_HEAD_TO_TERMINAL, EDGE_DIRECT) and e.head in kept)
        ]
        nodes = [*net.sources(), *(NodeId(BOTTLENECK_TAIL, i) for i in sorted(bottlenecks))]
        nodes += [NodeId(BOTTLENECK_HEAD, i) for i in sorted(bottlenecks)]
        nodes += sorted(kept, key=lambda x: x.sort_key)
    lines = ["digraph sum_network {", "  rankdir=TB;", *(f'  "{_dot_name(x)}";' for x in nodes)]
    for e in edges:
        bold = " [style=bold]" if e.kind == EDGE_BOTTLENECK else ""
        lines.append(f'  "{_dot_name(e.tail)}" -> "{_dot_name(e.head)}"{bold};')
    return "\n".join([*lines, "}"]) + "\n"


def crossed_fano() -> SumNetwork:
    """Fano with bottleneck tails 1 and 2 wired into each other's heads."""
    net = build_sum_network(fano())
    swap = {0: 1, 1: 0}
    edges = [
        Edge(e.tail, NodeId(BOTTLENECK_HEAD, swap.get(e.head.index, e.head.index)), e.kind)
        if e.kind == EDGE_BOTTLENECK
        else e
        for e in net.edges
    ]
    return SumNetwork(net.design, net.nodes, edges)


DOT_NETWORKS = {
    "sts15": lambda: build_sum_network(sts_bose(15)),
    "pg23": lambda: build_sum_network(projective_plane(3)),
    # the edges of a broken network keep their construction order
    "cycle-and-unfed": lambda: broken_fano("cycle-and-unfed"),
    "bottleneck-reversed": lambda: broken_fano("bottleneck-reversed"),
    "bottleneck-crossed": crossed_fano,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DOT_NETWORKS)), st.data())
def test_dot_matches_the_edge_by_edge_oracle(name, data):
    net = DOT_NETWORKS[name]()
    # terminals of the network and two it does not have
    choices = [*net.terminals(), NodeId(TERMINAL_POINT, 40), NodeId(TERMINAL_BLOCK, 99)]
    terminals = data.draw(st.none() | st.lists(st.sampled_from(choices), max_size=6))
    assert network_export_dot(net, terminals) == oracle_dot(net, terminals)


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
    # computed before the network was held as arrays: the scalar-wide
    # network (119,595 edges, 9,759,889 bytes) and two designs with k > 3
    "sts45": "48bf6aba895a9757efbe3b1af32683a4439c0321f9a3cfa9b4f2b24ec817ac36",
    "pg23": "4fc271f655d806660fe823eaae27d38484c70c1f04b5bdd8db1bbcaa891e226c",
    "ag25": "defcfe3e8cfbc2bc531a6a5fdb12ee26c437c9225f08783e20204bdc35c7fe58",
}
GOLDEN_DESIGNS = {
    "fano": fano,
    "sts9": lambda: sts_bose(9),
    "sts15": lambda: sts_bose(15),
    "sts21": lambda: sts_bose(21),
    "sts45": lambda: sts_bose(45),
    "pg23": lambda: projective_plane(3),
    "ag25": lambda: affine_plane(5),
}


@pytest.mark.parametrize("name", sorted(NETWORK_DOCUMENT_SHA256))
def test_network_document_golden_digest(name, tmp_path):
    net = build_sum_network(GOLDEN_DESIGNS[name]())
    text = network_export_json(net)
    assert hashlib.sha256(text.encode()).hexdigest() == NETWORK_DOCUMENT_SHA256[name]
    if name == "sts45":
        assert len(text.encode()) == 9_759_889
    path = tmp_path / "network.json"
    network_save(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NETWORK_DOCUMENT_SHA256[name]


# digests computed before the DOT writer rendered from the edge arrays:
# (design, terminal filter) -> sha256 of the DOT text
NETWORK_DOT_SHA256 = {
    ("fano", None): "aa076e727c67bf275838c083c76ace6033738057b9737a253b0012515e6e3f1a",
    ("sts9", None): "c43530c18411daa7a1d98068f76d8d8db739182090530b1d73bfe09f92f0d707",
    ("sts15", None): "1abdf1fdd6bec93085f4b5ad2f318466685fe728b9ac25227a87f0860b50a1d3",
    ("fano", "p1,B1"): "8f5598a0854236e6c599979617aa9a52cce8823cbd0f2200f3d439c1db90a466",
    ("sts9", "p3,B2,B7"): "11e8cfc37298c2142554ce52fa22e44308444003c9f2fdd6f6e8fefbdc96db59",
}


def _terminals(spec: str) -> list[NodeId]:
    """``p3,B2`` as terminal nodes, as ``build --filter-terminals`` reads it."""
    kinds = {"p": TERMINAL_POINT, "B": TERMINAL_BLOCK}
    return [NodeId(kinds[x[0]], int(x[1:]) - 1) for x in spec.split(",")]


@pytest.mark.parametrize("name,spec", sorted(NETWORK_DOT_SHA256, key=str))
def test_network_dot_golden_digest(name, spec, tmp_path):
    net = build_sum_network(GOLDEN_DESIGNS[name]())
    terminals = _terminals(spec) if spec else None
    text = network_export_dot(net, terminals)
    assert hashlib.sha256(text.encode()).hexdigest() == NETWORK_DOT_SHA256[name, spec]
    path = tmp_path / "network.dot"
    network_save_dot(net, path, terminals)
    assert path.read_bytes() == text.encode()


class KeptWrites(io.StringIO):
    """A text file that keeps every piece written to it, open after the
    ``with`` block that would close it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)

    def close(self):
        pass


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("spec", [None, "p1,B1"])
def test_dot_is_written_in_chunks_of_the_writers_rows(rows, spec, tmp_path, monkeypatch):
    # the DOT writer takes its edge lines per write from the JSON writer
    net = build_sum_network(sts_bose(15))
    terminals = _terminals(spec) if spec else None
    whole = network_export_dot(net, terminals).encode()
    monkeypatch.setattr(_jsonwriter, "_TABLE_ROWS", rows)
    assert network_export_dot(net, terminals).encode() == whole
    path = tmp_path / "network.dot"
    network_save_dot(net, path, terminals)
    assert path.read_bytes() == whole
    kept = KeptWrites()
    monkeypatch.setattr(network_module, "open", lambda *args, **kwargs: kept, raising=False)
    network_save_dot(net, path, terminals)
    assert "".join(kept.writes).encode() == whole
    # no write holds more than one chunk of edge lines, so there are more
    # writes of edge lines than one
    edges = [x.count(" -> ") for x in kept.writes]
    assert max(edges) <= rows and sum(edges) == whole.count(b" -> ") > rows
    assert len([x for x in edges if x]) == -(-sum(edges) // rows) > 1


# digests of the space-joined labels, computed before the order was
# derived from precomputed node ranks
TOPOLOGICAL_ORDER_SHA256 = {
    "fano": "e7a4bc67e8e921709db37b727267c3d98792fc945f75dc4bcb8994b11d33286a",
    "sts9": "f51b03b7dc98db2f31f5a254db3e98f1ba3cc84d63ca2055429c33e636e1ddb2",
    "sts15": "6990dc3bcf228a1f54d05363c7aca9d0e33c5ca96c9f468a2bb1d281b3d37ab7",
    # computed before Kahn's algorithm ran on node ids
    "sts21": "92c3991ba140bfc8f4c2f359298d233b9ed8666410609d09b04fcd80a5e29abf",
    "pg23": "88fffd5dc0a44fd06de8a55d1628e5c1b69417406319f3029f4e6ed153935f74",
}


@pytest.mark.parametrize("name", sorted(TOPOLOGICAL_ORDER_SHA256))
def test_topological_order_golden_digest(name):
    order = topological_order(build_sum_network(GOLDEN_DESIGNS[name]()))
    digest = hashlib.sha256(" ".join(x.label() for x in order).encode()).hexdigest()
    assert digest == TOPOLOGICAL_ORDER_SHA256[name]


# ---------------------------------------------------------------------------
# the array-backed accessors against a naive reading of the edge list
# ---------------------------------------------------------------------------

ORACLE_DESIGNS = {
    "fano": fano,
    "sts15": lambda: sts_bose(15),
    "pg23": lambda: projective_plane(3),
    "ag25": lambda: affine_plane(5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_DESIGNS))
def test_accessors_match_the_edge_list_oracle(name):
    d = ORACLE_DESIGNS[name]()
    net = build_sum_network(d)
    assert_accessors_match_oracle(net)
    rebuilt = SumNetwork(d, net.nodes, net.edges)
    assert rebuilt == net
    assert_accessors_match_oracle(rebuilt)


def test_edges_are_made_only_on_request(monkeypatch):
    net = build_sum_network(sts_bose(9))
    made = []
    edges_at = SumNetwork._edges_at
    monkeypatch.setattr(SumNetwork, "_edges_at", lambda self, ids: made.append(len(ids)) or edges_at(self, ids))
    # 9 * (2 * (r+1) + 1) bottleneck-side edges, 9 * 16 + 12 * 8 direct ones
    assert len(net.edges) == 99 + 144 + 96
    assert made == []  # len() made no Edge
    t = NodeId(TERMINAL_BLOCK, 3)
    first = net.in_edges(t)
    assert made == [len(first)]
    position = {e: i for i, e in enumerate(net.edges)}
    assert all(net.edges[position[e]] == e for e in first)
    assert len(position) == len(net.edges)


def test_edge_list_behaves_like_a_tuple():
    net = build_sum_network(fano())
    edges = tuple(net.edges)
    assert net.edges == edges and net.edges == net.edges
    assert net.edges[-1] == edges[-1] and net.edges[2:5] == edges[2:5]
    assert list(net.edges) == list(edges) and len(net.edges) == len(edges)


def test_constructor_keeps_unknown_edge_kinds():
    net = build_sum_network(fano())
    odd = Edge(NodeId(SOURCE_POINT, 0), NodeId(TERMINAL_POINT, 0), "odd")
    changed = SumNetwork(net.design, net.nodes, (*net.edges, odd))
    assert changed.edges[-1] == odd
    assert odd in changed.in_edges(NodeId(TERMINAL_POINT, 0))
    assert odd not in terminal_in_edges(changed, NodeId(TERMINAL_POINT, 0))
    assert json.loads(network_export_json(changed))["edges"][-1] == [
        "source-point:1", "terminal-point:1", "odd"
    ]
    assert changed != net


# problem lists computed before validation ran on arrays
BROKEN_FANO_PROBLEMS = {
    "repeated-edge": [
        "parallel edges present",
        "terminal-block:7 has 5 direct edges, expected 4",
    ],
    "terminal-feeds-source": [
        "source source-point:1 has incoming edges",
        "terminal terminal-point:1 has outgoing edges",
        "graph is not acyclic",
    ],
    "tail-unfed": [
        "bottleneck tail 1 fed by []",
        "bottleneck tail 1 in-degree != r+1",
        "|M| = 59, expected 63",
        "terminal terminal-point:1 cannot reach sources: source-block:1, source-block:3, source-block:4, source-point:1",
        "terminal terminal-block:1 cannot reach sources: source-block:3, source-block:4, source-point:1",
        "terminal terminal-block:3 cannot reach sources: source-block:1, source-block:4, source-point:1",
        "terminal terminal-block:4 cannot reach sources: source-block:1, source-block:3, source-point:1",
    ],
    "cycle-and-unfed": [
        "bottleneck tail 1 fed by []",
        "bottleneck tail 1 in-degree != r+1",
        "|M| = 59, expected 63",
        "source source-point:1 has incoming edges",
        "source source-block:2 has incoming edges",
        "terminal terminal-point:1 has outgoing edges",
        "terminal terminal-block:3 has outgoing edges",
        "graph is not acyclic",
        "terminal terminal-point:1 cannot reach sources: source-block:1, source-block:4, source-point:1",
        "terminal terminal-block:1 cannot reach sources: source-block:4, source-point:1",
        "terminal terminal-block:3 cannot reach sources: source-block:1, source-block:4, source-point:1",
        "terminal terminal-block:4 cannot reach sources: source-block:1, source-point:1",
    ],
    "bottleneck-reversed": [
        "bad bottleneck endpoints Edge(tail=NodeId(kind='bottleneck-head', index=0), head=NodeId(kind='bottleneck-tail', index=0), kind='bottleneck')",
        "bottleneck tail 1 fed by ['bottleneck-head:1', 'source-block:1', 'source-block:3', 'source-block:4', 'source-point:1']",
        "bottleneck tail 1 in-degree != r+1",
        "bottleneck head 1 out-degree != r+1",
        "bottleneck head 1 in-degree != 1",
        "terminal terminal-point:1 cannot reach sources: source-block:1, source-block:3, source-block:4, source-point:1",
        "terminal terminal-block:1 cannot reach sources: source-block:3, source-block:4, source-point:1",
        "terminal terminal-block:3 cannot reach sources: source-block:1, source-block:4, source-point:1",
        "terminal terminal-block:4 cannot reach sources: source-block:1, source-block:3, source-point:1",
    ],
}


def broken_fano(case: str) -> SumNetwork:
    net = build_sum_network(fano())
    edges = list(net.edges)
    tp1, sp1 = NodeId(TERMINAL_POINT, 0), NodeId(SOURCE_POINT, 0)
    mt1 = NodeId(BOTTLENECK_TAIL, 0)
    unfed = [e for e in edges if e.head != mt1]
    back = [Edge(tp1, sp1, EDGE_DIRECT), Edge(NodeId(TERMINAL_BLOCK, 2), NodeId(SOURCE_BLOCK, 1), EDGE_DIRECT)]
    changed = {
        "repeated-edge": edges + edges[-1:],
        "terminal-feeds-source": edges + back[:1],
        "tail-unfed": unfed,
        "cycle-and-unfed": unfed + back,
        "bottleneck-reversed": [
            Edge(e.head, e.tail, e.kind) if e.kind == "bottleneck" and e.tail == mt1 else e for e in edges
        ],
    }[case]
    return SumNetwork(net.design, net.nodes, changed)


@pytest.mark.parametrize("case", sorted(BROKEN_FANO_PROBLEMS))
def test_broken_networks_report_the_same_problems(case):
    assert network_validate(broken_fano(case)).problems == BROKEN_FANO_PROBLEMS[case]


def test_topological_order_counts_parallel_edges():
    net = broken_fano("repeated-edge")
    order = topological_order(net)
    assert order == topological_order(build_sum_network(fano()))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validation_and_order_agree_with_the_per_node_oracles(data):
    # Fano or STS(9) with an edge dropped, an edge turned or doubled back
    # (the latter always closing a cycle), or an edge repeated: the
    # problems and the order of Kahn's algorithm, a level at a time, are
    # those of the FIFO queue and the per-node checks, cycles included
    d = data.draw(st.sampled_from((fano(), sts_bose(9))))
    net = build_sum_network(d)
    edges = list(net.edges)
    x = data.draw(st.integers(0, len(edges) - 1))
    e = edges[x]
    way = data.draw(st.sampled_from(("drop", "turn", "double back", "repeat")))
    if way == "drop":
        del edges[x]
    elif way == "turn":
        edges[x] = Edge(e.head, e.tail, e.kind)
    elif way == "double back":
        edges.append(Edge(e.head, e.tail, e.kind))
    else:
        edges.insert(data.draw(st.integers(0, len(edges))), e)
    changed = SumNetwork(d, net.nodes, edges)
    assert network_validate(changed).problems == oracle_network_validate(changed)
    levels = _kahn_levels(changed)
    assert [x for level in levels for x in level.tolist()] == oracle_kahn(changed)
