"""Shared fixtures."""

import signal
import tracemalloc
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from sumnet.coding import (
    _HOOKS,
    NetworkCode,
    TerminalDecoder,
    _code,
    _held,
    _kernel_columns,
    block_source_extractor,
    build_code,
)
from sumnet.designs import Design, _load_json, fano
from sumnet.field import DimensionMismatchError, FieldMatrix, PrimeField, _matmul_mod, _reduced_echelon
from sumnet.network import (
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_BOTTLENECK,
    EDGE_DIRECT,
    EDGE_HEAD_TO_TERMINAL,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    NodeId,
    _kahn,
    build_sum_network,
)
from sumnet.verify import (
    block_sum_recoverable,
    partial_sum_recoverable,
    simulate_trials,
    transfer_check,
)


def code_from_whole_text(text: str) -> NetworkCode:
    """The reference reader of a ``sumnet.code/1`` document, as the library
    read one before it streamed: one ``json.loads`` of the whole text,
    every matrix then held where the streaming reader holds it, and the
    same checks after."""
    data = _load_json(text, **_HOOKS)
    if isinstance(data, dict):
        if isinstance(data.get("encoders"), (list, str, dict)):
            data["encoders"] = [_held(x) for x in data["encoders"]]
        if isinstance(data.get("decoders"), dict):
            for entry in data["decoders"].values():
                if isinstance(entry, dict) and "matrix" in entry:
                    entry["matrix"] = _held(entry["matrix"])
    return _code(data)


@contextmanager
def within_seconds(seconds: float, what: str):
    """Fail with ``TimeoutError`` once the block has run ``seconds``, so a
    test of something that must be fast fails instead of hanging."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def peak_allocation_below(limit: int, what: str):
    """Fail unless the block's peak of traced allocations, numpy buffers
    included, stays below ``limit`` bytes."""
    tracemalloc.start()
    try:
        yield
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, f"{what} peaked at {peak / 2**20:.1f} MiB of traced allocations"


def unitriangular_pair(n: int, p: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A random lower unitriangular U over GF(p) and its inverse, by forward
    substitution in Python integers."""
    u = [[int(rng.integers(0, p)) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i] = [(a - u[i][j] * b) % p for a, b in zip(inv[i], inv[j])]
    return np.array(u, dtype=np.int64), np.array(inv, dtype=np.int64)


def vstack(mats: list[FieldMatrix]) -> FieldMatrix:
    """The rows of ``mats``, one under another, over their one field."""
    if not mats:
        raise DimensionMismatchError("vstack of nothing")
    field = mats[0].field
    for m in mats[1:]:
        mats[0]._check_field(m)
    return FieldMatrix._trusted(field, np.vstack([m.array for m in mats]))


def source_column(d: Design, source: NodeId, m: int) -> int:
    """First column of a source's block in the stacked layout (points
    first, then blocks, each of width m)."""
    if source.kind == SOURCE_POINT:
        return source.index * m
    if source.kind == SOURCE_BLOCK:
        return (d.v + source.index) * m
    raise ValueError(f"{source.label()} is not a source")


def rank(m: FieldMatrix) -> int:
    """The rank of ``m``, from ``_reduced_echelon`` of its nonzero columns."""
    _, found = _reduced_echelon(m.array[:, m.array.any(axis=0)], m.field.p)
    return found


def topological_order(net) -> list[NodeId]:
    """``_kahn`` as nodes: the distinct nodes of the graph (the listed nodes
    and every edge endpoint), ties broken by ``NodeId.sort_key``; raises on
    a cycle."""
    found = _kahn(net)
    if len(found) != len(net._node_table):
        raise ValueError("network contains a cycle")
    return [net._node_table[x] for x in found]


def terminal_in_edges(net, terminal: NodeId) -> tuple:
    """The edges of ``SumNetwork._terminal_in_ids``: a terminal's head edges
    by bottleneck, then its direct edges by source."""
    return net._edges_at(net._terminal_in_ids(terminal))


def source_projection(d: Design, source: NodeId, m: int, f: PrimeField) -> FieldMatrix:
    """The m x (v+b)m map extracting one source from the stacked vector."""
    mat = np.zeros((m, (d.v + d.b) * m), dtype=np.int64)
    mat[:, source_column(d, source, m) + np.arange(m)] = np.eye(m, dtype=np.int64)
    return FieldMatrix._trusted(f, mat)


def as_given(code: NetworkCode) -> NetworkCode:
    """The code held as its (m, n) maps, at w = 1: what the checks see of a
    code that is not an interleaving.  Its kernels are the (m, n) encoders
    at their kernel columns."""
    d, m = code.design, code.params.m
    kernels = [
        FieldMatrix(code.field, enc.array[:, _kernel_columns(d, i, m)]) for i, enc in enumerate(code.encoders)
    ]
    return NetworkCode._from_core(d, code.field, code.params, kernels, code.decoders, 1)


def core_code(code: NetworkCode) -> NetworkCode:
    """One copy of the code's core as a code of its own, at w = 1."""
    return NetworkCode._from_core(
        code.design, code.field, code.core_params, code.core_kernels, code.core_decoders, 1
    )


def rebase_bottlenecks(net, code: NetworkCode, seed: int) -> NetworkCode:
    """The same code with every bottleneck's symbols re-based by a random
    unitriangular U: encoder <- U E, head decoder block <- D U^-1.  The
    code stays correct, but its decoders are dense in large coefficients."""
    f, m, n = code.field, code.params.m, code.params.n
    rng = np.random.default_rng(seed)
    pairs = [unitriangular_pair(n, f.p, rng) for _ in code.encoders]
    encoders = tuple(FieldMatrix(f, u) @ enc for (u, _), enc in zip(pairs, code.encoders))
    decoders = {}
    for t, dec in code.decoders.items():
        blocks, col = [], 0
        for e in dec.in_edges:
            width = n if e.kind == EDGE_HEAD_TO_TERMINAL else m
            block = FieldMatrix(f, dec.matrix.array[:, col : col + width])
            if e.kind == EDGE_HEAD_TO_TERMINAL:
                block = block @ FieldMatrix(f, pairs[e.tail.index][1])
            blocks.append(block.array)
            col += width
        decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=FieldMatrix(f, np.hstack(blocks)))
    return NetworkCode(code.design, f, code.params, encoders, decoders)


def drop_block_correction(net, code: NetworkCode, blocks=None) -> NetworkCode:
    """Undo the overcount cancellation at the given block terminals (all of
    them by default)."""
    k = code.design.k
    decoders = dict(code.decoders)
    for j in range(code.design.b) if blocks is None else blocks:
        t = NodeId(TERMINAL_BLOCK, j)
        dec = decoders[t]
        extractor = block_source_extractor(code, net, j)
        matrix = FieldMatrix(code.field, dec.matrix.array + (k - 1) * extractor.array)
        decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=matrix)
    return NetworkCode(
        design=code.design,
        field=code.field,
        params=code.params,
        encoders=code.encoders,
        decoders=decoders,
    )


def reordered_fano_code() -> NetworkCode:
    """A Fano/GF(3) code whose terminal-block:3 decoder lists its in-edges,
    and their column blocks, in reverse order, which the network does not."""
    code = build_code(build_sum_network(fano()), PrimeField(3))
    m, n = code.params.rate
    t = NodeId(TERMINAL_BLOCK, 2)
    dec = code.decoders[t]
    widths = [n if e.kind == EDGE_HEAD_TO_TERMINAL else m for e in dec.in_edges]
    blocks = np.split(dec.matrix.array, np.cumsum(widths)[:-1], axis=1)
    reordered = FieldMatrix(code.field, np.hstack(blocks[::-1]))
    decoders = {**code.decoders, t: TerminalDecoder(dec.in_edges[::-1], reordered)}
    return NetworkCode(code.design, code.field, code.params, code.encoders, decoders)


def assert_accessors_match_oracle(net) -> None:
    """Every accessor of ``net`` equals a naive scan of ``net.edges``: the
    edges into or out of a node in list order, a terminal's head edges by
    bottleneck then its direct edges by source, a bottleneck tail's feeds
    point source first, the bottlenecks by point."""
    edges = list(net.edges)
    kind_rank = {SOURCE_POINT: 0, SOURCE_BLOCK: 1}
    for node in net.nodes:
        into = [e for e in edges if e.head == node]
        assert net.in_edges(node) == tuple(into), node
        assert net._edges_at(net._out_ids(node)) == tuple(e for e in edges if e.tail == node), node
        if node.kind in (TERMINAL_POINT, TERMINAL_BLOCK):
            heads = sorted((e for e in into if e.kind == EDGE_HEAD_TO_TERMINAL), key=lambda e: e.tail.index)
            direct = sorted(
                (e for e in into if e.kind == EDGE_DIRECT),
                key=lambda e: (kind_rank[e.tail.kind], e.tail.index),
            )
            assert terminal_in_edges(net, node) == (*heads, *direct), node
        if node.kind == BOTTLENECK_TAIL:
            feeds = sorted(into, key=lambda e: (kind_rank[e.tail.kind], e.tail.index))
            assert net.in_edges(node) == tuple(feeds), node
    bottlenecks = sorted((e for e in edges if e.kind == EDGE_BOTTLENECK), key=lambda e: e.tail.index)
    assert net.bottlenecks() == tuple(bottlenecks)
    kinds = {SOURCE_POINT, SOURCE_BLOCK}
    assert net.sources() == tuple(x for x in net.nodes if x.kind in kinds)
    kinds = {TERMINAL_POINT, TERMINAL_BLOCK}
    assert net.terminals() == tuple(x for x in net.nodes if x.kind in kinds)


def oracle_simulate_batch(net, code, sources: dict) -> dict:
    """``verify._simulate_batch`` one terminal at a time: every node's
    values in topological order, then per terminal one product of its
    decoder with the concatenation of its in-edges' values."""
    m, p = code.params.m, code.field.p
    emitted = {}
    for node in topological_order(net):
        if node.kind in (SOURCE_POINT, SOURCE_BLOCK):
            emitted[node] = sources[node]
        elif node.kind == BOTTLENECK_TAIL:
            feeds = net.in_edges(node)
            cols = np.concatenate([source_column(net.design, e.tail, m) + np.arange(m) for e in feeds])
            local = code.encoders[node.index].array[:, cols]
            received = np.concatenate([emitted[e.tail] for e in feeds])
            emitted[node] = _matmul_mod(local, received, p)
        elif node.kind == BOTTLENECK_HEAD:
            (e,) = net.in_edges(node)
            emitted[node] = emitted[e.tail]
    outputs = {}
    for t in net.terminals():
        dec = code.decoders[t]
        received = np.concatenate([emitted[e.tail] for e in dec.in_edges])
        outputs[t] = _matmul_mod(dec.matrix.array, received, p)
    return outputs


def assert_core_path_agrees(net, code, seed):
    """Each entry point, which checks the held core of an interleaved code,
    returns what it returns on the code's (m, n) maps held as given."""
    flat = as_given(code)
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        assert check(net, code) == check(net, flat)
    summary, expected = simulate_trials(net, code, 64, seed), simulate_trials(net, flat, 64, seed)
    assert summary == expected
    assert [(x.at.label(), x.detail) for x in summary.failures] == [
        (x.at.label(), x.detail) for x in expected.failures
    ]


@pytest.fixture
def rebased_fano_bigprime():
    """Fano over GF(2^31 - 1) with every bottleneck re-based."""
    net = build_sum_network(fano())
    return net, rebase_bottlenecks(net, build_code(net, PrimeField(2147483647)), seed=5)


def projective_plane(q: int) -> Design:
    """PG(2, q) for prime q, a 2-(q^2+q+1, q+1, 1) design.

    Points and lines are the vectors of GF(q)^3 whose first nonzero
    coordinate is 1; point x lies on line l when x . l = 0.
    """
    vectors = [x for x in product(range(q), repeat=3) if any(x) and next(c for c in x if c) == 1]
    blocks = (
        tuple(i for i, x in enumerate(vectors) if sum(a * b for a, b in zip(x, line)) % q == 0)
        for line in vectors
    )
    return Design(v=len(vectors), k=q + 1, lambda_=1, blocks=tuple(sorted(blocks)))


def affine_plane(q: int) -> Design:
    """AG(2, q) for prime q, a 2-(q^2, q, 1) design: point (x, y) is
    numbered x*q + y, and the lines are y = a*x + c and x = c."""
    sloped = (
        tuple(sorted(x * q + (a * x + c) % q for x in range(q))) for a in range(q) for c in range(q)
    )
    vertical = (tuple(c * q + y for y in range(q)) for c in range(q))
    return Design(v=q * q, k=q, lambda_=1, blocks=tuple(sorted((*sloped, *vertical))))


PLANES = {
    "PG(2,3)": lambda: projective_plane(3),
    "AG(2,3)": lambda: affine_plane(3),
    "AG(2,5)": lambda: affine_plane(5),
}


@pytest.fixture(params=sorted(PLANES))
def plane(request) -> Design:
    """PG(2,3) (k = 4, scalar over GF(3)), AG(2,3) and AG(2,5) (k = 5):
    regimes the Steiner triple systems never reach."""
    return PLANES[request.param]()
