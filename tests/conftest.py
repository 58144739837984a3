"""Shared fixtures."""

import signal
import tracemalloc
import warnings
from collections import Counter, deque
from contextlib import contextmanager
from functools import reduce
from itertools import chain, product
from operator import or_

import numpy as np
import pytest

from sumnet.coding import (
    _HOOKS,
    NetworkCode,
    ShapeMismatchError,
    TerminalDecoder,
    _code,
    _fitting,
    _held,
    _in_edge_columns,
    _kernel_columns,
    block_source_extractor,
    build_code,
    column_source,
)
from sumnet.designs import Design, _load_json, fano
from sumnet.field import (
    DimensionMismatchError,
    FieldMatrix,
    PrimeField,
    _matmul_mod,
    _reduced_echelon,
    _rows_outside_row_space,
)
from sumnet.network import (
    _BOTTLENECK,
    _DIRECT,
    _HEAD_TO_TERMINAL,
    _KIND_ORDER,
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
    _canonical_nodes,
    _kahn_levels,
    _kind_offsets,
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
    """``_kahn_levels`` as nodes: the distinct nodes of the graph (the listed
    nodes and every edge endpoint), ties broken by ``NodeId.sort_key``;
    raises on a cycle."""
    found = np.concatenate(_kahn_levels(net)).tolist()
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
        out, _ = net._ids_of([node], net._out_index)
        assert net._edges_at(out) == tuple(e for e in edges if e.tail == node), node
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


def oracle_integer_rows(raw: bytes) -> np.ndarray | None:
    """``designs._integer_rows`` as numpy's text parser reads the rows: the
    text without its whitespace, checked for its skeleton, its runs of
    digits and its leading zeros, then parsed by ``np.fromstring``."""
    text = raw.translate(None, b" \t\n\r")
    skeleton = text.translate(None, b"0123456789")
    rows = skeleton.count(b"[")
    width = (len(skeleton) + 1) // rows - 2
    if width < 1 or skeleton != b",".join([b"[" + b"," * (width - 1) + b"]"] * rows):
        return None

    def digits(x: bytes) -> np.ndarray:
        return np.frombuffer(x, np.uint8) - np.uint8(ord("0")) < 10

    def runs(digit: np.ndarray) -> int:
        return int(np.count_nonzero(digit[1:] > digit[:-1]))

    byte, digit, tokens = np.frombuffer(text, np.uint8), digits(text), rows * width
    if (
        runs(digit) != tokens  # an empty token
        or runs(digits(raw)) != tokens  # whitespace inside a token
        or np.any(digit[1:] & (byte[:-1] == ord("]")))  # a token between rows
        or np.any(digit[:-1] & (byte[1:] == ord("[")))
        or np.any(~digit[:-2] & (byte[1:-1] == ord("0")) & digit[2:])  # a leading zero
        or b"1" * 19 in text.translate(bytes.maketrans(b"0123456789", b"1" * 10))  # 19 digits
    ):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text.translate(None, b"[]"), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    return values.reshape(rows, width) if values.size == tokens else None


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


# ---------------------------------------------------------------------------
# per-terminal and per-node oracles: the checks as they ran one terminal,
# one node or one edge at a time, before they ran as array passes
# ---------------------------------------------------------------------------


def oracle_check_compatible(net, code) -> dict:
    """``verify._check_compatible`` one bottleneck and one terminal at a
    time: each decoder numbered by its own ``_fitting`` call and compared
    with its terminal's in-edges, in the network's order or as a set."""
    if code.design != net.design:
        raise ShapeMismatchError("code was built for a different design")
    d, m, canonical = net.design, code.core_params.m, net._canonical_ids
    first_tail = int(_kind_offsets(d.v, d.b)[0][_KIND_ORDER[BOTTLENECK_TAIL]])
    for i, kernel in enumerate(code.core_kernels):
        sources = canonical[net._tail[net._in_ids(NodeId(BOTTLENECK_TAIL, i))]]
        if not ((0 <= sources) & (sources < d.v + d.b)).all():
            raise ShapeMismatchError(f"bottleneck {i + 1} is fed by a node that is no source of the design")
        reads = _kernel_columns(d, i, 1)[kernel.array.reshape(kernel.rows, -1, m).any(axis=(0, 2))]
        unwired = set(reads.tolist()) - set(sources.tolist())
        if unwired:
            source, _ = column_source(d, min(unwired), 1)
            raise ShapeMismatchError(f"bottleneck {i + 1} reads {source.label()}, which is not wired into it")
        head, tail = NodeId(BOTTLENECK_HEAD, i), NodeId(BOTTLENECK_TAIL, i)
        into = net._in_ids(head)
        fed = len(into) == 1 and net._kind[into[0]] == _BOTTLENECK
        if not (fed and canonical[net._tail[into[0]]] == first_tail + i):
            raise ShapeMismatchError(f"{head.label()} is not fed by {tail.label()} alone")
    kinds, numbered = len(net._kinds), {}
    for t in net.terminals():
        if t not in code.core_decoders:
            raise ShapeMismatchError(f"no decoder for {t.label()}")
        ids = code.core_decoders[t]._ids
        tail, fits = _fitting(ids.rank, ids.index, ids.kind, d)
        into = net._in_ids(t)
        net_tail, net_kind = canonical[net._tail[into]], net._kind[into]
        same = np.array_equal(tail, net_tail) and np.array_equal(ids.kind, net_kind)
        if not same:  # the same in-edges in another order, as a set
            same = set((tail * kinds + ids.kind).tolist()) == set((net_tail * kinds + net_kind).tolist())
        if not (fits.all() and ids.terminal in (t, None) and same):
            raise ShapeMismatchError(f"decoder in-edges disagree with network at {t.label()}")
        numbered[t] = (tail, ids.kind)
    nodes, ends = _canonical_nodes(d.v, d.b), d.v + d.b
    design, listed = dict.fromkeys(nodes[:ends] + nodes[-ends:]), Counter(net.sources() + net.terminals())
    for x in chain(design, listed):
        if listed[x] != (x in design):
            fault = f" {listed[x]} times, not once" if x in design else ", which is no node of the design"
            raise ShapeMismatchError(f"the network lists {x.label()}{fault}")
    return numbered


def oracle_terminal_map(code, t, numbered: dict) -> np.ndarray:
    """Terminal t's end-to-end map from the stacked sources, for one copy
    of the core: each head edge's decoder block times its kernel, one
    product per head edge, at the kernel's columns, and each direct edge's
    block at its source's columns, a block listed twice added twice."""
    d, f, (m, n) = code.design, code.field, code.core_params.rate
    tail, kind = numbered[t]
    blocks = code.core_decoders[t].matrix.array
    head = kind == _HEAD_TO_TERMINAL
    _, start = _in_edge_columns(kind, m, n)
    first_head = int(_kind_offsets(d.v, d.b)[0][_KIND_ORDER[BOTTLENECK_HEAD]])
    got = np.zeros((m, (d.v + d.b) * m), dtype=np.int64)
    for i, col in zip((tail[head] - first_head).tolist(), start[head].tolist()):
        got[:, _kernel_columns(d, i, m)] += (FieldMatrix(f, blocks[:, col : col + n]) @ code.core_kernels[i]).array
    offsets = np.arange(m)
    at = (start[~head, None] + offsets).ravel()
    src = (tail[~head, None] * m + offsets).ravel()
    np.add.at(got, (slice(None), src), blocks[:, at])
    return got % f.p


def oracle_transfer_failures(net, code) -> list[tuple[NodeId, str]]:
    """``transfer_check``'s failures, each terminal's map composed on its
    own (``oracle_terminal_map``) and its first wrong entry reported."""
    numbered = oracle_check_compatible(net, code)
    d, m, w = net.design, code.core_params.m, code.w
    want = np.tile(np.eye(m, dtype=np.int64), d.v + d.b)
    failures = []
    for t in net.terminals():
        got = oracle_terminal_map(code, t, numbered)
        if not np.array_equal(got, want):
            row, col = map(int, np.argwhere(got != want)[0])
            source, offset = column_source(d, col * w, m * w)
            failures.append((t, (
                f"unit input at {source.label()}[{offset}] decodes to "
                f"{int(got[row, col])}, expected {int(want[row, col])} (output row {row * w})"
            )))
    return failures


def oracle_first_rows_outside(net, code, groups) -> list[tuple[int, int]]:
    """The recoverability checks by elimination alone, as they ran before
    decoders certified groups: for each group of points whose bottlenecks
    do not determine the sum of every source their kernels read, its
    position and the first row of that sum outside their row space, times
    w.  Each group's core kernels are scattered into the union of the
    sources they read, in stacked order, and eliminated against [I ... I]
    over that union."""
    oracle_check_compatible(net, code)
    d, f, w, (m, n) = net.design, code.field, code.w, code.core_params.rate
    reads = [_kernel_columns(d, i, 1) for i in range(d.v)]
    outside = []
    for g, points in enumerate(groups):
        union = np.zeros(d.v + d.b, dtype=bool)
        for point in points:
            union[reads[point]] = True
        position = np.cumsum(union) - 1
        size = int(position[-1]) + 1
        rows = np.zeros((len(points) * n, size * m), dtype=np.int64)
        for r, point in enumerate(points):
            columns = (position[reads[point], None] * m + np.arange(m)).ravel()
            rows[r * n : (r + 1) * n, columns] = code.core_kernels[point].array
        rows_out = _rows_outside_row_space(rows, np.tile(np.eye(m, dtype=np.int64), size), f.p)
        if rows_out.size:
            outside.append((g, int(rows_out[0]) * w))
    return outside


def oracle_recoverability_failures(net, code) -> tuple[list, list]:
    """The partial-sum and block-sum checks' failures, as (at, detail), by
    elimination of every group (``oracle_first_rows_outside``)."""
    d = net.design
    partial = [
        (NodeId(BOTTLENECK_TAIL, i), f"partial-sum row {row} not recoverable from bottleneck {i + 1}")
        for i, row in oracle_first_rows_outside(net, code, [(i,) for i in range(d.v)])
    ]
    block = [
        (NodeId(TERMINAL_BLOCK, j), f"block {j + 1} neighborhood sum row {row} not recoverable")
        for j, row in oracle_first_rows_outside(net, code, d.blocks)
    ]
    return partial, block


def oracle_kahn(n) -> list[int]:
    """Kahn's algorithm over node ids with a FIFO queue, a node's heads
    released in id order; shorter than the node table on a cycle."""
    indegree = np.bincount(n._head, minlength=len(n._node_table))
    ptr, order = n._out_index
    heads = n._head[order]
    ready = deque(np.flatnonzero(indegree == 0).tolist())
    found = []
    while ready:
        x = ready.popleft()
        found.append(x)
        out = heads[ptr[x] : ptr[x + 1]]
        if out.size:
            np.subtract.at(indegree, out, 1)
            out = out[indegree[out] == 0]
            # a head reached by parallel edges appears once per edge
            ready.extend(out[np.flatnonzero(np.diff(out, prepend=-1))].tolist())
    return found


def oracle_reaching(n, sources: list[int], order, acyclic: bool) -> list[int]:
    """Per node id, a bitmask of the ``sources`` (node ids) with a path to
    it: one pass in topological ``order`` on a DAG, else passes until
    nothing changes."""
    ptr, in_order = n._in_index
    ptr, tails = ptr.tolist(), n._tail[in_order].tolist()
    reach = [0] * len(n._node_table)
    for bit, s in enumerate(sources):
        reach[s] = 1 << bit
    order = list(order)
    changed = True
    while changed:
        changed = False
        for x in order:
            if ptr[x] < ptr[x + 1]:
                got = reduce(or_, map(reach.__getitem__, tails[ptr[x] : ptr[x + 1]]), reach[x])
                changed |= got != reach[x]
                reach[x] = got
        changed &= not acyclic
    return reach


def oracle_network_validate(n) -> list[str]:
    """``network_validate``'s problems, each bottleneck and terminal
    checked on its own, the order by ``oracle_kahn`` and reachability by
    ``oracle_reaching``."""
    problems = []
    d = n.design
    v, b = d.v, d.b
    try:
        r = d.r
    except ValueError:
        return ["design has no integral replication number"]
    if len(n.nodes) != 2 * (v + b) + 2 * v:
        problems.append(f"node count {len(n.nodes)}, expected {2 * (v + b) + 2 * v}")
    listed = set(n.nodes)
    if len(listed) != len(n.nodes):
        problems.append("duplicate nodes")
    table, ids = n._node_table, n._ids
    unknown = [x for x in table if x.kind not in _KIND_ORDER]
    problems += [f"node {x.label()} has unknown kind {x.kind!r}" for x in sorted(unknown)]
    if unknown:
        return problems
    size = len(table)
    in_degree = np.bincount(n._head, minlength=size)
    out_degree = np.bincount(n._tail, minlength=size)
    for x in np.flatnonzero(in_degree + out_degree).tolist():
        if table[x] not in listed:
            problems.append(f"edge endpoint {table[x].label()} is not a listed node")
    if n._has_parallel_edges:
        problems.append("parallel edges present")
    bottlenecks = n.bottlenecks()
    if len(bottlenecks) != v:
        problems.append(f"{len(bottlenecks)} bottleneck edges, expected {v}")
    for e in bottlenecks:
        if e.tail.kind != BOTTLENECK_TAIL or e.head.kind != BOTTLENECK_HEAD:
            problems.append(f"bad bottleneck endpoints {e}")
        elif e.tail.index != e.head.index:
            problems.append(f"bottleneck tail/head index mismatch {e}")
    for i in range(v):
        expect = {NodeId(SOURCE_POINT, i)} | {NodeId(SOURCE_BLOCK, j) for j in d.blocks_through(i)}
        into = n._in_ids(NodeId(BOTTLENECK_TAIL, i))
        tails = {table[x] for x in n._tail[into].tolist()}
        if tails != expect:
            problems.append(f"bottleneck tail {i + 1} fed by {sorted(x.label() for x in tails)}")
        if len(into) != r + 1:
            problems.append(f"bottleneck tail {i + 1} in-degree != r+1")
        out, _ = n._ids_of([NodeId(BOTTLENECK_HEAD, i)], n._out_index)
        heads = {table[x] for x in n._head[out[n._kind[out] == _HEAD_TO_TERMINAL]].tolist()}
        expect_out = {NodeId(TERMINAL_POINT, i)} | {NodeId(TERMINAL_BLOCK, j) for j in d.blocks_through(i)}
        if heads != expect_out:
            problems.append(f"bottleneck head {i + 1} feeds {sorted(x.label() for x in heads)}")
        if len(out) != r + 1:
            problems.append(f"bottleneck head {i + 1} out-degree != r+1")
        head = ids.get(NodeId(BOTTLENECK_HEAD, i))
        if head is None or in_degree[head] != 1:
            problems.append(f"bottleneck head {i + 1} in-degree != 1")
    m_edges = int(np.count_nonzero(n._kind != _DIRECT))
    if m_edges != v + 2 * v * (r + 1):
        problems.append(f"|M| = {m_edges}, expected {v + 2 * v * (r + 1)}")
    problems += [f"source {s.label()} has incoming edges" for s in n.sources() if in_degree[ids[s]]]
    problems += [f"terminal {t.label()} has outgoing edges" for t in n.terminals() if out_degree[ids[t]]]

    def head_and_direct(t):
        into = n._in_ids(t)
        kind = n._kind[into]
        heads = [table[x] for x in n._tail[into[kind == _HEAD_TO_TERMINAL]].tolist()]
        return heads, int(np.count_nonzero(kind == _DIRECT))

    for i in range(v):
        t = NodeId(TERMINAL_POINT, i)
        head, direct = head_and_direct(t)
        if len(head) != 1 or (head and head[0] != NodeId(BOTTLENECK_HEAD, i)):
            problems.append(f"{t.label()} head edges wrong")
        if direct != (v - 1) + (b - r):
            problems.append(f"{t.label()} has {direct} direct edges, expected {(v - 1) + (b - r)}")
    for j in range(b):
        t = NodeId(TERMINAL_BLOCK, j)
        head, direct = head_and_direct(t)
        expect_direct = (v - d.k) + (b - len(d.block_neighborhood(j)))
        if len(head) != d.k:
            problems.append(f"{t.label()} has {len(head)} head edges, expected {d.k}")
        if direct != expect_direct:
            problems.append(f"{t.label()} has {direct} direct edges, expected {expect_direct}")
    order = oracle_kahn(n)
    acyclic = len(order) == size
    if not acyclic:
        problems.append("graph is not acyclic")
    sources = sorted({ids[s] for s in n.sources()})
    reach = oracle_reaching(n, sources, order if acyclic else range(size), acyclic)
    every = (1 << len(sources)) - 1
    for t in n.terminals():
        got = reach[ids[t]]
        if got != every:
            missing = (table[s] for bit, s in enumerate(sources) if not got >> bit & 1)
            names = ", ".join(sorted(x.label() for x in missing))
            problems.append(f"terminal {t.label()} cannot reach sources: {names}")
    return problems
