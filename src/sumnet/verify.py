"""Deterministic and randomized verification of synthesized codes.

``transfer_check`` is the authority: it composes each terminal's decoder
with the global maps of its in-edges and demands the all-identity sum map.
By linearity that settles correctness for every input.  The composition
goes block by block: a direct edge carries its source unchanged, so only
head edges need a product, with their bottleneck's local kernel, whose
columns are the sources wired into the bottleneck in the design.  It runs
as passes over the whole network, not terminal by terminal: one product
per bottleneck, of its kernel with the stacked head-edge blocks of every
decoder that reads it, then the maps composed and compared a chunk of
terminals at a time, about ``_CHECK_CELLS`` cells of maps and decoders.
``simulate`` re-derives the same answers from concrete values, giving an
independent evaluation path for cross-checks.  It writes source and
bottleneck-head values into one array with rows by canonical node id,
computes each head's rows with one product of its bottleneck's kernel and
the rows of its kernel's sources, and decodes every terminal with one
product of a matrix that holds all decoders, scattered by tail id.  The
trials go through in chunks of about ``_CHUNK_COLUMNS`` columns, or
fewer to hold about ``_CHUNK_CELLS`` cells, and ``simulate_trials``
compares each chunk with its sums as it is decoded, so no array holds
every trial's decoded values.  One routine decides both recoverability
checks: a group of bottlenecks must determine the sum of every source
their kernels read, a single point's group its partial sum and a block's
k points its neighborhood sum.  The terminal that decodes from the group
is its certificate, in the sense of certifying algorithms: the transfer
check's head-edge stage (``_head_maps``) gives its decoder's head blocks
X times their kernels, and when every head it reads is the group's and
that product is [I ... I] on the group's sources, X solves exactly the
system that elimination would, so the group passes with one comparison.
Only a group whose certificate fails is eliminated, so its failure text
is the elimination's, as before.

A code has checked its own shapes where it was made.  Both paths rest on
the wiring that ``_check_compatible`` states and every entry point checks
first: bottleneck tail i is fed by sources of the design alone, among
them every source its kernel reads, bottleneck head i by tail i alone
along the bottleneck edge, each decoder lists exactly its terminal's
in-edges, and the network lists the design's sources and terminals once
each.  A network wired otherwise is refused with ``ShapeMismatchError``,
so neither path walks the graph.  The check reads the network's in-index,
and decoders hold their in-edges only as integer arrays
(``TerminalDecoder``), which the check numbers canonically over the
design, every bottleneck at once and the terminals in the same chunks, so
no check and no simulation makes an ``Edge``.

A code is held as its (c, c+s) core, one kernel per bottleneck, and the
number w of interleaved copies (``NetworkCode``), and each copy acts on
its own coordinates, so a check of the core decides the check of the
code.  Every check reads only the held core and maps its rows and columns
back to the lifted layout: row a is row a*w, stacked column b is column
b*w.  That is the first hit the same check finds on the lifted code, so
every failure text is the same.  A code that is not an interleaving (the
scalar code, a re-based one, one corrupted in a single copy) is held at
w = 1 and checked as it is.  No check builds a lifted or full-width map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterator

import numpy as np

from .coding import (
    REGIME_DIVIDES,
    NetworkCode,
    ShapeMismatchError,
    UnsupportedLambdaError,
    _fitting,
    _in_edge_columns,
    _in_edge_ids,
    _kernel_columns,
    code_params_for,
    column_source,
    stacked_width,
    sum_map,
)
from .designs import Design, InvalidDesignError, ValidationReport
from .field import (
    FieldMatrix,
    PrimeField,
    _matmul_mod,
    _prepare,
    _Prepared,
    _rows_outside_row_space,
    row_space_contains,
)
from .network import (
    _BOTTLENECK,
    _HEAD_TO_TERMINAL,
    _KIND_ORDER,
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    NodeId,
    TERMINAL_BLOCK,
    TERMINAL_POINT,
    SumNetwork,
    _canonical_nodes,
    _distinct,
    _kind_offsets,
    _starts,
)


@dataclass
class Failure:
    at: NodeId
    detail: str


@dataclass
class VerifyResult:
    ok: bool
    failures: list[Failure] = field(default_factory=list)


def _any_in(flags: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Per group of ``flags`` (group g's at ``flags[at[g]:at[g + 1]]``),
    whether any is set."""
    count = _starts(flags)
    return count[at[1:]] > count[at[:-1]]


def _joined(arrays) -> np.ndarray:
    """The 1-D integer ``arrays`` one after another; empty for none."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])


def _runs(cells: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs ``lo:hi`` of items with ``cells`` each, in order:
    each run as long as its cells stay within ``budget``, and at least one
    item long."""
    ends, lo = np.cumsum(cells), 0
    while lo < len(cells):
        hi = int(np.searchsorted(ends, budget + (ends[lo - 1] if lo else 0), side="right"))
        yield lo, max(hi, lo + 1)
        lo = max(hi, lo + 1)


# the compatibility, transfer and recoverability checks take the
# terminals a chunk at a time, about _CHECK_CELLS in-edges, or cells of
# composed maps and of decoders: a chunk's arrays then hold about 1 MiB,
# little beside what a run already holds, where whole-network arrays of
# 8-byte ids would add tens of MiB at STS(63)
_CHECK_CELLS = 1 << 14

# the in-edges of a missing decoder, joined with the others' in the check
_NO_IN_EDGES = _in_edge_ids(None, (), (), ())


def _check_compatible(net: SumNetwork, code: NetworkCode) -> dict[NodeId, tuple[np.ndarray, np.ndarray]]:
    """Refuse a code that does not fit the network, and return per terminal
    its decoder's in-edges as (canonical tail id, kind code).

    The code has checked its own shapes where it was made; past this check
    tail i is fed by sources of the design alone, among them every source
    whose kernel columns are nonzero, head i by tail i alone along the
    bottleneck edge, every decoder lists exactly its terminal's in-edges,
    and the network lists the design's sources and terminals once each.
    Each is checked for every bottleneck at once, then for chunks of about
    ``_CHECK_CELLS`` in-edges of terminals at once, and the first that
    fails is refused: bottlenecks before terminals, both in order, and the
    node list last.  A chunk's decoders are numbered together; a decoder
    whose in-edges are not the network's in its order is compared with
    them as a set."""
    if code.design != net.design:
        raise ShapeMismatchError("code was built for a different design")
    d, m, canonical = net.design, code.core_params.m, net._canonical_ids
    v, ends = d.v, d.v + d.b
    into, at = net._ids_of([NodeId(BOTTLENECK_TAIL, i) for i in range(v)], net._in_index)
    # a source's canonical id is its index in the stacked layout
    fed = canonical[net._tail[into]]
    source = (0 <= fed) & (fed < ends)
    foreign = _any_in(~source, at)
    wired = np.zeros((v, ends), dtype=bool)
    wired[np.repeat(np.arange(v), np.diff(at))[source], fed[source]] = True
    # both paths read a kernel's sources directly, so a source its tail is
    # not fed would pass a code that the network cannot carry
    reads = [_kernel_columns(d, i, 1) for i in range(v)]
    read_at = _starts([len(x) for x in reads])
    reads = _joined(reads)
    read = np.concatenate([k.array.reshape(k.rows, -1, m).any(axis=(0, 2)) for k in code.core_kernels])
    unwired = read & ~wired[np.repeat(np.arange(v), np.diff(read_at)), reads]
    strays = _any_in(unwired, read_at)
    into, at = net._ids_of([NodeId(BOTTLENECK_HEAD, i) for i in range(v)], net._in_index)
    one = np.flatnonzero(np.diff(at) == 1)
    alone = np.zeros(v, dtype=bool)
    alone[one] = (net._kind[into[at[one]]] == _BOTTLENECK) & (
        canonical[net._tail[into[at[one]]]] == _first_id(d, BOTTLENECK_TAIL) + one
    )
    for i in np.flatnonzero(foreign | strays | ~alone)[:1].tolist():
        if foreign[i]:
            raise ShapeMismatchError(
                f"bottleneck {i + 1} is fed by a node that is no source of the design"
            )
        if strays[i]:
            own = slice(read_at[i], read_at[i + 1])
            source, _ = column_source(d, int(reads[own][unwired[own]].min()), 1)
            raise ShapeMismatchError(
                f"bottleneck {i + 1} reads {source.label()}, which is not wired into it"
            )
        head, tail = NodeId(BOTTLENECK_HEAD, i), NodeId(BOTTLENECK_TAIL, i)
        raise ShapeMismatchError(f"{head.label()} is not fed by {tail.label()} alone")
    terminals = net.terminals()
    held = [code.core_decoders.get(t) for t in terminals]
    ids = [_NO_IN_EDGES if dec is None else dec._ids for dec in held]
    ok = np.fromiter((x.terminal in (t, None) for x, t in zip(ids, terminals)), bool, len(ids))
    ok &= np.fromiter((dec is not None for dec in held), bool, len(held))
    sizes = np.fromiter((len(x.kind) for x in ids), np.int64, len(ids))
    at, kinds = _starts(sizes), len(net._kinds)
    # canonical tail ids fit in int32, half the size the numbering makes
    tails = np.empty(at[-1], dtype=np.int32)
    for lo, hi in _runs(sizes, _CHECK_CELLS):
        kind = _joined(x.kind for x in ids[lo:hi])
        rank, index = _joined(x.rank for x in ids[lo:hi]), _joined(x.index for x in ids[lo:hi])
        tail, fits = _fitting(rank, index, kind, d)
        tails[at[lo] : at[hi]] = tail
        into, net_at = net._ids_of(terminals[lo:hi], net._in_index)
        keys, net_keys = tail * kinds + kind, canonical[net._tail[into]] * kinds + net._kind[into]
        # a decoder lists the network's in-edges in its order when the two
        # are as long and alike entry by entry; the others are compared as sets
        mine, theirs = at[lo : hi + 1] - at[lo], net_at
        count, net_count = np.diff(mine), np.diff(theirs)
        even = count == net_count
        differ = ~even
        unlike = keys[np.repeat(even, count)] != net_keys[np.repeat(even, net_count)]
        differ[even] = _any_in(unlike, _starts(count[even]))
        ok[lo:hi] &= ~_any_in(~fits, mine)
        for x in np.flatnonzero(ok[lo:hi] & differ).tolist():
            ok[lo + x] = _same_in_edges(keys[mine[x] : mine[x + 1]], net_keys[theirs[x] : theirs[x + 1]])
        for x in np.flatnonzero(~ok[lo:hi])[:1].tolist():
            t = terminals[lo + x]
            if held[lo + x] is None:
                raise ShapeMismatchError(f"no decoder for {t.label()}")
            raise ShapeMismatchError(f"decoder in-edges disagree with network at {t.label()}")
    numbered = {t: (tails[at[x] : at[x + 1]], ids[x].kind) for x, t in enumerate(terminals)}
    # the network lists each source and terminal of the design once, no other
    nodes, ends = _canonical_nodes(d.v, d.b), d.v + d.b
    design, listed = dict.fromkeys(nodes[:ends] + nodes[-ends:]), Counter(net.sources() + net.terminals())
    for x in chain(design, listed):
        if listed[x] != (x in design):
            fault = f" {listed[x]} times, not once" if x in design else ", which is no node of the design"
            raise ShapeMismatchError(f"the network lists {x.label()}{fault}")
    return numbered


def _same_in_edges(dec_keys: np.ndarray, keys: np.ndarray) -> bool:
    """Whether a decoder's in-edges are a terminal's in-edges as a set, each
    in-edge keyed by its canonical tail id and its kind code."""
    return np.array_equal(_distinct(dec_keys), _distinct(keys))


def _first_id(d: Design, kind: str) -> int:
    """The canonical id of the first node of ``kind`` in d's network."""
    return int(_kind_offsets(d.v, d.b)[0][_KIND_ORDER[kind]])


def _head_maps(
    net: SumNetwork, code: NetworkCode, numbered: dict, terminals: list[NodeId]
) -> Iterator[tuple[int, int, np.ndarray, tuple]]:
    """The head-only maps of ``terminals``' decoders for the core, a chunk
    of terminals lo:hi at a time (``_CHECK_CELLS``): yields lo, hi, the
    (hi - lo, m, width) sums, not reduced mod p, of each head edge's decoder
    block times its kernel at the kernel's columns, and per in-edge of the
    chunk's decoders its terminal's position among them, its canonical tail
    id, its kind code and its first column in their matrices side by side.

    Each head-edge block is taken from its decoder's own matrix, and those
    of bottleneck i are stacked and multiplied by kernel i once; np.add.at,
    unlike +=, adds every block of a terminal listing an in-edge twice."""
    d, f, (m, n) = net.design, code.field, code.core_params.rate
    matrices = [code.core_decoders[t].matrix.array for t in terminals]
    width = stacked_width(d, m)
    cells = m * (width + np.fromiter((a.shape[1] for a in matrices), np.int64, len(matrices)))
    chunks = list(_runs(cells, _CHECK_CELLS))
    # residues below p, held in the smallest dtype that holds them
    small = np.min_scalar_type(f.p - 1)

    def in_edges(lo: int, hi: int):
        kinds = [numbered[t][1] for t in terminals[lo:hi]]
        kind = _joined(kinds)
        owner = np.repeat(np.arange(hi - lo), [len(x) for x in kinds])
        tail = _joined(numbered[t][0] for t in terminals[lo:hi])
        return owner, tail, kind, _in_edge_columns(kind, m, n)[1]

    # every head edge's terminal, bottleneck and m x n decoder block, in
    # terminal order
    reader, point, blocks = [], [], []
    for lo, hi in chunks:
        owner, tail, kind, start = in_edges(lo, hi)
        head = kind == _HEAD_TO_TERMINAL
        owner, start = owner[head], start[head]
        reader.append(owner + lo)
        point.append(tail[head] - _first_id(d, BOTTLENECK_HEAD))
        # each head block's columns in its own decoder's matrix, by decoder
        columns = (start - _starts([a.shape[1] for a in matrices[lo:hi]])[owner])[:, None] + np.arange(n)
        at = _starts(np.bincount(owner, minlength=hi - lo))
        gathered = [a[:, columns[at[x] : at[x + 1]]] for x, a in enumerate(matrices[lo:hi])]
        blocks.append(np.concatenate(gathered, axis=1).astype(small))
    reader, point = _joined(reader), _joined(point)
    blocks = np.concatenate([np.zeros((m, 0, n), dtype=small), *blocks], axis=1).transpose(1, 0, 2)
    # their products with their kernels, m rows per head edge, over the
    # kernel's columns (``columns``), zeros past a narrower kernel's
    kernel_columns = [_kernel_columns(d, i, m) for i in range(d.v)]
    columns = np.zeros((d.v, max(map(len, kernel_columns), default=0)), dtype=np.int64)
    products = np.zeros((len(point), m, columns.shape[1]), dtype=small)
    by_point, point_at = np.argsort(point, kind="stable"), _starts(np.bincount(point, minlength=d.v))
    for i, kernel in enumerate(code.core_kernels):
        reading, cols = by_point[point_at[i] : point_at[i + 1]], len(kernel_columns[i])
        columns[i, :cols] = kernel_columns[i]
        if reading.size:
            product = FieldMatrix(f, blocks[reading].reshape(-1, n)) @ kernel
            products[reading, :, :cols] = product.array.reshape(len(reading), m, cols)
    del blocks

    heads = np.searchsorted(reader, [lo for lo, _ in chunks] + [len(terminals)])
    for (lo, hi), a, b in zip(chunks, heads, heads[1:]):
        got = np.zeros((hi - lo, m, width), dtype=np.int64)
        # a zero past a narrower kernel's columns adds nothing
        at = (reader[a:b, None, None] - lo, np.arange(m)[:, None], columns[point[a:b], None])
        np.add.at(got, at, products[a:b])
        yield lo, hi, got, in_edges(lo, hi)


def transfer_check(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Verify that every terminal's end-to-end map is the sum of sources.

    The map is composed for the core; its lift is the lifted code's map,
    so its first wrong entry is the core's first one at row*w, col*w.

    A direct edge's decoder block lands at its source's columns, which
    start at the source's canonical id times m; a head edge from bottleneck
    i contributes its decoder block times kernel i at the kernel's columns
    (``_head_maps``).  The maps are composed and compared a chunk of
    terminals at a time."""
    numbered = _check_compatible(net, code)
    d, f, w, m = net.design, code.field, code.w, code.core_params.m
    terminals = net.terminals()
    want = sum_map(d, m, f).array
    failures = []
    for lo, hi, got, (owner, tail, kind, start) in _head_maps(net, code, numbered, terminals):
        matrices = [code.core_decoders[t].matrix.array for t in terminals[lo:hi]]
        matrix = np.concatenate([np.zeros((m, 0), dtype=np.int64), *matrices], axis=1)
        direct = kind != _HEAD_TO_TERMINAL
        blocks = matrix[:, start[direct, None] + np.arange(m)].transpose(1, 0, 2)
        got = got.reshape(hi - lo, m, -1, m)
        np.add.at(got, (owner[direct], slice(None), tail[direct], slice(None)), blocks)
        got = got.reshape(hi - lo, m, -1) % f.p
        wrong = (got != want).reshape(hi - lo, -1)
        for x in np.flatnonzero(wrong.any(axis=1)).tolist():
            row, col = divmod(int(np.argmax(wrong[x])), want.shape[1])
            source, offset = column_source(d, col * w, m * w)
            failures.append(
                Failure(
                    at=terminals[lo + x],
                    detail=(
                        f"unit input at {source.label()}[{offset}] decodes to "
                        f"{int(got[x, row, col])}, expected {int(want[row, col])} "
                        f"(output row {row * w})"
                    ),
                )
            )
    return VerifyResult(ok=not failures, failures=failures)


# simulation decodes chunks of whole trials about _CHUNK_COLUMNS columns
# wide, or narrower where their value array and decoded block would hold
# more than about _CHUNK_CELLS cells together (8 MiB as int64): the column
# cap bounds a small network's chunks, the cell budget a large one's
_CHUNK_COLUMNS = 512
_CHUNK_CELLS = 1 << 20


def _as_batch(value, m: int, p: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] != m:
        raise ShapeMismatchError(f"source vector must hold exactly {m} symbols, got {arr.shape}")
    return np.mod(arr.reshape(m, 1), p)


def _decoded_chunks(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, np.ndarray], numbered: dict
) -> Iterator[tuple[int, np.ndarray]]:
    """Every terminal's decoded values of the (m, n) code, given every
    source's m x T block of residues, of any integer dtype, and the
    numbering ``_check_compatible`` returns for the network and the code,
    a chunk of whole trials at a time: yields the chunk's first trial and
    its (terminals, m, h) block, terminals in ``net.terminals()`` order.
    Each chunk of h trials runs
    through the (c, c+s) core as c x wh, copy u of trial t as column
    u*h + t, so lifted row a*w + u of trial t is core row a of that column
    (m = c below).

    Values live in one array with rows by canonical node id: m per source,
    so that they stack to the source vector, then n per bottleneck head.
    ``_check_compatible`` guarantees that head i is fed by tail i alone and
    tail i by every source that kernel i reads, whose stacked columns are
    also their value rows, so head i's rows are one product of kernel i
    with those rows.  Each decoder is scattered once into one
    (terminals * m) x (value rows) matrix at its tails' rows, so one
    product per chunk decodes every terminal.  That matrix and the kernels
    are prepared for the kernel once (``_prepare``), not once per chunk.

    Values are held as float64.  A head's product is left unreduced
    (delayed reduction) whenever it is one exact pass, and the decode
    product takes the values with the largest magnitude of their rows, so
    the kernel reduces each chunk once after its decode product, or first
    reduces the values if that product would pass its bound.
    """
    d, p, w, (m, n) = net.design, code.field.p, code.w, code.core_params.rate
    head_rows, first_head = (d.v + d.b) * m, _first_id(d, BOTTLENECK_HEAD)
    height = head_rows + d.v * n
    columns = [_kernel_columns(d, i, m) for i in range(d.v)]
    terminals = net.terminals()
    # built as float64, the form it is prepared in: its entries are sums of
    # a few residues, far below 2**53
    decode = np.zeros((len(terminals) * m, height))
    for x, t in enumerate(terminals):
        matrix = code.core_decoders[t].matrix
        tail, kind = numbered[t]
        width, start = _in_edge_columns(kind, m, n)
        # a tail is a source of the design or a bottleneck head
        row = np.where(tail < d.v + d.b, tail * m, head_rows + (tail - first_head) * n)
        at = np.repeat(row - start, width) + np.arange(matrix.cols)
        # np.add.at, unlike =, adds every block of a tail listed twice
        np.add.at(decode[x * m : (x + 1) * m], (slice(None), at), matrix.array)
    decode = _prepare(np.fmod(decode, p, out=decode), p, out=decode)
    kernels = [_prepare(kernel.array, p) for kernel in code.core_kernels]
    # a source's canonical id is its index in the stacked layout
    given = [(net._canonical_ids[net._ids[s]] * m, x) for s, x in sources.items()]
    trials = given[0][1].shape[1] if given else 0
    # chunks of whole trials, evenly wide
    per = max(min(_CHUNK_COLUMNS, _CHUNK_CELLS // (height + len(terminals) * m)) // w, 1)
    step = -(-trials // max(trials // per, 1)) or 1
    for lo in range(0, trials, step):
        h = min(step, trials - lo)
        values = np.zeros((height, w * h))
        for at, x in given:
            values[at : at + m] = x[:, lo : lo + h].reshape(m, w * h)
        # the largest magnitude of the heads left unreduced, if any was
        unreduced = 0
        for i, kernel in enumerate(kernels):
            head = _matmul_mod(kernel, values[columns[i]], p, reduce=False)
            if isinstance(head, _Prepared):
                head, unreduced = head.balanced, max(unreduced, head.magnitude, p - 1)
            values[head_rows + i * n : head_rows + (i + 1) * n] = head
        decoded = _matmul_mod(decode, _Prepared(values, unreduced) if unreduced else values, p)
        yield lo, decoded.reshape(len(terminals), m * w, h)


def _simulate_batch(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, np.ndarray], numbered: dict
) -> dict[NodeId, np.ndarray]:
    """Each terminal's decoded m x T block of the (m, n) code, gathered from
    ``_decoded_chunks``."""
    terminals = net.terminals()
    trials = next(iter(sources.values())).shape[1] if sources else 0
    decoded = np.empty((len(terminals), code.params.m, trials), dtype=np.int64)
    for lo, chunk in _decoded_chunks(net, code, sources, numbered):
        decoded[:, :, lo : lo + chunk.shape[2]] = chunk
    return {t: decoded[x] for x, t in enumerate(terminals)}


def simulate(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, object]
) -> dict[NodeId, np.ndarray]:
    """Push one assignment of source vectors through the network.

    ``sources`` maps every source node to a length-m integer vector; the
    result maps every terminal to its decoded length-m vector.
    """
    numbered = _check_compatible(net, code)
    m, p = code.params.m, code.field.p
    missing = [s for s in net.sources() if s not in sources]
    if missing:
        raise ShapeMismatchError(f"missing source values for {missing[0].label()}")
    batch = {s: _as_batch(sources[s], m, p) for s in net.sources()}
    outputs = _simulate_batch(net, code, batch, numbered)
    return {t: out[:, 0] for t, out in outputs.items()}


@dataclass
class SimulationSummary:
    ok: bool
    trials: int
    seed: int
    mismatched_trials: int = 0
    failures: list[Failure] = field(default_factory=list)


def simulate_trials(
    net: SumNetwork, code: NetworkCode, trials: int, seed: int
) -> SimulationSummary:
    """Run seeded random assignments and compare every terminal against the
    plain sum of the drawn sources.

    Each source's values are kept in the smallest dtype that holds p - 1,
    and each decoded chunk is compared with its sums as it is made, so only
    the mismatched trials and the first one of each terminal are kept."""
    numbered = _check_compatible(net, code)
    m, p = code.params.m, code.field.p
    rng = np.random.default_rng(seed)
    small = np.min_scalar_type(p - 1)
    sources, expected = {}, np.zeros((m, trials), dtype=np.int64)
    for s in net.sources():
        x = rng.integers(0, p, size=(m, trials))
        expected += x
        sources[s] = x.astype(small)
    if trials == 0:
        return SimulationSummary(ok=True, trials=0, seed=seed)
    expected %= p
    terminals, bad_trials, first = net.terminals(), np.zeros(trials, dtype=bool), {}
    for lo, decoded in _decoded_chunks(net, code, sources, numbered):
        want = expected[:, lo : lo + decoded.shape[2]]
        wrong = (decoded != want).any(axis=1)
        bad_trials[lo : lo + decoded.shape[2]] |= wrong.any(axis=0)
        for x in np.flatnonzero(wrong.any(axis=1)).tolist():
            if terminals[x] in first:
                continue
            trial = int(np.argmax(wrong[x]))  # one witness per terminal keeps reports short
            first[terminals[x]] = (
                f"trial {lo + trial}: decoded {decoded[x, :, trial].tolist()}, "
                f"sum of sources is {want[:, trial].tolist()}"
            )
    failures = [Failure(at=t, detail=first[t]) for t in sorted(first, key=lambda x: x.sort_key)]
    return SimulationSummary(
        ok=not failures,
        trials=trials,
        seed=seed,
        mismatched_trials=int(bad_trials.sum()),
        failures=failures,
    )


def _first_rows_outside(
    net: SumNetwork, code: NetworkCode, groups: dict[NodeId, tuple[int, ...]]
) -> Iterator[tuple[int, int]]:
    """For each group of points in ``groups``, keyed by the terminal that
    decodes from their bottlenecks, whose bottlenecks do not determine the
    sum of every source their kernels read: the group's position and the
    first row of that sum outside their row space, times w.

    The system is the group's kernels R scattered into the union of the
    sources they read, in stacked order, against T = [I ... I] over that
    union.  The terminal's decoder certifies it: when every head the
    decoder reads is the group's, its head-only map (``_head_maps``) is
    X R for its head blocks X and zero off the union, and when that map is
    I on each of the union's m x m blocks mod p, X R = T exactly, so every
    row of T lies in the row space.  A head from outside the group proves
    nothing of the group's kernels.  Only a group left uncertified is
    eliminated: a kernel reads its sources in stacked order, so a single
    point's system is its kernel against its partial sum over the kernel's
    own columns.  Each width's target is made once."""
    numbered = _check_compatible(net, code)
    d, f, w, (m, n) = net.design, code.field, code.w, code.core_params.rate
    reads = [_kernel_columns(d, i, 1) for i in range(d.v)]
    terminals, points = list(groups), [list(x) for x in groups.values()]
    members = np.zeros((len(points), d.v), dtype=bool)
    members[np.repeat(np.arange(len(points)), [len(x) for x in points]), _joined(points)] = True
    certified, eye = np.zeros(len(points), dtype=bool), np.eye(m, dtype=bool)
    for lo, hi, got, (owner, tail, kind, _) in _head_maps(net, code, numbered, terminals):
        head = kind == _HEAD_TO_TERMINAL
        foreign = ~members[owner[head] + lo, tail[head] - _first_id(d, BOTTLENECK_HEAD)]
        # each group's sources, a source once per kernel that reads it
        listed = [[reads[i] for i in y] for y in points[lo:hi]]
        x = np.repeat(np.arange(hi - lo), [sum(map(len, y)) for y in listed])
        block = got.reshape(hi - lo, m, -1, m)[x, :, _joined(chain.from_iterable(listed))]
        wrong = (block % f.p != eye).any(axis=(1, 2))
        certified[lo:hi] = np.bincount(_joined([owner[head][foreign], x[wrong]]), minlength=hi - lo) == 0
    offsets, targets = np.arange(m), {}
    for g in np.flatnonzero(~certified).tolist():
        union = np.zeros(d.v + d.b, dtype=bool)
        for point in points[g]:
            union[reads[point]] = True
        # each source's position in the union
        position = np.cumsum(union) - 1
        size = int(position[-1]) + 1
        rows = np.zeros((len(points[g]) * n, size * m), dtype=np.int64)
        for r, point in enumerate(points[g]):
            columns = (position[reads[point], None] * m + offsets).ravel()
            rows[r * n : (r + 1) * n, columns] = code.core_kernels[point].array
        if size not in targets:
            targets[size] = FieldMatrix._trusted(f, np.tile(np.eye(m, dtype=np.int64), size))
        if not row_space_contains(FieldMatrix._trusted(f, rows), targets[size]):
            yield g, int(_rows_outside_row_space(rows, targets[size].array, f.p)[0]) * w


def partial_sum_recoverable(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Every bottleneck's partial-sum map must lie in its encoder's row space.

    This holds for any correct code, in either regime: the symbols on
    bottleneck i must determine the partial sum at point i.
    """
    groups = {NodeId(TERMINAL_POINT, i): (i,) for i in range(net.design.v)}
    failures = [
        Failure(
            at=NodeId(BOTTLENECK_TAIL, i),
            detail=f"partial-sum row {row} not recoverable from bottleneck {i + 1}",
        )
        for i, row in _first_rows_outside(net, code, groups)
    ]
    return VerifyResult(ok=not failures, failures=failures)


def block_sum_recoverable(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """For each block, the sum of its points' sources plus all block sources
    in its neighborhood must be recoverable from its points' bottlenecks."""
    groups = {NodeId(TERMINAL_BLOCK, j): points for j, points in enumerate(net.design.blocks)}
    failures = [
        Failure(
            at=NodeId(TERMINAL_BLOCK, j),
            detail=f"block {j + 1} neighborhood sum row {row} not recoverable",
        )
        for j, row in _first_rows_outside(net, code, groups)
    ]
    return VerifyResult(ok=not failures, failures=failures)


@dataclass(frozen=True)
class CapacityReport:
    regime: str
    achieved: Fraction
    upper: Fraction
    matches: bool


def fractional_upper_bound(d: Design) -> Fraction:
    """The upper bound v/(v+b) on the rate of a lambda=1 design's network
    over a field whose characteristic does not divide k-1.

    The bound depends on the alphabet, so it is not a cut-set bound: when
    the characteristic divides k-1 the scalar code reaches rate 1.  It
    equals k(k-1)/(k(k-1)+v-1) whenever b has its lambda=1 value
    v(v-1)/(k(k-1)); both forms are computed and compared.
    """
    if d.lambda_ != 1:
        raise UnsupportedLambdaError(f"bound stated for lambda=1 designs, got {d.lambda_}")
    bound = Fraction(d.v, d.v + d.b)
    closed_form = Fraction(d.k * (d.k - 1), d.k * (d.k - 1) + d.v - 1)
    if bound != closed_form:
        problem = f"upper bound {bound} != {closed_form}: b={d.b} is off its lambda=1 value"
        raise InvalidDesignError(ValidationReport([problem]))
    return bound


def capacity_report(d: Design, f: PrimeField) -> CapacityReport:
    """Achieved rate m/n of the synthesized code next to the upper bound.

    When the characteristic divides k-1 the scalar code meets the trivial
    bound of 1.  Otherwise the bound is ``fractional_upper_bound``; the
    fractional code's rate equals it for every lambda=1 design, which
    ``matches`` records after exact rational comparison.
    """
    if d.lambda_ != 1:
        raise UnsupportedLambdaError(f"capacity stated for lambda=1 designs, got {d.lambda_}")
    params = code_params_for(d, f)
    achieved = Fraction(params.m, params.n)
    upper = Fraction(1) if params.regime == REGIME_DIVIDES else fractional_upper_bound(d)
    return CapacityReport(
        regime=params.regime, achieved=achieved, upper=upper, matches=achieved == upper
    )
