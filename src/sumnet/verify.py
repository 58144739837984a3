"""Deterministic and randomized verification of synthesized codes.

``transfer_check`` is the authority: it composes each terminal's decoder
with the global maps of its in-edges and demands the all-identity sum map.
By linearity that settles correctness for every input.  The composition
goes block by block: a direct edge carries its source unchanged, so only
head edges need a product, and only with the columns of the sources wired
into their bottleneck.  ``simulate`` re-derives the same answers from
concrete values, giving an independent evaluation path for cross-checks.
It writes source and bottleneck-head values into one array with rows by
canonical node id, computes each head's rows with one product of its
bottleneck's encoder and the rows of its wired sources, and decodes every
terminal with one product of a matrix that holds all decoders, scattered
by tail id.  The trial columns go through in chunks of about
``_CHUNK_CELLS`` cells, so the value array stays small however many
trials run.

Both paths rest on the wiring that ``_check_compatible`` states and every
entry point checks first: bottleneck tail i is fed by sources of the
design alone, bottleneck head i by tail i alone along the bottleneck edge,
each decoder lists exactly its terminal's in-edges, and the network lists
the design's sources and terminals once each.  A network wired otherwise
is refused with ``ShapeMismatchError``, so neither path walks the graph.
The check reads the network's in-index, and decoders hold their in-edges
only as integer arrays (``TerminalDecoder``), which the check numbers
canonically over the design, so no check and no simulation makes an
``Edge``.

A code is held as its (c, c+s) core and the number w of interleaved
copies (``NetworkCode``), and each copy acts on its own coordinates, so a
check of the core decides the check of the code.  Every check reads only
the held core and maps its rows and columns back to the lifted layout:
row a is row a*w, stacked column b is column b*w.  That is the first hit
the same check finds on the lifted code, so every failure text is the
same.  A code that is not an interleaving (the scalar code, a re-based
one, one corrupted in a single copy) is held at w = 1 and checked as it
is.  No check lifts a map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .coding import (
    REGIME_DIVIDES,
    NetworkCode,
    UnsupportedLambdaError,
    _fitting,
    _in_edge_columns,
    _sources_sum_array,
    code_params_for,
    column_source,
    partial_sum_row,
    stacked_width,
    sum_map,
)
from .designs import Design, InvalidDesignError, ValidationReport
from .field import (
    _EXACT,
    FieldMatrix,
    PrimeField,
    _matmul_mod,
    _rows_outside_row_space,
    row_space_contains,
    vstack,
)
from .network import (
    _BOTTLENECK,
    _HEAD_TO_TERMINAL,
    _KIND_ORDER,
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    NodeId,
    TERMINAL_BLOCK,
    SumNetwork,
    _canonical_nodes,
    _kind_offsets,
)


class ShapeMismatchError(ValueError):
    """The code and network do not describe the same system."""


@dataclass
class Failure:
    at: NodeId
    detail: str


@dataclass
class VerifyResult:
    ok: bool
    failures: list[Failure] = field(default_factory=list)


def _check_compatible(
    net: SumNetwork, code: NetworkCode
) -> tuple[list[np.ndarray], dict[NodeId, tuple[np.ndarray, np.ndarray]]]:
    """Refuse a code that does not fit the network, and return its wiring:
    per bottleneck the stacked columns of the sources wired into its tail,
    in its in-edge order, the only columns its encoder may read; and per
    terminal its decoder's in-edges as (canonical tail id, kind code).

    Past this check tail i is fed by sources of the design alone, head i by
    tail i alone along the bottleneck edge, every decoder lists exactly its
    terminal's in-edges, and the network lists the design's sources and
    terminals once each.  Every comparison reads the held core; a shape is
    reported in the lifted layout, w times the core's."""
    if code.design != net.design:
        raise ShapeMismatchError("code was built for a different design")
    if len(code.core_encoders) != net.design.v:
        raise ShapeMismatchError(
            f"{len(code.core_encoders)} encoders for {net.design.v} bottlenecks"
        )
    d, w, (m, n) = net.design, code.w, code.core_params.rate
    width = stacked_width(d, m)
    canonical, wired = net._canonical_ids, []
    for i, enc in enumerate(code.core_encoders):
        if enc.shape != (n, width):
            raise ShapeMismatchError(
                f"encoder {i + 1} has shape {(enc.rows * w, enc.cols * w)}, "
                f"expected {(n * w, width * w)}"
            )
        # a source's canonical id is its index in the stacked layout
        sources = canonical[net._tail[net._in_ids(NodeId(BOTTLENECK_TAIL, i))]]
        if not ((0 <= sources) & (sources < d.v + d.b)).all():
            raise ShapeMismatchError(
                f"bottleneck {i + 1} is fed by a node that is no source of the design"
            )
        # simulation hands an encoder only its wired sources' values, so a
        # coefficient anywhere else would make it disagree with transfer_check
        unwired = np.zeros(d.v + d.b, dtype=bool)
        unwired[np.flatnonzero(enc.array.any(axis=0)) // m] = True
        unwired[sources] = False
        if unwired.any():
            source, _ = column_source(d, int(np.argmax(unwired)) * m, m)
            raise ShapeMismatchError(
                f"bottleneck {i + 1} reads {source.label()}, which is not wired into it"
            )
        wired.append((sources[:, None] * m + np.arange(m)).ravel())
    first_tail = _first_id(d, BOTTLENECK_TAIL)
    for i in range(d.v):
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
        if not (
            fits.all()
            and ids.terminal in (t, None)
            and _same_in_edges(tail, ids.kind, canonical[net._tail[into]], net._kind[into], kinds)
        ):
            raise ShapeMismatchError(f"decoder in-edges disagree with network at {t.label()}")
        numbered[t] = (tail, ids.kind)
        expect_cols = int(_in_edge_columns(ids.kind, m, n)[0].sum())
        dec = code.core_decoders[t].matrix
        if dec.shape != (m, expect_cols):
            raise ShapeMismatchError(
                f"decoder at {t.label()} has shape {(dec.rows * w, dec.cols * w)}, "
                f"expected {(m * w, expect_cols * w)}"
            )
    # the network lists each source and terminal of the design once, no other
    nodes, ends = _canonical_nodes(d.v, d.b), d.v + d.b
    design, listed = dict.fromkeys(nodes[:ends] + nodes[-ends:]), Counter(net.sources() + net.terminals())
    for x in chain(design, listed):
        if listed[x] != (x in design):
            fault = f" {listed[x]} times, not once" if x in design else ", which is no node of the design"
            raise ShapeMismatchError(f"the network lists {x.label()}{fault}")
    return wired, numbered


def _same_in_edges(
    dec_tail: np.ndarray, dec_kind: np.ndarray, tail: np.ndarray, kind: np.ndarray, kinds: int
) -> bool:
    """Whether a decoder's in-edges (``dec_tail`` id, ``dec_kind`` code) are
    a terminal's in-edges (``tail``, ``kind``) in the network's order or,
    as a set, in any order; kind codes are below ``kinds``."""
    if np.array_equal(dec_tail, tail) and np.array_equal(dec_kind, kind):
        return True
    return np.array_equal(np.unique(dec_tail * kinds + dec_kind), np.unique(tail * kinds + kind))


def _first_id(d: Design, kind: str) -> int:
    """The canonical id of the first node of ``kind`` in d's network."""
    return int(_kind_offsets(d.v, d.b)[0][_KIND_ORDER[kind]])


def _terminal_map(code: NetworkCode, t: NodeId, wiring: tuple) -> np.ndarray:
    """The residues of terminal t's end-to-end map from the stacked sources,
    for one copy of the core.

    A direct edge's decoder block lands at its source's columns, which
    start at the source's canonical id times m; a head edge from bottleneck
    i contributes its decoder block times encoder i, which
    ``_check_compatible`` has confined to the ``wired[i]`` columns of its
    ``wiring``.
    """
    d, f, (m, n) = code.design, code.field, code.core_params.rate
    wired, numbered = wiring
    tail, kind = numbered[t]
    blocks = code.core_decoders[t].matrix.array
    head = kind == _HEAD_TO_TERMINAL
    _, start = _in_edge_columns(kind, m, n)
    got = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    for i, col in zip((tail[head] - _first_id(d, BOTTLENECK_HEAD)).tolist(), start[head].tolist()):
        cols = wired[i]
        local = FieldMatrix._trusted(f, code.core_encoders[i].array[:, cols])
        got[:, cols] += (FieldMatrix(f, blocks[:, col : col + n]) @ local).array
    # np.add.at, unlike +=, adds every block of a source listed twice
    offsets = np.arange(m)
    at = (start[~head, None] + offsets).ravel()
    src = (tail[~head, None] * m + offsets).ravel()
    np.add.at(got, (slice(None), src), blocks[:, at])
    return got % f.p


def transfer_check(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Verify that every terminal's end-to-end map is the sum of sources.

    The map is composed for the core; its lift is the lifted code's map,
    so its first wrong entry is the core's first one at row*w, col*w."""
    wiring = _check_compatible(net, code)
    d, m, w = net.design, code.core_params.m, code.w
    want = sum_map(d, m, code.field).array
    failures = []
    for t in net.terminals():
        got = _terminal_map(code, t, wiring)
        if not np.array_equal(got, want):
            row, col = map(int, np.argwhere(got != want)[0])
            source, offset = column_source(d, col * w, m * w)
            failures.append(
                Failure(
                    at=t,
                    detail=(
                        f"unit input at {source.label()}[{offset}] decodes to "
                        f"{int(got[row, col])}, expected {int(want[row, col])} "
                        f"(output row {row * w})"
                    ),
                )
            )
    return VerifyResult(ok=not failures, failures=failures)


def _as_batch(value, m: int, p: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] != m:
        raise ShapeMismatchError(f"source vector must hold exactly {m} symbols, got {arr.shape}")
    return np.mod(arr.reshape(m, 1), p)


# simulation pushes its W columns through in chunks whose value array and
# decoded block hold about this many cells together (1 MiB as int64)
_CHUNK_CELLS = 1 << 17


def _simulate_batch(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, np.ndarray], wiring: tuple
) -> dict[NodeId, np.ndarray]:
    """Each terminal's decoded m x T block of the (m, n) code, given every
    source's m x T block of values and the wiring ``_check_compatible``
    returns for the network and the code.  Each block runs through the
    (c, c+s) core as c x wT, copy u of trial t as column u*T + t, so lifted
    row a*w + u of trial t is core row a of that column (m = c below).

    Values live in one array with rows by canonical node id: m per source,
    so that they stack to the source vector, then n per bottleneck head.
    ``_check_compatible`` guarantees that head i is fed by tail i alone and
    tail i by the sources at its ``wired[i]`` columns, which are also their
    value rows, so head i's rows are one product of encoder i's wired
    columns with those rows.  Each decoder is scattered once into one
    (terminals * m) x (value rows) matrix at its tails' rows, so one
    product per chunk of the wT columns decodes every terminal.
    """
    d, p, w, (m, n) = net.design, code.field.p, code.w, code.core_params.rate
    wired, numbered = wiring
    head_rows, first_head = (d.v + d.b) * m, _first_id(d, BOTTLENECK_HEAD)
    height = head_rows + d.v * n
    local = [code.core_encoders[i].array[:, cols] for i, cols in enumerate(wired)]
    terminals = net.terminals()
    decode = np.zeros((len(terminals) * m, height), dtype=np.int64)
    for x, t in enumerate(terminals):
        matrix = code.core_decoders[t].matrix
        tail, kind = numbered[t]
        width, start = _in_edge_columns(kind, m, n)
        # a tail is a source of the design or a bottleneck head
        row = np.where(tail < d.v + d.b, tail * m, head_rows + (tail - first_head) * n)
        at = np.repeat(row - start, width) + np.arange(matrix.cols)
        # np.add.at, unlike =, adds every block of a tail listed twice
        np.add.at(decode[x * m : (x + 1) * m], (slice(None), at), matrix.array)
    # a source's canonical id is its index in the stacked layout
    given = [(net._canonical_ids[net._ids[s]] * m, x.reshape(m, -1)) for s, x in sources.items()]
    cols = given[0][1].shape[1] if given else 0
    decoded = np.empty((len(terminals) * m, cols), dtype=np.int64)
    # chunks of about _CHUNK_CELLS cells, evenly wide
    wide = max(_CHUNK_CELLS // (height + len(decoded)), 1)
    if height * int(decode.max(initial=0)) * (p - 1) >= _EXACT:
        # past the plain bound the kernel rewrites its smaller operand in
        # balanced residues, which are small for decoder coefficients and
        # not for random values: keep the values the larger operand
        wide = max(wide, len(decoded))
    step = -(-cols // max(cols // wide, 1)) or 1
    for lo in range(0, cols, step):
        values = np.zeros((height, min(step, cols - lo)), dtype=np.int64)
        for at, x in given:
            values[at : at + m] = x[:, lo : lo + step]
        for i, enc in enumerate(local):
            rows = slice(head_rows + i * n, head_rows + (i + 1) * n)
            values[rows] = _matmul_mod(enc, values[wired[i]], p)
        decoded[:, lo : lo + step] = _matmul_mod(decode, values, p)
    return {t: decoded[x * m : (x + 1) * m].reshape(m * w, -1) for x, t in enumerate(terminals)}


def simulate(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, object]
) -> dict[NodeId, np.ndarray]:
    """Push one assignment of source vectors through the network.

    ``sources`` maps every source node to a length-m integer vector; the
    result maps every terminal to its decoded length-m vector.
    """
    wiring = _check_compatible(net, code)
    m, p = code.params.m, code.field.p
    missing = [s for s in net.sources() if s not in sources]
    if missing:
        raise ShapeMismatchError(f"missing source values for {missing[0].label()}")
    batch = {s: _as_batch(sources[s], m, p) for s in net.sources()}
    outputs = _simulate_batch(net, code, batch, wiring)
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
    plain sum of the drawn sources."""
    wiring = _check_compatible(net, code)
    m, p = code.params.m, code.field.p
    rng = np.random.default_rng(seed)
    sources = {s: rng.integers(0, p, size=(m, trials)) for s in net.sources()}
    if trials == 0:
        return SimulationSummary(ok=True, trials=0, seed=seed)
    expected = np.mod(sum(sources.values()), p)
    outputs = _simulate_batch(net, code, sources, wiring)
    failures = []
    bad_trials = np.zeros(trials, dtype=bool)
    for t in sorted(outputs, key=lambda x: x.sort_key):
        mismatched = np.nonzero((outputs[t] != expected).any(axis=0))[0]
        bad_trials[mismatched] = True
        for trial in mismatched[:1]:  # one witness per terminal keeps reports short
            failures.append(
                Failure(
                    at=t,
                    detail=(
                        f"trial {int(trial)}: decoded {outputs[t][:, trial].tolist()}, "
                        f"sum of sources is {expected[:, trial].tolist()}"
                    ),
                )
            )
    return SimulationSummary(
        ok=not failures,
        trials=trials,
        seed=seed,
        mismatched_trials=int(bad_trials.sum()),
        failures=failures,
    )


def _first_row_outside(basis: FieldMatrix, target: FieldMatrix) -> int:
    return int(_rows_outside_row_space(basis.array, target.array, basis.field.p)[0])


def partial_sum_recoverable(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Every bottleneck's partial-sum map must lie in its encoder's row space.

    This holds for any correct code, in either regime: the symbols on
    bottleneck i must determine the partial sum at point i.
    """
    _check_compatible(net, code)
    d, m, f, w = net.design, code.core_params.m, code.field, code.w
    # the lifted row space is w copies of the core's: core row a is row a*w
    failures = []
    for i in range(d.v):
        target = partial_sum_row(d, i, m, f)
        enc = code.core_encoders[i]
        if not row_space_contains(enc, target):
            row = _first_row_outside(enc, target) * w
            failures.append(
                Failure(
                    at=NodeId(BOTTLENECK_TAIL, i),
                    detail=f"partial-sum row {row} not recoverable from bottleneck {i + 1}",
                )
            )
    return VerifyResult(ok=not failures, failures=failures)


def block_sum_recoverable(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """For each block, the sum of its points' sources plus all block sources
    in its neighborhood must be recoverable from its points' bottlenecks."""
    _check_compatible(net, code)
    d, m, f, w = net.design, code.core_params.m, code.field, code.w
    # block x point incidence: the blocks sharing a point with block j are
    # the rows hit in its points' columns
    incidence = np.zeros((d.b, d.v), dtype=bool)
    incidence[np.repeat(np.arange(d.b), list(map(len, d.blocks))), list(chain(*d.blocks))] = True
    failures = []
    for j in range(d.b):
        points = np.array(d.blocks[j], dtype=np.int64)
        neighbors = np.flatnonzero(incidence[:, points].any(axis=1))
        target = _sources_sum_array(d, np.concatenate([points, d.v + neighbors]), m)
        target_mat = FieldMatrix._trusted(f, target)
        stacked = vstack([code.core_encoders[point] for point in d.blocks[j]])
        if not row_space_contains(stacked, target_mat):
            row = _first_row_outside(stacked, target_mat) * w
            failures.append(
                Failure(
                    at=NodeId(TERMINAL_BLOCK, j),
                    detail=f"block {j + 1} neighborhood sum row {row} not recoverable",
                )
            )
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
