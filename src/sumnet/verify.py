"""Deterministic and randomized verification of synthesized codes.

``transfer_check`` is the authority: it composes each terminal's decoder
with the global maps of its in-edges and demands the all-identity sum map.
By linearity that settles correctness for every input.  The composition
goes block by block: a direct edge carries its source unchanged, so only
head edges need a product, and only with the columns of the sources wired
into their bottleneck.  ``simulate`` re-derives the same answers by
pushing concrete values through the graph, giving an independent
evaluation path for cross-checks.

Decoders hold their in-edges only as integer arrays (``TerminalDecoder``),
and ``TerminalDecoder._ids_at`` numbers their tails canonically over the
design, so no per-terminal step makes ``Edge`` objects:
``_check_compatible`` compares those ids with the network's in-index, the
transfer map scatters a direct edge's block to the columns at its tail
id times m, and simulation gathers each decoder's input by tail id.

The paper's fractional code is w interleaved copies of a small core code
(``NetworkCode.interleaved_core``), and each copy acts on its own
coordinates, so a check of the core decides the check of the code.  Every check is
written once, for a code and the w it is lifted by, and maps the core's
rows and columns back to the lifted layout: row a is row a*w, stacked
column b is column b*w.  That is the first hit the same check finds on
the lifted code, so every failure text is the same.  A code that is not
an interleaving (the scalar code, a re-based one, one corrupted in a
single copy) is checked as it is, by the same function at w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coding import (
    REGIME_DIVIDES,
    NetworkCode,
    UnsupportedLambdaError,
    code_params_for,
    column_source,
    partial_sum_row,
    source_column,
    sources_sum_map,
    stacked_width,
    sum_map,
)
from .designs import Design, InvalidDesignError, ValidationReport
from .field import (
    FieldMatrix,
    PrimeField,
    _matmul_mod,
    _rows_outside_row_space,
    row_space_contains,
    vstack,
)
from .network import (
    _HEAD_TO_TERMINAL,
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    NodeId,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    SumNetwork,
    _canonical_nodes,
    topological_order,
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


def _check_compatible(net: SumNetwork, code: NetworkCode) -> None:
    if code.design != net.design:
        raise ShapeMismatchError("code was built for a different design")
    if len(code.encoders) != net.design.v:
        raise ShapeMismatchError(
            f"{len(code.encoders)} encoders for {net.design.v} bottlenecks"
        )
    d, m, n = net.design, code.params.m, code.params.n
    width = stacked_width(d, m)
    for i, enc in enumerate(code.encoders):
        if enc.shape != (n, width):
            raise ShapeMismatchError(f"encoder {i + 1} has shape {enc.shape}, expected {(n, width)}")
        # simulation hands an encoder only its wired sources' values, so a
        # coefficient anywhere else would make it disagree with transfer_check
        wired = {source_column(d, e.tail, m) // m for e in net.tail_in_edges(i)}
        unwired = set((np.flatnonzero(enc.array.any(axis=0)) // m).tolist()) - wired
        if unwired:
            source, _ = column_source(d, min(unwired) * m, m)
            raise ShapeMismatchError(
                f"bottleneck {i + 1} reads {source.label()}, which is not wired into it"
            )
    canonical, kinds = net._canonical_ids, len(net._kinds)
    for t in net.terminals():
        if t not in code.decoders:
            raise ShapeMismatchError(f"no decoder for {t.label()}")
        dec = code.decoders[t]
        ids = dec._ids_at(t, d)
        into = net._in_ids(t)
        if ids is None or not _same_in_edges(ids, canonical[net._tail[into]], net._kind[into], kinds):
            raise ShapeMismatchError(f"decoder in-edges disagree with network at {t.label()}")
        _, kind = ids
        heads = int(np.count_nonzero(kind == _HEAD_TO_TERMINAL))
        expect_cols = heads * n + (len(kind) - heads) * m
        if dec.matrix.shape != (m, expect_cols):
            raise ShapeMismatchError(
                f"decoder at {t.label()} has shape {dec.matrix.shape}, expected {(m, expect_cols)}"
            )


def _same_in_edges(
    ids: tuple[np.ndarray, np.ndarray], tail: np.ndarray, kind: np.ndarray, kinds: int
) -> bool:
    """Whether a decoder's in-edges, ``ids`` = (tail id, kind code), are a
    terminal's in-edges (``tail``, ``kind``) in the network's order or, as a
    set, in any order; kind codes are below ``kinds``."""
    dec_tail, dec_kind = ids
    if np.array_equal(dec_tail, tail) and np.array_equal(dec_kind, kind):
        return True
    return np.array_equal(np.unique(dec_tail * kinds + dec_kind), np.unique(tail * kinds + kind))


def _wired_columns(net: SumNetwork, i: int, m: int) -> np.ndarray:
    """The stacked columns of the sources wired into bottleneck i, in
    ``tail_in_edges`` order: the only columns its encoder may read."""
    starts = [source_column(net.design, e.tail, m) for e in net.tail_in_edges(i)]
    return (np.array(starts)[:, None] + np.arange(m)).ravel()


def _terminal_map(code: NetworkCode, t: NodeId, wired: list[np.ndarray]) -> np.ndarray:
    """The residues of terminal t's end-to-end map from the stacked sources.

    A direct edge's decoder block lands at its source's columns, which
    start at the source's canonical id times m; a head edge contributes its
    decoder block times the bottleneck's encoder, which
    ``_check_compatible`` has confined to the ``wired`` columns.
    """
    d, m, n, f = code.design, code.params.m, code.params.n, code.field
    dec = code.decoders[t]
    tail, kind = dec._ids_at(t, d)
    blocks = dec.matrix.array
    head = kind == _HEAD_TO_TERMINAL
    width = np.where(head, n, m)
    start = np.cumsum(width) - width  # each in-edge's first decoder column
    got = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    first_head = 2 * d.v + d.b  # the canonical id of bottleneck-head:1
    for i, col in zip((tail[head] - first_head).tolist(), start[head].tolist()):
        cols = wired[i]
        local = FieldMatrix._trusted(f, code.encoders[i].array[:, cols])
        got[:, cols] += (FieldMatrix(f, blocks[:, col : col + n]) @ local).array
    # np.add.at, unlike +=, adds every block of a source listed twice
    offsets = np.arange(m)
    at = (start[~head, None] + offsets).ravel()
    src = (tail[~head, None] * m + offsets).ravel()
    np.add.at(got, (slice(None), src), blocks[:, at])
    return got % f.p


def transfer_check(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Verify that every terminal's end-to-end map is the sum of sources."""
    _check_compatible(net, code)
    return _transfer_check(net, *code.interleaved_core)


def _transfer_check(net: SumNetwork, code: NetworkCode, w: int) -> VerifyResult:
    """``transfer_check`` of ``code`` lifted by I_w.  The lift of the end-to-
    end map is the map of the lift, so its first wrong entry is the core's
    first one at row*w, col*w."""
    d, m = net.design, code.params.m
    want = sum_map(d, m, code.field).array
    wired = [_wired_columns(net, i, m) for i in range(d.v)]
    failures = []
    for t in net.terminals():
        got = _terminal_map(code, t, wired)
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


def _simulate_batch(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, np.ndarray]
) -> dict[NodeId, np.ndarray]:
    d, m, p = net.design, code.params.m, code.field.p
    emitted: dict[NodeId, np.ndarray] = {}
    for node in topological_order(net):
        if node.kind in (SOURCE_POINT, SOURCE_BLOCK):
            emitted[node] = sources[node]
        elif node.kind == BOTTLENECK_TAIL:
            # local encoding: only the column blocks of sources actually
            # wired into this tail participate
            local = code.encoders[node.index].array[:, _wired_columns(net, node.index, m)]
            received = np.concatenate([emitted[e.tail] for e in net.tail_in_edges(node.index)])
            emitted[node] = _matmul_mod(local, received, p)
        elif node.kind == BOTTLENECK_HEAD:
            (e,) = net.in_edges(node)
            emitted[node] = emitted[e.tail]
    # each node's symbols by canonical id; a decoder's in-edges are edges
    # of the network, so their tails are sources and bottleneck heads in it
    values = [emitted.get(x) for x in _canonical_nodes(d.v, d.b)]
    outputs = {}
    for t in net.terminals():
        dec = code.decoders[t]
        tail, _ = dec._ids_at(t, d)
        received = np.concatenate([values[x] for x in tail.tolist()])
        outputs[t] = _matmul_mod(dec.matrix.array, received, p)
    return outputs


def simulate(
    net: SumNetwork, code: NetworkCode, sources: dict[NodeId, object]
) -> dict[NodeId, np.ndarray]:
    """Push one assignment of source vectors through the network.

    ``sources`` maps every source node to a length-m integer vector; the
    result maps every terminal to its decoded length-m vector.
    """
    _check_compatible(net, code)
    m, p = code.params.m, code.field.p
    missing = [s for s in net.sources() if s not in sources]
    if missing:
        raise ShapeMismatchError(f"missing source values for {missing[0].label()}")
    batch = {s: _as_batch(sources[s], m, p) for s in net.sources()}
    outputs = _simulate_batch(net, code, batch)
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
    _check_compatible(net, code)
    return _simulate_trials(net, *code.interleaved_core, trials, seed)


def _simulate_trials(
    net: SumNetwork, code: NetworkCode, w: int, trials: int, seed: int
) -> SimulationSummary:
    """``simulate_trials`` of ``code`` lifted by I_w.  Sources are drawn at
    the lifted length, and copy u of trial t runs through the core as trial
    u*trials + t."""
    c, p = code.params.m, code.field.p
    m = c * w
    rng = np.random.default_rng(seed)
    sources = {s: rng.integers(0, p, size=(m, trials)) for s in net.sources()}
    if trials == 0:
        return SimulationSummary(ok=True, trials=0, seed=seed)
    expected = np.mod(sum(sources.values()), p)
    # lifted row a*w + u of trial t is core row a of trial u*trials + t
    batch = {s: np.mod(x, p).reshape(c, w * trials) for s, x in sources.items()}
    outputs = {t: out.reshape(m, trials) for t, out in _simulate_batch(net, code, batch).items()}
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
    return _partial_sum_recoverable(net, *code.interleaved_core)


def _partial_sum_recoverable(net: SumNetwork, code: NetworkCode, w: int) -> VerifyResult:
    """``partial_sum_recoverable`` of ``code`` lifted by I_w, whose row
    space is w copies of the core's, so core row a is lifted row a*w."""
    d, m, f = net.design, code.params.m, code.field
    failures = []
    for i in range(d.v):
        target = partial_sum_row(d, i, m, f)
        if not row_space_contains(code.encoders[i], target):
            row = _first_row_outside(code.encoders[i], target) * w
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
    return _block_sum_recoverable(net, *code.interleaved_core)


def _block_sum_recoverable(net: SumNetwork, code: NetworkCode, w: int) -> VerifyResult:
    """``block_sum_recoverable`` of ``code`` lifted by I_w; rows map back as
    in ``_partial_sum_recoverable``."""
    d, m, f = net.design, code.params.m, code.field
    failures = []
    for j in range(d.b):
        sources = [NodeId(SOURCE_POINT, point) for point in d.blocks[j]]
        sources += [NodeId(SOURCE_BLOCK, l) for l in d.block_neighborhood(j)]
        target_mat = sources_sum_map(d, sources, m, f)
        stacked = vstack([code.encoders[point] for point in d.blocks[j]])
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
