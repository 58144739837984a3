"""Deterministic and randomized verification of synthesized codes.

``transfer_check`` is the authority: it composes each terminal's decoder
with the global maps of its in-edges and demands the all-identity sum map.
By linearity that settles correctness for every input.  The composition
goes block by block: a direct edge carries its source unchanged, so only
head edges need a product.  ``simulate`` re-derives the same answers by
pushing concrete values through the graph edge by edge, giving an
independent evaluation path for cross-checks.
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
    source_columns,
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
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_HEAD_TO_TERMINAL,
    NodeId,
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    SumNetwork,
    topological_order,
)


class ShapeMismatchError(ValueError):
    """The code and network do not describe the same system."""


@dataclass
class Failure:
    at: NodeId | None
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
    for t in net.terminals():
        if t not in code.decoders:
            raise ShapeMismatchError(f"no decoder for {t.label()}")
        dec = code.decoders[t]
        # a decoder built for this network lists all of the terminal's
        # in-edges in canonical order; only another order needs the sets
        canonical = net.terminal_in_edges(t)
        in_edges = net.in_edges(t)
        in_order = dec.in_edges == canonical and len(canonical) == len(in_edges)
        if not in_order and set(dec.in_edges) != set(in_edges):
            raise ShapeMismatchError(f"decoder in-edges disagree with network at {t.label()}")
        heads = [e.kind for e in dec.in_edges].count(EDGE_HEAD_TO_TERMINAL)
        expect_cols = heads * n + (len(dec.in_edges) - heads) * m
        if dec.matrix.shape != (m, expect_cols):
            raise ShapeMismatchError(
                f"decoder at {t.label()} has shape {dec.matrix.shape}, expected {(m, expect_cols)}"
            )


def _terminal_map(code: NetworkCode, t: NodeId, starts: dict[NodeId, int]) -> np.ndarray:
    """The residues of terminal t's end-to-end map from the stacked sources.

    A direct edge's decoder block lands at its source's columns; a head
    edge contributes its decoder block times the bottleneck's encoder.
    ``starts`` memoizes ``source_column`` across the terminals of a code.
    """
    d, m, n, f = code.design, code.params.m, code.params.n, code.field
    dec = code.decoders[t]
    blocks = dec.matrix.array
    got = np.zeros((m, stacked_width(d, m)), dtype=np.int64)
    direct_at, direct_src = [], []
    col = 0
    for e in dec.in_edges:
        if e.kind == EDGE_HEAD_TO_TERMINAL:
            got += (FieldMatrix(f, blocks[:, col : col + n]) @ code.encoders[e.tail.index]).array
            col += n
        else:
            start = starts.get(e.tail)
            if start is None:
                start = starts[e.tail] = source_column(d, e.tail, m)
            direct_at.append(col)
            direct_src.append(start)
            col += m
    if direct_at:
        offsets = np.arange(m)
        at = (np.array(direct_at)[:, None] + offsets).ravel()
        src = (np.array(direct_src)[:, None] + offsets).ravel()
        np.add.at(got, (slice(None), src), blocks[:, at])
    return got % f.p


def transfer_check(net: SumNetwork, code: NetworkCode) -> VerifyResult:
    """Verify that every terminal's end-to-end map is the sum of sources."""
    _check_compatible(net, code)
    d, m = net.design, code.params.m
    want = sum_map(d, m, code.field).array
    starts: dict[NodeId, int] = {}
    failures = []
    for t in net.terminals():
        got = _terminal_map(code, t, starts)
        if not np.array_equal(got, want):
            row, col = map(int, np.argwhere(got != want)[0])
            source, offset = column_source(d, col, m)
            failures.append(
                Failure(
                    at=t,
                    detail=(
                        f"unit input at {source.label()}[{offset}] decodes to "
                        f"{int(got[row, col])}, expected {int(want[row, col])} "
                        f"(output row {row})"
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
            in_edges = net.tail_in_edges(node.index)
            enc = code.encoders[node.index].array
            local = np.concatenate([enc[:, source_columns(d, e.tail, m)] for e in in_edges], axis=1)
            received = np.concatenate([emitted[e.tail] for e in in_edges])
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
    m, p = code.params.m, code.field.p
    rng = np.random.default_rng(seed)
    sources = {s: rng.integers(0, p, size=(m, trials)) for s in net.sources()}
    if trials == 0:
        return SimulationSummary(ok=True, trials=0, seed=seed)
    expected = np.mod(sum(sources.values()), p)
    outputs = _simulate_batch(net, code, {s: np.mod(x, p) for s, x in sources.items()})
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

    This holds for any correct code, whatever its family: the symbols on
    bottleneck i must determine the partial sum at point i.
    """
    _check_compatible(net, code)
    d, m, f = net.design, code.params.m, code.field
    failures = []
    for i in range(d.v):
        target = partial_sum_row(d, i, m, f)
        if not row_space_contains(code.encoders[i], target):
            row = _first_row_outside(code.encoders[i], target)
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
    d, m, f = net.design, code.params.m, code.field
    failures = []
    for j in range(d.b):
        sources = [NodeId(SOURCE_POINT, point) for point in d.blocks[j]]
        sources += [NodeId(SOURCE_BLOCK, l) for l in d.block_neighborhood(j)]
        target_mat = sources_sum_map(d, sources, m, f)
        stacked = vstack([code.encoders[point] for point in d.blocks[j]])
        if not row_space_contains(stacked, target_mat):
            row = _first_row_outside(stacked, target_mat)
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
    """Achieved rate of the synthesized code family next to the upper bound.

    When the characteristic divides k-1 the scalar code meets the trivial
    bound of 1.  Otherwise the fractional code's rate m/n is reported next
    to ``fractional_upper_bound``; the two agree for every lambda=1 design,
    which ``matches`` records after exact rational comparison.
    """
    if d.lambda_ != 1:
        raise UnsupportedLambdaError(f"capacity stated for lambda=1 designs, got {d.lambda_}")
    params = code_params_for(d, f)
    if params.regime == REGIME_DIVIDES:
        one = Fraction(1)
        return CapacityReport(regime=params.regime, achieved=one, upper=one, matches=True)
    achieved = Fraction(params.m, params.n)
    upper = fractional_upper_bound(d)
    return CapacityReport(
        regime=params.regime, achieved=achieved, upper=upper, matches=achieved == upper
    )
