"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see them as they happen).  Expected values are frozen from
independent oracles: exhaustive enumeration for row-space membership,
brute-force pair counting for designs, plain sums for simulations, and
hand-assembled matrices for the fractional encoders.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from sumnet.alphabet_change import (
    exhaustive_failure_search,
    extension_params,
    run_counterexample,
    unicast_control_holds,
)
from sumnet.cli import main
from sumnet.coding import (
    CharMismatchError,
    NetworkCode,
    TerminalDecoder,
    block_source_extractor,
    build_code,
    build_code_char_divides,
    partial_sum_row,
)
from sumnet.designs import Design, design_verify, fano, sts_bose
from sumnet.field import FieldMatrix, PrimeField, row_space_contains
from sumnet.network import (
    BOTTLENECK_HEAD,
    BOTTLENECK_TAIL,
    EDGE_DIRECT,
    TERMINAL_BLOCK,
    NodeId,
    build_sum_network,
    network_validate,
)
from sumnet.verify import (
    block_sum_recoverable,
    capacity_report,
    partial_sum_recoverable,
    simulate_trials,
    transfer_check,
)

from conftest import vstack

GRID_DESIGNS = {7: fano, 9: lambda: sts_bose(9), 15: lambda: sts_bose(15)}
GRID_PRIMES = (2, 3, 5, 7)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. scalar family end to end on the 7-point plane over GF(2)
# ---------------------------------------------------------------------------

def test_criterion_1_fano_gf2_end_to_end(capsys):
    start = time.perf_counter()
    net = build_sum_network(fano())
    code = build_code(net, PrimeField(2))
    result = transfer_check(net, code)
    terminals_checked = len(net.terminals())
    rate = Fraction(code.params.m, code.params.n)
    cap = capacity_report(fano(), PrimeField(2))
    rc = main(["code", "--fano", "--field", "2"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = (
        result.ok
        and terminals_checked == 14
        and rate == Fraction(1) == cap.achieved == cap.upper
        and code.params.regime == "char-divides"
        and rc == 0
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"scalar code over GF(2): 14/14 terminals, rate 1/1, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. fractional family end to end on the 7-point plane over GF(3)
# ---------------------------------------------------------------------------

# per bottleneck: the (block index, slice color) pairs in rank order;
# bottleneck 7 follows the general coloring rule
FANO_EXPECTED_SELECTORS = {
    0: [(0, 1), (2, 1), (3, 1)],
    1: [(0, 2), (4, 1), (6, 1)],
    2: [(0, 3), (1, 1), (5, 1)],
    3: [(1, 2), (3, 2), (6, 2)],
    4: [(1, 3), (2, 2), (4, 2)],
    5: [(2, 3), (5, 2), (6, 3)],
    6: [(3, 3), (4, 3), (5, 3)],
}


def _expected_fano_encoder(i: int, f: PrimeField) -> FieldMatrix:
    """Hand-assembled encoder: partial sum stacked over slice extractors."""
    d = fano()
    m, w = 6, 2
    parts = [partial_sum_row(d, i, m, f)]
    for block, color in FANO_EXPECTED_SELECTORS[i]:
        mat = np.zeros((w, 14 * m), dtype=np.int64)
        lo = (7 + block) * m + (color - 1) * w
        mat[:, lo : lo + w] = np.eye(w, dtype=np.int64)
        parts.append(FieldMatrix(f, mat))
    return vstack(parts)


def test_criterion_2_fano_gf3_end_to_end(capsys):
    start = time.perf_counter()
    f = PrimeField(3)
    net = build_sum_network(fano())
    code = build_code(net, f)
    result = transfer_check(net, code)
    layout_ok = all(code.encoders[i] == _expected_fano_encoder(i, f) for i in range(6))
    general_rule_ok = code.encoders[6] == _expected_fano_encoder(6, f)
    rc = main(["code", "--fano", "--field", "3"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = (
        (code.params.m, code.params.n) == (6, 12)
        and Fraction(code.params.m, code.params.n) == Fraction(1, 2)
        and result.ok
        and len(net.terminals()) == 14
        and layout_ok
        and general_rule_ok
        and rc == 0
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(2, ok, f"fractional code over GF(3): rate 6/12, layout exact, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. capacity formulas across the design/field grid
# ---------------------------------------------------------------------------

def test_criterion_3_capacity_grid(capsys):
    start = time.perf_counter()
    ok = True
    for v, make in GRID_DESIGNS.items():
        d = make()
        net = build_sum_network(d)
        for p in GRID_PRIMES:
            f = PrimeField(p)
            cap = capacity_report(d, f)
            if p == 2:
                ok &= cap.achieved == cap.upper == Fraction(1)
            else:
                ok &= cap.achieved == Fraction(6, 5 + v)
                ok &= cap.upper == Fraction(6, 5 + v)
                code = build_code(net, f)
                ok &= Fraction(code.params.m, code.params.n) == cap.upper
                ok &= cap.matches
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    with capsys.disabled():
        report(3, ok, f"capacity = 1 (p=2) and 6/(5+v) otherwise on the grid, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 4. oracle-equivalence property suite
# ---------------------------------------------------------------------------

def _oracle_design_valid(d: Design) -> bool:
    if any(len(set(blk)) != d.k for blk in d.blocks):
        return False
    counts = {pair: 0 for pair in itertools.combinations(range(d.v), 2)}
    for blk in d.blocks:
        for pair in itertools.combinations(sorted(blk), 2):
            counts[pair] += 1
    return all(c == d.lambda_ for c in counts.values())


def _oracle_row_membership(basis, target, p) -> bool:
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        combo = tuple(
            sum(c * row[idx] for c, row in zip(coeffs, basis)) % p for idx in range(len(target))
        )
        if combo == tuple(x % p for x in target):
            return True
    return False


def test_criterion_4_property_suite(capsys):
    rng = np.random.default_rng(2024)
    # design_verify vs brute-force pair counting on 60 randomized designs
    design_trials = 0
    designs_ok = True
    for base in (fano(), sts_bose(9), sts_bose(15)):
        for _ in range(10):
            perm = rng.permutation(base.v)
            good = Design(
                base.v,
                base.k,
                base.lambda_,
                tuple(tuple(int(perm[p]) for p in blk) for blk in base.blocks),
            )
            designs_ok &= design_verify(good).ok == _oracle_design_valid(good)
            j = int(rng.integers(base.b))
            blk = list(base.blocks[j])
            blk[int(rng.integers(base.k))] = int(
                rng.choice([x for x in range(base.v) if x not in blk])
            )
            bad = Design(
                base.v, base.k, base.lambda_, base.blocks[:j] + (tuple(blk),) + base.blocks[j + 1 :]
            )
            designs_ok &= design_verify(bad).ok == _oracle_design_valid(bad)
            designs_ok &= not design_verify(bad).ok
            design_trials += 2

    # row-space membership vs exhaustive coefficient enumeration
    rows_ok = True
    membership_trials = 0
    for p in (2, 3):
        f = PrimeField(p)
        for rows in (1, 2, 3):
            for _ in range(30):
                basis = rng.integers(0, p, size=(rows, 5)).tolist()
                target = rng.integers(0, p, size=5).tolist()
                got = row_space_contains(FieldMatrix(f, basis), FieldMatrix(f, [target]))
                rows_ok &= got == _oracle_row_membership(basis, target, p)
                membership_trials += 1

    # transfer matrices vs simulated transmissions, 1000 assignments per pair
    sims_ok = True
    for v, make in GRID_DESIGNS.items():
        d = make()
        net = build_sum_network(d)
        for p in GRID_PRIMES:
            code = build_code(net, PrimeField(p))
            sims_ok &= transfer_check(net, code).ok
            summary = simulate_trials(net, code, 1000, seed=v * 100 + p)
            sims_ok &= summary.ok and summary.mismatched_trials == 0

    ok = designs_ok and rows_ok and sims_ok and design_trials >= 50
    with capsys.disabled():
        report(
            4,
            ok,
            f"{design_trials} designs vs pair-count oracle, {membership_trials} row-space "
            "checks vs enumeration, 12x1000 simulations vs plain sums",
        )


# ---------------------------------------------------------------------------
# 5. recoverability checks and their mutations
# ---------------------------------------------------------------------------

def test_criterion_5_recoverability_suite(capsys):
    ok = True
    for v, make in GRID_DESIGNS.items():
        d = make()
        net = build_sum_network(d)
        for p in GRID_PRIMES:
            code = build_code(net, PrimeField(p))
            ok &= partial_sum_recoverable(net, code).ok
            ok &= block_sum_recoverable(net, code).ok

    # targeted mutation: zero out one encoder
    net = build_sum_network(fano())
    code = build_code(net, PrimeField(3))
    encoders = list(code.encoders)
    encoders[0] = FieldMatrix(code.field, np.zeros(encoders[0].shape, dtype=np.int64))
    broken = NetworkCode(
        design=code.design,
        field=code.field,
        params=code.params,
        encoders=tuple(encoders),
        decoders=code.decoders,
    )
    psum = partial_sum_recoverable(net, broken)
    bsum = block_sum_recoverable(net, broken)
    ok &= not psum.ok and psum.failures[0].at == NodeId(BOTTLENECK_TAIL, 0)
    ok &= not bsum.ok and {x.at.index for x in bsum.failures} == {0, 2, 3}
    with capsys.disabled():
        report(5, ok, "recoverability holds on the grid and breaks under a zeroed encoder")


# ---------------------------------------------------------------------------
# 6. structural invariants of every generated network
# ---------------------------------------------------------------------------

def test_criterion_6_structural_suite(capsys):
    ok = True
    for v, make in GRID_DESIGNS.items():
        d = make()
        net = build_sum_network(d)
        r = d.r
        ok &= len(net.nodes) == 2 * (d.v + d.b) + 2 * d.v
        out_degree = Counter(e.tail for e in net.edges)
        for i in range(d.v):
            ok &= len(net.in_edges(NodeId(BOTTLENECK_TAIL, i))) == r + 1
            ok &= out_degree[NodeId(BOTTLENECK_HEAD, i)] == r + 1
        m_edges = [e for e in net.edges if e.kind != EDGE_DIRECT]
        ok &= len(m_edges) == d.v + 2 * d.v * (r + 1)
        validation = network_validate(net)  # includes all-pairs reachability
        ok &= validation.ok
    with capsys.disabled():
        report(6, ok, "node counts, degrees, |M| and reachability hold on the grid")


# ---------------------------------------------------------------------------
# 7. alphabet-change demonstration
# ---------------------------------------------------------------------------

def test_criterion_7_counterexample_demo(capsys):
    demo = run_counterexample(2)
    outcomes = {o.two_maps_to: o for o in demo.outcomes}
    kprime = demo.params.kprime
    ok = (
        outcomes[1].decoded == (1,) * kprime
        and outcomes[1].expected == (0,) * kprime
        and outcomes[1].fails
    )
    # the per-message control case is exhaustively correct while kprime <= 6
    for gamma in (2, 3):
        params = extension_params(gamma)
        assert params.kprime <= 6
        ok &= unicast_control_holds(gamma)
    # and the honest search: one completion fails, the other is exhausted
    search = {o.two_maps_to: o for o in exhaustive_failure_search(2).outcomes}
    ok &= search[1].fails and search[0].exhausted
    with capsys.disabled():
        report(7, ok, "all-ones input breaks the 2->1 completion; unicast control is clean")


# ---------------------------------------------------------------------------
# 8. negative regime checks
# ---------------------------------------------------------------------------

def test_criterion_8_negative_regime(capsys):
    net = build_sum_network(fano())
    rejected = False
    try:
        build_code_char_divides(net, PrimeField(3))  # 3 does not divide k-1 = 2
    except CharMismatchError:
        rejected = True

    code = build_code(net, PrimeField(3))
    decoders = dict(code.decoders)
    for j in range(7):
        t = NodeId(TERMINAL_BLOCK, j)
        extractor = block_source_extractor(code, net, j)
        matrix = decoders[t].matrix.array + (fano().k - 1) * extractor.array
        decoders[t] = TerminalDecoder(
            in_edges=decoders[t].in_edges, matrix=FieldMatrix(code.field, matrix)
        )
    broken = NetworkCode(
        design=code.design,
        field=code.field,
        params=code.params,
        encoders=code.encoders,
        decoders=decoders,
    )
    result = transfer_check(net, broken)
    failed_at = {x.at for x in result.failures}
    ok = (
        rejected
        and not result.ok
        and failed_at == {NodeId(TERMINAL_BLOCK, j) for j in range(7)}
    )
    with capsys.disabled():
        report(8, ok, "wrong-characteristic build rejected; uncancelled overcount fails at t_B")
