import hashlib
from fractions import Fraction

import numpy as np
import pytest

from sumnet.coding import (
    NetworkCode,
    TerminalDecoder,
    UnsupportedLambdaError,
    block_source_extractor,
    build_code,
    build_code_char_divides,
)
from sumnet.designs import Design, InvalidDesignError, fano, sts_bose
from sumnet.field import FieldMatrix, PrimeField, vstack
from sumnet.network import (
    SOURCE_BLOCK,
    SOURCE_POINT,
    TERMINAL_BLOCK,
    NodeId,
    build_sum_network,
)
from sumnet.verify import (
    ShapeMismatchError,
    block_sum_recoverable,
    capacity_report,
    fractional_upper_bound,
    partial_sum_recoverable,
    simulate,
    simulate_trials,
    transfer_check,
)


def fano_code(p):
    net = build_sum_network(fano())
    code = build_code(net, PrimeField(p))
    return net, code


def zero_encoder(code: NetworkCode, i: int) -> NetworkCode:
    encoders = list(code.encoders)
    encoders[i] = code.field.zeros(*encoders[i].shape)
    return NetworkCode(
        design=code.design,
        field=code.field,
        params=code.params,
        encoders=tuple(encoders),
        decoders=code.decoders,
    )


def drop_block_correction(net, code: NetworkCode, blocks=None) -> NetworkCode:
    """Undo the overcount cancellation at the given block terminals (all of
    them by default)."""
    k = code.design.k
    decoders = dict(code.decoders)
    for j in range(code.design.b) if blocks is None else blocks:
        t = NodeId(TERMINAL_BLOCK, j)
        dec = decoders[t]
        extractor = block_source_extractor(code, net, j)
        decoders[t] = TerminalDecoder(
            in_edges=dec.in_edges, matrix=dec.matrix + (k - 1) * extractor
        )
    return NetworkCode(
        design=code.design,
        field=code.field,
        params=code.params,
        encoders=code.encoders,
        decoders=decoders,
    )


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

def test_transfer_check_fano_gf2():
    net, code = fano_code(2)
    assert transfer_check(net, code).ok


def test_transfer_check_fano_gf3():
    net, code = fano_code(3)
    assert transfer_check(net, code).ok


def test_transfer_check_sts9_gf2():
    net = build_sum_network(sts_bose(9))
    code = build_code_char_divides(net, PrimeField(2))
    assert transfer_check(net, code).ok


def test_transfer_check_reports_missing_correction_at_every_block_terminal():
    net, code = fano_code(3)
    broken = drop_block_correction(net, code)
    result = transfer_check(net, broken)
    assert not result.ok
    failed_at = {x.at for x in result.failures}
    assert failed_at == {NodeId(TERMINAL_BLOCK, j) for j in range(7)}
    # a failure record names a witness input
    assert "unit input" in result.failures[0].detail


def test_transfer_check_rejects_mismatched_code():
    net, _ = fano_code(3)
    other = build_sum_network(sts_bose(9))
    code9 = build_code(other, PrimeField(3))
    with pytest.raises(ShapeMismatchError):
        transfer_check(net, code9)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_all_zero_sources_decode_to_zero():
    net, code = fano_code(3)
    m = code.params.m
    outputs = simulate(net, code, {s: [0] * m for s in net.sources()})
    for value in outputs.values():
        assert not value.any()


def test_single_unit_source_reaches_every_terminal():
    net, code = fano_code(2)
    sources = {s: [0] for s in net.sources()}
    sources[NodeId(SOURCE_POINT, 0)] = [1]
    outputs = simulate(net, code, sources)
    assert len(outputs) == 14
    for value in outputs.values():
        assert value.tolist() == [1]


def test_simulation_matches_plain_sums():
    net, code = fano_code(3)
    summary = simulate_trials(net, code, 1000, seed=42)
    assert summary.ok
    assert summary.trials == 1000 and summary.mismatched_trials == 0


def test_simulation_exact_with_dense_large_coefficients(rebased_fano_bigprime):
    # every decoder row mixes many residues near 2^31, so a raw int64
    # product of decoder and symbols would wrap
    net, code = rebased_fano_bigprime
    assert transfer_check(net, code).ok
    summary = simulate_trials(net, code, 50, 0)
    assert summary.ok and summary.mismatched_trials == 0


def test_simulation_catches_missing_correction():
    net, code = fano_code(3)
    summary = simulate_trials(net, drop_block_correction(net, code), 50, seed=1)
    assert not summary.ok
    assert summary.mismatched_trials > 0
    assert all(x.at.kind == TERMINAL_BLOCK for x in summary.failures)


def test_zero_trials_is_a_vacuous_pass():
    net, code = fano_code(3)
    summary = simulate_trials(net, code, 0, seed=9)
    assert summary.ok and summary.trials == 0


def test_simulate_rejects_wrong_length_vector():
    net, code = fano_code(3)
    sources = {s: [0] * code.params.m for s in net.sources()}
    sources[NodeId(SOURCE_BLOCK, 0)] = [0]
    with pytest.raises(ShapeMismatchError):
        simulate(net, code, sources)


def test_simulate_requires_every_source():
    net, code = fano_code(3)
    sources = {s: [0] * code.params.m for s in net.sources()}
    del sources[NodeId(SOURCE_POINT, 3)]
    with pytest.raises(ShapeMismatchError):
        simulate(net, code, sources)


# ---------------------------------------------------------------------------
# recoverability of partial sums
# ---------------------------------------------------------------------------

def test_partial_sums_recoverable_for_both_families():
    for p in (2, 3):
        net, code = fano_code(p)
        assert partial_sum_recoverable(net, code).ok


def test_zeroed_encoder_breaks_partial_sum_recovery():
    net, code = fano_code(3)
    result = partial_sum_recoverable(net, zero_encoder(code, 0))
    assert not result.ok
    assert result.failures[0].at.index == 0


def test_block_sums_recoverable_for_both_families():
    for p in (2, 3):
        net, code = fano_code(p)
        assert block_sum_recoverable(net, code).ok


def test_zeroed_encoder_breaks_block_sum_recovery():
    net, code = fano_code(3)
    result = block_sum_recoverable(net, zero_encoder(code, 0))
    assert not result.ok
    # blocks through point 1 are A, C, D
    assert {x.at.index for x in result.failures} == {0, 2, 3}


def test_single_bottleneck_cannot_recover_a_block_sum():
    # the target needs all k bottlenecks of the block: any single encoder
    # has zero columns at sources outside its own neighborhood
    net, code = fano_code(3)
    d = code.design
    f = code.field
    m = code.params.m
    width = (d.v + d.b) * m
    target = np.zeros((m, width), dtype=np.int64)
    eye = np.eye(m, dtype=np.int64)
    for point in d.blocks[0]:
        target[:, point * m : (point + 1) * m] = eye
    for l in d.block_neighborhood(0):
        lo = (d.v + l) * m
        target[:, lo : lo + m] = eye
    from sumnet.field import row_space_contains

    single = code.encoders[d.blocks[0][0]]
    full = vstack([code.encoders[point] for point in d.blocks[0]])
    assert not row_space_contains(single, FieldMatrix(f, target[:1]))
    assert row_space_contains(full, FieldMatrix(f, target[:1]))


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_fano():
    d = fano()
    even = capacity_report(d, PrimeField(2))
    assert even.achieved == even.upper == Fraction(1)
    odd = capacity_report(d, PrimeField(3))
    assert odd.achieved == Fraction(1, 2)
    assert odd.upper == Fraction(1, 2)
    assert odd.matches


def test_capacity_sts9_gf5():
    report = capacity_report(sts_bose(9), PrimeField(5))
    assert report.achieved == Fraction(9, 21) == Fraction(3, 7)
    assert report.upper == Fraction(3, 7)
    assert report.matches


def test_capacity_matches_code_rate():
    for v, p in ((9, 5), (15, 3)):
        d = sts_bose(v)
        net = build_sum_network(d)
        code = build_code(net, PrimeField(p))
        report = capacity_report(d, PrimeField(p))
        assert Fraction(code.params.m, code.params.n) == report.achieved


def test_cutset_bound_values():
    assert fractional_upper_bound(fano()) == Fraction(1, 2)
    assert fractional_upper_bound(sts_bose(9)) == Fraction(3, 7)
    assert fractional_upper_bound(sts_bose(15)) == Fraction(3, 10)
    assert fractional_upper_bound(sts_bose(15)) == Fraction(6, 5 + 15)


def test_cutset_bound_rejects_design_missing_a_block():
    # Fano without block G: lambda is still declared 1 but b = 6, so v/(v+b)
    # = 7/13 is not the lambda=1 bound
    d = fano()
    short = Design(v=d.v, k=d.k, lambda_=1, blocks=d.blocks[:6])
    with pytest.raises(InvalidDesignError, match="b=6"):
        fractional_upper_bound(short)


def test_capacity_requires_lambda_one():
    d = Design(v=4, k=3, lambda_=2, blocks=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    with pytest.raises(UnsupportedLambdaError):
        capacity_report(d, PrimeField(5))
    with pytest.raises(UnsupportedLambdaError):
        fractional_upper_bound(d)


def test_bounds_never_exceed_one():
    for v in (3, 9, 15, 21):
        assert fractional_upper_bound(sts_bose(v)) <= 1


# ---------------------------------------------------------------------------
# cross-validation of the two evaluation paths
# ---------------------------------------------------------------------------

def test_transfer_and_simulation_agree_on_fano_grid():
    for p in (2, 3, 5):
        net, code = fano_code(p)
        assert transfer_check(net, code).ok
        summary = simulate_trials(net, code, 300, seed=p)
        assert summary.ok


# ---------------------------------------------------------------------------
# golden failure reports: verdicts and failure texts are pinned byte for byte
# ---------------------------------------------------------------------------

def zero_encoder_row(code: NetworkCode, i: int, row: int) -> NetworkCode:
    encoders = list(code.encoders)
    a = encoders[i].array.copy()
    a[row] = 0
    encoders[i] = FieldMatrix(code.field, a)
    return NetworkCode(code.design, code.field, code.params, tuple(encoders), code.decoders)


def bump_decoder_entry(code: NetworkCode) -> NetworkCode:
    """Add 1 to entry (0, 0) of the first terminal's decoder."""
    t = min(code.decoders, key=lambda x: x.sort_key)
    dec = code.decoders[t]
    a = dec.matrix.array.copy()
    a[0, 0] += 1
    decoders = dict(code.decoders)
    decoders[t] = TerminalDecoder(in_edges=dec.in_edges, matrix=FieldMatrix(code.field, a))
    return NetworkCode(code.design, code.field, code.params, code.encoders, decoders)


CORRUPTIONS = {
    # the last partial-sum row, so failures name a row other than the first
    "encoder-row": lambda net, code: zero_encoder_row(code, 0, code.params.m - 1),
    "decoder-entry": lambda net, code: bump_decoder_entry(code),
    "one-correction": lambda net, code: drop_block_correction(net, code, blocks=[0]),
    "encoder": lambda net, code: zero_encoder(code, 0),
}


def failure_report(net, code) -> str:
    lines = []
    for check in (transfer_check, partial_sum_recoverable, block_sum_recoverable):
        result = check(net, code)
        lines.append(f"{check.__name__} ok={result.ok}")
        lines += [f"  {x.at.label() if x.at else None}: {x.detail}" for x in result.failures]
    return "\n".join(lines) + "\n"


FAILURE_REPORT_SHA256 = {
    ('fano', 2, 'decoder-entry'): "5067e67535a707156755d2a8c9f1855011138f0d1f2472d9b1d42296c65d6d13",
    ('fano', 2, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2, 'encoder-row'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2, 'one-correction'): "bb7a64886da181c934a3bc439b1e1c72e1cbbbcb94f38a4e0fdde81b6a859686",
    ('fano', 3, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 3, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 3, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 3, 'one-correction'): "fd3a9663af2adfed3ab4ec2a0bf4c42d97e063fceca7413e100a00e64a5ab971",
    ('fano', 5, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 5, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 5, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 5, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('fano', 2147483647, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('fano', 2147483647, 'encoder'): "78ca3f3bd318c8d04fedf674a383a2b6d864f19a3b30d1e7a3fa8ff490951333",
    ('fano', 2147483647, 'encoder-row'): "95e2231cfdf7a08f6bce391739c764684c729018b01f7b1d0910ab4bdb803480",
    ('fano', 2147483647, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('sts9', 2, 'decoder-entry'): "5067e67535a707156755d2a8c9f1855011138f0d1f2472d9b1d42296c65d6d13",
    ('sts9', 2, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2, 'encoder-row'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2, 'one-correction'): "bb7a64886da181c934a3bc439b1e1c72e1cbbbcb94f38a4e0fdde81b6a859686",
    ('sts9', 3, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 3, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 3, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 3, 'one-correction'): "fd3a9663af2adfed3ab4ec2a0bf4c42d97e063fceca7413e100a00e64a5ab971",
    ('sts9', 5, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 5, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 5, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 5, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
    ('sts9', 2147483647, 'decoder-entry'): "5cd7516e5ed83d9cbe02ff0727d5bbb10322d97bf58a3491b706b1d80826f3c9",
    ('sts9', 2147483647, 'encoder'): "83dfad57aac08003ad157006dc1f6d36ff39438a8fb7ed5af2ed0acc082cc023",
    ('sts9', 2147483647, 'encoder-row'): "290a2ee533a07f9174f2746e937974f8a67893b8d47e7898cccba23157dc63d5",
    ('sts9', 2147483647, 'one-correction'): "0ef3274f9fc04f17b944dd7d33d11a4a26dc87d21eb31a0cd1366b54d8e273b7",
}


@pytest.mark.parametrize("name,p,corruption", sorted(FAILURE_REPORT_SHA256))
def test_failure_report_golden_digest(name, p, corruption):
    net = build_sum_network(fano() if name == "fano" else sts_bose(9))
    broken = CORRUPTIONS[corruption](net, build_code(net, PrimeField(p)))
    text = failure_report(net, broken)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILURE_REPORT_SHA256[name, p, corruption]
