import contextlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sumnet import cli
from sumnet import field as field_module
from sumnet import verify as verify_module
from sumnet.designs import fano
from sumnet.field import (
    _EXACT,
    DimensionMismatchError,
    FieldMatrix,
    FieldMismatchError,
    NotPrimeError,
    PrimeField,
    _is_prime,
    _magnitude,
    _matmul_mod,
    _prepare,
    _Prepared,
    _rows_outside_row_space,
    row_space_contains,
)

from conftest import rank, vstack, within_seconds


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_row_space_contains(basis_rows, target, p):
    """Try every coefficient vector in GF(p)^rows explicitly."""
    rows = len(basis_rows)
    width = len(target)
    for coeffs in itertools.product(range(p), repeat=rows):
        combo = [0] * width
        for c, row in zip(coeffs, basis_rows):
            for idx in range(width):
                combo[idx] = (combo[idx] + c * row[idx]) % p
        if combo == [x % p for x in target]:
            return True
    return False


def oracle_rank(rows, p):
    """Count the row space by brute force: p^rank distinct combinations."""
    span = set()
    width = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        combo = [0] * width
        for c, row in zip(coeffs, rows):
            for idx in range(width):
                combo[idx] = (combo[idx] + c * row[idx]) % p
        span.add(tuple(combo))
    rank = 0
    while p**rank < len(span):
        rank += 1
    assert p**rank == len(span)
    return rank


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_small_primes_accepted():
    assert PrimeField(2).p == 2
    assert PrimeField(3).p == 3
    assert PrimeField(7919).p == 7919


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 1000000])
def test_composites_rejected(bad):
    with pytest.raises(NotPrimeError):
        PrimeField(bad)


def _is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division_below_2_16():
    wrong = [n for n in range(1 << 16) if _is_prime(n) != _is_prime_by_trial_division(n)]
    assert not wrong


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751])
def test_strong_pseudoprimes_are_composite(n):
    # each fools Miller-Rabin with the first few prime bases, not all twelve
    assert not _is_prime_by_trial_division(n)
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [2147483647, 2305843009213693951, 2**89 - 1])
def test_large_primes_are_prime(p):
    with within_seconds(1.0, f"primality test of {p}"):
        assert _is_prime(p)


def test_large_moduli_keep_their_refusals():
    with within_seconds(1.0, "PrimeField(2^61 - 1)"), pytest.raises(NotPrimeError, match="too large"):
        PrimeField(2305843009213693951)
    with pytest.raises(NotPrimeError, match="must be prime"):
        PrimeField(2**61 + 1)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def eye(f: PrimeField, n: int) -> FieldMatrix:
    return FieldMatrix(f, np.eye(n, dtype=np.int64))


def test_identity_product():
    f = PrimeField(3)
    m = FieldMatrix(f, [[1, 2], [0, 1]])
    assert eye(f, 2) @ m == m


def test_row_times_column():
    f3 = PrimeField(3)
    assert (FieldMatrix(f3, [[1, 1]]) @ FieldMatrix(f3, [[1], [1]])).array.tolist() == [[2]]
    f2 = PrimeField(2)
    assert (FieldMatrix(f2, [[1, 1]]) @ FieldMatrix(f2, [[1], [1]])).array.tolist() == [[0]]


def test_matmul_dimension_mismatch():
    f = PrimeField(3)
    with pytest.raises(DimensionMismatchError):
        FieldMatrix(f, [[1, 2]]) @ FieldMatrix(f, [[1, 2]])


def test_matmul_field_mismatch():
    with pytest.raises(FieldMismatchError):
        eye(PrimeField(3), 2) @ eye(PrimeField(5), 2)


def test_matrix_is_immutable():
    f = PrimeField(3)
    m = FieldMatrix(f, [[1, 2]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 0


def test_vstack_and_product_match_the_public_constructor():
    # these wrap already reduced arrays without reducing them again
    f = PrimeField(5)
    m = FieldMatrix(f, [[1, 7, 3], [4, -1, 0]])
    rows = [[1, 2, 3], [4, 4, 0]]
    row0, row1 = FieldMatrix(f, [rows[0]]), FieldMatrix(f, [rows[1]])
    assert vstack([row1, row0]) == FieldMatrix(f, [rows[1], rows[0]])
    transpose = FieldMatrix(f, m.array.T)
    assert m @ transpose == FieldMatrix(f, np.array(rows) @ np.array(rows).T)
    for derived in (vstack([m, m]), m @ transpose):
        assert not derived.array.flags.writeable


def test_algebraic_identities_on_random_matrices():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(20):
            a = FieldMatrix(f, rng.integers(0, p, size=(3, 4)))
            b = FieldMatrix(f, rng.integers(0, p, size=(4, 5)))
            c = FieldMatrix(f, rng.integers(0, p, size=(5, 2)))
            assert (a @ b) @ c == a @ (b @ c)
            b2 = FieldMatrix(f, rng.integers(0, p, size=(4, 5)))
            summed = FieldMatrix(f, b.array + b2.array)
            assert a @ summed == FieldMatrix(f, (a @ b).array + (a @ b2).array)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    f = PrimeField(5)
    assert rank(eye(f, 4)) == 4
    assert rank(FieldMatrix(f, np.zeros((3, 5), dtype=np.int64))) == 0


def test_rank_of_fano_incidence_over_gf2():
    d = fano()
    rows = [[int(point in blk) for blk in d.blocks] for point in range(d.v)]
    assert oracle_rank(rows, 2) == 4
    assert rank(FieldMatrix(PrimeField(2), rows)) == 4


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(25):
            a = rng.integers(0, p, size=(4, 6))
            assert rank(FieldMatrix(f, a)) == rank(FieldMatrix(f, a.T))


def test_rank_agrees_with_bruteforce_oracle():
    rng = np.random.default_rng(13)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(15):
            rows = rng.integers(0, p, size=(3, 4)).tolist()
            assert rank(FieldMatrix(f, rows)) == oracle_rank(rows, p)


# ---------------------------------------------------------------------------
# row-space membership
# ---------------------------------------------------------------------------

def test_row_space_trivial_cases():
    f = PrimeField(3)
    assert row_space_contains(eye(f, 3), FieldMatrix(f, [[1, 2, 0]]))
    assert not row_space_contains(FieldMatrix(f, [[1, 0, 0]]), FieldMatrix(f, [[0, 1, 0]]))


def test_row_space_derived_case():
    # row1 - row2 = (1, 0, -1) = (1, 0, 2) mod 3
    basis = [[1, 1, 0], [0, 1, 1]]
    target = [1, 0, 2]
    assert oracle_row_space_contains(basis, target, 3) is True
    f = PrimeField(3)
    assert row_space_contains(FieldMatrix(f, basis), FieldMatrix(f, [target]))


def test_row_space_dimension_mismatch():
    f = PrimeField(3)
    with pytest.raises(DimensionMismatchError):
        row_space_contains(eye(f, 3), FieldMatrix(f, [[1, 0]]))


def test_row_space_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for p in (2, 3):
        f = PrimeField(p)
        for rows in (1, 2, 3):
            for _ in range(25):
                basis = rng.integers(0, p, size=(rows, 4)).tolist()
                target = rng.integers(0, p, size=4).tolist()
                got = row_space_contains(FieldMatrix(f, basis), FieldMatrix(f, [target]))
                assert got == oracle_row_space_contains(basis, target, p)


# ---------------------------------------------------------------------------
# the modular product kernel
# ---------------------------------------------------------------------------

KERNEL_PRIMES = (2, 3, 5, 65521, 2147483647)
BIG = 2147483647


def object_matmul_mod(a, b, p):
    """Reference product in exact Python integers."""
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


@st.composite
def kernel_operands(draw):
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, inner, cols = (draw(st.integers(0, 12)) for _ in range(3))
    fill = draw(st.sampled_from(("random", "max", "sparse", "near-p")))
    if fill == "max":  # all p-1: the largest bound for this shape
        elements = st.just(p - 1)
    elif fill == "near-p":  # small in balanced residues, mixed with any
        near = [x for x in (p - 1, p - 2, p - 3) if x >= 0]
        elements = st.one_of(st.sampled_from(near), st.integers(0, p - 1))
    elif fill == "sparse":
        elements = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    else:
        elements = st.integers(0, p - 1)
    a = draw(hnp.arrays(np.int64, (rows, inner), elements=elements))
    b = draw(hnp.arrays(np.int64, (inner, cols), elements=elements))
    return a, b, p


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
def test_matmul_mod_matches_object_reference(operands):
    a, b, p = operands
    got = _matmul_mod(a, b, p)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert np.array_equal(got, object_matmul_mod(a, b, p))


@pytest.mark.parametrize("shape", [(0, 4, 3), (3, 0, 4), (3, 4, 0), (0, 0, 0)])
def test_matmul_mod_empty_shapes(shape):
    rows, inner, cols = shape
    a = np.full((rows, inner), BIG - 1, dtype=np.int64)
    b = np.full((inner, cols), BIG - 1, dtype=np.int64)
    assert np.array_equal(_matmul_mod(a, b, BIG), np.zeros((rows, cols), dtype=np.int64))


@pytest.fixture
def kernel_counts(monkeypatch):
    """Counts the float products, one ``_reduced`` call each, and the
    kernel calls."""
    counts = {"products": 0, "calls": 0}
    reduced, kernel = field_module._reduced, field_module._matmul_mod

    def counting(*args, **kwargs):
        counts["products"] += 1
        return reduced(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        counts["calls"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(field_module, "_reduced", counting)
    monkeypatch.setattr(field_module, "_matmul_mod", counting_kernel)
    return counts


def test_matmul_mod_single_pass(kernel_counts):
    # 100 * 65520**2 < 2**53: one float64 product is exact
    p = 65521
    a = np.full((3, 100), p - 1, dtype=np.int64)
    b = np.full((100, 4), p - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, p)
    assert np.array_equal(got, object_matmul_mod(a, b, p))
    assert kernel_counts == {"products": 1, "calls": 1}


def test_matmul_mod_limb_split(kernel_counts):
    # 50 * 2**30 * (2**31 - 2) >= 2**53, and so is the bound of the balanced
    # form, -(2**30 - 1); but 50 * (2**16 - 1) * (2**31 - 2) < 2**53: the
    # smaller operand splits into two 16-bit limbs
    a = np.full((5, 50), 2**30, dtype=np.int64)
    b = np.full((50, 7), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    assert np.array_equal(got, object_matmul_mod(a, b, BIG))
    assert kernel_counts == {"products": 2, "calls": 1}


def test_matmul_mod_balanced_single_pass(kernel_counts):
    # 300 * (2**31 - 2)**2 >= 2**53, but in balanced residues a holds 0, 1
    # and -2, and 300 * 2 * (2**31 - 2) < 2**53: one product
    rng = np.random.default_rng(11)
    a = rng.choice(np.array([0, 1, BIG - 2]), size=(6, 300))
    b = np.full((300, 40), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    assert np.array_equal(got, object_matmul_mod(a, b, BIG))
    assert kernel_counts == {"products": 1, "calls": 1}


def test_matmul_mod_limb_split_of_right_operand(kernel_counts):
    rng = np.random.default_rng(3)
    a = rng.integers(0, BIG, size=(30, 40))
    b = rng.integers(0, BIG, size=(40, 2))
    got = field_module._matmul_mod(a, b, BIG)
    assert np.array_equal(got, object_matmul_mod(a, b, BIG))
    assert kernel_counts["products"] > 1 and kernel_counts["calls"] == 1


def test_matmul_mod_chunks_the_inner_dimension(kernel_counts):
    # all p - 1: a is -1 in balanced residues, and so is b once balanced,
    # which makes (2**22 + 1) * 1 * 1 < 2**53 one product where b as it is
    # would make two; (p - 1)**2 = 1 mod p makes the product inner mod p
    inner = 2**22 + 1
    a = np.full((1, inner), BIG - 1, dtype=np.int64)
    b = np.full((inner, 1), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    assert got.tolist() == [[inner % BIG]]
    assert kernel_counts == {"products": 1, "calls": 1}
    # 2 against (p - 1)/2: inner * 2 * (2**30 - 1) >= 2**53, so even 1-bit
    # limbs would overflow, and the inner dimension is walked in steps of
    # 2**22, where 2**22 * 2 * (2**30 - 1) < 2**53; a, 2, is one product
    # per step: 2**22 and 1.  2 * (p - 1)/2 = -1 mod p makes the product
    # -inner mod p
    a = np.full((1, inner), 2, dtype=np.int64)
    b = np.full((inner, 1), (BIG - 1) // 2, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    assert got.tolist() == [[-inner % BIG]]
    assert kernel_counts == {"products": 3, "calls": 2}


def test_matmul_mod_chooses_steps_and_limbs_for_the_fewest_products(kernel_counts):
    # random residues, about 2**30 in magnitude in balanced residues: a step
    # of 2**22 in 30 one-bit limbs and one of 8 in two 20-bit limbs, or two
    # of 2**21 in 15 two-bit limbs and the same last one (the shorter steps
    # are taken), 32 products where steps of 2**21 against canonical
    # residues took 62
    inner = 2**22 + 8
    rng = np.random.default_rng(7)
    a = rng.integers(0, BIG, size=(2, inner), dtype=np.uint32)
    b = rng.integers(0, BIG, size=(inner, 2), dtype=np.uint32)
    got = field_module._matmul_mod(a, b, BIG)
    # each entry's products fit int64 and their residues sum below 2**53
    want = [[int((a[i].astype(np.int64) * b[:, j] % BIG).sum() % BIG) for j in range(2)] for i in range(2)]
    assert got.tolist() == want
    assert kernel_counts == {"products": 32, "calls": 1}


def reduction_of(p: int, bound: int, signed: bool) -> str:
    """The reduction ``_reduced`` runs on a product of this bound: np.fmod
    on a nonnegative one below 2p, np.mod past 2**53 - p, and else the
    floor-multiply step."""
    if not signed and bound < 2 * p:
        return "fmod"
    return "mod" if bound + p > field_module._EXACT else "floor"


@pytest.fixture
def reductions(monkeypatch):
    """The names of the reductions the kernel runs, in order."""
    ran, reduced = [], field_module._reduced

    def recorded(product, p, bound, signed, **kwargs):
        ran.append(reduction_of(p, bound, signed))
        return reduced(product, p, bound, signed, **kwargs)

    monkeypatch.setattr(field_module, "_reduced", recorded)
    return ran


# (p, inner, max(a), max(b)): a product bound inner * max(a) * max(b)
# under, at and over 2p, where the single pass switches from np.fmod to
# the floor-multiply step; 2p itself is no such product for p = 2**31 - 1
REDUCTION_SWITCH = {
    (3, 5, 1, 1): "fmod",
    (3, 6, 1, 1): "floor",
    (3, 7, 1, 1): "floor",
    (3, 2, 2, 1): "fmod",
    (3, 2, 2, 2): "floor",
    (65521, 2, 65520, 1): "fmod",
    (65521, 2 * 65521, 1, 1): "floor",
    (65521, 3, 65520, 1): "floor",
    (BIG, 2, BIG - 1, 1): "fmod",
    (BIG, 3, BIG - 1, 1): "floor",
}


@pytest.mark.parametrize("case", sorted(REDUCTION_SWITCH))
def test_a_single_pass_is_reduced_by_fmod_only_below_twice_p(case, reductions):
    # np.fmod slows with the quotient it takes off: a nonnegative product
    # below 2p takes np.fmod, any other the floor-multiply step, and both
    # give the exact residues
    p, inner, amax, bmax = case
    rng = np.random.default_rng(inner)
    a = rng.integers(0, amax + 1, size=(3, inner))
    a[:, 0] = amax
    b = np.full((inner, 2), bmax, dtype=np.int64)
    got = _matmul_mod(a, b, p)
    assert np.array_equal(got, object_matmul_mod(a, b, p))
    assert reductions == [REDUCTION_SWITCH[case]]


def test_limbs_and_balanced_residues_are_reduced_by_the_floor_step(reductions):
    # a limb product's bound is near 2**53, far past 2p but more than p
    # below 2**53, and a product over balanced residues may be negative,
    # however small its bound
    a = np.full((5, 50), 2**30, dtype=np.int64)
    b = np.full((50, 7), BIG - 1, dtype=np.int64)
    assert np.array_equal(_matmul_mod(a, b, BIG), object_matmul_mod(a, b, BIG))
    assert reductions == ["floor", "floor"]
    reductions.clear()
    a = np.array([[2, 0, 1]])
    got = _matmul_mod(_prepare(a, 3), np.array([[1], [2], [0]]), 3)
    assert got.tolist() == [[2]] and reductions == ["floor"]


@settings(max_examples=300, deadline=None)
@given(kernel_operands(), st.sampled_from(("left", "right", "both")))
def test_a_prepared_operand_gives_the_same_product(operands, prepared):
    # past the balanced bound (large p, random fill) a prepared operand
    # takes the stepped path in its own balanced residues
    a, b, p = operands
    x = _prepare(a, p) if prepared in ("left", "both") else a
    y = _prepare(b, p) if prepared in ("right", "both") else b
    got = _matmul_mod(x, y, p)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert np.array_equal(got, object_matmul_mod(a, b, p))


def test_a_prepared_operand_is_one_balanced_pass_or_its_residues_limbs(kernel_counts):
    # a decoder-like operand (0, 1, -2 in balanced residues) is one product
    # against values near p; one of magnitude 2**30 - 1 is past the bound
    # and its balanced residues split into two 16-bit limbs
    rng = np.random.default_rng(11)
    decoder_like = rng.choice(np.array([0, 1, BIG - 2]), size=(6, 300))
    small = _prepare(decoder_like, BIG)
    assert small.magnitude == 2 and small.balanced.dtype == np.float64
    b = np.full((300, 40), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(small, b, BIG)
    assert np.array_equal(got, object_matmul_mod(decoder_like, b, BIG))
    assert kernel_counts == {"products": 1, "calls": 1}
    a = np.full((5, 50), 2**30, dtype=np.int64)
    large = _prepare(a, BIG)
    assert large.magnitude == 2**30 - 1
    got = field_module._matmul_mod(large, b[:50, :7], BIG)
    assert np.array_equal(got, object_matmul_mod(a, b[:50, :7], BIG))
    assert kernel_counts == {"products": 3, "calls": 2}


@st.composite
def any_dtype_operands(draw):
    """Operands of every integer dtype the kernel takes, each side drawn
    random, all p - 1 or decoder-like (0, 1 and p - 2, small in balanced
    residues), inner dimensions long enough to be stepped under a lowered
    bound."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, inner, cols = draw(st.integers(0, 8)), draw(st.integers(0, 40)), draw(st.integers(0, 8))
    fills = {
        "random": st.integers(0, p - 1),
        "max": st.just(p - 1),
        "decoder": st.sampled_from((0, 1, max(p - 2, 0))),
    }
    return p, [
        draw(
            hnp.arrays(
                draw(st.sampled_from((np.int64, np.int32, np.uint32, np.uint64))),
                shape,
                elements=fills[draw(st.sampled_from(sorted(fills)))],
            )
        )
        for shape in ((rows, inner), (inner, cols))
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from((2**34, 2**40, 2**45, 2**53)),
    any_dtype_operands(),
    st.sampled_from(("neither", "left", "right", "both")),
)
def test_matmul_mod_is_exact_under_any_lower_float_bound(exact, operands, prepared):
    # a lower bound only makes the kernel split sooner, and float64 stays
    # exact below the real 2**53, so under it every path the kernel has past
    # its single pass runs on small operands: one product per step, limbs,
    # and inner steps; kept above 8p, where a 1-bit limb step is 4 long
    p, (a, b) = operands
    x = _prepare(a, p) if prepared in ("left", "both") else a
    y = _prepare(b, p) if prepared in ("right", "both") else b
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field_module, "_EXACT", exact)
        got = _matmul_mod(x, y, p)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert np.array_equal(got, object_matmul_mod(a, b, p))


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_an_unsigned_operand_past_the_bound_is_exact(dtype):
    # 300 * (2**31 - 2)**2 >= 2**53; the decoder-like operand is small in
    # balanced residues, whose entry - p an unsigned dtype cannot hold
    rng = np.random.default_rng(11)
    a = rng.choice(np.array([0, 1, BIG - 2]), size=(6, 300)).astype(dtype)
    b = np.full((300, 40), BIG - 1, dtype=dtype)
    assert np.array_equal(_matmul_mod(a, b, BIG), object_matmul_mod(a, b, BIG))


FLOOR_PRIMES = (2, 3, 5, 7, 65521, BIG)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FLOOR_PRIMES),
    st.integers(-3, 3),
    st.booleans(),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_reduced_is_exact_either_side_of_the_floor_step_bound(p, offset, signed, rows, cols, data):
    # a product bound B with B + p within 3 of 2**53 on either side, B
    # itself below 2**53 as every single-pass product's is: the
    # floor-multiply step at B + p <= 2**53, np.mod past it; the entries
    # are exact integers of magnitude at most B, its extremes among them
    bound = min(_EXACT - p + offset, _EXACT - 1)
    low = -bound if signed else 0
    entries = st.one_of(
        st.sampled_from([x for x in (low, low + 1, bound - 1, bound, 0, p - 1, p, -p) if low <= x <= bound]),
        st.integers(low, bound),
        st.integers(low // p, bound // p).map(lambda q: q * p),
    )
    x = data.draw(hnp.arrays(np.int64, (rows, cols), elements=entries))
    got = field_module._reduced(x.astype(np.float64), p, bound, signed=signed)
    assert got.dtype == np.int64
    assert got.tolist() == [[v % p for v in row] for row in x.tolist()]


@st.composite
def past_p_operands(draw):
    """A product whose bound B has B + p within inner * |other| of 2**53,
    below it or past it: one operand prepared with exact integers up to a
    magnitude M far past p, as a product left unreduced holds them, the
    other canonical or prepared residues, either side.  The big operand's
    first row (or column) is all M against the other's first column (or
    row) of its largest magnitude, so that product entry is B itself."""
    p = draw(st.sampled_from(FLOOR_PRIMES))
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    big_left, other_prepared, past = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    other = draw(hnp.arrays(np.int64, (inner, cols) if big_left else (rows, inner), elements=st.integers(0, p - 1)))
    # the other operand's largest magnitude, p//2 balanced or p - 1
    (other[:, 0] if big_left else other[0])[...] = p // 2 if other_prepared else p - 1
    y = _prepare(other, p) if other_prepared else other
    d = inner * _magnitude(y)
    magnitude = (_EXACT - p) // d + past
    shape = (rows, inner) if big_left else (inner, cols)
    big = draw(hnp.arrays(np.int64, shape, elements=st.integers(-magnitude, magnitude)))
    if big_left:
        big[0] = magnitude
    else:
        big[:, 0] = magnitude
    x = _Prepared(big.astype(np.float64), magnitude)
    return (x, y, big, other, p) if big_left else (y, x, other, big, p)


@settings(max_examples=300, deadline=None)
@given(past_p_operands())
def test_a_product_is_exact_either_side_of_the_floor_step_bound(operands):
    a, b, exact_a, exact_b, p = operands
    with pytest.MonkeyPatch.context() as patch:
        ran, reduced = [], field_module._reduced
        patch.setattr(field_module, "_reduced", lambda *args, **kw: ran.append(args[2]) or reduced(*args, **kw))
        got = _matmul_mod(a, b, p)
    assert np.array_equal(got, object_matmul_mod(exact_a, exact_b, p))
    x = a.balanced if isinstance(a, _Prepared) else a
    bound = x.shape[1] * _magnitude(a) * _magnitude(b)
    if bound < _EXACT:  # one pass, reduced by the step its bound allows
        assert ran == [bound]


@settings(max_examples=300, deadline=None)
@given(kernel_operands(), st.sampled_from(("neither", "left", "right", "both")), st.sampled_from((2**40, 2**53)))
def test_an_unreduced_product_is_congruent_and_within_its_magnitude(operands, prepared, exact):
    # reduce=False gives a single pass's exact integers, congruent to the
    # reduced product, each at most the magnitude it reports, which is
    # below the bound; past the bound it gives the reduced product itself
    a, b, p = operands
    x = _prepare(a, p) if prepared in ("left", "both") else a
    y = _prepare(b, p) if prepared in ("right", "both") else b
    single = a.shape[1] * _magnitude(x) * _magnitude(y) < exact
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field_module, "_EXACT", exact)
        got = _matmul_mod(x, y, p, reduce=False)
        reduced = _matmul_mod(x, y, p)
    assert np.array_equal(reduced, object_matmul_mod(a, b, p))
    if not single:
        assert not isinstance(got, _Prepared) and np.array_equal(got, reduced)
        return
    assert isinstance(got, _Prepared) and got.magnitude < exact
    entries = got.balanced.astype(object)
    assert all(abs(v) <= got.magnitude and v == int(v) for v in entries.ravel().tolist())
    assert np.array_equal((entries % p).astype(np.int64), reduced)


@settings(max_examples=300, deadline=None)
@given(kernel_operands(), st.data(), st.booleans(), st.sampled_from((2**40, 2**53)))
def test_an_unreduced_product_multiplies_again_as_its_residues(operands, data, on_left, exact):
    # a @ b left unreduced, then multiplied by a third operand on either
    # side, equals the two reduced products; under a lowered bound the
    # second product takes the stepped path with the unreduced operand
    a, b, p = operands
    inner = data.draw(st.integers(0, 12))
    shape = (inner, a.shape[0]) if not on_left else (b.shape[1], inner)
    c = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, p - 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field_module, "_EXACT", exact)
        unreduced = _matmul_mod(a, b, p, reduce=False)
        got = _matmul_mod(unreduced, c, p) if on_left else _matmul_mod(c, unreduced, p)
        first = _matmul_mod(a, b, p)
        want = _matmul_mod(first, c, p) if on_left else _matmul_mod(c, first, p)
    assert np.array_equal(got, want)
    ab = object_matmul_mod(a, b, p)
    assert np.array_equal(want, object_matmul_mod(ab, c, p) if on_left else object_matmul_mod(c, ab, p))


def test_an_unreduced_operand_past_p_takes_the_stepped_path(kernel_counts):
    # 12 * 65520**2 < 2**53 stays unreduced, and 12 * that * 32760 >= 2**53:
    # the second product reduces it once, and in balanced residues it is
    # 12 * 32760 * 32760 < 2**53, one product
    p = 65521
    a = np.full((3, 12), p - 1, dtype=np.int64)
    b = np.full((12, 12), p - 1, dtype=np.int64)
    unreduced = field_module._matmul_mod(a, b, p, reduce=False)
    assert unreduced.magnitude == 12 * (p - 1) ** 2 and kernel_counts == {"products": 0, "calls": 1}
    c = np.full((12, 2), p // 2, dtype=np.int64)
    got = field_module._matmul_mod(unreduced, c, p)
    assert np.array_equal(got, object_matmul_mod(object_matmul_mod(a, b, p), c, p))
    assert kernel_counts == {"products": 2, "calls": 2}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, 7, 65521, BIG)), st.booleans(), st.data())
def test_a_signed_operand_below_p_is_exact_past_the_bound(p, on_left, data):
    # exact integers in (-p, p), as a product can leave them, past the bound
    # (lowered to 4p) with no full reduction: as the smaller operand they
    # are taken to balanced residues, as the other they are used as they are
    rows, inner, cols = (data.draw(st.integers(1, 8)) for _ in range(3))
    shape = (rows, inner) if on_left else (inner, cols)
    signed = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(1 - p, p - 1)))
    other = data.draw(hnp.arrays(np.int64, (inner, cols) if on_left else (rows, inner), elements=st.integers(0, p - 1)))
    x = _Prepared(signed.astype(np.float64), p - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field_module, "_EXACT", 4 * p)
        got = _matmul_mod(x, other, p) if on_left else _matmul_mod(other, x, p)
    want = object_matmul_mod(signed, other, p) if on_left else object_matmul_mod(other, signed, p)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("on_left", [True, False])
def test_an_unreduced_operand_of_multiples_of_p_is_zero_past_the_bound(on_left):
    # 3 * p * (p - 1) >= 2**53: the stepped path reduces the operand to
    # zeros, whose balanced magnitude 0 makes one step of one product
    zeros = _Prepared(np.full((3, 3), float(BIG)), BIG)
    other = np.full((3, 3), BIG - 1, dtype=np.int64)
    got = _matmul_mod(zeros, other, BIG) if on_left else _matmul_mod(other, zeros, BIG)
    assert got.tolist() == [[0] * 3] * 3


def test_the_pipeline_stays_within_the_single_pass_bound(monkeypatch, tmp_path):
    # every product that `code`, `simulate` and `simulate --code` make on
    # these designs and fields is one exact float64 pass, so the kernel's
    # split path changes none of their arithmetic; saved fractional codes
    # of STS(45) run to gigabytes, so only its scalar one is reloaded
    # an unreduced operand counts by its bound
    products, kernel = [], field_module._matmul_mod

    def bounded(a, b, p, **kwargs):
        x = a.balanced if isinstance(a, _Prepared) else a
        products.append(x.shape[1] * _magnitude(a) * _magnitude(b))
        return kernel(a, b, p, **kwargs)

    monkeypatch.setattr(field_module, "_matmul_mod", bounded)
    monkeypatch.setattr(verify_module, "_matmul_mod", bounded)
    saved = str(tmp_path / "code.json")
    for design in (["--fano"], ["--sts", "15"], ["--sts", "45"]):
        for p in (2, 3, BIG):
            field = [*design, "--field", str(p)]
            reload = design != ["--sts", "45"] or p == 2
            runs = [
                ["code", *field, *(["--save-code", saved] if reload else [])],
                ["simulate", *field, "--trials", "20"],
                *([["simulate", *field, "--trials", "20", "--code", saved]] if reload else []),
            ]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
    assert products and max(products) < field_module._EXACT


def test_matmul_mod_over_the_field_api():
    rng = np.random.default_rng(5)
    f = PrimeField(BIG)
    a = FieldMatrix(f, rng.integers(0, BIG, size=(6, 9)))
    b = FieldMatrix(f, rng.integers(0, BIG, size=(9, 4)))
    assert (a @ b).array.tolist() == object_matmul_mod(a.array, b.array, BIG).tolist()
    assert not (a @ b).array.flags.writeable


# ---------------------------------------------------------------------------
# support-only elimination against the brute-force oracles
# ---------------------------------------------------------------------------

@st.composite
def sparse_system(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, 3))
    targets = draw(st.integers(1, 3))
    width = draw(st.integers(1, 8))
    elements = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(1, p - 1))
    basis = draw(hnp.arrays(np.int64, (rows, width), elements=elements))
    target = draw(hnp.arrays(np.int64, (targets, width), elements=elements))
    return p, basis, target


@settings(max_examples=200, deadline=None)
@given(sparse_system())
def test_sparse_row_space_and_rank_agree_with_oracles(system):
    p, basis, target = system
    f = PrimeField(p)
    rows = basis.tolist()
    inside = [oracle_row_space_contains(rows, t, p) for t in target.tolist()]
    assert row_space_contains(FieldMatrix(f, basis), FieldMatrix(f, target)) == all(inside)
    outside = _rows_outside_row_space(basis, target, p)
    assert outside.tolist() == [r for r, ok in enumerate(inside) if not ok]
    if rows:
        assert rank(FieldMatrix(f, basis)) == oracle_rank(rows, p)
