import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sumnet import field as field_module
from sumnet.designs import fano
from sumnet.field import (
    DimensionMismatchError,
    FieldMatrix,
    FieldMismatchError,
    NotPrimeError,
    PrimeField,
    _matmul_mod,
    _rows_outside_row_space,
    row_space_contains,
    vstack,
)


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
    assert PrimeField(3).characteristic == 3
    assert PrimeField(7919).p == 7919


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 1000000])
def test_composites_rejected(bad):
    with pytest.raises(NotPrimeError):
        PrimeField(bad)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_identity_product():
    f = PrimeField(3)
    m = f.matrix([[1, 2], [0, 1]])
    assert f.eye(2) @ m == m


def test_row_times_column():
    f3 = PrimeField(3)
    assert (f3.matrix([[1, 1]]) @ f3.matrix([[1], [1]])).tolist() == [[2]]
    f2 = PrimeField(2)
    assert (f2.matrix([[1, 1]]) @ f2.matrix([[1], [1]])).tolist() == [[0]]


def test_matmul_dimension_mismatch():
    f = PrimeField(3)
    with pytest.raises(DimensionMismatchError):
        f.matrix([[1, 2]]) @ f.matrix([[1, 2]])


def test_matmul_field_mismatch():
    with pytest.raises(FieldMismatchError):
        PrimeField(3).eye(2) @ PrimeField(5).eye(2)


def test_matrix_is_immutable():
    f = PrimeField(3)
    m = f.matrix([[1, 2]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 0


def test_row_transpose_and_vstack_match_the_public_constructor():
    # these wrap already reduced arrays without reducing them again
    f = PrimeField(5)
    m = f.matrix([[1, 7, 3], [4, -1, 0]])
    rows = [[1, 2, 3], [4, 4, 0]]
    assert m.row(1) == f.matrix([rows[1]])
    assert m.transpose() == f.matrix([list(col) for col in zip(*rows)])
    assert vstack([m.row(1), m.row(0)]) == f.matrix([rows[1], rows[0]])
    for derived in (m.row(0), m.transpose(), vstack([m, m]), m @ m.transpose()):
        assert not derived.array.flags.writeable


def test_algebraic_identities_on_random_matrices():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(20):
            a = f.matrix(rng.integers(0, p, size=(3, 4)))
            b = f.matrix(rng.integers(0, p, size=(4, 5)))
            c = f.matrix(rng.integers(0, p, size=(5, 2)))
            assert (a @ b) @ c == a @ (b @ c)
            b2 = f.matrix(rng.integers(0, p, size=(4, 5)))
            assert a @ (b + b2) == a @ b + a @ b2


def test_scalar_multiple_and_negation():
    f = PrimeField(5)
    m = f.matrix([[1, 2], [3, 4]])
    assert (2 * m).tolist() == [[2, 4], [1, 3]]
    assert (-1 * m + m).tolist() == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    f = PrimeField(5)
    assert f.eye(4).rank() == 4
    assert f.zeros(3, 5).rank() == 0


def test_rank_of_fano_incidence_over_gf2():
    d = fano()
    rows = [[int(point in blk) for blk in d.blocks] for point in range(d.v)]
    assert oracle_rank(rows, 2) == 4
    assert FieldMatrix(PrimeField(2), rows).rank() == 4


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(25):
            m = f.matrix(rng.integers(0, p, size=(4, 6)))
            assert m.rank() == m.transpose().rank()


def test_rank_agrees_with_bruteforce_oracle():
    rng = np.random.default_rng(13)
    for p in (2, 3):
        f = PrimeField(p)
        for _ in range(15):
            rows = rng.integers(0, p, size=(3, 4)).tolist()
            assert f.matrix(rows).rank() == oracle_rank(rows, p)


# ---------------------------------------------------------------------------
# row-space membership
# ---------------------------------------------------------------------------

def test_row_space_trivial_cases():
    f = PrimeField(3)
    assert row_space_contains(f.eye(3), f.matrix([[1, 2, 0]]))
    assert not row_space_contains(f.matrix([[1, 0, 0]]), f.matrix([[0, 1, 0]]))


def test_row_space_derived_case():
    # row1 - row2 = (1, 0, -1) = (1, 0, 2) mod 3
    basis = [[1, 1, 0], [0, 1, 1]]
    target = [1, 0, 2]
    assert oracle_row_space_contains(basis, target, 3) is True
    f = PrimeField(3)
    assert row_space_contains(f.matrix(basis), f.matrix([target]))


def test_row_space_dimension_mismatch():
    f = PrimeField(3)
    with pytest.raises(DimensionMismatchError):
        row_space_contains(f.eye(3), f.matrix([[1, 0]]))


def test_row_space_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for p in (2, 3):
        f = PrimeField(p)
        for rows in (1, 2, 3):
            for _ in range(25):
                basis = rng.integers(0, p, size=(rows, 4)).tolist()
                target = rng.integers(0, p, size=4).tolist()
                got = row_space_contains(f.matrix(basis), f.matrix([target]))
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
    fill = draw(st.sampled_from(("random", "max", "sparse")))
    if fill == "max":  # all p-1: the largest bound for this shape
        elements = st.just(p - 1)
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
    """Counts the float products (one fmod each) and the kernel calls,
    recursive ones included."""
    counts = {"products": 0, "calls": 0}
    fmod, kernel = np.fmod, field_module._matmul_mod

    def counting_fmod(*args, **kwargs):
        counts["products"] += 1
        return fmod(*args, **kwargs)

    def counting_kernel(*args):
        counts["calls"] += 1
        return kernel(*args)

    monkeypatch.setattr(np, "fmod", counting_fmod)
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
    # 50 * (2**31 - 2)**2 >= 2**53 but 50 * (2**16 - 1) * (2**31 - 2) < 2**53:
    # the smaller operand splits into two 16-bit limbs
    a = np.full((5, 50), BIG - 1, dtype=np.int64)
    b = np.full((50, 7), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    assert np.array_equal(got, object_matmul_mod(a, b, BIG))
    assert kernel_counts == {"products": 2, "calls": 1}


def test_matmul_mod_limb_split_of_right_operand(kernel_counts):
    rng = np.random.default_rng(3)
    a = rng.integers(0, BIG, size=(30, 40))
    b = rng.integers(0, BIG, size=(40, 2))
    got = field_module._matmul_mod(a, b, BIG)
    assert np.array_equal(got, object_matmul_mod(a, b, BIG))
    assert kernel_counts["products"] > 1 and kernel_counts["calls"] == 1


def test_matmul_mod_chunks_the_inner_dimension(kernel_counts):
    # (2**22 + 1) * (2**31 - 2) >= 2**53: even 1-bit limbs overflow, so the
    # inner dimension is cut into two chunks, each a recursive call
    inner = 2**22 + 1
    a = np.full((1, inner), BIG - 1, dtype=np.int64)
    b = np.full((inner, 1), BIG - 1, dtype=np.int64)
    got = field_module._matmul_mod(a, b, BIG)
    # (p - 1)**2 = 1 mod p, so the product is inner mod p
    assert got.tolist() == [[inner % BIG]]
    assert kernel_counts["calls"] == 3


def test_matmul_mod_over_the_field_api():
    rng = np.random.default_rng(5)
    f = PrimeField(BIG)
    a = f.matrix(rng.integers(0, BIG, size=(6, 9)))
    b = f.matrix(rng.integers(0, BIG, size=(9, 4)))
    assert (a @ b).tolist() == object_matmul_mod(a.array, b.array, BIG).tolist()
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
        assert FieldMatrix(f, basis).rank() == oracle_rank(rows, p)
