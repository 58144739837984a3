import itertools

import numpy as np
import pytest

from sumnet.designs import fano
from sumnet.field import (
    DimensionMismatchError,
    FieldMatrix,
    FieldMismatchError,
    NotPrimeError,
    PrimeField,
    row_space_contains,
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
# elements
# ---------------------------------------------------------------------------

def test_element_arithmetic():
    f = PrimeField(7)
    a, b = f.element(5), f.element(4)
    assert (a + b).value == 2
    assert (a - b).value == 1
    assert (a * b).value == 6
    assert (a / b).value == 3  # 3*4 = 12 = 5 mod 7
    assert (-a).value == 2


def test_every_nonzero_element_has_inverse():
    for p in (2, 3, 5, 7, 11):
        f = PrimeField(p)
        for x in range(1, p):
            assert (f.element(x) * f.element(x).inverse()).value == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).element(0).inverse()


def test_element_field_mismatch():
    with pytest.raises(FieldMismatchError):
        PrimeField(3).element(1) + PrimeField(5).element(1)


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
    assert (-m + m).tolist() == [[0, 0], [0, 0]]


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
