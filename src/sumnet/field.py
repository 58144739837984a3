"""Exact linear algebra over prime fields GF(p).

Matrices hold canonical residues in [0, p) as int64, and elimination is
integer arithmetic with no pivot tolerance.  Products go through one
kernel, ``_matmul_mod``, which uses float64 BLAS only as an integer
accumulator: every term of a product of nonnegative integers is
nonnegative, so every partial sum is at most inner * max(a) * max(b), and
the kernel splits an operand into narrow limbs (or the inner dimension
into chunks) until that bound is below 2**53, where float64 represents
every integer exactly.  The technique is the one of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

import numpy as np

# float64 represents every integer below 2**53 exactly
_EXACT = 2**53


class NotPrimeError(ValueError):
    """The requested modulus is not a prime number."""


class DimensionMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field GF(p) of integers modulo a prime p.

    The modulus doubles as the characteristic.  Moduli are capped at 2**31
    so that a product of two residues, and the limb recombination of
    ``_matmul_mod``, always fit int64.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise NotPrimeError(f"modulus must be prime, got {p!r}")
        if p >= 2**31:
            raise NotPrimeError(f"modulus {p} too large for exact int64 arithmetic")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def matrix(self, entries) -> "FieldMatrix":
        """Build a matrix from a nested sequence of integers (reduced mod p)."""
        return FieldMatrix(self, entries)

    def zeros(self, rows: int, cols: int) -> "FieldMatrix":
        return FieldMatrix(self, np.zeros((rows, cols), dtype=np.int64))

    def eye(self, n: int) -> "FieldMatrix":
        return FieldMatrix(self, np.eye(n, dtype=np.int64))


class FieldMatrix:
    """A dense matrix over a prime field, stored as an immutable int64 array."""

    __slots__ = ("field", "_a")

    def __init__(self, field: PrimeField, entries):
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d array, got ndim={a.ndim}")
        a = np.mod(a, field.p)
        a.flags.writeable = False
        self.field = field
        self._a = a

    @classmethod
    def _trusted(cls, field: PrimeField, a: np.ndarray) -> "FieldMatrix":
        """Wrap a 2-d int64 array already reduced to [0, p), without copying
        or reducing it again.  The array becomes read-only."""
        self = object.__new__(cls)
        a.flags.writeable = False
        self.field = field
        self._a = a
        return self

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) residue array."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def _check_field(self, other: "FieldMatrix") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.shape} @ {other.shape}")
        return FieldMatrix._trusted(self.field, _matmul_mod(self._a, other._a, self.field.p))

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} + {other.shape}")
        return FieldMatrix(self.field, self._a + other._a)

    def __mul__(self, scalar: int) -> "FieldMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return FieldMatrix(self.field, self._a * (scalar % self.field.p))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self.field, self._a.tobytes(), self.shape))

    def row(self, i: int) -> "FieldMatrix":
        return FieldMatrix._trusted(self.field, self._a[i : i + 1])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix._trusted(self.field, self._a.T)

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def rank(self) -> int:
        _, rank = _reduced_echelon(self._a[:, self._a.any(axis=0)], self.field.p)
        return rank

    def __repr__(self) -> str:
        return f"FieldMatrix({self.field}, {self._a.tolist()})"


def vstack(mats: list[FieldMatrix]) -> FieldMatrix:
    if not mats:
        raise DimensionMismatchError("vstack of nothing")
    field = mats[0].field
    for m in mats[1:]:
        mats[0]._check_field(m)
    return FieldMatrix._trusted(field, np.vstack([m.array for m in mats]))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The int64 residues of a @ b mod p, computed exactly.

    Entries of ``a`` and ``b`` must be nonnegative integers below 2**31, as
    canonical residues are.  Every partial sum of the product is then at
    most inner * max(a) * max(b); below 2**53 one float64 BLAS product is
    exact.  Above it, the smaller operand is split into s-bit limbs, the
    widest that keep inner * (2**s - 1) * max(other) below 2**53, with one
    product per limb recombined by Horner's rule in int64.  When even
    1-bit limbs overflow, the inner dimension is cut into chunks.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    amax = int(a.max()) if a.size else 0
    bmax = int(b.max()) if b.size else 0
    if amax == 0 or bmax == 0:
        return out
    if inner * amax * bmax < _EXACT:
        return np.fmod(a.astype(np.float64) @ b.astype(np.float64), p).astype(np.int64)
    split_a = a.size <= b.size
    small, small_max, other_max = (a, amax, bmax) if split_a else (b, bmax, amax)
    s = ((_EXACT - 1) // (inner * other_max) + 1).bit_length() - 1
    if s == 0:
        step = (_EXACT - 1) // other_max  # every chunk fits 1-bit limbs
        for lo in range(0, inner, step):
            out += _matmul_mod(a[:, lo : lo + step], b[lo : lo + step], p)
            out %= p
        return out
    # the single pass failed with every entry below 2**31, so s <= 31 and
    # Horner's out * 2**s stays below 2**62
    other = (b if split_a else a).astype(np.float64)
    mask = (1 << s) - 1
    for shift in reversed(range(0, small_max.bit_length(), s)):
        limb = ((small >> shift) & mask).astype(np.float64)
        part = limb @ other if split_a else other @ limb
        out = (out * (1 << s) + np.fmod(part, p).astype(np.int64)) % p
    return out


def _reduced_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form mod p and the rank.  Exact, no tolerances.

    Each pivot updates only the rows with a nonzero entry in its column,
    and only from its column on: the pivot row is zero left of it.
    """
    a = a.copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        below = a[rank:, c].nonzero()[0]
        if below.size == 0:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank, c:] = (a[rank, c:] * inv) % p
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != rank]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[rank, c:])) % p
        rank += 1
        if rank == rows:
            break
    return a, rank


def _rows_outside_row_space(basis: np.ndarray, target: np.ndarray, p: int) -> np.ndarray:
    """Indices of the ``target`` rows that are not combinations of
    ``basis`` rows, from one elimination of the basis.

    Only the columns where the basis or the target is nonzero take part.
    With R the nonzero rows of the reduced echelon form and P their pivot
    columns, T - T[:, P] R vanishes on P and differs from T by a
    combination of basis rows, so a target row lies in the row space
    exactly when its remainder is zero.
    """
    support = basis.any(axis=0) | target.any(axis=0)
    echelon, rank = _reduced_echelon(basis[:, support], p)
    echelon = echelon[:rank]
    remainder = target[:, support]
    if rank:
        pivots = (echelon != 0).argmax(axis=1)  # first nonzero entry of each row
        remainder = (remainder - _matmul_mod(remainder[:, pivots], echelon, p)) % p
    return np.flatnonzero(remainder.any(axis=1))


def row_space_contains(basis: FieldMatrix, target_row: FieldMatrix) -> bool:
    """Whether every row of ``target_row`` is a combination of ``basis`` rows.

    Decided exactly by Gaussian elimination: reduce the target against the
    reduced echelon form of the basis and ask whether anything is left.
    """
    basis._check_field(target_row)
    if basis.cols != target_row.cols:
        raise DimensionMismatchError(f"{basis.shape} vs {target_row.shape}")
    return _rows_outside_row_space(basis.array, target_row.array, basis.field.p).size == 0
