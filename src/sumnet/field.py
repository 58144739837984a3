"""Exact linear algebra over prime fields GF(p).

Everything is integer arithmetic on canonical residues in [0, p).  There is
no floating point and no pivot tolerance anywhere; elimination is exact.
"""

from __future__ import annotations

import numpy as np


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
    so that products of two residues always fit an int64 kernel.
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

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value)

    def matrix(self, entries) -> "FieldMatrix":
        """Build a matrix from a nested sequence of integers (reduced mod p)."""
        return FieldMatrix(self, entries)

    def zeros(self, rows: int, cols: int) -> "FieldMatrix":
        return FieldMatrix(self, np.zeros((rows, cols), dtype=np.int64))

    def eye(self, n: int) -> "FieldMatrix":
        return FieldMatrix(self, np.eye(n, dtype=np.int64))


class FieldElement:
    """A single residue with its field attached."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - other.value)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no inverse")
        return FieldElement(self.field, pow(self.value, -1, self.field.p))

    def __pow__(self, exponent: int):
        if self.value == 0 and exponent < 0:
            raise ZeroDivisionError("zero has no inverse")
        return FieldElement(self.field, pow(self.value, exponent, self.field.p))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"


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
        p = self.field.p
        # inner products of canonical residues can overflow int64 for huge
        # shapes; fall back to exact Python integers in that regime
        if self.cols * (p - 1) ** 2 < 2**63:
            prod = (self._a @ other._a) % p
        else:
            prod = (self._a.astype(object) @ other._a.astype(object)) % p
        return FieldMatrix(self.field, prod)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} + {other.shape}")
        return FieldMatrix(self.field, self._a + other._a)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} - {other.shape}")
        return FieldMatrix(self.field, self._a - other._a)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix(self.field, -self._a)

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
        return FieldMatrix(self.field, self._a[i : i + 1])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self._a.T)

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def rank(self) -> int:
        _, rank = _reduced_echelon(self._a, self.field.p)
        return rank

    def __repr__(self) -> str:
        return f"FieldMatrix({self.field}, {self._a.tolist()})"


def vstack(mats: list[FieldMatrix]) -> FieldMatrix:
    if not mats:
        raise DimensionMismatchError("vstack of nothing")
    field = mats[0].field
    for m in mats[1:]:
        mats[0]._check_field(m)
    return FieldMatrix(field, np.vstack([m.array for m in mats]))


def _reduced_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form mod p and the rank.  Exact, no tolerances."""
    a = a.copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        below = np.nonzero(a[rank:, c])[0]
        if below.size == 0:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, c]), -1, p)
        a[rank] = (a[rank] * inv) % p
        factors = a[:, c].copy()
        factors[rank] = 0
        if factors.any():
            a -= np.outer(factors, a[rank])
            a %= p
        rank += 1
        if rank == rows:
            break
    return a, rank


def row_space_contains(basis: FieldMatrix, target_row: FieldMatrix) -> bool:
    """Whether every row of ``target_row`` is a combination of ``basis`` rows.

    Decided exactly by Gaussian elimination: reduce the target against the
    reduced echelon form of the basis and ask whether anything is left.
    """
    basis._check_field(target_row)
    if basis.cols != target_row.cols:
        raise DimensionMismatchError(f"{basis.shape} vs {target_row.shape}")
    p = basis.field.p
    echelon, rank = _reduced_echelon(basis.array, p)
    remainder = target_row.array.copy()
    for r in range(rank):
        c = int(np.nonzero(echelon[r])[0][0])  # pivot column, leading 1
        factors = remainder[:, c].copy()
        if factors.any():
            remainder = (remainder - np.outer(factors, echelon[r])) % p
    return not remainder.any()
