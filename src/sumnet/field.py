"""Exact linear algebra over prime fields GF(p).

Matrices hold canonical residues in [0, p) as int64, and elimination is
integer arithmetic with no pivot tolerance.  Products go through one
kernel, ``_matmul_mod``, which uses float64 BLAS only as an integer
accumulator and is exact by one argument: a partial sum over L inner
indexes is at most L * max|a| * max|b| in magnitude, float64 holds every
integer below 2**53, and past that bound the kernel takes the smaller
operand in balanced residues (an entry above p//2 taken as entry - p),
walks the inner dimension in steps and splits each step's slice into as
few signed limbs as keep every product below it.  An operand that takes
part in many products is prepared once (``_prepare``): its balanced
residues as float64 and their largest magnitude, so no product converts
or scans it again.  The technique is the one of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# float64 represents every integer below 2**53 exactly
_EXACT = 2**53


class NotPrimeError(ValueError):
    """The requested modulus is not a prime number."""


class DimensionMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class FieldMismatchError(ValueError):
    """Operands live over different prime fields."""


# the first twelve primes; as Miller-Rabin bases they decide primality
# exactly for every n below 3.3e24 (Sorenson and Webster, Math. Comp. 86,
# 2017), far past the 2**31 cap on moduli.  Above that bound a composite
# could pass only as a strong pseudoprime to all twelve, and is then
# refused as too large instead.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over ``_WITNESSES``."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self._a, other._a)

    def __repr__(self) -> str:
        return f"FieldMatrix({self.field}, {self._a.tolist()})"


class _Prepared(NamedTuple):
    """A fixed operand of ``_matmul_mod``: its balanced residues, entries
    above p//2 taken as entry - p, and their largest magnitude."""

    balanced: np.ndarray
    magnitude: int


def _prepare(a: np.ndarray, p: int, out: np.ndarray | None = None) -> _Prepared:
    """The residues ``a``, integers or float64, in the form ``_matmul_mod``
    multiplies them, made once for every product the operand takes part
    in: as float64, or written into the float64 or int64 array ``out``
    (which may be ``a``) when one is given."""
    if out is None:
        out = a.astype(np.float64)
    else:
        out[...] = a
    np.subtract(out, p, out=out, where=a > p // 2)
    return _Prepared(out, int(max(out.max(initial=0), -out.min(initial=0))))


def _magnitude(x: np.ndarray | _Prepared) -> int:
    """A bound on the magnitude of an operand's entries in the form it is
    multiplied in: balanced for a prepared one, canonical otherwise."""
    if isinstance(x, _Prepared):
        return x.magnitude
    return int(x.max(initial=0))


def _matmul_mod(a: np.ndarray | _Prepared, b: np.ndarray | _Prepared, p: int) -> np.ndarray:
    """The int64 residues of a @ b mod p, computed exactly.

    Each operand is an array of canonical residues, nonnegative integers
    below 2**31 of any integer dtype, or ``_Prepared``, balanced residues
    with their magnitude.  Every partial sum of a product over L inner
    indexes is at most L * |a| * |b| in magnitude, each operand's bound
    taken in the form it is given in (``_magnitude``), and below 2**53 one
    float64 BLAS product is exact; it is reduced by the cheaper reduction
    for its bound (``_reduced``).  Past that bound the smaller operand is
    taken as int64 balanced residues, of magnitude at most p//2 < 2**30
    (a decoder's -(k-1), held as p - (k-1), is small in this form), and
    the inner dimension is walked in steps of L with L * 2 * |other| below
    2**53.  A step is one product when L * |small| * |other| < 2**53.
    Otherwise its slice of the small operand splits into s-bit limbs, the
    widest with L * 2**s * |other| < 2**53, so s <= 30: the lower limbs
    masked, the top one an arithmetic shift that keeps the sign, each at
    most 2**s in magnitude, so every limb's product is exact.  The limbs'
    residues recombine by Horner's rule in int64, below 2**31 * 2**30 +
    2**31 < 2**62, and the steps' residues add up mod p.
    """
    x, y = (z.balanced if isinstance(z, _Prepared) else z for z in (a, b))
    amax, bmax = _magnitude(a), _magnitude(b)
    bound = x.shape[1] * amax * bmax
    if bound < _EXACT:
        product = x.astype(np.float64, copy=False) @ y.astype(np.float64, copy=False)
        return _reduced(product, p, bound, signed=not (x is a and y is b))
    split_a = x.size <= y.size
    small, other_max = (a, bmax) if split_a else (b, amax)
    other = (y if split_a else x).astype(np.float64, copy=False)
    if not isinstance(small, _Prepared):
        small = _prepare(small, p, out=np.empty(small.shape, dtype=np.int64))
    small_max, small = small.magnitude, small.balanced.astype(np.int64, copy=False)
    x, y = (small, other) if split_a else (other, small)
    bits = small_max.bit_length()
    step = (_EXACT - 1) // (2 * other_max)
    for lo in range(0, x.shape[1], step):
        xs, ys = x[:, lo : lo + step], y[lo : lo + step]
        length = xs.shape[1]
        if length * small_max * other_max < _EXACT:
            s = bits  # one limb, the whole slice
        else:
            s = ((_EXACT - 1) // (length * other_max)).bit_length() - 1
        bound, top = length * min(small_max, 1 << s) * other_max, (bits - 1) // s * s
        for shift in range(top, -1, -s):
            limb = (xs if split_a else ys) >> shift
            if shift < top:
                limb &= (1 << s) - 1
            limb = limb.astype(np.float64)
            part = _reduced(limb @ ys if split_a else xs @ limb, p, bound, signed=True)
            residue = part if shift == top else ((residue << s) + part) % p
        out = residue if lo == 0 else (out + residue) % p
    return out


def _reduced(product: np.ndarray, p: int, bound: int, signed: bool) -> np.ndarray:
    """The float64 ``product`` of ``_matmul_mod``, exact integers of
    magnitude at most ``bound``, negative ones among them when ``signed``,
    reduced mod p in place, as int64.  ``np.fmod`` slows with the quotient
    it takes off, while ``np.mod`` costs about the same at any size,
    several times what ``np.fmod`` costs on entries already below p.  So a
    nonnegative product below 2p, one multiple of p at most, is reduced by
    ``np.fmod``, and any other by ``np.mod``, which also makes a negative
    entry's residue nonnegative."""
    reduce = np.fmod if not signed and bound < 2 * p else np.mod
    return reduce(product, p, out=product).astype(np.int64)


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
