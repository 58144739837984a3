"""2-(v,k,lambda) balanced incomplete block designs.

Points are 0-indexed in memory and 1-indexed in every serialized form.
Block order is significant (later constructions index into it), so
generators fix a deterministic ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path

from ._jsonwriter import dumps


class UnsupportedOrderError(ValueError):
    """No generator is available for the requested number of points."""


class ParseError(ValueError):
    """A design file could not be parsed."""


class InvalidDesignError(ValueError):
    """A parsed design violates the block-design invariants."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.problems))
        self.report = report


@dataclass
class ValidationReport:
    """Accumulated invariant violations; empty means valid."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        self.problems.append(problem)


def _is_integer(x) -> bool:
    """Whether a parsed JSON value is an integer; JSON ``true`` and
    ``false`` parse to bool, which subclasses int, and are not."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Design:
    """A block design: v points and an ordered list of k-subsets of them.

    ``blocks`` holds 0-indexed, internally sorted point tuples.  Construct
    through the generators or ``design_load`` to get validated instances;
    the constructor itself does not validate.
    """

    v: int
    k: int
    lambda_: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(int(x) for x in blk)) for blk in self.blocks)
        )

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        """Replication number lambda*(v-1)/(k-1); raises if not integral."""
        num = self.lambda_ * (self.v - 1)
        if self.k < 2 or num % (self.k - 1):
            raise ValueError(f"replication number is not integral for {self}")
        return num // (self.k - 1)

    @cached_property
    def _incidence(self) -> dict[int, tuple[int, ...]]:
        """point -> indices of the blocks containing it, in increasing order,
        for every point that lies in some block."""
        through: dict[int, list[int]] = {}
        for j, blk in enumerate(self.blocks):
            for point in set(blk):
                through.setdefault(point, []).append(j)
        return {point: tuple(js) for point, js in through.items()}

    def blocks_through(self, point: int) -> tuple[int, ...]:
        """Indices of the blocks containing ``point``, in increasing order."""
        return self._incidence.get(point, ())

    def block_neighborhood(self, j: int) -> tuple[int, ...]:
        """Indices of all blocks sharing at least one point with block j."""
        hit = set()
        for point in self.blocks[j]:
            hit.update(self._incidence[point])
        return tuple(sorted(hit))

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "lambda": self.lambda_,
            "blocks": [[p + 1 for p in blk] for blk in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Design":
        try:
            v = data["v"]
            k = data["k"]
            lambda_ = data["lambda"]
            raw_blocks = data["blocks"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"missing design field: {exc}") from exc
        if not all(map(_is_integer, (v, k, lambda_))):
            raise ParseError("v, k and lambda must be integers")
        if not isinstance(raw_blocks, list):
            raise ParseError("blocks must be a list of lists")
        blocks = []
        for blk in raw_blocks:
            if not isinstance(blk, list) or not all(map(_is_integer, blk)):
                raise ParseError(f"bad block {blk!r}")
            blocks.append(tuple(x - 1 for x in blk))
        return cls(v=v, k=k, lambda_=lambda_, blocks=tuple(blocks))


def design_verify(d: Design) -> ValidationReport:
    """Check every block-design invariant; violations are data, not errors."""
    report = ValidationReport()
    if d.v < 2:
        report.add(f"need at least 2 points, got v={d.v}")
    if d.k < 2:
        report.add(f"block size must be at least 2, got k={d.k}")
    if d.lambda_ < 1:
        report.add(f"pair coverage must be positive, got lambda={d.lambda_}")
    if report.problems:
        return report

    for j, blk in enumerate(d.blocks):
        if len(set(blk)) != len(blk):
            report.add(f"block {j + 1} repeats a point")
        if len(blk) != d.k:
            report.add(f"block {j + 1} has {len(blk)} points, expected {d.k}")
        if any(p < 0 or p >= d.v for p in blk):
            report.add(f"block {j + 1} has a point outside 1..{d.v}")
    if report.problems:
        return report

    pair_count = {pair: 0 for pair in combinations(range(d.v), 2)}
    for blk in d.blocks:
        for pair in combinations(blk, 2):
            pair_count[pair] += 1
    for (x, y), count in pair_count.items():
        if count != d.lambda_:
            report.add(
                f"pair {{{x + 1},{y + 1}}} lies in {count} blocks, expected {d.lambda_}"
            )

    num = d.lambda_ * (d.v - 1)
    if num % (d.k - 1):
        report.add(f"replication number lambda(v-1)/(k-1) = {num}/{d.k - 1} is not integral")
        return report
    r = num // (d.k - 1)
    for point in range(d.v):
        count = len(d.blocks_through(point))
        if count != r:
            report.add(f"point {point + 1} lies in {count} blocks, expected r={r}")
    if d.b * d.k != d.v * r:
        report.add(f"bk = {d.b * d.k} differs from vr = {d.v * r}")
    return report


#: the 7-point projective plane with its conventional block lettering A..G
_FANO_BLOCKS = (
    (0, 1, 2),  # A
    (2, 3, 4),  # B
    (0, 4, 5),  # C
    (0, 3, 6),  # D
    (1, 4, 6),  # E
    (2, 5, 6),  # F
    (1, 3, 5),  # G
)


def fano() -> Design:
    """The Fano plane, a 2-(7,3,1) design, in its conventional block order."""
    return Design(v=7, k=3, lambda_=1, blocks=_FANO_BLOCKS)


def sts_bose(v: int) -> Design:
    """A Steiner triple system of order v = 6t+3 via the Bose construction.

    Points are pairs (i, level) over Z_{2t+1} x {0,1,2}, numbered
    i + (2t+1)*level.  Triples are the verticals {(i,0),(i,1),(i,2)} plus,
    for each level and unordered pair i < i', the triple
    {(i,l), (i',l), ((i+i')/2, l+1)} with division mod 2t+1.  Blocks are
    returned sorted lexicographically so the ordering is reproducible.
    """
    if v < 3 or v % 6 != 3:
        raise UnsupportedOrderError(
            f"Bose construction needs v = 3 (mod 6), got v={v}; "
            "load other orders from a design file"
        )
    t = (v - 3) // 6
    n = 2 * t + 1
    half = pow(2, -1, n)

    def idx(i: int, level: int) -> int:
        return i + n * level

    blocks = set()
    for i in range(n):
        blocks.add(tuple(sorted((idx(i, 0), idx(i, 1), idx(i, 2)))))
    for level in range(3):
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                i3 = ((i1 + i2) * half) % n
                blocks.add(
                    tuple(sorted((idx(i1, level), idx(i2, level), idx(i3, (level + 1) % 3))))
                )
    return Design(v=v, k=3, lambda_=1, blocks=tuple(sorted(blocks)))


def design_save(d: Design, path) -> None:
    Path(path).write_text(dumps(d.to_dict()) + "\n")


def _read_text(path) -> str:
    """The text of a JSON file, which must be UTF-8; other bytes are a
    ``ParseError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc


def design_load(path) -> Design:
    """Load and validate a design file; invalid designs are rejected."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    d = Design.from_dict(data)
    report = design_verify(d)
    if not report.ok:
        raise InvalidDesignError(report)
    return d
