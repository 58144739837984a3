"""2-(v,k,lambda) balanced incomplete block designs.

Points are 0-indexed in memory and 1-indexed in every serialized form.
Block order is significant (later constructions index into it), so
generators fix a deterministic ordering.
"""

from __future__ import annotations

import codecs
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

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


def _members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a key spelled twice is a ``ParseError``."""
    data = dict(pairs)
    if len(data) < len(pairs):
        raise ParseError(f"duplicate key {Counter(k for k, _ in pairs).most_common(1)[0][0]!r}")
    return data


def _load_json(text: str, **hooks):
    """The value of a JSON document, the one reader of every document kind;
    malformed JSON or a duplicate key is a ``ParseError``."""
    try:
        return json.loads(text, object_pairs_hook=_members, **hooks)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc


# bytes of a document read at a time
_READ_BYTES = 1 << 20
# a value decoded this far from the end of the text read so far can be cut
# off by it: the scanner looks at most 9 characters ahead (-Infinity)
_LOOKAHEAD = 16
_SPACE = re.compile(r"[ \t\n\r]*")

# rows of integers read in bulk (``_Window.rows``): the characters of them
# parsed at a time (past those, up to the end of a row; 1 MiB at a time was
# no faster, and raised the peak RSS of ``simulate --code`` at STS(27)/GF(3)
# from 76 to 87 MiB), JSON whitespace, the digits, and the powers of ten
# of a token's digits
_ROWS_CHARS = 1 << 18
_WHITESPACE = b" \t\n\r"
_DIGITS = b"0123456789"
_POWERS = 10 ** np.arange(18, dtype=np.int64)


def _digits(text: bytes) -> np.ndarray:
    """Per byte of ``text``, whether it is an ASCII digit."""
    return np.frombuffer(text, np.uint8) - np.uint8(ord("0")) < 10


def _runs(digit: np.ndarray) -> int:
    """The number of runs of True in ``digit``, which starts with False."""
    return int(np.count_nonzero(digit[1:] > digit[:-1]))


def _integer_rows(raw: bytes) -> np.ndarray | None:
    """The rows ``raw`` spells, ``[..],..,[..]`` with JSON whitespace between
    tokens, as an int64 array, when every row holds the same number of
    JSON integers and each is spelled as ``json.dumps`` spells a value
    below 10**18: one to 18 digits, no sign and no leading zero; else
    None.

    The checks run on the text without its whitespace.  Its skeleton, the
    text without its digits, must be the rows' brackets and commas, which
    refuses any other character.  Then each run of digits is cut to its
    first digit, and the cut text must be the rows with one digit in each
    cell and nowhere else: row r at r * (2 * width + 2), its digits at the
    odd offsets.  That one layout refuses an empty token, a digit between
    or around the rows, and two runs in one cell, and it gives every
    single-digit value with one gather.  A run of several digits must have
    at most 18 and no leading zero, must be one run in ``raw`` too (no
    whitespace inside the token), and is read as its digits times their
    powers of ten, summed per run, all runs at once."""
    text = raw.translate(None, _WHITESPACE)
    skeleton = text.translate(None, _DIGITS)
    rows = skeleton.count(b"[")  # one at least: raw starts with '['
    width = (len(skeleton) + 1) // rows - 2
    if width < 1 or skeleton != b",".join([b"[" + b"," * (width - 1) + b"]"] * rows):
        return None
    tokens, byte = rows * width, np.frombuffer(text, np.uint8)
    if len(text) - len(skeleton) > tokens:
        # each run's digits past its first, and each run's first and end
        digit = _digits(text)
        more = np.flatnonzero(digit[:-1] & digit[1:]) + 1
        first = np.flatnonzero(np.diff(more, prepend=-1) > 1)
        start, end = more[first] - 1, more[np.append(first, len(more))[1:] - 1] + 1
        if (end - start > 18).any() or (byte[start] == ord("0")).any() or _runs(_digits(raw)) != tokens:
            return None
        # each run's digits times their powers of ten, summed per run
        length = end - start
        offsets, at = np.cumsum(length) - length, np.arange(length.sum())
        power = np.repeat(offsets + length - 1, length) - at
        at += np.repeat(start - offsets, length)
        long_values = np.add.reduceat((byte[at] - np.uint8(ord("0"))).astype(np.int64) * _POWERS[power], offsets)
        byte = np.delete(byte, more)
    if len(byte) + 1 != rows * (2 * width + 2):
        return None
    # row r's cells at r * (2 * width + 2) + 1, 3, .., 2 * width - 1
    cells = np.ndarray((rows, width), np.uint8, byte, 1, (2 * width + 2, 2)) - np.uint8(ord("0"))
    if not (cells < 10).all():
        return None
    values = cells.astype(np.int64)
    if len(byte) < len(text):
        # a run's first digit moved left by the digits cut before it
        row, offset = np.divmod(start - first, 2 * width + 2)
        values[row, offset // 2] = long_values
    return values


class _Window:
    """A JSON document read forward through a sliding window of its text.

    ``source`` is the whole text as a str, or a binary file read
    ``_READ_BYTES`` at a time (more while one value outgrows the window)
    through an incremental UTF-8 decoder; each read drops the text before
    the read position.  A caller walks the document with ``members`` and
    ``items`` and decodes every other value whole with ``value``, which
    takes ``_load_json``'s hooks and retries a value the window cuts off
    after the next read.  The rows of an array of integer rows are read in
    bulk with ``rows``, which takes the complete rows the window holds, and
    only when their text is canonical (``_integer_rows``); it reads nothing
    otherwise.  A fault of JSON syntax or of UTF-8, or a refusal of a hook,
    raises a ``ValueError`` where the reading stands; only ``_load_json``
    on the whole text words it as a refusal.
    """

    def __init__(self, source, **hooks):
        self._file = None if isinstance(source, str) else source
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self._decoder = json.JSONDecoder(object_pairs_hook=_members, **hooks)
        self.text = source if self._file is None else ""
        self.pos = 0

    def _more(self) -> bool:
        """Drop the text before the read position and append the next read;
        False once the whole document is read."""
        if self._file is None:
            return False
        data = self._file.read(max(_READ_BYTES, len(self.text) - self.pos))
        self.text, self.pos = self.text[self.pos :] + self._utf8.decode(data, final=not data), 0
        if not data:
            self._file = None
        return True

    def peek(self) -> str:
        """The next character past whitespace, or '' at the end."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos : self.pos + 1]

    def take(self, char: str) -> bool:
        """Whether the next character past whitespace is ``char``, read if so."""
        if self.peek() != char:
            return False
        self.pos += 1
        return True

    def _expect(self, char: str) -> None:
        if not self.take(char):
            raise json.JSONDecodeError(f"Expecting {char!r}", self.text, self.pos)

    def value(self):
        """The next value, decoded whole."""
        self.peek()
        while True:
            try:
                value, end = self._decoder.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                # a string cut off is unterminated wherever it starts
                cut = exc.pos + _LOOKAHEAD > len(self.text) or exc.msg.startswith("Unterminated string")
                if cut and self._more():
                    continue
                raise
            if end + _LOOKAHEAD > len(self.text) and self._more():
                continue  # a number may go on past the window
            self.pos = end
            return value

    def rows(self) -> np.ndarray | None:
        """The complete rows of integers from the read position on, read in
        bulk, as an int64 array (``_rows_length`` says how many; more is
        read while the window holds none).  None, with nothing read, unless
        the next value is an array and the rows' text is canonical
        (``_integer_rows``)."""
        if self.peek() != "[":
            return None
        while not (length := self._rows_length()):
            if not self._more():
                return None
        try:
            raw = self.text[self.pos : self.pos + length].encode("ascii")
        except UnicodeEncodeError:
            return None
        found = _integer_rows(raw)
        if found is not None:
            self.pos += length
        return found

    def _rows_length(self) -> int:
        """The length of the rows from the read position on, each closed by
        a ']' that a ',' follows: up to the row that no ',' follows, the
        last of their array, or to the first row that ends ``_ROWS_CHARS``
        characters on, or else to the last row the window holds; 0 when it
        holds none."""
        end = self.pos
        while end - self.pos < _ROWS_CHARS and (close := self.text.find("]", end)) >= 0:
            end = close + 1
            after = _SPACE.match(self.text, end).end()
            if self.text[after : after + 1] != ",":
                break
        return end - self.pos

    def members(self, read) -> dict:
        """The members of the next value, an object, each value read by
        ``read(key)``; a key spelled twice is refused when the object
        closes, by ``_members`` as ``_load_json`` refuses it."""
        self._expect("{")
        pairs = []
        if self.take("}"):
            return _members(pairs)
        while True:
            if self.peek() != '"':
                raise json.JSONDecodeError("Expecting property name", self.text, self.pos)
            key = self.value()
            self._expect(":")
            pairs.append((key, read(key)))
            if self.take("}"):
                return _members(pairs)
            self._expect(",")

    def items(self, read) -> list:
        """The items of the next value, an array, each read by ``read()``."""
        self._expect("[")
        found = []
        if self.take("]"):
            return found
        while True:
            found.append(read())
            if self.take("]"):
                return found
            self._expect(",")

    def document(self, read):
        """The document's one value, read by ``read()``; text after it is a
        fault."""
        found = read()
        if self.peek():
            raise json.JSONDecodeError("Extra data", self.text, self.pos)
        return found


def design_load(path) -> Design:
    """Load and validate a design file; invalid designs are rejected."""
    d = Design.from_dict(_load_json(_read_text(path)))
    report = design_verify(d)
    if not report.ok:
        raise InvalidDesignError(report)
    return d
