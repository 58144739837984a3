"""The one writer of indented JSON in sumnet.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2, sort_keys=True)``
for the values sumnet emits: dicts with string keys, lists and tuples,
strings, ints, bools and ``None``.  The standard library runs its
pure-Python encoder whenever ``indent`` is set, one generator step per
value.  This writer instead quotes each distinct string once per document,
renders a list whose items are all ints with one ``str.join``, and appends
every piece of the document to one list that is joined once, so no nested
value is copied into its parent's text.  Two value types stand for lists
whose items are never built:

* a ``StringTable`` is a list of rows of strings given as integer-array
  columns of indices into one list of strings; a column's cells are
  rendered once per string it indexes, and once per document for tables
  that share their strings.  One routine, ``_rows``, chunks every table sumnet
  writes, ``_TABLE_ROWS`` rows at a time: the rows of a ``StringTable``
  here, and the edge lines of a network's DOT drawing;
* a ``LiftedMatrix`` is the rows of core (x) I_w, w interleaved copies of
  an integer core.  Lifted row a*w + u holds core row a's nonzeros at
  columns b*w + u and zeros elsewhere, so each row is rendered from the
  core's nonzeros and the zeros between them: a run of z zeros is one
  pre-rendered zero cell times z, and the text from a core row's first
  nonzero to its last is made once for its w copies.

``dump(obj, fp)`` writes the same pieces to a text file, handing them
over after every chunk of a ``StringTable`` and every row of a
``LiftedMatrix``, so a document of large tables and matrices is never held
whole.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np


# rows of a StringTable, or edge lines of a DOT document, between two writes
_TABLE_ROWS = 1 << 14


class StringTable:
    """A list of equal-length rows of strings, held as ``columns``, 1-D
    integer arrays of indices into ``strings``: row i is
    ``[strings[c[i]] for c in columns]``.  ``dumps`` renders it exactly as
    it renders that list of lists."""

    def __init__(self, strings: Sequence[str], columns: Sequence[np.ndarray]):
        if not columns or len({len(c) for c in columns}) != 1:
            raise ValueError("a string table needs one or more columns of equal length")
        if any(getattr(c, "ndim", 0) != 1 or c.dtype.kind not in "iu" for c in columns):
            raise ValueError("a string table's columns must be 1-D integer arrays")
        self.strings = strings
        self.columns = columns


class LiftedMatrix:
    """The rows of ``core`` (x) I_w for a 2-D integer array ``core``: core
    entry (a, b) of copy u at (a*w + u, b*w + u), zeros elsewhere.
    ``dumps`` renders it exactly as it renders that matrix's list of rows;
    at w = 1 that is ``core.tolist()``."""

    def __init__(self, core: np.ndarray, w: int):
        if core.ndim != 2 or core.dtype.kind != "i" or w < 1:
            raise ValueError("a lifted matrix needs a 2-D integer core and w >= 1")
        self.core = core
        self.w = w


class _Pieces(list):
    """The rendered pieces of a document.  With a ``write`` sink, ``spill``
    hands the pieces gathered so far to it and forgets them; without one
    they stay, to be joined once."""

    def __init__(self, write: Callable[[str], object] | None = None):
        super().__init__()
        self.write = write

    def spill(self) -> None:
        if self.write is not None:
            self.write("".join(self))
            self.clear()


class _Quoted(dict):
    """str -> its JSON literal, computed on first use; and the cells of the
    document's string tables (``cells``)."""

    def __init__(self):
        super().__init__()
        self._cells: dict[tuple[int, str, str], tuple[Sequence[str], list, np.ndarray]] = {}

    def __missing__(self, s: str) -> str:
        quoted = self[s] = encode_basestring_ascii(s)
        return quoted

    def cells(self, strings: Sequence[str], column: np.ndarray, before: str, after: str) -> list:
        """Per string of ``strings``, its literal between ``before`` and
        ``after``, made when a column of the document's tables first indexes
        it, here ``column``; tables that share their strings share these
        cells, and no string is rendered twice."""
        # the strings are kept with their cells, so their id names them alone
        key = (id(strings), before, after)
        if key not in self._cells:
            self._cells[key] = (strings, [None] * len(strings), np.zeros(len(strings), dtype=bool))
        _, cells, made = self._cells[key]
        wanted = np.zeros(len(strings), dtype=bool)
        wanted[column] = True
        for i in np.flatnonzero(wanted & ~made).tolist():
            cells[i] = f"{before}{self[strings[i]]}{after}"
        made |= wanted
        return cells


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for the types above,
    with each ``StringTable`` and ``LiftedMatrix`` as its rows; anything
    else raises ``TypeError``."""
    out = _Pieces()
    _encode(obj, "\n", _Quoted(), out)
    return "".join(out)


def dump(obj, fp: TextIO) -> None:
    """Write ``dumps(obj)`` to the text file ``fp``.  The pieces are
    written after every row of a ``LiftedMatrix``, so no more is held than
    one such row and what was rendered since the row before it."""
    out = _Pieces(fp.write)
    _encode(obj, "\n", _Quoted(), out)
    out.spill()


def _flat_row(obj, newline: str) -> str | None:
    """A non-empty list of only ints, rendered with one join; ``None`` for
    any other list."""
    if type(obj[0]) is int and set(map(type, obj)) == {int}:
        inner = newline + "  "
        return f"[{inner}{f',{inner}'.join(map(int.__repr__, obj))}{newline}]"
    return None


def _rows(rendered: Sequence[Sequence[str]], columns: Sequence[np.ndarray]) -> Iterator[list[str]]:
    """The cells of a table's rows in order, ``_TABLE_ROWS`` rows at a
    time: the cell of row i in column c is ``rendered[c][columns[c][i]]``.
    Every table sumnet writes is chunked here."""
    width, rows = len(columns), len(columns[0])
    for lo in range(0, rows, _TABLE_ROWS):
        chunk = [""] * (width * (min(rows, lo + _TABLE_ROWS) - lo))
        for c, column in enumerate(columns):
            chunk[c::width] = map(rendered[c].__getitem__, column[lo : lo + _TABLE_ROWS].tolist())
        yield chunk


def _table(table: StringTable, newline: str, quoted: _Quoted, out: _Pieces) -> None:
    """A ``StringTable``, spilled after every chunk of ``_rows``, one
    piece per cell: each cell is rendered with the text before it, and the
    last cell of a row also closes the row.  A column renders only the
    strings it indexes (``_Quoted.cells``)."""
    columns = table.columns
    if not len(columns[0]):
        out.append("[]")
        return
    inner = newline + "  "
    cell = inner + "  "
    width = len(columns)
    rendered = []
    for c, column in enumerate(columns):
        before = f",{inner}[{cell}" if c == 0 else f",{cell}"
        after = f"{inner}]" if c == width - 1 else ""
        rendered.append(quoted.cells(table.strings, column, before, after))
    out.append("[")
    for i, chunk in enumerate(_rows(rendered, columns)):
        if not i:
            chunk[0] = chunk[0][1:]  # no separator before the first row
        out += chunk
        out.spill()
    out.append(newline + "]")


def _lifted(matrix: LiftedMatrix, newline: str, out: _Pieces) -> None:
    """A ``LiftedMatrix``, spilled after each lifted row.

    Lifted row a*w + u is core row a's nonzeros at columns b*w + u: two
    consecutive ones, at core columns b < b', are (b' - b)*w - 1 zeros
    apart in every copy.  So the text from the row's first nonzero to its
    last does not depend on u: it is made once per core row, and only the
    zeros before and after it are made per copy.
    """
    core, w = matrix.core, matrix.w
    rows, cols = core.shape
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    if not cols:
        empty = f",{inner}".join(["[]"] * (rows * w))
        out.append(f"[{inner}{empty}{newline}]")
        return
    cell = inner + "  "
    sep = "," + cell
    zero = sep + "0"  # a zero cell with the separator before it
    close = inner + "]"
    opening, between = f"[{inner}[{cell}", f",{inner}[{cell}"
    at, where = np.nonzero(core)
    literals = list(map(int.__repr__, core[at, where].tolist()))
    # the zeros between each nonzero and the next, read within a row only
    gaps = (np.diff(where) * w - 1).tolist()
    row_at = np.searchsorted(at, np.arange(rows + 1)).tolist()
    where = where.tolist()
    zero_row = None
    for a in range(rows):
        r, q = row_at[a], row_at[a + 1]
        if r == q:
            if zero_row is None:
                zero_row = f"0{zero * (cols * w - 1)}{close}"
            for _ in range(w):
                out += (opening, zero_row)
                opening = between
                out.spill()
            continue
        body = [sep] * (3 * (q - r) - 2)
        body[::3] = literals[r:q]
        body[1::3] = map(zero.__mul__, gaps[r : q - 1])
        body = "".join(body)
        first, last = where[r] * w, (cols - where[q - 1]) * w - 1
        for u in range(w):
            if first + u:
                out += (opening, "0", zero * (first + u - 1), sep)
            else:
                out.append(opening)
            out += (body, zero * (last - u), close)
            opening = between
            out.spill()
    out.append(newline + "]")


def _encode(obj, newline: str, quoted: _Quoted, out: _Pieces) -> None:
    # ``newline`` is a line break plus the indentation of the line obj
    # starts on; bool is tested before int, as json.encoder does
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        row = _flat_row(obj, newline)
        if row is not None:
            out.append(row)
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("[")
        lead = inner
        for item in obj:
            out.append(lead)
            lead = sep
            _encode(item, inner, quoted, out)
        out.append(newline + "]")
    elif isinstance(obj, str):
        out.append(quoted[obj])
    elif isinstance(obj, StringTable):
        _table(obj, newline, quoted, out)
    elif isinstance(obj, LiftedMatrix):
        _lifted(obj, newline, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("{")
        lead = inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{lead}{quoted[key]}: ")
            lead = sep
            _encode(value, inner, quoted, out)
        out.append(newline + "}")
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
