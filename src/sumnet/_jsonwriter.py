"""The one writer of indented JSON in sumnet.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2, sort_keys=True)``
for the values sumnet emits: dicts with string keys, lists and tuples,
strings, ints, bools and ``None``.  The standard library runs its
pure-Python encoder whenever ``indent`` is set, one generator step per
value.  This writer instead quotes each distinct string once per document,
renders a list whose items are all strings or all ints with one
``str.join``, and appends every piece of the document to one list that is
joined once, so no nested value is copied into its parent's text.  A
``StringTable`` stands for a list of rows of strings given as columns of
indices into one list of strings; its cells are pre-rendered once per
string and its rows are never built.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Sequence


class StringTable:
    """A list of equal-length rows of strings, held as ``columns`` of
    indices into ``strings``: row i is
    ``[strings[c[i]] for c in columns]``.  ``dumps`` renders it exactly as
    it renders that list of lists."""

    def __init__(self, strings: Sequence[str], columns: Sequence[Sequence[int]]):
        if not columns or len({len(c) for c in columns}) != 1:
            raise ValueError("a string table needs one or more columns of equal length")
        self.strings = strings
        self.columns = columns


class _Quoted(dict):
    """str -> its JSON literal, computed on first use."""

    def __missing__(self, s: str) -> str:
        quoted = self[s] = encode_basestring_ascii(s)
        return quoted


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for the types above,
    with each ``StringTable`` as its rows; anything else raises
    ``TypeError``."""
    out: list[str] = []
    _encode(obj, "\n", _Quoted(), out)
    return "".join(out)


def _flat_row(obj, newline: str, quoted: _Quoted) -> str | None:
    """A non-empty list of only strings or only ints, rendered with one
    join; ``None`` for any other list."""
    inner = newline + "  "
    sep = "," + inner
    first = type(obj[0])
    if first is str:
        try:
            return f"[{inner}{sep.join(map(quoted.__getitem__, obj))}{newline}]"
        except TypeError:  # some item is not a str
            return None
    if first is int and set(map(type, obj)) == {int}:
        return f"[{inner}{sep.join(map(int.__repr__, obj))}{newline}]"
    return None


def _table(table: StringTable, newline: str, quoted: _Quoted, out: list[str]) -> None:
    """A ``StringTable``, one piece per cell: each cell is rendered with the
    text before it, and the last cell of a row also closes the row and
    opens the next one."""
    columns = table.columns
    if not len(columns[0]):
        out.append("[]")
        return
    inner = newline + "  "
    cell = inner + "  "
    literals = list(map(quoted.__getitem__, table.strings))
    width = len(columns)
    start = len(out)
    out += [""] * (width * len(columns[0]))
    for c, column in enumerate(columns):
        before = "[" if c == 0 else ","
        after = f"{inner}],{inner}" if c == width - 1 else ""
        rendered = [f"{before}{cell}{q}{after}" for q in literals]
        out[start + c :: width] = map(rendered.__getitem__, column)
    # the table's own brackets replace the first row's opening and the
    # last row's trailing separator
    out[start] = f"[{inner}{out[start]}"
    out[-1] = f"{out[-1][: -len(inner) - 1]}{newline}]"


def _encode(obj, newline: str, quoted: _Quoted, out: list[str]) -> None:
    # ``newline`` is a line break plus the indentation of the line obj
    # starts on; bool is tested before int, as json.encoder does
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        row = _flat_row(obj, newline, quoted)
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
            # rows of a table are tried here, saving a call per row
            row = _flat_row(item, inner, quoted) if type(item) is list and item else None
            if row is None:
                _encode(item, inner, quoted, out)
            else:
                out.append(row)
        out.append(newline + "]")
    elif isinstance(obj, str):
        out.append(quoted[obj])
    elif isinstance(obj, StringTable):
        _table(obj, newline, quoted, out)
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
