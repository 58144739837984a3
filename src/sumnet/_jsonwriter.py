"""The one writer of indented JSON in sumnet.

``dumps(obj)`` returns exactly ``json.dumps(obj, indent=2, sort_keys=True)``
for the values sumnet emits: dicts with string keys, lists and tuples,
strings, ints, bools and ``None``.  The standard library runs its
pure-Python encoder whenever ``indent`` is set, one generator step per
value.  This writer instead quotes each distinct string once per document
and renders a list whose items are all strings or all ints with one
``str.join``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii


class _Quoted(dict):
    """str -> its JSON literal, computed on first use."""

    def __missing__(self, s: str) -> str:
        quoted = self[s] = encode_basestring_ascii(s)
        return quoted


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for the types above;
    anything else raises ``TypeError``."""
    return _encode(obj, "\n", _Quoted())


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


def _encode(obj, newline: str, quoted: _Quoted) -> str:
    # ``newline`` is a line break plus the indentation of the line obj
    # starts on; bool is tested before int, as json.encoder does
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        row = _flat_row(obj, newline, quoted)
        if row is not None:
            return row
        inner = newline + "  "
        items = []
        for item in obj:
            # rows of a table are tried here, saving a call per row
            row = _flat_row(item, inner, quoted) if type(item) is list and item else None
            items.append(_encode(item, inner, quoted) if row is None else row)
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(obj, str):
        return quoted[obj]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{quoted[key]}: {_encode(value, inner, quoted)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
