"""The indented-JSON writer against the standard library encoder."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet import _jsonwriter
from sumnet._jsonwriter import LiftedMatrix, StringTable, dump, dumps
from sumnet.coding import _lift
from sumnet.field import FieldMatrix, PrimeField

TRICKY = ["", '"', "\\", "\n", "\t", "\x00", "\x7f", "é", " ", "😀", "terminal-block:7"]
text = st.text() | st.sampled_from(TRICKY)
ints = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
scalars = st.none() | st.booleans() | ints | text
flat_rows = (
    st.lists(ints, min_size=1)
    | st.lists(text, min_size=1)
    # mixed rows: bools among ints, or a str first and something else later
    | st.lists(scalars, min_size=1)
    | st.tuples(text, ints)
)
trees = st.recursive(
    scalars | flat_rows,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(text, children),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_writer_equals_indented_sorted_json_dumps(tree):
    assert dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"a": {}}, [1, True], [True, 1], ["a", 1], ["a", None], [[1, 2], ["x"]], (1, "2")],
)
def test_writer_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a"}, 1.5, {"a": {1, 2}}, [b"x"]])
def test_writer_rejects_what_sumnet_never_writes(value):
    with pytest.raises(TypeError):
        dumps(value)


def _with_rows(value):
    """``value`` with every StringTable replaced by its rows."""
    if isinstance(value, StringTable):
        return [[value.strings[i] for i in row] for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {key: _with_rows(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_with_rows(item) for item in value]
    return value


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_string_table_renders_as_its_rows(data):
    strings = data.draw(st.lists(text, min_size=1, max_size=6))
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(0, 6))
    index = st.integers(0, len(strings) - 1)
    columns = [np.array(data.draw(st.lists(index, min_size=rows, max_size=rows)), dtype=np.int64) for _ in range(width)]
    table = StringTable(strings, columns)
    for value in (table, {"t": table, "n": 1}, [table, [table]], {"a": {"b": table}}):
        assert dumps(value) == json.dumps(_with_rows(value), indent=2, sort_keys=True)


class _Writes(io.StringIO):
    """A text buffer that keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([np.int32, np.int64]), st.integers(1, 3))
def test_string_table_renders_in_chunks_of_rows(data, dtype, chunk):
    strings = data.draw(st.lists(text, min_size=1, max_size=4))
    width = data.draw(st.integers(1, 3))
    # one row short of, exactly at and one row past 1, 2 or 3 chunks
    rows = data.draw(st.sampled_from([k * chunk + d for k in (1, 2, 3) for d in (-1, 0, 1)]))
    index = st.integers(0, len(strings) - 1)
    columns = [np.array(data.draw(st.lists(index, min_size=rows, max_size=rows)), dtype=dtype) for _ in range(width)]
    table = StringTable(strings, columns)
    with mock.patch.object(_jsonwriter, "_TABLE_ROWS", chunk):
        for value in (table, {"t": table, "n": [table]}):
            expected = json.dumps(_with_rows(value), indent=2, sort_keys=True)
            assert dumps(value) == expected
            written = _Writes()
            dump(value, written)
            assert written.getvalue() == expected
        # at the top level a row opens with "\n  [", which no quoted
        # string holds: no write holds more than one chunk of rows
        written = _Writes()
        dump(table, written)
    opened = [s.count("\n  [") for s in written.writes]
    assert sum(opened) == rows and max(opened) <= chunk
    assert rows <= chunk or len(written.writes) > 1


# the last three: a list column, a 2-D column and a float column
@pytest.mark.parametrize(
    "columns", [[], [np.array([0]), np.array([0, 0])], [[0], [0]], [np.array([[0]])], [np.array([0.0])]]
)
def test_string_table_needs_equal_columns(columns):
    with pytest.raises(ValueError):
        StringTable(["a"], columns)


BIG = PrimeField(2**31 - 1)


def _lifted_rows(value):
    """``value`` with every LiftedMatrix replaced by the rows of its lift."""
    if isinstance(value, LiftedMatrix):
        return _lift(FieldMatrix._trusted(BIG, value.core), value.w).array.tolist()
    if isinstance(value, dict):
        return {key: _lifted_rows(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_lifted_rows(item) for item in value]
    return value


@st.composite
def cores(draw):
    """Cores with 0 rows or 0 columns among them, sparse or dense, with
    entries up to 2^31 - 2."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 7))
    nonzero = draw(st.floats(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    high = draw(st.sampled_from([2, 3, 2**31 - 1]))
    values = rng.integers(1, high, size=(rows, cols), dtype=np.int64)
    return np.where(rng.random((rows, cols)) < nonzero, values, 0)


@settings(max_examples=200, deadline=None)
@given(cores(), st.integers(1, 4), cores())
def test_lifted_matrix_renders_as_the_rows_of_its_lift(core, w, other):
    matrix = LiftedMatrix(core, w)
    nested = (
        matrix,
        [matrix],
        [1, [matrix, LiftedMatrix(other, w)]],
        {"m": matrix, "n": 1},
        {"a": {"b": [matrix], "c": "x"}},
    )
    for value in nested:
        expected = json.dumps(_lifted_rows(value), indent=2, sort_keys=True)
        assert dumps(value) == expected
        written = io.StringIO()
        dump(value, written)
        assert written.getvalue() == expected


@pytest.mark.parametrize(
    "core,w", [(np.zeros(3, dtype=np.int64), 1), (np.zeros((2, 2)), 1), (np.zeros((2, 2), dtype=np.int64), 0)]
)
def test_lifted_matrix_needs_a_2d_integer_core(core, w):
    with pytest.raises(ValueError):
        LiftedMatrix(core, w)
