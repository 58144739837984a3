"""The indented-JSON writer against the standard library encoder."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumnet._jsonwriter import dumps

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
