"""canonical_json against its oracle, json.dumps(doc, sort_keys=True, indent=1) + "\\n".

Every bundle file, verify report and JSON dump is rendered by
canonical_json, and a bundle is refused unless its stored bytes equal the
re-rendered ones.  So the direct writer must give json.dumps's exact bytes
on every document json.dumps writes, and refuse with TypeError every
document json.dumps refuses.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.session import canonical_json


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class Reading(float):
    """A float subclass whose repr and str are not its value: json writes
    float.__repr__ of it."""

    __repr__ = __str__ = lambda self: "reading"


class Count(int):
    __repr__ = __str__ = lambda self: "count"


texts = st.text(st.characters(exclude_categories=()))  # surrogates included
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(-10**40, 10**40),
    floats,
    floats.map(Reading),
    floats.map(np.float64),  # a float subclass, so json writes it
    st.integers().map(Count),
    st.booleans(),
    st.none(),
)
# the keys of one dict: json sorts them, so they are all strings, all
# numbers (int, float and bool compare with each other) or one None
key_sets = st.one_of(
    st.just(texts),
    st.just(st.integers() | floats | st.booleans() | floats.map(Reading)),
    st.just(st.none()),
)


@st.composite
def dicts(draw, children):
    keys = draw(key_sets)
    return draw(st.dictionaries(keys, children, max_size=5))


documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts(children),
    ),
    max_leaves=40,
)

SPECIALS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
            2.2250738585072014e-308 / 3, 1e16, 1e-7, 0.1, 123456789012345680.0]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=documents)
@example(doc={})
@example(doc=[])
@example(doc=())
@example(doc={"a": [], "b": {}, "c": [[], [{}]]})
@example(doc=SPECIALS)
@example(doc={x: x for x in SPECIALS})
@example(doc=["é ∑ 😀", '"quoted" \\ back', "\x00\x01\x1f\x7f\n\t", "\ud800 \udfff"])
@example(doc={"é": 1, "\ud800": 2, '"': 3, "\n": 4, "": 5})
@example(doc=[10**30, -10**30, -1, 0, True, False, None])
@example(doc={True: 1, 2: "b", 0.5: "c", False: 0})
@example(doc={None: [None]})
@example(doc=[Reading(1.5), Count(3), np.float64(0.1), {Reading(2.5): Count(4)}])
@example(doc="top-level string")
@example(doc=7)
def test_equals_json_dumps(doc):
    assert canonical_json(doc) == oracle(doc)


def refusal(render, doc):
    try:
        render(doc)
    except TypeError:
        return TypeError
    return None


REFUSED = [
    pytest.param({1, 2}, id="set"),
    pytest.param([Fraction(1, 3)], id="fraction"),
    pytest.param({"a": np.int64(3)}, id="numpy-int"),
    pytest.param([np.float32(0.5)], id="numpy-float32"),
    pytest.param([[np.bool_(True)]], id="numpy-bool"),
    pytest.param(b"bytes", id="bytes"),
    pytest.param({(1, 2): 0}, id="tuple-key"),
    pytest.param({(1, 2): 0, (3, 4): 1}, id="tuple-keys"),
    pytest.param({"a": 1, 2: 3}, id="mixed-keys"),
    pytest.param({None: 1, "a": 2}, id="none-and-str-keys"),
    pytest.param([{"x": [1, {1, 2}]}], id="nested-set"),
]


@pytest.mark.parametrize("doc", REFUSED)
def test_refuses_what_json_dumps_refuses(doc):
    assert refusal(oracle, doc) is TypeError
    assert refusal(canonical_json, doc) is TypeError


bad_leaves = st.sampled_from([frozenset(), Fraction(1, 2), np.int64(1), np.float32(1), object()])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=st.recursive(
    scalars | bad_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        dicts(children),
        st.dictionaries(st.tuples(st.integers()) | st.text(), children, max_size=3),
    ),
    max_leaves=20,
))
def test_refuses_exactly_where_json_dumps_does(doc):
    want = refusal(oracle, doc)
    assert refusal(canonical_json, doc) is want
    if want is None:
        assert canonical_json(doc) == oracle(doc)

