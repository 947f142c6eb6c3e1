"""The JSON writer: byte for byte what json.dumps(indent=2) writes."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlehunt import serialize
from bundlehunt.hunter import HuntRequest, hunt
from bundlehunt.qbundle import HilbertParams, cohomology_table, square_window

# Every str, including lone surrogates; the samples make sure quotes,
# backslashes, control and non-ASCII characters turn up.
STRINGS = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é€😀", "\ud800", "a/b"]
)
INTS = st.integers() | st.integers(min_value=-(10**80), max_value=10**80)
SCALARS = st.none() | st.booleans() | INTS | STRINGS
# the grammar the writers produce: dicts with str keys, lists, tuples, scalars
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(STRINGS, inner, max_size=5),
    max_leaves=40,
)


def reference(data) -> str:
    return json.dumps(data, indent=2) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(DOCUMENTS)
def test_dump_json_is_json_dumps_indent_2(data):
    assert serialize.dump_json(data) == reference(data)


@pytest.mark.parametrize("bad", [1.5, {1: "int key"}, {True: 0}, {"set": {1}}, [b"bytes"]])
def test_dump_json_refuses_what_no_writer_produces(bad):
    with pytest.raises(TypeError):
        serialize.dump_json(bad)


@pytest.mark.parametrize(
    "params",
    [(F(1, 2), F(1, 2), F(1, 4), 2), (F(1, 3), F(0), F(2), 3), (F(1, 4), F(0), F(1), 4)],
)
def test_hunted_certificates_and_tables_dump_as_json_dumps_does(params):
    cert = hunt(HuntRequest(HilbertParams(*params), verify_window=2))
    data = serialize.certificate_to_json(cert)
    text = serialize.dump_json(data)
    assert text == reference(data)
    back = serialize.certificate_from_json(json.loads(text))
    assert serialize.dump_json(serialize.certificate_to_json(back)) == text
    table = serialize.table_to_json(cohomology_table(cert.desc, square_window(2)))
    assert serialize.dump_json(table) == reference(table)
