from __future__ import annotations

import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from procsel.errors import RegistryError
from procsel.jsontext import dumps_indented, read_json, registry_json
from procsel.registry import _FileRecords

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | st.integers(min_value=-(2**300), max_value=-(2**64))
    | st.floats()  # NaN and +-inf included
    | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1.7976931348623157e308])
    | st.text()  # non-ASCII and control characters included
    | st.sampled_from(["\ud800", "a\udfffb", "\x00\x1f\x7f", '"\\/', "  ", "\U0001f600"])
)

_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.lists(st.floats(), max_size=6)  # the float-list pass
        | st.dictionaries(st.text(), children, max_size=6)
    ),
    max_leaves=60,
)


@settings(max_examples=400, deadline=None, database=None)
@given(value=_JSON_VALUES)
def test_equals_json_dumps_indent_2(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


class _Level(enum.IntEnum):
    HIGH = 3


class _Ratio(float):
    pass


class _Name(str):
    pass


def test_scalar_subclasses_and_empty_containers_match_json():
    value = {
        _Name("key"): [_Level.HIGH, _Ratio(0.5), _Ratio(math.nan), _Name("xé")],
        "empty": [{}, [], (), {"nested": [[], {}]}],
        "floats": [1.0, math.inf, -0.0],
    }
    assert dumps_indented(value) == json.dumps(value, indent=2)
    for scalar in (None, True, False, 0, -7, 2.5, "", "text", _Level.HIGH):
        assert dumps_indented(scalar) == json.dumps(scalar, indent=2)


def test_non_str_key_is_a_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_indented({"outer": {1: "one"}})


def test_unknown_type_is_a_type_error():
    with pytest.raises(TypeError, match="set"):
        dumps_indented([{1, 2}])


# --- registry_json: json.loads, and where each service record lies ----------------

_GAPS = st.text(alphabet=" \t\r\n", max_size=3)  # JSON's whitespace, between any two tokens
_KEYS = st.sampled_from(["ws.a", "ws.b", "ws.c", "ws.é"])  # few, so that some repeat: the first wins
_RECORDS = st.fixed_dictionaries(
    {"serviceKey": _KEYS, "name": st.text(max_size=6)},  # raw non-ASCII names: spans are byte offsets
    optional={"operations": st.lists(st.dictionaries(st.text(max_size=4), st.integers(), max_size=2), max_size=2)},
)
_OTHER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _registry_texts(draw):
    """The JSON text of a registry file, in a drawn layout, with the shapes
    a reader must get right: extra and duplicate keys, where the last one
    wins also when it is not a list; non-object categories; non-list services."""

    def gap():
        return draw(_GAPS)

    def dump(value):
        indent = draw(st.sampled_from([None, 0, 2, "\t"]))
        separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", "\r: ")]))
        return json.dumps(value, indent=indent, separators=separators, ensure_ascii=draw(st.booleans()))

    def members(pairs):
        return "{" + gap() + ",".join(
            f"{gap()}{dump(key)}{gap()}:{gap()}{value}{gap()}" for key, value in pairs
        ) + gap() + "}"

    def items(texts):
        return "[" + gap() + ",".join(f"{gap()}{text}{gap()}" for text in texts) + gap() + "]"

    def keyed(name, value_text, extra):
        pairs = [(key, dump(value)) for key, value in draw(st.lists(st.tuples(extra, _OTHER_VALUES), max_size=2))]
        for _ in range(draw(st.integers(1, 2))):
            pairs.insert(draw(st.integers(0, len(pairs))), (name, value_text()))
        return members(pairs)

    def services():
        if draw(st.integers(0, 5)) == 0:
            return dump(draw(_OTHER_VALUES))  # not a list
        return items([dump(draw(_RECORDS | _OTHER_VALUES)) for _ in range(draw(st.integers(0, 4)))])

    def category():
        if draw(st.integers(0, 5)) == 0:
            return dump(draw(_OTHER_VALUES))  # not an object
        return keyed("services", services, st.sampled_from(["name", "keywords", "é"]))

    def categories():
        if draw(st.integers(0, 5)) == 0:
            return dump(draw(_OTHER_VALUES))
        return items([category() for _ in range(draw(st.integers(0, 3)))])

    return gap() + keyed("categories", categories, st.sampled_from(["version", "ü", "categoriez"])) + gap()


@settings(max_examples=300, deadline=None, database=None)
@given(text=_registry_texts())
def test_registry_json_equals_json_loads_and_its_spans_hold_the_records(text):
    raw = text.encode("utf-8")
    value, spans = registry_json(raw, "registry.json", RegistryError)
    assert value == json.loads(text)
    categories = value.get("categories")
    places = {
        (i, j)
        for i, category in enumerate(categories if isinstance(categories, list) else [])
        if isinstance(category, dict) and isinstance(category.get("services"), list)
        for j in range(len(category["services"]))
    }
    assert set(spans) == places
    for (i, j), (start, end) in spans.items():
        assert json.loads(raw[start:end]) == categories[i]["services"][j]
    if places and all(isinstance(c, dict) and isinstance(c.get("services", []), list) for c in categories):
        # the index a snapshot write keeps: each serviceKey's first record
        records = [
            (record, (i, j)) for i, category in enumerate(categories)
            for j, record in enumerate(category.get("services", []))
            if isinstance(record, dict) and type(record.get("serviceKey")) is str
        ]
        index = _FileRecords(value, "registry.json").index(spans)
        assert set(index) == {record["serviceKey"] for record, _ in records}
        for key, (i, j, start, end) in index.items():
            assert (i, j) == next(place for record, place in records if record["serviceKey"] == key)
            assert (start, end) == spans[i, j]


def test_registry_json_of_a_top_level_that_is_not_an_object_has_no_spans():
    assert registry_json(b' [{"categories": []}]\n', "registry.json", RegistryError) == ([{"categories": []}], None)


_SERVICE = b'{"categories": [{"name": "c", "services": [%s]}]}'


@pytest.mark.parametrize("raw", [
    _SERVICE % b'{"serviceKey": "ws.a",}',  # invalid JSON inside a record
    _SERVICE % b'{"serviceKey": "ws.a"} {}',
    b'{"categories": [], }',
    b'{"categories": [{"services": [1,]}]}',
    b'{"categories": [{"services": [1]]}',
    b'{"categories": [{"services": [1]}, ]}',
    b'{"categories": [{"services": [{}]}]',  # cut short
    b'{"categories": []} {"more": 1}',  # trailing data
    b'\xef\xbb\xbf{"categories": []}',  # a byte order mark
    _SERVICE % (b'{"n": 1' + b"0" * 5000 + b"}"),  # an integer past the digit limit
    _SERVICE % (b"[" * 100_000 + b"]" * 100_000),  # nested too deeply inside one service
    _SERVICE % b'{"name": "caf\xe9"}',  # not UTF-8
    b"",
])
def test_registry_json_refuses_with_read_json_s_text(tmp_path, raw):
    path = tmp_path / "registry.json"
    path.write_bytes(raw)
    with pytest.raises(RegistryError) as expected:
        read_json(path, "registry", RegistryError)
    with pytest.raises(RegistryError) as refused:
        registry_json(raw, path, RegistryError)
    assert str(refused.value) == str(expected.value)
