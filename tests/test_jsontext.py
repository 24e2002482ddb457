from __future__ import annotations

import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from procsel.errors import RegistryError
from procsel.jsontext import decode_json, dumps_indented, read_json

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
@given(value=_JSON_VALUES, depth=st.integers(0, 5))
def test_equals_json_dumps_indent_2(value, depth):
    assert dumps_indented(value) == json.dumps(value, indent=2)
    # json escapes a newline inside a string, so every newline is the layout's
    assert dumps_indented(value, depth) == json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


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


# --- decode_json: bytes already read, refused as read_json refuses the file ---

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
        decode_json(raw, path, RegistryError)
    assert str(refused.value) == str(expected.value)
