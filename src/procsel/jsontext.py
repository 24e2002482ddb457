"""Input files in, indented JSON out.

read_text and read_json read every input file (registry, lexicon,
config, BPMN, WSDL, report). A file that cannot be read, is not UTF-8 or
is not JSON raises the caller's domain error, naming the path and, for
bad bytes or syntax, the line and column. registry_json decodes a
registry file's bytes as read_json decodes the file, and also notes
where each service record lies in them.

dumps_indented returns, byte for byte, json.dumps(value, indent=2). With
indent set, json.dumps bypasses the C encoder and runs a pure-Python
generator per value. Reports and registry files are all indented, so they
are written here instead: one recursion over dicts and lists, strings
escaped by the C helper json itself uses, scalars formatted by their own
__repr__ (a list of floats in one joined pass), one join at the end.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path


def read_bytes(path: str | Path, kind: str, error: type[Exception]) -> bytes:
    """The file's bytes; a failure to read raises error(message)."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror}") from exc


def _text(raw: bytes, path, error: type[Exception]) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = raw.rfind(b"\n", 0, exc.start) + 1
        line = raw.count(b"\n", 0, start) + 1
        column = len(raw[start:exc.start].decode("utf-8")) + 1
        raise error(f"{path}: line {line}, column {column}: not UTF-8 text") from exc


def _loads(text: str, path, error: type[Exception]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # int() refuses integers past sys.get_int_max_str_digits()
        raise error(f"{path}: JSON integer has too many digits") from exc
    except RecursionError:  # the decoder recurses once per nested array or object
        raise error(f"{path}: JSON nested too deeply") from None


def read_text(path: str | Path, kind: str, error: type[Exception]) -> str:
    """The file's text, decoded as UTF-8; any failure raises error(message)."""
    return _text(read_bytes(path, kind, error), path, error)


def read_json(path: str | Path, kind: str, error: type[Exception]):
    """The file's JSON value; any failure raises error(message)."""
    return _loads(read_text(path, kind, error), path, error)


_scan = json.JSONDecoder().scan_once  # the C scanner json.loads runs: (value, end) of the value at an index
_skip = WHITESPACE.match  # the whitespace json allows between tokens


def registry_json(raw: bytes, path: str | Path, error: type[Exception]):
    """The JSON value of a registry file's bytes, and where its service records lie.

    Returns (value, spans). value is what read_json returns for a file of
    these bytes, and any bytes read_json refuses are refused with its text.
    spans maps (i, j) to the byte offsets (start, end) of
    value["categories"][i]["services"][j], for every such record; the
    last of duplicate keys wins, as in json.loads. The top-level object,
    the categories list, each category object and its services list are
    walked here, and every other value is decoded by json's own scanner,
    so noting the spans costs no second decode. spans is None when the
    top level is not an object, or when the walk runs out of stack where
    json.loads does not.
    """
    text = _text(raw, path, error)
    try:
        value, spans = _walk(text)
    except (ValueError, IndexError, StopIteration, RecursionError):
        # json.loads raises its own error for the text the walk refused
        return _loads(text, path, error), None
    if len(text) != len(raw):  # not all ASCII: string offsets are not byte offsets
        spans = _byte_spans(text, spans)
    return value, spans


def _walk(s: str):
    """(value, spans) of the text of a registry file, spans in string offsets."""
    spans: dict[tuple[int, int], tuple[int, int]] = {}

    def top_member(key, at):
        if key != "categories":
            return _scan(s, at)
        spans.clear()
        return _array(s, at, category) if s[at] == "[" else _scan(s, at)

    def category(i, at):
        if s[at] != "{":
            return _scan(s, at)
        services: dict[int, tuple[int, int]] = {}

        def member(key, at):
            if key != "services":
                return _scan(s, at)
            services.clear()
            return _array(s, at, service) if s[at] == "[" else _scan(s, at)

        def service(j, at):
            value, end = _scan(s, at)
            services[j] = (at, end)
            return value, end

        value, end = _object(s, at, member)
        spans.update(((i, j), span) for j, span in services.items())
        return value, end

    at = _skip(s, 0).end()
    if s[at] != "{":
        raise ValueError("top level is not an object")
    value, at = _object(s, at, top_member)
    if _skip(s, at).end() != len(s):
        raise ValueError("extra data")
    return value, spans


def _object(s: str, at: int, member):
    """The object at s[at] == "{" and its end; member(key, at) decodes each member's value."""
    value = {}
    at = _skip(s, at + 1).end()
    if s[at] == "}":
        return value, at + 1
    while True:
        if s[at] != '"':
            raise ValueError("expected a key")
        key, at = scanstring(s, at + 1)
        at = _skip(s, at).end()
        if s[at] != ":":
            raise ValueError("expected ':'")
        value[key], at = member(key, _skip(s, at + 1).end())
        at = _skip(s, at).end()
        if s[at] == "}":
            return value, at + 1
        if s[at] != ",":
            raise ValueError("expected ',' or '}'")
        at = _skip(s, at + 1).end()


def _array(s: str, at: int, item):
    """The array at s[at] == "[" and its end; item(index, at) decodes each item."""
    value = []
    at = _skip(s, at + 1).end()
    if s[at] == "]":
        return value, at + 1
    while True:
        decoded, at = item(len(value), at)
        value.append(decoded)
        at = _skip(s, at).end()
        if s[at] == "]":
            return value, at + 1
        if s[at] != ",":
            raise ValueError("expected ',' or ']'")
        at = _skip(s, at + 1).end()


def _byte_spans(text: str, spans: dict) -> dict:
    """spans with each string offset into text turned into a UTF-8 byte offset."""
    offsets: dict[int, int] = {}
    char = byte = 0
    for offset in sorted({offset for span in spans.values() for offset in span}):
        byte += len(text[char:offset].encode("utf-8"))
        char = offset
        offsets[offset] = byte
    return {place: (offsets[start], offsets[end]) for place, (start, end) in spans.items()}


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


# Exact types only; subclasses take the isinstance path in _append.
_SCALARS = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def dumps_indented(value) -> str:
    """Return json.dumps(value, indent=2); dict keys must be str."""
    out: list[str] = []
    _append(value, out, 0, ["\n"])
    return "".join(out)


def _append(value, out: list[str], depth: int, newlines: list[str]) -> None:
    """Append value's text; newlines[d] is "\\n" plus d levels of indent."""
    encode = _SCALARS.get(type(value))
    if encode is not None:
        out.append(encode(value))
        return
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        out.append(_scalar_subclass_text(value))
        return
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    if len(newlines) == depth + 1:
        newlines.append(newlines[depth] + "  ")
    inner = newlines[depth + 1]
    separator = "," + inner
    out.append("{" if is_dict else "[")
    first = len(out)
    if is_dict:
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            encode = _SCALARS.get(type(item))
            if encode is None:
                _append(item, out, depth + 1, newlines)
            else:
                out.append(encode(item))
    elif set(map(type, value)) == {float}:
        # a float list is one C pass; finite float text never holds an "n"
        text = separator.join(map(float.__repr__, value))
        if "n" in text:
            text = separator.join(map(_float_text, value))
        out.append(separator)
        out.append(text)
    else:
        for item in value:
            out.append(separator)
            encode = _SCALARS.get(type(item))
            if encode is None:
                _append(item, out, depth + 1, newlines)
            else:
                out.append(encode(item))
    out[first] = inner  # the first item has no comma before it
    out.append(newlines[depth])
    out.append("}" if is_dict else "]")


def _scalar_subclass_text(value) -> str:
    # json tests str, then int, then float with isinstance
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
