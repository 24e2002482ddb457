"""Input files in, indented JSON out.

read_text and read_json read every input file (registry, lexicon,
config, BPMN, WSDL, report). A file that cannot be read, is not UTF-8 or
is not JSON raises the caller's domain error, naming the path and, for
bad bytes or syntax, the line and column. decode_json decodes bytes
already read, such as a registry file's under a snapshot write, as
read_json decodes the file.

dumps_indented returns, byte for byte, json.dumps(value, indent=2), or
that text as it reads nested `depth` levels deep in a larger document.
With indent set, json.dumps bypasses the C encoder and runs a pure-Python
generator per value. Registry files, HTTP answers other than reports, and
a report's diagnostics and config echo are written here instead: one
recursion over dicts and lists, strings escaped by the C helper json
itself uses, scalars formatted by their own __repr__ (a list of floats in
one joined pass, join_floats), one join at the end. A report itself is
written by ranking.report_chunks, with float_text and join_floats.
"""

from __future__ import annotations

import json
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


def decode_json(raw: bytes, path: str | Path, error: type[Exception]):
    """The JSON value of the bytes `raw` of the file at `path`, refused as read_json refuses the file."""
    return _loads(_text(raw, path, error), path, error)


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_text(value: float) -> str:
    """A float's JSON text, as json writes it: NaN and ±Infinity for the special values."""
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


def join_floats(values, separator: str) -> str:
    """The JSON texts of floats, joined by separator.

    One C pass; finite float text never holds an "n", so only a list with
    a special value takes the second pass.
    """
    text = separator.join(map(float.__repr__, values))
    if "n" in text:
        text = separator.join(map(float_text, values))
    return text


# Exact types only; subclasses take the isinstance path in _append.
_SCALARS = {
    str: encode_basestring_ascii,
    float: float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def dumps_indented(value, depth: int = 0) -> str:
    """Return json.dumps(value, indent=2), each line after the first
    indented `depth` levels more; dict keys must be str."""
    out: list[str] = []
    _append(value, out, depth, ["\n" + "  " * level for level in range(depth + 1)])
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
        out.append(separator)
        out.append(join_floats(value, separator))
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
        return float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
