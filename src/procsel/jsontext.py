"""Indented JSON text, byte for byte what json.dumps(value, indent=2) gives.

With indent set, json.dumps bypasses the C encoder and runs a pure-Python
generator per value. Reports and registry files are all indented, so they
are written here instead: one recursion over dicts and lists, strings
escaped by the C helper json itself uses, scalars formatted by their own
__repr__ (a list of floats in one joined pass), one join at the end.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

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
