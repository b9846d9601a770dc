"""Deterministic JSON output with 17-significant-digit floats, the one
reader for files a user names, and the one key check for the JSON objects
in them (value rules live in :mod:`convecon.core`).

The standard encoder's ``repr`` floats are already round-trippable and
deterministic; ``%.17g`` is used instead so that JSON, the text rendering
and CSV spell every float the same way, and it still parses back to the
exact same double. Keys and strings are quoted as ``json.dumps`` quotes
them (ASCII, ``\\uXXXX`` escapes). Only types our documents actually
contain are supported — anything else is a bug worth raising on.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DomainError


def read_user_file(path: Union[str, Path], what: str) -> str:
    """Text of a file the user named; any failure to read it is a DomainError."""
    path = Path(path)
    try:
        return path.read_text()
    except FileNotFoundError:
        raise DomainError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {what} file {path}: {exc}") from None


def load_json_file(path: Union[str, Path], what: str):
    """The JSON document in a file the user named (see :func:`read_user_file`)."""
    text = read_user_file(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{Path(path)}: not valid JSON ({exc.msg} at line {exc.lineno})") from None


def check_keys(data, required: Sequence[str], optional: Sequence[str] = (), *,
               source: str, noun: str = "field(s)") -> None:
    """Require a JSON object with every ``required`` key and no key outside
    ``required`` + ``optional``; the values are left to the value objects."""
    if not isinstance(data, Mapping):
        raise DomainError(f"{source}: expected a JSON object")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise DomainError(f"{source}: unknown {noun}: {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise DomainError(f"{source}: missing {noun}: {', '.join(missing)}")


@contextmanager
def named(source: str):
    """Prefix a :class:`DomainError` raised in the block with ``source``."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from None


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite float in JSON document")
    return "%.17g" % value


def _encode(obj, pieces: list, indent: int, level: int) -> None:
    kind = type(obj)
    # Exact built-in types first; subclasses (bool, enums, numpy scalars)
    # take the isinstance chain below.
    if kind is float:
        pieces.append(format_float(obj))
    elif kind is str:
        pieces.append(encode_basestring_ascii(obj))
    elif kind is int:
        pieces.append(str(obj))
    elif kind is dict:
        _encode_mapping(obj, pieces, indent, level)
    elif kind is list or kind is tuple:
        _encode_sequence(obj, pieces, indent, level)
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(float(obj)))
    elif isinstance(obj, Enum):
        _encode(obj.value, pieces, indent, level)
    elif isinstance(obj, str):
        pieces.append(encode_basestring_ascii(obj))
    elif isinstance(obj, Mapping):
        _encode_mapping(obj, pieces, indent, level)
    elif isinstance(obj, Sequence):
        _encode_sequence(obj, pieces, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _encode_mapping(obj: Mapping, pieces: list, indent: int, level: int) -> None:
    if not obj:
        pieces.append("{}")
        return
    open_sep, close_sep, item_sep = _separators(indent, level)
    pieces.append("{" + open_sep)
    for i, (key, value) in enumerate(obj.items()):
        if i:
            pieces.append("," + item_sep)
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
        pieces.append(encode_basestring_ascii(key) + ": ")
        _encode(value, pieces, indent, level + 1)
    pieces.append(close_sep + "}")


def _encode_sequence(obj: Sequence, pieces: list, indent: int, level: int) -> None:
    if not obj:
        pieces.append("[]")
        return
    open_sep, close_sep, item_sep = _separators(indent, level)
    pieces.append("[" + open_sep)
    for i, value in enumerate(obj):
        if i:
            pieces.append("," + item_sep)
        _encode(value, pieces, indent, level + 1)
    pieces.append(close_sep + "]")


def _separators(indent: int, level: int) -> tuple[str, str, str]:
    if indent <= 0:
        return "", "", " "
    pad = " " * (indent * (level + 1))
    return "\n" + pad, "\n" + " " * (indent * level), "\n" + pad


def dumps(obj, *, indent: int = 0) -> str:
    """Serialize to a JSON string; ``indent > 0`` pretty-prints."""
    pieces: list = []
    _encode(obj, pieces, indent, 0)
    return "".join(pieces)


def dump_line(obj) -> str:
    """One compact JSON document plus newline (for JSON Lines files)."""
    return dumps(obj) + "\n"
