"""The document encoder: every supported type, nested, spelled as the
standard library spells keys and strings, and parsing back to its input."""

import json
from enum import Enum

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convecon._jsonio import dumps
from convecon.core import ModelKind


class _Rank(int, Enum):
    LOW = 1
    HIGH = 2


# Any code point, lone surrogates included; json.dumps escapes them all.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
    st.sampled_from(ModelKind),
    st.sampled_from(_Rank),
)

_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)

# The plain JSON types, without floats (``%.17g`` spells those, not repr).
_PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20,
)


def _as_parsed(obj):
    """What json.loads gives back for a document holding ``obj``."""
    if isinstance(obj, Enum):
        return _as_parsed(obj.value)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return {key: _as_parsed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_parsed(value) for value in obj]
    return obj


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_document_parses_back_to_its_input(doc):
    for indent in (0, 2):
        assert json.loads(dumps(doc, indent=indent)) == _as_parsed(doc)


@settings(max_examples=200, deadline=None)
@given(_PLAIN)
def test_plain_document_is_spelled_as_json_dumps_spells_it(doc):
    assert dumps(doc) == json.dumps(doc)
    assert dumps(doc, indent=2) == json.dumps(doc, indent=2)
